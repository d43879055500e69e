"""End-to-end tests for the command-line front end.

Every test drives ``main`` in-process and checks the exit code, the
emitted report, or both.  Exit codes are the external contract: 0 for a
pass or positive finding, 1 for a substantive negative, 2 for usage or
input errors.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontomodels import reports
from ontomodels.cli import (
    RunConfig,
    TABLE_COLUMNS,
    _config_from_args,
    _parser,
    cmd_table,
    main,
)
from ontomodels.data import fragment_path, vector_path
from ontomodels.epibound import fragment_rays, parse_fragment
from ontomodels.rng import DEFAULT_SEED
from ontomodels.simplex import simplex_solve
from ontomodels.zoo import get_model
from test_simplex import _scipy_solve

PERES = str(vector_path("peres33.vec"))
TRIAD = str(vector_path("triad3.vec"))
TWOTRIADS = str(vector_path("twotriads.vec"))
D2_FRAG = str(fragment_path("d2_zx.frag"))
KCBS_FRAG = str(fragment_path("kcbs.frag"))
PERES_FRAG = str(fragment_path("peres33.frag"))

KCBS_GOLDEN = 0.8944271909999157

# the seven-model summary, keyed by registry name: (reciprocity,
# determinism, contextual) as the table renders them
EXPECTED_TABLE = {
    "bb:3": ("yes", "no", "no"),
    "ks": ("yes", "yes", "no"),
    "aaronson": ("yes", "no", "yes"),
    "bell1": ("no", "yes", "yes"),
    "bell2": ("no", "yes", "no"),
    "aerts": ("yes", "no", "no"),
    "ws:3": ("no", "yes", "yes"),
}
STUBS = {"aaronson", "bell1", "aerts"}


def run_cli(*argv):
    """Invoke main() in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse paths (--version, bad choices)
            rc = exc.code if isinstance(exc.code, int) else 0
    return rc, out.getvalue(), err.getvalue()


def run_json(*argv):
    rc, out, err = run_cli(*argv)
    assert err == "", err
    return rc, json.loads(out)


class TestVerify:
    def test_ks_quadrature_hundred_pairs(self):
        rc, rep = run_json(
            "verify", "--model", "ks", "--engine", "quad:17", "--pairs", "100"
        )
        assert rc == 0
        assert rep["engine"] == "quad:17"
        assert rep["report"]["passed"] is True
        assert rep["report"]["max_deviation"] < 1e-6

    def test_bb_closed_deviation_exactly_zero(self):
        rc, rep = run_json("verify", "--model", "bb:3", "--engine", "closed")
        assert rc == 0
        assert rep["report"]["max_deviation"] == 0

    def test_unknown_model_is_usage_error(self):
        rc, out, err = run_cli("verify", "--model", "nosuch")
        assert rc == 2
        assert out == ""
        assert "ontomodels: error:" in err

    def test_bad_engine_spec_is_usage_error(self):
        rc, _, err = run_cli("verify", "--model", "ks", "--engine", "quad:-3")
        assert rc == 2
        assert "ontomodels: error:" in err

    def test_quadrature_below_minimum_level_is_usage_error(self):
        # Levels up to 14 fail the correct ks model at the 1e-6 tolerance.
        rc, out, err = run_cli("verify", "--model", "ks", "--engine", "quad:14")
        assert rc == 2
        assert out == ""
        assert "below 15" in err
        rc, rep = run_json("verify", "--model", "ks", "--engine", "quad:15")
        assert rc == 0
        assert rep["report"]["passed"] is True

    def test_envelope_shape(self):
        rc, rep = run_json(
            "verify", "--model", "bb:3", "--engine", "closed", "--pairs", "3"
        )
        assert rc == 0
        assert sorted(rep) == [
            "command", "engine", "inputs", "report", "seed", "tool",
        ]
        assert rep["tool"] == {
            "name": reports.TOOL_NAME, "version": reports.TOOL_VERSION,
        }
        assert rep["command"] == "verify"
        assert rep["seed"] == DEFAULT_SEED

    def test_text_format_ends_with_verdict(self):
        rc, out, _ = run_cli(
            "verify", "--model", "bb:3", "--engine", "closed",
            "--pairs", "3", "--format", "text",
        )
        assert rc == 0
        assert out.splitlines()[-1] == "PASS"

    def test_csv_format_columns(self):
        rc, out, _ = run_cli(
            "verify", "--model", "bb:3", "--engine", "closed",
            "--pairs", "4", "--format", "csv",
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "psi,phi,basis,predicted,born,deviation,tolerance"
        # one row per sampled outcome: d rows per pair in dimension 3
        assert len(lines) - 1 == 12

    def test_monte_carlo_rows_carry_stderr_and_z(self):
        rc, rep = run_json(
            "verify", "--model", "bell2", "--engine", "mc:20000", "--pairs", "3"
        )
        assert rc in (0, 1)
        for row in rep["report"]["pairs"]:
            assert row["stderr"] > 0
            z = (row["predicted"] - row["born"]) / row["stderr"]
            assert row["z"] == pytest.approx(z, rel=1e-9)

    def test_point_mass_rows_under_monte_carlo_have_null_z(self):
        rc, rep = run_json("verify", "--model", "bb:3", "--engine", "mc:1000", "--pairs", "2")
        assert rc == 0
        assert all(row["stderr"] == 0 and row["z"] is None for row in rep["report"]["pairs"])

    @pytest.mark.parametrize("model,engine", [("bb:3", "closed"), ("ks", "quad:17")])
    def test_deterministic_rows_keep_their_keys(self, model, engine):
        rc, rep = run_json("verify", "--model", model, "--engine", engine, "--pairs", "2")
        assert rc == 0
        for row in rep["report"]["pairs"]:
            assert sorted(row) == [
                "basis", "born", "deviation", "phi", "predicted", "psi", "tolerance",
            ]

    def test_pair_count_respected(self):
        rc, rep = run_json(
            "verify", "--model", "bb:3", "--engine", "closed", "--pairs", "7"
        )
        assert rc == 0
        assert rep["report"]["n_pairs"] == 7 * 3
        assert len(rep["report"]["pairs"]) == 7 * 3


class TestReportDeterminism:
    def test_same_seed_byte_identical(self):
        argv = ("verify", "--model", "ks", "--engine", "mc:2000", "--seed", "11")
        _, first, _ = run_cli(*argv)
        _, second, _ = run_cli(*argv)
        assert first == second
        assert json.loads(first)["seed"] == 11

    def test_different_seed_changes_report(self):
        argv = ("verify", "--model", "ks", "--engine", "mc:2000")
        _, a, _ = run_cli(*argv, "--seed", "11")
        _, b, _ = run_cli(*argv, "--seed", "12")
        assert a != b

    def test_bound_byte_identical(self):
        _, a, _ = run_cli("bound", KCBS_FRAG)
        _, b, _ = run_cli("bound", KCBS_FRAG)
        assert a == b

    def test_output_file_matches_stdout(self, tmp_path):
        target = tmp_path / "report.json"
        argv = ("verify", "--model", "bb:3", "--engine", "closed", "--pairs", "3")
        rc, out, _ = run_cli(*argv)
        rc2, silent, _ = run_cli(*argv, "--output", str(target))
        assert rc == rc2 == 0
        assert silent == ""
        assert target.read_text() == out

    # sha256 prefixes of whole reports, taken before the declared claims and
    # the model registry were each reduced to one table
    @pytest.mark.parametrize("argv,digest", [
        (("table", "--format", "json"), "81fd27b56393b353"),
        (("table", "--format", "text"), "4e20ae1cb5a0468c"),
        (("table", "--format", "csv"), "611492f6364b15c4"),
        (("classify", "--model", "bb:3"), "0d0bacef5b660166"),
        (("classify", "--model", "ks"), "2b642267f8dca2b5"),
        (("classify", "--model", "bell2"), "280e550a0fd6385c"),
        (("classify", "--model", "ws:3"), "0cc6143bd0c6d25e"),
    ])
    def test_table_and_classify_reports_pinned(self, argv, digest):
        rc, out, _ = run_cli(*argv, "--trials", "512", "--seed", "3")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


class TestSeedResolution:
    def test_env_var_sets_default_seed(self, monkeypatch):
        monkeypatch.setenv("ONTOMODELS_SEED", "123")
        _, rep = run_json("verify", "--model", "bb:3", "--engine", "closed",
                          "--pairs", "2")
        assert rep["seed"] == 123

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("ONTOMODELS_SEED", "123")
        _, rep = run_json("verify", "--model", "bb:3", "--engine", "closed",
                          "--pairs", "2", "--seed", "7")
        assert rep["seed"] == 7

    def test_config_overrides_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("ONTOMODELS_SEED", "123")
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("model = bb:3\nengine = closed\nseed = 5\npairs = 2\n")
        _, rep = run_json("verify", "--config", str(cfgfile))
        assert rep["seed"] == 5

    def test_bad_env_seed_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("ONTOMODELS_SEED", "not-a-number")
        rc, _, err = run_cli("verify", "--model", "bb:3", "--engine", "closed")
        assert rc == 2
        assert "ONTOMODELS_SEED" in err


class TestConfigFile:
    def test_config_supplies_flags(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# defaults for the verify run\n"
            "model = bb:3\n"
            "engine = closed   # exact response means\n"
            "pairs = 3\n"
        )
        rc, rep = run_json("verify", "--config", str(cfgfile))
        assert rc == 0
        assert rep["engine"] == "closed"
        assert rep["report"]["model"] == "bb:3"

    def test_explicit_flag_beats_config(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("model = ks\nengine = mc:1000\npairs = 3\n")
        rc, rep = run_json("verify", "--config", str(cfgfile),
                           "--engine", "quad:17")
        assert rc == 0
        assert rep["engine"] == "quad:17"

    def test_config_input_for_ksval(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"input = {TRIAD}\n")
        rc, rep = run_json("ksval", "--config", str(cfgfile))
        assert rc == 0
        assert rep["report"]["file"] == "triad3.vec"

    @pytest.mark.parametrize("text,fragment", [
        ("pears = 3\n", "unknown key"),
        ("just a line without equals\n", "expected"),
        ("pairs = many\n", "invalid"),
    ])
    def test_malformed_config_is_usage_error(self, tmp_path, text, fragment):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text)
        rc, _, err = run_cli("verify", "--model", "bb:3", "--engine", "closed",
                             "--config", str(cfgfile))
        assert rc == 2
        assert fragment in err

    def test_missing_config_is_usage_error(self, tmp_path):
        rc, _, err = run_cli("verify", "--model", "bb:3",
                             "--config", str(tmp_path / "absent.cfg"))
        assert rc == 2
        assert "ontomodels: error:" in err


class TestTable:
    def test_default_run_passes(self):
        rc, rep = run_json("table")
        assert rc == 0
        assert rep["report"]["all_match"] is True
        assert len(rep["report"]["rows"]) == len(EXPECTED_TABLE)

    def test_rows_match_expected_summary(self):
        _, rep = run_json("table")
        for row in rep["report"]["rows"]:
            want = EXPECTED_TABLE[row["name"]]
            got = (row["reciprocity"], row["determinism"], row["contextual"])
            assert got == want, row["name"]
            assert row["mismatch"] is None

    def test_stub_rows_come_from_declarations(self):
        _, rep = run_json("table")
        for row in rep["report"]["rows"]:
            want = "declared" if row["name"] in STUBS else "measured"
            assert row["source"] == want
            assert row["implemented"] == (row["name"] not in STUBS)

    def test_csv_column_order(self):
        rc, out, _ = run_cli("table", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "name,type,reciprocity,determinism,contextual"
        assert lines[0] == ",".join(TABLE_COLUMNS)
        assert len(lines) == 1 + len(EXPECTED_TABLE)

    def test_text_format_flags_stubs(self):
        rc, out, _ = run_cli("table", "--format", "text")
        assert rc == 0
        lines = out.splitlines()
        assert lines[-1] == "OK"
        flagged = [ln for ln in lines if "[unimplemented]" in ln]
        assert len(flagged) == len(STUBS)

    def test_corrupted_declaration_is_caught(self):
        model = get_model("ks")
        bad = dataclasses.replace(
            model,
            declared=dataclasses.replace(
                model.declared, outcome_deterministic=False
            ),
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cmd_table(RunConfig(command="table"), models=[bad])
        assert rc == 1
        body = json.loads(out.getvalue())["report"]
        assert body["all_match"] is False
        diff = body["rows"][0]["mismatch"]
        assert diff == {
            "outcome_determinism": {
                "declared": "fails", "measured": "not_falsified",
            },
        }

    def test_corrupted_declaration_text_diff(self):
        model = get_model("ks")
        bad = dataclasses.replace(
            model,
            declared=dataclasses.replace(model.declared, reciprocal=False),
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cmd_table(
                RunConfig(command="table", fmt="text"), models=[bad, get_model("bb:3")]
            )
        assert rc == 1
        lines = out.getvalue().splitlines()
        assert any("MISMATCH: reciprocity" in ln for ln in lines)
        assert lines[-1] == "MISMATCH"


class TestKsval:
    def test_peres33_is_unsat(self):
        rc, rep = run_json("ksval", PERES)
        assert rc == 1
        body = rep["report"]
        assert body["satisfiable"] is False
        assert body["valuation"] is None
        assert (body["n_rays"], body["n_edges"]) == (33, 72)
        assert body["stats"]["completed"] is True

    def test_unsat_text_verdict(self):
        rc, out, _ = run_cli("ksval", PERES, "--format", "text")
        assert rc == 1
        assert out.splitlines()[-1] == "UNSAT"

    def test_triad_enumerates_three_valuations(self):
        rc, rep = run_json("ksval", TRIAD, "--all")
        assert rc == 0
        body = rep["report"]
        assert body["n_valuations"] == 3
        assert sorted(body["valuations"]) == [
            [0, 0, 1], [0, 1, 0], [1, 0, 0],
        ]

    def test_enumeration_limit(self):
        rc, rep = run_json("ksval", TRIAD, "--all", "--limit", "1")
        assert rc == 0
        assert rep["report"]["n_valuations"] == 1

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_enumeration_limit_below_one_is_usage_error(self, limit):
        rc, out, err = run_cli("ksval", TRIAD, "--all", "--limit", limit)
        assert rc == 2
        assert out == ""
        assert f"--limit must be at least 1, got {limit}" in err

    def test_limit_without_all_is_usage_error(self, tmp_path):
        rc, out, err = run_cli("ksval", TRIAD, "--limit", "2")
        assert (rc, out) == (2, "")
        assert "ksval --limit needs --all" in err
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("limit = 2\n")
        rc, out, err = run_cli("ksval", TRIAD, "--config", str(cfgfile))
        assert (rc, out) == (2, "")
        assert "ksval --limit needs --all" in err

    def test_sat_search_returns_valuation(self):
        rc, rep = run_json("ksval", TWOTRIADS)
        assert rc == 0
        body = rep["report"]
        assert body["satisfiable"] is True
        assert sum(body["valuation"]) >= 1
        assert body["verified"] is True

    def test_input_digest_recorded(self):
        _, rep = run_json("ksval", TRIAD)
        entry = rep["inputs"]["triad3.vec"]
        digest = hashlib.sha256(Path(TRIAD).read_bytes()).hexdigest()
        assert entry["sha256"] == digest

    def test_missing_file_is_usage_error(self):
        rc, _, err = run_cli("ksval", "/no/such/file.vec")
        assert rc == 2
        assert "ontomodels: error:" in err

    def test_missing_input_is_usage_error(self):
        rc, _, err = run_cli("ksval")
        assert rc == 2
        assert "needs an input file" in err


class TestBound:
    def test_d2_fragment_feasible_with_unit_bound(self):
        rc, rep = run_json("bound", D2_FRAG)
        assert rc == 0
        body = rep["report"]
        assert body["feasible"] == "Feasible"
        assert body["f_star"] == 1
        assert body["f_star_status"] == "Optimal"

    def test_kcbs_fragment_bound_below_one(self):
        rc, rep = run_json("bound", KCBS_FRAG)
        assert rc == 1
        body = rep["report"]
        assert body["feasible"] == "Infeasible"
        assert math.isclose(body["f_star"], KCBS_GOLDEN, abs_tol=1e-9)
        assert body["caveat"]

    def test_uncolorable_fragment_has_no_atoms(self):
        rc, rep = run_json("bound", PERES_FRAG)
        assert rc == 1
        body = rep["report"]
        assert body["n_atoms"] == 0
        assert body["f_star"] is None
        assert body["certificate"] == {
            "empty_atoms": True, "valuation_search": "unsat",
        }

    def test_csv_pair_columns(self):
        rc, out, _ = run_cli("bound", KCBS_FRAG, "--format", "csv")
        assert rc == 1
        lines = out.splitlines()
        assert lines[0] == "measured,prepared,born,core_mass,ratio"
        assert len(lines) - 1 == 15

    def test_garbage_fragment_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.frag"
        bad.write_text("this is not a fragment\n")
        rc, _, err = run_cli("bound", str(bad))
        assert rc == 2
        assert "ontomodels: error:" in err

    @pytest.mark.parametrize(
        "head",
        [
            ("state: 1,0 0,0", "state: nan,0 1,0"),
            ("state: 1,0 0,0", "state: 1,0 -inf,0"),
            ("state: 1,0 0,0", "state: 1e400,0 1,0"),
            ("state: 1,0 0,0", "state: 1e200,0 1,0"),  # the norm overflows
            ("exact", "state: 1e400,0 1,0"),
            ("exact", "state: 1e-400,0 0,0"),  # underflows to a float zero
            ("exact", "state: 1e-160,0 1e-160,0"),  # subnormal squares
        ],
    )
    def test_amplitude_without_finite_float_form_is_usage_error(self, tmp_path, head):
        bad = tmp_path / "bad.frag"
        bad.write_text("\n".join(("dim=2", *head, "basis:", "1,0 0,0", "0,0 1,0")) + "\n")
        rc, out, err = run_cli("bound", str(bad))
        assert (rc, out) == (2, "")
        assert "line 3" in err


def _kcbs_ring(n):
    """Float fragment text of the KCBS n-cycle (n odd): rays v_k at azimuth
    k*pi*(n-1)/n around the z axis, tilted so adjacent ones are orthogonal;
    each adjacent pair and its cross product form a basis; the states are
    the v_k and the axis."""
    c = math.cos(math.pi / n)
    z = math.sqrt(c / (1.0 + c))
    phis = [k * math.pi * (n - 1) / n for k in range(n)]
    v = [np.array([math.sqrt(1.0 - z * z) * math.cos(p),
                   math.sqrt(1.0 - z * z) * math.sin(p), z]) for p in phis]

    def line(u):
        return " ".join(f"{float(x)!r},0.0" for x in u)

    lines = ["dim=3"] + [f"state: {line(u)}" for u in v + [np.array([0.0, 0.0, 1.0])]]
    for k in range(n):
        a, b = v[k], v[(k + 1) % n]
        lines += ["basis:", line(a), line(b), line(np.cross(a, b))]
    return "\n".join(lines) + "\n"


# Float fragments whose measured states the rotation test moves; d2_zx is
# read without its exact flag.
FLOAT_FRAGMENTS = {
    "kcbs": Path(KCBS_FRAG).read_text(),
    "d2_zx": Path(D2_FRAG).read_text().replace("exact\n", ""),
    "ring7": _kcbs_ring(7),
}


def _with_states(text, new_states):
    """text with the i-th ``state:`` line holding amplitudes new_states[i]."""
    out, i = [], 0
    for line in text.splitlines():
        if line.startswith("state:"):
            if i in new_states:
                line = "state: " + " ".join(
                    f"{complex(a).real!r},{complex(a).imag!r}" for a in new_states[i]
                )
            i += 1
        out.append(line)
    return "\n".join(out) + "\n"


@st.composite
def rotated_states(draw):
    """A fragment name and its measured states, each turned by at most
    1e-5 rad, inside the same-ray cut's reach of about 4.5e-5 rad."""
    name = draw(st.sampled_from(sorted(FLOAT_FRAGMENTS)))
    frag = parse_fragment(FLOAT_FRAGMENTS[name])
    new_states = []
    for i, r in enumerate(fragment_rays(frag).state_rays):
        if r is None:
            continue
        psi = frag.states[i].amplitudes
        xs = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * frag.dim, max_size=2 * frag.dim))
        w = np.array(xs[: frag.dim]) + 1j * np.array(xs[frag.dim:])
        u = w - np.vdot(psi, w) * psi
        if np.linalg.norm(u) < 0.1:
            continue
        theta = draw(st.floats(0.0, 1e-5))
        amps = math.cos(theta) * psi + math.sin(theta) * u / np.linalg.norm(u)
        new_states.append((i, tuple(amps)))
    return name, tuple(new_states)


# scipy linprog status codes against simplex_solve's
HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


class TestBoundUnderRotatedStates:
    @pytest.fixture(scope="class")
    def unperturbed(self, tmp_path_factory):
        ref = {}
        for name, text in FLOAT_FRAGMENTS.items():
            path = tmp_path_factory.mktemp("ref") / f"{name}.frag"
            path.write_text(text)
            rc, rep = run_json("bound", str(path))
            ref[name] = (rc, rep["report"])
        return ref

    @settings(max_examples=60, deadline=None)
    @given(case=rotated_states())
    # the second kcbs state with 0.4370160244488212 -> 0.437010244488212
    @example(case=("kcbs", ((1, (-0.6015009550075456, 0.437010244488212, 0.668740304976422)),)))
    def test_status_and_f_star_stay(self, case, unperturbed, tmp_path_factory):
        name, new_states = case
        path = tmp_path_factory.mktemp("rot") / f"{name}.frag"
        path.write_text(_with_states(FLOAT_FRAGMENTS[name], dict(new_states)))
        solved = []

        def solve(lp, exact=False):
            res = simplex_solve(lp, exact=exact)
            solved.append((lp, res))
            return res

        # mock.patch, not monkeypatch: hypothesis rejects function-scoped
        # fixtures under @given.
        with mock.patch("ontomodels.epibound.simplex_solve", solve):
            rc, out, err = run_cli("bound", str(path))
        if rc == 2:
            assert re.search(r"line \d+", err), err
            return
        # every LP of the run agrees with the HiGHS reference solver
        assert solved
        for lp, res in solved:
            ref = _scipy_solve(lp)
            assert res.status == HIGHS_STATUS[ref.status]
            if ref.status == 0:
                assert abs(res.value + ref.fun) <= 1e-9
        ref_rc, ref = unperturbed[name]
        body = json.loads(out)["report"]
        assert rc == ref_rc
        assert (body["feasible"], body["f_star_status"]) == (ref["feasible"], ref["f_star_status"])
        assert abs(body["f_star"] - ref["f_star"]) <= 1e-9


class TestPrepctx:
    def test_ks_mixture_is_context_sensitive(self):
        rc, rep = run_json(
            "prepctx", "--model", "ks", "--rho", "unpolarized", "--ctx", "z,x"
        )
        assert rc == 0
        body = rep["report"]
        assert body["tv_distance"] > 0.1
        assert body["preparation_contextual"] is True
        assert body["mix_deviation"] < 1e-12
        assert math.isclose(body["tv_distance"], math.sqrt(2) - 1, abs_tol=1e-9)

    def test_context_aliases(self):
        _, short = run_json("prepctx", "--model", "ks", "--ctx", "z,x")
        _, long = run_json("prepctx", "--model", "ks", "--ctx", "standard,fourier")
        assert short["report"]["tv_distance"] == long["report"]["tv_distance"]

    def test_unknown_rho_is_usage_error(self):
        rc, _, err = run_cli("prepctx", "--model", "ks", "--rho", "pure")
        assert rc == 2
        assert "unknown rho" in err

    @pytest.mark.parametrize("ctx", ["z", "z,x,y", "z,sideways"])
    def test_bad_contexts_are_usage_errors(self, ctx):
        rc, _, err = run_cli("prepctx", "--model", "ks", "--ctx", ctx)
        assert rc == 2


class TestClassify:
    def test_ks_matches_declaration(self):
        rc, rep = run_json("classify", "--model", "ks")
        assert rc == 0
        assert rep["report"]["matches_declared"] is True

    def test_text_format_verdict(self):
        rc, out, _ = run_cli("classify", "--model", "ks", "--format", "text")
        assert rc == 0
        assert out.splitlines()[-1] == "MATCH"

    def test_declared_only_model_rejected(self):
        rc, _, err = run_cli("classify", "--model", "aaronson")
        assert rc == 2
        assert "declared-only" in err


class TestInvocation:
    def test_no_command_is_usage_error(self):
        rc, _, err = run_cli()
        assert rc == 2
        assert "usage" in err

    def test_version_flag(self):
        rc, out, _ = run_cli("--version")
        assert rc == 0
        assert out.strip() == f"{reports.TOOL_NAME} {reports.TOOL_VERSION}"

    def test_unsupported_format_choice(self):
        rc, _, err = run_cli("classify", "--model", "ks", "--format", "csv")
        assert rc == 2


# What each subcommand accepts besides -h/--help, --config, --seed,
# --format and --output: option strings, and the positional's name.
OWN_OPTIONS = {
    "verify": {"--model", "--engine", "--pairs"},
    "classify": {"--model", "--trials"},
    "table": {"--trials"},
    "ksval": {"input", "--all", "--limit"},
    "bound": {"input"},
    "prepctx": {"--model", "--rho", "--ctx", "--engine"},
}
SHARED = {"--seed", "--format", "--output"}
# a value for each option that differs from its default
SAMPLE = {
    "model": "bb:3", "engine": "closed", "pairs": "3", "trials": "5",
    "input": "other.vec", "all": "yes", "limit": "2", "rho": "mixed",
    "ctx": "x, z", "seed": "7", "format": "text", "output": "report.txt",
}


def resolve(*argv):
    return _config_from_args(_parser().parse_args(list(argv)))


class TestOptionTable:
    def test_each_command_accepts_its_options(self):
        action = next(
            a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert list(action.choices) == list(OWN_OPTIONS)
        for command, own in OWN_OPTIONS.items():
            got = {
                s for a in action.choices[command]._actions
                for s in a.option_strings or [a.dest]
            }
            assert got == own | SHARED | {"-h", "--help", "--config"}, command

    @pytest.mark.parametrize("command,name", sorted(
        (command, option.lstrip("-"))
        for command, own in OWN_OPTIONS.items() for option in own | SHARED
    ))
    def test_flag_and_config_key_agree(self, tmp_path, monkeypatch, command, name):
        monkeypatch.delenv("ONTOMODELS_SEED", raising=False)
        base = []
        if "--model" in OWN_OPTIONS[command] and name != "model":
            base += ["--model", "ks"]
        if "input" in OWN_OPTIONS[command] and name != "input":
            base += ["rays.vec"]
        value = SAMPLE[name]
        if name == "input":
            flag = [value]
        elif name == "all":
            flag = ["--all"]
        else:
            flag = [f"--{name}", value]
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{name} = {value}\n")
        by_flag = resolve(command, *base, *flag)
        assert resolve(command, *base, "--config", str(cfgfile)) == by_flag
        if name not in ("model", "input"):  # required: no run without them
            assert resolve(command, *base) != by_flag

    @pytest.mark.parametrize("argv", [
        ("verify", "--model", "bb:3", "--engine", "closed", "--pairs"),
        ("classify", "--model", "bb:3", "--trials"),
        ("table", "--trials"),
    ])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_below_one_is_usage_error(self, argv, value):
        rc, out, err = run_cli(*argv, value)
        assert (rc, out) == (2, "")
        assert f"{argv[-1]} must be at least 1, got {value}" in err

    def test_config_count_below_one_is_usage_error(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("pairs = 0\n")
        rc, out, err = run_cli("verify", "--model", "bb:3", "--config", str(cfgfile))
        assert (rc, out) == (2, "")
        assert "config pairs must be at least 1, got 0" in err
