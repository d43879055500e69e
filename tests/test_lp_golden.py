"""Golden pins for the fragment LPs: the simplex must take the same path.

``analyze`` runs on the bundled fragments and on KCBS n-cycles built here
from a fixed rotation.  Every float of the report is pinned bit for bit
(``float.hex``; the per-pair core masses and the Farkas multipliers as a
digest of their hex strings) together with the pivot counts of both LPs,
so a change in the tableau that only lands within tolerance of the old
answer, or reaches it by other pivots, fails here.  Exact fragments,
Peres-24 base subsets written out below, pin f* as a Fraction string and
the Farkas multipliers and weights by their ``str``.
"""

import hashlib
import math

import numpy as np
import pytest

from ontomodels import epibound
from ontomodels.data import fragment_path
from ontomodels.epibound import (
    analyze,
    feasibility_max_epistemic,
    load_fragment,
    max_overlap_fraction,
    parse_fragment,
)
from ontomodels.simplex import LinearProgram, simplex_solve


def _rotate(v):
    """A fixed rotation Rz(0.3) Ry(0.7) Rx(1.1), in plain float arithmetic."""
    x, y, z = v
    c, s = math.cos(1.1), math.sin(1.1)
    y, z = c * y - s * z, s * y + c * z
    c, s = math.cos(0.7), math.sin(0.7)
    x, z = c * x + s * z, -s * x + c * z
    c, s = math.cos(0.3), math.sin(0.3)
    x, y = c * x - s * y, s * x + c * y
    return (x, y, z)


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _unit(v):
    norm = math.sqrt(sum(x * x for x in v))
    return tuple(x / norm for x in v)


def kcbs_cycle_text(n):
    """Odd n-cycle of rays on a cone (v_k . v_{k+1} = 0) with its n triads.

    Basis k is {v_k, v_{k+1}, v_k x v_{k+1}}; the states are the n cycle
    rays plus the cone axis.  n = 5 is the KCBS pentagon.
    """
    c = math.cos(math.pi / n)
    cos_t = math.sqrt(c / (1.0 + c))
    sin_t = math.sqrt(1.0 - cos_t * cos_t)
    step = math.pi * (n - 1) / n
    cycle = [
        _rotate((sin_t * math.cos(k * step), sin_t * math.sin(k * step), cos_t))
        for k in range(n)
    ]
    cross = [_unit(_cross(cycle[k], cycle[(k + 1) % n])) for k in range(n)]

    def line(v):
        return " ".join(f"{x!r},0" for x in v)

    lines = ["dim=3"]
    lines += ["state: " + line(v) for v in cycle + [_rotate((0.0, 0.0, 1.0))]]
    for k in range(n):
        lines += ["basis:", line(cycle[k]), line(cycle[(k + 1) % n]), line(cross[k])]
    return "\n".join(lines) + "\n"


def _digest(values):
    text = "\n".join(float.hex(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _hex(v):
    return None if v is None else float.hex(v)


def _record_solves(monkeypatch):
    """Route epibound's simplex_solve through a recorder of (lp, result)."""
    calls = []
    solve = epibound.simplex_solve

    def recording_solve(lp, exact=False):
        calls.append((lp, solve(lp, exact=exact)))
        return calls[-1][1]

    monkeypatch.setattr(epibound, "simplex_solve", recording_solve)
    return calls


def _pins(fragment, monkeypatch):
    calls = _record_solves(monkeypatch)
    body = analyze(fragment)
    cert = body["certificate"] or {}
    farkas = cert.get("farkas", [])
    return {
        "n_atoms": body["n_atoms"],
        "feasible": body["feasible"],
        "max_residual": _hex(body["max_residual"]),
        "f_star": _hex(body["f_star"]),
        "n_pairs": len(body["pairs"]),
        "core_mass": _digest(p["core_mass"] for p in body["pairs"]),
        "n_farkas": len(farkas),
        "farkas": _digest(farkas),
        "pivots": [res.pivots for _, res in calls],
    }


# pinned from the list-of-lists tableau before the array tableau replaced it;
# the f* LP's f_star, core_mass and pivots re-pinned when phase 1 started
# from the slack basis (f* moved by at most 3 ulp)
GOLDEN = {
    "d2_zx.frag": {
        "n_atoms": 4,
        "feasible": "Feasible",
        "max_residual": "0x0.0p+0",
        "f_star": "0x1.0000000000000p+0",
        "n_pairs": 2,
        "core_mass": "5f2ec7ed4a707c0e",
        "n_farkas": 0,
        "farkas": "e3b0c44298fc1c14",
        "pivots": [(4, 0), (4, 1)],
    },
    "kcbs.frag": {
        "n_atoms": 11,
        "feasible": "Infeasible",
        "max_residual": None,
        "f_star": "0x1.c9f25c5bfeddbp-1",
        "n_pairs": 15,
        "core_mass": "89b4d8df78493db2",
        "n_farkas": 90,
        "farkas": "3ad6300796df6b92",
        "pivots": [(20, 0), (20, 6)],
    },
    "peres33.frag": {
        "n_atoms": 0,
        "feasible": "Infeasible",
        "max_residual": None,
        "f_star": None,
        "n_pairs": 0,
        "core_mass": "e3b0c44298fc1c14",
        "n_farkas": 0,
        "farkas": "e3b0c44298fc1c14",
        "pivots": [],
    },
    "kcbs-7": {
        "n_atoms": 29,
        "feasible": "Infeasible",
        "max_residual": None,
        "f_star": "0x1.cef9d55914fecp-1",
        "n_pairs": 35,
        "core_mass": "fcab375f4c6b5db4",
        "n_farkas": 168,
        "farkas": "cb3f34c8b015335b",
        "pivots": [(49, 0), (49, 9)],
    },
    "kcbs-9": {
        "n_atoms": 76,
        "feasible": "Infeasible",
        "max_residual": None,
        "f_star": "0x1.d5b7121708e9fp-1",
        "n_pairs": 63,
        "core_mass": "ea349f780c8ebb10",
        "n_farkas": 270,
        "farkas": "dec6c4a017c104ec",
        "pivots": [(100, 0), (99, 13)],
    },
    "kcbs-11": {
        "n_atoms": 199,
        "feasible": "Infeasible",
        "max_residual": None,
        "f_star": "0x1.db47952962a3dp-1",
        "n_pairs": 99,
        "core_mass": "ba3b6342788f2fa0",
        "n_farkas": 396,
        "farkas": "ba902a90a203580d",
        "pivots": [(191, 0), (190, 16)],
    },
}


def _fragment(name):
    if name.endswith(".frag"):
        return load_fragment(fragment_path(name))
    if name in PERES_SUBSETS:
        return parse_fragment(peres_subset_text(*PERES_SUBSETS[name]), name=name)
    n = int(name.split("-")[1])
    return parse_fragment(kcbs_cycle_text(n), name=name)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fragment_lp_golden(name, monkeypatch):
    assert _pins(_fragment(name), monkeypatch) == GOLDEN[name]


# ---------------------------------------------------------------------------
# Exact mode: Peres-24 base subsets


def _peres24():
    """Peres' 24 rays in d = 4: e_i, e_i +- e_j and (1, +-1, +-1, +-1)."""
    rays = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            for s in (1, -1):
                v = [0] * 4
                v[i], v[j] = 1, s
                rays.append(tuple(v))
    rays += [(1, a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    return rays


PERES24 = _peres24()
# bases and state rays as indices into PERES24
PERES_SUBSETS = {
    "peres-3": (
        ((4, 14, 21, 22), (8, 9, 10, 11), (16, 19, 21, 22)),
        (10, 19, 14, 22),
    ),
    "peres-6": (
        ((0, 1, 14, 15), (4, 14, 21, 22), (6, 7, 12, 13), (6, 13, 18, 23),
         (8, 9, 10, 11), (9, 10, 18, 20)),
        (9, 11, 18, 22),
    ),
    "peres-7": (
        ((1, 2, 8, 9), (4, 14, 21, 22), (4, 15, 20, 23), (5, 14, 17, 18),
         (6, 7, 12, 13), (8, 9, 10, 11), (8, 11, 17, 23)),
        (12, 18, 7, 17),
    ),
}


def peres_subset_text(bases, states):
    def line(r):
        return " ".join(f"{x},0" for x in PERES24[r])

    lines = ["dim=4", "exact"] + ["state: " + line(r) for r in states]
    for ids in bases:
        lines += ["basis:"] + [line(r) for r in ids]
    return "\n".join(lines) + "\n"


def _str_digest(values):
    text = "\n".join(str(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _exact_pins(fragment, monkeypatch):
    calls = _record_solves(monkeypatch)
    feas = feasibility_max_epistemic(fragment)
    over = max_overlap_fraction(fragment)
    return {
        "n_atoms": feas.n_atoms,
        "feasible": feas.status,
        "weights": _str_digest(w for row in feas.weights or () for w in row),
        "farkas": _str_digest(feas.farkas or ()),
        "f_star": str(over.f_star),
        "overlap_weights": _str_digest(w for row in over.weights for w in row),
        "core_mass": _digest(p.core_mass for p in over.pairs),
        "pivots": [res.pivots for _, res in calls],
    }


# pinned at the commit before the fragment LPs were built from one matrix;
# the f* LP's pivots re-pinned when phase 1 started from the slack basis
EXACT_GOLDEN = {
    "peres-3": {
        "n_atoms": 12,
        "feasible": "Feasible",
        "weights": "b897876849825371",
        "farkas": "e3b0c44298fc1c14",
        "f_star": "1",
        "overlap_weights": "9ce4778041059af7",
        "core_mass": "bc1f876a35a60ed9",
        "pivots": [(13, 0), (5, 6)],
    },
    "peres-6": {
        "n_atoms": 16,
        "feasible": "Infeasible",
        "weights": "e3b0c44298fc1c14",
        "farkas": "4a1ead3fc2dc20e1",
        "f_star": "1",
        "overlap_weights": "e8526c46d3b9f8a3",
        "core_mass": "b0e0ccb6cbaded43",
        "pivots": [(11, 0), (4, 5)],
    },
    "peres-7": {
        "n_atoms": 16,
        "feasible": "Infeasible",
        "weights": "e3b0c44298fc1c14",
        "farkas": "ab8a3251fabcaa8f",
        "f_star": "1",
        "overlap_weights": "1b8c610a548c7d0f",
        "core_mass": "b9adcd5980743d35",
        "pivots": [(12, 0), (5, 3)],
    },
}


@pytest.mark.parametrize("name", sorted(PERES_SUBSETS))
def test_exact_fragment_lp_golden(name, monkeypatch):
    fragment = _fragment(name)
    assert fragment.exact
    assert _exact_pins(fragment, monkeypatch) == EXACT_GOLDEN[name]


# ---------------------------------------------------------------------------
# numpy rows


def _bits(value):
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, float):
        return float.hex(value)
    return None if value is None else (type(value).__name__, str(value))


def _result_bits(res):
    return (res.status, _bits(res.value), _bits(res.x), _bits(res.farkas),
            res.certificate_ok, res.pivots)


def _rebuilt(lp, row_of):
    out = LinearProgram(lp.n_vars, lp.objective)
    for coeffs, rhs in lp.eq_rows:
        out.add_eq(row_of(coeffs), rhs)
    for coeffs, rhs in lp.ub_rows:
        out.add_ub(row_of(coeffs), rhs)
    return out


def _as_list(row):
    return row.tolist() if isinstance(row, np.ndarray) else list(row)


@pytest.mark.parametrize("name", ["kcbs.frag", "kcbs-7", "peres-6", "peres-3"])
def test_numpy_rows_match_list_rows(name, monkeypatch):
    fragment = _fragment(name)
    calls = _record_solves(monkeypatch)
    analyze(fragment)
    assert len(calls) == 2
    for lp, _ in calls:
        as_lists = simplex_solve(_rebuilt(lp, _as_list), exact=fragment.exact)
        as_arrays = simplex_solve(
            _rebuilt(lp, lambda row: np.asarray(_as_list(row))), exact=fragment.exact
        )
        assert _result_bits(as_arrays) == _result_bits(as_lists)
