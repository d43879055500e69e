"""Per-op correctness checks, run after the timed section.

An op fails when it raised, exited 2, or its report disagrees with an
answer the benchmark knows independently of the program:

* verify: a ``closed`` deviation that is not exactly 0, a ``quad``
  deviation >= 1e-6, or an ``mc`` pair beyond the family-wise z bound
  (Sidak over every MC pair of the run).  The package's own 3-sigma
  verdict is ignored; its FAIL verdicts on these correct models are
  counted separately.
* prepctx: the ks distance between the z and x mixtures is sqrt(2) - 1.
* classify / table: the declared properties must match what is measured.
* bound: atom count, status and f* agree with the HiGHS oracle.
* ksval: the UNSAT sets stay UNSAT; ``--all`` lists exactly the oracle's
  number of distinct valuations, each re-checked on integer coordinates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from statistics import NormalDist

import oracle

# Family-wise false-fail rate of the MC z test, per run.  Kept tiny because
# every run is a gate: at 1e-3, one correct ws:5 pair read z = 4.82 (the same
# pair at 8x the samples reads z = 1.50).  A biased model still fails: a 0.01
# bias reads z >= 7 at these sample counts, against a cut near 6.
ALPHA = 1e-6
QUAD_TOL = 1e-6       # the C1 bound on quadrature deviations
F_STAR_TOL = 1e-7     # program f* vs HiGHS
KS_PREP_TV = math.sqrt(2.0) - 1.0


@dataclass
class Op:
    """One CLI command plus what its answer is checked against."""

    kind: str        # verify, prepctx, classify, table, bound, ksval, ksval-all
    argv: list
    ref: object = None


@dataclass
class Outcome:
    rc: int
    out: str
    err: str
    seconds: float


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


class Checker:
    """Checks ops one by one; MC pairs are judged together by ``finish``."""

    def __init__(self):
        self.failures = {}     # op index -> reason
        self.mc_z = []         # (op index, z)
        self.verify_fail = 0   # package FAIL verdicts on correct models

    def check(self, index: int, op: Op, res: Outcome):
        try:
            _require(res.rc in (0, 1), f"exit code {res.rc}: {res.err.strip()[-200:]}")
            envelope = json.loads(res.out)
            getattr(self, "_" + op.kind.replace("-", "_"))(index, op, res.rc, envelope)
        except CheckFailed as exc:
            self.failures[index] = str(exc)
        except (ValueError, KeyError, TypeError) as exc:
            self.failures[index] = f"unreadable report: {exc!r}"

    def finish(self):
        """Apply the family-wise MC bound; returns {op index: reason}."""
        if self.mc_z:
            per_test = 1.0 - (1.0 - ALPHA) ** (1.0 / len(self.mc_z))
            z_max = NormalDist().inv_cdf(1.0 - per_test / 2.0)
            for index, z in self.mc_z:
                if z > z_max:
                    self.failures.setdefault(
                        index, f"MC pair z={z:.2f} > {z_max:.2f} (alpha={ALPHA})")
        return self.failures

    # -- per command ---------------------------------------------------------

    def _verify(self, index, op, rc, env):
        rep = env["report"]
        _require(rep["n_pairs"] == op.ref, f"{rep['n_pairs']} outcomes, expected {op.ref}")
        kind, _, size = env["engine"].partition(":")
        for p in rep["pairs"]:
            dev = p["deviation"]
            if kind == "closed":
                _require(dev == 0, f"closed deviation {dev}")
            elif kind == "quad":
                _require(dev < QUAD_TOL, f"quad deviation {dev}")
            else:
                # stderr is tolerance/3; floored at the binomial stderr the
                # Born value implies, so a pair with no hits gets a finite z.
                born, n = p["born"], int(size)
                stderr = max(p["tolerance"] / 3.0, math.sqrt(born * (1.0 - born) / n))
                self.mc_z.append((index, dev / stderr if stderr > 0 else math.inf))
        _require((rc == 0) == rep["passed"], "exit code disagrees with verdict")
        if not rep["passed"]:
            self.verify_fail += 1

    def _prepctx(self, index, op, rc, env):
        rep = env["report"]
        _require(rc == 0, "prepctx exit code 1")
        tv = rep["tv_distance"]
        _require(abs(tv - KS_PREP_TV) < QUAD_TOL, f"tv_distance {tv}")
        _require(rep["preparation_contextual"], "ks not preparation contextual")
        _require(rep["mix_deviation"] <= 1e-12, "contexts do not mix to rho")

    def _classify(self, index, op, rc, env):
        _require(rc == 0 and env["report"]["matches_declared"], "classify MISMATCH")

    def _table(self, index, op, rc, env):
        _require(rc == 0 and env["report"]["all_match"], "table MISMATCH")

    def _bound(self, index, op, rc, env):
        rep = env["report"]
        ref = oracle.bound_reference(op.ref)
        got = (rep["n_atoms"], rep["feasible"], rep["f_star_status"])
        want = (ref["n_atoms"], ref["feasible"], ref["f_star_status"])
        _require(got == want, f"bound {got}, oracle {want}")
        _require((rc == 0) == (rep["feasible"] == "Feasible"), "exit code disagrees")
        if ref["f_star"] is not None:
            diff = abs(rep["f_star"] - ref["f_star"])
            _require(diff <= F_STAR_TOL, f"f* off by {diff:.3g}")
        cert = rep["certificate"]
        if rep["n_atoms"] == 0:
            _require(cert == {"empty_atoms": True, "valuation_search": "unsat"},
                     "empty atom set without its certificate")
        elif rep["feasible"] == "Infeasible":
            _require(cert["verified"], "Farkas certificate not verified")
        else:
            _require(rep["max_residual"] <= 1e-9, "feasible weights miss a Born row")

    def _ksval(self, index, op, rc, env):
        rep = env["report"]
        _require(rep["n_rays"] == op.ref, f"{rep['n_rays']} rays, expected {op.ref}")
        _require(rc == 1 and rep["satisfiable"] is False, "UNSAT set reported SAT")
        _require(rep["stats"]["completed"], "search did not complete")

    def _ksval_all(self, index, op, rc, env):
        rep = env["report"]
        rays = op.ref
        adj = oracle.orthogonality(rays, exact=True)
        bases = oracle.complete_bases(adj, len(rays[0]))
        want = len(oracle.valuations(adj, bases))
        found = [tuple(v) for v in rep["valuations"]]
        _require(rep["n_valuations"] == len(found) == want,
                 f"{len(found)} valuations, oracle {want}")
        _require(len(set(found)) == len(found), "duplicate valuations")
        _require(all(oracle.is_valuation(v, adj, bases) for v in found),
                 "listed valuation violates orthogonality")
        _require((rc == 0) == (want > 0), "exit code disagrees")
