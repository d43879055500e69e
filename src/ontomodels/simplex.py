"""Dense two-phase simplex over floats or exact rationals.

Solves  maximize c.x  subject to equality rows, <= rows and x >= 0.
Bland's smallest-index rule on both the entering and the leaving choice
prevents cycling, so the search terminates even on degenerate programs.
Infeasible systems return a Farkas multiplier vector that verify_farkas
re-checks by direct arithmetic; in float mode all comparisons use a
feasibility tolerance, in exact mode every entry is a Fraction and the
tolerance is zero.

The tableau is one 2-D numpy array: float64 in float mode, an object
array of Fractions in exact mode.  A pivot is a rank-1 update of the rows
whose pivot-column entry is nonzero, each entry computed as a - f*b in
two rounded operations, so the float path takes the same pivots with the
same bits as an entry-by-entry loop would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

FEAS_TOL = 1e-9


class LPError(ValueError):
    pass


@dataclass
class LinearProgram:
    """maximize objective . x  with  eq rows A x = b, ub rows A x <= b, x >= 0."""

    n_vars: int
    objective: Sequence = None
    eq_rows: List = field(default_factory=list)  # (coeffs, rhs)
    ub_rows: List = field(default_factory=list)

    def __post_init__(self):
        if self.n_vars < 0:
            raise LPError("n_vars must be nonnegative")
        if self.objective is None:
            self.objective = [0] * self.n_vars
        self.objective = list(self.objective)
        if len(self.objective) != self.n_vars:
            raise LPError(
                f"objective has {len(self.objective)} entries, expected {self.n_vars}"
            )

    def _check(self, coeffs):
        if len(coeffs) != self.n_vars:
            raise LPError(f"row has {len(coeffs)} entries, expected {self.n_vars}")
        return coeffs

    def add_eq(self, coeffs, rhs):
        self.eq_rows.append((self._check(coeffs), rhs))

    def add_ub(self, coeffs, rhs):
        self.ub_rows.append((self._check(coeffs), rhs))


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[object] = None
    x: Optional[tuple] = None
    farkas: Optional[tuple] = None  # multipliers, eq rows first then ub rows
    certificate_ok: Optional[bool] = None
    pivots: tuple = (0, 0)  # Bland pivots taken in (phase 1, phase 2)


def _conv_exact(v):
    if isinstance(v, float):
        raise LPError("exact mode requires rational coefficients, got a float")
    # a Fraction of numpy integers would keep fixed-width terms that wrap
    return Fraction(int(v) if isinstance(v, np.integer) else v)


_to_fractions = np.frompyfunc(_conv_exact, 1, 1)


def _array(values, exact):
    """Nested lists as float64, or in exact mode as an array of Fractions."""
    if not exact:
        return np.array(values, dtype=float)
    return _to_fractions(np.array(values, dtype=object))


def _rows(lp: LinearProgram, exact):
    """Constraint matrix and right-hand side, eq rows first then ub rows."""
    rows = lp.eq_rows + lp.ub_rows
    a = _array([coeffs for coeffs, _ in rows], exact).reshape(len(rows), lp.n_vars)
    return a, _array([b for _, b in rows], exact)


def _standardize(lp: LinearProgram, exact):
    """All rows as equalities with slacks, b >= 0; returns (A, b, flips)."""
    a, b = _rows(lp, exact)
    slack = np.eye(len(b), len(lp.ub_rows), -len(lp.eq_rows), dtype=int)
    a = np.hstack([a, _array([0, 1], exact)[slack]])
    neg = b < 0
    a[neg] = -a[neg]
    b[neg] = -b[neg]
    return a, b, np.where(neg, -1, 1)


class _Tableau:
    def __init__(self, a, b, tol):
        self.m, self.n_struct = a.shape  # structural columns: vars + slacks
        self.tol = tol
        # columns: structural, then one artificial per row, then rhs
        self.width = self.n_struct + self.m
        zero = b * 0
        art = np.repeat(zero[:, None], self.m, axis=1)
        np.fill_diagonal(art, zero + 1)
        self.t = np.hstack([a, art, b[:, None]])
        self.basis = list(range(self.n_struct, self.width))
        self.obj = None  # set per phase, length width + 1

    def set_objective(self, costs):
        # reduced-cost row for maximization; obj[-1] tracks -(current value)
        self.obj = np.append(costs, costs[0] * 0 if len(costs) else self.tol * 0)
        for i, col in enumerate(self.basis):
            f = self.obj[col]
            if f:
                self.obj = self.obj - f * self.t[i]

    def value(self):
        return 0 - self.obj[-1:].item()  # +0.0, not -0.0, for a zero optimum

    def pivot(self, r, c):
        self.t[r] = row = self.t[r] / self.t[r, c]
        col = self.t[:, c]
        nz = np.flatnonzero(col)
        nz = nz[nz != r]
        self.t[nz] = self.t[nz] - np.multiply.outer(col[nz], row)
        f = self.obj[c]
        if f:
            self.obj = self.obj - f * row
        self.basis[r] = c

    def run(self, n_allowed, max_iters):
        """Bland's rule loop; returns ('optimal' or 'unbounded', pivots taken)."""
        for pivots in range(max_iters):
            enter = np.flatnonzero(self.obj[:n_allowed] > self.tol)
            if not enter.size:
                return "optimal", pivots
            enter = int(enter[0])
            col = self.t[:, enter]
            cand = np.flatnonzero(col > self.tol)
            leave = -1
            best = None
            for i, a, rhs in zip(
                cand.tolist(), col[cand].tolist(), self.t[cand, -1].tolist()
            ):
                ratio = rhs / a
                if (
                    best is None
                    or ratio < best - self.tol
                    or (abs(ratio - best) <= self.tol
                        and self.basis[i] < self.basis[leave])
                ):
                    best = ratio
                    leave = i
            if leave < 0:
                return "unbounded", pivots
            self.pivot(leave, enter)
        raise LPError("simplex iteration limit exceeded")

    def solution(self, n_vars):
        x = np.full(self.n_struct, self.obj[0] * 0, dtype=self.t.dtype)
        basis = np.array(self.basis, dtype=int)
        basic = basis < self.n_struct
        x[basis[basic]] = self.t[basic, -1]
        return tuple(x[:n_vars].tolist())


def simplex_solve(lp: LinearProgram, exact: bool = False) -> LPResult:
    """Two-phase simplex; in exact mode all arithmetic is over Fractions."""
    tol = Fraction(0) if exact else FEAS_TOL
    a, b, flips = _standardize(lp, exact)
    tab = _Tableau(a, b, tol)
    n = lp.n_vars
    m, n_struct = tab.m, tab.n_struct
    max_iters = 5000 + 200 * (m + n_struct)

    # phase 1: drive the artificial variables to zero
    tab.set_objective(np.repeat(_array([0, -1], exact), [n_struct, m]))
    status, p1 = tab.run(n_struct + m, max_iters)
    if status != "optimal":  # cannot happen: phase-1 objective is bounded
        raise LPError("phase 1 reported unbounded")
    if tab.value() < -tol:
        # infeasible: extract Farkas multipliers from the artificial columns
        y = tuple((flips * (-1 - tab.obj[n_struct:n_struct + m])).tolist())
        ok = verify_farkas(lp, y, 0.0 if exact else FEAS_TOL, exact=exact)
        return LPResult(
            status="infeasible", farkas=y, certificate_ok=ok, pivots=(p1, 0)
        )

    # pivot any leftover artificial out of the basis; drop redundant rows
    for i in range(tab.m - 1, -1, -1):
        if tab.basis[i] >= n_struct:
            cols = np.flatnonzero(abs(tab.t[i, :n_struct]) > tol)
            if cols.size:
                tab.pivot(i, int(cols[0]))
            else:
                tab.t = np.delete(tab.t, i, axis=0)
                del tab.basis[i]
                tab.m -= 1

    # phase 2: the real objective; artificial columns stay banned from entry
    tab.set_objective(_array(list(lp.objective) + [0] * (tab.width - n), exact))
    status, p2 = tab.run(n_struct, max_iters)
    if status == "unbounded":
        return LPResult(status="unbounded", pivots=(p1, p2))
    return LPResult(
        status="optimal", value=tab.value(), x=tab.solution(n), pivots=(p1, p2)
    )


def verify_farkas(lp: LinearProgram, y, tol: float = FEAS_TOL, exact: bool = False) -> bool:
    """Check a Farkas vector by direct arithmetic.

    With multipliers y ordered as (eq rows, ub rows), infeasibility follows
    when y >= 0 on the ub rows, y.A_j >= 0 for every variable column j, and
    y.b < 0: a feasible x >= 0 would force 0 <= y.Ax <= y.b < 0.
    """
    if len(y) != len(lp.eq_rows) + len(lp.ub_rows):
        return False
    a, b = _rows(lp, exact)
    y = _array(list(y), exact)
    # columns of the standardized system: structural variables, then the
    # slack columns, where the multiplier of an ub row must be >= 0
    if np.any(y @ a < -tol) or np.any(y[len(lp.eq_rows):] < -tol):
        return False
    return bool(y @ b < -tol)
