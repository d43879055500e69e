"""Dense two-phase simplex over floats or exact rationals.

Solves  maximize c.x  subject to equality rows, <= rows and x >= 0.
Bland's smallest-index rule on both the entering and the leaving choice
prevents cycling, so the search terminates even on degenerate programs.
Infeasible systems return a Farkas multiplier vector that verify_farkas
re-checks by direct arithmetic; in float mode all comparisons use a
feasibility tolerance, in exact mode the tolerance is zero.

Exact mode keeps integer data as Python ints until a division makes a
Fraction: a pivot divides its row by the pivot element as a Fraction, the
ratio test divides as Fractions, phase 1 sums integer columns and converts
only the sums, and verify_farkas scales y by the LCM of its denominators and
checks signs in integers.  Its value, x and Farkas vector are Fractions.

Phase 1 starts from the slack basis.  A <= row whose right-hand side is
nonnegative starts on its own slack; only equality rows and <= rows that
were negated to make b >= 0 get an artificial column, and phase 1 drives
those to zero.  On infeasibility, a row's Farkas multiplier is read from
the final reduced cost of its start column: -1 - obj on an artificial,
-obj on a slack, negated again for a negated row.

The tableau is one 2-D numpy array: float64 in float mode, an object
array of ints and Fractions in exact mode.  A pivot is a rank-1 update,
each entry a - f*b in two rounded operations, of the rows whose
pivot-column entry is nonzero, over the columns whose pivot-row entry is
nonzero plus the rhs column (x takes the signs of its basic zeros from it;
nonbasic entries are +0.0), so it takes the same pivots and returns the
same bits as a full update.
"""

from __future__ import annotations

import math
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
    """An exact coefficient: a Python int (numpy integers widened, since
    fixed-width terms wrap) or a Fraction; any other type is an LPError."""
    if isinstance(v, (int, np.integer)):  # np.bool_ is not an np.integer
        return int(v)
    if isinstance(v, Fraction):
        return v
    kind = type(v)
    name = kind.__qualname__
    if kind.__module__ != "builtins":
        name = f"{kind.__module__}.{name}"
    raise LPError(f"exact mode requires rational coefficients, got {name}")


_to_exact = np.frompyfunc(_conv_exact, 1, 1)
_to_fraction = np.frompyfunc(Fraction, 1, 1)


def _array(values, exact):
    """Nested lists as float64, or in exact mode as an object array of
    Python ints and Fractions."""
    if not exact:
        return np.array(values, dtype=float)
    return _to_exact(np.array(values, dtype=object))


def _rows(lp: LinearProgram, exact):
    """Constraint matrix and right-hand side, eq rows first then ub rows."""
    rows = lp.eq_rows + lp.ub_rows
    a = _array([coeffs for coeffs, _ in rows], exact).reshape(len(rows), lp.n_vars)
    return a, _array([b for _, b in rows], exact)


def _standardize(lp: LinearProgram, exact):
    """All rows as equalities with slacks, b >= 0; returns (A, b, flips,
    start).  start[i] is the slack column of a <= row that kept b >= 0,
    which starts basic, and -1 for an eq row or a negated row."""
    a, b = _rows(lp, exact)
    n_eq = len(lp.eq_rows)
    slack = np.eye(len(b), len(lp.ub_rows), -n_eq, dtype=int)
    a = np.hstack([a, _array([0, 1], exact)[slack]])
    neg = b < 0
    a[neg] = -a[neg]
    b[neg] = -b[neg]
    row = np.arange(len(b))
    start = np.where(neg | (row < n_eq), -1, lp.n_vars - n_eq + row)
    return a, b, np.where(neg, -1, 1), start


class _Tableau:
    def __init__(self, a, b, tol, start):
        """start[i] is row i's basic slack column, or -1 for an artificial."""
        self.m, self.n_struct = a.shape  # structural columns: vars + slacks
        self.tol = tol
        self.exact = a.dtype == object
        # columns: structural, then one artificial per row without a slack
        # in the start basis, then rhs
        start = np.array(start, dtype=int)
        self.art_rows = np.flatnonzero(start < 0)
        k = len(self.art_rows)
        self.width = self.n_struct + k
        zero = b * 0
        art = np.repeat(zero[:, None], k, axis=1)
        art[self.art_rows, np.arange(k)] = zero[self.art_rows] + 1
        self.t = np.hstack([a, art, b[:, None]])
        start[self.art_rows] = np.arange(self.n_struct, self.width)
        self.start = start  # the start basis, kept for the Farkas vector
        self.basis = start.tolist()
        self.obj = None  # set per phase, length width + 1

    def set_phase1_objective(self):
        """-sum(artificials) priced out against the start basis: the column
        sums of the artificial rows, zero on the artificial columns.
        Only the structural columns and the last two are summed, each from a
        view at least two columns wide, which numpy sums row after row as
        it sums the whole tableau; a lone (m, 1) column is summed pairwise.
        In exact mode the sums of integer columns are ints, and only they
        are made Fractions, so the row is Fractions throughout."""
        zero = self.tol * 0
        self.obj = np.full(self.width + 1, zero, dtype=self.t.dtype)
        if not self.art_rows.size:
            return  # the slack basis is feasible: nothing to drive out
        rows = self.t if len(self.art_rows) == self.m else self.t[self.art_rows]
        head = max(self.n_struct, 2)
        sums = [rows[:, :head].sum(axis=0), rows[:, -2:].sum(axis=0)]
        if self.exact:
            sums = [_to_fraction(s) for s in sums]
        self.obj[:head], self.obj[-2:] = sums
        self.obj[self.n_struct:self.width] = zero

    def set_objective(self, costs):
        # reduced-cost row for maximization; obj[-1] tracks -(current value)
        self.obj = np.append(costs, costs[0] * 0 if len(costs) else self.tol * 0)
        for i, col in enumerate(self.basis):
            f = self.obj[col]
            if f:
                self.obj = self.obj - f * self.t[i]

    def value(self):
        v = 0 - self.obj[-1:].item()  # +0.0, not -0.0, for a zero optimum
        return Fraction(v) if self.exact else v

    def pivot(self, r, c):
        p = self.t[r, c]
        # an int over an int is a float: exact mode divides by a Fraction
        self.t[r] = row = self.t[r] / (Fraction(p) if self.exact else p)
        col = self.t[:, c]
        nz = np.flatnonzero(col)
        keep = row != 0  # a - f*0 is a, up to the sign of a zero, which
        keep[-1] = True  # x reads from the rhs
        i, j = np.ix_(nz[nz != r], np.flatnonzero(keep))
        self.t[i, j] = self.t[i, j] - col[i] * row[j]
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
            exact = self.exact
            for i, a, rhs in zip(
                cand.tolist(), col[cand].tolist(), self.t[cand, -1].tolist()
            ):
                ratio = Fraction(rhs, a) if exact else rhs / a
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
        x = np.full(self.n_struct, self.tol * 0, dtype=self.t.dtype)
        basis = np.array(self.basis, dtype=int)
        basic = basis < self.n_struct
        x[basis[basic]] = self.t[basic, -1]
        x = x[:n_vars]
        return tuple((_to_fraction(x) if self.exact else x).tolist())


def simplex_solve(lp: LinearProgram, exact: bool = False) -> LPResult:
    """Two-phase simplex; in exact mode all arithmetic is exact, over Python
    ints and Fractions, and the numbers returned are Fractions."""
    tol = Fraction(0) if exact else FEAS_TOL
    a, b, flips, start = _standardize(lp, exact)
    tab = _Tableau(a, b, tol, start)
    n = lp.n_vars
    m, n_struct = tab.m, tab.n_struct
    max_iters = 5000 + 200 * (m + n_struct)

    # phase 1: drive the artificial variables to zero
    tab.set_phase1_objective()
    status, p1 = tab.run(tab.width, max_iters)
    if status != "optimal":  # cannot happen: phase-1 objective is bounded
        raise LPError("phase 1 reported unbounded")
    if tab.value() < -tol:
        # infeasible: a row's multiplier is the phase-1 cost of its start
        # column (-1 for an artificial, 0 for a slack) minus its reduced cost
        # (a Fraction in exact mode, as is every phase-1 reduced cost)
        cost = np.where(tab.start >= n_struct, -1, 0)
        y = tuple((flips * (cost - tab.obj[tab.start])).tolist())
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

    Exact mode checks Y = s*y, with s > 0 the LCM of y's denominators, and
    the tolerance s*tol: the same signs, from integer sums where A and b
    are integer.
    """
    if len(y) != len(lp.eq_rows) + len(lp.ub_rows):
        return False
    a, b = _rows(lp, exact)
    y = _array(list(y), exact)
    if exact:
        y = y.tolist()
        scale = math.lcm(*(v.denominator for v in y))
        y = np.array([v.numerator * (scale // v.denominator) for v in y], dtype=object)
        tol = Fraction(tol) * scale if tol else 0
    # columns of the standardized system: structural variables, then the
    # slack columns, where the multiplier of an ub row must be >= 0
    if np.any(y @ a < -tol) or np.any(y[len(lp.eq_rows):] < -tol):
        return False
    return bool(y @ b < -tol)
