"""Tests for the two-phase simplex solver and Farkas certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize

from ontomodels.simplex import (
    FEAS_TOL,
    LinearProgram,
    LPError,
    _Tableau,
    simplex_solve,
    verify_farkas,
)


def test_max_x_under_unit_cap():
    lp = LinearProgram(1, [1])
    lp.add_ub([1], 1)
    res = simplex_solve(lp)
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.x == pytest.approx((1.0,))


def test_empty_interval_infeasible_with_certificate():
    lp = LinearProgram(1, [1])
    lp.add_ub([-1], -2)  # x >= 2
    lp.add_ub([1], 1)  # x <= 1
    res = simplex_solve(lp)
    assert res.status == "infeasible"
    assert res.certificate_ok
    assert verify_farkas(lp, res.farkas)


def test_redundant_equalities_terminate():
    lp = LinearProgram(2, [1, 0])
    for _ in range(3):
        lp.add_eq([1, 1], 1)
    res = simplex_solve(lp)
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_unbounded():
    lp = LinearProgram(1, [1])
    res = simplex_solve(lp)
    assert res.status == "unbounded"


def test_equality_and_inequality_mix():
    lp = LinearProgram(2, [1, 1])
    lp.add_eq([1, -1], 0)
    lp.add_ub([1, 1], 1)
    res = simplex_solve(lp)
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.x == pytest.approx((0.5, 0.5))


def test_beale_cycling_example_terminates():
    # classic degenerate program that cycles under naive pivoting
    lp = LinearProgram(4, [Fraction(3, 4), -150, Fraction(1, 50), -6])
    lp.add_ub([Fraction(1, 4), -60, Fraction(-1, 25), 9], 0)
    lp.add_ub([Fraction(1, 2), -90, Fraction(-1, 50), 3], 0)
    lp.add_ub([0, 0, 1, 0], 1)
    res = simplex_solve(lp)
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.05, abs=1e-9)
    exact = simplex_solve(lp, exact=True)
    assert exact.status == "optimal"
    assert exact.value == Fraction(1, 20)


def test_exact_mode_returns_fractions():
    lp = LinearProgram(1, [1])
    lp.add_ub([3], 1)
    res = simplex_solve(lp, exact=True)
    assert res.status == "optimal"
    assert res.value == Fraction(1, 3)
    assert res.x == (Fraction(1, 3),)


def test_exact_mode_rejects_floats():
    # a float or numpy float in the objective, in a row, or on the rhs
    for bad in (0.5, np.float64(0.5)):
        for objective, row, rhs in ([bad], [1], 1), ([1], [bad], 1), ([1], [1], bad):
            lp = LinearProgram(1, objective)
            lp.add_ub(row, rhs)
            with pytest.raises(LPError, match="exact mode"):
                simplex_solve(lp, exact=True)


def test_exact_infeasible_certificate():
    lp = LinearProgram(1, [1])
    lp.add_ub([-1], -2)
    lp.add_ub([1], 1)
    res = simplex_solve(lp, exact=True)
    assert res.status == "infeasible"
    assert all(isinstance(v, Fraction) for v in res.farkas)
    assert res.certificate_ok
    assert verify_farkas(lp, res.farkas, 0.0, exact=True)


def test_row_length_checked():
    lp = LinearProgram(2, [1, 1])
    with pytest.raises(LPError, match="expected 2"):
        lp.add_eq([1], 0)
    with pytest.raises(LPError, match="expected 2"):
        LinearProgram(2, [1])


def test_zero_variable_programs():
    feasible = LinearProgram(0, [])
    feasible.add_eq([], 0)
    assert simplex_solve(feasible).status == "optimal"
    impossible = LinearProgram(0, [])
    impossible.add_eq([], 1)
    res = simplex_solve(impossible)
    assert res.status == "infeasible"
    assert res.certificate_ok


def _random_lp(rng):
    n = int(rng.integers(1, 5))
    lp = LinearProgram(n, rng.integers(-3, 4, size=n).tolist())
    for _ in range(int(rng.integers(0, 5))):
        lp.add_ub(rng.integers(-4, 5, size=n).tolist(), int(rng.integers(-3, 6)))
    for _ in range(int(rng.integers(0, 3))):
        lp.add_eq(rng.integers(-4, 5, size=n).tolist(), int(rng.integers(-3, 6)))
    return lp


def _scipy_solve(lp):
    c = [-v for v in lp.objective]
    a_ub = [row for row, _ in lp.ub_rows] or None
    b_ub = [b for _, b in lp.ub_rows] or None
    a_eq = [row for row, _ in lp.eq_rows] or None
    b_eq = [b for _, b in lp.eq_rows] or None
    return optimize.linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=(0, None), method="highs",
    )


def _constraints_hold(lp, x, tol=1e-7):
    for row, b in lp.eq_rows:
        if abs(sum(r * v for r, v in zip(row, x)) - b) > tol:
            return False
    for row, b in lp.ub_rows:
        if sum(r * v for r, v in zip(row, x)) > b + tol:
            return False
    return True


def test_random_programs_match_reference_solver():
    rng = np.random.default_rng(20260814)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(80):
        lp = _random_lp(rng)
        mine = simplex_solve(lp)
        ref = _scipy_solve(lp)
        statuses[mine.status] += 1
        if ref.status == 0:
            assert mine.status == "optimal"
            assert mine.value == pytest.approx(-ref.fun, abs=1e-7)
            assert _constraints_hold(lp, mine.x)
        elif ref.status == 2:
            assert mine.status == "infeasible"
            assert mine.certificate_ok
        elif ref.status == 3:
            assert mine.status == "unbounded"
    # the draw should exercise every outcome
    assert min(statuses.values()) > 0


def test_random_programs_float_and_exact_agree():
    rng = np.random.default_rng(99)
    for _ in range(40):
        lp = _random_lp(rng)
        approx = simplex_solve(lp)
        exact = simplex_solve(lp, exact=True)
        assert approx.status == exact.status
        if exact.status == "optimal":
            assert approx.value == pytest.approx(float(exact.value), abs=1e-7)
        if exact.status == "infeasible":
            assert exact.certificate_ok and approx.certificate_ok


# ---------------------------------------------------------------------------
# Array shapes and corner paths of the tableau


@pytest.mark.parametrize("exact", [False, True])
def test_no_rows_unbounded_or_optimal(exact):
    up = LinearProgram(2, [1, 0])
    res = simplex_solve(up, exact=exact)
    assert res.status == "unbounded"
    assert res.pivots == (0, 0)
    down = LinearProgram(2, [-1, 0])
    res = simplex_solve(down, exact=exact)
    assert res.status == "optimal"
    assert res.value == 0 and res.x == (0, 0)
    assert res.pivots == (0, 0)


@pytest.mark.parametrize("exact", [False, True])
def test_redundant_equality_row_is_dropped(exact):
    # the second row repeats the first: its artificial stays basic at zero
    # with an all-zero structural part, so phase 2 runs without that row
    lp = LinearProgram(2, [1, 2])
    lp.add_eq([1, 1], 1)
    lp.add_eq([1, 1], 1)
    lp.add_ub([1, 0], Fraction(1, 2))
    res = simplex_solve(lp, exact=exact)
    assert res.status == "optimal"
    assert res.value == 2 and res.x == (0, 1)


@pytest.mark.parametrize("exact", [False, True])
def test_ratio_tie_leaves_the_smallest_basic_index(exact):
    # entering column 0 meets ratio 1 in both rows; row 1 holds basic
    # column 1, row 0 basic column 2, so Bland's rule makes row 1 leave
    num = Fraction if exact else float
    a = np.array([[num(1), num(0), num(1)], [num(1), num(1), num(0)]],
                 dtype=object if exact else float)
    # in float mode the second ratio is off by less than the tolerance
    b = np.array([num(1), num(1) + (0 if exact else 1e-12)], dtype=a.dtype)
    tab = _Tableau(a, b, Fraction(0) if exact else FEAS_TOL)
    tab.basis = [2, 1]
    tab.set_objective(np.array([num(1)] + [num(0)] * 4, dtype=a.dtype))
    assert tab.run(3, 10) == ("optimal", 1)
    assert tab.basis == [2, 0]


@pytest.mark.parametrize("exact", [False, True])
def test_results_hold_plain_python_numbers(exact):
    scalar = Fraction if exact else float
    lp = LinearProgram(2, [1, 1])
    lp.add_eq([1, -1], 0)
    lp.add_ub([1, 1], 1)
    res = simplex_solve(lp, exact=exact)
    assert type(res.value) is scalar
    assert all(type(v) is scalar for v in res.x)
    assert all(type(p) is int for p in res.pivots)
    empty = simplex_solve(LinearProgram(0, []), exact=exact)
    assert type(empty.value) is scalar and empty.x == ()
    bad = LinearProgram(1, [1])
    bad.add_ub([-1], -2)
    bad.add_ub([1], 1)
    res = simplex_solve(bad, exact=exact)
    assert res.status == "infeasible"
    assert all(type(v) is scalar for v in res.farkas)
    assert res.certificate_ok is True


def test_exact_mode_widens_numpy_integers():
    # 3**25 squared overflows int64, so the Fractions must hold Python ints
    big = 3**25
    want = Fraction(2 * big, big + 1)
    for row_of in (list, lambda row: np.array(row, dtype=np.int64)):
        lp = LinearProgram(2, row_of([1, 1]))
        lp.add_ub(row_of([big, 1]), np.int64(big))
        lp.add_ub(row_of([1, big]), np.int64(big))
        res = simplex_solve(lp, exact=True)
        assert res.status == "optimal"
        assert res.value == want
        assert type(res.value.numerator) is int
        assert res.x == (want / 2, want / 2)


def test_zero_optimum_is_positive_zero():
    empty = LinearProgram(0)
    empty.add_eq([], 0)
    capped = LinearProgram(1, [-1])
    capped.add_ub([1], 1)
    for lp in (empty, capped):
        res = simplex_solve(lp)
        assert res.status == "optimal"
        assert math.copysign(1.0, res.value) == 1.0


# ---------------------------------------------------------------------------
# verify_farkas rejects every broken certificate


def _infeasible_lp():
    """x >= 2 and x <= 1, a free eq row on z, and the trivial row 0 <= 1."""
    lp = LinearProgram(2, [1, 1])
    lp.add_eq([0, 1], 0)
    lp.add_ub([-1, 0], -2)
    lp.add_ub([1, 0], 1)
    lp.add_ub([0, 0], 1)
    return lp


@pytest.mark.parametrize("exact", [False, True])
def test_farkas_rejects_broken_certificates(exact):
    lp = _infeasible_lp()
    tol = 0.0 if exact else FEAS_TOL
    res = simplex_solve(lp, exact=exact)
    assert res.status == "infeasible" and res.certificate_ok
    y = list(res.farkas)
    assert verify_farkas(lp, y, tol, exact=exact)

    def check(z):
        return verify_farkas(lp, z, tol, exact=exact)

    assert not check([-v for v in y])
    # a negative multiplier on the trivial ub row leaves y.A alone and
    # makes y.b more negative: only the sign check can reject it
    assert not check(y[:3] + [-1])
    yb = sum(v * b for v, (_, b) in zip(y, lp.eq_rows + lp.ub_rows))
    assert not check(y[:3] + [y[3] - yb])  # y.b == 0
    assert not check(y[:3] + [y[3] - yb + 1])  # y.b > 0
    # the eq multiplier is free in sign, but not once y.A_z turns negative
    assert check([y[0] + 1] + y[1:])
    assert not check([-1] + y[1:])
    assert not check([0 * v for v in y])
