"""Tests for the two-phase simplex solver and Farkas certificates."""

import hashlib
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from ontomodels import simplex
from ontomodels.simplex import (
    FEAS_TOL,
    LinearProgram,
    LPError,
    _Tableau,
    _array,
    _standardize,
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
    # a float, numpy float or bool, complex number or string in the
    # objective, in a row, or on the rhs, named by its type
    bad_values = [
        (0.5, "float"),
        (np.float64(0.5), "numpy.float64"),
        (np.float32(0.5), "numpy.float32"),
        (np.float16(0.5), "numpy.float16"),
        (np.bool_(True), "numpy.bool"),
        (1j, "complex"),
        (complex(1, 0), "complex"),
        ("1/2", "str"),
    ]
    for bad, name in bad_values:
        for objective, row, rhs in ([bad], [1], 1), ([1], [bad], 1), ([1], [1], bad):
            lp = LinearProgram(1, objective)
            lp.add_ub(row, rhs)
            with pytest.raises(LPError, match=f"exact mode .*, got {name}"):
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
def test_ub_rows_with_nonnegative_rhs_take_no_phase1_pivot(exact):
    # every row is <= with b >= 0 (zero and, in float mode, -0.0 among them):
    # the slacks make the start basis, the tableau has no artificial
    # column, and phase 1 has nothing to do
    num = Fraction if exact else float
    tol = Fraction(0) if exact else FEAS_TOL
    lp = LinearProgram(3, [1, 1, 1])
    for coeffs, rhs in ([1, 1, 0], 4), ([0, 1, 1], 3), ([1, 0, -1], 0), ([-1, 0, 0], -0.0):
        lp.add_ub([num(v) for v in coeffs], num(rhs))
    a, b, _, start = _standardize(lp, exact)
    tab = _Tableau(a, b, tol, start)
    assert tab.art_rows.size == 0 and tab.width == tab.n_struct == 7
    assert tab.basis == [3, 4, 5, 6]
    res = simplex_solve(lp, exact=exact)
    assert res.status == "optimal" and res.pivots[0] == 0
    assert res.value == 6 and res.x == (3, 0, 3)
    rng = np.random.default_rng(18)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        lp = LinearProgram(n, rng.integers(-3, 4, size=n).tolist())
        for _ in range(int(rng.integers(1, 6))):
            lp.add_ub(rng.integers(-4, 5, size=n).tolist(), int(rng.integers(0, 6)))
        res = simplex_solve(lp, exact=exact)
        assert res.status != "infeasible" and res.pivots[0] == 0


@pytest.mark.parametrize("exact", [False, True])
def test_artificials_only_on_eq_rows_and_negated_rows(exact):
    num = Fraction if exact else float
    tol = Fraction(0) if exact else FEAS_TOL
    lp = LinearProgram(2, [1, 1])
    lp.add_eq([num(1), num(1)], num(2))  # row 0: eq
    lp.add_eq([num(1), num(-1)], num(0))  # row 1: eq with a zero rhs
    lp.add_ub([num(1), num(0)], num(3))  # row 2: slack column 2
    lp.add_ub([num(-1), num(0)], num(-1))  # row 3: negated
    lp.add_ub([num(0), num(-1)], num(0))  # row 4: slack column 4
    lp.add_ub([num(0), num(-1)], num(-0.0))  # row 5: slack column 5
    a, b, flips, start = _standardize(lp, exact)
    assert start.tolist() == [-1, -1, 2, -1, 4, 5]
    assert flips.tolist() == [1, 1, 1, -1, 1, 1]
    tab = _Tableau(a, b, tol, start)
    assert tab.art_rows.tolist() == [0, 1, 3]
    assert tab.width == 9 and tab.basis == [6, 7, 2, 8, 4, 5]
    # each artificial column is the unit column of its row
    assert [tab.t[:, 6 + k].tolist() for k in range(3)] == [
        [int(i == r) for i in range(6)] for r in (0, 1, 3)
    ]
    res = simplex_solve(lp, exact=exact)
    assert res.status == "optimal" and res.value == 2 and res.x == (1, 1)


@pytest.mark.parametrize("exact", [False, True])
def test_ratio_tie_leaves_the_smallest_basic_index(exact):
    # entering column 0 meets ratio 1 in both rows; row 1 holds basic
    # column 1, row 0 basic column 2 (both slack starts, so the tableau has
    # no artificial column), so Bland's rule makes row 1 leave
    num = Fraction if exact else float
    a = np.array([[num(1), num(0), num(1)], [num(1), num(1), num(0)]],
                 dtype=object if exact else float)
    # in float mode the second ratio is off by less than the tolerance
    b = np.array([num(1), num(1) + (0 if exact else 1e-12)], dtype=a.dtype)
    tab = _Tableau(a, b, Fraction(0) if exact else FEAS_TOL, [2, 1])
    assert tab.width == 3 and tab.basis == [2, 1]
    tab.set_objective(np.array([num(1)] + [num(0)] * 2, dtype=a.dtype))
    assert tab.run(3, 10) == ("optimal", 1)
    assert tab.basis == [2, 0]


@pytest.mark.parametrize("exact", [False, True])
def test_phase1_column_sums_match_priced_out_objective(exact):
    # simplex_solve starts phase 1 from the column sums of the artificial
    # rows; pricing the objective -sum(artificials) out against the start
    # basis, slacks included, row by row gives the same values
    rng = np.random.default_rng(3)
    tol = Fraction(0) if exact else FEAS_TOL
    mixed = 0
    for _ in range(30):
        n_eq, n_ub, n = (int(k) for k in rng.integers(1, 20, size=3))
        lp = LinearProgram(n)
        for k in range(n_eq + n_ub):
            coeffs = rng.integers(-9, 10, size=n)
            rhs = int(rng.integers(-9, 10))
            if not exact:
                coeffs, rhs = coeffs / 7, rhs / 3
            (lp.add_eq if k < n_eq else lp.add_ub)(coeffs.tolist(), rhs)
        a, b, _, start = _standardize(lp, exact)
        tab = _Tableau(a, b, tol, start)
        mixed += len(tab.art_rows) < tab.m
        sums = tab.t[tab.art_rows].sum(axis=0)
        sums[tab.n_struct:tab.width] = tol * 0
        costs = [0] * tab.n_struct + [-1] * len(tab.art_rows)
        tab.set_objective(_array(costs, exact))
        assert sums.tolist() == tab.obj.tolist()
    assert mixed > 20


def _with_slacks(a, slack_rows, exact):
    """a with a unit column appended for each row of slack_rows, and the
    start basis that makes those columns basic; the other rows start on an
    artificial."""
    m, n = a.shape
    eye = np.eye(m, dtype=int)[:, slack_rows]
    start = np.full(m, -1)
    start[slack_rows] = n + np.arange(len(slack_rows))
    return np.hstack([a, _array(eye.tolist(), exact).reshape(eye.shape)]), start


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 60])
@pytest.mark.parametrize("m", [1, 2, 9, 200])
def test_phase1_objective_has_the_bits_of_the_full_column_sums(m, n, exact):
    # The phase-1 row sums only the structural and rhs columns of the
    # artificial rows; it must equal the full column sums of those rows with
    # the artificial block zeroed.  Full-mantissa floats over eight decades
    # make float sums depend on their order, so a pairwise sum of a lone
    # column would show.  Without slacks every row is artificial.
    rng = np.random.default_rng(m * 100 + n)
    tol = Fraction(0) if exact else FEAS_TOL
    for k, slacks in enumerate([False] * 5 + [True] * 5):
        if exact:
            # ints on even draws, whose sums phase 1 makes Fractions
            a = _array(rng.integers(-999, 1000, size=(m, n)).tolist(), True)
            b = _array(rng.integers(0, 1000, size=m).tolist(), True)
            if k % 2:
                a, b = a / Fraction(7), b / Fraction(3)
        else:
            a = rng.uniform(-1, 1, size=(m, n)) * 10.0 ** rng.uniform(-4, 4, size=(m, n))
            b = rng.random(m) * 10.0 ** rng.uniform(-4, 4, size=m)
        # with slacks, about half the rows after row 0 start on one
        slack_rows = 1 + np.flatnonzero(rng.random(m - 1) < 0.5) if slacks else []
        a, start = _with_slacks(a, slack_rows, exact)
        tab = _Tableau(a, b, tol, start)
        assert tab.art_rows.tolist() == np.flatnonzero(start < 0).tolist()
        want = tab.t[tab.art_rows].sum(axis=0)
        want[tab.n_struct:tab.width] = tol * 0
        tab.set_phase1_objective()
        assert tab.obj.dtype == want.dtype and tab.obj.shape == want.shape
        if exact:
            assert tab.obj.tolist() == want.tolist()
            assert all(type(v) is Fraction for v in tab.obj.tolist())
        else:
            assert np.array_equal(tab.obj.view(np.uint64), want.view(np.uint64))


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


def _exact_entry(rng):
    """A small coefficient as an int, a numpy integer or a Fraction, zero
    one time in three; now and then an int past 2**53, where distinct ratios
    of ints can meet as floats, and whose square overflows int64."""
    p = int(rng.integers(-4, 5)) * (rng.random() < 2 / 3)
    kind = int(rng.integers(5))
    if kind == 0:
        return p
    if kind == 1:
        return np.int64(p)
    if kind == 2:
        return np.int32(p)
    if kind == 3:
        return Fraction(p, int(rng.integers(1, 7)))
    return p * 3**40 + int(rng.integers(-2, 3)) if rng.random() < 0.2 else p


def _exact_lp(rng):
    """A random exact program; a third of its rows are numpy int arrays."""
    n = int(rng.integers(1, 6))
    lp = LinearProgram(n, [_exact_entry(rng) for _ in range(n)])
    for _ in range(int(rng.integers(0, 7))):
        if rng.random() < 1 / 3:
            row = rng.integers(-3, 4, size=n)
        else:
            row = [_exact_entry(rng) for _ in range(n)]
        (lp.add_eq if rng.random() < 0.3 else lp.add_ub)(row, _exact_entry(rng))
    return lp


def _as_fractions(lp):
    """lp with every coefficient a Fraction."""

    def frac(v):
        return Fraction(v) if isinstance(v, Fraction) else Fraction(int(v))

    out = LinearProgram(lp.n_vars, [frac(v) for v in lp.objective])
    for rows, add in ((lp.eq_rows, out.add_eq), (lp.ub_rows, out.add_ub)):
        for coeffs, rhs in rows:
            add([frac(v) for v in coeffs], frac(rhs))
    return out


def test_exact_mode_matches_all_fraction_data():
    # Integer data stays in ints until a pivot divides; solving the same
    # program with every coefficient a Fraction is the oracle: the same
    # answers, certificates and pivots, every returned number a Fraction
    rng = np.random.default_rng(2207)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(1500):
        lp = _exact_lp(rng)
        got, want = simplex_solve(lp, exact=True), simplex_solve(_as_fractions(lp), exact=True)
        assert got == want
        statuses[got.status] += 1
        numbers = [got.value] + list(got.x or ()) + list(got.farkas or ())
        assert all(type(v) is Fraction for v in numbers if v is not None)
        assert (got.value is None) == (got.status != "optimal")
    assert min(statuses.values()) > 200


def test_exact_ratio_test_tells_apart_ratios_that_meet_as_floats():
    # 3**40 and 3**40 + 1 round to one float: a ratio test over int / int
    # would see a tie, leave the row with the smaller basic index and step
    # past x <= 3**40
    big = 3**40
    for rhs in ([big + 1, big], [big, big + 1]):
        lp = LinearProgram(1, [1])
        for b in rhs:
            lp.add_ub([1], b)
        res = simplex_solve(lp, exact=True)
        assert res.status == "optimal" and res.value == big and res.x == (big,)
        assert res == simplex_solve(_as_fractions(lp), exact=True)


def _fraction_verdict(lp, y, tol):
    """verify_farkas evaluated directly in Fractions."""
    rows = lp.eq_rows + lp.ub_rows
    y = [Fraction(v) for v in y]
    cols = [sum(v * Fraction(row[j]) for v, (row, _) in zip(y, rows))
            for j in range(lp.n_vars)]
    if any(c < -tol for c in cols) or any(v < -tol for v in y[len(lp.eq_rows):]):
        return False
    return sum(v * Fraction(b) for v, (_, b) in zip(y, rows)) < -tol


def test_verify_farkas_in_integers_matches_fraction_evaluation():
    # Certificates with denominators past 2**64 and Fraction entries in A
    # and b, whose y.A_j and y.b sit on either side of -tol or on it, so a
    # lost or negative scale, or an unscaled tolerance, changes verdicts
    rng = np.random.default_rng(5150)
    tiny = Fraction(1, 2**70)
    dens = [1, 2, 3, 7, 2**64 + 13, 3**41, 10**30 + 7]
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        n_eq, n_ub, n = int(rng.integers(1, 4)), int(rng.integers(0, 4)), int(rng.integers(1, 5))
        den = [dens[int(k)] for k in rng.integers(len(dens), size=n_eq + n_ub)]
        y = [Fraction(int(rng.integers(1, 9)) * (-1) ** int(rng.integers(2)), d)
             for d in den[:n_eq]]
        y += [Fraction(int(rng.integers(0, 9)), d) for d in den[n_eq:]]
        if n_ub and rng.random() < 0.2:
            y[-1] = -tiny  # rejected at tol 0, within tolerance at FEAS_TOL
        for tol in (0.0, FEAS_TOL):
            targets = [0, tiny, -tiny, 1, -1, -Fraction(tol), -Fraction(tol) - tiny]
            rows = [[int(rng.integers(-3, 4)) if rng.random() < 0.5
                     else Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
                     for _ in range(n)] for _ in range(n_eq + n_ub)]
            b = [Fraction(int(rng.integers(-9, 10)), 3) for _ in range(n_eq + n_ub)]
            # set row 0, whose multiplier is nonzero, so that each y.A_j and
            # y.b land on a drawn target; y.b is negative two times in three
            for j in range(n):
                rest = sum(y[i] * rows[i][j] for i in range(1, n_eq + n_ub))
                want = targets[int(rng.integers(len(targets)))]
                if rng.random() < 0.8:
                    want = abs(want)
                rows[0][j] = (want - rest) / y[0]
            rest = sum(y[i] * b[i] for i in range(1, n_eq + n_ub))
            want = targets[int(rng.integers(len(targets)))]
            if rng.random() < 2 / 3:
                want = -abs(want) - Fraction(tol)
            b[0] = (want - rest) / y[0]
            lp = LinearProgram(n)
            for i, (row, rhs) in enumerate(zip(rows, b)):
                (lp.add_eq if i < n_eq else lp.add_ub)(row, rhs)
            verdict = verify_farkas(lp, y, tol, exact=True)
            assert verdict == _fraction_verdict(lp, y, tol)
            assert verify_farkas(lp, [-v for v in y], tol, exact=True) == _fraction_verdict(
                lp, [-v for v in y], tol)
            verdicts[verdict] += 1
    assert min(verdicts.values()) > 100


_FLOAT_POOL = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5, -0.25, 1 / 3, -2 / 3]


def _float_lp(rng):
    """A random float program with signed zeros among its entries and one
    entry in five a full-mantissa float; half of them are capped."""
    n = int(rng.integers(1, 6))

    def vector(k):
        v = np.array(_FLOAT_POOL)[rng.integers(len(_FLOAT_POOL), size=k)]
        full = rng.random(k) < 0.2
        v[full] = rng.uniform(-2, 2, size=int(full.sum()))
        return v.tolist()

    lp = LinearProgram(n, vector(n))
    if rng.random() < 0.5:
        lp.add_ub([1.0] * n, 4.0)  # fewer unbounded programs
    for _ in range(int(rng.integers(0, 7))):
        (lp.add_eq if rng.random() < 0.3 else lp.add_ub)(vector(n), vector(1)[0])
    return lp


def _hex(v):
    if isinstance(v, tuple):
        return tuple(map(_hex, v))
    return v if v is None else float.hex(v)


def _negative_zeros(v):
    return sum(u == 0 and math.copysign(1.0, u) < 0 for u in v or ())


def test_float_results_keep_their_bits():
    # Status, value, x, Farkas vector and pivots of 1,500 float programs,
    # every float by its hex, so a result that moves by one bit or loses
    # the sign of a zero changes the digest.  Like the LP golden pins these
    # are last-bit values of numpy 2.4.6 on Python 3.11: another platform
    # may need the digest re-pinned.
    rng = np.random.default_rng(2026)
    digest = hashlib.sha256()
    zeros = {"x": 0, "farkas": 0}
    for _ in range(1500):
        res = simplex_solve(_float_lp(rng))
        digest.update(repr((res.status, _hex(res.value), _hex(res.x), _hex(res.farkas),
                            res.certificate_ok, res.pivots)).encode())
        zeros["x"] += _negative_zeros(res.x)
        zeros["farkas"] += _negative_zeros(res.farkas)
    # the draw returns -0.0 in x and in Farkas vectors
    assert zeros == {"x": 29, "farkas": 106}
    assert digest.hexdigest() == (
        "043a5bccaccee5131285eef2045d99e26af1cc9a54766e38930dc426ba1d6cc5"
    )


def test_zero_optimum_is_positive_zero():
    # so are the nonbasic zeros of x, also where their reduced cost (here
    # column 0's, -1) is negative
    empty = LinearProgram(0)
    empty.add_eq([], 0)
    capped = LinearProgram(1, [-1])
    capped.add_ub([1], 1)
    for lp in (empty, capped):
        res = simplex_solve(lp)
        assert res.status == "optimal"
        assert math.copysign(1.0, res.value) == 1.0
        assert all(math.copysign(1.0, v) == 1.0 for v in res.x)


# ---------------------------------------------------------------------------
# The pivot skips the entries a full rank-1 update would leave equal


class _DenseTableau(_Tableau):
    """The tableau with a full rank-1 update of every row with a nonzero
    pivot-column entry, over every column."""

    def pivot(self, r, c):
        p = self.t[r, c]
        self.t[r] = row = self.t[r] / (Fraction(p) if self.exact else p)
        col = self.t[:, c]
        nz = np.flatnonzero(col)
        nz = nz[nz != r]
        self.t[nz] = self.t[nz] - np.multiply.outer(col[nz], row)
        f = self.obj[c]
        if f:
            self.obj = self.obj - f * row
        self.basis[r] = c


# -0.0 stays -0.0 in float mode and becomes Fraction(0) in exact mode
_values = st.sampled_from(
    [0, 0, -0.0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5)]
)


@st.composite
def _lp_data(draw):
    """(n, objective, [(is_eq, coeffs, rhs)]) with many zeros, negative
    right-hand sides, and repeated or zero-rhs rows to make them degenerate."""
    n = draw(st.integers(1, 5))
    vector = st.lists(_values, min_size=n, max_size=n)
    rows = draw(st.lists(st.tuples(st.booleans(), vector, _values), max_size=8))
    if rows and draw(st.booleans()):
        is_eq, coeffs, rhs = rows[draw(st.integers(0, len(rows) - 1))]
        rows.append((is_eq, coeffs, draw(st.sampled_from([rhs, 0]))))
    return n, draw(vector), rows


def _build(data, exact):
    num = Fraction if exact else float
    n, objective, rows = data
    lp = LinearProgram(n, [num(v) for v in objective])
    for is_eq, coeffs, rhs in rows:
        (lp.add_eq if is_eq else lp.add_ub)([num(v) for v in coeffs], num(rhs))
    return lp


def _bits(v):
    """A float by its hex (the sign of a zero included), a Fraction with
    its type, tuples entry by entry."""
    if isinstance(v, tuple):
        return tuple(_bits(u) for u in v)
    if isinstance(v, float):
        return v.hex()
    return v if v is None else (type(v), v)


def _solve_bits(lp, exact, tableau):
    with mock.patch.object(simplex, "_Tableau", tableau):
        res = simplex_solve(lp, exact=exact)
    return (res.status, _bits(res.value), _bits(res.x), _bits(res.farkas),
            res.certificate_ok, res.pivots)


@pytest.mark.parametrize("exact", [False, True])
@settings(max_examples=400, deadline=None)
@given(data=_lp_data())
def test_solve_has_the_bits_of_the_full_update(exact, data):
    lp = _build(data, exact)
    assert _solve_bits(lp, exact, _Tableau) == _solve_bits(lp, exact, _DenseTableau)


def _identical(x, y):
    """The same objects in object arrays, the same bits in float arrays."""
    if x.dtype == object:
        return all(u is v for u, v in zip(x.ravel().tolist(), y.ravel().tolist()))
    bits = [np.ascontiguousarray(z).view(np.uint64) for z in (x, y)]
    return np.array_equal(*bits)


@pytest.mark.parametrize("exact", [False, True])
def test_pivot_leaves_zero_row_columns_and_zero_column_rows_untouched(exact):
    rng = np.random.default_rng(17)
    tol = Fraction(0) if exact else FEAS_TOL
    structural = 0
    for _ in range(60):
        m, n = (int(k) for k in rng.integers(1, 12, size=2))
        a = rng.integers(-3, 4, size=(m, n)) * (rng.random((m, n)) < 0.4)
        b = rng.integers(0, 4, size=m) * (rng.random(m) < 0.5)
        if exact:
            a = _array(a.tolist(), True) / Fraction(3)
            b = _array(b.tolist(), True) / Fraction(2)
        else:
            # -0.0 among the zeros, as _standardize leaves in negated rows
            a, b = a / 3, b / 2
            a[(a == 0) & (rng.random((m, n)) < 0.5)] = -0.0
            b[(b == 0) & (rng.random(m) < 0.5)] = -0.0
        # about half the rows start on a slack, the others on an artificial
        a, start = _with_slacks(a, np.flatnonzero(rng.random(m) < 0.5), exact)
        tab, dense = _Tableau(a, b, tol, start), _DenseTableau(a, b, tol, start)
        r = int(rng.integers(m))
        c = int(rng.choice(np.flatnonzero(tab.t[r, :tab.width])))
        structural += c < n
        before = tab.t.copy()  # in exact mode, the same Fraction objects
        for t in (tab, dense):
            t.set_phase1_objective()
            t.pivot(r, c)
        others = np.arange(m) != r
        # the rows with a zero pivot-column entry are not touched at all
        for i in np.flatnonzero(others & (before[:, c] == 0)):
            assert _identical(tab.t[i], before[i])
        # nor, in the other rows, the columns where the pivot row is zero,
        # but for the rhs, which x reads the signs of zeros from
        for j in range(tab.width):
            if not tab.t[r, j]:
                assert _identical(tab.t[others, j], before[others, j])
        # every entry has the value of the full update, the rhs its bits;
        # elsewhere only a zero's sign may differ
        assert tab.t.tolist() == dense.t.tolist()
        if not exact:
            assert _identical(tab.t[:, -1], dense.t[:, -1])
            assert _identical(tab.obj, dense.obj)
    assert structural > 20


@pytest.mark.parametrize("exact", [False, True])
def test_farkas_weight_on_a_slack_start_row_verifies(exact):
    # x = 2 against x <= 1 and the trivial row 0 <= 1: every certificate
    # weighs the row x <= 1, which starts on its slack, so its multiplier
    # is read from that slack's reduced cost
    scalar = Fraction if exact else float
    lp = LinearProgram(1, [0])
    lp.add_eq([1], 2)
    lp.add_ub([1], 1)
    lp.add_ub([0], 1)
    res = simplex_solve(lp, exact=exact)
    assert res.status == "infeasible" and res.certificate_ok is True
    assert all(type(v) is scalar for v in res.farkas)
    assert res.farkas == (-1, 1, 0)
    assert verify_farkas(lp, res.farkas, 0.0 if exact else FEAS_TOL, exact=exact)


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
