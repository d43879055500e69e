"""Tests for fragment parsing, atom enumeration, and the overlap LPs."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomodels.data import fragment_path, list_fragments
from ontomodels.engines import ClosedForm, MonteCarlo
from ontomodels.epibound import (
    CAVEAT,
    ORTH_TOL,
    Fragment,
    FragmentError,
    analyze,
    enumerate_atoms,
    feasibility_max_epistemic,
    fragment_model,
    fragment_rays,
    load_fragment,
    max_overlap_fraction,
    parse_fragment,
)
from ontomodels.framework import MeasContext, functional_dependence_test, verify_born
from ontomodels.hilbert import PureState, born_probability, complete_basis, random_state
from ontomodels.ksval import find_valuation, graph_from_edges
from ontomodels.rng import stream
from test_lp_golden import kcbs_cycle_text

D2_TEXT = """\
dim=2
exact
state: 1,0 0,0
state: 1,0 1,0
basis:
1,0 0,0
0,0 1,0
basis:
1,0 1,0
1,0 -1,0
"""

# Two exact rays about 1e-5 rad apart, (100000, 1, 0) and e1, whose float
# overlap is within ORTH_TOL of 1, each prepared and each measured.
NEAR_TEXT = """\
dim=3
exact
state: 1,0 0,0 0,0
state: 100000,0 1,0 0,0
basis:
1,0 0,0 0,0
0,0 1,0 0,0
0,0 0,0 1,0
basis:
100000,0 1,0 0,0
-1,0 100000,0 0,0
0,0 0,0 1,0
"""

# analytic optimum of the bundled pentagon fragment, and the value the
# solver actually lands on (frozen as a regression golden)
KCBS_ANALYTIC = 2.0 / math.sqrt(5.0)
KCBS_GOLDEN = 0.8944271909999157


def ps(*comps):
    v = np.asarray(comps, dtype=complex)
    return PureState(v / np.linalg.norm(v))


# The Fraction pair loops the Gaussian-integer ray algebra replaced, kept as
# its oracle.


def _exact_inner(u, v):
    """conj(u) . v as an (re, im) pair of Fractions."""
    re_ = Fraction(0)
    im_ = Fraction(0)
    for (a, b), (c, d) in zip(u, v):
        re_ += a * c + b * d
        im_ += a * d - b * c
    return re_, im_


def _exact_parallel(u, v) -> bool:
    """Same ray: every 2x2 complex minor u_i v_j - u_j v_i vanishes."""
    n = len(u)
    for i in range(n):
        for j in range(i + 1, n):
            re_ = u[i][0] * v[j][0] - u[i][1] * v[j][1]
            re_ -= u[j][0] * v[i][0] - u[j][1] * v[i][1]
            im_ = u[i][0] * v[j][1] + u[i][1] * v[j][0]
            im_ -= u[j][0] * v[i][1] + u[j][1] * v[i][0]
            if re_ or im_:
                return False
    return True


def exact_born(u, v) -> Fraction:
    re_, im_ = _exact_inner(u, v)
    return (re_ * re_ + im_ * im_) / (_exact_inner(u, u)[0] * _exact_inner(v, v)[0])


def oracle_rays(frag):
    """(basis_rays, state_rays, edges) of an exact fragment by first match."""
    rays, basis_rays = [], []
    for basis in frag.exact_bases:
        ids = []
        for pairs in basis:
            r = next((k for k, u in enumerate(rays) if _exact_parallel(u, pairs)), None)
            if r is None:
                rays.append(pairs)
                r = len(rays) - 1
            ids.append(r)
        basis_rays.append(tuple(ids))
    state_rays = tuple(
        next((k for k, u in enumerate(rays) if _exact_parallel(u, pairs)), None)
        for pairs in frag.exact_states
    )
    n = len(rays)
    edges = tuple(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if _exact_inner(rays[i], rays[j]) == (0, 0)
    )
    return tuple(basis_rays), state_rays, edges


def float_oracle(frag):
    """(basis_rays, state_rays, edges, born) of a float fragment by the
    per-pair same_ray / inner / born_probability loops that ``_relations``
    replaced, kept as its oracle.  A state matched to a measured ray takes
    that ray's Born row and column, as ``fragment_rays`` does."""
    flat = [v for b in frag.bases for v in b] + list(frag.states)
    n_measured = len(frag.bases) * frag.dim
    firsts = []

    def match(k):
        return next(
            (r for r, f in enumerate(firsts) if flat[f].same_ray(flat[k], atol=ORTH_TOL)),
            None,
        )

    ids = []
    for k in range(n_measured):
        if match(k) is None:
            firsts.append(k)
        ids.append(match(k))
    basis_rays = tuple(tuple(ids[k : k + frag.dim]) for k in range(0, n_measured, frag.dim))
    state_rays = tuple(match(k) for k in range(n_measured, len(flat)))
    rays = [flat[f] for f in firsts]
    edges = tuple(
        (i, j)
        for i in range(len(rays))
        for j in range(i + 1, len(rays))
        if abs(rays[i].inner(rays[j])) <= ORTH_TOL
    )
    # a state on a measured ray stands in as that ray's first vector
    own = [flat[n_measured + i] if r is None else rays[r] for i, r in enumerate(state_rays)]
    born = [[born_probability(u, psi) for psi in own] for u in flat[:n_measured] + own]
    return basis_rays, state_rays, edges, born


def random_float_fragment(rng):
    """Complex fragment in d = 2..5 whose bases and states share rays: some
    bases are rebuilt from a phased copy of an earlier vector, and most
    states are phased copies of measured vectors."""
    dim = int(rng.integers(2, 6))

    def phased(v):
        return PureState(np.exp(2j * np.pi * rng.random()) * v.amplitudes)

    pool, bases = [], []
    for _ in range(int(rng.integers(1, 5))):
        if pool and rng.random() < 0.6:
            first = phased(pool[rng.integers(len(pool))])
        else:
            first = random_state(dim, rng)
        basis = complete_basis(first)
        bases.append(basis)
        pool.extend(basis)
    states = [phased(pool[rng.integers(len(pool))]) for _ in range(int(rng.integers(1, 4)))]
    states += [random_state(dim, rng) for _ in range(int(rng.integers(0, 2)))]
    return Fragment(dim=dim, states=tuple(states), bases=tuple(bases))


def exact_fragment(dim, bases, states):
    """Exact Fragment straight from (re, im) Fraction rows, no basis check."""
    def state(pairs):
        v = np.array([complex(float(p), float(q)) for p, q in pairs])
        return PureState(v / np.linalg.norm(v))

    return Fragment(
        dim=dim,
        states=tuple(state(v) for v in states),
        bases=tuple(tuple(state(v) for v in b) for b in bases),
        exact=True,
        exact_states=tuple(states),
        exact_bases=tuple(bases),
    )


def gmul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c)


F = Fraction
GAUSS = [(F(0), F(0))] * 3 + [
    (F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(1), F(1)), (F(1, 2), F(-1)), (F(2), F(0)),
]
FACTORS = [(F(-1), F(0)), (F(0), F(1)), (F(2, 3), F(0)), (F(1), F(-1)), (F(-3, 2), F(1, 5))]


@st.composite
def exact_cases(draw):
    """Rows of Gaussian rationals with parallel copies scaled by Gaussian-
    rational factors, cut into bases, plus states drawn from the same pool.
    Some bases are orthogonal frames: permuted unit vectors with one pair
    turned to (e_a + z e_b, -conj(z) e_a + e_b)."""
    dim = draw(st.integers(min_value=2, max_value=4), label="dim")
    vector = st.tuples(*[st.sampled_from(GAUSS)] * dim).filter(lambda v: any(map(any, v)))
    pool = draw(st.lists(vector, min_size=1, max_size=6), label="pool")

    def scaled(vec):
        lam = draw(st.sampled_from(FACTORS))
        return tuple(gmul(lam, c) for c in vec)

    def frame():
        axes = draw(st.permutations(range(dim)))
        rows = [[(F(0), F(0))] * dim for _ in range(dim)]
        for k, a in enumerate(axes):
            rows[k][a] = (F(1), F(0))
        re, im = draw(st.sampled_from(GAUSS))
        a, b = axes[0], axes[1]
        rows[0][b], rows[1][a] = (re, im), (-re, im)
        pool.extend(map(tuple, rows))
        return tuple(scaled(r) for r in rows)

    n_bases = draw(st.integers(min_value=1, max_value=4), label="bases")
    bases = [
        frame() if draw(st.booleans()) else tuple(scaled(draw(st.sampled_from(pool)))
                                                  for _ in range(dim))
        for _ in range(n_bases)
    ]

    def row():
        return scaled(draw(st.sampled_from(pool)))

    states = [row() for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    states += draw(st.lists(vector, max_size=2), label="unmeasured")
    return dim, bases, states


def contexts(frag):
    """One measurement context per basis, in declared order."""
    return [MeasContext(f"B{b}", basis) for b, basis in enumerate(frag.bases)]


def triad_fragment(states):
    axes = (ps(1, 0, 0), ps(0, 1, 0), ps(0, 0, 1))
    return Fragment(dim=3, states=tuple(states), bases=(axes,), name="triad")


@pytest.fixture(scope="module")
def d2():
    return parse_fragment(D2_TEXT, name="d2_zx")


@pytest.fixture(scope="module")
def kcbs():
    return load_fragment(fragment_path("kcbs.frag"))


@pytest.fixture(scope="module")
def peres():
    return load_fragment(fragment_path("peres33.frag"))


class TestParsing:
    def test_d2_text(self, d2):
        assert d2.dim == 2
        assert d2.exact
        assert len(d2.states) == 2
        assert len(d2.bases) == 2
        assert d2.states[1].same_ray(ps(1, 1))

    def test_float_mode_normalizes(self):
        frag = parse_fragment(
            "dim=2\nstate: 3,0 0,4\nbasis:\n1,0 0,0\n0,0 1,0\n"
        )
        assert abs(np.linalg.norm(frag.states[0].amplitudes) - 1.0) < 1e-12
        assert not frag.exact

    def test_comments_and_blanks_ignored(self):
        frag = parse_fragment(
            "# header\ndim=2\n\nstate: 1,0 0,0  # plus z\nbasis:\n1,0 0,0\n0,0 1,0\n"
        )
        assert len(frag.states) == 1

    def test_bundled_files_load(self):
        names = set(list_fragments())
        assert {"d2_zx.frag", "kcbs.frag", "peres33.frag"} <= names
        for name in sorted(names):
            frag = load_fragment(fragment_path(name))
            assert frag.dim >= 2

    @pytest.mark.parametrize(
        "text,fragment_of_message",
        [
            ("", "empty"),
            ("state: 1,0 0,0\n", "line 1"),
            ("dim=1\n", "line 1"),
            ("dim=2\nwhat\n", "line 2"),
            ("dim=2\nstate: 1,0\n", "line 2"),
            ("dim=2\nstate: 1,0 0,0 0,0\n", "line 2"),
            ("dim=2\nstate: a,b c,d\n", "line 2"),
            ("dim=2\nstate: 0,0 0,0\n", "line 2"),
            ("dim=2\nexact\nstate: 0.5,0 oops,0\n", "line 3"),
            ("dim=2\nstate: 1,0 0,0\nbasis: 1,0 0,0\n", "line 3"),
            ("dim=2\nstate: 1,0 0,0\nbasis:\n1,0 0,0\n", "needs 2 vector"),
            ("dim=2\nstate: 1,0 0,0\nbasis:\n1,0 0,0\n1,0 0.5,0\n", "orthogonal"),
            ("dim=2\nstate: 1,0 0,0\n", "no bases"),
            ("dim=2\nbasis:\n1,0 0,0\n0,0 1,0\n", "no states"),
        ],
    )
    def test_errors_cite_lines(self, text, fragment_of_message):
        with pytest.raises(FragmentError, match=fragment_of_message):
            parse_fragment(text)

    def test_exact_rejects_irrational_token(self):
        with pytest.raises(FragmentError, match="not rational"):
            parse_fragment("dim=2\nexact\nstate: 1.5e0x,0 0,0\n")


class TestRays:
    def test_d2_rays(self, d2):
        rays = fragment_rays(d2)
        assert len(rays.vectors) == 4
        assert len(rays.graph.edges) == 2
        # +z and +x are both measured rays
        assert None not in rays.state_rays

    def test_shared_ray_dedup(self):
        shared = (ps(1, 0, 0), ps(0, 1, 1), ps(0, 1, -1))
        axes = (ps(1, 0, 0), ps(0, 1, 0), ps(0, 0, 1))
        frag = Fragment(dim=3, states=(ps(1, 0, 0),), bases=(axes, shared))
        rays = fragment_rays(frag)
        assert len(rays.vectors) == 5
        assert rays.basis_rays[0][0] == rays.basis_rays[1][0]

    def test_unmeasured_state_has_no_ray(self):
        frag = triad_fragment([ps(1, 1, 1)])
        rays = fragment_rays(frag)
        assert rays.state_rays == (None,)

    def test_kcbs_graph(self, kcbs):
        rays = fragment_rays(kcbs)
        assert len(rays.vectors) == 10
        assert len(rays.graph.edges) == 15
        assert len(rays.graph.complete_bases) == 5
        assert rays.state_rays[-1] is None  # the axis state is never measured


class TestFloatRayGeometry:
    def test_fragment_rays_match_pair_loop_oracle(self):
        rng = np.random.default_rng(8)
        shared = 0
        for _ in range(300):
            frag = random_float_fragment(rng)
            rays = fragment_rays(frag)
            basis_rays, state_rays, edges, born = float_oracle(frag)
            assert rays.basis_rays == basis_rays
            assert rays.state_rays == state_rays
            assert rays.graph.edges == edges
            assert rays.born.tolist() == born  # bit for bit
            shared += len(rays.vectors) < len(frag.bases) * frag.dim
        assert shared > 100


class TestExactRayGeometry:
    """The Gaussian-integer path against the Fraction pair loops."""

    @settings(max_examples=150, deadline=None)
    @given(case=exact_cases())
    def test_fragment_rays_match_fraction_oracle(self, case):
        dim, bases, states = case
        frag = exact_fragment(dim, bases, states)
        rays = fragment_rays(frag)
        basis_rays, state_rays, edges = oracle_rays(frag)
        assert rays.basis_rays == basis_rays
        assert rays.state_rays == state_rays
        assert rays.graph.edges == edges
        assert rays.graph.bases == graph_from_edges(len(rays.vectors), dim, edges).bases
        flat = [v for b in bases for v in b] + list(states)
        assert rays.born.tolist() == [[exact_born(u, psi) for psi in states] for u in flat]

    @settings(max_examples=100, deadline=None)
    @given(case=exact_cases())
    def test_basis_check_matches_fraction_oracle(self, case):
        dim, bases, states = case
        text = [f"dim={dim}", "exact", "state: " + " ".join(f"{p},{q}" for p, q in states[0])]
        for b in bases:
            text += ["basis:"] + [" ".join(f"{p},{q}" for p, q in v) for v in b]
        bad = None
        for k, b in enumerate(bases):
            pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
            hit = next(((i, j) for i, j in pairs if _exact_inner(b[i], b[j]) != (0, 0)), None)
            if hit is not None:
                bad = (4 + k * (dim + 1), *hit)  # line of the k-th 'basis:' header
                break
        if bad is None:
            parse_fragment("\n".join(text))
        else:
            with pytest.raises(FragmentError) as err:
                parse_fragment("\n".join(text))
            line, i, j = bad
            assert str(err.value) == f"line {line}: basis vectors {i} and {j} are not orthogonal"

    def test_no_overflow_near_3_to_the_40(self):
        big = F(3**40)  # above the int64 range; its squares are far above

        def g(re, im=0):
            return (F(re), F(im))

        u = (g(big), g(0, big + 1), g(0))
        v = (g(big + 1), g(0, -big), g(0))  # conj(u) . v = 0
        w = (g(2**32), g(0), g(1))
        x = (g(2**32), g(1), g(0))  # conj(w) . x = 2**64, 0 mod 2**64
        e3 = (g(0), g(0), g(1))
        tilted_e3 = (g(0), g(0), g(1, big))  # parallel to e3
        near_u = (g(big + 1), g(0, big + 2), g(0))
        states = [tuple(gmul(g(big, big + 1), c) for c in u), near_u,
                  tuple(gmul(g(0, 1), c) for c in x)]
        frag = exact_fragment(3, [(u, v, e3), (w, x, tilted_e3)], states)
        rays = fragment_rays(frag)
        basis_rays, state_rays, edges = oracle_rays(frag)
        assert (rays.basis_rays, rays.state_rays, rays.graph.edges) == (
            basis_rays, state_rays, edges
        )
        assert basis_rays == ((0, 1, 2), (3, 4, 2))
        assert state_rays == (0, None, 4)
        assert (0, 1) in edges and (3, 4) not in edges


class TestAtoms:
    def test_two_qubit_bases_give_four_atoms(self, d2):
        assert len(enumerate_atoms(d2)) == 4

    def test_single_triad_gives_three_atoms(self):
        atoms = enumerate_atoms(triad_fragment([ps(1, 0, 0)]))
        assert len(atoms) == 3
        assert sorted(atoms) == [
            (0, 0, 1), (0, 1, 0), (1, 0, 0),
        ]

    def test_uncolorable_fragment_has_no_atoms(self, peres):
        assert enumerate_atoms(peres) == []

    def test_kcbs_atoms_are_pentagon_independent_sets(self, kcbs):
        atoms = enumerate_atoms(kcbs)
        assert len(atoms) == 11
        rays = fragment_rays(kcbs)
        v_rays = [rays.state_rays[i] for i in range(5)]
        picked = sorted(
            tuple(k for k in range(5) if a[v_rays[k]]) for a in atoms
        )
        independent = [()]
        independent += [(k,) for k in range(5)]
        independent += sorted(
            (i, j) for i in range(5) for j in range(i + 1, 5)
            if j - i not in (1, 4)
        )
        assert picked == sorted(independent)

    def test_atom_outcomes_match_valuation(self, kcbs):
        # each atom fires exactly one outcome of every basis
        rays = fragment_rays(kcbs)
        for atom in enumerate_atoms(kcbs):
            for ids in rays.basis_rays:
                assert sorted(atom[r] for r in ids) == [0, 0, 1]

    def test_emptiness_iff_valuation_unsat(self, d2, kcbs, peres):
        for frag in (d2, kcbs, peres):
            rays = fragment_rays(frag)
            empty = len(enumerate_atoms(frag, rays)) == 0
            unsat = not find_valuation(rays.graph, frag.dim).satisfiable
            assert empty == unsat


class TestFeasibility:
    def test_d2_is_feasible_exactly(self, d2):
        res = feasibility_max_epistemic(d2)
        assert res.status == "Feasible"
        assert res.exact
        assert res.max_residual == 0.0
        total = [sum(row) for row in res.weights]
        assert total == [Fraction(1), Fraction(1)]

    def test_d2_weights_reproduce_born(self, d2):
        res = feasibility_max_epistemic(d2)
        rays = fragment_rays(d2)
        atoms = enumerate_atoms(d2, rays)
        for i, psi in enumerate(d2.states):
            for b, basis in enumerate(d2.bases):
                for k, phi in enumerate(basis):
                    mass = sum(
                        res.weights[i][a]
                        for a in range(len(atoms))
                        if atoms[a][rays.basis_rays[b][k]] == 1
                    )
                    assert abs(float(mass) - born_probability(phi, psi)) < 1e-12

    def test_single_state_single_basis_point_mass(self):
        frag = triad_fragment([ps(0, 1, 0)])
        res = feasibility_max_epistemic(frag)
        assert res.status == "Feasible"
        rays = fragment_rays(frag)
        atoms = enumerate_atoms(frag, rays)
        r = rays.state_rays[0]
        for a, atom in enumerate(atoms):
            expected = 1.0 if atom[r] == 1 else 0.0
            assert abs(float(res.weights[0][a]) - expected) < 1e-12

    def test_unmeasured_state_keeps_all_atoms(self):
        frag = triad_fragment([ps(1, 1, 1)])
        res = feasibility_max_epistemic(frag)
        assert res.status == "Feasible"
        assert all(abs(float(w) - 1 / 3) < 1e-9 for w in res.weights[0])

    def test_uncolorable_is_infeasible_by_emptiness(self, peres):
        res = feasibility_max_epistemic(peres)
        assert res.status == "Infeasible"
        assert res.empty_atoms
        assert res.n_atoms == 0
        rays = fragment_rays(peres)
        assert not find_valuation(rays.graph, peres.dim).satisfiable

    def test_kcbs_is_infeasible_with_verified_farkas(self, kcbs):
        res = feasibility_max_epistemic(kcbs)
        assert res.status == "Infeasible"
        assert not res.empty_atoms
        assert res.farkas is not None
        assert res.certificate_ok is True

    def test_feasible_wraps_to_born_passing_model(self, d2):
        res = feasibility_max_epistemic(d2)
        model = fragment_model(d2, res.weights, name="d2-witness")
        report = verify_born(model, d2.states, contexts(d2), ClosedForm())
        assert report.passed
        assert report.max_deviation < 1e-12

    def test_float_mode_feasible_and_wrapped(self):
        # the same qubit fragment without the exact flag
        text = D2_TEXT.replace("exact\n", "")
        frag = parse_fragment(text, name="d2_float")
        res = feasibility_max_epistemic(frag)
        assert res.status == "Feasible"
        assert res.max_residual <= 1e-9
        model = fragment_model(frag, res.weights)
        report = verify_born(
            model, frag.states, contexts(frag), MonteCarlo(1000, seed=7)
        )
        assert report.passed


class TestOverlapFraction:
    def test_d2_reaches_one_exactly(self, d2):
        res = max_overlap_fraction(d2)
        assert res.status == "Optimal"
        assert res.f_star == Fraction(1)
        assert res.caveat == CAVEAT

    def test_d2_float_reaches_one(self, d2):
        frag = parse_fragment(D2_TEXT.replace("exact\n", ""))
        res = max_overlap_fraction(frag)
        assert abs(float(res.f_star) - 1.0) < 1e-9

    def test_kcbs_golden(self, kcbs):
        res = max_overlap_fraction(kcbs)
        f = float(res.f_star)
        assert abs(f - KCBS_ANALYTIC) < 1e-9
        assert abs(f - KCBS_GOLDEN) < 1e-12
        assert 0.0 < f < 1.0

    def test_kcbs_pairs_respect_bounds(self, kcbs):
        res = max_overlap_fraction(kcbs)
        f = float(res.f_star)
        assert res.pairs
        for p in res.pairs:
            assert p.ratio >= f - 1e-9
            assert p.core_mass <= p.born + 1e-9
        assert min(p.ratio for p in res.pairs) == pytest.approx(f, abs=1e-9)

    def test_kcbs_binding_pairs_are_the_axis_rows(self, kcbs):
        res = max_overlap_fraction(kcbs)
        f = float(res.f_star)
        binding = {p.measured for p in res.pairs if p.ratio < f + 1e-6}
        prepared = {p.prepared for p in res.pairs if p.ratio < f + 1e-6}
        assert prepared == {"psi5"}
        assert binding == {f"psi{k}" for k in range(5)}

    def test_vacuous_single_state(self):
        res = max_overlap_fraction(triad_fragment([ps(0, 0, 1)]))
        assert res.status == "Optimal"
        assert float(res.f_star) == pytest.approx(1.0, abs=1e-9)
        assert res.pairs == ()

    def test_undefined_on_empty_atoms(self, peres):
        res = max_overlap_fraction(peres)
        assert res.status == "Undefined"
        assert res.f_star is None
        assert res.caveat == CAVEAT

    def test_monotone_under_fragment_growth(self, kcbs):
        shrunk = Fragment(
            dim=3, states=kcbs.states[:2], bases=kcbs.bases[:3], name="kcbs-part"
        )
        grown = Fragment(
            dim=3, states=kcbs.states[:5], bases=kcbs.bases, name="kcbs-mid"
        )
        f_small = float(max_overlap_fraction(shrunk).f_star)
        f_mid = float(max_overlap_fraction(grown).f_star)
        f_full = float(max_overlap_fraction(kcbs).f_star)
        assert f_small >= f_mid - 1e-9
        assert f_mid >= f_full - 1e-9

    def test_random_qubit_two_basis_fragments_reach_one(self):
        # any two-basis qubit fragment admits a fully overlapping model
        for trial in range(12):
            g = stream(20260814, "two-basis", trial)
            b1 = complete_basis(random_state(2, g))
            b2 = complete_basis(random_state(2, g))
            frag = Fragment(
                dim=2, states=b1 + b2, bases=(b1, b2), name=f"rand{trial}"
            )
            res = max_overlap_fraction(frag)
            assert res.status == "Optimal"
            assert float(res.f_star) >= 1.0 - 1e-9


class TestFragmentModel:
    def test_space_is_finite_atoms(self, d2):
        res = feasibility_max_epistemic(d2)
        model = fragment_model(d2, res.weights)
        assert model.ontic_space.kind == "finite"
        assert model.ontic_space.reference_mass == 4.0  # one unit per atom
        assert model.dim == 2
        # A finite space holds no state register: the response cannot read
        # the prepared state, analytically, without a trial.
        st = functional_dependence_test(model, seed=3)
        assert st.value == "confirmed_analytic"
        assert st.n_trials == 0

    def test_sampler_respects_support(self, d2):
        res = feasibility_max_epistemic(d2)
        model = fragment_model(d2, res.weights)
        mu = model.prepare(d2.states[0])
        batch = mu.sampler(stream(3, "frag-sample"), 500)
        assert batch.shape == (500,)
        assert mu.support(batch).all()

    def test_response_is_deterministic(self, d2):
        res = feasibility_max_epistemic(d2)
        model = fragment_model(d2, res.weights)
        batch = np.arange(4)
        for basis in d2.bases:
            for phi in basis:
                vals = model.respond.evaluate(phi, batch, None)
                assert set(np.unique(vals)) <= {0.0, 1.0}
                assert (model.respond.core(phi, batch, None) == (vals == 1.0)).all()

    def test_unknown_state_rejected(self, d2):
        res = feasibility_max_epistemic(d2)
        model = fragment_model(d2, res.weights)
        with pytest.raises(ValueError, match="not one of the fragment"):
            model.prepare(ps(2, 1))

    def test_nearly_parallel_exact_rays_read_their_own_valuations(self):
        # The first ray within ORTH_TOL of (100000, 1, 0) is e1: reading
        # its valuation predicted 1e-10 where Born gives 2e-43.
        frag = parse_fragment(NEAR_TEXT, name="near")
        res = feasibility_max_epistemic(frag)
        assert res.status == "Feasible"
        model = fragment_model(frag, res.weights)
        report = verify_born(model, frag.states, contexts(frag), ClosedForm())
        assert report.passed
        assert report.max_deviation < 1e-12

    def test_no_model_without_atoms(self, peres):
        with pytest.raises(ValueError, match="no atoms"):
            fragment_model(peres, ())


class TestAnalyze:
    def test_d2_report(self, d2):
        rep = analyze(d2)
        assert rep["feasible"] == "Feasible"
        assert rep["f_star"] == 1.0
        assert rep["n_atoms"] == 4
        assert rep["caveat"] == CAVEAT
        assert rep["certificate"] is None
        assert rep["exact"] is True

    def test_kcbs_report(self, kcbs):
        rep = analyze(kcbs)
        assert rep["feasible"] == "Infeasible"
        assert rep["certificate"]["verified"] is True
        assert len(rep["certificate"]["farkas"]) == 6 * 5 * 3
        assert abs(rep["f_star"] - KCBS_GOLDEN) < 1e-12
        assert len(rep["pairs"]) == 15

    def test_peres_report(self, peres):
        rep = analyze(peres)
        assert rep["feasible"] == "Infeasible"
        assert rep["n_atoms"] == 0
        assert rep["f_star"] is None
        assert rep["certificate"] == {
            "empty_atoms": True, "valuation_search": "unsat",
        }

    def test_builds_the_atom_table_once(self, kcbs, monkeypatch):
        from ontomodels import epibound

        calls = []
        inner = epibound.fragment_rays

        def counting(frag):
            calls.append(frag.name)
            return inner(frag)

        monkeypatch.setattr(epibound, "fragment_rays", counting)
        rep = analyze(kcbs)
        assert calls == ["kcbs"]
        assert rep["n_atoms"] == feasibility_max_epistemic(kcbs).n_atoms
        assert rep["f_star"] == float(max_overlap_fraction(kcbs).f_star)

    def test_reports_are_deterministic(self, kcbs):
        assert analyze(kcbs) == analyze(kcbs)

    @pytest.mark.parametrize("n", [None, 5, 7, 9, 11])
    def test_atom_table_rows_match_a_row_loop(self, n, monkeypatch):
        # both LPs' rows, on kcbs.frag and on rotated KCBS n-cycles, against
        # one Python-looped row per (state, ray) cell
        from ontomodels import epibound

        calls = []
        rows = epibound._AtomTable.rows

        def recording(table, first, cells):
            calls.append((table, first, cells, rows(table, first, cells)))
            return calls[-1][-1]

        monkeypatch.setattr(epibound._AtomTable, "rows", recording)
        if n is None:
            analyze(load_fragment(fragment_path("kcbs.frag")))
        else:
            analyze(parse_fragment(kcbs_cycle_text(n), name=f"kcbs-{n}"))
        assert [first for _, first, _, _ in calls] == [0, 1]
        for table, first, cells, got in calls:
            state, atom = np.nonzero(table.admissible)
            want = np.zeros((len(cells), first + len(atom)), dtype=int)
            for row, (i, r) in zip(want, cells):
                hit = state == i
                if r is not None:
                    hit &= table.val[atom, r] == 1
                row[first:] = hit
            assert got.dtype == want.dtype and np.array_equal(got, want)
