"""Tests for the exact valuation solver and the .vec file format."""

import hashlib
import itertools
from fractions import Fraction
from math import gcd, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomodels.data import list_vector_sets, vector_path
from ontomodels.ksval import (
    Surd,
    VectorFileError,
    VectorSet,
    build_graph,
    enumerate_valuations,
    find_valuation,
    format_scalar,
    graph_from_edges,
    load_vector_set,
    parse_scalar,
    verify_valuation,
    write_vector_set,
)

R2 = Surd(0, 1, 2)


# Surd arithmetic and the Surd pair loops the integer ray algebra replaced,
# kept as its oracle.


def _as_surd(x) -> Surd:
    if isinstance(x, Surd):
        return x
    if isinstance(x, (int, Fraction)):
        return Surd(Fraction(x))
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")


def add(a, b) -> Surd:
    a, b = _as_surd(a), _as_surd(b)
    return Surd(a.p + b.p, a.q + b.q, a._join(b))


def sub(a, b) -> Surd:
    b = _as_surd(b)
    return add(a, Surd(-b.p, -b.q, b.r))


def mul(a, b) -> Surd:
    a, b = _as_surd(a), _as_surd(b)
    r = a._join(b)
    return Surd(a.p * b.p + a.q * b.q * r, a.p * b.q + a.q * b.p, r)


def _dot(u, v):
    acc = Surd()
    for a, b in zip(u, v):
        acc = add(acc, mul(a, b))
    return acc


def _parallel(u, v):
    d = len(u)
    for i in range(d):
        for j in range(i + 1, d):
            if not sub(mul(u[i], v[j]), mul(u[j], v[i])).is_zero:
                return False
    return True


def _first_parallel_pair(vectors):
    """Indices (i, j), i < j, of the first parallel pair in row order, or None."""
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            if _parallel(vectors[i], vectors[j]):
                return i, j
    return None


def oracle_edges(vectors):
    n = len(vectors)
    return tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if _dot(vectors[i], vectors[j]).is_zero
    )


def labelled(dim, vectors, radical=0):
    return VectorSet(dim, radical, tuple(vectors), tuple(f"v{k}" for k in range(len(vectors))))


def brute_valuations(graph):
    """Independent enumeration oracle: try every {0,1} assignment."""
    out = []
    for bits in itertools.product((0, 1), repeat=graph.n):
        if any(bits[i] and bits[j] for i, j in graph.edges):
            continue
        if any(sum(bits[v] for v in b) != 1 for b in graph.complete_bases):
            continue
        out.append(bits)
    return out


class TestSurd:
    def test_perfect_square_radical_folds(self):
        assert Surd(1, 3, 4) == Surd(7)
        assert Surd(0, 2, 1) == Surd(2)
        assert Surd(0, 5, 0) == Surd(0)
        assert Surd(Fraction(1, 2), Fraction(1, 2), 9) == Surd(2)

    def test_arithmetic(self):
        # the oracle's arithmetic above
        one_plus = Surd(1, 1, 2)
        one_minus = Surd(1, -1, 2)
        assert mul(one_plus, one_minus) == Surd(-1)
        assert add(one_plus, one_minus) == Surd(2)
        assert sub(one_plus, one_minus) == Surd(0, 2, 2)
        assert mul(R2, R2) == Surd(2)
        assert mul(2, R2) == Surd(0, 2, 2)
        assert sub(add(R2, 1), 1) == R2

    def test_mixed_radicals_rejected(self):
        with pytest.raises(ValueError, match="mixed radicals"):
            mul(Surd(0, 1, 2), Surd(0, 1, 3))
        with pytest.raises(ValueError, match="mixed radicals"):
            add(Surd(0, 1, 2), Surd(0, 1, 5))
        # a rational side carries no radical, so any partner works
        assert mul(Surd(3), Surd(0, 1, 5)) == Surd(0, 3, 5)

    def test_float_value(self):
        assert float(Surd(1, 2, 2)) == pytest.approx(1 + 2 * sqrt(2), abs=1e-15)
        assert float(Surd(Fraction(-3, 2))) == -1.5

    def test_is_zero(self):
        assert Surd(0).is_zero
        assert not R2.is_zero
        assert sub(R2, R2).is_zero
        assert not Surd(0, 1, 2).is_zero

    @given(
        p=st.fractions(min_value=-5, max_value=5, max_denominator=8),
        q=st.fractions(min_value=-5, max_value=5, max_denominator=8),
    )
    def test_parse_format_round_trip(self, p, q):
        s = Surd(p, q, 2)
        assert parse_scalar(format_scalar(s), 2) == s

    @pytest.mark.parametrize(
        "token,expected",
        [
            ("0", Surd(0)),
            ("-3/2", Surd(Fraction(-3, 2))),
            ("√2", R2),
            ("-√2", Surd(0, -1, 2)),
            ("2√2", Surd(0, 2, 2)),
            ("1+√2", Surd(1, 1, 2)),
            ("1-2√2", Surd(1, -2, 2)),
            ("-1/2+3/2√2", Surd(Fraction(-1, 2), Fraction(3, 2), 2)),
            ("sqrt2", R2),
            ("1+sqrt2", Surd(1, 1, 2)),
        ],
    )
    def test_parse_examples(self, token, expected):
        assert parse_scalar(token, 2) == expected

    @pytest.mark.parametrize("token", ["", "x", "1+2", "√x", "√-2", "1/0", "1++√2"])
    def test_parse_rejects_garbage(self, token):
        with pytest.raises(ValueError):
            parse_scalar(token, 2)

    def test_parse_radical_must_match_declaration(self):
        with pytest.raises(ValueError, match="declares radical=2"):
            parse_scalar("√3", 2)
        # without a declared radical any r parses
        assert parse_scalar("√3") == Surd(0, 1, 3)


def write_lines(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoad:
    def test_bundled_files_present(self):
        names = list_vector_sets()
        assert {"triad3.vec", "twotriads.vec", "peres33.vec"} <= set(names)

    def test_triad_file(self):
        vset = load_vector_set(vector_path("triad3.vec"))
        assert vset.dim == 3
        assert vset.radical == 0
        assert len(vset.vectors) == 3
        assert vset.labels == ("v0", "v1", "v2")

    def test_peres_file(self):
        vset = load_vector_set(vector_path("peres33.vec"))
        assert vset.dim == 3
        assert vset.radical == 2
        assert len(vset.vectors) == 33

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write_lines(
            tmp_path,
            "ok.vec",
            [
                "# a comment",
                "",
                "dim=3 radical=0",
                "1 0 0  # trailing comment",
                "0 1 0",
                "0 0 1",
            ],
        )
        assert len(load_vector_set(path).vectors) == 3

    def test_parallel_rays_rejected(self, tmp_path):
        path = write_lines(
            tmp_path, "par.vec", ["dim=3 radical=0", "1 1 0", "2 2 0", "0 0 1"]
        )
        with pytest.raises(VectorFileError, match="parallel rays at lines 2 and 3"):
            load_vector_set(path)

    def test_antiparallel_rays_rejected(self, tmp_path):
        path = write_lines(
            tmp_path, "anti.vec", ["dim=3 radical=0", "1 1 0", "-1 -1 0"]
        )
        with pytest.raises(VectorFileError, match="parallel"):
            load_vector_set(path)

    def test_zero_vector_rejected(self, tmp_path):
        path = write_lines(tmp_path, "zero.vec", ["dim=3 radical=0", "0 0 0"])
        with pytest.raises(VectorFileError, match="zero.vec:2: zero vector"):
            load_vector_set(path)

    def test_component_count_mismatch(self, tmp_path):
        path = write_lines(tmp_path, "short.vec", ["dim=3 radical=0", "1 0"])
        with pytest.raises(VectorFileError, match="expected 3 components, got 2"):
            load_vector_set(path)

    def test_bad_scalar_reports_line(self, tmp_path):
        path = write_lines(
            tmp_path, "bad.vec", ["dim=3 radical=2", "1 0 0", "0 oops 1"]
        )
        with pytest.raises(VectorFileError, match="bad.vec:3"):
            load_vector_set(path)

    def test_bad_header(self, tmp_path):
        path = write_lines(tmp_path, "hdr.vec", ["radical=2 dim=3", "1 0 0"])
        with pytest.raises(VectorFileError, match="expected header"):
            load_vector_set(path)

    def test_missing_header(self, tmp_path):
        path = write_lines(tmp_path, "empty.vec", ["# nothing here"])
        with pytest.raises(VectorFileError, match="missing header"):
            load_vector_set(path)

    def test_no_vectors(self, tmp_path):
        path = write_lines(tmp_path, "novec.vec", ["dim=3 radical=0"])
        with pytest.raises(VectorFileError, match="no vectors"):
            load_vector_set(path)

    def test_dim_two_rejected(self, tmp_path):
        path = write_lines(tmp_path, "d2.vec", ["dim=2 radical=0", "1 0", "0 1"])
        with pytest.raises(VectorFileError, match="dim must be >= 3"):
            load_vector_set(path)

    def test_radical_mismatch_in_body(self, tmp_path):
        path = write_lines(tmp_path, "mix.vec", ["dim=3 radical=2", "1 √3 0"])
        with pytest.raises(VectorFileError, match="declares radical=2"):
            load_vector_set(path)

    def test_write_round_trip(self, tmp_path):
        vset = load_vector_set(vector_path("peres33.vec"))
        out = tmp_path / "copy.vec"
        write_vector_set(vset, out, comment="round trip")
        again = load_vector_set(out)
        assert again.vectors == vset.vectors
        assert again.dim == vset.dim and again.radical == vset.radical


class TestGraph:
    def test_single_triad(self):
        g = build_graph(load_vector_set(vector_path("triad3.vec")))
        assert g.n == 3
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert g.bases == ((0, 1, 2),)
        assert g.complete_bases == g.bases
        assert g.neighbors == ((1, 2), (0, 2), (0, 1))

    def test_two_triads_sharing_a_ray(self):
        g = build_graph(load_vector_set(vector_path("twotriads.vec")))
        assert g.n == 5
        assert len(g.edges) == 6
        assert len(g.bases) == 2
        assert g.complete_bases == g.bases

    def test_peres_golden_counts(self):
        g = build_graph(load_vector_set(vector_path("peres33.vec")))
        assert g.n == 33
        assert len(g.edges) == 72
        assert len(g.bases) == 40
        assert len(g.complete_bases) == 16
        # every maximal orthogonal set is a triad or a bare pair
        assert {len(b) for b in g.bases} == {2, 3}

    def test_incomplete_sets_listed_but_not_complete(self):
        # path graph: two maximal pairs, no triad
        g = graph_from_edges(3, 3, [(0, 1), (1, 2)])
        assert g.bases == ((0, 1), (1, 2))
        assert g.complete_bases == ()

    def test_isolated_vertex_is_its_own_maximal_set(self):
        g = graph_from_edges(1, 3, [])
        assert g.bases == ((0,),)

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            graph_from_edges(3, 3, [(0, 0)])
        with pytest.raises(ValueError):
            graph_from_edges(3, 3, [(0, 9)])

    def test_programmatic_validation(self):
        vecs = (
            (Surd(1), Surd(0), Surd(0)),
            (Surd(2), Surd(0), Surd(0)),
        )
        vset = VectorSet(3, 0, vecs, ("a", "b"))
        with pytest.raises(ValueError, match="parallel rays: a and b"):
            build_graph(vset)


class TestSolver:
    def test_single_triad_sat(self):
        g = build_graph(load_vector_set(vector_path("triad3.vec")))
        res = find_valuation(g, 3)
        assert res.satisfiable
        assert verify_valuation(g, res.valuation, 3).ok
        assert sum(res.valuation) == 1
        assert not res.stats.completed  # stopped at the first solution

    def test_single_triad_enumerates_three(self):
        g = build_graph(load_vector_set(vector_path("triad3.vec")))
        vals, stats = enumerate_valuations(g, 3)
        assert len(vals) == 3
        assert sorted(vals) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert stats.completed and stats.solutions == 3

    def test_two_triads_match_brute_force(self):
        g = build_graph(load_vector_set(vector_path("twotriads.vec")))
        vals, _ = enumerate_valuations(g, 3)
        assert sorted(vals) == sorted(brute_valuations(g))
        assert len(vals) == 5

    def test_free_vertex_doubles_the_count(self):
        g = graph_from_edges(4, 3, [(0, 1), (0, 2), (1, 2)])
        vals, _ = enumerate_valuations(g, 3)
        assert len(vals) == 6
        assert sorted(vals) == sorted(brute_valuations(g))

    def test_peres_unsat(self):
        g = build_graph(load_vector_set(vector_path("peres33.vec")))
        res = find_valuation(g, 3)
        assert not res.satisfiable
        assert res.valuation is None
        assert res.stats.completed
        assert res.stats.solutions == 0

    def test_peres_unsat_by_independent_pick_search(self):
        # choose the 1-valued member of each complete triad directly; a
        # valuation exists iff a pairwise-non-orthogonal consistent choice does
        g = build_graph(load_vector_set(vector_path("peres33.vec")))
        triads = g.complete_bases
        edge = set(g.edges)

        def orth(a, b):
            return (min(a, b), max(a, b)) in edge

        def pick(idx, chosen):
            if idx == len(triads):
                return True
            already = [w for w in triads[idx] if w in chosen]
            if len(already) > 1:
                return False
            if len(already) == 1:
                return pick(idx + 1, chosen)
            for v in triads[idx]:
                if any(orth(v, c) for c in chosen):
                    continue
                if pick(idx + 1, chosen | {v}):
                    return True
            return False

        assert not pick(0, frozenset())

    def test_deterministic_statistics(self):
        g = build_graph(load_vector_set(vector_path("peres33.vec")))
        first = find_valuation(g, 3)
        second = find_valuation(g, 3)
        assert first.stats == second.stats
        all_first = enumerate_valuations(g, 3)
        all_second = enumerate_valuations(g, 3)
        assert all_first == all_second

    def test_superset_of_unsat_stays_unsat(self):
        base = load_vector_set(vector_path("peres33.vec"))
        extra = (
            (Surd(1), Surd(2), Surd(0)),
            (Surd(1), Surd(2), R2),
        )
        vset = VectorSet(
            3,
            2,
            base.vectors + extra,
            base.labels + ("x0", "x1"),
        )
        res = find_valuation(build_graph(vset), 3)
        assert not res.satisfiable

    def test_enumeration_limit(self):
        g = build_graph(load_vector_set(vector_path("triad3.vec")))
        vals, stats = enumerate_valuations(g, 3, limit=2)
        assert len(vals) == 2
        assert not stats.completed

    def test_dim_mismatch_rejected(self):
        g = build_graph(load_vector_set(vector_path("triad3.vec")))
        with pytest.raises(ValueError, match="dim=3"):
            find_valuation(g, 2)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_graphs_match_brute_force(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8), label="n")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.sets(st.sampled_from(pairs)), label="edges") if pairs else set()
        g = graph_from_edges(n, 3, edges)
        expected = brute_valuations(g)
        vals, stats = enumerate_valuations(g, 3)
        assert sorted(vals) == sorted(expected)
        assert stats.completed
        res = find_valuation(g, 3)
        assert res.satisfiable == bool(expected)
        if res.satisfiable:
            assert verify_valuation(g, res.valuation, 3).ok


class TestVerifier:
    def triad_graph(self):
        return build_graph(load_vector_set(vector_path("triad3.vec")))

    def test_accepts_good_valuation(self):
        g = self.triad_graph()
        assert verify_valuation(g, (1, 0, 0), 3).ok

    def test_rejects_all_zero_basis(self):
        g = self.triad_graph()
        check = verify_valuation(g, (0, 0, 0), 3)
        assert not check.ok
        assert "(ii)" in check.violation

    def test_rejects_orthogonal_pair_both_one(self):
        g = graph_from_edges(2, 3, [(0, 1)])
        check = verify_valuation(g, (1, 1), 3)
        assert not check.ok
        assert "(iii)" in check.violation

    def test_rejects_non_binary_values(self):
        g = self.triad_graph()
        check = verify_valuation(g, (1, 0, 2), 3)
        assert not check.ok
        assert "(i)" in check.violation

    def test_rejects_wrong_length(self):
        g = self.triad_graph()
        check = verify_valuation(g, (1, 0), 3)
        assert not check.ok
        assert "(i)" in check.violation

    def test_incomplete_sets_do_not_demand_a_one(self):
        g = graph_from_edges(3, 3, [(0, 1), (1, 2)])
        assert verify_valuation(g, (0, 0, 0), 3).ok
        assert verify_valuation(g, (1, 0, 1), 3).ok
        assert not verify_valuation(g, (1, 1, 0), 3).ok


@st.composite
def ray_sets(draw):
    """A radical r, a dimension and rays over Q(sqrt r), with parallel and
    antiparallel copies scaled by rational and by (a + b sqrt r) factors."""
    r = draw(st.sampled_from((0, 2, 3, 5)), label="r")
    dim = draw(st.integers(min_value=3, max_value=4), label="dim")
    root = Surd(0, 1, r)
    half = Fraction(1, 2)
    coords = [Surd(0)] * 4 + [Surd(1), Surd(-1), Surd(2), Surd(half)]
    if r:
        coords += [root, Surd(0, -1, r), Surd(1, 1, r), Surd(1, -1, r), Surd(-3, half, r)]
    vector = st.tuples(*[st.sampled_from(coords)] * dim).filter(
        lambda v: not all(c.is_zero for c in v)
    )
    rays = draw(st.lists(vector, min_size=1, max_size=9), label="base")
    factors = [Surd(-1), Surd(2), Surd(Fraction(-2, 3)), Surd(Fraction(5, 7))]
    if r:
        factors += [root, Surd(1, -1, r), Surd(Fraction(-3, 2), 2, r), Surd(4, -1, r)]
    for _ in range(draw(st.integers(min_value=0, max_value=3), label="copies")):
        src = draw(st.sampled_from(rays))
        lam = draw(st.sampled_from(factors))
        at = draw(st.integers(min_value=0, max_value=len(rays)))
        rays.insert(at, tuple(mul(lam, c) for c in src))
    return r, dim, rays


class TestIntegerGeometry:
    """The integer Gram / canonical-form path against the Surd pair loops."""

    @settings(max_examples=150, deadline=None)
    @given(case=ray_sets())
    def test_matches_surd_oracle(self, case, tmp_path_factory):
        r, dim, rays = case
        vset = labelled(dim, rays, r)
        pair = _first_parallel_pair(rays)
        path = tmp_path_factory.mktemp("rays") / "set.vec"
        write_vector_set(vset, path)
        if pair is None:
            assert load_vector_set(path).vectors == vset.vectors
        else:
            i, j = pair
            with pytest.raises(ValueError) as err:
                build_graph(vset)
            assert str(err.value) == f"parallel rays: v{i} and v{j}"
            with pytest.raises(VectorFileError) as err:
                load_vector_set(path)
            # header on line 1, ray k on line k + 2
            assert str(err.value) == (
                f"{path}:{j + 2}: parallel rays at lines {i + 2} and {j + 2}"
            )
        kept = []
        for v in rays:
            if not any(_parallel(u, v) for u in kept):
                kept.append(v)
        g = build_graph(labelled(dim, kept, r))
        expected = oracle_edges(kept)
        assert g.edges == expected
        assert g.bases == graph_from_edges(len(kept), dim, expected).bases

    def test_first_pair_in_row_order(self):
        # (1, 3) is found first in a scan by j, but (0, 4) comes first in row order
        a, b = (Surd(1), Surd(0), Surd(0)), (Surd(0), Surd(1), R2)
        rays = [a, b, (Surd(0), Surd(1), Surd(0)), tuple(mul(2, c) for c in b),
                tuple(mul(Fraction(-1, 2), c) for c in a)]
        assert _first_parallel_pair(rays) == (0, 4)
        with pytest.raises(ValueError, match="parallel rays: v0 and v4"):
            build_graph(labelled(3, rays, 2))

    def test_mixed_radicals_rejected(self):
        vset = labelled(3, [(Surd(1), R2, Surd(0)), (Surd(0), Surd(0, 1, 3), Surd(1))])
        with pytest.raises(ValueError, match=r"mixed radicals sqrt\(2\) and sqrt\(3\)"):
            build_graph(vset)

    def test_no_overflow_near_3_to_the_40(self):
        big = 3**40  # above the int64 range; its squares are far above
        s = Surd
        rays = [
            (s(big), s(big + 1), s(0)),
            (s(big + 1), s(-big), s(0)),  # orthogonal to the first
            (s(big + 1), s(big + 2), s(0)),  # nearly parallel to the first
            (s(2**32), s(0), s(1)),
            (s(2**32), s(1), s(0)),  # dot with the previous is 2**64, 0 mod 2**64
            (s(0, big, 2), s(1), s(big)),
            (s(big), s(0), s(-big, 0)),
            (s(0, 1, 2), s(0), s(Fraction(1, big))),
        ]
        g = build_graph(labelled(3, rays, 2))
        assert g.edges == oracle_edges(rays)
        assert (0, 1) in g.edges and (3, 4) not in g.edges
        twice = [tuple(mul(2, c) for c in rays[0])]
        with pytest.raises(ValueError, match="parallel rays: v0 and v8"):
            build_graph(labelled(3, rays + twice, 2))
        scaled = [tuple(mul(s(big, big + 1, 2), c) for c in rays[5])]
        with pytest.raises(ValueError, match="parallel rays: v5 and v8"):
            build_graph(labelled(3, rays + scaled, 2))

    def test_rays272_golden(self, tmp_path):
        # the primitive rays of {0,+-1,+-2}^4, first nonzero entry positive;
        # counts and the edge-list digest were taken with the Surd oracle
        rays = [
            v
            for v in itertools.product((0, 1, -1, 2, -2), repeat=4)
            if any(v) and next(x for x in v if x) > 0 and gcd(*v) == 1
        ]
        path = tmp_path / "rays272.vec"
        write_vector_set(labelled(4, [tuple(Surd(c) for c in v) for v in rays]), path)
        g = build_graph(load_vector_set(path))
        assert (g.n, len(g.edges), len(g.complete_bases)) == (272, 3760, 380)
        text = ";".join(f"{i},{j}" for i, j in g.edges)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "049da385e75a3536"
        res = find_valuation(g, 4)
        assert not res.satisfiable
        assert res.stats.decisions == 18


class TestLimit:
    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, limit):
        g = build_graph(load_vector_set(vector_path("triad3.vec")))
        with pytest.raises(ValueError, match="limit must be at least 1"):
            enumerate_valuations(g, 3, limit=limit)
