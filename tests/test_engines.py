"""Integration engines: exactness, splitting, Monte Carlo reproducibility."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontomodels.engines import (
    ClosedForm,
    EngineError,
    MC_BLOCK,
    QUAD_MIN_LEVEL,
    MonteCarlo,
    SphereQuadrature,
    _block_sizes,
    _frame,
    _graded,
    parse_engine,
    sample_sphere,
)
from ontomodels.framework import canonical_mix_contexts, classify, prep_context_distance
from ontomodels.hilbert import DensityOperator
from ontomodels.zoo import get_model

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
# Random split axes; exact coordinates make pole-aligned, parallel and
# antipodal sets likely.
_COORD = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0))
AXIS = st.tuples(_COORD, _COORD, _COORD).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 1e-3
)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def monomial_integral(a: int, b: int, c: int) -> float:
    # Solid-angle integral of x^a y^b z^c over the unit sphere.
    if a % 2 or b % 2 or c % 2:
        return 0.0
    num = double_factorial(a - 1) * double_factorial(b - 1) * double_factorial(c - 1)
    return 4.0 * math.pi * num / double_factorial(a + b + c + 1)


def rand_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestSphereQuadrature:
    def test_weights_sum_to_sphere_area(self):
        q = SphereQuadrature(9)
        _, w = q.nodes()
        assert w.sum() == pytest.approx(4.0 * math.pi, abs=1e-12)
        _, w = q.nodes(split_axes=(Z, X))
        assert w.sum() == pytest.approx(4.0 * math.pi, abs=1e-10)

    @given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_spherical_polynomials_exact(self, a, b, c):
        if a + b + c > 17:
            a, b, c = a % 4, b % 4, c % 4
        q = SphereQuadrature(17)
        val = q.integrate(lambda p: p[:, 0] ** a * p[:, 1] ** b * p[:, 2] ** c)
        assert val == pytest.approx(monomial_integral(a, b, c), abs=1e-10)

    def test_level_must_be_sane(self):
        with pytest.raises(EngineError):
            SphereQuadrature(1)

    def test_hemisphere_cosine_lune_orthogonal_axes(self):
        # Oracle: cosine density on a hemisphere integrated over another
        # hemisphere gives (1 + n.m)/2; orthogonal axes give exactly 1/2.
        q = SphereQuadrature(17)

        def f(p):
            return np.where((p @ X) > 0, np.clip(p @ Z, 0.0, None) / math.pi, 0.0)

        assert q.integrate(f, split_axes=(Z, X)) == pytest.approx(0.5, abs=1e-9)

    def test_hemisphere_cosine_lune_random_axes(self):
        q = SphereQuadrature(17)
        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(100):
            n, m = rand_unit(rng), rand_unit(rng)

            def f(p):
                return np.where((p @ m) > 0, np.clip(p @ n, 0.0, None) / math.pi, 0.0)

            got = q.integrate(f, split_axes=(n, m))
            worst = max(worst, abs(got - 0.5 * (1.0 + n @ m)))
        assert worst < 1e-6

    def test_lune_with_nearly_parallel_axes(self):
        q = SphereQuadrature(17)
        n = rand_unit(np.random.default_rng(5))
        m = n + 1e-6 * np.array([0.3, -0.4, 0.1])
        m /= np.linalg.norm(m)

        def f(p):
            return np.where((p @ m) > 0, np.clip(p @ n, 0.0, None) / math.pi, 0.0)

        assert q.integrate(f, split_axes=(n, m)) == pytest.approx(
            0.5 * (1.0 + n @ m), abs=1e-9
        )

    def test_double_hemisphere_total_variation(self):
        # 0.5 * integral of ||z.l| - |x.l|| / (2 pi) over the sphere.
        # Kinks lie on the circles of z, x and the two diagonal axes;
        # the exact value is sqrt(2) - 1.
        q = SphereQuadrature(17)
        d1 = (Z + X) / math.sqrt(2.0)
        d2 = (Z - X) / math.sqrt(2.0)

        def f(p):
            return np.abs(np.abs(p @ Z) - np.abs(p @ X)) / (2.0 * math.pi)

        tv = 0.5 * q.integrate(f, split_axes=(Z, X, d1, d2))
        assert tv == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)

    def test_rejects_zero_split_axis(self):
        with pytest.raises(EngineError):
            SphereQuadrature(5).nodes(split_axes=(np.zeros(3),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_split_axis(self, bad):
        with pytest.raises(EngineError, match="finite"):
            SphereQuadrature(17).nodes(split_axes=(Z, np.array([bad, 0.0, 1.0])))

    @given(
        st.lists(AXIS, min_size=1, max_size=4),
        st.data(),
        st.sampled_from([1.0, -1.0, 0.3, 2.0, 1e-3, 7.5]),
        st.integers(2, 17),
    )
    @settings(max_examples=60, deadline=None)
    def test_repeated_circles_are_dropped(self, axes, data, scale, level):
        # A repeat of an axis names the same circle whatever its sign and
        # length; inserted anywhere after the axis, it leaves the rule as
        # it was.
        i = data.draw(st.integers(0, len(axes) - 1))
        j = data.draw(st.integers(i + 1, len(axes)))
        repeated = axes[:j] + [scale * axes[i]] + axes[j:]
        pts, w = SphereQuadrature(level).nodes(axes)
        got_pts, got_w = SphereQuadrature(level).nodes(repeated)
        assert got_pts.tobytes() == pts.tobytes() and got_w.tobytes() == w.tobytes()

    def test_split_axes_are_not_modified(self):
        a, b = np.array([3.0, 0.0, 4.0]), np.array([0.0, -2.0, 0.0])
        SphereQuadrature(5).nodes(split_axes=(a, b))
        assert a.tolist() == [3.0, 0.0, 4.0] and b.tolist() == [0.0, -2.0, 0.0]

    @given(
        st.lists(AXIS, min_size=1, max_size=5),
        st.integers(2, 33),
    )
    # Axes 88.4 degrees apart: a polar cap 3.5e-4 wide, 1.6e-5 off at
    # level 6 before panels were graded toward the poles.
    @example(axes=[np.array((-1.0, -1.0, 0.5625)), np.array((-1.0, 0.5, -1.0))], level=6)
    @settings(max_examples=60, deadline=None)
    def test_split_rule_integrates_area_and_lune(self, axes, level):
        # The lune of the first and last axis is split on both circles;
        # extra axes add arcs, so latitude rows carry 0, 2, 4, ... bounds.
        # Tolerances: level 2 has 5 polar nodes per panel and its area
        # misses 4 pi by 6.9e-7; the lune error falls below 1e-6 from
        # level 6 on (worst over 2000 random axis sets, half with the last
        # axis nearly orthogonal to the first: 4.8e-4 at level 2, 5.1e-7 at
        # level 6, 1.7e-9 at level 17).
        pts, w = SphereQuadrature(level).nodes(axes)
        n, m = (a / np.linalg.norm(a) for a in (axes[0], axes[-1]))
        assert w.sum() == pytest.approx(
            4.0 * math.pi, abs=1e-10 if level > 2 else 1e-6
        )
        f = np.where(pts @ m > 0, np.clip(pts @ n, 0.0, None) / math.pi, 0.0)
        assert w @ f == pytest.approx(
            0.5 * (1.0 + n @ m), abs=1e-5 if level >= 6 else 1e-2
        )


def _loop_split_nodes(level, axes):
    """Reference: the split rule built one latitude row at a time, as
    `SphereQuadrature` did before its node build became array code."""
    kept = []
    for a in (a / np.linalg.norm(a) for a in (a / np.linalg.norm(a) for a in axes)):
        # An axis whose great circle a kept axis already names is dropped.
        if all(np.linalg.norm(np.cross(a, b)) > 1e-12 for b in kept):
            kept.append(a)
    axes = kept
    e1, e2, pole = _frame(axes[0])
    others = []
    for a in axes[1:]:
        ax, ay, az = a @ e1, a @ e2, a @ pole
        rho = math.hypot(ax, ay)
        if rho > 1e-12:
            others.append((rho, az, math.atan2(ay, ax)))
    cuts = {-1.0, 0.0, 1.0}
    for rho, _, _ in others:
        cuts.update((rho, -rho))
    for j in range(len(axes)):
        for k in range(j + 1, len(axes)):
            c = np.cross(axes[j], axes[k])
            nc = np.linalg.norm(c)
            if nc > 1e-9:
                h = float(c @ pole) / nc
                cuts.update((h, -h))
    grid = sorted(c for c in cuts if -1.0 <= c <= 1.0)
    panels = [(a, b) for a, b in zip(grid[:-1], grid[1:]) if b - a > 1e-13]
    panels = [
        p
        for a, b in panels
        for p in (_graded(a, b, 1.0 - b, True) if b > 0.0 else _graded(a, b, a + 1.0, False))
    ]

    n = 2 * level + 1
    xt, wt = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (xt + 1.0)
    x_az, w_az = np.polynomial.legendre.leggauss(n)
    all_pts, all_w = [], []
    for a, b in panels:
        u_nodes = a + (b - a) * np.sin(0.5 * np.pi * t) ** 2
        du = 0.5 * (b - a) * (0.5 * np.pi) * np.sin(np.pi * t)
        for u, wu in zip(u_nodes, wt * du):
            r = math.sqrt(max(1.0 - u * u, 0.0))
            bounds = []
            for rho, az, phi0 in others:
                amp, off = r * rho, -az * u
                if amp > abs(off) + 1e-15:
                    w = math.acos(min(max(off / amp, -1.0), 1.0))
                    bounds.append((phi0 - w) % (2.0 * np.pi))
                    bounds.append((phi0 + w) % (2.0 * np.pi))
            if not bounds:
                phi = 2.0 * np.pi * np.arange(n) / n
                wphi = np.full(n, 2.0 * np.pi / n)
            else:
                bounds.sort()
                his = bounds[1:] + [bounds[0] + 2.0 * np.pi]
                halves = [0.5 * (hi - lo) for lo, hi in zip(bounds, his)]
                phi = np.concatenate(
                    [lo + h * (x_az + 1.0) for lo, h in zip(bounds, halves)]
                )
                wphi = np.concatenate([w_az * h for h in halves])
            all_pts.append(
                np.stack([r * np.cos(phi), r * np.sin(phi), np.full(phi.shape, u)], axis=1)
            )
            all_w.append(wu * wphi)
    return np.concatenate(all_pts) @ np.stack([e1, e2, pole]), np.concatenate(all_w)


@given(st.lists(AXIS, min_size=1, max_size=5), st.integers(2, 33))
@settings(max_examples=40, deadline=None)
def test_split_nodes_match_loop_reference(axes, level):
    pts, w = SphereQuadrature(level).nodes(axes)
    ref_pts, ref_w = _loop_split_nodes(level, axes)
    assert pts.tobytes() == ref_pts.tobytes() and w.tobytes() == ref_w.tobytes()


def _prepctx_ks_axes():
    """The split axes `prepctx --model ks` hands to the quadrature."""
    seen = []

    class Recorder(SphereQuadrature):
        def integrate(self, f, split_axes=()):
            seen.append(tuple(np.array(a, dtype=float) for a in split_axes))
            return super().integrate(f, split_axes)

    ctx_a, ctx_b = canonical_mix_contexts(2)
    rho = DensityOperator(np.eye(2) / 2)
    prep_context_distance(get_model("ks"), rho, ctx_a, ctx_b, Recorder(17))
    (axes,) = seen
    return axes


N = np.array([0.36, -0.48, 0.8])
GOLDEN_AXES = {
    "none": (),
    "one": (N,),
    "antipodal": (N, -N),
    # Parallel to the first axis: in-plane radius 0, so the axis is dropped.
    "parallel": (N, 2.0 * N),
    # First axis along z, the others in its x-z plane, one on its equator.
    "pole": (Z, X, (Z + X) / math.sqrt(2.0), (Z - X) / math.sqrt(2.0)),
    "mixed": (N, np.array([-0.6, 0.0, 0.8]), np.array([2.0, 1.0, -2.0]) / 3.0),
}

# (N, sha256(pts.tobytes())[:16], sha256(w.tobytes())[:16]).  Last-bit
# values of this platform's libm and numpy, like the LP pins in
# test_lp_golden.py: another platform may need them re-pinned.
GOLDEN_NODES = {
    ("none", 2): (10, "b9714c56dc49060c", "62ec192f48565848"),
    ("none", 17): (595, "9524349f65dd1c3b", "81d1fb14c9ecf6b5"),
    ("none", 33): (2211, "d36102904dba298a", "9d212b4d54059ba7"),
    ("one", 2): (50, "a405e418988bf2da", "c3725f1763e5d830"),
    ("one", 17): (2450, "616ec7c094925af0", "6e9c7bbb38f06ab5"),
    ("one", 33): (8978, "1e2e0074b18981d0", "150deb250348c481"),
    ("antipodal", 2): (50, "a405e418988bf2da", "c3725f1763e5d830"),
    ("antipodal", 17): (2450, "616ec7c094925af0", "6e9c7bbb38f06ab5"),
    ("antipodal", 33): (8978, "1e2e0074b18981d0", "150deb250348c481"),
    ("parallel", 2): (50, "a405e418988bf2da", "c3725f1763e5d830"),
    ("parallel", 17): (2450, "616ec7c094925af0", "6e9c7bbb38f06ab5"),
    ("parallel", 33): (8978, "1e2e0074b18981d0", "150deb250348c481"),
    ("pole", 2): (400, "a6d714d7eaa6a64a", "7db6de208da58d11"),
    ("pole", 17): (19600, "0eb4d8dbcde7dc9e", "da6b7b06b02d4726"),
    ("pole", 33): (71824, "181c07c222487aee", "73381b5fb8829bb7"),
    ("mixed", 2): (550, "8d186b56a32bd8d0", "ebefe4d0939dc6c2"),
    ("mixed", 17): (26950, "7e93634538b9f123", "5cf3c95a7a31695e"),
    ("mixed", 33): (98758, "e678cca9ea9c9c89", "ed9bb54a4907aba2"),
    # 12 axes naming 4 circles, each built once.
    ("prepctx-ks", 2): (400, "49604b67d43414ac", "3c4f13b1fa88f860"),
    ("prepctx-ks", 17): (19600, "5169911fc5c2d51e", "b11f71a23d6a81d3"),
    ("prepctx-ks", 33): (71824, "91f7c46b1fb224fe", "db4d82b050eba3e1"),
}


@pytest.mark.parametrize("name, level", sorted(GOLDEN_NODES))
def test_sphere_nodes_golden(name, level):
    axes = _prepctx_ks_axes() if name == "prepctx-ks" else GOLDEN_AXES[name]
    if name == "prepctx-ks":
        assert len(axes) == 12
    pts, w = SphereQuadrature(level).nodes(axes)
    got = (
        len(w),
        hashlib.sha256(pts.tobytes()).hexdigest()[:16],
        hashlib.sha256(w.tobytes()).hexdigest()[:16],
    )
    assert pts.shape == (len(w), 3)
    assert got == GOLDEN_NODES[name, level]


@pytest.mark.parametrize("level", [2, 17, 33])
def test_prepctx_ks_axes_build_their_four_circles(level):
    # z, x and the two bisectors of the z and x mixtures, each named by
    # several of the 12 axes, first in the order listed here.
    axes = _prepctx_ks_axes()
    distinct = [axes[i] for i in (0, 2, 4, 5)]
    pts, w = SphereQuadrature(level).nodes(axes)
    ref_pts, ref_w = SphereQuadrature(level).nodes(distinct)
    assert pts.tobytes() == ref_pts.tobytes() and w.tobytes() == ref_w.tobytes()


class TestMonteCarlo:
    def test_uniform_sphere_mean(self):
        mc = MonteCarlo(200_000, seed=13)
        est = mc.mean(sample_sphere, lambda p: np.clip(p @ Z, 0.0, None), "t1")
        assert est.stderr is not None and est.stderr > 0
        assert abs(est.value - 0.25) < est.tolerance

    def test_bit_identical_replay(self):
        a = MonteCarlo(70_000, seed=4).mean(sample_sphere, lambda p: p[:, 2] ** 2, "t2")
        b = MonteCarlo(70_000, seed=4).mean(sample_sphere, lambda p: p[:, 2] ** 2, "t2")
        assert a.value == b.value and a.stderr == b.stderr

    def test_labels_separate_streams(self):
        a = MonteCarlo(10_000, seed=4).mean(sample_sphere, lambda p: p[:, 2], "u")
        b = MonteCarlo(10_000, seed=4).mean(sample_sphere, lambda p: p[:, 2], "v")
        assert a.value != b.value

    def test_blocks_partition_n(self):
        mc = MonteCarlo(2 * MC_BLOCK + 17, seed=1)
        sizes = [m for _, m in mc.blocks()]
        assert sizes == [MC_BLOCK, MC_BLOCK, 17]

    def test_block_stream_regenerates_any_sample(self):
        # Every sample that mean() averaged is row idx % MC_BLOCK of the
        # batch drawn from block_stream(idx // MC_BLOCK, *labels).
        mc = MonteCarlo(MC_BLOCK + 50, seed=8)
        seen = []

        def sampler(rng, m):
            seen.append(sample_sphere(rng, m))
            return seen[-1]

        mc.mean(sampler, lambda p: p[:, 2], "w")
        drawn = np.concatenate(seen)
        for idx in (0, 7, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 49):
            j, off = divmod(idx, MC_BLOCK)
            again = sample_sphere(mc.block_stream(j, "w"), dict(mc.blocks())[j])
            assert np.array_equal(again[off], drawn[idx])

    def test_columns_reduce_like_one_dimensional_integrands(self):
        mc = MonteCarlo(2 * MC_BLOCK + 333, seed=6)
        cols = [
            lambda p: np.clip(p[:, 2], 0.0, None) ** 1.3, lambda p: p[:, 0], lambda p: p[:, 1] ** 2,
        ]
        both = mc.mean(sample_sphere, lambda p: np.stack([f(p) for f in cols], axis=1), "c")
        for est, f in zip(both, cols):
            one = mc.mean(sample_sphere, f, "c")
            assert (est.value, est.stderr, est.tolerance) == (one.value, one.stderr, one.tolerance)

    @pytest.mark.parametrize("shape", [lambda m: (m + 1,), lambda m: (m, 2, 1), lambda m: ()])
    def test_rejects_integrands_of_the_wrong_shape(self, shape):
        with pytest.raises(EngineError):
            MonteCarlo(100, seed=1).mean(sample_sphere, lambda p: np.zeros(shape(len(p))), "x")

    def test_peak_memory_holds_one_block_of_values(self):
        # Each block's (m, 6) values go before the next block is drawn, so
        # eight blocks peak no higher than one, give or take a block.
        def peak(n):
            tracemalloc.start()
            try:
                MonteCarlo(n, seed=1).mean(lambda rng, m: rng.random((m, 6)), lambda x: x, "mem")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8 * MC_BLOCK) - peak(MC_BLOCK) < MC_BLOCK * 6 * 8

    def test_estimate_tolerance_is_three_sigma(self):
        est = MonteCarlo(5_000, seed=2).mean(sample_sphere, lambda p: p[:, 0], "s")
        assert est.tolerance == pytest.approx(3.0 * est.stderr)

    def test_rejects_tiny_n(self):
        with pytest.raises(EngineError):
            MonteCarlo(1)


def test_negative_counts_are_rejected():
    # divmod would turn a negative count into one block of n mod block
    assert _block_sizes(0, 256) == []
    assert _block_sizes(300, 256) == [256, 44]
    with pytest.raises(ValueError, match="negative"):
        _block_sizes(-5, 256)
    with pytest.raises(ValueError, match="negative"):
        classify(get_model("bb:3"), n_trials=-5)


class TestParseEngine:
    def test_closed(self):
        assert isinstance(parse_engine("closed"), ClosedForm)

    def test_quad_level(self):
        eng = parse_engine("quad:17")
        assert isinstance(eng, SphereQuadrature) and eng.level == 17
        assert eng.spec == "quad:17"

    def test_mc_with_seed(self):
        eng = parse_engine("mc:1000000", seed=99)
        assert isinstance(eng, MonteCarlo)
        assert eng.n_samples == 1_000_000 and eng.seed == 99
        assert eng.spec == "mc:1000000"

    @pytest.mark.parametrize(
        "bad", ["", "quad", "quad:x", "mc", "mc:ten", "fft:3", "closed:1"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(EngineError):
            parse_engine(bad)

    @pytest.mark.parametrize("level", [2, 14])
    def test_rejects_quadrature_below_minimum_level(self, level):
        with pytest.raises(EngineError, match=f"below {QUAD_MIN_LEVEL}"):
            parse_engine(f"quad:{level}")
        assert SphereQuadrature(level).level == level

    def test_closed_form_estimate_is_tight(self):
        est = ClosedForm().estimate(0.5)
        assert abs(est.value - 0.5) <= est.tolerance
        assert abs(est.value - (0.5 + 1e-6)) > est.tolerance
