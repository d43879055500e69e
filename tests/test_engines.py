"""Integration engines: exactness, splitting, Monte Carlo reproducibility."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomodels.engines import (
    ClosedForm,
    EngineError,
    MC_BLOCK,
    MonteCarlo,
    SphereQuadrature,
    _frame,
    parse_engine,
    sample_sphere,
)
from ontomodels.framework import canonical_mix_contexts, prep_context_distance
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

    def test_split_axes_are_not_modified(self):
        a, b = np.array([3.0, 0.0, 4.0]), np.array([0.0, -2.0, 0.0])
        SphereQuadrature(5).nodes(split_axes=(a, b))
        assert a.tolist() == [3.0, 0.0, 4.0] and b.tolist() == [0.0, -2.0, 0.0]

    @given(
        st.lists(AXIS, min_size=1, max_size=5),
        st.integers(2, 33),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_rule_integrates_area_and_lune(self, axes, level):
        # The lune of the first and last axis is split on both circles;
        # extra axes add arcs, so latitude rows carry 0, 2, 4, ... bounds.
        # Tolerances: level 2 has 5 polar nodes per panel and its area
        # misses 4 pi by 6.9e-7; the lune error falls below 1e-6 from
        # level 6 on (worst over 2000 random axis sets: 9.1e-4 at level 2,
        # 3.6e-7 at level 8, 1.3e-7 at level 17).
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
    axes = [a / np.linalg.norm(a) for a in (a / np.linalg.norm(a) for a in axes)]
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
    ("prepctx-ks", 2): (1200, "6263fe88578c3635", "c3db48698da689b5"),
    ("prepctx-ks", 17): (58800, "24dd5b87eb2b9d24", "b2dfa38c83b93af2"),
    ("prepctx-ks", 33): (215472, "445b2d797ce52586", "25f3e3b810abdcb3"),
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

    def test_sample_at_regenerates(self):
        mc = MonteCarlo(MC_BLOCK + 50, seed=8)
        idx = MC_BLOCK + 7
        batch = sample_sphere(mc.block_stream(1, "w"), 50)
        assert np.array_equal(mc.sample_at(idx, sample_sphere, "w"), batch[7])

    def test_estimate_tolerance_is_three_sigma(self):
        est = MonteCarlo(5_000, seed=2).mean(sample_sphere, lambda p: p[:, 0], "s")
        assert est.tolerance == pytest.approx(3.0 * est.stderr)

    def test_rejects_tiny_n(self):
        with pytest.raises(EngineError):
            MonteCarlo(1)


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

    def test_closed_form_estimate_is_tight(self):
        est = ClosedForm().estimate(0.5)
        assert est.matches(0.5) and not est.matches(0.5 + 1e-6)
