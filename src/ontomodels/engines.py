"""Integration engines: closed form, sphere quadrature, Monte Carlo.

All statistical predictions of an ontological model are integrals over its
ontic space.  Three interchangeable engines evaluate them:

* ``ClosedForm`` handles point-supported epistemic states and models that
  supply an analytic response mean; results are exact to 1e-12.
* ``SphereQuadrature`` integrates over the unit 2-sphere with a product
  Gauss-Legendre (polar) x trapezoid/Gauss-Legendre (azimuth) rule.  Callers
  pass ``split_axes``, the unit normals of great circles across which the
  integrand is discontinuous or kinked; the rule splits its panels on those
  circles, so piecewise-smooth integrands converge at smooth-integrand rates.
  An axis names its circle up to sign and length, so repeats are dropped
  and each circle is built once.  A Born prediction builds one rule per
  measurement basis, split on the state's circles and every outcome's, and
  integrates all its outcomes on it.
  Its tolerance is 1e-6 at every level, so ``parse_engine`` accepts levels
  from ``QUAD_MIN_LEVEL`` up, the lowest that keeps the hemisphere integrals
  of ``ks`` inside it, to ``QUAD_MAX_LEVEL``: node memory grows as the
  square of the level, and ``verify --model ks`` peaks at 163 MB there.
* ``MonteCarlo`` averages a function, or k functions at once, over draws
  from a caller-supplied sampler.  Work is cut into fixed-size blocks, each
  fed by its own labeled stream, so totals are independent of how the
  blocks are scheduled and any single sample can be regenerated from
  (seed, labels, index): sample i is row ``i % MC_BLOCK`` of the batch the
  sampler draws from ``block_stream(i // MC_BLOCK, *labels)``.  A Born
  prediction draws one batch per measurement basis and scores all its
  outcomes on it, so sample i of a basis is row ``i % MC_BLOCK`` of the
  batch from its basis stream, labeled ("predict", model, state, basis).

Which engine evaluates which integral over an epistemic state is decided in
one place, ``framework._expect``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rng import DEFAULT_SEED, stream

MC_BLOCK = 1 << 16
QUAD_MIN_LEVEL = 15
QUAD_MAX_LEVEL = 257


def _block_sizes(n: int, block: int) -> list:
    """Sizes of the consecutive blocks that split n items: full blocks,
    then the remainder if any."""
    if n < 0:
        raise ValueError(f"cannot split a negative count {n} into blocks")
    full, rem = divmod(int(n), block)
    return [block] * full + ([rem] if rem else [])


class EngineError(ValueError):
    """Engine cannot evaluate the requested integral."""


@dataclass(frozen=True)
class Estimate:
    """Integral value with the uncertainty the engine grants it.

    ``tolerance`` is the half-width within which comparisons should accept:
    the engine's deterministic tolerance, or three standard errors for
    Monte Carlo.  ``stderr`` is None for deterministic engines.
    """

    value: float
    tolerance: float
    spec: str
    stderr: float | None = None


class ClosedForm:
    """Marker engine: integrals collapse to finite sums or analytic values."""

    spec = "closed"
    tolerance = 1e-12

    def estimate(self, value: float) -> Estimate:
        return Estimate(float(value), self.tolerance, self.spec)


@functools.lru_cache(maxsize=None)
def _gl(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1]; cached and shared by
    every caller, so read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _frame(axis: np.ndarray):
    """Right-handed orthonormal frame (e1, e2, axis)."""
    k = int(np.argmin(np.abs(axis)))
    a = np.zeros(3)
    a[k] = 1.0
    e1 = a - (a @ axis) * axis
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    return e1, e2, axis


def _graded(a: float, b: float, gap: float, at_b: bool) -> list:
    """Polar panel [a, b], cut geometrically toward the pole, which lies
    ``gap`` beyond b if ``at_b``, else beyond a.

    Every arc bound involves r = sqrt(1 - u^2), singular at the poles, so a
    panel ending much closer to a pole than its own width has a singularity
    just outside it, where Gauss-Legendre converges slowly: the lune of two
    axes 88.4 degrees apart (polar cap 3.5e-4 wide) came out 1.6e-5 off at
    level 6, and such lunes up to 5e-7 off at level 17.  Cuts at 8, 64, ...
    gaps from that end keep the pole at least 1/16 of a panel width away
    from every panel.  Panels whose gap is zero or 1/64 of their width or
    more are left whole.
    """
    width = b - a
    steps = []
    step = 8.0 * gap
    while 0.0 < gap < width / 64.0 and step < width / 2.0:
        steps.append(step)
        step *= 8.0
    if at_b:
        edges = [a] + [b - s for s in reversed(steps)] + [b]
    else:
        edges = [a] + [a + s for s in steps] + [b]
    return list(zip(edges[:-1], edges[1:]))


class SphereQuadrature:
    """Deterministic quadrature over the unit sphere.

    ``level`` is the polar Gauss-Legendre node count.  With no split axes
    the rule is a single panel in u = cos(theta) times a uniform periodic
    rule in azimuth, exact for spherical polynomials up to degree ``level``.
    With split axes, the polar range is split where arcs of the splitting
    circles appear or cross, each panel is mapped through a sin^2 change of
    variable (absorbing the square-root behavior an arc has where it is
    born), and the azimuth circle is split at the arc boundaries.  Panels
    that end much closer to a pole than their width are cut geometrically
    toward it (``_graded``).  Split axes name circles: an axis a is
    dropped when an earlier kept axis b names its circle, |a x b| <= 1e-12
    for the unit vectors whichever their signs, so a list with repeats
    gets the nodes of its distinct circles in first-occurrence order.
    """

    tolerance = 1e-6

    def __init__(self, level: int = 17):
        if level < 2:
            raise EngineError("quadrature level must be at least 2")
        self.level = int(level)

    @property
    def spec(self) -> str:
        return f"quad:{self.level}"

    def nodes(self, split_axes=()):
        """Quadrature points (N, 3) and weights (N,) summing to ~4pi, split
        on the distinct circles of ``split_axes``."""
        axes = []
        for a in split_axes:
            a = np.asarray(a, dtype=float)
            if not np.isfinite(a).all():
                raise EngineError("split axis must be a finite vector")
            n = np.linalg.norm(a)
            if n < 1e-12:
                raise EngineError("split axis must be a nonzero vector")
            a = a / n
            a = a / np.linalg.norm(a)
            if all(np.linalg.norm(np.cross(a, b)) > 1e-12 for b in axes):
                axes.append(a)
        if not axes:
            return self._smooth_nodes()
        return self._split_nodes(axes)

    def _smooth_nodes(self):
        xu, wu = _gl(self.level)
        n_az = 2 * self.level + 1
        phi = 2.0 * np.pi * np.arange(n_az) / n_az
        w_az = 2.0 * np.pi / n_az
        u = np.repeat(xu, n_az)
        ph = np.tile(phi, self.level)
        w = np.repeat(wu, n_az) * w_az
        s = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
        pts = np.stack([s * np.cos(ph), s * np.sin(ph), u], axis=1)
        return pts, w

    def _split_nodes(self, axes):
        e1, e2, pole = _frame(axes[0])
        # Axis k in frame coordinates: in-plane radius rho, polar component
        # az, in-plane azimuth phi0.  Its circle meets the latitude circle
        # at height u iff |az*u| < rho*sqrt(1-u^2), i.e. |u| < rho.
        others = []
        for a in axes[1:]:
            ax, ay, az = a @ e1, a @ e2, a @ pole
            rho = math.hypot(ax, ay)
            if rho > 1e-12:
                others.append((rho, az, math.atan2(ay, ax)))
        cuts = {-1.0, 0.0, 1.0}
        for rho, _, _ in others:
            cuts.add(rho)
            cuts.add(-rho)
        for j in range(len(axes)):
            for k in range(j + 1, len(axes)):
                c = np.cross(axes[j], axes[k])
                nc = np.linalg.norm(c)
                if nc > 1e-9:
                    h = float(c @ pole) / nc
                    cuts.add(h)
                    cuts.add(-h)
        grid = sorted(c for c in cuts if -1.0 <= c <= 1.0)
        panels = []
        for a, b in zip(grid[:-1], grid[1:]):
            if b - a > 1e-13:
                panels.append((a, b))
        panels = [
            p
            for a, b in panels
            for p in (_graded(a, b, 1.0 - b, True) if b > 0.0 else _graded(a, b, a + 1.0, False))
        ]

        n_u = 2 * self.level + 1
        xt, wt = _gl(n_u)
        t = 0.5 * (xt + 1.0)
        n_az = 2 * self.level + 1
        x_az, w_az = _gl(n_az)
        two_pi = 2.0 * np.pi

        # Latitude rows, panel-major.  u = a + (b-a) sin^2(pi t / 2):
        # endpoint derivatives vanish, so sqrt singularities at panel ends
        # become analytic.
        a, b = np.array(panels).T
        s2 = np.sin(0.5 * np.pi * t) ** 2
        u = (a[:, None] + (b - a)[:, None] * s2).ravel()
        du = (0.5 * (b - a) * (0.5 * np.pi))[:, None] * np.sin(np.pi * t)
        wu = (wt * du).ravel()
        r = np.sqrt(np.maximum(1.0 - u * u, 0.0))

        # Arc bounds: circle k crosses row u where amp > |off|, at azimuths
        # phi0 -/+ acos(off/amp).  math.acos, not np.arccos: the two differ
        # in the last bit on some inputs, and the nodes must not move.
        rho, az, phi0 = np.array(others, dtype=float).reshape(-1, 3).T
        amp = r[:, None] * rho
        off = u[:, None] * -az
        active = amp > np.abs(off) + 1e-15
        ratio = np.clip(off[active] / amp[active], -1.0, 1.0)
        half_arc = np.array([math.acos(x) for x in ratio.tolist()])
        phi0 = np.broadcast_to(phi0, active.shape)[active]
        bounds = np.full(active.shape + (2,), np.inf)
        bounds[active] = np.stack(
            [(phi0 - half_arc) % two_pi, (phi0 + half_arc) % two_pi], axis=1
        )
        bounds = np.sort(bounds.reshape(len(u), -1), axis=1)
        n_bounds = 2 * active.sum(axis=1)

        # Azimuth rule of each row: the uniform periodic rule without
        # bounds, else Gauss-Legendre on every arc between sorted bounds
        # (the last arc wraps through 2 pi).  Rows are scattered into flat
        # arrays at offsets from the cumulative row lengths.
        row_len = np.maximum(n_bounds, 1) * n_az
        start = np.cumsum(row_len) - row_len
        phi = np.empty(int(row_len.sum()))
        w = np.empty_like(phi)
        for c in np.unique(n_bounds).tolist():
            rows = np.flatnonzero(n_bounds == c)
            at = start[rows, None] + np.arange(max(c, 1) * n_az)
            if c == 0:
                phi[at] = two_pi * np.arange(n_az) / n_az
                w[at] = wu[rows, None] * (two_pi / n_az)
                continue
            lo = bounds[rows, :c]
            hi = np.roll(lo, -1, axis=1)
            hi[:, -1] += two_pi
            half = (0.5 * (hi - lo))[:, :, None]
            phi[at] = (lo[:, :, None] + half * (x_az + 1.0)).reshape(len(rows), -1)
            w[at] = wu[rows, None] * (w_az * half).reshape(len(rows), -1)

        # Build the (N, 3) points in place; the temporaries go before the
        # change of basis so they do not add to the peak.
        pts = np.empty((len(phi), 3))
        rr = np.repeat(r, row_len)
        np.cos(phi, out=pts[:, 0])
        pts[:, 0] *= rr
        np.sin(phi, out=pts[:, 1])
        pts[:, 1] *= rr
        pts[:, 2] = np.repeat(u, row_len)
        del phi, rr
        basis = np.stack([e1, e2, pole])
        return pts @ basis, w

    def integrate(self, f, split_axes=()):
        """Integral of f over the sphere w.r.t. solid angle.

        f(pts) returns N values, for one float, or an (N, k) array of k
        integrands on the same nodes, for a tuple of k floats.  Each column
        is reduced on its own contiguous copy, with the bits it would have
        as a 1-D integrand."""
        pts, w = self.nodes(split_axes)
        vals = np.asarray(f(pts), dtype=float)
        if vals.ndim == 1:
            return float(w @ vals)
        return tuple(float(w @ np.ascontiguousarray(c)) for c in vals.T)

    def estimate(self, f, split_axes=()):
        """Estimate of the integral, or a tuple of them for (N, k) f."""
        val = self.integrate(f, split_axes)
        if isinstance(val, tuple):
            return tuple(Estimate(v, self.tolerance, self.spec) for v in val)
        return Estimate(val, self.tolerance, self.spec)


class MonteCarlo:
    """Sample-mean engine over caller-supplied samplers.

    Draws are partitioned into fixed blocks of ``MC_BLOCK`` samples; block j
    of a given integral always uses the stream (seed, *labels, "block", j),
    so the result and every individual sample are reproducible regardless of
    evaluation order.
    """

    def __init__(self, n_samples: int, seed: int | None = None):
        if n_samples < 2:
            raise EngineError("Monte Carlo needs at least 2 samples")
        self.n_samples = int(n_samples)
        self.seed = DEFAULT_SEED if seed is None else int(seed)

    @property
    def spec(self) -> str:
        return f"mc:{self.n_samples}"

    def blocks(self):
        """(block_index, block_size) partition of n_samples."""
        return list(enumerate(_block_sizes(self.n_samples, MC_BLOCK)))

    def block_stream(self, j: int, *labels) -> np.random.Generator:
        return stream(self.seed, *labels, "block", j)

    def mean(self, sampler, f, *labels):
        """Estimate E[f(x)] for x ~ sampler.

        sampler(rng, m) must return a batch of m points.  f(batch) returns
        m values, for one Estimate, or an (m, k) array of k integrands on
        the same draws, for a tuple of k Estimates.  Both are expected to be
        vectorized.  Each column is reduced on its own, block by block, with
        the bits it would have as a 1-D integrand, and a block's values are
        freed before the next block is drawn.
        """
        sums = 0.0  # (k, 2): each column's sum and sum of squares
        for j, m in self.blocks():
            vals = np.asarray(f(sampler(self.block_stream(j, *labels), m)), dtype=float)
            if vals.ndim not in (1, 2) or vals.shape[0] != m:
                raise EngineError(
                    f"integrand returned shape {vals.shape}, expected ({m},) or ({m}, k)"
                )
            single = vals.ndim == 1
            sums = sums + np.array([(c.sum(), (c * c).sum()) for c in vals.reshape(m, -1).T])
            del vals
        n = self.n_samples
        ests = []
        for total, total_sq in sums.tolist():
            mean = total / n
            var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1)
            stderr = math.sqrt(var / n)
            ests.append(Estimate(mean, 3.0 * stderr, self.spec, stderr=stderr))
        return ests[0] if single else tuple(ests)


def sample_sphere(rng: np.random.Generator, m: int) -> np.ndarray:
    """m points uniform on the unit 2-sphere."""
    u = rng.uniform(-1.0, 1.0, size=m)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=m)
    r = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    return np.stack([r * np.cos(phi), r * np.sin(phi), u], axis=1)


def parse_engine(spec: str, *, seed: int | None = None):
    """Build an engine from a compact spec string.

    Accepted forms: "closed", "quad:<level>" with level from
    QUAD_MIN_LEVEL to QUAD_MAX_LEVEL, "mc:<n_samples>" with at least 2
    samples.
    """
    parts = str(spec).strip().split(":")
    name = parts[0]
    if name == "closed":
        if len(parts) != 1:
            raise EngineError(f"bad engine spec {spec!r}")
        return ClosedForm()
    if name == "quad":
        if len(parts) != 2:
            raise EngineError(f"bad engine spec {spec!r}")
        try:
            level = int(parts[1])
        except ValueError as exc:
            raise EngineError(f"bad engine spec {spec!r}") from exc
        if level < QUAD_MIN_LEVEL:
            raise EngineError(
                f"quadrature level {level} is below {QUAD_MIN_LEVEL}, the lowest "
                f"level held to the {SphereQuadrature.tolerance:g} tolerance"
            )
        if level > QUAD_MAX_LEVEL:
            raise EngineError(
                f"quadrature level {level} is above {QUAD_MAX_LEVEL}, the highest "
                f"level accepted (node memory grows as the square of the level)"
            )
        return SphereQuadrature(level)
    if name == "mc":
        if len(parts) != 2:
            raise EngineError(f"bad engine spec {spec!r}")
        try:
            n_samples = int(parts[1])
        except ValueError as exc:
            raise EngineError(f"bad engine spec {spec!r}") from exc
        return MonteCarlo(n_samples, seed=seed)
    raise EngineError(f"unknown engine {name!r}")
