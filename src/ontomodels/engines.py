"""Integration engines: closed form, sphere quadrature, Monte Carlo.

All statistical predictions of an ontological model are integrals over its
ontic space.  Three interchangeable engines evaluate them:

* ``ClosedForm`` handles point-supported epistemic states and models that
  supply an analytic response mean; results are exact.
* ``SphereQuadrature`` integrates over the unit 2-sphere with a product
  Gauss-Legendre (polar) x trapezoid/Gauss-Legendre (azimuth) rule.  Callers
  pass ``split_axes``, the unit normals of great circles across which the
  integrand is discontinuous or kinked; the rule splits its panels on those
  circles, so piecewise-smooth integrands converge at smooth-integrand rates.
* ``MonteCarlo`` averages a function over draws from a caller-supplied
  sampler.  Work is cut into fixed-size blocks, each fed by its own labeled
  stream, so totals are independent of how the blocks are scheduled and any
  single sample can be regenerated from (seed, labels, index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import DEFAULT_SEED, stream

MC_BLOCK = 1 << 16


def _block_sizes(n: int, block: int) -> list:
    """Sizes of the consecutive blocks that split n items: full blocks,
    then the remainder if any."""
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

    def matches(self, target: float) -> bool:
        return abs(self.value - target) <= self.tolerance


class ClosedForm:
    """Marker engine: integrals collapse to finite sums or analytic values."""

    kind = "closed"
    spec = "closed"

    def __init__(self, tolerance: float = 1e-12):
        self.tolerance = float(tolerance)

    def estimate(self, value: float) -> Estimate:
        return Estimate(float(value), self.tolerance, self.spec)


def _gl(n: int):
    return np.polynomial.legendre.leggauss(n)


def _frame(axis: np.ndarray):
    """Right-handed orthonormal frame (e1, e2, axis)."""
    k = int(np.argmin(np.abs(axis)))
    a = np.zeros(3)
    a[k] = 1.0
    e1 = a - (a @ axis) * axis
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    return e1, e2, axis


class SphereQuadrature:
    """Deterministic quadrature over the unit sphere.

    ``level`` is the polar Gauss-Legendre node count.  With no split axes
    the rule is a single panel in u = cos(theta) times a uniform periodic
    rule in azimuth, exact for spherical polynomials up to degree ``level``.
    With split axes, the polar range is split where arcs of the splitting
    circles appear or cross, each panel is mapped through a sin^2 change of
    variable (absorbing the square-root behavior an arc has where it is
    born), and the azimuth circle is split at the arc boundaries.
    """

    kind = "quad"

    def __init__(self, level: int = 17, tolerance: float = 1e-6):
        if level < 2:
            raise EngineError("quadrature level must be at least 2")
        self.level = int(level)
        self.tolerance = float(tolerance)

    @property
    def spec(self) -> str:
        return f"quad:{self.level}"

    def nodes(self, split_axes=()):
        """Quadrature points (N, 3) and weights (N,) summing to ~4pi."""
        axes = [np.asarray(a, dtype=float) for a in split_axes]
        for a in axes:
            n = np.linalg.norm(a)
            if n < 1e-12:
                raise EngineError("split axis must be a nonzero vector")
            a /= n
        axes = [a / np.linalg.norm(a) for a in axes]
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

        n_u = 2 * self.level + 1
        xt, wt = _gl(n_u)
        t = 0.5 * (xt + 1.0)
        n_az = 2 * self.level + 1
        x_az, w_az = _gl(n_az)

        all_pts, all_w = [], []
        for a, b in panels:
            # u = a + (b-a) sin^2(pi t / 2): endpoint derivatives vanish,
            # so sqrt singularities at panel ends become analytic.
            s2 = np.sin(0.5 * np.pi * t) ** 2
            u_nodes = a + (b - a) * s2
            du = 0.5 * (b - a) * (0.5 * np.pi) * np.sin(np.pi * t)
            for u, wu in zip(u_nodes, wt * du):
                r = math.sqrt(max(1.0 - u * u, 0.0))
                bounds = []
                for rho, az, phi0 in others:
                    amp = r * rho
                    off = -az * u
                    if amp > abs(off) + 1e-15:
                        w = math.acos(min(max(off / amp, -1.0), 1.0))
                        bounds.append((phi0 - w) % (2.0 * np.pi))
                        bounds.append((phi0 + w) % (2.0 * np.pi))
                if not bounds:
                    phi = 2.0 * np.pi * np.arange(n_az) / n_az
                    wphi = np.full(n_az, 2.0 * np.pi / n_az)
                else:
                    bounds.sort()
                    phi_parts, w_parts = [], []
                    for i, lo in enumerate(bounds):
                        hi = bounds[(i + 1) % len(bounds)]
                        if i + 1 == len(bounds):
                            hi += 2.0 * np.pi
                        half = 0.5 * (hi - lo)
                        phi_parts.append(lo + half * (x_az + 1.0))
                        w_parts.append(np.full(n_az, 0.0) + w_az * half)
                    phi = np.concatenate(phi_parts)
                    wphi = np.concatenate(w_parts)
                pts = np.stack(
                    [r * np.cos(phi), r * np.sin(phi), np.full(phi.shape, u)],
                    axis=1,
                )
                all_pts.append(pts)
                all_w.append(wu * wphi)
        pts = np.concatenate(all_pts)
        w = np.concatenate(all_w)
        basis = np.stack([e1, e2, pole])
        return pts @ basis, w

    def integrate(self, f, split_axes=()) -> float:
        """Integral of f over the sphere w.r.t. solid angle."""
        pts, w = self.nodes(split_axes)
        vals = np.asarray(f(pts), dtype=float)
        return float(w @ vals)

    def estimate(self, f, split_axes=()) -> Estimate:
        return Estimate(self.integrate(f, split_axes), self.tolerance, self.spec)


class MonteCarlo:
    """Sample-mean engine over caller-supplied samplers.

    Draws are partitioned into fixed blocks of ``MC_BLOCK`` samples; block j
    of a given integral always uses the stream (seed, *labels, "block", j),
    so the result and every individual sample are reproducible regardless of
    evaluation order.
    """

    kind = "mc"

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

    def mean(self, sampler, f, *labels) -> Estimate:
        """Estimate E[f(x)] for x ~ sampler.

        sampler(rng, m) must return a batch of m points; f(batch) must
        return m values.  Both are expected to be vectorized.
        """
        total = 0.0
        total_sq = 0.0
        n = 0
        for j, m in self.blocks():
            vals = np.asarray(f(sampler(self.block_stream(j, *labels), m)), dtype=float)
            if vals.shape != (m,):
                raise EngineError(f"integrand returned shape {vals.shape}, expected ({m},)")
            total += float(vals.sum())
            total_sq += float((vals * vals).sum())
            n += m
        mean = total / n
        var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1)
        stderr = math.sqrt(var / n)
        return Estimate(mean, 3.0 * stderr, self.spec, stderr=stderr)

    def sample_at(self, index: int, sampler, *labels):
        """Regenerate the single sample with the given flat index."""
        if not 0 <= index < self.n_samples:
            raise EngineError(f"sample index {index} out of range")
        j, off = divmod(index, MC_BLOCK)
        m = min(MC_BLOCK, self.n_samples - j * MC_BLOCK)
        batch = sampler(self.block_stream(j, *labels), m)
        if isinstance(batch, tuple):
            return tuple(np.asarray(part)[off] for part in batch)
        return np.asarray(batch)[off]


def sample_sphere(rng: np.random.Generator, m: int) -> np.ndarray:
    """m points uniform on the unit 2-sphere."""
    u = rng.uniform(-1.0, 1.0, size=m)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=m)
    r = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    return np.stack([r * np.cos(phi), r * np.sin(phi), u], axis=1)


def parse_engine(spec: str, *, seed: int | None = None):
    """Build an engine from a compact spec string.

    Accepted forms: "closed", "quad:<level>", "mc:<n_samples>".
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
            return SphereQuadrature(int(parts[1]))
        except ValueError as exc:
            raise EngineError(f"bad engine spec {spec!r}") from exc
    if name == "mc":
        if len(parts) != 2:
            raise EngineError(f"bad engine spec {spec!r}")
        try:
            return MonteCarlo(int(parts[1]), seed=seed)
        except ValueError as exc:
            raise EngineError(f"bad engine spec {spec!r}") from exc
    raise EngineError(f"unknown engine {name!r}")
