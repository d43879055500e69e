"""Finite-dimensional quantum state arithmetic.

Pure states, projectors, density operators, convex decompositions, Born
probabilities and the d=2 Bloch-sphere correspondence.  Everything is
immutable and phase-insensitive: two amplitude vectors that differ by a
global phase describe the same ray and compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ATOL = 1e-12


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class PureState:
    """Unit vector of complex amplitudes in dimension d >= 2."""

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.shape[0] < 2:
            raise ValueError("state needs at least 2 amplitudes")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm2 - 1.0) <= 1e-10:  # also rejects NaN
            raise ValueError(f"state not normalized: |psi|^2 = {norm2!r}")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def inner(self, other: "PureState") -> complex:
        """<self|other>."""
        _check_dims(self, other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def same_ray(self, other: "PureState", atol: float = ATOL) -> bool:
        """Equality up to global phase: |<a|b>| = 1 within atol."""
        return abs(abs(self.inner(other)) - 1.0) <= atol

    def projector_matrix(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def __repr__(self):
        entries = ", ".join(f"{a:.6g}" for a in self.amplitudes)
        return f"PureState([{entries}])"


def state(*amplitudes) -> PureState:
    """Build a PureState, normalizing the given amplitudes."""
    amps = np.asarray(amplitudes, dtype=complex).ravel()
    n = np.linalg.norm(amps)
    if n == 0:
        raise ValueError("zero vector is not a state")
    return PureState(amps / n)


def basis_state(dim: int, k: int) -> PureState:
    amps = np.zeros(dim, dtype=complex)
    amps[k] = 1.0
    return PureState(amps)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError("density operator must be a d x d matrix, d >= 2")
        if not np.allclose(m, m.conj().T, atol=1e-10):
            raise ValueError("density operator must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise ValueError("density operator must have unit trace")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise ValueError("density operator must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def close_to(self, other: "DensityOperator", atol: float = ATOL) -> bool:
        return self.dim == other.dim and bool(
            np.max(np.abs(self.matrix - other.matrix)) <= atol
        )


@dataclass(frozen=True)
class Decomposition:
    """Convex mixture of pure states: list of (weight, state)."""

    components: tuple

    def __post_init__(self):
        comps = tuple((float(w), s) for w, s in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("decomposition needs at least one component")
        dims = {s.dim for _, s in comps}
        if len(dims) != 1:
            raise DimensionMismatchError("mixed dimensions in decomposition")
        if any(w < -ATOL for w, _ in comps):
            raise ValueError("negative weight in decomposition")
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")

    @property
    def dim(self) -> int:
        return self.components[0][1].dim


@dataclass(frozen=True)
class BlochVector:
    """Unit vector on the Bloch sphere (pure d=2 states)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        r2 = self.x**2 + self.y**2 + self.z**2
        if abs(r2 - 1.0) > 1e-10:
            raise ValueError("Bloch vector of a pure state must have unit norm")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def _check_dims(a, b):
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


def fidelity_rows(rows, s: PureState) -> np.ndarray:
    """|<row|s>|^2 for each row of a complex (m, d) amplitude batch.

    born_probability routes through this same kernel so that batched
    model responses and per-pair Born targets agree bit for bit.
    """
    return np.abs(np.asarray(rows).conj() @ s.amplitudes) ** 2


def born_probability(phi: PureState, psi: PureState) -> float:
    """|<phi|psi>|^2, the quantum probability of passing the phi-filter."""
    _check_dims(phi, psi)
    return float(fidelity_rows(phi.amplitudes[None, :], psi)[0])


def mix(decomp: Decomposition) -> DensityOperator:
    """Sum of w_k |psi_k><psi_k| over the decomposition."""
    m = np.zeros((decomp.dim, decomp.dim), dtype=complex)
    for w, s in decomp.components:
        m += w * s.projector_matrix()
    return DensityOperator(m)


def state_to_bloch(psi: PureState) -> BlochVector:
    """Bloch image of a d=2 state; |0> maps to the north pole (0,0,1)."""
    if psi.dim != 2:
        raise DimensionMismatchError("Bloch correspondence requires dim 2")
    a0, a1 = psi.amplitudes
    return BlochVector(
        x=float(2.0 * (np.conj(a0) * a1).real),
        y=float(2.0 * (np.conj(a0) * a1).imag),
        z=float(abs(a0) ** 2 - abs(a1) ** 2),
    )


def complete_basis(phi: PureState) -> tuple:
    """Deterministically extend phi to an ordered orthonormal basis.

    Gram-Schmidt against the standard basis, skipping directions already
    spanned; the result is a pure function of phi's ray.
    """
    d = phi.dim
    vecs = [phi.amplitudes.copy()]
    for k in range(d):
        if len(vecs) == d:
            break
        cand = np.zeros(d, dtype=complex)
        cand[k] = 1.0
        for v in vecs:
            cand = cand - np.vdot(v, cand) * v
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            vecs.append(cand / norm)
    return tuple(PureState(v) for v in vecs)


def random_state(dim: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))
