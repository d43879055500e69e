"""Concrete ontological models.

Four fully implemented models:

* ``bb``   -- ontic state is the quantum state itself; response is the Born
  probability.  Reciprocal, indeterministic, noncontextual.
* ``ks``   -- d=2 only; ontic states are unit directions, the epistemic
  state is a cosine density on the hemisphere around the prepared state's
  direction, the response is the indicator of the outcome's hemisphere.
  Reciprocal, deterministic, noncontextual; preparation contextual.
* ``bell2`` -- d=2 only; ontic state is (quantum state, x in [0,1]); the
  first outcome of the ordered basis fires iff x is below its Born
  probability.  Nonreciprocal, deterministic, noncontextual under the
  pinned basis ordering.
* ``ws``   -- ontic state is (quantum state chi, auxiliary vector omega of
  independent standard complex Gaussians); outcome j of basis B fires iff
  the ratio |<b_j|chi>| / |<b_j|omega>| is the largest.  Nonreciprocal,
  deterministic, measurement contextual for d >= 3.

Three more (``aaronson``, ``bell1``, ``aerts``) ship as declared-only stubs
so summary tables can render every known row; they cannot be executed.

bell2 and ws score every outcome of a basis on one batch (``evaluate_all``):
bell2 from one threshold test, ws from one ratio argmax.  ws draws its
Gaussians and scores its ratios CHUNK_ROWS rows at a time, so a Monte Carlo
block needs no temporary of its own size; the bits are those of the
whole-batch computation.

Boundary conventions (all measure zero, chosen to make every response a
total function): hemisphere membership is strict; the bell2 threshold
resolves x = p toward the second outcome; ws ratio ties resolve to the
lowest index, a zero/zero ratio counts 0 and a nonzero/zero ratio counts
infinity.
"""

from __future__ import annotations

import math

import numpy as np

from .engines import _frame, sample_sphere
from .framework import (
    XI_TOL,
    DeclaredProperties,
    EpistemicState,
    MeasContext,
    OnticSpace,
    OntologicalModel,
    ResponseFunction,
    UnsupportedDimensionError,
    outcome_index,
    point_mass_tv,
    register,
    state_label,
)
from .hilbert import PureState, fidelity_rows, state_to_bloch


class UnknownModelError(ValueError):
    pass


def _haar(rng, m, d):
    v = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# Rows per chunk of a ws batch: 393 KB of complex amplitudes at d = 6, so a
# chunk's products and ratios stay in the L2 cache.
CHUNK_ROWS = 4096


def _chunks(m: int):
    """Row slices covering a batch of m rows, CHUNK_ROWS at a time.  A lone
    last row joins the chunk before it: numpy multiplies a one-row matrix
    by gemv, whose bits can differ from the gemm rows of a whole batch."""
    starts = list(range(0, m, CHUNK_ROWS))
    if m > 1 and m % CHUNK_ROWS == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [m])]


def _distinct_rows(chi: np.ndarray) -> np.ndarray:
    """chi, or its one row when chi is a zero-stride register: products
    with it are then computed once and broadcast over the batch."""
    return chi[:1] if chi.strides[0] == 0 else chi


def _decomposition_tv(da, db) -> float:
    """Total variation between the states two decompositions prepare, for
    the models whose ontic state holds the prepared state: each pure
    component is a point mass on its own state (or register value)."""
    return point_mass_tv(
        [(s, w) for w, s in da.components],
        [(s, w) for w, s in db.components],
    )


# ---------------------------------------------------------------------------
# bb: the quantum state itself is the ontic state


def make_bb(d: int = 2) -> OntologicalModel:
    if d < 2:
        raise UnsupportedDimensionError("bb needs dimension >= 2")

    space = OnticSpace(
        kind="ray",
        dim=d,
        reference_sampler=lambda rng, m: _haar(rng, m, d),
    )

    def prepare_pure(psi: PureState) -> EpistemicState:
        atoms = psi.amplitudes[None, :].copy()
        return EpistemicState(
            label=state_label(psi),
            support=lambda batch: fidelity_rows(batch, psi) > 1.0 - XI_TOL,
            sampler=lambda rng, m: register(psi, m),
            point_masses=(atoms, np.array([1.0])),
        )

    def evaluate(phi, batch, sm):
        return fidelity_rows(batch, phi)

    respond = ResponseFunction(
        evaluate=evaluate,
        core=lambda phi, batch, sm: fidelity_rows(batch, phi) > 1.0 - XI_TOL,
        support=lambda phi, batch, sm: fidelity_rows(batch, phi) > XI_TOL,
    )

    return OntologicalModel(
        name=f"bb:{d}",
        display_name="B-B",
        table_type="ontic-complete",
        ontic_space=space,
        prepare_pure=prepare_pure,
        respond=respond,
        declared=DeclaredProperties(
            reciprocal=True,
            outcome_deterministic=False,
            measurement_contextual=False,
            preparation_contextual=True,
            psi_dependent_response=True,
        ),
        prep_tv_closed=_decomposition_tv,
        default_engine_spec="closed",
    )


# ---------------------------------------------------------------------------
# ks: cosine density on the Bloch hemisphere, indicator response


def _bloch(s: PureState) -> np.ndarray:
    return state_to_bloch(s).as_array()


def make_ks() -> OntologicalModel:
    space = OnticSpace(
        kind="sphere2",
        dim=2,
        reference_sampler=sample_sphere,
        reference_mass=4.0 * math.pi,
    )

    def prepare_pure(psi: PureState) -> EpistemicState:
        n = _bloch(psi)
        e1, e2, _ = _frame(n)

        def sampler(rng, m):
            # Density (n.lam)/pi on the hemisphere: height above the
            # splitting plane has cdf u^2, azimuth is uniform.
            u = np.sqrt(1.0 - rng.random(m))
            phi = rng.uniform(0.0, 2.0 * math.pi, size=m)
            r = np.sqrt(1.0 - u * u)
            return (
                np.outer(u, n)
                + np.outer(r * np.cos(phi), e1)
                + np.outer(r * np.sin(phi), e2)
            )

        return EpistemicState(
            label=state_label(psi),
            support=lambda pts: pts @ n > 0.0,
            density=lambda pts: np.clip(pts @ n, 0.0, None) / math.pi,
            sampler=sampler,
            split_axes=(n,),
        )

    def evaluate(phi, pts, sm):
        return (pts @ _bloch(phi) > 0.0).astype(float)

    def member(phi, pts, sm):
        return pts @ _bloch(phi) > 0.0

    respond = ResponseFunction(
        evaluate=evaluate,
        core=member,
        support=member,
        split_axes=lambda phi, sm: (_bloch(phi),),
    )

    return OntologicalModel(
        name="ks",
        display_name="K-S",
        table_type="epistemic (d=2)",
        ontic_space=space,
        prepare_pure=prepare_pure,
        respond=respond,
        declared=DeclaredProperties(
            reciprocal=True,
            outcome_deterministic=True,
            measurement_contextual=False,
            preparation_contextual=True,
            psi_dependent_response=False,
        ),
        default_engine_spec="quad:17",
    )


# ---------------------------------------------------------------------------
# bell2: quantum state plus one uniform random number


def _bloch_key(s: PureState):
    return tuple(np.round(_bloch(s), 12))


def _ordered_pair(sm: MeasContext):
    payload = sm.payload
    if len(payload) != 2:
        raise ValueError("bell2 measurements are ordered qubit bases")
    b1, b2 = payload
    # Pinned convention: the lexicographically greater Bloch vector is
    # the thresholded outcome, making the response independent of the
    # order in which the basis was written down.
    if _bloch_key(b1) < _bloch_key(b2):
        b1, b2 = b2, b1
    return b1, b2


def make_bell2() -> OntologicalModel:
    space = OnticSpace(
        kind="composite",
        dim=2,
        reference_sampler=lambda rng, m: (_haar(rng, m, 2), rng.random(m)),
    )

    def prepare_pure(psi: PureState) -> EpistemicState:
        return EpistemicState(
            label=state_label(psi),
            support=lambda batch: fidelity_rows(batch[0], psi) > 1.0 - XI_TOL,
            sampler=lambda rng, m: (register(psi, m), rng.random(m)),
        )

    def decide(phi, batch, sm):
        chi, x = batch
        b1, b2 = _ordered_pair(sm)
        p1 = fidelity_rows(_distinct_rows(chi), b1)
        return x < p1 if outcome_index(phi, (b1, b2)) == 0 else x >= p1

    def evaluate_all(batch, sm):
        # One threshold test scores both outcomes, each column placed as
        # decide places it; the transpose keeps each column contiguous.
        chi, x = batch
        b1, b2 = _ordered_pair(sm)
        p1 = fidelity_rows(_distinct_rows(chi), b1)
        out = np.empty((2, x.shape[0]))
        first, second = x < p1, x >= p1
        for row, phi in zip(out, sm.payload):
            row[...] = first if outcome_index(phi, (b1, b2)) == 0 else second
        return out.T

    respond = ResponseFunction(
        evaluate=lambda phi, batch, sm: decide(phi, batch, sm).astype(float),
        core=decide,
        support=decide,
        evaluate_all=evaluate_all,
    )

    def closed_response_mean(psi, phi, sm):
        b1, b2 = _ordered_pair(sm)
        p1 = float(fidelity_rows(psi.amplitudes[None, :], b1)[0])
        return p1 if outcome_index(phi, (b1, b2)) == 0 else 1.0 - p1

    return OntologicalModel(
        name="bell2",
        display_name="Bell 2nd",
        table_type="ontic-supplem. (d=2)",
        ontic_space=space,
        prepare_pure=prepare_pure,
        respond=respond,
        declared=DeclaredProperties(
            reciprocal=False,
            outcome_deterministic=True,
            measurement_contextual=False,
            preparation_contextual=True,
            psi_dependent_response=True,
        ),
        closed_response_mean=closed_response_mean,
        prep_tv_closed=_decomposition_tv,
        default_engine_spec="mc:200000",
    )


# ---------------------------------------------------------------------------
# ws: quantum state plus a Gaussian auxiliary vector, ratio-argmax response


def make_ws(d: int = 3) -> OntologicalModel:
    if d < 2:
        raise UnsupportedDimensionError("ws needs dimension >= 2")

    def gauss(rng, m):
        # Bit for bit (normal + 1j * normal) / sqrt(2): numpy divides a
        # complex array by a real scalar as a multiplication by 1 / c, and
        # normal(0, 1) is 0 + 1 * standard_normal.  The real parts are
        # drawn first, then the imaginary parts, a chunk at a time into one
        # reused buffer, which consumes the stream as one draw would.
        out = np.empty((m, d), dtype=complex)
        buf = np.empty((min(m, CHUNK_ROWS + 1), d))  # the largest chunk
        for part in (out.real, out.imag):
            for rows in _chunks(m):
                z = buf[: rows.stop - rows.start]
                rng.standard_normal(out=z)
                np.multiply(z, 1.0 / math.sqrt(2.0), out=part[rows])
        return out

    space = OnticSpace(
        kind="composite",
        dim=d,
        reference_sampler=lambda rng, m: (_haar(rng, m, d), gauss(rng, m)),
    )

    def prepare_pure(psi: PureState) -> EpistemicState:
        return EpistemicState(
            label=state_label(psi),
            support=lambda batch: fidelity_rows(batch[0], psi) > 1.0 - XI_TOL,
            sampler=lambda rng, m: (register(psi, m), gauss(rng, m)),
        )

    def winner_index(batch, sm):
        if len(sm.payload) != d:
            raise ValueError("ws measurements are complete ordered bases")
        chi, omega = batch
        basis_h = np.stack([b.amplitudes for b in sm.payload]).conj().T
        win = np.empty(omega.shape[0], dtype=np.intp)
        for rows in _chunks(omega.shape[0]):
            a = np.abs(_distinct_rows(chi[rows]) @ basis_h)
            r = np.abs(omega[rows] @ basis_h)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(a, r, out=r)
            r[np.isnan(r)] = 0.0  # 0/0 counts as ratio 0
            np.argmax(r, axis=1, out=win[rows])  # ties and infinities: lowest index
        return win

    def decide(phi, batch, sm):
        return winner_index(batch, sm) == outcome_index(phi, sm.payload)

    def evaluate_all(batch, sm):
        # One argmax scores every outcome: a one-hot row per draw, the
        # transpose of a (d, m) array so each outcome's column is contiguous.
        return (np.arange(d)[:, None] == winner_index(batch, sm)).astype(float).T

    respond = ResponseFunction(
        evaluate=lambda phi, batch, sm: decide(phi, batch, sm).astype(float),
        core=decide,
        support=decide,
        evaluate_all=evaluate_all,
    )

    return OntologicalModel(
        name=f"ws:{d}",
        display_name="W-S",
        table_type="ontic-supplem.",
        ontic_space=space,
        prepare_pure=prepare_pure,
        respond=respond,
        declared=DeclaredProperties(
            reciprocal=False,
            outcome_deterministic=True,
            measurement_contextual=d >= 3,
            preparation_contextual=True,
            psi_dependent_response=True,
        ),
        prep_tv_closed=_decomposition_tv,
        default_engine_spec="mc:200000",
    )


# ---------------------------------------------------------------------------
# Declared-only stubs and the registry


def _stub(name, display, table_type, kind, *declared):
    """The build(dim) of a declared-only model on an ontic space of the
    given kind; declared holds the DeclaredProperties fields in order."""

    def unavailable(*args, **kwargs):
        raise NotImplementedError(f"model {name} ships as a declared-only stub")

    def build(dim) -> OntologicalModel:
        return OntologicalModel(
            name=name,
            display_name=display,
            table_type=table_type,
            ontic_space=OnticSpace(kind=kind, dim=dim, reference_sampler=unavailable),
            prepare_pure=unavailable,
            respond=ResponseFunction(
                evaluate=unavailable, core=unavailable, support=unavailable
            ),
            declared=DeclaredProperties(*declared),
            implemented=False,
        )

    return build


# In table order: name -> (build(dim), the one dimension it supports or
# None, default dimension).
_REGISTRY = {
    "bb": (make_bb, None, 2),
    "ks": (lambda d: make_ks(), 2, 2),
    "aaronson": (
        _stub("aaronson", "Aaronson", "ontic-supplem.", "composite",
              True, False, True, True, True),
        2, 2,
    ),
    "bell1": (
        _stub("bell1", "Bell 1st", "ontic-supplem.", "composite",
              False, True, True, True, True),
        2, 2,
    ),
    "bell2": (lambda d: make_bell2(), 2, 2),
    "aerts": (
        _stub("aerts", "Aerts", "ontic-complete (d=2)", "ray",
              True, False, False, True, True),
        2, 2,
    ),
    "ws": (make_ws, None, 3),
}

TABLE_ORDER = tuple(_REGISTRY)


def get_model(spec: str) -> OntologicalModel:
    """Resolve a registry name like "ks", "bb:3", or "ws:4"."""
    parts = str(spec).strip().split(":")
    if parts[0] not in _REGISTRY or len(parts) > 2:
        raise UnknownModelError(f"unknown model {spec!r}")
    build, fixed, dim = _REGISTRY[parts[0]]
    if len(parts) == 2:
        try:
            dim = int(parts[1])
        except ValueError:
            raise UnknownModelError(f"unknown model {spec!r}") from None
    if fixed is not None and dim != fixed:
        raise UnsupportedDimensionError(
            f"model {parts[0]} is defined for dimension {fixed} only"
        )
    if dim < 2:
        raise UnsupportedDimensionError("dimension must be at least 2")
    return build(dim)


def table_models() -> list:
    """The seven summary-table models in TABLE_ORDER; the models defined in
    every dimension sit at d = 3, where their claims need it."""
    return [get_model(n if _REGISTRY[n][1] else f"{n}:3") for n in TABLE_ORDER]
