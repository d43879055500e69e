"""Ontological models of a single quantum system, and their classification.

An ontological model supplies three things: a space of ontic states, an
epistemic state (a distribution over ontic states) for every preparation,
and a response function giving outcome probabilities for every projective
measurement.  The model reproduces quantum mechanics when response averaged
over epistemic state equals the Born probability for every pair.

This module defines those objects and the checks that classify a model:

* Born reproduction, quantum certainty, and the support chain
  (preparation support inside response core inside response support);
* reciprocity (preparation support equals response core) and outcome
  determinism (core equals support, response two-valued);
* deficiency, derived as the failure of reciprocity or of determinism;
* overlap fractions and maximal psi-epistemicity (every overlap fraction
  equal to 1, which holds exactly when the model is reciprocal and
  deterministic), plus the corollary that such a model must be
  measurement-noncontextual;
* measurement/preparation contextuality probes and functional dependence
  of the response on the prepared state;
* the d >= 3 consistency check: no model may classify as both outcome
  deterministic and measurement noncontextual there.

Classification is falsification-based: models declare their properties and
the probes hunt for counterexamples within a trial budget.  A declared-true
property with no counterexample is ConfirmedAnalytic (the declaration is an
analytic claim the budget failed to break); a counterexample always yields
a replayable witness; a declared-false property the budget could not break
is reported NotFalsified, never silently promoted.

Conventions: all set predicates use strict inequalities, so measure-zero
boundary points (a state exactly on a splitting circle, a threshold hit
exactly) resolve deterministically but carry no probability.  Pointwise
response checks use tolerance 1e-9; exact representations use 1e-12.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .engines import (
    MC_BLOCK,
    ClosedForm,
    EngineError,
    Estimate,
    MonteCarlo,
    SphereQuadrature,
    _block_sizes,
    parse_engine,
)
from .hilbert import (
    Decomposition,
    DensityOperator,
    DimensionMismatchError,
    PureState,
    born_probability,
    complete_basis,
    fidelity_rows,
    mix,
    random_state,
)
from .reports import canonical_json
from .rng import DEFAULT_SEED, stream

XI_TOL = 1e-9
EXACT_TOL = 1e-12

PREDICATES = (
    "reciprocity",
    "outcome_determinism",
    "measurement_noncontextuality",
    "preparation_noncontextuality",
    "response_state_independence",
)


class UnsupportedDimensionError(ValueError):
    pass


class OrthogonalPairError(ValueError):
    """Overlap fraction is undefined for orthogonal pairs."""


class PreparationMismatchError(ValueError):
    """Two preparation contexts do not mix to the same density operator."""


class ModelConsistencyError(RuntimeError):
    """A structural theorem failed on a model: implementation bug."""


# ---------------------------------------------------------------------------
# Core types


@dataclass(frozen=True)
class OnticSpace:
    """Space of ontic states with a fixed reference measure.

    dim is the Hilbert-space dimension of the model's states and
    measurements, whatever the kind.  kind says what a point is and
    where, if anywhere, it holds the prepared state:

    * "ray": a unit vector of the Hilbert space under Haar probability;
      the ontic state is the prepared state itself.
    * "composite": a tuple batch whose first part is a state register of
      unit vectors and whose remaining parts are auxiliary, under the
      product measure; the register holds the prepared state.
    * "sphere2": a unit direction under the solid-angle measure
      (reference_mass 4 pi); no register.
    * "finite": an atom index 0..n-1 under the counting measure
      (reference_mass n); no register.

    reference_sampler(rng, m) draws m points from the normalized
    reference distribution.
    """

    kind: str
    dim: int
    reference_sampler: object = field(repr=False)
    reference_mass: float = 1.0


@dataclass(frozen=True)
class PrepContext:
    """Preparation procedure label plus model-facing payload.

    For mixed-state preparations the payload is the Decomposition the
    procedure realizes; pure preparations carry no payload.
    """

    label: str
    payload: object = None


@dataclass(frozen=True)
class MeasContext:
    """Measurement procedure: an ordered orthonormal basis as payload."""

    label: str
    payload: tuple = ()


@dataclass(frozen=True)
class EpistemicState:
    """Distribution over ontic states produced by one preparation, on the
    preparing model's ontic space.

    Exactly one representation is primary: a density w.r.t. that space's
    reference measure, or an explicit point-mass list (atoms, weights).
    A sampler and an analytic support predicate are always present.
    split_axes are smoothness hints for sphere quadrature: unit normals
    of circles bounding the support.
    """

    label: str
    support: object = field(repr=False)
    density: object = field(default=None, repr=False)
    sampler: object = field(default=None, repr=False)
    point_masses: tuple | None = None  # (atoms_batch, weights)
    split_axes: tuple = ()


@dataclass(frozen=True)
class ResponseFunction:
    """Outcome probabilities as a function of the ontic state.

    evaluate(outcome, batch, sm) -> floats in [0,1];
    core(outcome, batch, sm) -> bools, analytic membership in {xi = 1};
    support(outcome, batch, sm) -> bools, analytic membership in {xi > 0}.
    All three are vectorized over the batch.  split_axes(outcome, sm)
    returns sphere-quadrature hints where applicable.  Whether evaluate
    can read the prepared state follows from the ontic space's kind.
    evaluate_all(batch, sm), if given, returns the (m, d) values of every
    outcome of sm in basis order, equal to evaluate column by column.
    """

    evaluate: object = field(repr=False)
    core: object = field(repr=False)
    support: object = field(repr=False)
    split_axes: object = field(default=None, repr=False)
    evaluate_all: object = field(default=None, repr=False)

    def evaluate_basis(self, batch, sm) -> np.ndarray:
        """(m, d) values of every outcome of sm on one batch:
        evaluate_all, or evaluate stacked outcome by outcome."""
        if self.evaluate_all is not None:
            return self.evaluate_all(batch, sm)
        return np.stack(
            [np.asarray(self.evaluate(phi, batch, sm), dtype=float) for phi in sm.payload],
            axis=1,
        )


@dataclass(frozen=True)
class DeclaredProperties:
    """Analytic property claims the classifier tries to falsify."""

    reciprocal: bool
    outcome_deterministic: bool
    measurement_contextual: bool
    preparation_contextual: bool
    psi_dependent_response: bool

    def claims(self) -> dict:
        """{predicate: claimed to hold}, in PREDICATES order.  The only code
        that maps a field to its predicate and says which way round it goes."""
        return {
            "reciprocity": self.reciprocal,
            "outcome_determinism": self.outcome_deterministic,
            "measurement_noncontextuality": not self.measurement_contextual,
            "preparation_noncontextuality": not self.preparation_contextual,
            "response_state_independence": not self.psi_dependent_response,
        }


def table_cells(holds: dict) -> dict:
    """The summary table's yes/no cells from {predicate: holds}."""
    def yes(flag):
        return "yes" if flag else "no"

    return {
        "reciprocity": yes(holds["reciprocity"]),
        "determinism": yes(holds["outcome_determinism"]),
        "contextual": yes(not holds["measurement_noncontextuality"]),
    }


@dataclass(frozen=True)
class OntologicalModel:
    name: str
    display_name: str
    table_type: str
    ontic_space: OnticSpace
    prepare_pure: object = field(repr=False)
    respond: ResponseFunction = field(repr=False)
    declared: DeclaredProperties = field(repr=False)
    closed_response_mean: object = field(default=None, repr=False)
    prep_tv_closed: object = field(default=None, repr=False)
    default_engine_spec: str = "closed"
    implemented: bool = True

    @property
    def dim(self) -> int:
        return self.ontic_space.dim

    def check_dim(self, d: int):
        if d != self.dim:
            raise UnsupportedDimensionError(
                f"model {self.name} does not support dimension {d}"
            )

    def prepare(self, psi: PureState) -> EpistemicState:
        """Epistemic state for a pure state.  Mixed preparations are read
        only by ``prep_context_distance``, which prepares each component."""
        if not isinstance(psi, PureState):
            raise TypeError("prepare expects a PureState")
        self.check_dim(psi.dim)
        return self.prepare_pure(psi)


# ---------------------------------------------------------------------------
# Batch plumbing.  A batch is an (m, ...) array, or a tuple of such arrays
# for composite spaces; all model callables are vectorized over batches.


def register(psi: PureState, m: int) -> np.ndarray:
    """m rows of psi's amplitudes, the state register of a prepared point
    mass: a read-only zero-stride view."""
    return np.broadcast_to(psi.amplitudes, (m, psi.dim))


def batch_take(batch, idx):
    """Batch holding only the selected rows (idx may be scalar or array)."""
    sel = np.atleast_1d(idx)
    if isinstance(batch, tuple):
        return tuple(part[sel] for part in batch)
    return batch[sel]


def _jsonable_array(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return {"re": a.real.tolist(), "im": a.imag.tolist()}
    return a.tolist()


def point_to_jsonable(batch_row):
    """Serialize a batch of one point for storage in a witness."""
    if isinstance(batch_row, tuple):
        return [_jsonable_array(p) for p in batch_row]
    return _jsonable_array(batch_row)


def state_label(psi: PureState) -> str:
    amps = np.round(np.asarray(psi.amplitudes, dtype=complex), 12) + 0.0
    return "s" + hashlib.sha256(amps.tobytes()).hexdigest()[:12]


def measurement_of(phi: PureState, label: str | None = None) -> MeasContext:
    """Default measurement context: phi completed to an ordered basis."""
    basis = complete_basis(phi)
    return MeasContext(label or ("meas:" + state_label(phi)), basis)


def point_mass_tv(pm_a, pm_b) -> float:
    """Total variation between two lists of (PureState, weight) atoms.

    Atoms are matched by ray equality; unmatched mass counts in full.
    """
    def merge(pm):
        out = []
        for s, w in pm:
            for i, (t, v) in enumerate(out):
                if s.same_ray(t, atol=1e-10):
                    out[i] = (t, v + w)
                    break
            else:
                out.append((s, w))
        return out

    a, b = merge(pm_a), merge(pm_b)
    used = [False] * len(b)
    tv = 0.0
    for s, w in a:
        for i, (t, v) in enumerate(b):
            if not used[i] and s.same_ray(t, atol=1e-10):
                used[i] = True
                tv += abs(w - v)
                break
        else:
            tv += w
    tv += sum(v for i, (_, v) in enumerate(b) if not used[i])
    return 0.5 * tv


# ---------------------------------------------------------------------------
# Prediction and Born verification


def _expect(model, mu: EpistemicState, f, engine, axes, *labels) -> Estimate:
    """E_mu[f], the one place an engine is matched to an epistemic state:
    an exact sum over point masses (stderr 0 under Monte Carlo), sphere
    quadrature of f times the density split on ``axes``, or a Monte Carlo
    mean over the state's sampler on the stream named by ``labels``.  All
    three give a tuple of estimates when f returns one column per
    integrand, each column reduced on its own with the bits it has as a
    1-D integrand; quadrature multiplies each column by the density."""
    if mu.point_masses is not None:
        atoms, weights = mu.point_masses
        vals = np.asarray(f(atoms), dtype=float)
        stderr = 0.0 if isinstance(engine, MonteCarlo) else None
        ests = tuple(
            Estimate(float(weights @ np.ascontiguousarray(c)), EXACT_TOL, engine.spec, stderr)
            for c in vals.reshape(len(weights), -1).T
        )
        return ests if vals.ndim == 2 else ests[0]
    if isinstance(engine, SphereQuadrature):
        if model.ontic_space.kind != "sphere2" or mu.density is None:
            raise EngineError(
                f"sphere quadrature cannot integrate {model.name} states"
            )
        return engine.estimate(
            lambda pts: (np.asarray(f(pts), dtype=float).T * mu.density(pts)).T, axes
        )
    if isinstance(engine, MonteCarlo):
        if mu.sampler is None:
            raise EngineError(f"model {model.name} states expose no sampler")
        return engine.mean(mu.sampler, f, *labels)
    raise EngineError(f"engine {engine.spec} cannot integrate {model.name} states")


def outcome_index(phi: PureState, payload) -> int:
    """Position of the outcome phi in an ordered basis, up to phase."""
    for i, b in enumerate(payload):
        if b.dim == phi.dim and fidelity_rows(phi.amplitudes[None, :], b)[0] > 1.0 - XI_TOL:
            return i
    raise ValueError("outcome state is not an element of the measurement basis")


def predict_basis(model: OntologicalModel, psi: PureState, sm: MeasContext, engine) -> tuple:
    """The model's prediction for every outcome of sm after preparing psi,
    in basis order: the response averaged over the epistemic state.

    One ``_expect`` call scores the whole basis on one set of ontic states
    (``ResponseFunction.evaluate_basis``): the state's point masses, one
    Monte Carlo batch on the stream ("predict", model, state, basis), or
    one quadrature rule split on the state's axes and every outcome's.
    Only a closed-form engine on a state without point masses goes
    outcome by outcome, through the model's ``closed_response_mean``."""
    if any(b.dim != psi.dim for b in sm.payload):
        raise DimensionMismatchError("prepared and measured dims differ")
    mu = model.prepare(psi)
    if isinstance(engine, ClosedForm) and mu.point_masses is None:
        if model.closed_response_mean is None:
            raise EngineError(f"model {model.name} has no closed-form response mean")
        return tuple(
            engine.estimate(model.closed_response_mean(psi, phi, sm)) for phi in sm.payload
        )
    split = model.respond.split_axes
    axes = tuple(mu.split_axes) + (
        tuple(a for phi in sm.payload for a in split(phi, sm)) if split else ()
    )
    return _expect(
        model, mu, lambda batch: model.respond.evaluate_basis(batch, sm), engine, axes,
        "predict", model.name, mu.label, sm.label,
    )


def predict_probability(
    model: OntologicalModel,
    psi: PureState,
    phi: PureState,
    sm: MeasContext | None,
    engine,
) -> Estimate:
    """The model's prediction for preparing psi and asking for outcome phi
    of sm, an element of its basis (by default phi completed to a basis):
    the matching entry of ``predict_basis``."""
    if sm is None:
        sm = measurement_of(phi)
    i = outcome_index(phi, sm.payload)
    return predict_basis(model, psi, sm, engine)[i]


@dataclass(frozen=True)
class PairDeviation:
    psi_label: str
    phi_label: str
    basis_label: str
    predicted: float
    born: float
    deviation: float
    tolerance: float
    stderr: float | None = None

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance

    def to_jsonable(self) -> dict:
        """The pair's report row.  A Monte Carlo row adds its standard error
        and z = (predicted - born) / stderr, null when stderr is 0 (an exact
        sum over point masses)."""
        row = {
            "psi": self.psi_label,
            "phi": self.phi_label,
            "basis": self.basis_label,
            "predicted": self.predicted,
            "born": self.born,
            "deviation": self.deviation,
            "tolerance": self.tolerance,
        }
        if self.stderr is not None:
            row["stderr"] = self.stderr
            row["z"] = (self.predicted - self.born) / self.stderr if self.stderr else None
        return row


@dataclass(frozen=True)
class BornReport:
    model: str
    engine_spec: str
    deviations: tuple
    n_pairs: int

    @property
    def max_deviation(self) -> float:
        return max(d.deviation for d in self.deviations)

    @property
    def passed(self) -> bool:
        return all(d.passed for d in self.deviations)

    def to_jsonable(self) -> dict:
        return {
            "model": self.model,
            "engine": self.engine_spec,
            "n_pairs": self.n_pairs,
            "max_deviation": self.max_deviation,
            "passed": self.passed,
            "pairs": [d.to_jsonable() for d in self.deviations],
        }


def _born_report(model, pairs, engine) -> BornReport:
    """Deviation from the Born probability for every outcome of every
    (state, measurement context) pair."""
    devs = []
    for psi, sm in pairs:
        for phi, est in zip(sm.payload, predict_basis(model, psi, sm, engine)):
            target = born_probability(phi, psi)
            devs.append(
                PairDeviation(
                    psi_label=state_label(psi),
                    phi_label=state_label(phi),
                    basis_label=sm.label,
                    predicted=est.value,
                    born=target,
                    deviation=abs(est.value - target),
                    tolerance=est.tolerance,
                    stderr=est.stderr,
                )
            )
    return BornReport(model.name, engine.spec, tuple(devs), len(devs))


def verify_born(model, states, bases, engine) -> BornReport:
    """Compare model predictions to Born probabilities.

    Every state is paired with every basis, and every outcome of the basis
    is checked.  Pass requires each deviation below the engine tolerance
    (three standard errors for Monte Carlo).
    """
    if not states or not bases:
        raise ValueError("verify_born needs non-empty state and basis lists")
    return _born_report(model, [(psi, sm) for psi in states for sm in bases], engine)


def random_born_suite(dim: int, n_pairs: int, seed: int):
    """n_pairs independent (state, measurement-basis) pairs for Born checks."""
    states, bases = [], []
    for t in range(n_pairs):
        g = stream(seed, "born-suite", dim, t)
        states.append(random_state(dim, g))
        bases.append(measurement_of(random_state(dim, g), f"rand:{t}"))
    return states, bases


def born_suite_pairs(model, n_pairs, seed, engine) -> BornReport:
    """verify_born over n_pairs independently drawn (psi, basis) pairs."""
    states, bases = random_born_suite(model.dim, n_pairs, seed)
    return _born_report(model, zip(states, bases), engine)


# ---------------------------------------------------------------------------
# Sampled checks: quantum certainty and the support chain


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    n_samples: int
    witness: dict | None = None

    def to_jsonable(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "n_samples": self.n_samples,
            "witness": self.witness,
        }


def _witness(kind, seed, model, row_payload):
    w = {"kind": kind, "seed": seed, "model": model.name}
    w.update(row_payload)
    return w


# A sampled probe is a trial function trial(model, seed, t, m, *inputs) ->
# (batch, checks): trial t draws its m rows from counter-based streams keyed
# by (seed, t), so any trial can be rerun on its own.  Each check is a pair
# (violated-row mask, fields) where fields(i) gives the witness payload for
# row i.  Checks are ordered: the first check with a violated row wins, even
# when a later check flags an earlier row.


def _trial_witness(kind, seed, model, index, t, m, batch, i, fields) -> dict:
    """Witness for row i of trial t; index names the trial coordinate."""
    coords = {index: t, "row": i, "block_size": m}
    point = {"point": point_to_jsonable(batch_take(batch, i))}
    return _witness(kind, seed, model, {**coords, **fields(i), **point})


def _scan(kind, model, seed, sizes, trial, *inputs, index="trial"):
    """Run the trials in order; return the witness of the first violated
    row (or None) and the number of rows checked up to that trial."""
    checked = 0
    for t, m in enumerate(sizes):
        batch, checks = trial(model, seed, t, m, *inputs)
        checked += m
        for bad, fields in checks:
            rows = np.flatnonzero(bad)
            if rows.size:
                i = int(rows[0])
                wit = _trial_witness(kind, seed, model, index, t, m, batch, i, fields)
                return wit, checked
    return None, checked


def _certainty_trial(model, seed, t, m, psi, sm):
    """Draws from the psi-state where outcome psi of sm is not certain.

    A point-mass state is one trial whose rows are its weighted atoms.
    """
    mu = model.prepare(psi)
    if mu.point_masses is not None:
        batch, weights = mu.point_masses
        live = weights > 0
    else:
        g = stream(seed, model.name, "certainty", mu.label, "block", t)
        batch, live = mu.sampler(g, m), True
    vals = np.asarray(model.respond.evaluate(psi, batch, sm), dtype=float)
    return batch, [(live & (vals < 1.0 - XI_TOL), lambda i: {
        "psi": _jsonable_array(psi.amplitudes),
        "basis": [_jsonable_array(s.amplitudes) for s in sm.payload],
        "value": float(vals[i]),
    })]


def _chain_mu_trial(model, seed, t, m, psi):
    """Draws from the psi-state outside its own support or outside the
    response core for outcome psi."""
    mu = model.prepare(psi)
    batch = mu.sampler(stream(seed, model.name, "chain-mu", mu.label, "block", t), m)
    in_supp = np.asarray(mu.support(batch), dtype=bool)
    in_core = np.asarray(model.respond.core(psi, batch, measurement_of(psi)), dtype=bool)
    return batch, [(~(in_supp & in_core), lambda i: {
        "stage": "mu-draw" if not in_supp[i] else "core",
        "psi": _jsonable_array(psi.amplitudes),
    })]


def _chain_ref_trial(model, seed, t, m, psi):
    """Reference draws inside the response core for outcome psi but
    outside its support."""
    g = stream(seed, model.name, "chain-ref", "ref", "block", t)
    batch = model.ontic_space.reference_sampler(g, m)
    sm = measurement_of(psi)
    in_core = np.asarray(model.respond.core(psi, batch, sm), dtype=bool)
    in_supp = np.asarray(model.respond.support(psi, batch, sm), dtype=bool)
    return batch, [(in_core & ~in_supp, lambda i: {
        "stage": "core-not-support",
        "psi": _jsonable_array(psi.amplitudes),
    })]


def check_quantum_certainty(model, psi, sm=None, n_samples=10_000, seed=None) -> CheckResult:
    """Outcome psi must be certain when psi was prepared.

    Point-mass states are checked atom by atom; sampled states draw from
    the epistemic state and require the response to equal 1 within 1e-9
    on every draw.
    """
    seed = DEFAULT_SEED if seed is None else int(seed)
    model.check_dim(psi.dim)
    if sm is None:
        sm = measurement_of(psi)
    mu = model.prepare(psi)
    if mu.point_masses is not None:
        sizes = [int(mu.point_masses[1].size)]
    else:
        sizes = _block_sizes(n_samples, MC_BLOCK)
    wit, checked = _scan(
        "certainty", model, seed, sizes, _certainty_trial, psi, sm, index="block"
    )
    return CheckResult("quantum_certainty", wit is None, checked, wit)


def check_support_chain(model, psi, n_samples=10_000, seed=None) -> CheckResult:
    """Preparation support within response core within response support.

    Draws from the epistemic state must satisfy its own support predicate
    and the response core for outcome psi; reference draws inside the core
    must lie in the response support.
    """
    seed = DEFAULT_SEED if seed is None else int(seed)
    model.check_dim(psi.dim)
    sizes = _block_sizes(n_samples, MC_BLOCK)
    checked = 0
    for trial in (_chain_mu_trial, _chain_ref_trial):
        wit, n = _scan("support_chain", model, seed, sizes, trial, psi, index="block")
        checked += n
        if wit is not None:
            break
    return CheckResult("support_chain", wit is None, checked, wit)


# ---------------------------------------------------------------------------
# Overlap fraction and maximal psi-epistemicity


def overlap_fraction(model, phi, psi, engine) -> Estimate:
    """Mass the psi-state places on the phi-preparation support, divided
    by the Born probability.  Equal to 1 for every non-orthogonal pair
    exactly when the model is maximally psi-epistemic."""
    if phi.dim != psi.dim:
        raise DimensionMismatchError("overlap requires equal dims")
    model.check_dim(phi.dim)
    born = born_probability(phi, psi)
    if born <= EXACT_TOL:
        raise OrthogonalPairError("overlap fraction undefined for orthogonal pair")
    mu_psi, mu_phi = model.prepare(psi), model.prepare(phi)
    est = _expect(
        model, mu_psi, lambda b: np.asarray(mu_phi.support(b), dtype=float), engine,
        tuple(mu_psi.split_axes) + tuple(mu_phi.split_axes),
        "overlap", model.name, mu_psi.label, state_label(phi),
    )
    stderr = None if est.stderr is None else est.stderr / born
    return Estimate(est.value / born, est.tolerance / born, est.spec, stderr=stderr)


def _nonorthogonal_pair(dim, rng, min_born=0.05):
    while True:
        a, b = random_state(dim, rng), random_state(dim, rng)
        if born_probability(a, b) >= min_born:
            return a, b


@dataclass(frozen=True)
class MaxEpistemicResult:
    status: "Status"
    fractions: tuple
    n_pairs: int


def is_maximally_epistemic(model, n_pairs=20, engine=None, seed=None) -> MaxEpistemicResult:
    """Sample non-orthogonal pairs and test overlap fraction = 1.

    The verdict is cross-checked against the structural characterization:
    maximal psi-epistemicity must coincide with reciprocity AND outcome
    determinism (declared and unfalsified).  Disagreement raises
    ModelConsistencyError, since it can only come from a broken model.
    """
    seed = DEFAULT_SEED if seed is None else int(seed)
    engine = engine or default_engine(model)
    fractions = []
    witness = None
    for t in range(n_pairs):
        g = stream(seed, model.name, "maxepi", t)
        phi, psi = _nonorthogonal_pair(model.dim, g)
        est = overlap_fraction(model, phi, psi, engine)
        fractions.append(est.value)
        if witness is None and est.value + est.tolerance < 1.0:
            witness = _witness(
                "max_epistemic", seed, model,
                {
                    "trial": t,
                    "phi": _jsonable_array(phi.amplitudes),
                    "psi": _jsonable_array(psi.amplitudes),
                    "fraction": est.value,
                    "tolerance": est.tolerance,
                },
            )
    f_maximal = witness is None

    claims = model.declared.claims()
    decl = claims["reciprocity"] and claims["outcome_determinism"]
    rd_seed = seed + 1
    recip_wit, _ = _run_probe("reciprocity", model, 2048, rd_seed)
    det_wit, _ = _run_probe("determinism", model, 2048, rd_seed)
    rd_verdict = decl and recip_wit is None and det_wit is None
    if f_maximal != rd_verdict:
        raise ModelConsistencyError(
            f"model {model.name}: overlap-fraction verdict (maximal={f_maximal}) "
            f"contradicts reciprocity+determinism verdict ({rd_verdict})"
        )
    if f_maximal:
        status = Status("confirmed_analytic", n_trials=n_pairs)
    else:
        status = Status("falsified", n_trials=n_pairs, witness=witness)
    return MaxEpistemicResult(status, tuple(fractions), n_pairs)


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class Status:
    """Outcome of falsification testing for one declared property.

    confirmed_analytic: declared true, budget found no counterexample;
    falsified: counterexample found (witness replayable);
    not_falsified: declared false but budget found no counterexample;
    not_applicable: the probe is degenerate for this model.
    """

    value: str
    n_trials: int = 0
    witness: dict | None = None
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.value == "confirmed_analytic"

    def to_jsonable(self) -> dict:
        out = {"status": self.value, "n_trials": self.n_trials}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


def _status(declared: bool, witness, n_trials, note="") -> Status:
    if witness is not None:
        return Status("falsified", n_trials=n_trials, witness=witness, note=note)
    if declared:
        return Status("confirmed_analytic", n_trials=n_trials, note=note)
    return Status(
        "not_falsified", n_trials=n_trials,
        note=(note + " " if note else "")
        + "declared false but no counterexample found within budget",
    )


def _reciprocity_trial(model, seed, t, m):
    """Reference points where the response core and the preparation
    support disagree for a random state."""
    psi = random_state(model.dim, stream(seed, model.name, "recip", t, "psi"))
    g = stream(seed, model.name, "recip", t, "lam")
    batch = model.ontic_space.reference_sampler(g, m)
    in_core = np.asarray(model.respond.core(psi, batch, measurement_of(psi)), dtype=bool)
    in_supp = np.asarray(model.prepare(psi).support(batch), dtype=bool)
    return batch, [(in_core != in_supp, lambda i: {
        "psi": _jsonable_array(psi.amplitudes),
        "core": bool(in_core[i]),
        "in_support": bool(in_supp[i]),
    })]


def _determinism_trial(model, seed, t, m):
    """Reference points where the response is not two-valued or disagrees
    with its analytic core/support predicates."""
    phi = random_state(model.dim, stream(seed, model.name, "det", t, "phi"))
    g = stream(seed, model.name, "det", t, "lam")
    batch = model.ontic_space.reference_sampler(g, m)
    sm = measurement_of(phi)
    resp = model.respond
    vals = np.asarray(resp.evaluate(phi, batch, sm), dtype=float)
    in_core = np.asarray(resp.core(phi, batch, sm), dtype=bool)
    in_supp = np.asarray(resp.support(phi, batch, sm), dtype=bool)
    binary = np.abs(vals - np.round(vals)) <= XI_TOL
    core_ok = in_core == (vals >= 1.0 - XI_TOL)
    supp_ok = in_supp == (vals > XI_TOL)
    return batch, [(~(binary & core_ok & supp_ok), lambda i: {
        "failure": "not-binary" if not binary[i]
        else "core-mismatch" if not core_ok[i]
        else "support-mismatch",
        "phi": _jsonable_array(phi.amplitudes),
        "value": float(vals[i]),
    })]


def _complement_rotation(basis, outcome_index, rng):
    """New ordered basis: same outcome vector, complement basis rotated
    by a Haar unitary inside its span."""
    d = basis[0].dim
    rest = [s for i, s in enumerate(basis) if i != outcome_index]
    k = len(rest)
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    mat = np.stack([s.amplitudes for s in rest])  # (k, d)
    new_rest = q @ mat
    out = list(basis)
    j = 0
    for i in range(len(basis)):
        if i != outcome_index:
            out[i] = PureState(new_rest[j] / np.linalg.norm(new_rest[j]))
            j += 1
    return tuple(out)


def _meas_context_trial(model, seed, t, m):
    """Ontic points where the response to a fixed outcome changes when the
    measurement payload changes: basis reordering, a phase on a partner
    vector, or (d >= 3) a unitary rotation of the complement."""
    dim = model.dim
    g = stream(seed, model.name, "ctx", t)
    phi = random_state(dim, g)
    basis = complete_basis(phi)
    batch = model.ontic_space.reference_sampler(
        stream(seed, model.name, "ctx", t, "lam"), m
    )

    def values(variation, payload):
        sm = MeasContext(f"ctx:{t}:{variation}", payload)
        return np.asarray(model.respond.evaluate(phi, batch, sm), dtype=float)

    ref_vals = values("base", basis)
    perm = list(range(dim))
    g.shuffle(perm)
    variants = [("permutation", tuple(basis[i] for i in perm))]
    phased = list(basis)
    alpha = g.uniform(0, 2 * np.pi)
    phased[-1] = PureState(np.exp(1j * alpha) * phased[-1].amplitudes)
    variants.append(("phase", tuple(phased)))
    if dim >= 3:
        variants.append(("rotation", _complement_rotation(basis, 0, g)))

    def check(variation, payload):
        vals = values(variation, payload)
        return np.abs(vals - ref_vals) > XI_TOL, lambda i: {
            "variation": variation,
            "phi": _jsonable_array(phi.amplitudes),
            "value_base": float(ref_vals[i]),
            "value_varied": float(vals[i]),
            "basis": [_jsonable_array(s.amplitudes) for s in payload],
        }

    # Lazy, so a variant is evaluated only while the earlier ones pass.
    return batch, (check(variation, payload) for variation, payload in variants)


def fourier_basis(dim: int):
    f = np.exp(2j * np.pi * np.outer(np.arange(dim), np.arange(dim)) / dim)
    return tuple(PureState(f[:, k] / math.sqrt(dim)) for k in range(dim))


def canonical_mix_contexts(dim: int):
    """Two preparation procedures for the maximally mixed state: uniform
    mixture of the standard basis, and of the Fourier basis (for d = 2,
    the z and x bases)."""
    from .hilbert import basis_state

    w = 1.0 / dim
    std = Decomposition(tuple((w, basis_state(dim, k)) for k in range(dim)))
    four = Decomposition(tuple((w, s) for s in fourier_basis(dim)))
    return (
        PrepContext("mix:standard", std),
        PrepContext("mix:fourier", four),
    )


def prep_context_distance(model, rho: DensityOperator, ctx_a, ctx_b, engine) -> float:
    """Total-variation distance between the epistemic states two
    preparation procedures assign to the same density operator, with
    densities f_a and f_b: (M/2) E_ref|f_a - f_b|, an ``_expect`` over the
    reference state of the ontic space (mass M, density 1/M)."""
    for ctx in (ctx_a, ctx_b):
        if not isinstance(ctx.payload, Decomposition):
            raise PreparationMismatchError(
                f"context {ctx.label} carries no decomposition"
            )
        if not mix(ctx.payload).close_to(rho, atol=EXACT_TOL):
            raise PreparationMismatchError(
                f"context {ctx.label} does not prepare the requested state"
            )
    # A procedure's epistemic state is the weighted sum of its components'
    # states: their densities add, and their split axes all apply.
    parts_a, parts_b = (
        [(w, model.prepare(s)) for w, s in ctx.payload.components]
        for ctx in (ctx_a, ctx_b)
    )

    # The integral below is over the reference measure, so it needs every
    # component's density.
    if isinstance(engine, ClosedForm) or any(
        mu.density is None for _, mu in parts_a + parts_b
    ):
        if model.prep_tv_closed is None:
            raise EngineError(
                f"model {model.name} has no closed-form preparation distance"
            )
        return float(model.prep_tv_closed(ctx_a.payload, ctx_b.payload))

    def integrand(pts):
        f_a = sum(w * mu.density(pts) for w, mu in parts_a)
        f_b = sum(w * mu.density(pts) for w, mu in parts_b)
        return np.abs(f_a - f_b)

    axes_a = [n for _, mu in parts_a for n in mu.split_axes]
    axes_b = [n for _, mu in parts_b for n in mu.split_axes]
    # Kinks of |f_a - f_b| also lie where the two densities cross;
    # for single-axis cosine densities those are the bisector circles.
    sums = [s for a in axes_a for b in axes_b for s in (a + b, a - b)]
    extra = [s / np.linalg.norm(s) for s in sums if np.linalg.norm(s) > 1e-9]
    space = model.ontic_space
    ref = EpistemicState(
        "reference", support=lambda pts: np.ones(len(pts), dtype=bool),
        density=lambda pts: 1.0 / space.reference_mass, sampler=space.reference_sampler,
    )
    est = _expect(
        model, ref, integrand, engine, tuple(axes_a + axes_b + extra),
        "prep-tv", model.name, ctx_a.label, ctx_b.label,
    )
    return 0.5 * space.reference_mass * est.value


PREP_TV_CONTEXTUAL = 0.01


def _probe_prep_context(model, seed):
    """Measure the canonical mixed-preparation distance; TV above the
    contextuality threshold falsifies preparation noncontextuality."""
    dim = model.dim
    ctx_a, ctx_b = canonical_mix_contexts(dim)
    rho = mix(ctx_a.payload)
    engine = default_engine(model)
    tv = prep_context_distance(model, rho, ctx_a, ctx_b, engine)
    if tv > PREP_TV_CONTEXTUAL:
        wit = _witness(
            "preparation_context", seed, model,
            {
                "ctx_a": ctx_a.label, "ctx_b": ctx_b.label,
                "tv_distance": tv, "threshold": PREP_TV_CONTEXTUAL,
            },
        )
        return wit, tv
    return None, tv


def _funcdep_trial(model, seed, t, m):
    """Ontic points whose response changes when the prepared state in the
    register is swapped, at fixed outcome and measurement."""
    g = stream(seed, model.name, "funcdep", t)
    psi1 = random_state(model.dim, g)
    psi2 = random_state(model.dim, g)
    phi = random_state(model.dim, g)
    sm = measurement_of(phi)
    batch = model.prepare(psi1).sampler(stream(seed, model.name, "funcdep", t, "lam"), m)
    swapped = (register(psi2, m),) + batch[1:]
    v1 = np.asarray(model.respond.evaluate(phi, batch, sm), dtype=float)
    v2 = np.asarray(model.respond.evaluate(phi, swapped, sm), dtype=float)
    return batch, [(np.abs(v1 - v2) > XI_TOL, lambda i: {
        "psi_prepared": _jsonable_array(psi1.amplitudes),
        "psi_swapped": _jsonable_array(psi2.amplitudes),
        "phi": _jsonable_array(phi.amplitudes),
        "value_before": float(v1[i]),
        "value_after": float(v2[i]),
    })]


def functional_dependence_test(model, n_trials=512, seed=None) -> Status:
    """Does the response read the prepared state?

    The positive property is state independence of the response, decided
    by the ontic space's kind.  On a "ray" space the ontic state is the
    prepared state, which cannot vary while the ontic state is fixed:
    not_applicable.  On a "composite" space the register is swapped for
    another state at fixed auxiliary data, outcome and measurement.  Any
    other kind holds no register, so the response cannot read the state.
    """
    seed = DEFAULT_SEED if seed is None else int(seed)
    kind = model.ontic_space.kind
    if kind == "ray":
        return Status(
            "not_applicable", n_trials=0,
            note="ontic state determines the prepared state; it cannot vary "
            "while the ontic state is held fixed",
        )
    if kind != "composite":
        return Status(
            "confirmed_analytic", n_trials=0,
            note="response reads only the ontic state and the outcome",
        )

    wit, checked = _run_probe("functional_dependence", model, n_trials, seed)
    return _status(model.declared.claims()["response_state_independence"], wit, checked)


# Probes whose trial inputs come from the seed alone: kind -> (trial, block).
_SEEDED_PROBES = {
    "reciprocity": (_reciprocity_trial, 256),
    "determinism": (_determinism_trial, 256),
    "measurement_context": (_meas_context_trial, 128),
    "functional_dependence": (_funcdep_trial, 128),
}


def _run_probe(kind, model, n_trials, seed):
    trial, block = _SEEDED_PROBES[kind]
    return _scan(kind, model, seed, _block_sizes(n_trials, block), trial)


@dataclass(frozen=True)
class ClassificationReport:
    model: str
    display_name: str
    table_type: str
    dim: int
    seed: int
    n_trials: int
    predicates: dict

    @property
    def deficient(self) -> bool:
        # Derived, never measured: deficiency is the failure of
        # reciprocity or of outcome determinism.
        return not (
            self.predicates["reciprocity"].holds
            and self.predicates["outcome_determinism"].holds
        )

    def mismatches(self, declared: DeclaredProperties) -> dict:
        """Declared-vs-measured table of the predicates whose status
        contradicts the declaration.

        Declared-true properties must not be falsified, and declared-false
        ones must be (not_falsified means the probes contradict the
        declaration within budget), so a mismatch was declared to hold
        exactly when its status is falsified.
        """
        claims = declared.claims()
        return {
            name: {
                "declared": "holds" if st.value == "falsified" else "fails",
                "measured": st.value,
            }
            for name, st in self.predicates.items()
            if st.value != "not_applicable" and (st.value == "falsified") == claims[name]
        }

    def matches_declared(self, declared: DeclaredProperties) -> bool:
        return not self.mismatches(declared)

    @property
    def holds(self) -> dict:
        return {name: st.holds for name, st in self.predicates.items()}

    def table_row(self) -> dict:
        return {
            "model": self.display_name,
            "type": self.table_type,
            **table_cells(self.holds),
        }

    def to_jsonable(self) -> dict:
        return {
            "model": self.model,
            "display_name": self.display_name,
            "type": self.table_type,
            "dim": self.dim,
            "seed": self.seed,
            "n_trials": self.n_trials,
            "deficient": self.deficient,
            "predicates": {
                name: st.to_jsonable() for name, st in self.predicates.items()
            },
        }


def default_engine(model):
    return parse_engine(model.default_engine_spec)


# The predicates classify tests with a seeded probe, and the probe kind.
_CLASSIFY_PROBES = (
    ("reciprocity", "reciprocity"),
    ("outcome_determinism", "determinism"),
    ("measurement_noncontextuality", "measurement_context"),
)


def classify(model, n_trials=4096, seed=None) -> ClassificationReport:
    """Falsification-test every declared property of the model."""
    seed = DEFAULT_SEED if seed is None else int(seed)
    claims = model.declared.claims()
    predicates = {
        name: _status(claims[name], *_run_probe(kind, model, n_trials, seed))
        for name, kind in _CLASSIFY_PROBES
    }
    prep_wit, tv = _probe_prep_context(model, seed)
    predicates["preparation_noncontextuality"] = _status(
        claims["preparation_noncontextuality"], prep_wit, 1,
        note=f"tv_distance={tv:.6g}",
    )
    predicates["response_state_independence"] = functional_dependence_test(
        model, min(n_trials, 512), seed
    )
    return ClassificationReport(
        model=model.name,
        display_name=model.display_name,
        table_type=model.table_type,
        dim=model.dim,
        seed=seed,
        n_trials=n_trials,
        predicates=predicates,
    )


@dataclass(frozen=True)
class ConsistencyEntry:
    model: str
    dim: int
    deterministic: bool
    noncontextual: bool

    @property
    def consistent(self) -> bool:
        return not (self.deterministic and self.noncontextual)


@dataclass(frozen=True)
class ConsistencyReport:
    entries: tuple
    skipped: tuple

    @property
    def passed(self) -> bool:
        return all(e.consistent for e in self.entries)

    def to_jsonable(self) -> dict:
        return {
            "passed": self.passed,
            "entries": [
                {
                    "model": e.model,
                    "dim": e.dim,
                    "deterministic": e.deterministic,
                    "noncontextual": e.noncontextual,
                    "consistent": e.consistent,
                }
                for e in self.entries
            ],
            "skipped": list(self.skipped),
        }


def ks_om_consistency(models, n_trials=2048, seed=None) -> ConsistencyReport:
    """For d >= 3, no model may be outcome deterministic and measurement
    noncontextual at once.  A violation signals a broken implementation,
    not a discovery."""
    seed = DEFAULT_SEED if seed is None else int(seed)
    entries, skipped = [], []
    for model in models:
        if model.dim < 3 or not model.implemented:
            skipped.append(model.name)
            continue
        report = classify(model, n_trials=n_trials, seed=seed)
        entries.append(
            ConsistencyEntry(
                model=model.name,
                dim=model.dim,
                deterministic=report.predicates["outcome_determinism"].holds,
                noncontextual=report.predicates[
                    "measurement_noncontextuality"
                ].holds,
            )
        )
    return ConsistencyReport(tuple(entries), tuple(skipped))


# ---------------------------------------------------------------------------
# Witness replay


def _state_from_jsonable(data) -> PureState:
    if isinstance(data, dict):
        amps = np.asarray(data["re"]) + 1j * np.asarray(data["im"])
    else:
        amps = np.asarray(data, dtype=complex)
    return PureState(amps)


def _witness_trial(witness):
    """The trial behind a sampled-probe witness: trial function, the
    caller-given inputs it ran on, and the name of its trial coordinate."""
    kind = witness["kind"]
    if kind in _SEEDED_PROBES:
        return _SEEDED_PROBES[kind][0], (), "trial"
    if kind not in ("certainty", "support_chain"):
        raise ValueError(f"unknown witness kind {kind!r}")
    psi = _state_from_jsonable(witness["psi"])
    if kind == "certainty":
        basis = tuple(_state_from_jsonable(b) for b in witness["basis"])
        return _certainty_trial, (psi, MeasContext("replay", basis)), "block"
    if witness["stage"] == "core-not-support":
        return _chain_ref_trial, (psi,), "block"
    return _chain_mu_trial, (psi,), "block"


def replay_witness(model, witness: dict) -> bool:
    """Rerun the trial behind a witness and re-check the violation.

    Returns True when a check of the rerun trial still flags the stored
    row and rebuilds the stored witness, point included, as the same
    canonical JSON: a witness read back from a report holds its floats to
    the report's 12 digits.  Streams are counter-based, so replay does not
    depend on what else was computed in between.
    """
    kind = witness["kind"]
    seed = witness["seed"]
    if kind == "max_epistemic":
        phi = _state_from_jsonable(witness["phi"])
        psi = _state_from_jsonable(witness["psi"])
        engine = default_engine(model)
        est = overlap_fraction(model, phi, psi, engine)
        return est.value + est.tolerance < 1.0

    if kind == "preparation_context":
        _, tv = _probe_prep_context(model, seed)
        return tv > witness["threshold"]

    trial, inputs, index = _witness_trial(witness)
    t, i, m = witness[index], witness["row"], witness["block_size"]
    batch, checks = trial(model, seed, t, m, *inputs)
    stored = canonical_json(witness)
    return any(
        bad[i]
        and canonical_json(_trial_witness(kind, seed, model, index, t, m, batch, i, fields))
        == stored
        for bad, fields in checks
    )
