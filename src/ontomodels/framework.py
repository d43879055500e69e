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
)
from .hilbert import (
    Decomposition,
    DensityOperator,
    DimensionMismatchError,
    PureState,
    born_probability,
    complete_basis,
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

    kind is one of "sphere2" (unit directions, solid-angle measure),
    "ray" (projective Hilbert space, Haar probability), "composite"
    (state register times an auxiliary factor, product measure), or
    "finite" (atom list, counting measure).  reference_sampler(rng, m)
    draws m points from the normalized reference distribution.
    """

    kind: str
    dim: int
    reference_sampler: object = field(repr=False)
    reference_mass: float = 1.0
    aux: str = ""
    atoms: tuple = ()


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
    """Distribution over ontic states produced by one preparation.

    Exactly one representation is primary: a density w.r.t. the space's
    reference measure, or an explicit point-mass list (atoms, weights).
    A sampler and an analytic support predicate are always present.
    split_axes are smoothness hints for sphere quadrature: unit normals
    of circles bounding the support.
    """

    space: OnticSpace
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
    returns sphere-quadrature hints where applicable.
    reads_state_register flags whether evaluate inspects the prepared
    state stored inside composite ontic states.
    """

    evaluate: object = field(repr=False)
    core: object = field(repr=False)
    support: object = field(repr=False)
    split_axes: object = field(default=None, repr=False)
    reads_state_register: bool = False


@dataclass(frozen=True)
class DeclaredProperties:
    """Analytic property claims the classifier tries to falsify."""

    reciprocal: bool
    outcome_deterministic: bool
    measurement_contextual: bool
    preparation_contextual: bool
    psi_dependent_response: bool


@dataclass(frozen=True)
class OntologicalModel:
    name: str
    display_name: str
    table_type: str
    ontic_space: OnticSpace
    prepare_pure: object = field(repr=False)
    respond: ResponseFunction = field(repr=False)
    declared: DeclaredProperties = field(repr=False)
    supported_dims: frozenset = frozenset()
    # "absent": ontic state carries no prepared-state register (response
    # cannot read psi); "whole": the ontic state is the prepared state;
    # "component": a register holds it and replace_state_register swaps it.
    state_register: str = "absent"
    replace_state_register: object = field(default=None, repr=False)
    closed_response_mean: object = field(default=None, repr=False)
    prep_tv_closed: object = field(default=None, repr=False)
    default_engine_spec: str = "closed"
    implemented: bool = True

    @property
    def dim(self) -> int:
        return min(self.supported_dims)

    def check_dim(self, d: int):
        if d not in self.supported_dims:
            raise UnsupportedDimensionError(
                f"model {self.name} does not support dimension {d}"
            )

    def prepare(self, target, ctx: PrepContext | None = None) -> EpistemicState:
        """Epistemic state for a pure state or a convex decomposition."""
        if isinstance(target, Decomposition):
            self.check_dim(target.dim)
            parts = [(w, self.prepare_pure(s)) for w, s in target.components]
            label = ctx.label if ctx is not None else "mix"
            return mixture_state(self.ontic_space, parts, label)
        if not isinstance(target, PureState):
            raise TypeError("prepare expects a PureState or a Decomposition")
        self.check_dim(target.dim)
        return self.prepare_pure(target)


# ---------------------------------------------------------------------------
# Batch plumbing.  A batch is an (m, ...) array, or a tuple of such arrays
# for composite spaces; all model callables are vectorized over batches.


def batch_concat(batches):
    if isinstance(batches[0], tuple):
        k = len(batches[0])
        return tuple(np.concatenate([b[i] for b in batches]) for i in range(k))
    return np.concatenate(batches)


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


def mixture_state(space, weighted_parts, label: str) -> EpistemicState:
    """Convex mixture of epistemic states over one space."""
    weights = np.array([w for w, _ in weighted_parts], dtype=float)
    parts = [p for _, p in weighted_parts]

    def support(batch):
        ok = parts[0].support(batch)
        for p in parts[1:]:
            ok = ok | p.support(batch)
        return ok

    density = None
    if all(p.density is not None for p in parts):
        def density(batch, _w=weights, _p=parts):
            return sum(w * p.density(batch) for w, p in zip(_w, _p))

    sampler = None
    if all(p.sampler is not None for p in parts):
        def sampler(rng, m, _w=weights, _p=parts):
            counts = rng.multinomial(m, _w / _w.sum())
            drawn = [p.sampler(rng, int(c)) for p, c in zip(_p, counts) if c]
            return batch_concat(drawn)

    point_masses = None
    if all(p.point_masses is not None for p in parts):
        atoms = batch_concat([p.point_masses[0] for p in parts])
        ws = np.concatenate(
            [w * p.point_masses[1] for w, p in zip(weights, parts)]
        )
        point_masses = (atoms, ws)

    axes = []
    for p in parts:
        axes.extend(p.split_axes)
    return EpistemicState(
        space=space,
        label=label,
        support=support,
        density=density,
        sampler=sampler,
        point_masses=point_masses,
        split_axes=tuple(axes),
    )


def _point_mass_sum(mu: EpistemicState, f) -> float:
    atoms, weights = mu.point_masses
    return float(weights @ np.asarray(f(atoms), dtype=float))


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


def _response_axes(model, phi, sm):
    if model.respond.split_axes is None:
        return ()
    return tuple(model.respond.split_axes(phi, sm))


def predict_probability(
    model: OntologicalModel,
    psi: PureState,
    sp: PrepContext | None,
    phi: PureState,
    sm: MeasContext | None,
    engine,
) -> Estimate:
    """Response averaged over the epistemic state: the model's prediction
    for preparing psi and asking for outcome phi."""
    if psi.dim != phi.dim:
        raise DimensionMismatchError("prepared and measured dims differ")
    model.check_dim(psi.dim)
    if sm is None:
        sm = measurement_of(phi)
    mu = model.prepare(psi, sp)
    evaluate = model.respond.evaluate

    if mu.point_masses is not None:
        val = _point_mass_sum(mu, lambda batch: evaluate(phi, batch, sm))
        if isinstance(engine, MonteCarlo):
            return Estimate(val, EXACT_TOL, engine.spec, stderr=0.0)
        spec = engine.spec if hasattr(engine, "spec") else "closed"
        return Estimate(val, EXACT_TOL, spec)

    if isinstance(engine, ClosedForm):
        if model.closed_response_mean is None:
            raise EngineError(
                f"model {model.name} has no closed-form response mean"
            )
        return engine.estimate(model.closed_response_mean(psi, sp, phi, sm))

    if isinstance(engine, SphereQuadrature):
        if mu.space.kind != "sphere2" or mu.density is None:
            raise EngineError(
                f"sphere quadrature cannot integrate {model.name} states"
            )
        axes = tuple(mu.split_axes) + _response_axes(model, phi, sm)
        return engine.estimate(
            lambda pts: evaluate(phi, pts, sm) * mu.density(pts), axes
        )

    if isinstance(engine, MonteCarlo):
        if mu.sampler is None:
            raise EngineError(f"model {model.name} states expose no sampler")
        return engine.mean(
            mu.sampler,
            lambda batch: evaluate(phi, batch, sm),
            "predict", model.name, mu.label, sm.label, state_label(phi),
        )

    raise EngineError(f"unknown engine {engine!r}")


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
            "pairs": [
                {
                    "psi": d.psi_label,
                    "phi": d.phi_label,
                    "basis": d.basis_label,
                    "predicted": d.predicted,
                    "born": d.born,
                    "deviation": d.deviation,
                    "tolerance": d.tolerance,
                }
                for d in self.deviations
            ],
        }


def _born_report(model, pairs, engine) -> BornReport:
    """Deviation from the Born probability for every outcome of every
    (state, measurement context) pair."""
    devs = []
    for psi, sm in pairs:
        for phi in sm.payload:
            est = predict_probability(model, psi, None, phi, sm, engine)
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
    detail: str = ""

    def to_jsonable(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "n_samples": self.n_samples,
            "witness": self.witness,
            "detail": self.detail,
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
    mu_psi = model.prepare(psi)
    lam_phi = model.prepare(phi).support

    if mu_psi.point_masses is not None:
        num = _point_mass_sum(mu_psi, lambda b: np.asarray(lam_phi(b), dtype=float))
        spec = engine.spec if hasattr(engine, "spec") else "closed"
        return Estimate(num / born, EXACT_TOL / born, spec)

    if isinstance(engine, SphereQuadrature):
        if mu_psi.space.kind != "sphere2" or mu_psi.density is None:
            raise EngineError(f"quadrature cannot integrate {model.name} states")
        axes = tuple(mu_psi.split_axes) + tuple(model.prepare(phi).split_axes)
        num = engine.integrate(
            lambda pts: np.asarray(lam_phi(pts), dtype=float) * mu_psi.density(pts),
            axes,
        )
        return Estimate(num / born, engine.tolerance / born, engine.spec)

    if isinstance(engine, MonteCarlo):
        if mu_psi.sampler is None:
            raise EngineError(f"model {model.name} states expose no sampler")
        est = engine.mean(
            mu_psi.sampler,
            lambda b: np.asarray(lam_phi(b), dtype=float),
            "overlap", model.name, mu_psi.label, state_label(phi),
        )
        return Estimate(
            est.value / born, est.tolerance / born, est.spec,
            stderr=est.stderr / born,
        )

    raise EngineError("overlap fraction needs a quadrature or Monte Carlo engine")


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

    @property
    def maximal(self) -> bool:
        return self.status.value == "confirmed_analytic"


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

    decl = model.declared.reciprocal and model.declared.outcome_deterministic
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
    preparation procedures assign to the same density operator."""
    for ctx in (ctx_a, ctx_b):
        if not isinstance(ctx.payload, Decomposition):
            raise PreparationMismatchError(
                f"context {ctx.label} carries no decomposition"
            )
        if not mix(ctx.payload).close_to(rho, atol=EXACT_TOL):
            raise PreparationMismatchError(
                f"context {ctx.label} does not prepare the requested state"
            )
    mu_a = model.prepare(ctx_a.payload, ctx_a)
    mu_b = model.prepare(ctx_b.payload, ctx_b)

    if mu_a.point_masses is not None and mu_b.point_masses is not None:
        pm = []
        for mu in (mu_a, mu_b):
            atoms, weights = mu.point_masses
            pm.append(
                [(PureState(np.asarray(atoms[i])), float(weights[i]))
                 for i in range(len(weights))]
            )
        return point_mass_tv(pm[0], pm[1])

    if isinstance(engine, ClosedForm):
        if model.prep_tv_closed is None:
            raise EngineError(
                f"model {model.name} has no closed-form preparation distance"
            )
        return float(model.prep_tv_closed(ctx_a.payload, ctx_b.payload))

    if isinstance(engine, SphereQuadrature):
        if mu_a.density is None or mu_b.density is None:
            if model.prep_tv_closed is not None:
                return float(model.prep_tv_closed(ctx_a.payload, ctx_b.payload))
            raise EngineError("quadrature preparation distance needs densities")
        axes = tuple(mu_a.split_axes) + tuple(mu_b.split_axes)
        extra = []
        # Kinks of |f_a - f_b| also lie where the two densities cross;
        # for single-axis cosine densities those are the bisector circles.
        for a in mu_a.split_axes:
            for b in mu_b.split_axes:
                for s in (a + b, a - b):
                    n = np.linalg.norm(s)
                    if n > 1e-9:
                        extra.append(s / n)
        def integrand(pts):
            return np.abs(mu_a.density(pts) - mu_b.density(pts))
        return 0.5 * engine.integrate(integrand, axes + tuple(extra))

    if isinstance(engine, MonteCarlo):
        if mu_a.density is None or mu_b.density is None:
            if model.prep_tv_closed is not None:
                return float(model.prep_tv_closed(ctx_a.payload, ctx_b.payload))
            raise EngineError("Monte Carlo preparation distance needs densities")
        space = model.ontic_space
        est = engine.mean(
            space.reference_sampler,
            lambda pts: np.abs(mu_a.density(pts) - mu_b.density(pts)),
            "prep-tv", model.name, ctx_a.label, ctx_b.label,
        )
        return 0.5 * space.reference_mass * est.value

    raise EngineError(f"unknown engine {engine!r}")


PREP_TV_CONTEXTUAL = 0.01


def _probe_prep_context(model, seed, engine=None):
    """Measure the canonical mixed-preparation distance; TV above the
    contextuality threshold falsifies preparation noncontextuality."""
    dim = model.dim
    ctx_a, ctx_b = canonical_mix_contexts(dim)
    rho = mix(ctx_a.payload)
    engine = engine or default_engine(model, for_densities=True)
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
    swapped = model.replace_state_register(batch, psi2)
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

    The positive property is state independence of the response.  Models
    whose ontic state is the prepared state itself cannot vary one while
    fixing the other and are reported not_applicable; models with a state
    register are probed by swapping the register at fixed remaining ontic
    data, fixed outcome, and fixed measurement.
    """
    seed = DEFAULT_SEED if seed is None else int(seed)
    if model.state_register == "absent":
        note = "response reads only the ontic state and the outcome"
        if model.respond.reads_state_register:
            raise ModelConsistencyError(
                f"model {model.name} declares no state register but its "
                "response claims to read one"
            )
        return Status("confirmed_analytic", n_trials=0, note=note)
    if model.state_register == "whole":
        return Status(
            "not_applicable", n_trials=0,
            note="ontic state determines the prepared state; it cannot vary "
            "while the ontic state is held fixed",
        )

    wit, checked = _run_probe("functional_dependence", model, n_trials, seed)
    return _status(not model.declared.psi_dependent_response, wit, checked)


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
        want = {
            "reciprocity": declared.reciprocal,
            "outcome_determinism": declared.outcome_deterministic,
            "measurement_noncontextuality": not declared.measurement_contextual,
            "preparation_noncontextuality": not declared.preparation_contextual,
            "response_state_independence": not declared.psi_dependent_response,
        }
        return {
            name: {
                "declared": "holds" if st.value == "falsified" else "fails",
                "measured": st.value,
            }
            for name, st in self.predicates.items()
            if st.value != "not_applicable" and (st.value == "falsified") == want[name]
        }

    def matches_declared(self, declared: DeclaredProperties) -> bool:
        return not self.mismatches(declared)

    def table_row(self) -> dict:
        return {
            "model": self.display_name,
            "type": self.table_type,
            "reciprocity": "yes" if self.predicates["reciprocity"].holds else "no",
            "determinism": "yes"
            if self.predicates["outcome_determinism"].holds
            else "no",
            "contextual": "no"
            if self.predicates["measurement_noncontextuality"].holds
            else "yes",
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


def default_engine(model, for_densities=False):
    from .engines import parse_engine

    if for_densities and model.ontic_space.kind == "sphere2":
        return SphereQuadrature(17)
    return parse_engine(model.default_engine_spec)


def classify(model, n_trials=4096, seed=None, prep_engine=None) -> ClassificationReport:
    """Falsification-test every declared property of the model."""
    seed = DEFAULT_SEED if seed is None else int(seed)
    d = model.declared

    recip_wit, n1 = _run_probe("reciprocity", model, n_trials, seed)
    det_wit, n2 = _run_probe("determinism", model, n_trials, seed)
    ctx_wit, n3 = _run_probe("measurement_context", model, n_trials, seed)
    prep_wit, tv = _probe_prep_context(model, seed, engine=prep_engine)
    func_status = functional_dependence_test(model, min(n_trials, 512), seed)

    predicates = {
        "reciprocity": _status(d.reciprocal, recip_wit, n1),
        "outcome_determinism": _status(d.outcome_deterministic, det_wit, n2),
        "measurement_noncontextuality": _status(
            not d.measurement_contextual, ctx_wit, n3
        ),
        "preparation_noncontextuality": _status(
            not d.preparation_contextual, prep_wit, 1,
            note=f"tv_distance={tv:.6g}",
        ),
        "response_state_independence": func_status,
    }
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
