"""Verification and classification toolkit for ontological models.

An ontological model explains quantum statistics through distributions
over underlying ontic states: preparations become epistemic states,
measurements become response functions, and the Born rule becomes an
integral identity that can be checked numerically.  This package bundles

- a small finite-dimensional quantum toolbox (``hilbert``),
- seeded integration engines: closed forms, sphere quadrature, Monte
  Carlo (``engines``),
- the model interface plus verification, falsification-based
  classification, and overlap-fraction analysis (``framework``),
- a zoo of concrete models from the literature (``zoo``),
- an exact-arithmetic search for 0/1 valuations of ray sets (``ksval``),
- LP bounds on deterministic noncontextual models of finite fragments,
  with Farkas certificates (``epibound``, ``simplex``),
- canonical JSON/CSV reporting and a command-line front end
  (``reports``, ``cli``).
"""

from .engines import ClosedForm, Estimate, MonteCarlo, SphereQuadrature, parse_engine
from .epibound import (
    Fragment,
    FragmentError,
    analyze,
    enumerate_atoms,
    feasibility_max_epistemic,
    fragment_model,
    load_fragment,
    max_overlap_fraction,
    parse_fragment,
)
from .framework import (
    DeclaredProperties,
    EpistemicState,
    MeasContext,
    OnticSpace,
    OntologicalModel,
    PrepContext,
    ResponseFunction,
    born_suite_pairs,
    canonical_mix_contexts,
    check_quantum_certainty,
    check_support_chain,
    classify,
    is_maximally_epistemic,
    ks_om_consistency,
    overlap_fraction,
    predict_basis,
    predict_probability,
    prep_context_distance,
    replay_witness,
    verify_born,
)
from .hilbert import (
    Decomposition,
    DensityOperator,
    PureState,
    basis_state,
    born_probability,
    complete_basis,
    mix,
    random_state,
    state,
)
from .ksval import (
    VectorFileError,
    build_graph,
    enumerate_valuations,
    find_valuation,
    load_vector_set,
    verify_valuation,
)
from .reports import TOOL_VERSION, build_report, canonical_json
from .rng import DEFAULT_SEED, stream
from .zoo import UnknownModelError, get_model, table_models

__version__ = TOOL_VERSION

__all__ = [
    "ClosedForm",
    "DEFAULT_SEED",
    "DeclaredProperties",
    "Decomposition",
    "DensityOperator",
    "EpistemicState",
    "Estimate",
    "Fragment",
    "FragmentError",
    "MeasContext",
    "MonteCarlo",
    "OnticSpace",
    "OntologicalModel",
    "PrepContext",
    "PureState",
    "ResponseFunction",
    "SphereQuadrature",
    "UnknownModelError",
    "VectorFileError",
    "analyze",
    "basis_state",
    "born_probability",
    "born_suite_pairs",
    "build_graph",
    "build_report",
    "canonical_json",
    "canonical_mix_contexts",
    "check_quantum_certainty",
    "check_support_chain",
    "classify",
    "complete_basis",
    "enumerate_atoms",
    "enumerate_valuations",
    "feasibility_max_epistemic",
    "find_valuation",
    "fragment_model",
    "get_model",
    "is_maximally_epistemic",
    "ks_om_consistency",
    "load_fragment",
    "load_vector_set",
    "max_overlap_fraction",
    "mix",
    "overlap_fraction",
    "parse_engine",
    "parse_fragment",
    "predict_basis",
    "predict_probability",
    "prep_context_distance",
    "random_state",
    "replay_witness",
    "state",
    "stream",
    "table_models",
    "verify_born",
    "verify_valuation",
    "__version__",
]
