"""Golden values of the three integrals over epistemic states.

Born predictions, overlap fractions and preparation-context distances are
pinned as ``float.hex`` of value, tolerance and stderr, on every engine and
every kind of epistemic state: point masses (``bb:3`` and a fragment LP
witness), a density (``ks``), and states with only a sampler (``bell2``,
``ws:3``).  Like the LP and node pins, these are last-bit values of
numpy 2.4.6 on Python 3.11: another platform may need them re-pinned.
"""

import dataclasses

import pytest

from ontomodels import framework as fw
from ontomodels.data import fragment_path
from ontomodels.engines import EngineError, parse_engine
from ontomodels.epibound import feasibility_max_epistemic, fragment_model, load_fragment
from ontomodels.hilbert import DensityOperator, born_probability, random_state
from ontomodels.rng import stream
from ontomodels.zoo import get_model

ENGINES = ("closed", "quad:17", "mc:4096")


def _engine(spec):
    return parse_engine(spec, seed=5)


def _fragment():
    frag = load_fragment(fragment_path("d2_zx.frag"))
    return fragment_model(frag, feasibility_max_epistemic(frag).weights), frag


def _pair(name):
    """(model, psi, phi): a fixed non-orthogonal pair the model supports."""
    if name == "fragment":
        model, frag = _fragment()
        return model, frag.states[1], frag.states[0]
    model = get_model(name)
    g = stream(7, "expect-golden", name)
    return model, random_state(model.dim, g), random_state(model.dim, g)


def _hex(est):
    stderr = None if est.stderr is None else est.stderr.hex()
    return est.value.hex(), est.tolerance.hex(), stderr


def _predict(name, spec):
    model, psi, phi = _pair(name)
    return _hex(fw.predict_probability(model, psi, phi, None, _engine(spec)))


def _overlap(name, spec):
    model, psi, phi = _pair(name)
    return _hex(fw.overlap_fraction(model, phi, psi, _engine(spec)))


def _prep_tv(model, spec):
    ctx_a, ctx_b = fw.canonical_mix_contexts(model.dim)
    rho = DensityOperator(fw.mix(ctx_a.payload).matrix)
    return fw.prep_context_distance(model, rho, ctx_a, ctx_b, _engine(spec))


PREDICT = {
    ("bb:3", "closed"): ("0x1.83e387abe085fp-3", "0x1.19799812dea11p-40", None),
    ("bb:3", "quad:17"): ("0x1.83e387abe085fp-3", "0x1.19799812dea11p-40", None),
    ("bb:3", "mc:4096"): ("0x1.83e387abe085fp-3", "0x1.19799812dea11p-40", "0x0.0p+0"),
    ("fragment", "mc:4096"): ("0x1.0000000000000p-1", "0x1.19799812dea11p-40", "0x0.0p+0"),
    ("ks", "quad:17"): ("0x1.4787761b1daaap-4", "0x1.0c6f7a0b5ed8dp-20", None),
    ("ks", "mc:4096"): ("0x1.3d00000000000p-4", "0x1.9a7d634365044p-7", "0x1.11a8ecd798ad8p-8"),
    ("bell2", "closed"): ("0x1.f46f0b86c1a41p-3", "0x1.19799812dea11p-40", None),
    ("bell2", "mc:4096"): ("0x1.f680000000000p-3", "0x1.4a82fe31d7418p-6", "0x1.b8aea84274575p-8"),
    ("ws:3", "mc:4096"): ("0x1.9900000000000p-4", "0x1.cc8e5aaabde04p-7", "0x1.330991c729403p-8"),
}

OVERLAP = {
    ("bb:3", "closed"): ("0x0.0p+0", "0x1.7389925c95a6cp-38", None),
    ("bb:3", "quad:17"): ("0x0.0p+0", "0x1.7389925c95a6cp-38", None),
    # An exact sum over point masses has stderr 0 under Monte Carlo.
    ("bb:3", "mc:4096"): ("0x0.0p+0", "0x1.7389925c95a6cp-38", "0x0.0p+0"),
    ("fragment", "mc:4096"): ("0x1.0000000000001p+0", "0x1.19799812dea12p-39", "0x0.0p+0"),
    ("ks", "quad:17"): ("0x1.0000000000004p+0", "0x1.a39fa314e9529p-17", None),
    ("ks", "mc:4096"): ("0x1.082f22a6c41c2p+0", "0x1.4a60c0988dfb9p-3", "0x1.b88100cb67fa1p-5"),
    ("bell2", "mc:4096"): ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ("ws:3", "mc:4096"): ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
}

PREP_TV = {
    ("ks", "quad:17"): "0x1.a827999fcef37p-2",
    ("ks", "mc:4096"): "0x1.abaeb06d5c16bp-2",
    ("bell2", "closed"): "0x1.0000000000000p+0",
    ("bell2", "quad:17"): "0x1.0000000000000p+0",
    ("bell2", "mc:4096"): "0x1.0000000000000p+0",
    ("bb:3", "closed"): "0x1.0000000000000p+0",
    ("bb:3", "mc:4096"): "0x1.0000000000000p+0",
    ("ws:3", "mc:4096"): "0x1.0000000000000p+0",
}


@pytest.mark.parametrize("name,spec", sorted(PREDICT))
def test_predict_probability_golden(name, spec):
    assert _predict(name, spec) == PREDICT[name, spec]


# Sampled states draw one batch per basis and score every outcome on it,
# so their Monte Carlo rows follow the basis stream, not the outcome's.
SAMPLED = (("ks", "mc:4096"), ("bell2", "mc:4096"), ("ws:3", "mc:4096"))


@pytest.mark.parametrize("name,spec", SAMPLED)
def test_sampled_predictions_lie_within_tolerance_of_born(name, spec):
    model, psi, phi = _pair(name)
    value, tolerance = (float.fromhex(h) for h in PREDICT[name, spec][:2])
    assert abs(value - born_probability(phi, psi)) <= tolerance


@pytest.mark.parametrize("name,spec", sorted(OVERLAP))
def test_overlap_fraction_golden(name, spec):
    assert _overlap(name, spec) == OVERLAP[name, spec]


@pytest.mark.parametrize("name,spec", sorted(PREP_TV))
def test_prep_context_distance_golden(name, spec):
    assert _prep_tv(get_model(name), spec).hex() == PREP_TV[name, spec]


@pytest.mark.parametrize("integral", [_predict, _overlap])
def test_quadrature_rejects_composite_space(integral):
    with pytest.raises(EngineError):
        integral("bell2", "quad:17")


@pytest.mark.parametrize(
    "integral,name",
    [(_predict, "ks"), (_predict, "ws:3"), (_overlap, "ks"), (_overlap, "bell2"),
     (_overlap, "ws:3")],
)
def test_closed_form_rejects_states_without_point_masses(integral, name):
    with pytest.raises(EngineError):
        integral(name, "closed")


@pytest.mark.parametrize("spec", ENGINES)
def test_prep_tv_needs_densities_or_a_closed_form(spec):
    bare = dataclasses.replace(get_model("bell2"), prep_tv_closed=None)
    with pytest.raises(EngineError):
        _prep_tv(bare, spec)


def test_ks_prep_tv_has_no_closed_form():
    with pytest.raises(EngineError):
        _prep_tv(get_model("ks"), "closed")
