"""Model-independent machinery: prediction, checks, classification, replay."""

import dataclasses
import json
import math

import numpy as np
import pytest

from ontomodels import framework as fw
from ontomodels.engines import EngineError, SphereQuadrature, parse_engine
from ontomodels.framework import (
    ModelConsistencyError,
    OrthogonalPairError,
    PreparationMismatchError,
    ResponseFunction,
    UnsupportedDimensionError,
)
from ontomodels.hilbert import (
    Decomposition,
    DensityOperator,
    basis_state,
    complete_basis,
    mix,
    random_state,
    state,
)
from ontomodels.reports import canonical_json
from ontomodels.zoo import (
    _decomposition_tv,
    get_model,
    make_bb,
    make_bell2,
    make_ks,
    make_ws,
    table_models,
)

QUAD = parse_engine("quad:17")
CLOSED = parse_engine("closed")


def mc(n, seed=None):
    return parse_engine(f"mc:{n}", seed=seed)


def shrunken_core_ks():
    """Negative control: response demands a much smaller cap than the
    epistemic state occupies, breaking certainty and the support chain."""
    ks = make_ks()
    from ontomodels.zoo import _bloch

    def member(phi, pts, sm):
        return pts @ _bloch(phi) > 0.5

    broken = ResponseFunction(
        evaluate=lambda phi, pts, sm: (pts @ _bloch(phi) > 0.5).astype(float),
        core=member,
        support=member,
        split_axes=lambda phi, sm: (_bloch(phi),),
    )
    return dataclasses.replace(ks, respond=broken)


def fake_flat_model(dim=3):
    """Negative control for the d>=3 consistency theorem: deterministic,
    payload-blind (hence noncontextual) response.  Violates Born on
    purpose; the consistency check must flag it."""
    bb = make_bb(dim)

    def member(phi, batch, sm):
        return (batch.conj() @ phi.amplitudes).real > 0

    broken = ResponseFunction(
        evaluate=lambda phi, batch, sm: member(phi, batch, sm).astype(float),
        core=member,
        support=member,
    )
    declared = dataclasses.replace(
        bb.declared, outcome_deterministic=True, measurement_contextual=False
    )
    return dataclasses.replace(bb, name="fake-flat", respond=broken, declared=declared)


class TestPredictProbability:
    def test_ks_identical_states(self):
        ks = make_ks()
        psi = state(1, 1j)
        est = fw.predict_probability(ks, psi, psi, None, QUAD)
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_ks_orthogonal_bloch_axes(self):
        ks = make_ks()
        est = fw.predict_probability(ks, basis_state(2, 0), state(1, 1), None, QUAD)
        assert est.value == pytest.approx(0.5, abs=1e-6)

    def test_bb_closed_form_is_born(self):
        bb = make_bb(3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            psi, phi = random_state(3, rng), random_state(3, rng)
            est = fw.predict_probability(bb, psi, phi, None, CLOSED)
            assert est.value == pytest.approx(
                fw.born_probability(phi, psi), abs=1e-12
            )

    def test_unsupported_dim_rejected(self):
        with pytest.raises(UnsupportedDimensionError):
            fw.predict_probability(
                make_bb(2), basis_state(3, 0), basis_state(3, 1), None, CLOSED
            )

    def test_ks_has_no_closed_form(self):
        with pytest.raises(EngineError):
            fw.predict_probability(
                make_ks(), basis_state(2, 0), state(1, 1), None, CLOSED
            )

    def test_quadrature_rejects_composite_spaces(self):
        with pytest.raises(EngineError):
            fw.predict_probability(
                make_bell2(), basis_state(2, 0), state(1, 1), None, QUAD
            )

    @pytest.mark.parametrize("name,spec", [
        ("bb:3", "closed"), ("bb:3", "mc:5000"), ("ks", "quad:17"), ("ks", "mc:5000"),
        ("bell2", "closed"), ("bell2", "mc:5000"), ("ws:3", "mc:5000"), ("ws:4", "mc:5000"),
    ])
    def test_single_prediction_is_its_basis_entry(self, name, spec):
        def bits(est):
            return est.value.hex(), est.tolerance.hex(), est.stderr and est.stderr.hex()

        model = get_model(name)
        g = np.random.default_rng(11)
        psi = random_state(model.dim, g)
        sm = fw.measurement_of(random_state(model.dim, g))
        ests = fw.predict_basis(model, psi, sm, parse_engine(spec, seed=4))
        assert len(ests) == model.dim
        for phi, est in zip(sm.payload, ests):
            one = fw.predict_probability(model, psi, phi, sm, parse_engine(spec, seed=4))
            assert bits(one) == bits(est)

    def test_quadrature_builds_one_rule_per_basis(self):
        # ks splits on the state's circle and each outcome's; b and -b
        # name one circle, so the basis rule is outcome 0's rule.
        calls = []

        class Recorder(SphereQuadrature):
            def nodes(self, split_axes=()):
                calls.append(len(split_axes))
                return super().nodes(split_axes)

        ks = make_ks()
        g = np.random.default_rng(5)
        psi = random_state(2, g)
        sm = fw.measurement_of(random_state(2, g))
        ests = fw.predict_basis(ks, psi, sm, Recorder(17))
        assert calls == [3]
        for phi, est in zip(sm.payload, ests):
            one = fw.predict_probability(ks, psi, phi, sm, Recorder(17))
            assert (one.value.hex(), one.tolerance) == (est.value.hex(), est.tolerance)
        assert calls == [3, 3, 3]

    @pytest.mark.parametrize("spec", ["closed", "mc:4096"])
    def test_point_masses_score_the_basis_in_one_call(self, spec):
        bb = make_bb(3)
        calls = []

        def evaluate_all(batch, sm):
            calls.append(sm.label)
            return np.stack([bb.respond.evaluate(phi, batch, sm) for phi in sm.payload], axis=1)

        model = dataclasses.replace(
            bb, respond=dataclasses.replace(bb.respond, evaluate_all=evaluate_all)
        )
        states, bases = fw.random_born_suite(3, 4, seed=2)
        for psi, sm in zip(states, bases):
            ests = fw.predict_basis(model, psi, sm, parse_engine(spec))
            for phi, est in zip(sm.payload, ests):
                assert est.value == pytest.approx(fw.born_probability(phi, psi), abs=1e-12)
        assert calls == [sm.label for sm in bases]

    @pytest.mark.parametrize("engine", [QUAD, mc(1000)], ids=["quad:17", "mc:1000"])
    def test_outcome_must_be_in_the_basis(self, engine):
        sm = fw.measurement_of(basis_state(2, 0))
        with pytest.raises(ValueError):
            fw.predict_probability(make_ks(), state(1, 1), state(1, 1j), sm, engine)
        with pytest.raises(ValueError, match="not an element"):
            fw.predict_probability(make_ks(), state(1, 1), state(1, 0, 0), sm, engine)

    def test_monte_carlo_reports_standard_error(self):
        est = fw.predict_probability(
            make_bell2(), basis_state(2, 0), state(1, 1), None, mc(20_000)
        )
        assert est.stderr is not None and est.stderr > 0
        assert abs(est.value - 0.5) <= est.tolerance


class TestVerifyBorn:
    def test_bb_fifty_haar_pairs_exact(self):
        bb = make_bb(3)
        states, bases = fw.random_born_suite(3, 50, seed=21)
        rep = fw.verify_born(bb, states[:5], bases[:10], CLOSED)
        assert rep.passed and rep.max_deviation < 1e-12

    def test_ks_quadrature_suite(self):
        rep = fw.born_suite_pairs(make_ks(), 25, seed=3, engine=QUAD)
        assert rep.passed and rep.max_deviation < 1e-6

    def test_ws_monte_carlo_suite(self):
        rep = fw.born_suite_pairs(make_ws(3), 5, seed=3, engine=mc(100_000))
        assert rep.passed

    def test_reports_are_reproducible(self):
        a = fw.born_suite_pairs(make_bell2(), 4, seed=8, engine=mc(20_000))
        b = fw.born_suite_pairs(make_bell2(), 4, seed=8, engine=mc(20_000))
        assert a.to_jsonable() == b.to_jsonable()

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            fw.verify_born(make_ks(), [], [], QUAD)


class TestCertaintyAndChain:
    @pytest.mark.parametrize("build", [make_ks, lambda: make_bb(3), make_bell2, lambda: make_ws(3)])
    def test_certainty_passes(self, build):
        model = build()
        psi = random_state(model.dim, np.random.default_rng(14))
        res = fw.check_quantum_certainty(model, psi, n_samples=4000, seed=2)
        assert res.passed, res.witness

    @pytest.mark.parametrize("build", [make_ks, lambda: make_bb(3), make_bell2, lambda: make_ws(3)])
    def test_support_chain_passes(self, build):
        model = build()
        psi = random_state(model.dim, np.random.default_rng(15))
        res = fw.check_support_chain(model, psi, n_samples=4000, seed=2)
        assert res.passed, res.witness

    def test_shrunken_core_fails_certainty_with_witness(self):
        broken = shrunken_core_ks()
        res = fw.check_quantum_certainty(broken, state(1, 1), n_samples=2000, seed=4)
        assert not res.passed
        assert res.witness is not None
        assert fw.replay_witness(broken, res.witness)

    def test_shrunken_core_fails_chain_with_witness(self):
        broken = shrunken_core_ks()
        res = fw.check_support_chain(broken, state(1, 1), n_samples=2000, seed=4)
        assert not res.passed
        assert fw.replay_witness(broken, res.witness)

    def test_certainty_witness_replays_under_its_own_context(self):
        # The response halves unless the outcome leads the basis, so the
        # failure shows only under the caller's reordered basis; replay
        # must reuse that basis, not the default completion of psi.
        ks = make_ks()
        inner = ks.respond.evaluate

        def evaluate(phi, pts, sm):
            lead = sm.payload[0].same_ray(phi, atol=1e-12)
            return inner(phi, pts, sm) * (1.0 if lead else 0.5)

        model = dataclasses.replace(
            ks, respond=dataclasses.replace(ks.respond, evaluate=evaluate)
        )
        psi = state(1, 1)
        b = complete_basis(psi)
        sm = fw.MeasContext("swapped", (b[1], b[0]))
        res = fw.check_quantum_certainty(model, psi, sm=sm, n_samples=2000, seed=4)
        assert not res.passed
        assert fw.replay_witness(model, res.witness)

    def test_tampered_witness_replay_fails(self):
        broken = shrunken_core_ks()
        res = fw.check_quantum_certainty(broken, state(1, 1), n_samples=2000, seed=4)
        wit = dict(res.witness)
        wit["point"] = [0.0, 0.0, 1.0]
        assert not fw.replay_witness(broken, wit)


class TestOverlapFraction:
    def test_ks_is_one(self):
        ks = make_ks()
        rng = np.random.default_rng(31)
        for _ in range(10):
            phi, psi = random_state(2, rng), random_state(2, rng)
            if fw.born_probability(phi, psi) < 0.05:
                continue
            est = fw.overlap_fraction(ks, phi, psi, QUAD)
            assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_bb_disjoint_supports_give_zero(self):
        bb = make_bb(2)
        est = fw.overlap_fraction(bb, state(1, 1), basis_state(2, 0), CLOSED)
        assert est.value == 0.0

    def test_orthogonal_pair_rejected(self):
        with pytest.raises(OrthogonalPairError):
            fw.overlap_fraction(make_ks(), basis_state(2, 0), basis_state(2, 1), QUAD)

    def test_overlap_mass_below_prediction(self):
        # The support integral can never exceed the predicted probability.
        ks = make_ks()
        rng = np.random.default_rng(7)
        for _ in range(10):
            phi, psi = random_state(2, rng), random_state(2, rng)
            born = fw.born_probability(phi, psi)
            if born < 0.05:
                continue
            est = fw.overlap_fraction(ks, phi, psi, QUAD)
            pred = fw.predict_probability(ks, psi, phi, None, QUAD)
            assert est.value * born <= pred.value + 2e-6


class TestMaximalEpistemicity:
    def test_ks_confirmed(self):
        res = fw.is_maximally_epistemic(make_ks(), n_pairs=10, seed=5)
        assert res.status.value == "confirmed_analytic"
        assert min(res.fractions) == pytest.approx(1.0, abs=1e-6)

    def test_bb_falsified_with_zero_fraction(self):
        res = fw.is_maximally_epistemic(make_bb(3), n_pairs=5, seed=5)
        assert res.status.value == "falsified"
        assert res.status.witness["fraction"] == 0.0

    def test_ws_falsified(self):
        res = fw.is_maximally_epistemic(make_ws(3), n_pairs=5, seed=5)
        assert res.status.value == "falsified"

    def test_characterization_cross_check_detects_lies(self):
        # KS relabeled as indeterministic: overlap fractions still hit 1,
        # contradicting the reciprocity+determinism characterization.
        ks = make_ks()
        lying = dataclasses.replace(
            ks, declared=dataclasses.replace(ks.declared, outcome_deterministic=False)
        )
        with pytest.raises(ModelConsistencyError):
            fw.is_maximally_epistemic(lying, n_pairs=4, seed=5)


class TestClassify:
    @pytest.mark.parametrize(
        "build,row",
        [
            (lambda: make_bb(3), ("yes", "no", "no")),
            (make_ks, ("yes", "yes", "no")),
            (make_bell2, ("no", "yes", "no")),
            (lambda: make_ws(3), ("no", "yes", "yes")),
        ],
    )
    def test_table_rows(self, build, row):
        model = build()
        rep = fw.classify(model, n_trials=2048, seed=11)
        got = rep.table_row()
        assert (got["reciprocity"], got["determinism"], got["contextual"]) == row
        assert rep.matches_declared(model.declared)

    def test_claims_cover_the_predicates_in_order(self):
        for model in table_models():
            assert tuple(model.declared.claims()) == fw.PREDICATES, model.name

    def test_deficiency_is_derived(self):
        assert fw.classify(make_ks(), n_trials=1024, seed=1).deficient is False
        assert fw.classify(make_bb(3), n_trials=1024, seed=1).deficient is True
        assert fw.classify(make_bell2(), n_trials=1024, seed=1).deficient is True

    def test_falsified_witnesses_replay(self):
        model = make_ws(3)
        rep = fw.classify(model, n_trials=2048, seed=11)
        replayed = 0
        for st in rep.predicates.values():
            if st.witness is not None:
                assert fw.replay_witness(model, st.witness)
                replayed += 1
        assert replayed >= 3

    def test_witnesses_read_back_from_json_replay(self):
        # A report prints floats to 12 digits; replay must still accept
        # the witness as read back, and reject one with another row or seed.
        model = make_ws(3)
        rep = fw.classify(model, n_trials=1024, seed=11)
        witnesses = [
            json.loads(canonical_json(st.witness))
            for st in rep.predicates.values()
            if st.witness is not None
        ]
        assert len(witnesses) == 4
        for wit in witnesses:
            assert fw.replay_witness(model, wit), wit["kind"]
            if "row" in wit:
                assert not fw.replay_witness(model, {**wit, "row": wit["row"] + 1})
                assert not fw.replay_witness(model, {**wit, "seed": wit["seed"] + 1})

    def test_report_json_shape(self):
        rep = fw.classify(make_ks(), n_trials=512, seed=11)
        data = rep.to_jsonable()
        assert data["model"] == "ks" and data["dim"] == 2
        assert set(data["predicates"]) == set(fw.PREDICATES)
        for entry in data["predicates"].values():
            assert entry["status"] in {
                "confirmed_analytic", "falsified", "not_falsified", "not_applicable",
            }

    def test_determinism_verdict_engine_independent(self):
        # The verdict comes from sampled predicates, not from integrals,
        # so quadrature-capable and Monte-Carlo-only models agree on it
        # regardless of their default engines.
        for build in (make_ks, make_bell2, lambda: make_ws(3)):
            model = build()
            a = fw.classify(model, n_trials=1024, seed=3)
            b = fw.classify(model, n_trials=1024, seed=4)
            assert (
                a.predicates["outcome_determinism"].holds
                == b.predicates["outcome_determinism"].holds
            )


WITNESS_COORDS = (
    "kind", "trial", "block", "row", "block_size", "variation", "failure", "stage",
)


def witness_coords(witness):
    """The integer and string fields of a witness: where the probe found
    its counterexample, independent of floating-point detail."""
    if witness is None:
        return None
    return {k: witness[k] for k in WITNESS_COORDS if k in witness}


CONFIRMED = ("confirmed_analytic", None)
PREP_CONTEXT = ("falsified", {"kind": "preparation_context"})

GOLDEN_CLASSIFY = {
    "bb:3": {
        "reciprocity": CONFIRMED,
        "outcome_determinism": ("falsified", {
            "kind": "determinism", "trial": 0, "row": 0, "block_size": 256,
            "failure": "not-binary",
        }),
        "measurement_noncontextuality": CONFIRMED,
        "preparation_noncontextuality": PREP_CONTEXT,
        "response_state_independence": ("not_applicable", None),
    },
    "ks": {
        "reciprocity": CONFIRMED,
        "outcome_determinism": CONFIRMED,
        "measurement_noncontextuality": CONFIRMED,
        "preparation_noncontextuality": PREP_CONTEXT,
        "response_state_independence": CONFIRMED,
    },
    "bell2": {
        "reciprocity": ("falsified", {
            "kind": "reciprocity", "trial": 0, "row": 1, "block_size": 256,
        }),
        "outcome_determinism": CONFIRMED,
        "measurement_noncontextuality": CONFIRMED,
        "preparation_noncontextuality": PREP_CONTEXT,
        "response_state_independence": ("falsified", {
            "kind": "functional_dependence", "trial": 0, "row": 4, "block_size": 128,
        }),
    },
    "ws:3": {
        "reciprocity": ("falsified", {
            "kind": "reciprocity", "trial": 0, "row": 1, "block_size": 256,
        }),
        "outcome_determinism": CONFIRMED,
        "measurement_noncontextuality": ("falsified", {
            "kind": "measurement_context", "trial": 0, "row": 5, "block_size": 128,
            "variation": "rotation",
        }),
        "preparation_noncontextuality": PREP_CONTEXT,
        "response_state_independence": ("falsified", {
            "kind": "functional_dependence", "trial": 0, "row": 1, "block_size": 128,
        }),
    },
}


class TestWitnessGolden:
    """Pinned statuses and witness coordinates at fixed seeds."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CLASSIFY))
    def test_classify(self, name):
        rep = fw.classify(get_model(name), n_trials=1024, seed=11)
        got = {
            pred: (st.value, witness_coords(st.witness))
            for pred, st in rep.predicates.items()
        }
        assert got == GOLDEN_CLASSIFY[name]

    def test_shrunken_core_checks(self):
        broken = shrunken_core_ks()
        cert = fw.check_quantum_certainty(broken, state(1, 1), n_samples=2000, seed=4)
        assert (cert.passed, cert.n_samples) == (False, 2000)
        assert witness_coords(cert.witness) == {
            "kind": "certainty", "block": 0, "row": 0, "block_size": 2000,
        }
        chain = fw.check_support_chain(broken, state(1, 1), n_samples=2000, seed=4)
        assert (chain.passed, chain.n_samples) == (False, 2000)
        assert witness_coords(chain.witness) == {
            "kind": "support_chain", "block": 0, "row": 1, "block_size": 2000,
            "stage": "core",
        }


class TestFunctionalDependence:
    def test_ks_response_never_reads_state(self):
        st = fw.functional_dependence_test(make_ks(), seed=3)
        assert st.value == "confirmed_analytic"

    def test_bb_degenerate(self):
        st = fw.functional_dependence_test(make_bb(3), seed=3)
        assert st.value == "not_applicable"

    @pytest.mark.parametrize("name", ["aaronson", "bell1"])
    def test_ontic_supplemented_stubs_cannot_be_probed(self, name):
        # Their space is composite, so the probe needs the stub's sampler.
        model = get_model(name)
        assert model.ontic_space.kind == "composite"
        with pytest.raises(NotImplementedError, match="declared-only stub"):
            fw.functional_dependence_test(model, seed=3)

    def test_ontic_complete_stub_needs_no_probe(self):
        st = fw.functional_dependence_test(get_model("aerts"), seed=3)
        assert st.value == "not_applicable" and st.n_trials == 0

    @pytest.mark.parametrize("build", [make_bell2, lambda: make_ws(3)], ids=["bell2", "ws:3"])
    def test_register_models_are_functionally_ontic(self, build):
        model = build()
        st = fw.functional_dependence_test(model, seed=3)
        assert st.value == "falsified"
        assert fw.replay_witness(model, st.witness)


class TestPrepContext:
    def test_ks_mixture_distance_golden(self):
        ks = make_ks()
        ctx_a, ctx_b = fw.canonical_mix_contexts(2)
        tv = fw.prep_context_distance(ks, mix(ctx_a.payload), ctx_a, ctx_b, QUAD)
        assert tv == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)

    @pytest.mark.parametrize("level", [15, 17, 25, 33])
    def test_ks_mixture_distance_at_every_level(self, level):
        ctx_a, ctx_b = fw.canonical_mix_contexts(2)
        tv = fw.prep_context_distance(
            make_ks(), mix(ctx_a.payload), ctx_a, ctx_b, parse_engine(f"quad:{level}")
        )
        assert abs(tv - (math.sqrt(2.0) - 1.0)) <= 1e-13

    def test_monte_carlo_distance_is_near_the_exact_value(self):
        # The reference mass is 4 pi; without it the estimate reads 0.033.
        ctx_a, ctx_b = fw.canonical_mix_contexts(2)
        tv = fw.prep_context_distance(
            make_ks(), mix(ctx_a.payload), ctx_a, ctx_b, parse_engine("mc:200000")
        )
        assert abs(tv - (math.sqrt(2.0) - 1.0)) <= 0.01

    def test_quadrature_refuses_a_space_that_is_not_a_sphere(self):
        ks = make_ks()
        flat = dataclasses.replace(
            ks, ontic_space=dataclasses.replace(ks.ontic_space, kind="finite")
        )
        ctx_a, ctx_b = fw.canonical_mix_contexts(2)
        with pytest.raises(EngineError):
            fw.prep_context_distance(flat, mix(ctx_a.payload), ctx_a, ctx_b, QUAD)

    def test_same_context_distance_is_zero(self):
        ks = make_ks()
        ctx_a, _ = fw.canonical_mix_contexts(2)
        tv = fw.prep_context_distance(ks, mix(ctx_a.payload), ctx_a, ctx_a, QUAD)
        assert tv == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_mixtures_fully_distinguishable(self):
        bb = make_bb(2)
        ctx_a, ctx_b = fw.canonical_mix_contexts(2)
        tv = fw.prep_context_distance(bb, mix(ctx_a.payload), ctx_a, ctx_b, CLOSED)
        assert tv == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_preparation_rejected(self):
        ks = make_ks()
        ctx_a, ctx_b = fw.canonical_mix_contexts(2)
        wrong = DensityOperator(np.diag([0.9, 0.1]))
        with pytest.raises(PreparationMismatchError):
            fw.prep_context_distance(ks, wrong, ctx_a, ctx_b, QUAD)

    def test_context_needs_decomposition_payload(self):
        ks = make_ks()
        ctx_a, _ = fw.canonical_mix_contexts(2)
        bare = fw.PrepContext("bare")
        with pytest.raises(PreparationMismatchError):
            fw.prep_context_distance(ks, mix(ctx_a.payload), ctx_a, bare, QUAD)

    def test_unequal_weights_still_compare(self):
        ks = make_ks()
        rho = DensityOperator(np.diag([0.75, 0.25]))
        dec_z = Decomposition(((0.75, basis_state(2, 0)), (0.25, basis_state(2, 1))))
        ctx = fw.PrepContext("z-weighted", dec_z)
        tv = fw.prep_context_distance(ks, rho, ctx, ctx, QUAD)
        assert tv == pytest.approx(0.0, abs=1e-12)


class TestConsistencyTheorem:
    def test_zoo_passes(self):
        models = [make_bb(3), make_ks(), make_bell2(), make_ws(3)]
        rep = fw.ks_om_consistency(models, n_trials=1024, seed=9)
        assert rep.passed
        assert set(rep.skipped) == {"ks", "bell2"}
        assert {e.model for e in rep.entries} == {"bb:3", "ws:3"}

    def test_fake_deterministic_noncontextual_model_fails(self):
        rep = fw.ks_om_consistency([fake_flat_model(3)], n_trials=1024, seed=9)
        assert not rep.passed

    def test_d2_only_zoo_is_vacuous(self):
        rep = fw.ks_om_consistency([make_ks(), make_bell2()], n_trials=256, seed=9)
        assert rep.passed and not rep.entries


class TestMixedPreparations:
    """Mixed preparations exist only inside prep_context_distance."""

    @pytest.mark.parametrize("spec", ["closed", "quad:17", "mc:1000"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bb_distance_is_the_decomposition_tv(self, d, spec):
        bb = make_bb(d)
        ctx_a, ctx_b = fw.canonical_mix_contexts(d)
        tv = fw.prep_context_distance(bb, mix(ctx_a.payload), ctx_a, ctx_b, parse_engine(spec))
        assert tv == _decomposition_tv(ctx_a.payload, ctx_b.payload)

    def test_prepare_rejects_a_decomposition(self):
        ctx_a, _ = fw.canonical_mix_contexts(2)
        with pytest.raises(TypeError):
            make_bb(2).prepare(ctx_a.payload)
