"""Model-independent machinery: prediction, checks, classification, replay."""

import dataclasses
import json
import math

import numpy as np
import pytest

from ontomodels import framework as fw
from ontomodels.engines import EngineError, parse_engine
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
from ontomodels.zoo import get_model, make_bb, make_bell2, make_ks, make_ws

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
        est = fw.predict_probability(ks, psi, None, psi, None, QUAD)
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_ks_orthogonal_bloch_axes(self):
        ks = make_ks()
        est = fw.predict_probability(ks, basis_state(2, 0), None, state(1, 1), None, QUAD)
        assert est.value == pytest.approx(0.5, abs=1e-6)

    def test_bb_closed_form_is_born(self):
        bb = make_bb(3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            psi, phi = random_state(3, rng), random_state(3, rng)
            est = fw.predict_probability(bb, psi, None, phi, None, CLOSED)
            assert est.value == pytest.approx(
                fw.born_probability(phi, psi), abs=1e-12
            )

    def test_unsupported_dim_rejected(self):
        with pytest.raises(UnsupportedDimensionError):
            fw.predict_probability(
                make_bb(2), basis_state(3, 0), None, basis_state(3, 1), None, CLOSED
            )

    def test_ks_has_no_closed_form(self):
        with pytest.raises(EngineError):
            fw.predict_probability(
                make_ks(), basis_state(2, 0), None, state(1, 1), None, CLOSED
            )

    def test_quadrature_rejects_composite_spaces(self):
        with pytest.raises(EngineError):
            fw.predict_probability(
                make_bell2(), basis_state(2, 0), None, state(1, 1), None, QUAD
            )

    def test_monte_carlo_reports_standard_error(self):
        est = fw.predict_probability(
            make_bell2(), basis_state(2, 0), None, state(1, 1), None, mc(20_000)
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
            pred = fw.predict_probability(ks, psi, None, phi, None, QUAD)
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

    @pytest.mark.parametrize("build", [make_bell2, lambda: make_ws(3)])
    def test_state_register_models_are_functionally_ontic(self, build):
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


class TestMixtures:
    def test_mixture_density_normalized(self):
        ks = make_ks()
        ctx_a, _ = fw.canonical_mix_contexts(2)
        mu = ks.prepare(ctx_a.payload, ctx_a)
        total = QUAD.integrate(mu.density, mu.split_axes)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_mixture_sampler_lands_in_support(self):
        ks = make_ks()
        ctx_a, _ = fw.canonical_mix_contexts(2)
        mu = ks.prepare(ctx_a.payload, ctx_a)
        from ontomodels.rng import stream

        pts = mu.sampler(stream(5, "mixtest"), 2000)
        assert np.all(mu.support(pts))

    def test_point_mass_mixture_weights(self):
        bb = make_bb(2)
        ctx_a, _ = fw.canonical_mix_contexts(2)
        mu = bb.prepare(ctx_a.payload, ctx_a)
        atoms, weights = mu.point_masses
        assert atoms.shape == (2, 2)
        assert weights.sum() == pytest.approx(1.0)
