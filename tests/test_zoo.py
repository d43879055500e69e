"""Concrete models: pinned examples, declared rows, registry."""

import math
import tracemalloc

import numpy as np
import pytest

from ontomodels import framework as fw
from ontomodels import zoo
from ontomodels.engines import MC_BLOCK, parse_engine
from ontomodels.framework import MeasContext, UnsupportedDimensionError
from ontomodels.hilbert import (
    basis_state,
    complete_basis,
    fidelity_rows,
    random_state,
    state,
)
from ontomodels.rng import stream
from ontomodels.zoo import (
    CHUNK_ROWS,
    TABLE_ORDER,
    UnknownModelError,
    get_model,
    make_bb,
    make_bell2,
    make_ks,
    make_ws,
    table_models,
)
from test_cli import EXPECTED_TABLE

QUAD = parse_engine("quad:17")
CLOSED = parse_engine("closed")


class TestRegistry:
    def test_known_names(self):
        assert get_model("ks").name == "ks"
        assert get_model("bb:3").dim == 3
        assert get_model("bb").dim == 2
        assert get_model("ws").dim == 3
        assert get_model("ws:4").dim == 4

    def test_fixed_dim_models_reject_other_dims(self):
        with pytest.raises(UnsupportedDimensionError):
            get_model("ks:3")
        with pytest.raises(UnsupportedDimensionError):
            get_model("bell2:3")

    MALFORMED = {
        "": (UnknownModelError, "unknown model ''"),
        "kss": (UnknownModelError, "unknown model 'kss'"),
        "bb:x": (UnknownModelError, "unknown model 'bb:x'"),
        "bb:1": (UnsupportedDimensionError, "dimension must be at least 2"),
        "bb:2:3": (UnknownModelError, "unknown model 'bb:2:3'"),
    }

    @pytest.mark.parametrize("bad", list(MALFORMED))
    def test_rejects_malformed(self, bad):
        error, message = self.MALFORMED[bad]
        with pytest.raises(error) as info:
            get_model(bad)
        assert str(info.value) == message

    def test_table_has_seven_rows(self):
        models = table_models()
        assert [m.name.split(":")[0] for m in models] == list(TABLE_ORDER)
        assert sum(1 for m in models if m.implemented) == 4

    def test_stubs_cannot_run(self):
        stub = get_model("aaronson")
        assert not stub.implemented
        with pytest.raises(NotImplementedError):
            stub.prepare(basis_state(2, 0))


class TestBB:
    def test_prediction_is_born_exactly(self):
        bb = make_bb(4)
        rng = np.random.default_rng(1)
        psi, phi = random_state(4, rng), random_state(4, rng)
        est = fw.predict_probability(bb, psi, phi, None, CLOSED)
        assert est.value == pytest.approx(fw.born_probability(phi, psi), abs=1e-12)

    def test_overlap_zero_for_distinct_states(self):
        est = fw.overlap_fraction(make_bb(2), state(1, 1), basis_state(2, 0), CLOSED)
        assert est.value == 0.0

    def test_certainty_exact_on_the_single_atom(self):
        res = fw.check_quantum_certainty(make_bb(3), random_state(3, np.random.default_rng(2)))
        assert res.passed and res.n_samples == 1


class TestKS:
    def test_density_normalized_for_random_states(self):
        ks = make_ks()
        rng = np.random.default_rng(3)
        for _ in range(25):
            mu = ks.prepare(random_state(2, rng))
            assert QUAD.integrate(mu.density, mu.split_axes) == pytest.approx(
                1.0, abs=1e-6
            )

    def test_sampler_lands_in_support(self):
        ks = make_ks()
        mu = ks.prepare(state(1, 1j))
        pts = mu.sampler(stream(7, "kstest"), 5000)
        assert np.all(mu.support(pts))
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_aligned_and_antipodal_probabilities(self):
        ks = make_ks()
        psi = state(1, 1)
        opp = complete_basis(psi)[1]
        assert fw.predict_probability(ks, psi, psi, None, QUAD).value == pytest.approx(1.0, abs=1e-6)
        assert fw.predict_probability(ks, psi, opp, None, QUAD).value == pytest.approx(0.0, abs=1e-6)

    def test_overlap_fraction_is_one_on_many_pairs(self):
        ks = make_ks()
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 30:
            phi, psi = random_state(2, rng), random_state(2, rng)
            if fw.born_probability(phi, psi) < 0.05:
                continue
            est = fw.overlap_fraction(ks, phi, psi, QUAD)
            assert abs(est.value - 1.0) < 1e-6
            checked += 1

    def test_response_ignores_measurement_payload(self):
        ks = make_ks()
        phi = state(1, 1j)
        pts = fw.measurement_of(phi)  # canonical payload
        alt = MeasContext("reversed", tuple(reversed(pts.payload)))
        lam = ks.ontic_space.reference_sampler(stream(9, "ctx"), 500)
        a = ks.respond.evaluate(phi, lam, pts)
        b = ks.respond.evaluate(phi, lam, alt)
        assert np.array_equal(a, b)


class TestBell2:
    def test_threshold_examples(self):
        # Outcome probability 0.3 for the thresholded state: x = 0.2 fires
        # it, x = 0.9 fires the partner.
        bell2 = make_bell2()
        p = 0.3
        b1 = state(math.sqrt(p), math.sqrt(1.0 - p))   # bloch x > 0: ordered first
        b2 = complete_basis(b1)[1]
        sm = MeasContext("pair", (b1, b2))
        psi = basis_state(2, 0)  # |<b1|0>|^2 = p
        chi = np.tile(psi.amplitudes, (2, 1))
        x = np.array([0.2, 0.9])
        vals = bell2.respond.evaluate(b1, (chi, x), sm)
        assert vals.tolist() == [1.0, 0.0]
        vals2 = bell2.respond.evaluate(b2, (chi, x), sm)
        assert vals2.tolist() == [0.0, 1.0]

    def test_prepared_state_always_fires_itself(self):
        bell2 = make_bell2()
        psi = random_state(2, np.random.default_rng(6))
        res = fw.check_quantum_certainty(bell2, psi, n_samples=5000, seed=3)
        assert res.passed

    def test_basis_order_does_not_matter(self):
        bell2 = make_bell2()
        psi, phi = random_state(2, np.random.default_rng(8)), state(1, 1)
        basis = (phi, complete_basis(phi)[1])
        fwd = MeasContext("fwd", basis)
        rev = MeasContext("rev", tuple(reversed(basis)))
        batch = bell2.prepare(psi).sampler(stream(11, "b2"), 1000)
        assert np.array_equal(
            bell2.respond.evaluate(phi, batch, fwd),
            bell2.respond.evaluate(phi, batch, rev),
        )

    def test_monte_carlo_born(self):
        rep = fw.born_suite_pairs(make_bell2(), 10, seed=13, engine=parse_engine("mc:200000"))
        assert rep.passed


class TestWS:
    def test_ratio_example(self):
        # amplitudes (0.8, 0.6), auxiliary (1.0, 2.0): ratios (0.8, 0.3),
        # so the first basis outcome fires.
        ws = make_ws(2)
        sm = MeasContext("std", (basis_state(2, 0), basis_state(2, 1)))
        chi = np.array([[0.8, 0.6]], dtype=complex)
        omega = np.array([[1.0, 2.0]], dtype=complex)
        assert ws.respond.evaluate(basis_state(2, 0), (chi, omega), sm)[0] == 1.0
        assert ws.respond.evaluate(basis_state(2, 1), (chi, omega), sm)[0] == 0.0

    def test_basis_state_is_certain(self):
        ws = make_ws(3)
        psi = basis_state(3, 1)
        sm = MeasContext("std", tuple(basis_state(3, k) for k in range(3)))
        g = stream(17, "wstest")
        batch = ws.prepare(psi).sampler(g, 5000)
        vals = ws.respond.evaluate(psi, batch, sm)
        assert np.all(vals == 1.0)

    def test_zero_auxiliary_component_wins(self):
        # b_i = 0 with a_i != 0 is an infinite ratio and must win.
        ws = make_ws(2)
        sm = MeasContext("std", (basis_state(2, 0), basis_state(2, 1)))
        chi = np.array([[0.6, 0.8]], dtype=complex)
        omega = np.array([[0.0, 1.0]], dtype=complex)
        assert ws.respond.evaluate(basis_state(2, 0), (chi, omega), sm)[0] == 1.0

    def test_dead_ratio_loses(self):
        # a_i = b_i = 0 counts as ratio 0.
        ws = make_ws(2)
        sm = MeasContext("std", (basis_state(2, 0), basis_state(2, 1)))
        chi = np.array([[0.0, 1.0]], dtype=complex)
        omega = np.array([[0.0, 1.0]], dtype=complex)
        assert ws.respond.evaluate(basis_state(2, 1), (chi, omega), sm)[0] == 1.0

    def test_response_two_valued_on_a_million_triples(self):
        ws = make_ws(3)
        g = stream(23, "ws-binary")
        batch = ws.ontic_space.reference_sampler(g, 1_000_000)
        phi = random_state(3, g)
        sm = fw.measurement_of(phi)
        vals = ws.respond.evaluate(phi, batch, sm)
        assert np.all((vals == 0.0) | (vals == 1.0))

    def test_complement_rotation_flips_outcomes(self):
        ws = make_ws(3)
        rep = fw.classify(ws, n_trials=2048, seed=19)
        wit = rep.predicates["measurement_noncontextuality"].witness
        assert wit is not None and wit["variation"] == "rotation"

    def test_monte_carlo_born(self):
        rep = fw.born_suite_pairs(make_ws(3), 5, seed=13, engine=parse_engine("mc:200000"))
        assert rep.passed


class TestStateRegister:
    """A prepared point mass in a state register is one read-only row
    broadcast over the batch; responses compute its products once and
    must decide exactly as on a materialized copy."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [1, 2, 7, 31])
    def test_gauss_is_bit_identical_to_the_sum_form(self, d, seed):
        m = 4099
        psi = random_state(d, np.random.default_rng(seed))
        _, omega = make_ws(d).prepare(psi).sampler(stream(seed, "gauss"), m)
        g = stream(seed, "gauss")
        ref = (g.normal(size=(m, d)) + 1j * g.normal(size=(m, d))) / math.sqrt(2.0)
        assert omega.shape == ref.shape and omega.dtype == ref.dtype
        assert np.array_equal(omega.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("model", [make_ws(3), make_bell2()], ids=["ws:3", "bell2"])
    def test_prepared_and_replaced_registers_are_zero_stride_views(self, model):
        g = np.random.default_rng(4)
        psi, psi2 = random_state(model.dim, g), random_state(model.dim, g)
        batch = model.prepare(psi).sampler(stream(4, "reg"), 100)
        swapped = (fw.register(psi2, 100), batch[1])
        for reg, s in ((batch[0], psi), (swapped[0], psi2)):
            assert reg.shape == (100, model.dim) and reg.strides[0] == 0
            assert not reg.flags.writeable
            assert np.array_equal(reg, np.tile(s.amplitudes, (100, 1)))
        assert swapped[1] is batch[1]

    @staticmethod
    def _same_decisions(model, basis, batch):
        chi, aux = batch
        tiled = (np.tile(chi[0], (chi.shape[0], 1)), aux)
        assert chi.strides[0] == 0
        sm = MeasContext("basis", tuple(basis))
        for phi in basis:
            view = model.respond.core(phi, batch, sm)
            copy = model.respond.core(phi, tiled, sm)
            assert view.shape == (chi.shape[0],)
            assert np.array_equal(view, copy)

    @pytest.mark.parametrize("d", [2, 3, 6])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_ws_register_view_decides_like_a_copy(self, d, seed):
        ws = make_ws(d)
        g = np.random.default_rng(seed)
        psi = random_state(d, g)
        basis = fw.measurement_of(random_state(d, g)).payload
        self._same_decisions(ws, basis, ws.prepare(psi).sampler(stream(seed, "ws"), 20_000))

    def test_ws_register_view_keeps_the_zero_and_infinite_ratios(self):
        # The prepared state misses outcome 0: a zero auxiliary amplitude
        # there is 0/0 (ratio 0), one at outcome 1 or 2 is infinite (wins).
        ws = make_ws(3)
        psi = state(0, 0.6, 0.8)
        basis = [basis_state(3, k) for k in range(3)]
        chi, omega = ws.prepare(psi).sampler(stream(5, "ws-edge"), 6)
        omega = omega.copy()
        omega[0, 0] = 0.0
        omega[1, 1] = 0.0
        omega[2, 2] = 0.0
        omega[3, :2] = 0.0
        omega[4, :] = 0.0
        self._same_decisions(ws, basis, (chi, omega))
        sm = MeasContext("std", tuple(basis))
        won = [ws.respond.core(b, (chi, omega), sm) for b in basis]
        assert won[1][1] and won[2][2] and won[1][3] and won[1][4]
        assert not won[0][:5].any()

    @pytest.mark.parametrize("seed", [3, 8, 12])
    def test_bell2_register_view_decides_like_a_copy(self, seed):
        bell2 = make_bell2()
        g = np.random.default_rng(seed)
        psi, phi = random_state(2, g), random_state(2, g)
        basis = (phi, complete_basis(phi)[1])
        chi, x = bell2.prepare(psi).sampler(stream(seed, "b2"), 20_000)
        # x on the threshold itself resolves toward the second outcome.
        p = np.abs(np.array([np.vdot(b.amplitudes, psi.amplitudes) for b in basis])) ** 2
        x = np.concatenate([x, p, [0.0, 1.0]])
        chi = np.broadcast_to(chi[0], (x.shape[0], 2))
        self._same_decisions(bell2, basis, (chi, x))

    def test_bell2_register_view_on_a_basis_state(self):
        bell2 = make_bell2()
        basis = (basis_state(2, 0), basis_state(2, 1))
        chi, _ = bell2.prepare(basis[1]).sampler(stream(2, "b2-edge"), 3)
        self._same_decisions(bell2, basis, (chi, np.array([0.0, 0.5, 1.0])))


class TestEvaluateAll:
    """A basis is scored on one batch: the evaluate_all of ws (one argmax)
    and of bell2 (one threshold test) have the bits of evaluate stacked
    outcome by outcome."""

    @staticmethod
    def _stacked(model, batch, sm):
        return np.stack([model.respond.evaluate(phi, batch, sm) for phi in sm.payload], axis=1)

    def _same_as_stacked(self, model, batch, sm):
        got = model.respond.evaluate_all(batch, sm)
        want = self._stacked(model, batch, sm)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        return got

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_ws_matches_stacked_evaluate(self, d, seed):
        ws = make_ws(d)
        g = np.random.default_rng(seed)
        psi = random_state(d, g)
        sm = fw.measurement_of(random_state(d, g))
        batch = ws.prepare(psi).sampler(stream(seed, "ws-all"), 5_000)
        vals = self._same_as_stacked(ws, batch, sm)
        assert np.array_equal(vals.sum(axis=1), np.ones(5_000))

    def test_ws_keeps_the_zero_and_infinite_ratios(self):
        # Outcome 0 misses the prepared state: a zero auxiliary amplitude
        # there is 0/0 (ratio 0), one at outcome 1 or 2 is infinite (wins).
        ws = make_ws(3)
        chi, omega = ws.prepare(state(0, 0.6, 0.8)).sampler(stream(5, "ws-edge"), 6)
        omega = omega.copy()
        omega[0, 0] = omega[1, 1] = omega[2, 2] = 0.0
        omega[3, :2] = 0.0
        omega[4, :] = 0.0
        sm = MeasContext("std", tuple(basis_state(3, k) for k in range(3)))
        vals = self._same_as_stacked(ws, (chi, omega), sm)
        assert vals[1, 1] == vals[2, 2] == vals[3, 1] == vals[4, 1] == 1.0
        assert not vals[:5, 0].any()

    @pytest.mark.parametrize("seed", [3, 8, 12])
    def test_bell2_basis_rows_hit_one_outcome(self, seed):
        # bell2 scores a basis with evaluate stacked per outcome; its two
        # threshold tests are complementary, so each draw hits one outcome.
        bell2 = make_bell2()
        g = np.random.default_rng(seed)
        psi, phi = random_state(2, g), random_state(2, g)
        chi, x = bell2.prepare(psi).sampler(stream(seed, "b2-all"), 5_000)
        for basis in ((phi, complete_basis(phi)[1]), (complete_basis(phi)[1], phi)):
            # x on either threshold itself, and at both ends of [0, 1].
            p = np.abs(np.array([np.vdot(b.amplitudes, psi.amplitudes) for b in basis])) ** 2
            xs = np.concatenate([x, p, [0.0, 1.0]])
            batch = (np.broadcast_to(chi[0], (xs.shape[0], 2)), xs)
            vals = bell2.respond.evaluate_basis(batch, MeasContext("b", basis))
            assert np.array_equal(vals.sum(axis=1), np.ones(xs.shape[0]))

    @pytest.mark.parametrize("seed", [3, 8, 12])
    def test_bell2_matches_stacked_evaluate(self, seed):
        bell2 = make_bell2()
        g = np.random.default_rng(seed)
        psi, phi = random_state(2, g), random_state(2, g)
        chi, x = bell2.prepare(psi).sampler(stream(seed, "b2-all"), 5_000)
        full, y = bell2.ontic_space.reference_sampler(stream(seed, "b2-ref"), 5_000)
        for basis in ((phi, complete_basis(phi)[1]), (complete_basis(phi)[1], phi)):
            sm = MeasContext("b", basis)
            # x exactly on either threshold, and at both ends of [0, 1].
            p = np.concatenate([fidelity_rows(chi[:1], b) for b in basis])
            xs = np.concatenate([x, p, [0.0, 1.0]])
            self._same_as_stacked(bell2, (np.broadcast_to(chi[0], (xs.shape[0], 2)), xs), sm)
            ys = y.copy()
            ys[:100] = fidelity_rows(full[:100], basis[0])
            ys[100:200] = fidelity_rows(full[100:200], basis[1])
            ys[200], ys[201] = 0.0, 1.0
            self._same_as_stacked(bell2, (full, ys), sm)

    @pytest.mark.parametrize("name", ["bell2", "ws:3", "ws:6"])
    def test_basis_hit_counts_sum_to_n(self, name):
        model = get_model(name)
        n = 70_001
        g = np.random.default_rng(4)
        psi = random_state(model.dim, g)
        sm = fw.measurement_of(random_state(model.dim, g))
        ests = fw.predict_basis(model, psi, sm, parse_engine(f"mc:{n}", seed=9))
        hits = [e.value * n for e in ests]
        assert all(h == round(h) for h in hits)
        assert sum(round(h) for h in hits) == n

    def test_block_stream_regenerates_a_basis_batch(self):
        # Sample i of a basis is row i % MC_BLOCK of the batch its sampler
        # draws from block_stream(i // MC_BLOCK, "predict", model, state, basis).
        ws = make_ws(3)
        g = np.random.default_rng(6)
        psi = random_state(3, g)
        sm = fw.measurement_of(random_state(3, g))
        mc = parse_engine(f"mc:{MC_BLOCK + 999}", seed=2)
        ests = fw.predict_basis(ws, psi, sm, mc)
        mu = ws.prepare(psi)
        hits = sum(
            ws.respond.evaluate_all(
                mu.sampler(mc.block_stream(j, "predict", ws.name, mu.label, sm.label), m), sm
            ).sum(axis=0)
            for j, m in mc.blocks()
        )
        assert [e.value for e in ests] == (hits / mc.n_samples).tolist()


def _whole_block_winners(chi, omega, basis):
    """The ws scorer on a whole batch at once: the ratio argmax with 0/0
    as 0, and the products |omega @ basis_h| it ranks."""
    basis_h = np.stack([b.amplitudes for b in basis]).conj().T
    a = np.abs((chi[:1] if chi.strides[0] == 0 else chi) @ basis_h)
    prod = np.abs(omega @ basis_h)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = a / prod
    r[np.isnan(r)] = 0.0
    return np.argmax(r, axis=1), prod


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestChunkedBlock:
    """ws draws and scores a block CHUNK_ROWS rows at a time, with the bits
    of drawing and scoring the whole block at once."""

    # CHUNK_ROWS + 1 and 2 * CHUNK_ROWS + 1 end in a lone row, which joins
    # the chunk before it.
    SIZES = [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1,
             2 * CHUNK_ROWS + 3, MC_BLOCK]

    @pytest.mark.parametrize("d", range(2, 8))
    @pytest.mark.parametrize("m", SIZES)
    def test_gauss_matches_one_draw_per_half(self, m, d):
        psi = random_state(d, np.random.default_rng(d))
        rng = stream(m, d, "chunked-gauss")
        _, omega = make_ws(d).prepare(psi).sampler(rng, m)
        g = stream(m, d, "chunked-gauss")
        ref = (g.normal(size=(m, d)) + 1j * g.normal(size=(m, d))) / math.sqrt(2.0)
        assert np.array_equal(_bits(omega), _bits(ref))
        assert rng.random() == g.random()  # the stream is left where one draw leaves it

    @pytest.mark.parametrize("register", [True, False], ids=["register", "full"])
    @pytest.mark.parametrize("d", range(2, 8))
    @pytest.mark.parametrize("m", SIZES)
    def test_scorer_matches_the_whole_block(self, m, d, register):
        ws = make_ws(d)
        g = np.random.default_rng(m + d)
        psi = random_state(d, g)
        sm = fw.measurement_of(random_state(d, g))
        if register:
            batch = ws.prepare(psi).sampler(stream(m, d, "chunked"), m)
        else:
            batch = ws.ontic_space.reference_sampler(stream(m, d, "chunked"), m)
        chi, omega = batch
        win, prod = _whole_block_winners(chi, omega, sm.payload)
        basis_h = np.stack([b.amplitudes for b in sm.payload]).conj().T
        rows = zoo._chunks(m)
        assert rows[0].start == 0 and rows[-1].stop == m
        assert all(a.stop == b.start for a, b in zip(rows, rows[1:]))
        assert all(len(range(m)[r]) <= CHUNK_ROWS + 1 for r in rows)
        chunked = np.concatenate([np.abs(omega[r] @ basis_h) for r in rows])
        assert np.array_equal(_bits(chunked), _bits(prod))
        vals = ws.respond.evaluate_all(batch, sm)
        want = (win[:, None] == np.arange(d)).astype(float)
        assert vals.shape == want.shape and np.array_equal(_bits(vals), _bits(want))
        assert all(vals[:, k].flags.c_contiguous for k in range(d))

    @pytest.mark.parametrize("register", [True, False], ids=["register", "full"])
    @pytest.mark.parametrize("d", range(2, 8))
    def test_zero_and_infinite_ratios_on_both_sides_of_a_boundary(self, d, register):
        # The prepared state misses outcome 0: a zero auxiliary amplitude
        # there is 0/0 (ratio 0), one elsewhere is infinite and wins.
        ws = make_ws(d)
        m = 2 * CHUNK_ROWS + 3
        chi, omega = ws.prepare(state(0, *range(1, d))).sampler(stream(d, "chunk-edge"), m)
        if not register:
            chi = np.tile(chi[0], (m, 1))
        omega = omega.copy()
        c = CHUNK_ROWS
        omega[c - 1, 0] = omega[c, 0] = 0.0
        omega[c - 1, d - 1] = omega[2 * c - 1, :] = 0.0
        omega[c, 1] = omega[2 * c, 1:] = 0.0
        sm = MeasContext("std", tuple(basis_state(d, k) for k in range(d)))
        vals = ws.respond.evaluate_all((chi, omega), sm)
        win, _ = _whole_block_winners(chi, omega, sm.payload)
        assert np.array_equal(_bits(vals), _bits((win[:, None] == np.arange(d)).astype(float)))
        assert win[c - 1] == d - 1 and win[c] == 1 and win[2 * c - 1] == 1 and win[2 * c] == 1
        assert not vals[:, 0].any()

    def test_a_block_needs_chunk_sized_temporaries(self):
        # tracemalloc sees numpy's data buffers.  Drawing a ws:6 block needs
        # its own bytes plus one chunk buffer; scoring it needs its values
        # and one winner per row, not block-sized products and ratios.
        ws = make_ws(6)
        g = np.random.default_rng(2)
        mu = ws.prepare(random_state(6, g))
        sm = fw.measurement_of(random_state(6, g))
        rng = stream(2, "block-memory")
        tracemalloc.start()
        try:
            batch = mu.sampler(rng, MC_BLOCK)
            draw_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            vals = ws.respond.evaluate_basis(batch, sm)
            eval_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert draw_peak < batch[1].nbytes + CHUNK_ROWS * 6 * 8 + 0.5e6
        assert eval_peak < vals.nbytes + MC_BLOCK * np.dtype(np.intp).itemsize + 1e6


class TestDeclaredRows:
    def test_all_implemented_models_match_their_rows(self):
        for model in table_models():
            if not model.implemented:
                continue
            rep = fw.classify(model, n_trials=2048, seed=29)
            assert rep.matches_declared(model.declared), model.name

    def test_stub_rows_render_from_declarations(self):
        for name, row in EXPECTED_TABLE.items():
            cells = fw.table_cells(get_model(name).declared.claims())
            assert tuple(cells.values()) == row, name
