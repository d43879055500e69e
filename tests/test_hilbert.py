"""Quantum state arithmetic: construction, Born rule, mixing, Bloch map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomodels.hilbert import (
    BlochVector,
    Decomposition,
    DensityOperator,
    DimensionMismatchError,
    PureState,
    basis_state,
    born_probability,
    complete_basis,
    mix,
    random_state,
    state,
    state_to_bloch,
)

ATOL = 1e-12


def plus():
    return state(1, 1)


def minus():
    return state(1, -1)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            state(0, 0)

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValueError):
            PureState(np.array([np.nan, 1.0]))

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0]))

    def test_state_normalizes(self):
        s = state(3, 4j)
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < ATOL

    def test_same_ray_ignores_global_phase(self):
        a = state(1, 1j)
        b = PureState(np.exp(0.7j) * a.amplitudes)
        assert a.same_ray(b)

    def test_distinct_rays_differ(self):
        assert not state(1, 0).same_ray(state(1, 1))

    def test_amplitudes_readonly(self):
        s = state(1, 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.5


class TestBorn:
    def test_identical_states(self):
        s = state(1, 2j, -1)
        assert born_probability(s, s) == pytest.approx(1.0, abs=ATOL)

    def test_orthogonal_states(self):
        assert born_probability(basis_state(2, 0), basis_state(2, 1)) == 0.0

    def test_plus_z_half(self):
        assert born_probability(plus(), basis_state(2, 0)) == pytest.approx(
            0.5, abs=ATOL
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            born_probability(basis_state(2, 0), basis_state(3, 0))

    @given(st.integers(0, 2**32 - 1))
    def test_probability_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        a = random_state(3, rng)
        b = random_state(3, rng)
        p = born_probability(a, b)
        assert -ATOL <= p <= 1 + ATOL

    @given(st.integers(0, 2**32 - 1))
    def test_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = random_state(4, rng)
        b = random_state(4, rng)
        assert born_probability(a, b) == pytest.approx(
            born_probability(b, a), abs=ATOL
        )


class TestDensityAndMixtures:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.5, 0.5], [-0.5, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Decomposition(((0.5, basis_state(2, 0)), (0.6, basis_state(2, 1))))

    def test_z_mixture_is_maximally_mixed(self):
        rho = mix(Decomposition(((0.5, basis_state(2, 0)), (0.5, basis_state(2, 1)))))
        assert np.max(np.abs(rho.matrix - np.eye(2) / 2)) < ATOL

    def test_x_mixture_is_maximally_mixed(self):
        rho = mix(Decomposition(((0.5, plus()), (0.5, minus()))))
        assert np.max(np.abs(rho.matrix - np.eye(2) / 2)) < ATOL

    def test_distinct_decompositions_same_density(self):
        rho_z = mix(Decomposition(((0.5, basis_state(2, 0)), (0.5, basis_state(2, 1)))))
        rho_x = mix(Decomposition(((0.5, plus()), (0.5, minus()))))
        assert rho_z.close_to(rho_x, atol=ATOL)


class TestBloch:
    def test_north_pole(self):
        n = state_to_bloch(basis_state(2, 0))
        assert np.allclose(n.as_array(), [0, 0, 1], atol=ATOL)

    def test_plus_points_along_x(self):
        n = state_to_bloch(plus())
        assert np.allclose(n.as_array(), [1, 0, 0], atol=ATOL)

    def test_plus_i_points_along_y(self):
        n = state_to_bloch(state(1, 1j))
        assert np.allclose(n.as_array(), [0, 1, 0], atol=ATOL)

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError):
            BlochVector(1.0, 1.0, 0.0)

    def test_bloch_requires_dim_two(self):
        with pytest.raises(DimensionMismatchError):
            state_to_bloch(basis_state(3, 0))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_born_equals_half_one_plus_dot(self, seed):
        # |<phi|psi>|^2 = (1 + n_phi . n_psi) / 2 on the Bloch sphere.
        rng = np.random.default_rng(seed)
        phi = random_state(2, rng)
        psi = random_state(2, rng)
        dot = float(
            state_to_bloch(phi).as_array() @ state_to_bloch(psi).as_array()
        )
        assert born_probability(phi, psi) == pytest.approx(
            0.5 * (1.0 + dot), abs=1e-10
        )

    def test_antipodal_points_are_orthogonal_states(self):
        psi = state(2, 1 - 1j)
        n = state_to_bloch(psi).as_array()
        anti = complete_basis(psi)[1]
        assert abs(psi.inner(anti)) <= 1e-10
        assert np.allclose(state_to_bloch(anti).as_array(), -n, atol=1e-10)


class TestBasisHelpers:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]))
    @settings(max_examples=40)
    def test_complete_basis_is_orthonormal(self, seed, dim):
        rng = np.random.default_rng(seed)
        phi = random_state(dim, rng)
        basis = complete_basis(phi)
        assert len(basis) == dim
        assert basis[0].same_ray(phi, atol=1e-10)
        g = np.array([[a.inner(b) for b in basis] for a in basis])
        assert np.max(np.abs(g - np.eye(dim))) < 1e-10

    def test_complete_basis_deterministic(self):
        phi = state(1, 1j, -1)
        b1 = complete_basis(phi)
        b2 = complete_basis(phi)
        for u, v in zip(b1, b2):
            assert np.array_equal(u.amplitudes, v.amplitudes)
