"""Bilinear algebra layer: spaces, self-adjointness, genericity, adapted
bases, scaling isometries."""

import numpy as np
import pytest
from scipy.linalg import expm

from ecs_lab.pseudo_linear import (
    NotGenericNilpotent,
    PseudoEuclideanSpace,
    density_experiment,
    fit_basis,
    genericity_test,
    nilpotent_order,
    random_self_adjoint,
    scaling_isometry,
    validate_A,
)
from ecs_lab.homogeneous import standard_homogeneous_space


def euclidean(m):
    return PseudoEuclideanSpace(np.eye(m))


def random_gram_isometry(space, rng):
    """exp of a random element of the isometry algebra."""
    basis = space.skew_basis()
    coeffs = 0.5 * rng.standard_normal(len(basis))
    return expm(sum(c * B for c, B in zip(coeffs, basis)))


class TestSpace:
    def test_rejects_nonsymmetric_gram(self):
        with pytest.raises(ValueError):
            PseudoEuclideanSpace(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_degenerate_gram(self):
        with pytest.raises(ValueError):
            PseudoEuclideanSpace(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_signature(self):
        space = PseudoEuclideanSpace(np.diag([2.0, -1.0, 3.0]))
        assert space.signature() == (2, 1)

    def test_antidiagonal_gram_signature_is_neutral(self):
        space = PseudoEuclideanSpace(np.fliplr(np.eye(4)))
        assert space.signature() == (2, 2)

    def test_skew_basis_spans_isometry_algebra(self):
        space = PseudoEuclideanSpace(np.diag([1.0, 1.0, -1.0]))
        basis = space.skew_basis()
        assert len(basis) == 3
        g = space.gram
        for B in basis:
            assert np.max(np.abs(g @ B + (g @ B).T)) < 1e-14


class TestValidateA:
    def test_zero(self):
        val = validate_A(euclidean(3), np.zeros((3, 3)))
        assert val.self_adjoint_residual == 0.0
        assert val.trace_residual == 0.0
        assert not val.ok()    # A = 0 is excluded from the family

    def test_euclidean_diagonal(self):
        val = validate_A(euclidean(2), np.diag([1.0, -1.0]))
        assert val.self_adjoint_residual == 0.0
        assert val.trace_residual == 0.0
        assert val.ok()

    def test_neutral_gram_shift(self):
        space = PseudoEuclideanSpace(np.fliplr(np.eye(2)))
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        val = validate_A(space, A)
        assert val.self_adjoint_residual == 0.0
        assert val.trace_residual == 0.0

    def test_flags_asymmetry(self):
        val = validate_A(euclidean(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert val.self_adjoint_residual == 1.0


class TestGenericity:
    def test_m2_diagonal_generic(self):
        res = genericity_test(euclidean(2), np.diag([1.0, -1.0]))
        assert res.is_generic
        assert res.isotropy_dim == 0

    def test_zero_nongeneric_with_full_isotropy(self):
        for m in (2, 3, 4):
            res = genericity_test(euclidean(m), np.zeros((m, m)))
            assert not res.is_generic
            assert res.isotropy_dim == m * (m - 1) // 2

    def test_m3_square_zero_nilpotent_nongeneric(self):
        space = PseudoEuclideanSpace(np.diag([1.0, 1.0, -1.0]))
        v = np.array([1.0, 0.0, 1.0])            # null vector
        A = np.outer(v, space.gram @ v)          # A^2 = 0, A != 0
        assert np.max(np.abs(A @ A)) == 0.0
        assert abs(np.trace(A)) == 0.0
        res = genericity_test(space, A)
        assert not res.is_generic

    def test_rejects_non_self_adjoint(self):
        with pytest.raises(ValueError):
            genericity_test(euclidean(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_every_nonzero_m2_operator_generic(self):
        rng = np.random.default_rng(11)
        grams = [np.eye(2), np.diag([1.0, -1.0]), np.fliplr(np.eye(2))]
        for k in range(60):
            space = PseudoEuclideanSpace(grams[k % 3])
            A = random_self_adjoint(space, rng)
            if np.max(np.abs(A)) < 1e-12:
                continue
            assert genericity_test(space, A).is_generic

    def test_invariant_under_isometry_conjugation(self):
        rng = np.random.default_rng(5)
        space = PseudoEuclideanSpace(np.diag([1.0, 1.0, -1.0]))
        for _ in range(10):
            A = random_self_adjoint(space, rng)
            Q = random_gram_isometry(space, rng)
            before = genericity_test(space, A).is_generic
            after = genericity_test(space, Q @ A @ np.linalg.inv(Q)).is_generic
            assert before == after


class TestNilpotentOrder:
    def test_zero_matrix(self):
        assert nilpotent_order(np.zeros((3, 3))) == 1

    def test_jordan_block(self):
        assert nilpotent_order(np.eye(2, k=1)) == 2
        assert nilpotent_order(np.eye(4, k=1)) == 4

    def test_invertible_is_not_nilpotent(self):
        assert nilpotent_order(np.diag([1.0, -1.0])) is None

    def test_scale_invariance(self):
        assert nilpotent_order(1e-7 * np.eye(3, k=1)) == 3


class TestFitBasis:
    def test_canonical_m2_both_signs(self):
        for eps in (1.0, -1.0):
            space, A = standard_homogeneous_space(2, eps)
            fit = fit_basis(space, A)
            assert fit.epsilon == eps
            assert np.allclose(fit.vectors, np.eye(2), atol=1e-12)

    def test_zero_rejected(self):
        space, _ = standard_homogeneous_space(2)
        with pytest.raises(NotGenericNilpotent):
            fit_basis(space, np.zeros((2, 2)))

    def test_invertible_rejected(self):
        with pytest.raises(NotGenericNilpotent):
            fit_basis(euclidean(2), np.diag([1.0, -1.0]))

    def test_partial_nilpotent_rejected(self):
        space, _ = standard_homogeneous_space(4)
        with pytest.raises(NotGenericNilpotent):
            fit_basis(space, np.eye(4, k=2))    # order 2 < 4

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_conjugated_operator_roundtrip(self, m):
        rng = np.random.default_rng(100 + m)
        space, A0 = standard_homogeneous_space(m)
        for _ in range(5):
            Q = random_gram_isometry(space, rng)
            A = Q @ A0 @ np.linalg.inv(Q)
            fit = fit_basis(space, A)
            P = fit.vectors
            # A v_j = v_{j-1} and the anti-diagonal Gram pattern
            assert np.max(np.abs(A @ P - P @ np.eye(m, k=1))) < 1e-10
            assert np.max(np.abs(P.T @ space.gram @ P
                                 - fit.epsilon * np.fliplr(np.eye(m)))) < 1e-10
            # Uniqueness up to overall sign: pulling the vectors back with
            # Q^{-1} must reproduce the reference basis or its negative.
            back = np.linalg.solve(Q, fit.vectors)
            sign = np.sign(back[np.argmax(np.abs(back[:, 0])), 0])
            assert np.allclose(sign * back, np.eye(m), atol=1e-9)

    def test_gram_and_shift_patterns(self):
        space, A = standard_homogeneous_space(3, -1.0)
        fit = fit_basis(space, A)
        V = fit.vectors
        gram_in_basis = V.T @ space.gram @ V
        assert np.allclose(gram_in_basis, -np.fliplr(np.eye(3)), atol=1e-12)
        shift = np.linalg.solve(V, A @ V)
        assert np.allclose(shift, np.eye(3, k=1), atol=1e-12)


class TestScalingIsometry:
    def setup_method(self):
        self.space, self.A = standard_homogeneous_space(2)
        self.fit = fit_basis(self.space, self.A)

    def test_identity(self):
        C = scaling_isometry(self.space, self.fit, 1.0, 1.0)
        assert np.allclose(C, np.eye(2), atol=1e-14)

    def test_m2_q2_values(self):
        C = scaling_isometry(self.space, self.fit, 2.0, 1.0)
        V = self.fit.vectors
        in_basis = np.linalg.solve(V, C @ V)
        assert np.allclose(in_basis, np.diag([2.0, 0.5]), atol=1e-12)

    def test_m3_q2_negative_delta(self):
        space, A = standard_homogeneous_space(3)
        fit = fit_basis(space, A)
        C = scaling_isometry(space, fit, 2.0, -1.0)
        in_basis = np.linalg.solve(fit.vectors, C @ fit.vectors)
        assert np.allclose(in_basis, np.diag([-4.0, -1.0, -0.25]), atol=1e-12)

    def test_postconditions(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = float(np.exp(rng.uniform(-1.5, 1.5)))
            delta = 1.0 if rng.uniform() < 0.5 else -1.0
            C = scaling_isometry(self.space, self.fit, q, delta)
            g = self.space.gram
            assert np.max(np.abs(C.T @ g @ C - g)) < 1e-10
            assert np.max(np.abs(C @ self.A @ np.linalg.inv(C)
                                 - q * q * self.A)) < 1e-10

    def test_homomorphism_with_sign(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            q1, q2 = np.exp(rng.uniform(-1.0, 1.0, size=2))
            d1 = 1.0 if rng.uniform() < 0.5 else -1.0
            d2 = 1.0 if rng.uniform() < 0.5 else -1.0
            C1 = scaling_isometry(self.space, self.fit, q1, d1)
            C2 = scaling_isometry(self.space, self.fit, q2, d2)
            C12 = scaling_isometry(self.space, self.fit, q1 * q2, d1 * d2)
            assert np.max(np.abs(C1 @ C2 - C12)) < 1e-10

    def test_delta_flips_sign(self):
        plus = scaling_isometry(self.space, self.fit, 3.0, 1.0)
        minus = scaling_isometry(self.space, self.fit, 3.0, -1.0)
        assert np.allclose(plus, -minus, atol=1e-14)

    def test_nonpositive_q_rejected(self):
        with pytest.raises(ValueError):
            scaling_isometry(self.space, self.fit, 0.0, 1.0)
        with pytest.raises(ValueError):
            scaling_isometry(self.space, self.fit, -2.0, 1.0)


class TestDensityExperiment:
    def test_generic_neighborhood_stays_generic(self):
        space = euclidean(2)
        rng = np.random.default_rng(8)
        frac = density_experiment(space, np.diag([1.0, -1.0]), 1e-6, 50, rng)
        assert frac == 1.0

    def test_zero_recovers_genericity_at_m2(self):
        space = euclidean(2)
        rng = np.random.default_rng(9)
        frac = density_experiment(space, np.zeros((2, 2)), 1e-3, 50, rng)
        assert frac == 1.0

    def test_zero_trials_undefined(self):
        rng = np.random.default_rng(10)
        assert density_experiment(euclidean(2), np.zeros((2, 2)),
                                  1e-3, 0, rng) is None
