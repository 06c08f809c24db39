"""Operator algebra: golden matrices and basis-convention stability."""

import numpy as np
import pytest

from cavex.qcore import (
    DimensionMismatchError,
    HilbertSpec,
    annihilation,
    check_density_matrix,
    expectation,
    ground_state,
    partial_trace_tls,
    sigma_minus,
)

R2 = np.sqrt(2.0)

# golden fixtures for n_max = 2, basis |g0 g1 g2 e0 e1 e2>
GOLDEN_A = np.array(
    [
        [0, 1, 0, 0, 0, 0],
        [0, 0, R2, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, R2],
        [0, 0, 0, 0, 0, 0],
    ],
    dtype=complex,
)
GOLDEN_SM = np.array(
    [
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ],
    dtype=complex,
)


def basis_state(space, s, n):
    k = s * space.n_fock + n
    v = np.zeros(space.dim, dtype=complex)
    v[k] = 1.0
    return v


class TestHilbertSpec:
    def test_dimensions(self):
        space = HilbertSpec(3)
        assert space.n_fock == 4
        assert space.dim == 8

    def test_rejects_trivial_truncation(self):
        with pytest.raises(ValueError):
            HilbertSpec(0)


class TestGoldenMatrices:
    def test_annihilation_golden(self):
        np.testing.assert_array_equal(annihilation(HilbertSpec(2)), GOLDEN_A)

    def test_sigma_minus_golden(self):
        np.testing.assert_array_equal(sigma_minus(HilbertSpec(2)), GOLDEN_SM)


class TestAnnihilation:
    def test_lowering_action(self):
        space = HilbertSpec(1)
        a = annihilation(space)
        np.testing.assert_allclose(a @ basis_state(space, 0, 1), basis_state(space, 0, 0))
        np.testing.assert_allclose(a @ basis_state(space, 0, 0), 0.0 * basis_state(space, 0, 0))

    def test_number_operator_diagonal(self):
        space = HilbertSpec(3)
        a = annihilation(space)
        n_op = a.conj().T @ a
        for n in range(space.n_fock):
            v = basis_state(space, 1, n)
            assert np.vdot(v, n_op @ v).real == pytest.approx(n)

    def test_commutator_except_truncation_edge(self):
        space = HilbertSpec(3)
        a = annihilation(space)
        comm = a @ a.conj().T - a.conj().T @ a
        for n in range(space.n_max):
            v = basis_state(space, 0, n)
            assert np.vdot(v, comm @ v).real == pytest.approx(1.0)
        edge = basis_state(space, 0, space.n_max)
        assert np.vdot(edge, comm @ edge).real == pytest.approx(-space.n_max)


class TestSigmaMinus:
    def test_lowering_and_annihilating(self):
        space = HilbertSpec(2)
        sm = sigma_minus(space)
        np.testing.assert_allclose(sm @ basis_state(space, 1, 0), basis_state(space, 0, 0))
        np.testing.assert_allclose(sm @ basis_state(space, 0, 2), 0.0 * basis_state(space, 0, 0))

    def test_nilpotent(self):
        sm = sigma_minus(HilbertSpec(3))
        np.testing.assert_array_equal(sm @ sm, np.zeros_like(sm))

    def test_completeness(self):
        space = HilbertSpec(3)
        sm = sigma_minus(space)
        sp = sm.conj().T
        np.testing.assert_allclose(sp @ sm + sm @ sp, np.eye(space.dim))


class TestExpectation:
    def test_ground_state_photon_number(self):
        space = HilbertSpec(2)
        a = annihilation(space)
        assert expectation(ground_state(space), a.conj().T @ a) == pytest.approx(0.0)

    def test_excited_population(self):
        space = HilbertSpec(2)
        sm = sigma_minus(space)
        rho = np.outer(basis_state(space, 1, 0), basis_state(space, 1, 0).conj())
        assert expectation(rho, sm.conj().T @ sm).real == pytest.approx(1.0)

    def test_maximally_mixed_identity(self):
        space = HilbertSpec(3)
        rho = np.eye(space.dim, dtype=complex) / space.dim
        assert expectation(rho, np.eye(space.dim, dtype=complex)).real == pytest.approx(1.0)

    def test_hermitian_gives_real(self):
        space = HilbertSpec(2)
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        herm = m + m.conj().T
        assert abs(expectation(rho, herm).imag) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation(np.eye(4, dtype=complex), np.eye(6, dtype=complex))


class TestPartialTrace:
    def test_product_state(self):
        space = HilbertSpec(2)
        rho = np.outer(basis_state(space, 1, 0), basis_state(space, 1, 0).conj())
        np.testing.assert_allclose(partial_trace_tls(rho, space), np.diag([0.0, 1.0]))

    def test_maximally_mixed(self):
        space = HilbertSpec(3)
        rho = np.eye(space.dim, dtype=complex) / space.dim
        np.testing.assert_allclose(partial_trace_tls(rho, space), np.eye(2) / 2)

    def test_trace_preserved(self):
        space = HilbertSpec(2)
        rng = np.random.default_rng(11)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        reduced = partial_trace_tls(rho, space)
        assert np.trace(reduced).real == pytest.approx(1.0)
        check_density_matrix(reduced)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace_tls(np.eye(4, dtype=complex), HilbertSpec(2))

    def test_stack_matches_each_state(self):
        space = HilbertSpec(2)
        rng = np.random.default_rng(12)
        stack = rng.normal(size=(2, 5, 6, 6)) + 1j * rng.normal(size=(2, 5, 6, 6))
        reduced = partial_trace_tls(stack, space)
        assert reduced.shape == (2, 5, 2, 2)
        for idx in np.ndindex(2, 5):
            np.testing.assert_array_equal(reduced[idx], partial_trace_tls(stack[idx], space))
        with pytest.raises(DimensionMismatchError):
            partial_trace_tls(np.zeros((3, 4, 4), dtype=complex), space)


class TestAdjointAlgebra:
    def test_product_adjoint(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            np.testing.assert_allclose((a @ b).conj().T, b.conj().T @ a.conj().T, atol=1e-12)


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex)
        rho[0, 1] = 1j
        rho /= np.trace(rho)
        with pytest.raises(ValueError, match="Hermitian"):
            check_density_matrix(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            check_density_matrix(rho)
