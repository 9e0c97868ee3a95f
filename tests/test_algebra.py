import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsmask import algebra, samplers
from obsmask.errors import (
    DimensionMismatchError,
    InconsistentDimensionsError,
    NotHermitianError,
    NotOrthonormalError,
)
from obsmask.invariants import REGISTRY

S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


class TestEigHermitian:
    def test_sigma3(self):
        eig = algebra.eig_hermitian(S3)
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)
        assert np.allclose(eig.eigenvectors[:, 0], KET1, atol=1e-12)
        assert np.allclose(eig.eigenvectors[:, 1], KET0, atol=1e-12)

    def test_x_plus_z_over_sqrt2(self):
        # eigenvalues of n.sigma are +/- |n|; here |n| = 1
        eig = algebra.eig_hermitian((S1 + S3) / np.sqrt(2))
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_identity3(self):
        eig = algebra.eig_hermitian(np.eye(3))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0, 1.0], atol=1e-12)

    def test_not_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            algebra.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_reconstruction_and_orthonormality(self, d):
        rng = np.random.default_rng(11 + d)
        for _ in range(20):
            m = samplers.hermitian(rng, d)
            eig = algebra.eig_hermitian(m)
            assert algebra.max_norm(eig.reconstruct() - m) < 1e-10
            gram = algebra.dagger(eig.eigenvectors) @ eig.eigenvectors
            assert algebra.max_norm(gram - np.eye(d)) < 1e-10
            assert np.all(np.diff(eig.eigenvalues) >= -1e-12)

    def test_phase_convention(self):
        rng = np.random.default_rng(5)
        m = samplers.hermitian(rng, 4)
        vecs = algebra.eig_hermitian(m).eigenvectors
        for i in range(4):
            first = vecs[np.flatnonzero(np.abs(vecs[:, i]) > 1e-12)[0], i]
            assert abs(first.imag) < 1e-12 and first.real >= 0


class TestTensor:
    def test_sigma3_with_identity(self):
        assert np.allclose(algebra.tensor(S3, np.eye(2)), np.diag([1, 1, -1, -1]))

    def test_projector_with_sigma1(self):
        out = algebra.tensor(np.outer(KET0, KET0.conj()), S1)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = S1
        assert np.allclose(out, expected)

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b = samplers.hermitian(rng, 2), samplers.hermitian(rng, 2)
            lhs = np.trace(algebra.tensor(a, b))
            assert abs(lhs - np.trace(a) * np.trace(b)) < 1e-12


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(3)
        rho, tau = samplers.density(rng, 2), samplers.density(rng, 3)
        full = algebra.tensor(rho, tau)
        assert algebra.max_norm(algebra.partial_trace(full, (2, 3), "B") - rho) < 1e-12
        assert algebra.max_norm(algebra.partial_trace(full, (2, 3), "A") - tau) < 1e-12

    def test_bell_marginal_is_maximally_mixed(self):
        phi = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        out = algebra.partial_trace(rho, (2, 2), "A")
        assert algebra.max_norm(out - np.eye(2) / 2) < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        m = samplers.hermitian(rng, 4)
        for over in ("A", "B"):
            out = algebra.partial_trace(m, (2, 2), over)
            assert abs(np.trace(out) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            algebra.partial_trace(np.eye(4), (2, 3), "A")

    def test_double_trace_is_full_trace(self):
        rng = np.random.default_rng(13)
        m = samplers.hermitian(rng, 6)
        via_a = np.trace(algebra.partial_trace(m, (2, 3), "A"))
        via_b = np.trace(algebra.partial_trace(m, (2, 3), "B"))
        assert abs(via_a - np.trace(m)) < 1e-12
        assert abs(via_b - np.trace(m)) < 1e-12


class TestUnitaryCompletion:
    def test_empty_is_identity(self):
        assert np.allclose(algebra.unitary_completion([], 3), np.eye(3))

    def test_hadamard_case(self):
        plus = (KET0 + KET1) / np.sqrt(2)
        minus = (KET0 - KET1) / np.sqrt(2)
        u = algebra.unitary_completion([(KET0, plus), (KET1, minus)], 2)
        expected = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        assert algebra.max_norm(u - expected) < 1e-12

    def test_partial_family_unitary(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            q, p = samplers.haar_unitary(rng, 4), samplers.haar_unitary(rng, 4)
            pairs = [(q[:, 0], p[:, 0]), (q[:, 1], p[:, 1])]
            u = algebra.unitary_completion(pairs, 4)
            assert algebra.max_norm(algebra.dagger(u) @ u - np.eye(4)) < 1e-10
            for src, dst in pairs:
                assert np.linalg.norm(u @ src - dst) < 1e-10

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormalError):
            algebra.unitary_completion([(KET0, KET0), (KET0, KET1)], 2)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(InconsistentDimensionsError):
            algebra.unitary_completion([(KET0, KET0)], 3)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31))
def test_eigh_reconstruction_property(d, seed):
    rng = np.random.default_rng(seed)
    assert REGISTRY["algebra_eig_reconstruction"].run(rng, d, 1) == (1, 0)
