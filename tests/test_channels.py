import numpy as np
import pytest

from obsmask import algebra, channels, samplers
from obsmask.errors import (
    DimensionMismatchError,
    InvalidChannelError,
    InvalidStateError,
    NotUnitaryError,
)

S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def masker_kraus():
    # |0><0| and |0><1|
    return (np.array([[1, 0], [0, 0]], complex), np.array([[0, 1], [0, 0]], complex))


def random_channel(rng, d, n_kraus):
    """Random CPTP map from the Stinespring form of a Haar unitary."""
    v = samplers.haar_unitary(rng, d * n_kraus)[:, :d]
    ops = [v.reshape(d, n_kraus, d)[:, i, :] for i in range(n_kraus)]
    return channels.KrausChannel(input_dim=d, output_dim=d, kraus=tuple(ops))


class TestKrausChannel:
    def test_trace_preservation_enforced(self):
        with pytest.raises(InvalidChannelError):
            channels.KrausChannel(2, 2, (np.eye(2) * 0.5,))

    def test_shape_enforced(self):
        with pytest.raises(InvalidChannelError):
            channels.KrausChannel(2, 3, (np.eye(2),))

    def test_empty_rejected(self):
        with pytest.raises(InvalidChannelError):
            channels.KrausChannel(2, 2, ())

    def test_ragged_rejected(self):
        with pytest.raises(InvalidChannelError, match=r"shape \(3, 3\) != \(2, 2\)"):
            channels.KrausChannel(2, 2, (np.eye(2), np.eye(3)))

    def test_kraus_is_a_read_only_copy(self):
        ops = np.array(masker_kraus())
        chan = channels.KrausChannel(2, 2, ops)
        assert chan.kraus.shape == (2, 2, 2) and chan.kraus.dtype == complex
        with pytest.raises(ValueError):
            chan.kraus[0, 0, 0] = 5.0
        ops[0, 0, 0] = 5.0
        assert chan.kraus[0, 0, 0] == 1.0

    def test_channels_compare_by_identity(self):
        # array fields make value equality ambiguous, so == is identity
        a, b = (channels.KrausChannel(2, 2, masker_kraus()) for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2


class TestPerOperatorReference:
    """The stacked channel layer against per-operator sums."""

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    @pytest.mark.parametrize("count", ["1", "2d", "d^2"])
    def test_matches_per_operator_sums(self, d, count):
        n = {"1": 1, "2d": 2 * d, "d^2": d * d}[count]
        rng = np.random.default_rng(1000 * d + n)
        # any regrouping of an isometry's rows is a trace-preserving family
        g = rng.normal(size=(n * d, d)) + 1j * rng.normal(size=(n * d, d))
        ops = np.linalg.qr(g)[0].reshape(n, d, d)
        chan = channels.KrausChannel(d, d, ops)
        rho, obs = samplers.density(rng, d), samplers.hermitian(rng, d)
        forward = sum(k @ rho @ k.conj().T for k in ops)
        adjoint = sum(k.conj().T @ obs @ k for k in ops)
        gram = sum(k.conj().T @ k for k in ops)
        assert np.array_equal(chan.kraus, ops)
        assert algebra.max_norm(channels.apply_forward(chan, rho) - forward) < 1e-12
        assert algebra.max_norm(channels.apply_adjoint(chan, obs) - adjoint) < 1e-12
        assert algebra.max_norm(channels.apply_adjoint(chan, np.eye(d)) - gram) < 1e-12


class TestForward:
    def test_identity_channel(self):
        chan = channels.KrausChannel(2, 2, (np.eye(2),))
        rho = samplers.density(np.random.default_rng(1), 2)
        assert algebra.max_norm(channels.apply_forward(chan, rho) - rho) < 1e-12

    def test_masker_sends_everything_to_ket0(self):
        chan = channels.KrausChannel(2, 2, masker_kraus())
        rng = np.random.default_rng(2)
        for _ in range(10):
            out = channels.apply_forward(chan, samplers.density(rng, 2))
            assert algebra.max_norm(out - np.diag([1.0, 0.0])) < 1e-12

    def test_depolarizing_to_maximally_mixed(self):
        chan = channels.constant_channel(np.eye(2) / 2, 2)
        rng = np.random.default_rng(3)
        out = channels.apply_forward(chan, samplers.density(rng, 2))
        assert algebra.max_norm(out - np.eye(2) / 2) < 1e-12

    def test_dimension_mismatch(self):
        chan = channels.KrausChannel(2, 2, (np.eye(2),))
        with pytest.raises(DimensionMismatchError):
            channels.apply_forward(chan, np.eye(3) / 3)


class TestAdjoint:
    def test_unital(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 4):
            chan = random_channel(rng, d, 3)
            out = channels.apply_adjoint(chan, np.eye(d))
            assert algebra.max_norm(out - np.eye(d)) < 1e-10

    def test_masker_maps_sigma3_to_identity(self):
        chan = channels.KrausChannel(2, 2, masker_kraus())
        out = channels.apply_adjoint(chan, S3)
        assert algebra.max_norm(out - np.eye(2)) < 1e-12

    def test_schroedinger_heisenberg_duality(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4):
            chan = random_channel(rng, d, 2)
            rho, obs = samplers.density(rng, d), samplers.hermitian(rng, d)
            lhs = np.trace(channels.apply_forward(chan, rho) @ obs)
            rhs = np.trace(rho @ channels.apply_adjoint(chan, obs))
            assert abs(lhs - rhs) < 1e-10


class TestConstantChannel:
    def test_ket0_target_gives_masker_kraus(self):
        chan = channels.constant_channel(np.diag([1.0, 0.0]), 2)
        expected = masker_kraus()
        assert len(chan.kraus) == 2
        for got, want in zip(chan.kraus, expected):
            assert algebra.max_norm(got - want) < 1e-12

    def test_forward_is_constant(self):
        rng = np.random.default_rng(6)
        sigma = samplers.density(rng, 3)
        chan = channels.constant_channel(sigma, 3)
        for _ in range(5):
            out = channels.apply_forward(chan, samplers.density(rng, 3))
            assert algebra.max_norm(out - sigma) < 1e-10

    def test_invalid_state_rejected(self):
        with pytest.raises(InvalidStateError):
            channels.constant_channel(np.diag([1.5, -0.5]), 2)


class TestIsometricExtension:
    def test_identity_channel(self):
        chan = channels.KrausChannel(2, 2, (np.eye(2),))
        v = channels.isometric_extension(chan)
        ket0_env = np.array([[1.0]], dtype=complex)
        assert algebra.max_norm(v - algebra.tensor(np.eye(2), ket0_env)) < 1e-12

    def test_masker_maps_j_to_0j(self):
        chan = channels.KrausChannel(2, 2, masker_kraus())
        v = channels.isometric_extension(chan)
        for j in range(2):
            ket = np.zeros(2, complex)
            ket[j] = 1
            expected = np.kron(np.array([1, 0], complex), ket)
            assert np.linalg.norm(v[:, j] - expected) < 1e-12

    def test_isometry_property(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            chan = random_channel(rng, 3, 2)
            v = channels.isometric_extension(chan)
            assert algebra.max_norm(algebra.dagger(v) @ v - np.eye(3)) < 1e-10


class TestMaskerDilation:
    def test_identity_case_is_swap(self):
        dil = channels.masker_dilation(np.eye(2), np.eye(2))
        assert algebra.max_norm(dil.unitary - SWAP) < 1e-12

    def test_action_on_basis(self):
        rng = np.random.default_rng(10)
        u0, u1 = samplers.haar_unitary(rng, 2), samplers.haar_unitary(rng, 2)
        dil = channels.masker_dilation(u0, u1)
        ket1 = np.array([0, 1], complex)
        ket0 = np.array([1, 0], complex)
        out = dil.unitary @ np.kron(ket1, ket0)
        assert np.linalg.norm(out - np.kron(ket0, u0 @ ket1)) < 1e-12

    def test_unitarity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            u0, u1 = samplers.haar_unitary(rng, 2), samplers.haar_unitary(rng, 2)
            dil = channels.masker_dilation(u0, u1)
            u = dil.unitary
            assert algebra.max_norm(algebra.dagger(u) @ u - np.eye(4)) < 1e-10

    def test_swap_conjugates_sigma3(self):
        dil = channels.masker_dilation(np.eye(2), np.eye(2))
        u = dil.unitary
        lhs = algebra.dagger(u) @ algebra.tensor(S3, np.eye(2)) @ u
        assert algebra.max_norm(lhs - algebra.tensor(np.eye(2), S3)) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            channels.masker_dilation(np.eye(2) * 2.0, np.eye(2))
