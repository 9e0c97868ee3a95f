import numpy as np
import pytest

from obsmask import algebra, bitcommit, channels, masking, samplers
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        ops = np.array(masker_kraus())
        ops[1, 0, 1] = bad
        with pytest.raises(InvalidChannelError, match="non-finite"):
            channels.KrausChannel(2, 2, ops)

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


def spectral_kraus_reference(eig, input_dim, columns):
    """The zero-filled stack the library built before it held rank-one
    families as factors: sqrt(p_j) |e_j><k| over the nonzero spectral terms
    of ``eig`` (descending weight), then the input indices k in ``columns``."""
    terms = np.flatnonzero(eig.eigenvalues >= 1e-12)[::-1]
    amplitudes = np.sqrt(eig.eigenvalues[terms]) * eig.eigenvectors[:, terms]
    d = len(eig.eigenvalues)
    ops = np.zeros((len(terms), len(columns), d, input_dim), dtype=complex)
    ops[:, np.arange(len(columns)), :, columns] = amplitudes.T
    return ops.reshape(-1, d, input_dim)


def masker_target_reference(eig):
    """The constant masker's target state, as the library decomposed it
    on arrays before it weighed the target on Python floats: weight
    p / m_max on O's eigenvectors within DECISION_ATOL of lambda_max and
    (1 - p) / m_min on those near lambda_min (1/d each on a flat spectrum),
    sorted by ascending weight, ties in O's order."""
    half = eig.eigenvalues * 0.5
    lo, hi = half[0], half[-1]
    d = len(half)
    band = masking.DECISION_ATOL / 2
    if hi - lo <= band:
        weights = np.full(d, 1.0 / d)
    else:
        p = min(max((0.5 - lo) / (hi - lo), 0.0), 1.0)
        top = np.abs(half - hi) <= band
        bottom = np.abs(half - lo) <= band
        weights = top * (p / np.count_nonzero(top)) + bottom * (
            (1.0 - p) / np.count_nonzero(bottom)
        )
    order = np.argsort(weights, kind="stable")
    return algebra.HermitianEig(weights[order], eig.eigenvectors[:, order])


def assert_actions_match(chan, ops, rng):
    """Both actions, on a single matrix and on a stack, against einsums over
    the Kraus family ``ops``."""
    obs = samplers.hermitian(rng, chan.output_dim, size=(3,))
    rho = samplers.density(rng, chan.input_dim)
    adjoint = np.einsum("iab,...ac,icd->...bd", ops.conj(), obs, ops, optimize=True)
    forward = np.einsum("iab,bc,idc->ad", ops, rho, ops.conj(), optimize=True)
    assert algebra.max_norm(channels.apply_adjoint(chan, obs) - adjoint) < 1e-14
    assert algebra.max_norm(channels.apply_adjoint(chan, obs[1]) - adjoint[1]) < 1e-14
    assert algebra.max_norm(channels.apply_forward(chan, rho) - forward) < 1e-14


# spectra of maskable observables: 1 lies inside each
SPECTRA = {
    "generic": lambda rng, d: np.r_[-1.5, rng.uniform(-1.5, 2.5, d - 2), 2.5],
    "two-level": lambda rng, d: np.r_[np.full(d // 2, -1.0), np.full(d - d // 2, 2.5)],
    "flat": lambda rng, d: np.ones(d),
}


class TestRankOneFactors:
    """Library-built channels hold rank-one factors; their Kraus view and
    actions agree with the dense stacks the library built before."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("spectrum", list(SPECTRA))
    def test_masker_matches_dense_reference(self, d, spectrum):
        rng = np.random.default_rng(70 + d)
        u = samplers.haar_unitary(rng, d)
        obs = (u * SPECTRA[spectrum](rng, d)) @ u.conj().T
        chan = masking.build_constant_masker(obs)
        target = masker_target_reference(algebra.eig_hermitian(obs))
        ref = spectral_kraus_reference(target, d, range(d))
        assert chan.kraus.tobytes() == ref.tobytes()
        assert int(chan.support.sum()) == len(ref)
        assert_actions_match(chan, ref, rng)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_measure_prepare_matches_dense_reference(self, d):
        rng = np.random.default_rng(80 + d)
        # a rank-deficient rho_1 drops its zero spectral terms
        rho0 = samplers.density(rng, d)
        rho1 = np.diag(np.r_[0.25, 0.75, np.zeros(d - 2)])
        chan = bitcommit.measure_prepare_channel(rho0, rho1, d)
        ref = np.concatenate((
            spectral_kraus_reference(channels.require_density(rho0), d, [0]),
            spectral_kraus_reference(channels.require_density(rho1), d, range(1, d)),
        ))
        assert chan.kraus.tobytes() == ref.tobytes()
        assert_actions_match(chan, ref, rng)

    @pytest.mark.parametrize(
        "n", [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.48, 0.6, 0.64]]
    )
    def test_swap_masker_matches_dense_reference(self, n):
        chan, _ = masking.build_masker_swap(n)
        w = masking.rotation_unitary(n)
        ref = np.einsum("a,ib->iab", algebra.dagger(w)[:, 0], np.eye(2))
        # equal values: the product with the identity gave some zeros
        # another sign
        assert np.array_equal(chan.kraus, ref)
        assert_actions_match(chan, ref, np.random.default_rng(90))

    @pytest.mark.parametrize("miss", [1e-6, -1e-6])
    def test_column_norm_off_unity_refused(self, miss):
        # term 1 alone covers input 1, so only that column misses 1
        amplitudes = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 + miss)]])
        with pytest.raises(InvalidChannelError, match="deviates from identity"):
            channels.KrausChannel.rank_one(amplitudes, np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amplitudes_refused(self, bad):
        amplitudes = np.array([[1.0, bad]])
        with pytest.raises(InvalidChannelError, match="non-finite"):
            channels.KrausChannel.rank_one(amplitudes, [[1, 1]])

    @pytest.mark.parametrize(
        "amplitudes, support, message",
        [
            (np.zeros((0, 2)), np.zeros((0, 2)), "empty"),
            ([[1.0, 0.0]], [[1, 1], [1, 1]], r"\(1, 2\) and support \(2, 2\)"),
            ([1.0, 0.0], [[1, 1]], r"not \(t, output_dim\)"),
        ],
        ids=["empty", "term-count", "vector"],
    )
    def test_malformed_factors_refused(self, amplitudes, support, message):
        with pytest.raises(InvalidChannelError, match=message):
            channels.KrausChannel.rank_one(amplitudes, support)

    def test_factors_are_read_only_copies(self):
        amplitudes, support = np.array([[1.0, 0.0]]), np.ones((1, 2))
        chan = channels.KrausChannel.rank_one(amplitudes, support)
        amplitudes[0, 0] = support[0, 0] = 5.0
        assert chan.amplitudes[0, 0] == 1.0 and chan.support[0, 0] == 1.0
        for arr in (chan.amplitudes, chan.support, chan.kraus):
            with pytest.raises(ValueError):
                arr[0, 0] = 2.0
        assert channels.isometric_extension(chan).base is not None


def test_library_channels_never_build_the_dense_view(monkeypatch):
    """The d = 16 maskers (both actions) and the bit-commitment demo act
    through their factors alone: the O(d^5) dense family is never formed."""
    built = []
    dense = channels._dense_kraus

    def counting(*args):
        built.append(args)
        return dense(*args)

    monkeypatch.setattr(channels, "_dense_kraus", counting)
    rng = np.random.default_rng(16)
    for spectrum in SPECTRA.values():
        u = samplers.haar_unitary(rng, 16)
        obs = (u * spectrum(rng, 16)) @ u.conj().T
        channel = masking.build_constant_masker(obs)
        assert masking.verify_masking(channel, obs) < masking.DECISION_ATOL
        channels.apply_forward(channel, samplers.density(rng, 16))
    bitcommit.no_bit_commitment_demo(16, 7)
    assert built == []
    assert len(channel.kraus) == channel.support.sum() and len(built) == 1


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
        # both effects prepare I/2
        rho = np.eye(2) / 2
        chan = bitcommit.measure_prepare_channel(rho, rho, 2)
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

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_stack_equals_scalar_calls(self, d):
        # each matrix of a stack goes through the products of a single call,
        # so the results agree bit for bit; the measure-and-prepare channel
        # of a full-rank state has d + d (d - 1) = d^2 Kraus operators
        rng = np.random.default_rng(40 + d)
        rho = samplers.density(rng, d)
        prepare = bitcommit.measure_prepare_channel(rho, rho, d)
        assert len(prepare.kraus) == d * d
        obs = samplers.hermitian(rng, d, size=(2, 3))
        for chan in (random_channel(rng, d, 3), prepare):
            out = channels.apply_adjoint(chan, obs)
            assert out.shape == (2, 3, d, d)
            for idx in np.ndindex(2, 3):
                assert np.array_equal(out[idx], channels.apply_adjoint(chan, obs[idx]))
        with pytest.raises(DimensionMismatchError):
            channels.apply_adjoint(prepare, np.zeros((3, d, d + 1)))


class TestRequireDensity:
    def test_returns_the_eigendecomposition(self):
        sigma = samplers.density(np.random.default_rng(8), 3)
        eig = channels.require_density(sigma)
        ref = algebra.eig_hermitian(sigma)
        assert np.array_equal(eig.eigenvalues, ref.eigenvalues)
        assert np.array_equal(eig.eigenvectors, ref.eigenvectors)

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.diag([1.5, -0.5]), r"negative eigenvalue -5\.000e-01"),
            (np.eye(2), r"trace is \S*2\.0\)?, not 1"),
            (np.array([[0.5, 1.0], [0.0, 0.5]]), r"max \|M - M\^dag\|"),
            (np.diag([np.nan, 0.5]), "non-finite"),
            (np.ones(3), "expected a matrix"),
        ],
        ids=["negative", "trace", "non-hermitian", "nan", "vector"],
    )
    def test_rejections(self, rho, message):
        with pytest.raises(InvalidStateError, match=message) as exc:
            channels.require_density(rho)
        assert "np.float64" not in str(exc.value)
        # only a negative spectrum has an eigenvector to certify it
        assert (exc.value.witness is None) != message.startswith("negative")


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        u = np.eye(2, dtype=complex)
        u[0, 1] = bad
        with pytest.raises(NotUnitaryError, match="non-finite"):
            channels.require_unitary(u)
