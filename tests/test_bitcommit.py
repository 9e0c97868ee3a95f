import numpy as np
import pytest

from obsmask import algebra, bitcommit, channels, samplers
from obsmask.errors import BadSpectrumError, NotOrthonormalError

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = (KET0 + KET1) / np.sqrt(2)
MINUS = (KET0 - KET1) / np.sqrt(2)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class TestMakeCommitmentPair:
    def test_bell_hadamard_pair(self):
        pair = bitcommit.make_commitment_pair(
            [0.5, 0.5], [KET0, KET1], [PLUS, MINUS], [KET0, KET1]
        )
        bell = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
        other = (np.kron(PLUS, KET0) + np.kron(MINUS, KET1)) / np.sqrt(2)
        assert np.linalg.norm(pair.psi0 - bell) < 1e-12
        assert np.linalg.norm(pair.psi1 - other) < 1e-12
        assert algebra.max_norm(pair.marginal_b0 - np.eye(2) / 2) < 1e-12
        assert algebra.max_norm(pair.marginal_b1 - np.eye(2) / 2) < 1e-12

    def test_rank_one_spectrum(self):
        pair = bitcommit.make_commitment_pair(
            [1.0, 0.0], [KET0, KET1], [PLUS, MINUS], [KET0, KET1]
        )
        assert algebra.max_norm(pair.marginal_b0 - pair.marginal_b1) < 1e-12
        eig = np.linalg.eigvalsh(pair.marginal_b0)
        assert abs(eig[-1] - 1.0) < 1e-12

    def test_outputs_normalized(self):
        rng = np.random.default_rng(1)
        pair = bitcommit.random_commitment_pair(rng, 3)
        assert abs(np.linalg.norm(pair.psi0) - 1.0) < 1e-10
        assert abs(np.linalg.norm(pair.psi1) - 1.0) < 1e-10

    def test_bad_spectrum(self):
        with pytest.raises(BadSpectrumError):
            bitcommit.make_commitment_pair(
                [0.7, 0.7], [KET0, KET1], [PLUS, MINUS], [KET0, KET1]
            )

    def test_bad_family(self):
        with pytest.raises(NotOrthonormalError):
            bitcommit.make_commitment_pair(
                [0.5, 0.5], [KET0, KET0], [PLUS, MINUS], [KET0, KET1]
            )


class TestConcealmentGap:
    def test_constructed_pairs_conceal(self):
        rng = np.random.default_rng(2)
        for d in (2, 3):
            assert bitcommit.concealment_gap(bitcommit.random_commitment_pair(rng, d)) < 1e-10

    def test_orthogonal_product_states(self):
        pair = bitcommit.commitment_pair_from_vectors(
            np.kron(KET0, KET0), np.kron(KET1, KET1), (2, 2)
        )
        assert abs(bitcommit.concealment_gap(pair) - 1.0) < 1e-12

    def test_gap_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v0 = rng.normal(size=4) + 1j * rng.normal(size=4)
            v1 = rng.normal(size=4) + 1j * rng.normal(size=4)
            pair = bitcommit.commitment_pair_from_vectors(
                v0 / np.linalg.norm(v0), v1 / np.linalg.norm(v1), (2, 2)
            )
            assert -1e-12 <= bitcommit.concealment_gap(pair) <= 1.0 + 1e-12

    def test_zero_gap_implies_equal_marginals(self):
        rng = np.random.default_rng(13)
        for d in (2, 3):
            for _ in range(5):
                pair = bitcommit.random_commitment_pair(rng, d)
                if bitcommit.concealment_gap(pair) < 1e-10:
                    assert algebra.max_norm(pair.marginal_b0 - pair.marginal_b1) < 1e-9


class TestCheatingUnitary:
    def test_bell_hadamard_gives_hadamard(self):
        pair = bitcommit.make_commitment_pair(
            [0.5, 0.5], [KET0, KET1], [PLUS, MINUS], [KET0, KET1]
        )
        cheat = bitcommit.cheating_unitary(pair)
        assert cheat.feasible
        assert abs(cheat.fidelity - 1.0) < 1e-10
        assert algebra.max_norm(cheat.unitary_a - HADAMARD) < 1e-10

    def test_identical_states_give_identity(self):
        bell = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
        pair = bitcommit.commitment_pair_from_vectors(bell, bell, (2, 2))
        cheat = bitcommit.cheating_unitary(pair)
        assert cheat.feasible
        assert algebra.max_norm(cheat.unitary_a - np.eye(2)) < 1e-10

    def test_unequal_marginals_infeasible(self):
        pair = bitcommit.commitment_pair_from_vectors(
            np.kron(KET0, KET0), np.kron(KET1, KET1), (2, 2)
        )
        cheat = bitcommit.cheating_unitary(pair)
        assert not cheat.feasible

    def test_random_pairs_feasible_with_unit_fidelity(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 4):
            for _ in range(5):
                pair = bitcommit.random_commitment_pair(rng, d)
                cheat = bitcommit.cheating_unitary(pair)
                assert cheat.feasible
                assert cheat.fidelity > 1.0 - 1e-9
                u = cheat.unitary_a
                assert algebra.max_norm(algebra.dagger(u) @ u - np.eye(d)) < 1e-9
                moved = np.kron(u, np.eye(d)) @ pair.psi0
                assert np.linalg.norm(moved - pair.psi1) < 1e-8

    def test_degenerate_spectrum_still_works(self):
        rng = np.random.default_rng(5)
        lam = np.full(3, 1 / 3)
        ua0, ua1, ub = (samplers.haar_unitary(rng, 3) for _ in range(3))
        pair = bitcommit.make_commitment_pair(
            lam,
            [ua0[:, i] for i in range(3)],
            [ua1[:, i] for i in range(3)],
            [ub[:, i] for i in range(3)],
        )
        cheat = bitcommit.cheating_unitary(pair)
        assert cheat.feasible and cheat.fidelity > 1 - 1e-9

    @pytest.mark.parametrize("d", [3, 4, 8])
    @pytest.mark.parametrize("r", [1, 2])
    def test_low_rank_concealing_pair(self, d, r):
        rng = np.random.default_rng(30 + 10 * d + r)
        lam = rng.random(r) + 0.2
        lam /= lam.sum()
        ua0, ua1, ub = (samplers.haar_unitary(rng, d) for _ in range(3))
        pair = bitcommit.make_commitment_pair(
            lam, *([u[:, i] for i in range(r)] for u in (ua0, ua1, ub))
        )
        cheat = bitcommit.cheating_unitary(pair)
        u = cheat.unitary_a
        m0, m1 = (psi.reshape(d, d) for psi in (pair.psi0, pair.psi1))
        assert cheat.feasible
        assert algebra.max_norm(u @ m0 - m1) < 1e-10
        assert algebra.max_norm(algebra.dagger(u) @ u - np.eye(d)) < 1e-10


def _psd_sqrt(rho):
    vals, vecs = np.linalg.eigh(rho)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_cheat_reaches_uhlmann_fidelity(d):
    """On non-concealing pairs the cheat's overlap is the root fidelity
    F = ||sqrt(rho_B0) sqrt(rho_B1)||_1 of the B-marginals (Uhlmann), and
    the concealment gap D obeys Fuchs-van de Graaf: 1 - F <= D <= sqrt(1 - F^2)."""
    rng = np.random.default_rng(40 + d)
    for _ in range(20):
        v0, v1 = rng.normal(size=(2, d * d)) + 1j * rng.normal(size=(2, d * d))
        pair = bitcommit.commitment_pair_from_vectors(
            v0 / np.linalg.norm(v0), v1 / np.linalg.norm(v1), (d, d)
        )
        root = _psd_sqrt(pair.marginal_b0) @ _psd_sqrt(pair.marginal_b1)
        fidelity = float(np.sum(np.linalg.svd(root, compute_uv=False)))
        cheat = bitcommit.cheating_unitary(pair)
        assert abs(cheat.fidelity - fidelity) < 1e-10
        gap = bitcommit.concealment_gap(pair)
        assert 1.0 - fidelity - 1e-12 <= gap <= np.sqrt(1.0 - fidelity**2) + 1e-12
        assert not cheat.feasible


class TestMeasurePrepareChannel:
    def test_equal_maximally_mixed(self):
        chan = bitcommit.measure_prepare_channel(np.eye(2) / 2, np.eye(2) / 2, 2)
        rng = np.random.default_rng(6)
        out = channels.apply_forward(chan, samplers.density(rng, 2))
        assert algebra.max_norm(out - np.eye(2) / 2) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_trace_preserving(self, d):
        rng = np.random.default_rng(7 + d)
        chan = bitcommit.measure_prepare_channel(
            samplers.density(rng, d), samplers.density(rng, d), d
        )
        total = sum(algebra.dagger(k) @ k for k in chan.kraus)
        assert algebra.max_norm(total - np.eye(d)) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_forward_is_measure_and_prepare(self, d):
        rng = np.random.default_rng(17 + d)
        rho0, rho1 = samplers.density(rng, d), samplers.density(rng, d)
        chan = bitcommit.measure_prepare_channel(rho0, rho1, d)
        proj0 = np.zeros((d, d), complex)
        proj0[0, 0] = 1.0
        for _ in range(5):
            sigma = samplers.density(rng, d)
            expected = (
                np.trace(proj0 @ sigma) * rho0
                + np.trace((np.eye(d) - proj0) @ sigma) * rho1
            )
            out = channels.apply_forward(chan, sigma)
            assert algebra.max_norm(out - expected) < 1e-10

    def test_equal_states_adjoint_proportional_to_identity(self):
        rng = np.random.default_rng(8)
        for d in (2, 3):
            rho = samplers.density(rng, d)
            chan = bitcommit.measure_prepare_channel(rho, rho, d)
            for _ in range(5):
                obs = samplers.hermitian(rng, d)
                out = channels.apply_adjoint(chan, obs)
                c = np.trace(rho @ obs).real
                assert algebra.max_norm(out - c * np.eye(d)) < 1e-9


class TestDemo:
    @pytest.mark.parametrize("d", [2, 3])
    def test_structure(self, d):
        report = bitcommit.no_bit_commitment_demo(d, seed=7)
        assert report.get("concealment_gap") < 1e-10
        assert report.get("cheat_feasible") is True
        assert report.get("cheat_fidelity") > 1 - 1e-9
        assert report.get("hiding_residual_max") < 1e-9
        assert report.get("proportionality_checks") == "20/20"
        assert report.get("masking_matches_unit_expectation") == "20/20"

    def test_deterministic_bytes(self):
        a = bitcommit.no_bit_commitment_demo(2, seed=42).render()
        b = bitcommit.no_bit_commitment_demo(2, seed=42).render()
        assert a == b
        c = bitcommit.no_bit_commitment_demo(2, seed=43).render()
        assert a != c
