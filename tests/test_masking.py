import numpy as np
import pytest

from obsmask import algebra, bloch, channels, masking, samplers
from obsmask.errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotMaskableError,
    NotUnitaryError,
    NotUnitVectorError,
    NumericalFailureError,
)
from obsmask.invariants import REGISTRY

S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def coeffs(d, a0, a):
    return bloch.ObservableCoeffs(dimension=d, a0=a0, a=np.asarray(a, float))


class TestQubitCriterion:
    def test_sigma3_boundary(self):
        v = masking.decide_maskable_qubit(coeffs(2, 0.0, [0, 0, 1]))
        assert v.maskable
        assert abs(v.plane_distance - 0.5) < 1e-12

    def test_small_sigma1_not_maskable(self):
        v = masking.decide_maskable_qubit(coeffs(2, 0.0, [0.4, 0, 0]))
        assert not v.maskable

    def test_identity_maskable(self):
        v = masking.decide_maskable_qubit(coeffs(2, 1.0, [0, 0, 0]))
        assert v.maskable
        assert v.plane_distance is None

    def test_finite_a_whose_norm_overflows_is_maskable(self):
        # the eigenvalues are -+2.4e308: 1 lies between them
        v = masking.decide_maskable_qubit(coeffs(2, 0.0, [1.7e308, -1.7e308, 0.0]))
        assert v.maskable
        assert v.plane_distance == 0.0

    def test_overflowing_plane_distance_is_none(self):
        # |1 - a0| / (2|a|) = 1.7e308 / 2e-8 overflows: no distance, not inf
        v = masking.decide_maskable_qubit(coeffs(2, 1.7e308, [1e-8, 0.0, 0.0]))
        assert not v.maskable
        assert v.plane_distance is None

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            masking.decide_maskable_qubit(coeffs(3, 0.0, np.zeros(8)))

    def test_agrees_with_oracle_in_the_zero_direction_band(self):
        # |a| <= DECISION_ATOL and a0 within 2.5 DECISION_ATOL of 1: the
        # eigenvalues are a0 -+ |a|, so the oracle's test that 1 lies in
        # [lambda_min, lambda_max] is the criterion |1 - a0| <= |a| on
        # every draw, however small |a|
        rng = np.random.default_rng(36)
        tol = masking.DECISION_ATOL
        disagree = []
        for _ in range(10_000):
            c = coeffs(2, 1.0 + tol * rng.uniform(-2.5, 2.5),
                       samplers.unit_vector(rng, 3) * tol * rng.uniform())
            oracle = masking.decide_maskable_oracle(bloch.coeffs_to_observable(c))
            if masking.decide_maskable_qubit(c).maskable != oracle.maskable:
                disagree.append((c.a0, c.a_norm()))
        assert disagree == []


class TestOracle:
    def test_diag_3_minus1(self):
        v = masking.decide_maskable_oracle(np.diag([3.0, -1.0]))
        assert v.maskable
        assert np.allclose(v.eig_range, (-1.0, 3.0), atol=1e-12)
        # cross-check against the plane criterion: a0 = 1 puts the plane
        # through the origin
        q = masking.decide_maskable_qubit(
            bloch.observable_coeffs(np.diag([3.0, -1.0]))
        )
        assert q.maskable and abs(q.plane_distance) < 1e-12

    def test_half_identity_not_maskable(self):
        v = masking.decide_maskable_oracle(0.5 * np.eye(2))
        assert not v.maskable

    def test_degenerate_unit_eigenvalue_maskable(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.uniform(-3, 3)
            v = masking.decide_maskable_oracle(np.diag([1.0, x, x]))
            assert v.maskable

    def test_agrees_with_qubit_criterion(self):
        rng = np.random.default_rng(3)
        _, disagreements = REGISTRY["qubit_oracle_agreement"].run(rng, 2, 2000)
        assert disagreements == 0

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_range_is_the_eigendecomposition_extremes(self, d):
        # the range is the extremes of the eigendecomposition, bit for bit,
        # on random observables and on spectra with an extreme at a band
        # edge, or 2 DECISION_ATOL beyond it on either side; each of those
        # gets the verdict of its construction from the oracle and the masker
        rng = np.random.default_rng(1700 + d)

        def range_verdict(obs):
            vals = algebra.eig_hermitian(obs).eigenvalues
            verdict = masking.decide_maskable_oracle(obs)
            assert np.array(verdict.eig_range).tobytes() == vals[[0, -1]].tobytes()
            return verdict

        for _ in range(500):
            range_verdict(samplers.hermitian(rng, d) * rng.uniform(0.1, 3.0))
        edges = {1.0: True, 1.0 + 2 * masking.DECISION_ATOL: True,
                 1.0 - 2 * masking.DECISION_ATOL: False}
        for top, maskable in edges.items():
            for at_min in (False, True):
                # the edge value at lambda_max, the rest below it; or, as
                # 2 - spectrum, the mirrored edge 2 - top at lambda_min, the
                # rest above it, which 1 lies between exactly when it did
                spectrum = np.r_[rng.uniform(-2.0, top, d - 1), top]
                if at_min:
                    spectrum = 2.0 - spectrum
                u = samplers.haar_unitary(rng, d)
                obs = (u * spectrum) @ u.conj().T
                assert range_verdict(obs).maskable == maskable
                assert masking.oracle_masker(obs)[0].maskable == maskable

    @pytest.mark.parametrize("d", [3, 4, 8, 16])
    def test_agrees_with_the_masker_at_the_band_edge(self, d):
        # lambda_max = 1 - DECISION_ATOL exactly, and mirrored lambda_min =
        # 1 + DECISION_ATOL: the rounded extreme may fall to either side of
        # the edge, and the oracle and the masker read the same eigh of it
        rng = np.random.default_rng(1900 + d)
        edge = 1.0 - masking.DECISION_ATOL
        for _ in range(200):
            for at_min in (False, True):
                spectrum = np.r_[rng.uniform(-2.0, edge, d - 1), edge]
                if at_min:
                    spectrum = 2.0 - spectrum
                u = samplers.haar_unitary(rng, d)
                obs = (u * spectrum) @ u.conj().T
                verdict = masking.decide_maskable_oracle(obs)
                masker_verdict, channel = masking.oracle_masker(obs)
                assert verdict.maskable == (channel is not None) == masker_verdict.maskable
                got = np.array(verdict.eig_range).tobytes()
                assert got == np.array(masker_verdict.eig_range).tobytes()

    def test_eigensolver_failure_is_a_numerical_failure(self, monkeypatch):
        def fail(arr):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(algebra, "_eigh", fail)
        with pytest.raises(NumericalFailureError, match="^eigensolver failed: Eigen"):
            masking.decide_maskable_oracle(np.diag([3.0, -1.0]))

    @pytest.mark.parametrize(
        "decide", [masking.decide_maskable_oracle, masking.oracle_masker,
                   masking.build_constant_masker],
        ids=["oracle", "oracle_masker", "constant_masker"],
    )
    def test_empty_observable_is_refused(self, decide):
        with pytest.raises(DimensionMismatchError, match="0 x 0"):
            decide(np.zeros((0, 0)))


class TestNecessaryCondition:
    def test_d2_reduction_matches_plane_criterion(self):
        # 10^4 random coefficient sets, then a band of +-3 tol around the
        # boundary |1 - a0| = |a|; the reference is the plane criterion
        # |1 - a0| <= |a| + tol written out here
        rng = np.random.default_rng(4)
        tol = masking.DECISION_ATOL
        cases = [(rng.normal() * 2, rng.normal(size=3) * rng.uniform(0.01, 3)) for _ in range(10_000)]
        for _ in range(2_000):
            a = samplers.unit_vector(rng, 3) * rng.uniform(0.01, 3)
            gap = np.linalg.norm(a) + tol * rng.uniform(-3, 3)
            cases.append((1.0 + gap * rng.choice([-1.0, 1.0]), a))
        for a0, a in cases:
            c = coeffs(2, a0, a)
            verdict = masking.decide_maskable_qubit(c).maskable
            assert verdict == masking.necessary_condition_d(c)
            assert verdict == (abs(1.0 - a0) <= np.linalg.norm(a) + tol)

    def test_dimension_one_is_refused(self):
        with pytest.raises(ValueError, match="^dimension must be >= 2, got 1$"):
            masking.necessary_condition_d(coeffs(1, 1.0, []))

    @pytest.mark.parametrize("d", [2, 3])
    def test_finite_a_whose_norm_overflows_passes(self, d):
        # |a| ~ 2.4e308 is beyond the float range, and beyond every finite
        # |1 - a0| sqrt(d / (2(d-1))); a non-finite a is still refused
        a = np.r_[1.7e308, -1.7e308, np.zeros(d * d - 3)]
        for a0 in (0.0, -1.7e308, 1.7e308):
            assert masking.necessary_condition_d(coeffs(d, a0, a)) is True
        for bad in (np.inf, np.nan):
            with pytest.raises(NotHermitianError, match="not finite"):
                masking.necessary_condition_d(coeffs(d, 0.0, np.r_[bad, a[1:]]))
        with pytest.raises(NotHermitianError, match="not finite"):
            masking.necessary_condition_d(coeffs(d, np.inf, a))

    def test_zero_observable_fails(self):
        assert not masking.necessary_condition_d(coeffs(2, 0.0, [0, 0, 0]))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("scale", [1e150, 1e200, 1e250, 1e300])
    def test_agrees_with_oracle_near_the_float_limit(self, d, scale):
        # a . a overflows from |a| ~ 1.3e154 on, while |a| stays finite
        rng = np.random.default_rng(31)
        for a0 in (0.0, 3.0 * scale):
            c = coeffs(d, a0, scale * samplers.unit_vector(rng, d * d - 1))
            oracle = masking.decide_maskable_oracle(bloch.coeffs_to_observable(c))
            assert masking.necessary_condition_d(c) == oracle.maskable == (a0 == 0.0)
            if d == 2:
                assert masking.decide_maskable_qubit(c).maskable == oracle.maskable

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_returns_python_bool(self, d):
        # a numpy bool would print as True/False in the maskable report
        for a0 in (0.0, 5.0):
            c = coeffs(d, a0, np.eye(d * d - 1)[0])
            assert type(masking.necessary_condition_d(c)) is bool

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_oracle_maskable_implies_condition(self, d):
        rng = np.random.default_rng(50 + d)
        for _ in range(300):
            obs = samplers.hermitian(rng, d)
            if masking.decide_maskable_oracle(obs).maskable:
                assert masking.necessary_condition_d(bloch.observable_coeffs(obs))


    def test_d3_maskable_spectrum_passes(self):
        # 1 lies in [0.335, 1.119]: maskable, so the necessary condition holds
        rng = np.random.default_rng(61)
        u = samplers.haar_unitary(rng, 3)
        obs = (u * [0.335, 0.805, 1.119]) @ u.conj().T
        assert masking.decide_maskable_oracle(obs).maskable
        assert masking.necessary_condition_d(bloch.observable_coeffs(obs))


class TestConstantMasker:
    def test_sigma3_kraus_family(self):
        chan = masking.build_constant_masker(S3)
        expected = [
            np.array([[1, 0], [0, 0]], complex),
            np.array([[0, 1], [0, 0]], complex),
        ]
        assert len(chan.kraus) == 2
        for got, want in zip(chan.kraus, expected):
            assert algebra.max_norm(got - want) < 1e-12

    def test_diag_3_minus1_targets_maximally_mixed(self):
        chan = masking.build_constant_masker(np.diag([3.0, -1.0]))
        rng = np.random.default_rng(5)
        out = channels.apply_forward(chan, samplers.density(rng, 2))
        assert algebra.max_norm(out - np.eye(2) / 2) < 1e-10

    def test_identity_targets_maximally_mixed(self):
        chan = masking.build_constant_masker(np.eye(2))
        rng = np.random.default_rng(6)
        out = channels.apply_forward(chan, samplers.density(rng, 2))
        assert algebra.max_norm(out - np.eye(2) / 2) < 1e-10

    def test_unmaskable_refused(self):
        with pytest.raises(NotMaskableError):
            masking.build_constant_masker(0.4 * S1)

    def test_one_eigendecomposition_per_call(self, spy):
        counts = spy(algebra, ["_eigh"])
        masking.build_constant_masker(S3)
        with pytest.raises(NotMaskableError, match=r"outside the eigenvalue range \(-0\.4\d*, 0\.4\d*\)"):
            masking.build_constant_masker(0.4 * S1)
        assert counts == {"_eigh": 2}

    @pytest.mark.parametrize("obs", [S3, np.diag([3.0, -1.0, 0.5])], ids=["sigma3", "d3"])
    def test_one_eigh_per_matrix_and_no_eigvalsh(self, obs, spy):
        # one eigh, for the observable: the target state's spectral
        # decomposition is read off it, never formed and decomposed again
        counts = spy(algebra, ["_eigh", "_eigvalsh"])
        masking.build_constant_masker(obs)
        assert counts == {"_eigh": 1, "_eigvalsh": 0}

    def test_large_norm_observable_is_masked(self):
        # formed as (u lam) u^dag, the matrix is Hermitian only to rounding of
        # order eps * 1e8, which the norm-scaled check accepts; an
        # anti-Hermitian part of 1e-3 ||M|| is still refused
        rng = np.random.default_rng(18)
        skew = np.zeros((3, 3), complex)
        skew[0, 1] = skew[1, 0] = 1j
        for _ in range(50):
            u = samplers.haar_unitary(rng, 3)
            obs = (u * np.array([1e8, 0.3, -1e8])) @ u.conj().T
            assert masking.build_constant_masker(obs).support.shape == (2, 3)
            with pytest.raises(NotHermitianError):
                masking.build_constant_masker(obs + 1e-3 * algebra.max_norm(obs) * skew)

    def test_masker_near_the_float_limit(self):
        # lambda_max - lambda_min = 2e308 overflows, but half of it does not:
        # p = 1/2, so each extreme eigenvector carries weight 1/2, with no
        # RuntimeWarning on the way (the suite turns them into errors)
        verdict, chan = masking.oracle_masker(np.diag([1e308, -1e308]))
        assert verdict.maskable
        weights = np.sum(np.abs(chan.amplitudes) ** 2, axis=1)
        assert np.max(np.abs(weights - 0.5)) <= 1e-15
        assert sorted(np.abs(chan.amplitudes).argmax(axis=1).tolist()) == [0, 1]

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_random_maskable_verify(self, d):
        rng = np.random.default_rng(60 + d)
        assert REGISTRY["constant_maskers_verify"].run(rng, d, 50) == (50, 0)

    @pytest.mark.parametrize(
        "spectrum", [[3.0, -1.0], [3.0, 0.5, -1.0]], ids=["d2", "d3"]
    )
    def test_kraus_columns_are_eigenvectors_at_half_weight(self, spectrum):
        # p = 1/2: the target is degenerate across both extreme eigenspaces,
        # so a fresh decomposition of it may return any basis of their span
        rng = np.random.default_rng(13)
        lo, hi = min(spectrum), max(spectrum)
        for _ in range(20):
            u = samplers.haar_unitary(rng, len(spectrum))
            obs = (u * spectrum) @ u.conj().T
            for op in masking.build_constant_masker(obs).kraus:
                nonzero = np.flatnonzero(np.linalg.norm(op, axis=0) > 0)
                assert len(nonzero) == 1
                v = op[:, nonzero[0]] / np.linalg.norm(op[:, nonzero[0]])
                assert min(np.linalg.norm(obs @ v - lam * v) for lam in (lo, hi)) < 1e-12

    @pytest.mark.parametrize(
        "spectrum", [[1 + 1e-9, 1 + 2.5e-9], [1 - 2.5e-9, 1 - 1e-9]], ids=["above", "below"]
    )
    def test_maskable_within_band_targets_nearest_extreme(self, spectrum):
        # p = (1 - lo) / (hi - lo) falls outside [0, 1]; clipped, the target
        # is the eigenprojector of the extreme nearest 1
        obs = np.diag(spectrum)
        assert masking.decide_maskable_oracle(obs).maskable
        chan = masking.build_constant_masker(obs)
        nearest = min(spectrum, key=lambda lam: abs(lam - 1.0))
        assert masking.verify_masking(chan, obs) <= abs(nearest - 1.0) + 1e-15


def _maskable_observable(rng, d, i):
    """A Haar-rotated spectrum with 1 in [lambda_min, lambda_max]: every
    fourth draw has two levels, every fourth has two levels at p = 1/2."""
    m = int(rng.integers(1, d)) if d > 2 else 1
    if i % 4 == 0:
        lam = np.r_[np.full(m, rng.uniform(1.0, 3.0)), np.full(d - m, rng.uniform(-2.0, 1.0))]
    elif i % 4 == 1:
        t = rng.uniform(0.1, 2.0)
        lam = np.r_[np.full(m, 1.0 + t), np.full(d - m, 1.0 - t)]
    else:
        lam = rng.uniform(-2.0, 3.0, d)
        lam[0], lam[1] = rng.uniform(-2.0, 1.0), rng.uniform(1.0, 3.0)
    u = samplers.haar_unitary(rng, d)
    return (u * lam) @ u.conj().T, lam


class TestConstantMaskerAgainstTargetState:
    """The masker read off O's eigendecomposition against the constant
    channel onto the target state sigma0, formed and decomposed: the
    rank-one family of sigma0's spectral rows on every input ket."""

    @staticmethod
    def reference(obs, lam):
        vals, vecs = np.linalg.eigh(obs)
        lo, hi = lam.min(), lam.max()

        def eigenspace_state(target):
            cols = vecs[:, np.abs(vals - target) <= masking.DECISION_ATOL]
            return (cols @ cols.conj().T) / cols.shape[1]

        p = (1.0 - lo) / (hi - lo)
        sigma0 = p * eigenspace_state(hi) + (1.0 - p) * eigenspace_state(lo)
        eig = channels.require_density(sigma0)
        rows = channels._spectral_rows(eig.eigenvalues, eig.eigenvectors)
        return channels.KrausChannel.rank_one(rows, np.ones((len(rows), len(lam)))), p

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_matches_constant_channel(self, d):
        rng = np.random.default_rng(70 + d)
        for i in range(200):
            obs, lam = _maskable_observable(rng, d, i)
            chan = masking.build_constant_masker(obs)
            ref, p = self.reference(obs, lam)
            assert chan.kraus.shape == ref.kraus.shape
            simple = np.count_nonzero(lam == lam.max()) == np.count_nonzero(lam == lam.min()) == 1
            if simple and abs(2.0 * p - 1.0) >= 0.1:
                assert algebra.max_norm(chan.kraus - ref.kraus) < 1e-12
                continue
            rho, probe = samplers.density(rng, d), samplers.hermitian(rng, d)
            forward = channels.apply_forward(chan, rho) - channels.apply_forward(ref, rho)
            adjoint = channels.apply_adjoint(chan, probe) - channels.apply_adjoint(ref, probe)
            assert algebra.max_norm(forward) < 1e-12
            assert algebra.max_norm(adjoint) < 1e-12


# maskable spectra for the masker's differential test: 1 lies inside each
_MASKER_SPECTRA = {
    "generic": lambda rng, d: np.r_[rng.uniform(-1.5, 1.0), rng.uniform(-1.5, 2.5, d - 2),
                                    rng.uniform(1.0, 2.5)],
    "two-level": lambda rng, d: np.r_[np.full(d // 2, rng.uniform(-1.5, 1.0)),
                                      np.full(d - d // 2, rng.uniform(1.0, 2.5))],
    "flat": lambda rng, d: np.ones(d),
    "lambda-max-1": lambda rng, d: np.r_[rng.uniform(-1.5, 1.0, d - 1), 1.0],
    "lambda-min-1": lambda rng, d: np.r_[1.0, rng.uniform(1.0, 2.5, d - 1)],
}


def _masker_reference(obs):
    """Amplitudes, support, Kraus stack and residual of the constant masker
    of ``obs`` as built from ``eig_hermitian``: the target's weights on
    arrays, its rows from a stable argsort, and the residual from the
    zero-filled d x d adjoint, formed by the rank-one adjoint's products."""
    eig = algebra.eig_hermitian(obs)
    half = eig.eigenvalues * 0.5
    d = len(half)
    band = masking.DECISION_ATOL / 2
    if half[-1] - half[0] <= band:
        weights = np.full(d, 1.0 / d)
    else:
        p = min(max((0.5 - half[0]) / (half[-1] - half[0]), 0.0), 1.0)
        top, bottom = np.abs(half - half[-1]) <= band, np.abs(half - half[0]) <= band
        weights = top * (p / np.count_nonzero(top)) + bottom * (
            (1.0 - p) / np.count_nonzero(bottom))
    terms = np.argsort(weights, kind="stable")[::-1]
    terms = terms[weights[terms] >= 1e-12]
    amplitudes = np.ascontiguousarray((np.sqrt(weights[terms]) * eig.eigenvectors[:, terms]).T)
    support = np.ones((len(terms), d))
    kraus = np.zeros((len(terms), d, d, d), dtype=complex)
    for k in range(d):
        kraus[:, k, :, k] = amplitudes
    outer = (amplitudes.conj()[:, :, None] * amplitudes[:, None, :]).reshape(len(terms), -1)
    adjoint = np.zeros(d * d, dtype=complex)
    adjoint[:: d + 1] = ((obs.reshape(1, d * d) @ outer.T) @ support)[0]
    residual = algebra.max_norm(adjoint.reshape(d, d) - np.eye(d))
    return amplitudes, support, kraus.reshape(-1, d, d), residual


class TestConstantMaskerBitsAgainstReference:
    """The masker and its residual, bit for bit, against the reference
    chain: 2,000 observables over five dimensions and five spectra."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_amplitudes_kraus_and_residual_are_the_reference_bits(self, d):
        rng = np.random.default_rng(370 + d)
        for spectrum, draw in _MASKER_SPECTRA.items():
            for i in range(80):
                u = samplers.haar_unitary(rng, d)
                obs = (u * draw(rng, d)) @ u.conj().T
                if spectrum == "flat" and i == 0:
                    obs = np.eye(d, dtype=complex)
                chan = masking.build_constant_masker(obs)
                amplitudes, support, kraus, residual = _masker_reference(obs)
                where = (spectrum, i)
                assert chan.amplitudes.tobytes() == amplitudes.tobytes(), where
                assert chan.support.tobytes() == support.tobytes(), where
                assert chan.kraus.tobytes() == kraus.tobytes(), where
                got = masking.verify_masking(chan, obs)
                assert np.float64(got).tobytes() == np.float64(residual).tobytes(), where
                assert got < masking.DECISION_ATOL


class TestRotationUnitary:
    def test_z_axis_identity(self):
        w = masking.rotation_unitary([0.0, 0.0, 1.0])
        assert algebra.max_norm(w - np.eye(2)) < 1e-12

    def test_x_axis(self):
        w = masking.rotation_unitary([1.0, 0.0, 0.0])
        assert algebra.max_norm(algebra.dagger(w) @ S3 @ w - S1) < 1e-12
        hadamard = np.array([[1, 1], [1, -1]], complex) / np.sqrt(2)
        assert algebra.max_norm(algebra.dagger(hadamard) @ S3 @ hadamard - S1) < 1e-12

    def test_random_directions(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = samplers.unit_vector(rng, 3)
            w = masking.rotation_unitary(n)
            target = n[0] * S1 + n[1] * S2 + n[2] * S3
            assert algebra.max_norm(algebra.dagger(w) @ S3 @ w - target) < 1e-10
            assert algebra.max_norm(algebra.dagger(w) @ w - np.eye(2)) < 1e-10

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnitVectorError):
            masking.rotation_unitary([0.0, 0.0, 2.0])


class TestMaskerSwap:
    def test_z_axis_recovers_swap(self):
        chan, dil = masking.build_masker_swap([0.0, 0.0, 1.0])
        assert algebra.max_norm(dil - SWAP) < 1e-12
        expected = [
            np.array([[1, 0], [0, 0]], complex),
            np.array([[0, 1], [0, 0]], complex),
        ]
        for got, want in zip(chan.kraus, expected):
            assert algebra.max_norm(got - want) < 1e-12

    def test_x_axis_masks_sigma1(self):
        chan, _ = masking.build_masker_swap([1.0, 0.0, 0.0])
        assert masking.verify_masking(chan, S1) < 1e-10

    def test_forward_is_constant(self):
        rng = np.random.default_rng(8)
        n = samplers.unit_vector(rng, 3)
        chan, _ = masking.build_masker_swap(n)
        w = masking.rotation_unitary(n)
        target = algebra.dagger(w) @ np.diag([1.0, 0.0]).astype(complex) @ w
        for _ in range(10):
            out = channels.apply_forward(chan, samplers.density(rng, 2))
            assert algebra.max_norm(out - target) < 1e-10


class TestVerifyMasking:
    def test_sigma3_masker_on_sigma3(self):
        chan, _ = masking.build_masker_swap([0.0, 0.0, 1.0])
        assert masking.verify_masking(chan, S3) < 1e-12

    def test_identity_channel_on_sigma3(self):
        chan = channels.KrausChannel(2, 2, (np.eye(2),))
        assert abs(masking.verify_masking(chan, S3) - 2.0) < 1e-12

    def test_any_channel_on_identity(self):
        chan, _ = masking.build_masker_swap([0.0, 1.0, 0.0])
        assert masking.verify_masking(chan, np.eye(2)) < 1e-12


class TestNoHiding:
    def test_z_axis_exact(self):
        report = masking.verify_nohiding([0.0, 0.0, 1.0])
        assert report.swap_residual == 0.0
        assert report.verified

    @pytest.mark.parametrize("n", [[np.nan, 0.0, 1.0], [0.0, 0.0, np.inf]], ids=["nan", "inf"])
    def test_non_finite_direction_rejected(self, n):
        with pytest.raises(NotUnitVectorError) as exc:
            masking.verify_nohiding(n)
        assert "np.float64" not in str(exc.value)

    def test_non_unit_message_prints_a_plain_float(self):
        with pytest.raises(NotUnitVectorError, match=r"\|n\| = 2\.0 is not 1"):
            masking.verify_nohiding([0.0, 0.0, 2.0])

    @pytest.mark.parametrize(
        "n, norm",
        [([np.nan, 0.0, 1.0], "nan"), ([0.0, -np.inf, 0.0], "inf"), ([np.inf, np.nan, 0.0], "nan"),
         ([0.6, 0.8, 1e-4], r"1\.000000005"), ([0.0, 0.0, 0.5], r"0\.5"),
         ([1e200, 0.0, 0.0], r"1e\+200")],
        ids=["nan", "inf", "inf-and-nan", "off-unit", "half", "overflowing-square"],
    )
    def test_refusals_name_the_norm(self, n, norm):
        # the norm is algebra._norm's: np.linalg.norm's where n . n is finite,
        # and rescaled, not inf, where it overflows
        for func in (masking.verify_nohiding, masking.rotation_unitary):
            with pytest.raises(NotUnitVectorError, match=rf"^\|n\| = {norm}\d* is not 1$"):
                func(n)

    def test_validates_each_matrix_once(self, monkeypatch):
        # user u0/u1 are validated once each, U' not at all, the direction
        # at most twice, and no masker channel is built
        seen, unit_checks, channels_built = [], [], []
        require_unitary = masking.require_unitary
        require_unit_vector = masking._require_unit_vector
        set_fields = channels._set

        def spy_unitary(u):
            seen.append(u)
            return require_unitary(u)

        def spy_unit_vector(n):
            unit_checks.append(n)
            return require_unit_vector(n)

        def spy_set_fields(channel, **fields):
            # both KrausChannel constructors assign their fields through it
            channels_built.append(channel)
            set_fields(channel, **fields)

        monkeypatch.setattr(masking, "require_unitary", spy_unitary)
        monkeypatch.setattr(masking, "_require_unit_vector", spy_unit_vector)
        monkeypatch.setattr(channels, "_set", spy_set_fields)
        rng = np.random.default_rng(12)
        u0, u1 = samplers.haar_unitary(rng, 2), samplers.haar_unitary(rng, 2)
        report = masking.verify_nohiding(samplers.unit_vector(rng, 3), u0, u1)
        assert report.verified
        assert sum(u is u0 for u in seen) == 1
        assert sum(u is u1 for u in seen) == 1
        assert len(seen) == 2
        assert len(unit_checks) <= 2
        assert channels_built == []

    def test_default_dilation_matches_explicit_identities(self):
        # u0 = u1 = None stands for I unvalidated; passing I, I validates
        # both, and the two must give the same bytes
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = samplers.unit_vector(rng, 3)
            shared = masking.verify_nohiding(n)
            fresh = masking.verify_nohiding(n, np.eye(2), np.eye(2))
            assert shared.swap_residual == fresh.swap_residual
            assert shared.recovery_residual == fresh.recovery_residual
            _, dil = masking.build_masker_swap(n)
            _, ref = masking.build_masker_swap(n, np.eye(2), np.eye(2))
            assert dil.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("haar", [False, True], ids=["default", "haar"])
    def test_dilation_is_rotated_swap_type_unitary(self, haar):
        # U' = (w^dag (x) I) U bit for bit, with U built here column by
        # column from its action U(|m> (x) |n>) = |n> (x) u_n |m>
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = samplers.unit_vector(rng, 3)
            us = [samplers.haar_unitary(rng, 2) if haar else None for _ in range(2)]
            u_ref = np.zeros((4, 4), dtype=complex)
            for m in range(2):
                for k in range(2):
                    u_k = np.eye(2) if us[k] is None else us[k]
                    u_ref[2 * k: 2 * k + 2, 2 * m + k] = u_k[:, m]
            w = masking.rotation_unitary(n)
            want = np.kron(algebra.dagger(w), np.eye(2)) @ u_ref
            _, dil = masking.build_masker_swap(n, *us)
            assert dil.tobytes() == want.tobytes()

    def test_default_dilation_makes_no_unitary_check(self, monkeypatch):
        seen = []
        require_unitary = masking.require_unitary

        def spy_unitary(u):
            seen.append(u)
            return require_unitary(u)

        monkeypatch.setattr(masking, "require_unitary", spy_unitary)
        assert masking.verify_nohiding([0.6, 0.0, 0.8]).verified
        masking.build_masker_swap([0.6, 0.0, 0.8])
        assert seen == []

    def test_unitaries_checked_before_their_shape(self):
        # a 3 x 3 unitary u0 passes its unitarity check; the non-unitary u1
        # is refused before u0's shape is read
        bad = np.array([[1.0, 0.0], [0.0, 0.5]])
        with pytest.raises(NotUnitaryError):
            masking.verify_nohiding([0.0, 0.0, 1.0], u0=np.eye(3), u1=bad)
        with pytest.raises(DimensionMismatchError):
            masking.verify_nohiding([0.0, 0.0, 1.0], u0=np.eye(3))

    def test_non_unitary_environment_refused_every_call(self):
        bad = np.array([[1.0, 0.0], [0.0, 0.5]])
        for _ in range(3):
            with pytest.raises(NotUnitaryError):
                masking.verify_nohiding([0.0, 0.0, 1.0], u0=bad)
            with pytest.raises(NotUnitaryError):
                masking.build_masker_swap([0.0, 0.0, 1.0], u1=bad)
            assert masking.verify_nohiding([0.0, 0.0, 1.0]).verified

    def test_random_directions_identity_env(self):
        rng = np.random.default_rng(9)
        assert REGISTRY["nohiding_swap_identity"].run(rng, 2, 25) == (25, 0)

    def test_random_env_unitaries(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            report = masking.verify_nohiding(
                samplers.unit_vector(rng, 3),
                samplers.haar_unitary(rng, 2),
                samplers.haar_unitary(rng, 2),
            )
            assert report.swap_residual < 1e-10
            assert report.verified


class TestHotPathCallCounts:
    """Guards on the numpy calls of the qubit-scan chains, so a second
    decomposition or a rebuilt einsum cannot creep back in unnoticed."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_maskable_chain_makes_two_eighs(self, d, spy):
        # the verdict and the masker each make the one eigh of the observable
        # that decides maskability; neither makes an eigvalsh
        rng = np.random.default_rng(14)
        u = samplers.haar_unitary(rng, d)
        obs = (u * np.linspace(-1.0, 1.5, d)) @ u.conj().T
        counts = spy(algebra, ["_eigh", "_eigvalsh", "_svd", "_svd_full", "_svdvals"])
        public = spy(np.linalg, ["pinv"])
        bloch.observable_coeffs(obs)
        assert masking.decide_maskable_oracle(obs).maskable
        channel = masking.build_constant_masker(obs)
        assert masking.verify_masking(channel, obs) < masking.DECISION_ATOL
        assert counts == {"_eigh": 2, "_eigvalsh": 0, "_svd": 0, "_svd_full": 0, "_svdvals": 0}
        assert public == {"pinv": 0}

    @pytest.mark.parametrize("d", [2, 3])
    def test_unmaskable_chain_makes_one_eigh(self, d, spy):
        rng = np.random.default_rng(16)
        u = samplers.haar_unitary(rng, d)
        obs = (u * np.linspace(-1.0, 0.5, d)) @ u.conj().T
        counts = spy(algebra, ["_eigh", "_eigvalsh"])
        bloch.observable_coeffs(obs)
        assert not masking.decide_maskable_oracle(obs).maskable
        assert counts == {"_eigh": 1, "_eigvalsh": 0}

    def test_nohiding_makes_one_einsum(self, spy):
        rng = np.random.default_rng(15)
        n = samplers.unit_vector(rng, 3)
        counts = spy(np, ["einsum"])
        assert masking.verify_nohiding(n).verified
        assert counts == {"einsum": 1}
