import numpy as np
import pytest

from obsmask import algebra, bloch, channels, masking, samplers
from obsmask.errors import (
    DimensionMismatchError,
    EmptyDiskError,
    NotMaskableError,
    NotUnitVectorError,
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

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            masking.decide_maskable_qubit(coeffs(3, 0.0, np.zeros(8)))


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


class TestNecessaryCondition:
    def test_d2_reduction_matches_plane_criterion(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            c = bloch.observable_coeffs(samplers.hermitian(rng, 2))
            if abs(c.a_norm() - abs(1.0 - c.a0)) < 1e-9:
                continue
            assert masking.necessary_condition_d(c) == masking.decide_maskable_qubit(c).maskable

    def test_zero_observable_fails(self):
        assert not masking.necessary_condition_d(coeffs(2, 0.0, [0, 0, 0]))

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

    def test_one_eigendecomposition_per_call(self, monkeypatch):
        calls = []

        def counting(m, *args):
            calls.append(m)
            return algebra.eig_hermitian(m, *args)

        monkeypatch.setattr(masking, "eig_hermitian", counting)
        masking.build_constant_masker(S3)
        with pytest.raises(NotMaskableError, match=r"outside the eigenvalue range \(-0\.4\d*, 0\.4\d*\)"):
            masking.build_constant_masker(0.4 * S1)
        assert len(calls) == 2

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_random_maskable_verify(self, d):
        rng = np.random.default_rng(60 + d)
        assert REGISTRY["constant_maskers_verify"].run(rng, d, 50) == (50, 0)


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
        assert algebra.max_norm(dil.unitary - SWAP) < 1e-12
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


class TestOutputDisk:
    def test_tangent_plane(self):
        disk = masking.output_disk([0.0, 0.0, 1.0])
        assert np.allclose(disk.center, [0, 0, 0.5], atol=1e-12)
        assert disk.radius < 1e-12

    def test_interior_plane(self):
        disk = masking.output_disk([0.0, 0.0, 2.0])
        assert np.allclose(disk.center, [0, 0, 0.25], atol=1e-12)
        assert abs(disk.radius - np.sqrt(3) / 4) < 1e-12

    def test_short_vector_empty(self):
        with pytest.raises(EmptyDiskError):
            masking.output_disk([0.5, 0.0, 0.0])

    def test_rim_on_bloch_sphere(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = samplers.unit_vector(rng, 3) * rng.uniform(1.0, 4.0)
            disk = masking.output_disk(a)
            assert abs(disk.radius**2 + np.dot(disk.center, disk.center) - 0.25) < 1e-12
            rim = disk.point(1.0, rng.uniform(0, 2 * np.pi))
            assert abs(np.linalg.norm(rim) - 0.5) < 1e-10

    def test_sampled_points_are_states_and_mask(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = samplers.unit_vector(rng, 3) * rng.uniform(1.0, 3.0)
            disk = masking.output_disk(a)
            for _ in range(5):
                b = disk.point(rng.uniform(0, 1), rng.uniform(0, 2 * np.pi))
                vec = bloch.BlochVector(2, b)
                _, positive = bloch.positivity_conditions(vec)
                assert positive
                assert abs(np.dot(a, b) - 0.5) < 1e-10
