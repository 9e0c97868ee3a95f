import numpy as np
import pytest

from obsmask import algebra, bloch, comask, masking, samplers
from obsmask.errors import (
    DegenerateLineError,
    DegenerateSpanError,
    DegenerateStateError,
    DimensionMismatchError,
    IdenticalPointsError,
    InconsistentConstraintsError,
    InfeasibleError,
    InvalidStateError,
)
from obsmask.invariants import REGISTRY


def coeffs(d, a0, a):
    return bloch.ObservableCoeffs(dimension=d, a0=a0, a=np.asarray(a, float))


def masking_gap(element, r, d):
    """(Tr(rho O) - 1) / 2 for the observable ``element`` at output state r,
    from the matrices; 0 exactly when the element masks r."""
    rho = bloch.bloch_to_state(bloch.BlochVector(d, np.asarray(r, float)))
    return (np.trace(rho @ bloch.coeffs_to_observable(element)).real - 1.0) / 2


def min_norm(points):
    """Minimum-norm a with a . r = 1/2 at every point r."""
    return np.linalg.lstsq(np.stack(points), np.full(len(points), 0.5), rcond=None)[0]


def assert_traceless_set(got, base, directions, rng):
    """The AffineSet ``got`` is {(0, base + w . directions)}: the same base
    point, and each set contains the other's samples."""
    dirs = np.reshape(directions, (-1, 3))
    want = comask.AffineSet(4, np.r_[0.0, base], np.column_stack([np.zeros(len(dirs)), dirs]))
    assert algebra.max_norm(got.base_point - want.base_point) < 1e-12
    for w in rng.normal(size=(5, len(dirs))) * 3:
        assert want.contains(got.sample(w)) and got.contains(want.sample(w))


class TestAffineSet:
    def test_membership_and_sampling(self):
        s = comask.AffineSet(3, np.array([1.0, 0, 0]), np.array([[0, 1.0, 0]]))
        assert s.contains([1.0, 5.0, 0.0])
        assert not s.contains([1.0, 0.0, 0.1])
        assert np.allclose(s.sample([2.0]), [1, 2, 0])

    def test_rejects_dependent_directions(self):
        with pytest.raises(ValueError):
            comask.AffineSet(
                3, np.zeros(3), np.array([[1.0, 0, 0], [2.0, 0, 0]])
            )

    def test_slice_coordinate(self):
        s = comask.AffineSet(
            2, np.array([1.0, 0.0]), np.array([[1.0, 1.0]])
        )
        sliced = s.slice_coordinate(0, 0.0)
        assert sliced.affine_dim == 0
        assert np.allclose(sliced.base_point, [0.0, -1.0])

    def test_slice_pins_coordinate_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            s = comask.AffineSet(5, rng.normal(size=5), rng.normal(size=(3, 5)))
            index, value = int(rng.integers(5)), float(rng.normal())
            sliced = s.slice_coordinate(index, value)
            assert all(sliced.sample(w)[index] == value for w in rng.normal(size=(5, 2)) * 10)
        # a coordinate the directions do not move, off the value by less than 1e-9
        s = comask.AffineSet(3, np.array([0.3 + 1e-10, 1.0, 2.0]), np.array([[0.0, 1.0, 1.0]]))
        assert s.slice_coordinate(0, 0.3).sample([4.0])[0] == 0.3


class TestPointCase:
    def test_known_plane(self):
        desc = comask.comask_from_point([0.0, 0.0, 0.5])
        assert desc.kind == "plane"
        assert desc.affine_dim == 2
        # the expected set {m1 s1 + m2 s2 + s3}
        rng = np.random.default_rng(1)
        for _ in range(20):
            m1, m2 = rng.normal(size=2) * 3
            assert desc.coefficient_set.contains([0.0, m1, m2, 1.0])

    def test_base_membership(self):
        desc = comask.comask_from_point([0.0, 0.0, 0.5])
        assert desc.coefficient_set.contains([0.0, 0.0, 0.0, 1.0])

    def test_masking_equation_holds(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            b = rng.normal(size=3)
            b *= rng.uniform(0.05, 0.5) / np.linalg.norm(b)
            desc = comask.comask_from_point(b)
            for _ in range(5):
                el = desc.element(rng.normal(size=2) * 2)
                assert abs(masking_gap(el, b, 2)) < 1e-10
                assert el.a0 == 0.0

    def test_degenerate_center(self):
        with pytest.raises(DegenerateStateError):
            comask.comask_from_point([0.0, 0.0, 0.0])


class TestLineCase:
    def test_derived_example(self):
        p = np.array([-np.sqrt(3) / 4, 0.0, 0.25])
        q = np.array([np.sqrt(3) / 4, 0.0, 0.25])
        desc = comask.comask_from_line(p, q)
        assert desc.kind == "line"
        assert desc.affine_dim == 1
        # the line {(0, lambda, 2)}
        rng = np.random.default_rng(3)
        for _ in range(10):
            lam = rng.normal() * 4
            assert desc.coefficient_set.contains([0.0, 0.0, lam, 2.0])
        assert desc.coefficient_set.contains([0.0, 0.0, 0.0, 2.0])

    def test_lambda_zero_masks_both_endpoints(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = rng.normal(size=3)
            p *= rng.uniform(0.1, 0.5) / np.linalg.norm(p)
            q = rng.normal(size=3)
            q *= rng.uniform(0.1, 0.5) / np.linalg.norm(q)
            if np.linalg.norm(np.cross(p, q)) < 1e-6:
                continue
            desc = comask.comask_from_line(p, q)
            el = desc.element([0.0])
            assert abs(masking_gap(el, p, 2)) < 1e-10
            assert abs(masking_gap(el, q, 2)) < 1e-10

    def test_segment_points_masked(self):
        p = np.array([-np.sqrt(3) / 4, 0.0, 0.25])
        q = np.array([np.sqrt(3) / 4, 0.0, 0.25])
        desc = comask.comask_from_line(p, q)
        rng = np.random.default_rng(5)
        for t in np.linspace(0.0, 1.0, 20):
            r = t * p + (1 - t) * q
            el = desc.element(rng.normal(size=1))
            assert abs(masking_gap(el, r, 2)) < 1e-10

    def test_collinear_with_origin_refused(self):
        with pytest.raises(DegenerateLineError):
            comask.comask_from_line([0.0, 0.0, 0.4], [0.0, 0.0, -0.2])

    def test_identical_endpoints(self):
        with pytest.raises(IdenticalPointsError):
            comask.comask_from_line([0.1, 0, 0], [0.1, 0, 0])


class TestPlanarCase:
    def test_disk_points_recover_center_observable(self):
        from obsmask import masking

        disk = masking.output_disk([0.0, 0.0, 2.0])
        rng = np.random.default_rng(6)
        points = [
            disk.point(rng.uniform(0.3, 1.0), rng.uniform(0, 2 * np.pi))
            for _ in range(10)
        ]
        desc = comask.comask_from_planar(points)
        assert desc.kind == "singleton"
        assert desc.affine_dim == 0
        assert np.allclose(desc.coefficient_set.base_point, [0, 0, 0, 2], atol=1e-9)

    def test_two_crossed_segments(self):
        # two non-parallel segments in the plane b3 = 1/4
        pts = [
            np.array([t, 0.0, 0.25]) for t in (-0.3, 0.0, 0.3)
        ] + [np.array([0.0, t, 0.25]) for t in (-0.3, 0.3)]
        desc = comask.comask_from_planar(pts)
        assert np.allclose(desc.coefficient_set.base_point, [0, 0, 0, 2], atol=1e-9)

    def test_collinear_points_degenerate(self):
        pts = [np.array([t, 0.0, 0.25]) for t in (-0.3, 0.0, 0.3)]
        with pytest.raises(DegenerateSpanError):
            comask.comask_from_planar(pts)


class TestGeneralCase:
    def test_single_point_d2(self):
        desc = comask.comask_general([[0.0, 0.0, 0.5]], 2)
        assert desc.affine_dim == 3
        assert desc.kind == "general"
        # the a0 = 0 slice is the closed-form plane {a : a . b = 1/2}
        sliced = desc.coefficient_set.slice_coordinate(0, 0.0)
        rng = np.random.default_rng(7)
        assert_traceless_set(sliced, [0.0, 0.0, 1.0], np.eye(3)[:2], rng)

    def test_two_points_k1(self):
        rng = np.random.default_rng(8)
        pts = [bloch.state_to_bloch(samplers.density(rng, 2)).b for _ in range(2)]
        desc = comask.comask_general(pts, 2)
        assert desc.affine_dim == 4 - 1 - 1

    @pytest.mark.parametrize("d,k", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 2)])
    def test_dimension_formula(self, d, k):
        rng = np.random.default_rng(10 * d + k)
        assert REGISTRY["comask_dimension_formula"].run(rng, (d, k), 1) == (1, 0)

    def test_elements_mask_all_points(self):
        rng = np.random.default_rng(9)
        for d in (2, 3):
            pts = [bloch.state_to_bloch(samplers.density(rng, d)).b for _ in range(3)]
            desc = comask.comask_general(pts, d)
            for _ in range(10):
                el = desc.element(rng.normal(size=desc.affine_dim))
                for r in pts:
                    assert abs(masking_gap(el, r, d)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_trace_equation_from_matrices(d):
    """Comask elements mask every given state, and the counterexample masks
    b': |Tr(rho O) - 1| <= 1e-10 ||O|| with rho and O built as matrices."""
    rng = np.random.default_rng(80 + d)
    pts = [bloch.state_to_bloch(samplers.density(rng, d)).b for _ in range(3)]

    def deviation(c, b):
        return abs(2 * masking_gap(c, b, d)) / np.linalg.norm(bloch.coeffs_to_observable(c), 2)

    desc = comask.comask_general(pts, d)
    for _ in range(5):
        el = desc.element(rng.normal(size=desc.affine_dim))
        assert max(deviation(el, b) for b in pts) <= 1e-10
    out = comask.universal_counterexample(pts[0], pts[1], d)
    assert deviation(out, pts[1]) <= 1e-10


def test_qubit_cases_match_closed_forms():
    # reference copies of the closed forms the qubit cases were once solved
    # by: b / (2|b|^2) and the minimum-norm solutions of a . r = 1/2
    rng = np.random.default_rng(14)
    for _ in range(200):
        b, p, q = (samplers.unit_vector(rng, 3) * rng.uniform(0.1, 0.5) for _ in range(3))
        plane = comask.comask_from_point(b).coefficient_set
        frame = algebra.plane_frame(b / np.linalg.norm(b))
        assert_traceless_set(plane, b / (2 * b @ b), frame, rng)
        n = np.cross(p, q)
        if np.linalg.norm(n) > 1e-2:
            line = comask.comask_from_line(p, q).coefficient_set
            assert_traceless_set(line, min_norm([p, q]), n / np.linalg.norm(n), rng)
        disk = masking.output_disk(samplers.unit_vector(rng, 3) * rng.uniform(1.1, 5.0))
        pts = [disk.point(rng.uniform(0.1, 1), rng.uniform(0, 2 * np.pi)) for _ in range(5)]
        singleton = comask.comask_from_planar(pts).coefficient_set
        assert_traceless_set(singleton, min_norm(pts), [], rng)


POINT, LINE, PLANAR = comask.comask_from_point, comask.comask_from_line, comask.comask_from_planar


@pytest.mark.parametrize("case,args,error", [
    (POINT, ([0, 0, 0],), DegenerateStateError),
    (POINT, ([1e-10, 0, 0],), DegenerateStateError),
    (POINT, ([0, 0, 0.6],), InvalidStateError),
    (POINT, ([0, 0.3],), DimensionMismatchError),
    (LINE, ([0.1, 0, 0], [0.1, 0, 0]), IdenticalPointsError),
    (LINE, ([0, 0, 0.4], [0, 0, 0.2]), DegenerateLineError),
    (LINE, ([0, 0, 0.4], [0, 0, -0.2]), DegenerateLineError),
    (LINE, ([0, 0, 0.4], [2.5e-11, 0, 0.2]), DegenerateLineError),  # |p x q| = 1e-11
    (LINE, ([0, 0, 0], [0, 0, 0.2]), DegenerateLineError),
    (LINE, ([0, 0, 0.6], [0.1, 0, 0.2]), InvalidStateError),
    (LINE, ([0, 0.4], [0.1, 0, 0.2]), DimensionMismatchError),
    (PLANAR, ([],), DegenerateSpanError),
    (PLANAR, ([[0.1, 0, 0.2], [0, 0.1, 0.2]],), DegenerateSpanError),
    (PLANAR, ([[0.1, 0, 0.2], [0, 0.1, 0.9]],), InvalidStateError),
    (PLANAR, ([[-0.3, 0, 0.25], [0, 0, 0.25], [0.3, 0, 0.25]],), DegenerateSpanError),
    (PLANAR, ([[0, 0, -0.3], [0, 0, 0.1], [0, 0, 0.3]],), DegenerateSpanError),
    (PLANAR, ([[0.1, 0, 0], [0, 0.1, 0], [0.1, 0.1, 0]],), InconsistentConstraintsError),
    (PLANAR, ([[.1, 0, .1], [0, .1, .1], [.1, .1, .1], [0, 0, .3]],), InconsistentConstraintsError),
    (PLANAR, ([[0.1, 0, 0.1], [0, 0.1, 0.1], [0.1, 0.1, 0.9]],), InvalidStateError),
    (PLANAR, ([[0.1, 0, 0.1], [0, 0.1], [0.1, 0.1, 0.1]],), DimensionMismatchError),
])
def test_qubit_case_errors(case, args, error):
    with pytest.raises(error):
        case(*args)


class TestCounterexample:
    def test_derived_arithmetic(self):
        out = comask.universal_counterexample(
            [0.0, 0.0, 0.5], [0.0, 0.0, 0.25], 2
        )
        assert np.allclose(out.a, [0, 0, 1], atol=1e-12)
        assert abs(out.a0 - 0.5) < 1e-12
        assert abs(masking_gap(out, np.array([0.0, 0.0, 0.25]), 2)) < 1e-12
        assert abs(masking_gap(out, np.array([0.0, 0.0, 0.5]), 2) - 0.25) < 1e-12

    def test_always_masks_bprime(self):
        rng = np.random.default_rng(11)
        for d in (2, 3):
            for _ in range(20):
                b = bloch.state_to_bloch(samplers.density(rng, d)).b
                bp = bloch.state_to_bloch(samplers.density(rng, d)).b
                if np.linalg.norm(b - bp) < 1e-6:
                    continue
                out = comask.universal_counterexample(b, bp, d)
                assert abs(masking_gap(out, bp, d)) < 1e-10
                assert abs(masking_gap(out, b, d)) > 1e-8

    def test_identical_points(self):
        with pytest.raises(IdenticalPointsError):
            comask.universal_counterexample([0.1, 0, 0], [0.1, 0, 0], 2)


class TestCommonOutputState:
    def test_sigma3_alone(self):
        rho = comask.find_common_output_state([coeffs(2, 0.0, [0, 0, 1])], 2)
        assert algebra.max_norm(rho - np.diag([1.0, 0.0])) < 1e-7

    def test_sigma3_and_sigma1_infeasible(self):
        with pytest.raises(InfeasibleError) as exc:
            comask.find_common_output_state(
                [coeffs(2, 0.0, [0, 0, 1]), coeffs(2, 0.0, [1, 0, 0])], 2
            )
        assert exc.value.residual > 1e-6

    def test_sigma3_and_mixed_direction(self):
        rho = comask.find_common_output_state(
            [coeffs(2, 0.0, [0, 0, 1]), coeffs(2, 0.0, [1, 0, 1])], 2
        )
        b = bloch.state_to_bloch(rho).b
        assert np.allclose(b, [0, 0, 0.5], atol=1e-6)

    def test_counterexample_rejected_with_exact_masker(self):
        # an observable with |a| = 1 is masked exactly at the single tangent
        # point b = a/2; pairing it with the counterexample built to fail at b
        # leaves no common output state
        rng = np.random.default_rng(12)
        for _ in range(5):
            n = samplers.unit_vector(rng, 3)
            b = n / 2
            bp = bloch.state_to_bloch(samplers.density(rng, 2)).b
            if np.linalg.norm(b - bp) < 1e-3:
                continue
            ce = comask.universal_counterexample(b, bp, 2)
            exact = coeffs(2, 0.0, n)
            with pytest.raises(InfeasibleError):
                comask.find_common_output_state([exact, ce], 2)
