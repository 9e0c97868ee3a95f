import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from obsmask import algebra, bloch, comask, samplers
from obsmask.errors import (
    DimensionMismatchError,
    IdenticalPointsError,
    InconsistentConstraintsError,
    InfeasibleError,
    InvalidStateError,
    NoAffineSolutionError,
)
from obsmask.invariants import REGISTRY


def coeffs(d, a0, a):
    return bloch.ObservableCoeffs(dimension=d, a0=a0, a=np.asarray(a, float))


def masking_gap(element, r, d):
    """(Tr(rho O) - 1) / 2 for the observable ``element`` at output state r,
    from the matrices; 0 exactly when the element masks r."""
    rho = bloch.bloch_to_state(bloch.BlochVector(d, np.asarray(r, float)))
    return (np.trace(rho @ bloch.coeffs_to_observable(element)).real - 1.0) / 2


def trace_deviation(c, b, d):
    """|Tr(rho O) - 1| / ||O|| for the observable c at output state b, with
    rho and O built as matrices."""
    return abs(2 * masking_gap(c, b, d)) / np.linalg.norm(bloch.coeffs_to_observable(c), 2)


def min_norm(points):
    """Minimum-norm a with a . r = 1/2 at every point r."""
    return np.linalg.lstsq(np.stack(points), np.full(len(points), 0.5), rcond=None)[0]


def null_frame(a):
    """Orthonormal rows spanning the plane orthogonal to the 3-vector a,
    from its SVD."""
    return np.linalg.svd(np.reshape(a, (1, 3)))[2][1:]


def disk_points(a, rng, count, low):
    """``count`` points of the disk of qubit states b with a . b = 1/2:
    a / (2|a|^2) + r (cos t, sin t) . frame, with r^2 <= 1/4 - 1/(4|a|^2)
    drawn from fraction ``low`` to 1 of that radius."""
    a = np.asarray(a, dtype=float)
    center, frame = a / (2 * a @ a), null_frame(a)
    radius = np.sqrt(0.25 - 0.25 / (a @ a))
    points = []
    for _ in range(count):
        r, t = radius * rng.uniform(low, 1.0), rng.uniform(0, 2 * np.pi)
        points.append(center + r * (np.cos(t) * frame[0] + np.sin(t) * frame[1]))
    return points


def assert_traceless_set(got, base, directions, rng):
    """The AffineSet ``got`` is {(0, base + w . directions)}: the same base
    point, and each set contains the other's samples."""
    dirs = np.reshape(directions, (-1, 3))
    want = comask.AffineSet(4, np.r_[0.0, base], np.column_stack([np.zeros(len(dirs)), dirs]))
    assert algebra.max_norm(got.base_point - want.base_point) < 1e-12
    for w in rng.normal(size=(5, len(dirs))) * 3:
        assert want.contains(got.sample(w)) and got.contains(want.sample(w))


def same_bits(got, want):
    """Whether two AffineSets have the same base point and directions, bit
    for bit."""
    return (
        got.base_point.tobytes() == want.base_point.tobytes()
        and got.directions.tobytes() == want.directions.tobytes()
    )


class TestAffineSet:
    def test_membership_and_sampling(self):
        s = comask.AffineSet(3, np.array([1.0, 0, 0]), np.array([[0, 1.0, 0]]))
        assert s.contains([1.0, 5.0, 0.0])
        assert not s.contains([1.0, 0.0, 0.1])
        assert np.allclose(s.sample([2.0]), [1, 2, 0])

    def test_constructors_own_their_arrays(self):
        # both forms copy what they are given, so a later write to the
        # caller's arrays does not move the set
        base, dirs = np.zeros(4), np.eye(4)[1:3]
        sets = [
            comask.AffineSet.echelon(base, [1, 2], np.zeros((2, 2))),
            comask.AffineSet(4, base, dirs),
        ]
        base[0] = 5.0
        dirs[0] = [1.0, 0.0, 0.0, 0.0]
        for s in sets:
            assert s.contains([0.0, 1.0, 1.0, 0.0])
            assert not s.base_point.flags.writeable
            assert not s.directions.flags.writeable

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

    def test_contains_rejects_wrong_length(self):
        s = comask.AffineSet(3, [1.0, 1.0, 1.0], np.zeros((0, 3)))
        for point in ([1.0], [1.0, 1.0], [1.0] * 4):
            with pytest.raises(DimensionMismatchError):
                s.contains(point)

    def test_slice_base_is_nearest_point_in_any_basis(self):
        # the same set under a random change of direction basis slices to
        # the same base point: the point of the slice nearest the base
        rng = np.random.default_rng(15)
        for _ in range(50):
            base, dirs = rng.normal(size=6), rng.normal(size=(3, 6))
            index, value = int(rng.integers(6)), float(rng.normal())
            first = comask.AffineSet(6, base, dirs).slice_coordinate(index, value)
            mixed = comask.AffineSet(6, base, rng.normal(size=(3, 3)) @ dirs)
            second = mixed.slice_coordinate(index, value)
            assert algebra.max_norm(first.base_point - second.base_point) < 1e-9
            # nearest: the offset from the base is orthogonal to the slice
            offset = first.base_point - base
            assert np.max(np.abs(first.directions @ offset)) < 1e-9
            assert all(mixed.contains(first.sample(w)) for w in rng.normal(size=(3, 2)))


def svd_independent(dirs):
    """The singular-value rank test, with no certificate in front of it."""
    if not len(dirs):
        return True
    svals = np.linalg.svd(dirs, compute_uv=False)
    return svals[-1] > comask.RANK_RTOL * svals[0]


def test_echelon_certificate_is_sound():
    """Random echelon families with rest entries up to 1e12: wherever the
    unit block certifies independence, the SVD test of the dense view
    accepts too, and the factored form is refused exactly where that SVD
    refuses.  Dependent rows, which only the dense constructor can take,
    are refused every time."""
    rng = np.random.default_rng(16)
    certified = 0
    for _ in range(600):
        m = int(rng.integers(1, 6))
        n = m + int(rng.integers(0, 6))
        units = rng.permutation(n)[:m]
        rest = rng.normal(size=(m, n - m)) * 10.0 ** rng.uniform(-3, 12)
        view = comask._echelon_dense(units, np.setdiff1d(np.arange(n), units), rest, n)
        if comask._unit_block_certifies(rest):
            certified += 1
            assert svd_independent(view)
        if svd_independent(view):
            got = comask.AffineSet.echelon(np.zeros(n), units, rest)
            assert got.directions.tobytes() == view.tobytes()
        else:
            with pytest.raises(ValueError):
                comask.AffineSet.echelon(np.zeros(n), units, rest)
        if m > 1:
            dependent = view.copy()
            dependent[-1] = rng.normal(size=m - 1) @ view[:-1]
            with pytest.raises(ValueError):
                comask.AffineSet(n, np.zeros(n), dependent)
    assert certified > 100


def test_echelon_rejects_malformed_factors():
    # repeated or out-of-range unit columns, and a rest block of the wrong width
    for units in ([1, 1], [-1, 0], [0, 4]):
        with pytest.raises(ValueError):
            comask.AffineSet.echelon(np.zeros(4), units, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        comask.AffineSet.echelon(np.zeros(4), [0, 2], np.zeros((2, 3)))


class TestPointCase:
    def test_known_plane(self):
        desc = comask.comask_qubit([[0.0, 0.0, 0.5]])
        assert desc.kind == "plane"
        assert desc.affine_dim == 2
        # the expected set {m1 s1 + m2 s2 + s3}
        rng = np.random.default_rng(1)
        for _ in range(20):
            m1, m2 = rng.normal(size=2) * 3
            assert desc.coefficient_set.contains([0.0, m1, m2, 1.0])

    def test_base_membership(self):
        desc = comask.comask_qubit([[0.0, 0.0, 0.5]])
        assert desc.coefficient_set.contains([0.0, 0.0, 0.0, 1.0])

    def test_masking_equation_holds(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            b = rng.normal(size=3)
            b *= rng.uniform(0.05, 0.5) / np.linalg.norm(b)
            desc = comask.comask_qubit([b])
            for _ in range(5):
                el = desc.element(rng.normal(size=2) * 2)
                assert abs(masking_gap(el, b, 2)) < 1e-10
                assert el.a0 == 0.0

    def test_degenerate_center(self):
        with pytest.raises(InconsistentConstraintsError):
            comask.comask_qubit([[0.0, 0.0, 0.0]])


class TestLineCase:
    def test_derived_example(self):
        p = np.array([-np.sqrt(3) / 4, 0.0, 0.25])
        q = np.array([np.sqrt(3) / 4, 0.0, 0.25])
        desc = comask.comask_qubit([p, q])
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
            desc = comask.comask_qubit([p, q])
            el = desc.element([0.0])
            assert abs(masking_gap(el, p, 2)) < 1e-10
            assert abs(masking_gap(el, q, 2)) < 1e-10

    def test_segment_points_masked(self):
        p = np.array([-np.sqrt(3) / 4, 0.0, 0.25])
        q = np.array([np.sqrt(3) / 4, 0.0, 0.25])
        desc = comask.comask_qubit([p, q])
        rng = np.random.default_rng(5)
        for t in np.linspace(0.0, 1.0, 20):
            r = t * p + (1 - t) * q
            el = desc.element(rng.normal(size=1))
            assert abs(masking_gap(el, r, 2)) < 1e-10

    def test_collinear_with_origin_refused(self):
        with pytest.raises(InconsistentConstraintsError):
            comask.comask_qubit([[0.0, 0.0, 0.4], [0.0, 0.0, -0.2]])

    def test_identical_endpoints(self):
        # a repeated point adds no direction: the plane of the one point
        got = comask.comask_qubit([[0.1, 0, 0], [0.1, 0, 0]])
        want = comask.comask_qubit([[0.1, 0, 0]])
        assert got.kind == "plane"
        assert same_bits(got.coefficient_set, want.coefficient_set)


class TestPlanarCase:
    def test_disk_points_recover_center_observable(self):
        rng = np.random.default_rng(6)
        points = disk_points([0.0, 0.0, 2.0], rng, 10, 0.3)
        desc = comask.comask_qubit(points)
        assert desc.kind == "singleton"
        assert desc.affine_dim == 0
        assert np.allclose(desc.coefficient_set.base_point, [0, 0, 0, 2], atol=1e-9)

    def test_two_crossed_segments(self):
        # two non-parallel segments in the plane b3 = 1/4
        pts = [
            np.array([t, 0.0, 0.25]) for t in (-0.3, 0.0, 0.3)
        ] + [np.array([0.0, t, 0.25]) for t in (-0.3, 0.3)]
        desc = comask.comask_qubit(pts)
        assert np.allclose(desc.coefficient_set.base_point, [0, 0, 0, 2], atol=1e-9)

    def test_collinear_points_degenerate(self):
        # points spanning a line give the line of observables masking them
        rng = np.random.default_rng(18)
        for pts in (
            [np.array([t, 0.0, 0.25]) for t in (-0.3, 0.0, 0.3)],
            [np.array([0.1, 0.0, 0.2]), np.array([0.0, 0.1, 0.2])],
        ):
            desc = comask.comask_qubit(pts)
            assert desc.kind == "line"
            n = np.cross(pts[0], pts[-1])
            assert_traceless_set(desc.coefficient_set, min_norm(pts), n / np.linalg.norm(n), rng)


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
    desc = comask.comask_general(pts, d)
    for _ in range(5):
        el = desc.element(rng.normal(size=desc.affine_dim))
        assert max(trace_deviation(el, b, d) for b in pts) <= 1e-10
    out = comask.universal_counterexample(pts[0], pts[1], d)
    assert trace_deviation(out, pts[1], d) <= 1e-10


@pytest.mark.parametrize("d", [8, 12, 16])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_general_echelon_directions(d, k):
    """k + 1 random states, then the same list with one point repeated: the
    dimension formula, independent directions by the SVD test itself, and
    elements that mask every state, checked from matrices."""
    rng = np.random.default_rng(90 + 4 * d + k)
    pts = [bloch.state_to_bloch(samplers.density(rng, d)).b for _ in range(k + 1)]
    for points in (pts, pts + [pts[int(rng.integers(k + 1))].copy()]):
        desc = comask.comask_general(points, d)
        assert desc.affine_dim == d * d - k - 1
        assert svd_independent(desc.coefficient_set.directions)
        for _ in range(3):
            el = desc.element(rng.normal(size=desc.affine_dim))
            assert max(trace_deviation(el, b, d) for b in points) <= 1e-10


def test_general_never_decomposes_the_direction_matrix(monkeypatch):
    """At d = 16 the only SVD is of the k x 255 block of differences, and
    the (255 - k) x 256 direction matrix is never formed: it is certified
    from its echelon factors."""
    rows, views = [], []
    dense = comask._echelon_dense

    def spy(real):
        def recording(a):
            rows.append(np.shape(a)[0])
            return real(a)

        return recording

    def dense_spy(*args):
        views.append(args[0].size)
        return dense(*args)

    for name in ("_svd", "_svd_full", "_svdvals"):
        monkeypatch.setattr(algebra, name, spy(getattr(algebra, name)))
    monkeypatch.setattr(comask, "_echelon_dense", dense_spy)
    rng = np.random.default_rng(17)
    for k in range(4):
        rows.clear()
        pts = [bloch.state_to_bloch(samplers.density(rng, 16)).b for _ in range(k + 1)]
        desc = comask.comask_general(pts, 16)
        assert desc.affine_dim == 255 - k
        desc.element(rng.normal(size=255 - k))
        assert len(rows) == int(k >= 1) and all(r <= k for r in rows), rows
        assert views == []


@pytest.mark.parametrize("d", [2, 3, 8, 16])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_general_factors_match_the_public_echelon(d, k):
    """The set comask_general builds is the one ``AffineSet.echelon``
    builds again from its factors, bit for bit, and every factor of it is
    read-only."""
    rng = np.random.default_rng(1700 + 4 * d + k)
    pts = [bloch.state_to_bloch(samplers.density(rng, d)).b for _ in range(k + 1)]
    got = comask.comask_general(pts, d).coefficient_set
    want = comask.AffineSet.echelon(got.base_point, got.units, got.rest)
    for name in ("units", "rest", "_others", "base_point"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.directions.tobytes() == want.directions.tobytes()
    assert got.ambient_dim == want.ambient_dim == d * d
    for name in ("units", "rest", "_others"):
        assert not getattr(got, name).flags.writeable, name


@pytest.mark.parametrize("d", [2, 8, 16])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_general_call_counts(d, k, spy):
    """One independence certificate, one stacked Cholesky, one SVD of the
    differences when k >= 1 and no eigensolver, for k + 1 valid states."""
    rng = np.random.default_rng(1800 + 4 * d + k)
    pts = [bloch.state_to_bloch(samplers.density(rng, d)).b for _ in range(k + 1)]
    certs = spy(comask, ["_unit_block_certifies"])
    linalg = spy(algebra, ["_cholesky", "_svd", "_svd_full", "_svdvals", "_eigvalsh", "_eigh"])
    comask.comask_general(pts, d)
    assert certs == {"_unit_block_certifies": 1}
    assert linalg == {"_cholesky": 1, "_svd": int(k >= 1), "_svd_full": 0, "_svdvals": 0,
                      "_eigvalsh": 0, "_eigh": 0}


def test_general_reads_points_of_any_flat_shape():
    """Rows of a 2-D array, columns of shape (n, 1) and plain lists give the
    set that 1-D arrays give, bit for bit."""
    rng = np.random.default_rng(19)
    d = 3
    pts = [bloch.state_to_bloch(samplers.density(rng, d)).b for _ in range(3)]
    want = comask.comask_general(pts, d).coefficient_set
    for points in (np.stack(pts), [p[:, None] for p in pts], [p.tolist() for p in pts],
                   (p for p in pts), [pts[0][None, :], pts[1], pts[2]]):
        got = comask.comask_general(points, d).coefficient_set
        assert got.rest.tobytes() == want.rest.tobytes()
        assert got.units.tobytes() == want.units.tobytes()
    with pytest.raises(DimensionMismatchError, match=r"^point 2 has shape \(9,\), expected \(8,\)$"):
        comask.comask_general([pts[0][:, None], pts[1], np.zeros((3, 3))], d)


def reference_directions(points, d):
    """The dense direction matrix comask_general once built, [a0 column | I
    on the free columns | -coupling^T on the pivot columns], from the same
    SVD and Gauss-Jordan steps."""
    n = d * d - 1
    pts = np.stack(points)
    b0 = pts[0]
    v = np.zeros((0, n))
    if len(pts) > 1:
        _, svals, vh = np.linalg.svd(pts[1:] - b0, full_matrices=False)
        v = vh[: int(np.sum(svals > comask.RANK_RTOL * max(svals[0], 1e-30)))]
    r, piv = comask._pivoted_echelon(v)
    free = np.setdiff1d(np.arange(n), piv)
    coupling = r[:, free]
    dirs = np.zeros((free.size, n + 1))
    dirs[:, 0] = -2.0 * (b0[free] - coupling.T @ b0[piv])
    dirs[np.arange(free.size), 1 + free] = 1.0
    dirs[:, 1 + piv] = -coupling.T
    return dirs


@pytest.mark.parametrize("d", [2, 3, 4, 8, 12, 16])
def test_general_view_matches_dense_construction(d):
    """For k = 0..3, with and without a repeated point: the dense view has
    the reference matrix's bytes and is read-only, and sample and element
    agree with base + w @ view within 1e-14 max(1, |x|)."""
    rng = np.random.default_rng(120 + d)
    for k in range(4):
        pts = [bloch.state_to_bloch(samplers.density(rng, d)).b for _ in range(k + 1)]
        for points in (pts, pts + [pts[int(rng.integers(k + 1))].copy()]):
            desc = comask.comask_general(points, d)
            got = desc.coefficient_set
            want = reference_directions(points, d)
            assert got.directions.tobytes() == want.tobytes()
            assert not got.directions.flags.writeable
            for w in rng.normal(size=(5, desc.affine_dim)) * 3:
                x = got.base_point + w @ want
                tol = 1e-14 * max(1.0, algebra.max_norm(x))
                el = desc.element(w)
                assert algebra.max_norm(got.sample(w) - x) <= tol
                assert algebra.max_norm(np.r_[el.a0, el.a] - x) <= tol


def test_general_allocation_peak_at_d16():
    """comask_general at d = 16 peaks under 128 KB of traced allocation, a
    quarter of the 255 x 256 float direction matrix (522 KB) it never forms."""
    rng = np.random.default_rng(18)
    for k in range(4):
        pts = [bloch.state_to_bloch(samplers.density(rng, 16)).b for _ in range(k + 1)]
        comask.comask_general(pts, 16)
        tracemalloc.start()
        try:
            comask.comask_general(pts, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024, (k, peak)


def test_general_checks_shapes_before_positivity():
    # every point's length is checked before any point's spectrum
    with pytest.raises(DimensionMismatchError, match=r"^point 1 has shape \(2,\), expected \(3,\)$"):
        comask.comask_general([[np.nan, 0.0, 0.0], [0.1, 0.1]], 2)
    with pytest.raises(DimensionMismatchError, match=r"^point 1 has shape \(2,\), expected \(3,\)$"):
        comask.comask_general([[1.0, 0.0, 0.0], [0.1, 0.1]], 2)
    with pytest.raises(InvalidStateError, match="non-finite"):
        comask.comask_general([[0.1, 0.0, 0.0], [np.inf, 0.0, 0.0]], 2)


def test_qubit_cases_match_closed_forms():
    # reference copies of the closed forms the qubit cases were once solved
    # by: b / (2|b|^2) and the minimum-norm solutions of a . r = 1/2
    rng = np.random.default_rng(14)
    for _ in range(200):
        b, p, q = (samplers.unit_vector(rng, 3) * rng.uniform(0.1, 0.5) for _ in range(3))
        plane = comask.comask_qubit([b]).coefficient_set
        assert_traceless_set(plane, b / (2 * b @ b), null_frame(b), rng)
        n = np.cross(p, q)
        if np.linalg.norm(n) > 1e-2:
            line = comask.comask_qubit([p, q]).coefficient_set
            assert_traceless_set(line, min_norm([p, q]), n / np.linalg.norm(n), rng)
        pts = disk_points(samplers.unit_vector(rng, 3) * rng.uniform(1.1, 5.0), rng, 5, 0.1)
        singleton = comask.comask_qubit(pts).coefficient_set
        assert_traceless_set(singleton, min_norm(pts), [], rng)


def qubit_states(rng, count):
    """``count`` random qubit Bloch vectors of length 0.05 to 0.5."""
    return [samplers.unit_vector(rng, 3) * rng.uniform(0.05, 0.5) for _ in range(count)]


def hull_distance(points):
    """Distance of the points' affine hull from b = 0, exact up to the final
    rounding: Gram-Schmidt in rational arithmetic on the float inputs."""
    pts = [[Fraction(x) for x in p] for p in points]
    near, basis = pts[0], []
    for p in pts[1:]:
        v = [x - y for x, y in zip(p, pts[0])]
        for u in basis:
            scale = sum(x * y for x, y in zip(v, u)) / sum(x * x for x in u)
            v = [x - scale * y for x, y in zip(v, u)]
        if any(v):
            basis.append(v)
            scale = sum(x * y for x, y in zip(near, v)) / sum(x * x for x in v)
            near = [x - scale * y for x, y in zip(near, v)]
    return math.sqrt(float(sum(x * x for x in near)))


@pytest.mark.parametrize("count,kind", [(1, "plane"), (2, "line"), (3, "singleton")])
def test_qubit_is_the_traceless_slice_bit_for_bit(count, kind):
    """Hull dimension count - 1: the kind, the slice of comask_general bit
    for bit, and elements with a0 exactly 0 masking every point."""
    rng = np.random.default_rng(20 + count)
    for _ in range(200):
        pts = qubit_states(rng, count)
        desc = comask.comask_qubit(pts)
        assert desc.kind == kind
        sliced = comask.comask_general(pts, 2).coefficient_set.slice_coordinate(0, 0.0)
        assert same_bits(desc.coefficient_set, sliced)
        for w in rng.normal(size=(3, desc.affine_dim)) * 3:
            el = desc.coefficient_set.sample(w)
            assert el[0] == 0.0
            assert np.max(np.abs(np.stack(pts) @ el[1:] - 0.5)) < 1e-10


# sha256 over the base point and direction bytes of comask_qubit on 200
# seeded point sets per count, taken from the dense direction construction
QUBIT_CORPUS = {
    1: "2ae3159283dfbc22fd4e2858f267dcd639609337ec0758fc965af659605fb43f",
    2: "538896ed337bba6a92db3c66c4161d18ef59ec8ee83bcad1d509ba03136b1602",
    3: "735e8a1f54c793a0273d3cfafeef2492dcb093109926697646601cddf2998832",
}


@pytest.mark.parametrize("count", [1, 2, 3])
def test_qubit_corpus_is_pinned_bit_for_bit(count):
    rng = np.random.default_rng(40 + count)
    digest = hashlib.sha256()
    for _ in range(200):
        got = comask.comask_qubit(qubit_states(rng, count)).coefficient_set
        digest.update(got.base_point.tobytes())
        digest.update(got.directions.tobytes())
    assert digest.hexdigest() == QUBIT_CORPUS[count]


def test_qubit_refuses_hulls_through_the_mixed_state():
    # p with -t p spans a line through b = 0; p, q and -(s p + t q) a plane
    rng = np.random.default_rng(23)
    for _ in range(200):
        p, q = qubit_states(rng, 2)
        s, t = rng.uniform(0.1, 0.5, size=2)
        for pts in ([p, -t * p], [p, q, -(s * p + t * q)]):
            with pytest.raises(InconsistentConstraintsError):
                comask.comask_qubit(pts)


def test_qubit_accepts_hulls_off_the_mixed_state():
    """Hulls planted at distance 1e-8 to 0.25 from b = 0 are accepted with
    |a*| = 1 / (2 dist).  The slice's projection loses about eps / dist of
    relative accuracy, so below dist = 1e-6 the bound is 1e-15 / dist."""
    rng = np.random.default_rng(24)
    for trial in range(600):
        n, u, v = np.linalg.qr(rng.normal(size=(3, 3)))[0].T
        # one point, a segment or a triangle around the nearest point
        spread = (np.zeros((1, 3)), np.stack([u, -u]), np.stack([u, v, -u - v]))[trial % 3]
        pts = 10 ** rng.uniform(-8, -0.6) * n + rng.uniform(0.05, 0.2) * spread
        dist = hull_distance(pts)
        norm = np.linalg.norm(comask.comask_qubit(pts).coefficient_set.base_point)
        assert abs(2 * dist * norm - 1) <= max(1e-9, 1e-15 / dist), (trial, dist)
    # a line 2e-9 from b = 0, just outside HULL_ATOL
    desc = comask.comask_qubit([[0.1, 2e-9, 0.0], [-0.1, 2e-9, 0.0]])
    assert desc.kind == "line"
    assert abs(np.linalg.norm(desc.coefficient_set.base_point) / 2.5e8 - 1) < 1e-7


@pytest.mark.parametrize("points,error", [
    ([[0, 0, 0]], InconsistentConstraintsError),
    ([[1e-10, 0, 0]], InconsistentConstraintsError),
    ([[0, 0, 0.6]], InvalidStateError),
    ([[0, 0.3]], DimensionMismatchError),
    ([[0, 0, 0.4], [0, 0, 0.2]], InconsistentConstraintsError),
    ([[0, 0, 0.4], [0, 0, -0.2]], InconsistentConstraintsError),
    ([[0, 0, 0.4], [2.5e-11, 0, 0.2]], InconsistentConstraintsError),  # hull 5e-11 from 0
    ([[0, 0, 0], [0, 0, 0.2]], InconsistentConstraintsError),
    ([[0, 0, 0.6], [0.1, 0, 0.2]], InvalidStateError),
    ([[0, 0.4], [0.1, 0, 0.2]], DimensionMismatchError),
    ([], ValueError),
    ([[0.1, 0, 0.2], [0, 0.1, 0.9]], InvalidStateError),
    ([[0, 0, -0.3], [0, 0, 0.1], [0, 0, 0.3]], InconsistentConstraintsError),
    ([[0.1, 0, 0], [0, 0.1, 0], [0.1, 0.1, 0]], InconsistentConstraintsError),
    ([[.1, 0, .1], [0, .1, .1], [.1, .1, .1], [0, 0, .3]], InconsistentConstraintsError),
    ([[0.1, 0, 0.1], [0, 0.1, 0.1], [0.1, 0.1, 0.9]], InvalidStateError),
    ([[0.1, 0, 0.1], [0, 0.1], [0.1, 0.1, 0.1]], DimensionMismatchError),
])
def test_qubit_case_errors(points, error):
    with pytest.raises(error):
        comask.comask_qubit(points)


@pytest.mark.parametrize("points,kind,directions", [
    ([[0.1, 0, 0], [0.1, 0, 0]], "plane", [[0, 1, 0], [0, 0, 1]]),
    ([[0.1, 0, 0.2], [0, 0.1, 0.2]], "line", [[-2 / 3, -2 / 3, 1 / 3]]),
    ([[-0.3, 0, 0.25], [0, 0, 0.25], [0.3, 0, 0.25]], "line", [[0, 1, 0]]),
], ids=["identical-endpoints", "two-points", "collinear-three"])
def test_qubit_degenerate_hulls(points, kind, directions):
    # hulls of lower dimension than their point count are solved, not refused
    desc = comask.comask_qubit(points)
    assert desc.kind == kind
    pts = [np.asarray(p, dtype=float) for p in points]
    assert_traceless_set(desc.coefficient_set, min_norm(pts), directions, np.random.default_rng(19))


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

    def test_dimension_one_is_refused(self):
        # at d = 1 both Bloch vectors are empty, and so would coincide
        with pytest.raises(ValueError, match="^dimension must be >= 2, got 1$"):
            comask.universal_counterexample([], [], 1)

    def test_refuses_non_finite_points(self):
        # the gap |b - b'| of a nan point is nan, which passes `gap < atol`
        with pytest.raises(InvalidStateError):
            comask.universal_counterexample([np.nan, 0, 0], np.zeros(3), 2)


def _reference_search(observables, d):
    """find_common_output_state written with the public, validating codecs
    (BlochVector, bloch_to_state, state_to_bloch) in every round and the
    residual formed twice: the reference for its output bits."""
    rows = np.stack([np.asarray(c.a, dtype=float) for c in observables])
    rhs = np.array([0.5 - c.a0 / 2 for c in observables])
    pinv = np.linalg.pinv(rows, rcond=comask.RANK_RTOL)
    b = pinv @ rhs
    if np.max(np.abs(rows @ b - rhs)) > 1e-9:
        raise NoAffineSolutionError("masking equations are mutually inconsistent")
    gap = np.inf
    prev_gap = None
    for _ in range(comask.SEARCH_MAX_ITER):
        rho = bloch.bloch_to_state(bloch.BlochVector(d, b))
        vals, vecs = np.linalg.eigh(rho)
        clipped = np.clip(vals, 0.0, None)
        total = float(np.sum(clipped))
        if total < 1e-12:
            rho_psd = np.eye(d, dtype=complex) / d
        else:
            rho_psd = (vecs * (clipped / total)) @ algebra.dagger(vecs)
        b_psd = bloch.state_to_bloch(rho_psd).b
        if np.max(np.abs(rows @ b_psd - rhs)) < comask.CONSTRAINT_ATOL:
            return rho_psd
        b_next = b_psd - pinv @ (rows @ b_psd - rhs)
        gap = float(np.linalg.norm(b_next - b_psd))
        stalled = prev_gap is not None and abs(gap - prev_gap) < comask.STALL_ATOL
        if stalled and gap > comask.INFEASIBLE_GAP:
            raise InfeasibleError(f"projections stalled at set distance {gap:.3e}", residual=gap)
        if stalled and np.array_equal(b_next, b):
            worst = float(np.max(np.abs(rows @ b_psd - rhs)))
            raise InfeasibleError(
                f"projections reached a fixed point with constraint residual {worst:.3e}",
                residual=worst,
            )
        prev_gap = gap
        b = b_next
    raise InfeasibleError(
        f"no common state after {comask.SEARCH_MAX_ITER} iterations (gap {gap:.3e})",
        residual=gap,
    )


def _search_families(seed, count):
    """``count`` seeded observable families at d in {2, 3, 4, 6}: planted on
    a full-rank or a pure state, with or without trace, and infeasible ones
    (lambda_min > 1 for the first observable)."""
    rng = np.random.default_rng(seed)
    families = []
    for i in range(count):
        d = (2, 3, 4, 6)[i % 4]
        kind = ("full", "pure", "traceless", "infeasible")[(i // 4) % 4]
        obs = [samplers.hermitian(rng, d) for _ in range(int(rng.integers(1, 4)))]
        if kind == "infeasible":
            u = samplers.haar_unitary(rng, d)
            obs[0] = (u * rng.uniform(1.05, 3.0, d)) @ u.conj().T
        else:
            rho = samplers.density(rng, d)
            if kind == "pure":
                v = samplers.haar_unitary(rng, d)[:, 0]
                rho = np.outer(v, v.conj())
            if kind == "traceless":
                obs = [o - np.trace(o).real / d * np.eye(d) for o in obs]
                obs = [o / np.trace(rho @ o).real for o in obs]
            else:
                obs = [o + (1.0 - np.trace(rho @ o).real) * np.eye(d) for o in obs]
        families.append(([bloch.observable_coeffs(o) for o in obs], d))
    return families


def _outcome(search, observables, d):
    """The state's bytes, or the exception's class, message and residual."""
    try:
        out = search(observables, d)
    except (InfeasibleError, NoAffineSolutionError) as exc:
        return type(exc), str(exc), getattr(exc, "residual", None)
    return out.tobytes()


def test_search_matches_validating_reference_bit_for_bit():
    families = _search_families(1200, 240)
    outcomes = [
        (_outcome(comask.find_common_output_state, obs, d), _outcome(_reference_search, obs, d))
        for obs, d in families
    ]
    mismatched = [i for i, (got, want) in enumerate(outcomes) if got != want]
    assert mismatched == []
    infeasible = sum(isinstance(got, tuple) for got, _ in outcomes)
    assert 0 < infeasible < len(outcomes)


def _pinv_row_sets(seed, count):
    """``count`` seeded k x n row sets, k = 1..4 and n in {3, 8, 15, 35,
    255}: generic rows, a row duplicated within 1e-13 (a singular value
    under the cutoff), an all-zero row, and rows scaled by 10^+-300."""
    rng = np.random.default_rng(seed)
    sets = []
    for i in range(count):
        k, n = 1 + i % 4, (3, 8, 15, 35, 255)[i // 4 % 5]
        rows = rng.normal(size=(k, n))
        variant = i // 20 % 4
        if variant == 1 and k > 1:
            rows[-1] = rows[0] + 1e-13 * rng.normal(size=n)
        elif variant == 2:
            rows[rng.integers(k)] = 0.0
        elif variant == 3:
            rows *= 10.0 ** rng.choice([-300, 300])
        sets.append(rows)
    return sets


def test_search_pinv_matches_numpy_bit_for_bit():
    cut = 0
    for rows in _pinv_row_sets(24, 4000):
        got = comask._pinv(rows)
        assert got.tobytes() == np.linalg.pinv(rows, rcond=comask.RANK_RTOL).tobytes()
        svals = np.linalg.svd(rows, compute_uv=False)
        cut += bool(svals[-1] <= comask.RANK_RTOL * svals[0])
    # the cutoff path runs: some sets have a singular value under it
    assert 0 < cut < 4000


@pytest.mark.parametrize(
    "family",
    [[coeffs(2, 0.0, [0, 0, 1])], [coeffs(2, 0.0, [0, 0, 1]), coeffs(2, 0.0, [1, 0, 1])]],
    ids=["one", "two"],
)
def test_one_round_search_makes_one_svd_and_one_eigh(family, spy):
    # the pseudo-inverse is one reduced SVD of the rows, not a pinv call,
    # and every decomposition runs through the seam
    counts = spy(algebra, ["_svd", "_svd_full", "_svdvals", "_eigh"])
    public = spy(np.linalg, ["svd", "pinv", "eigh"])
    comask.find_common_output_state(family, 2)
    assert counts == {"_svd": 1, "_svd_full": 0, "_svdvals": 0, "_eigh": 1}
    assert public == {"svd": 0, "pinv": 0, "eigh": 0}


def test_search_round_is_one_eigh_without_validation(monkeypatch):
    """Each round makes one eigh call and no require_hermitian call: the
    input is validated once, at entry.  The reference makes one of each per
    round, so its counts give the number of rounds.  The search's eigh is
    the seam's, the reference's numpy's public one: both are counted."""
    counts = {"eigh": 0, "require_hermitian": 0}

    def spy(name, real):
        def counting(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return counting

    monkeypatch.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
    monkeypatch.setattr(algebra, "_eigh", spy("eigh", algebra._eigh))
    for module in (algebra, bloch):
        counting = spy("require_hermitian", module.require_hermitian)
        monkeypatch.setattr(module, "require_hermitian", counting)
    families = [
        ([coeffs(2, 0.0, [0, 0, 1]), coeffs(2, 0.0, [1, 0, 0])], 2),
        *_search_families(1300, 16),
    ]
    rounds = []
    for obs, d in families:
        runs = []
        for search in (_reference_search, comask.find_common_output_state):
            counts.update(eigh=0, require_hermitian=0)
            _outcome(search, obs, d)
            runs.append(dict(counts))
        reference, fast = runs
        assert fast == {"eigh": reference["eigh"], "require_hermitian": 0}
        assert reference["require_hermitian"] == reference["eigh"]
        rounds.append(reference["eigh"])
    assert rounds[0] == 2 and min(rounds) == 1


class TestCommonOutputState:
    def test_exact_fixed_point_stops_early(self, spy):
        # the affine solution b = 2.5e-309 is subnormal: the eigh round trip
        # clips it to b_psd = 0 and the projection maps that back to the same
        # b bit for bit, so every later round would repeat the first (the
        # observable is maskable: only the early stop is held here)
        counts = spy(algebra, ["_eigh"])
        with pytest.raises(InfeasibleError, match="fixed point") as exc:
            comask.find_common_output_state([coeffs(2, 0.0, [1e308, 1e308, 0])], 2)
        assert counts["_eigh"] <= 3
        assert exc.value.residual == 0.5

    def test_dimension_one_is_refused(self):
        with pytest.raises(ValueError, match="^dimension must be >= 2, got 1$"):
            comask.find_common_output_state([coeffs(1, 1.0, [])], 1)

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

    def test_short_rows_refused_before_solving(self):
        # two short rows that are inconsistent as equations: the family is
        # refused for its shape, not answered as inconsistent
        family = [coeffs(2, 0.0, [1, 0]), coeffs(2, 0.0, [2, 0])]
        with pytest.raises(DimensionMismatchError, match=r"^observable 0 has shape \(2,\), expected \(3,\)$"):
            comask.find_common_output_state(family, 2)

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
