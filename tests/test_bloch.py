import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from obsmask import algebra, bloch, channels, comask, invariants, samplers
from obsmask.errors import (
    DimensionMismatchError,
    InvalidStateError,
    NotHermitianError,
    NotUnitTraceError,
)
from obsmask.invariants import REGISTRY

S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)


class TestGeneratorBasis:
    def test_d2_is_paulis(self):
        mats = bloch.generator_basis(2).matrices
        assert algebra.max_norm(mats[0] - S1) < 1e-15
        assert algebra.max_norm(mats[1] - S2) < 1e-15
        assert algebra.max_norm(mats[2] - S3) < 1e-15

    def test_d3_count(self):
        assert len(bloch.generator_basis(3)) == 8

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_defining_properties(self, d):
        mats = bloch.generator_basis(d).matrices
        n = d * d - 1
        assert mats.shape == (n, d, d)
        for i in range(n):
            assert algebra.max_norm(mats[i] - algebra.dagger(mats[i])) < 1e-14
            assert abs(np.trace(mats[i])) < 1e-14
        gram = np.einsum("iab,jba->ij", mats, mats).real
        assert algebra.max_norm(gram - 2.0 * np.eye(n)) < 1e-13

    def test_memoized(self):
        assert bloch.generator_basis(3) is bloch.generator_basis(3)

    def test_pinned_bytes(self):
        """The stacks for d = 2..16 hash to a pinned value; adding 0j turns
        -0.0 into +0.0, so the pin holds the values and not zeros' signs."""
        digest = hashlib.sha256()
        for d in range(2, 17):
            digest.update((bloch.generator_basis(d).matrices + 0j).tobytes())
        assert digest.hexdigest() == (
            "2bf0af0daacb1e2a9d8721b8ab993c99764a991e41c14d18612e1537793af11b"
        )


def _concurrent_cold_requests(request, workers=8):
    """Run ``request`` on ``workers`` threads released together by a
    barrier, with a shortened switch interval; returns their results."""
    barrier = threading.Barrier(workers)
    results = []

    def run():
        barrier.wait(timeout=10)
        results.append(request())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == workers
    return results


def test_warm_requests_take_no_lock(monkeypatch):
    """A cache hit reads the memo without the lock; only a build takes it."""
    requests = (bloch._layout, bloch.generator_basis, bloch.symmetric_tensor)
    for request in requests:
        request(4)
    real = bloch._cache_lock
    acquired = []

    class Spy:
        def __enter__(self):
            acquired.append(1)
            return real.__enter__()

        def __exit__(self, *exc):
            return real.__exit__(*exc)

    monkeypatch.setattr(bloch, "_cache_lock", Spy())
    for request in requests:
        request(4)
    assert acquired == []


def dense_tensor(d):
    """The (d^2 - 1,) * 3 array of symmetric_tensor(d), scattered from its
    sparse ``index`` and ``data``."""
    t = bloch.symmetric_tensor(d)
    n = d * d - 1
    dense = np.zeros((n, n, n))
    dense[tuple(t.index.T)] = t.data
    return dense


class TestSymmetricTensor:
    def test_d2_vanishes(self):
        assert algebra.max_norm(dense_tensor(2)) < 1e-14

    def test_d3_value_118(self):
        vals = dense_tensor(3)
        assert abs(vals[0, 0, 7] - 1 / np.sqrt(3)) < 1e-12

    def test_d3_permutation_symmetry(self):
        vals = dense_tensor(3)
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)]:
            assert algebra.max_norm(vals - vals.transpose(perm)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
    def test_matches_dense_reference(self, d):
        g = bloch.generator_basis(d).matrices
        reference = np.einsum("iab,jbc,kca->ijk", g, g, g, optimize=True).real / 2.0
        assert algebra.max_norm(dense_tensor(d) - reference) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
    def test_totally_symmetric(self, d):
        vals = dense_tensor(d)
        for perm in itertools.permutations(range(3)):
            assert algebra.max_norm(vals - vals.transpose(perm)) < 1e-12

    def test_sparse_entries_distinct_and_nonzero(self):
        t = bloch.symmetric_tensor(6)
        assert len(np.unique(t.index, axis=0)) == len(t.index) == len(t.data)
        assert np.all(t.data != 0.0)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            bloch.symmetric_tensor(1)

    def test_concurrent_cold_requests_share_one_build(self):
        d = 9
        with bloch._cache_lock:
            bloch._tensor_cache.pop(d, None)
        results = _concurrent_cold_requests(lambda: bloch.symmetric_tensor(d))
        assert all(r is bloch.symmetric_tensor(d) for r in results)

    def test_cold_d16_build_memory(self):
        # A dense build of this tensor peaks near 900 MB, the sparse one near 6 MB.
        probe = (
            "import json, tracemalloc\n"
            "tracemalloc.start()\n"
            "from obsmask import bloch\n"
            "bloch.symmetric_tensor(16)\n"
            "print(json.dumps(tracemalloc.get_traced_memory()[1] / 2**20))\n"
        )
        src = str(Path(bloch.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        peak_mb = json.loads(proc.stdout.strip().splitlines()[-1])
        assert peak_mb < 32.0


class TestStateCodec:
    def test_maximally_mixed_is_zero(self):
        for d in (2, 3, 4):
            b = bloch.state_to_bloch(np.eye(d) / d)
            assert np.linalg.norm(b.b) < 1e-12

    def test_ket0_projector(self):
        b = bloch.state_to_bloch(np.diag([1.0, 0.0]))
        assert np.allclose(b.b, [0, 0, 0.5], atol=1e-12)

    def test_d3_diagonal_projector(self):
        # diagonal generators sit at the last two slots of the ordering
        b = bloch.state_to_bloch(np.diag([1.0, 0.0, 0.0]))
        expected = np.zeros(8)
        expected[6] = 0.5
        expected[7] = np.sqrt(3) / 6
        assert np.allclose(b.b, expected, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        for d in (2, 3, 4):
            rho = samplers.density(rng, d)
            back = bloch.bloch_to_state(bloch.state_to_bloch(rho))
            assert algebra.max_norm(back - rho) < 1e-10

    def test_zero_vector_to_state(self):
        out = bloch.bloch_to_state(bloch.BlochVector(2, np.zeros(3)))
        assert algebra.max_norm(out - np.eye(2) / 2) < 1e-15

    def test_unit_bloch_not_positive(self):
        out = bloch.bloch_to_state(bloch.BlochVector(2, np.array([0, 0, 1.0])))
        assert np.allclose(out, np.diag([1.5, -0.5]), atol=1e-12)

    def test_rejects_bad_trace(self):
        with pytest.raises(NotUnitTraceError, match=r"trace is 2\.0, not 1") as exc:
            bloch.state_to_bloch(np.eye(2))
        assert "np.float64" not in str(exc.value)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            bloch.state_to_bloch(np.array([[0.5, 1], [0, 0.5]], dtype=complex))

    def test_trace_is_checked_before_the_dimension(self):
        for rho, trace in (([[2.0]], "2.0"), (np.zeros((0, 0)), "0.0")):
            with pytest.raises(NotUnitTraceError, match=f"^trace is {trace}, not 1$"):
                bloch.state_to_bloch(rho)
        with pytest.raises(ValueError, match="^dimension must be >= 2, got 1$"):
            bloch.state_to_bloch([[1.0]])


class TestObservableCodec:
    def test_sigma3(self):
        c = bloch.observable_coeffs(S3)
        assert abs(c.a0) < 1e-12
        assert np.allclose(c.a, [0, 0, 1], atol=1e-12)

    def test_identity(self):
        c = bloch.observable_coeffs(np.eye(2))
        assert abs(c.a0 - 1.0) < 1e-12
        assert np.linalg.norm(c.a) < 1e-12

    def test_diag_3_minus1(self):
        c = bloch.observable_coeffs(np.diag([3.0, -1.0]))
        assert abs(c.a0 - 1.0) < 1e-12
        assert np.allclose(c.a, [0, 0, 2], atol=1e-12)

    def test_empty_observable_is_refused(self):
        # the codec is looked up before Tr(O) is divided by d
        for d in (0, 1):
            with pytest.raises(ValueError, match=f"^dimension must be >= 2, got {d}$"):
                bloch.observable_coeffs(np.full((d, d), 2.0))

    def test_round_trip(self):
        rng = np.random.default_rng(29)
        for d in (2, 3, 4):
            obs = samplers.hermitian(rng, d)
            back = bloch.coeffs_to_observable(bloch.observable_coeffs(obs))
            assert algebra.max_norm(back - obs) < 1e-10


EPS = np.finfo(float).eps


@pytest.mark.parametrize("d", range(2, 17))
def test_codecs_match_einsum_reference(d):
    """The codecs against a dense einsum over the generator stack: exactly
    equal at d = 2 (two nonzero terms per coordinate and per
    entry), and within d eps max|input| above."""
    rng = np.random.default_rng(400 + d)
    g = bloch.generator_basis(d).matrices
    bound = 0.0 if d == 2 else d * EPS
    for _ in range(20):
        m = samplers.hermitian(rng, d, scale=rng.uniform(0.01, 100))
        ref = np.einsum("kab,ba->k", g, m).real / 2.0
        assert np.max(np.abs(bloch.observable_coeffs(m).a - ref)) <= bound * np.max(np.abs(m))
        rho = samplers.density(rng, d)
        ref = np.einsum("kab,ba->k", g, rho).real / 2.0
        assert np.max(np.abs(bloch.state_to_bloch(rho).b - ref)) <= bound * np.max(np.abs(rho))
        c = rng.normal(size=d * d - 1) * rng.uniform(0.01, 100)
        ref = np.einsum("k,kab->ab", c, g)
        assert np.max(np.abs(bloch._expansion(c, d, 0.0) - ref)) <= bound * np.max(np.abs(c))


def unhalved_coordinates(m, d):
    """Tr(M g_i) / 2 as the codecs computed it before the halved codec: the
    product with the unhalved real generator view, then divided by 2."""
    g = bloch.generator_basis(d).matrices
    flat = np.ascontiguousarray(m, dtype=complex).reshape(-1).view(float)
    return g.reshape(len(g), d * d).view(float) @ flat / 2.0


@pytest.mark.parametrize("d", range(2, 17))
def test_codecs_equal_the_unhalved_formulas_bit_for_bit(d):
    """observable_coeffs and state_to_bloch read the halved codec and the
    ndarray trace; their bytes equal the unhalved product over 2 and
    np.trace(M).real / d, for matrices from 1e-2 to 1e2 in scale."""
    rng = np.random.default_rng(1700 + d)
    for _ in range(10):
        obs = samplers.hermitian(rng, d, scale=rng.uniform(0.01, 100))
        c = bloch.observable_coeffs(obs)
        assert c.a.tobytes() == unhalved_coordinates(obs, d).tobytes()
        a0 = float(np.trace(obs).real) / d
        assert np.float64(c.a0).tobytes() == np.float64(a0).tobytes()
        rho = samplers.density(rng, d)
        b = bloch.state_to_bloch(rho).b
        assert b.tobytes() == unhalved_coordinates(rho, d).tobytes()


@pytest.mark.parametrize("d", range(2, 17))
def test_a_norm_equals_linalg_norm_bit_for_bit(d):
    # a row, a stack (its Frobenius norm) and non-contiguous views of it
    rng = np.random.default_rng(1800 + d)
    stack = rng.normal(size=(4, d * d - 1)) * rng.uniform(0.01, 100, size=(4, 1))
    for a in (stack[1], stack, stack[:, ::2], stack.T, stack[::-1, 1::3]):
        got = bloch.ObservableCoeffs(d, 0.5, a).a_norm()
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(float(np.linalg.norm(a))).tobytes()


def dense_expansion_reference(c, d, shift):
    """shift I + c @ G, with G the (d^2 - 1, 2 d^2) float64 view of the
    generator stack: the expansion as one dense product, kept as the
    reference for the structured build."""
    g = bloch.generator_basis(d).matrices
    flat = np.asarray(c, dtype=float) @ g.reshape(len(g), d * d).view(float)
    return shift * np.eye(d) + flat.view(complex).reshape(*flat.shape[:-1], d, d)


class TestExpansion:
    @pytest.mark.parametrize("d", range(2, 17))
    def test_matches_dense_product(self, d):
        """Off-diagonal entries and the diagonal's imaginary parts equal the
        dense product byte for byte, planted +-0.0 coordinates included (the
        product rounds them to +0.0).  The real diagonal sums the d - 1
        diagonal coordinates and the shift in another order, so each entry
        is within d eps (|shift| + sum_l |c_l D_la|), the rounding bound of
        two orders of that sum."""
        rng = np.random.default_rng(1400 + d)
        n = d * d - 1
        weights = np.abs(bloch.generator_basis(d).matrices[d * (d - 1) :].diagonal(0, 1, 2).real)
        off = ~np.eye(d, dtype=bool)
        for shift in (1.0 / d, -2.5):
            for shape in ((n,), (5, n)):
                for trial in range(12):
                    c = rng.normal(size=shape) * rng.uniform(0.01, 100)
                    draw = rng.random(shape)
                    c[draw < 0.2] = 0.0
                    c[draw > 0.8] = -0.0
                    if trial == 0:
                        c[...] = -0.0
                    got = bloch._expansion(c, d, shift)
                    want = dense_expansion_reference(c, d, shift)
                    assert got.shape == want.shape == shape[:-1] + (d, d)
                    assert got[..., off].tobytes() == want[..., off].tobytes()
                    diag_got = got.diagonal(0, -2, -1)
                    diag_want = want.diagonal(0, -2, -1)
                    assert diag_got.imag.tobytes() == diag_want.imag.tobytes()
                    scale = abs(shift) + np.abs(c[..., d * (d - 1) :]) @ weights
                    assert np.all(np.abs(diag_got.real - diag_want.real) <= d * EPS * scale)

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_wrong_length_rows_refused(self, d):
        """A coordinate row one short or one long is refused, naming both
        lengths, before any entry is gathered from it."""
        n = d * d - 1
        for length in (n - 1, n + 1):
            message = f"length {length}, expected {n}"
            for coords in (np.full(length, 0.01), np.full((3, length), 0.01)):
                with pytest.raises(DimensionMismatchError, match=message):
                    bloch.bloch_to_state(bloch.BlochVector(d, coords))
                with pytest.raises(DimensionMismatchError, match=message):
                    bloch.coeffs_to_observable(bloch.ObservableCoeffs(d, -0.5, coords))
            with pytest.raises(DimensionMismatchError, match=message):
                bloch.positivity_conditions(bloch.BlochVector(d, np.full(length, 0.01)))

    def test_d16_ops_never_read_the_dense_generator_view(self, monkeypatch):
        """With the layout memoized, the expansion needs neither the dense
        generator view (the codec) nor its builder: bloch_to_state,
        positivity_conditions and comask_general (k = 0..3) at d = 16 run
        with the codec dropped from its cache and its builder refused."""
        d = 16
        rng = np.random.default_rng(1500)
        states = [bloch.state_to_bloch(samplers.density(rng, d)).b for _ in range(4)]
        bloch._layout(d)

        def refused(_d):
            raise AssertionError("the dense generator view was requested")

        monkeypatch.delitem(bloch._codec_cache, d)
        monkeypatch.setattr(bloch, "_build_codec", refused)
        for b in states:
            assert bloch.bloch_to_state(bloch.BlochVector(d, b)).shape == (d, d)
            assert bloch.positivity_conditions(bloch.BlochVector(d, b))[1]
        for k in range(4):
            assert comask.comask_general(states[: k + 1], d).coefficient_set.affine_dim == d * d - k - 1

    def test_concurrent_cold_requests_build_the_layout_once(self, monkeypatch):
        """Concurrent first requests build the layout once; concurrent first
        requests for a basis build it once, and its build's own request for
        a cold layout re-enters the lock."""
        d = 11
        builds = {"_build_layout": [], "_build_basis": []}

        def counting(name):
            real = getattr(bloch, name)

            def build(d):
                builds[name].append(d)
                return real(d)

            return build

        for name in builds:
            monkeypatch.setattr(bloch, name, counting(name))
        with bloch._cache_lock:
            bloch._layout_cache.pop(d, None)
        results = _concurrent_cold_requests(lambda: bloch._layout(d))
        assert builds == {"_build_layout": [d], "_build_basis": []}
        assert all(r is bloch._layout(d) for r in results)

        with bloch._cache_lock:
            bloch._layout_cache.pop(d, None)
            bloch._basis_cache.pop(d, None)
        builds["_build_layout"].clear()
        results = _concurrent_cold_requests(lambda: bloch.generator_basis(d))
        assert builds == {"_build_layout": [d], "_build_basis": [d]}
        assert all(r is bloch.generator_basis(d) for r in results)


class TestPositivity:
    def test_qubit_boundary(self):
        vals, positive = bloch.positivity_conditions(
            bloch.BlochVector(2, np.array([0, 0, 0.5]))
        )
        assert len(vals) == 1
        assert abs(vals[0]) < 1e-12
        assert positive

    def test_qubit_center(self):
        vals, positive = bloch.positivity_conditions(bloch.BlochVector(2, np.zeros(3)))
        assert abs(vals[0] - 0.25) < 1e-12
        assert positive

    def test_d3_pure_state(self):
        b = bloch.state_to_bloch(np.diag([1.0, 0.0, 0.0]))
        vals, positive = bloch.positivity_conditions(b)
        assert np.allclose(vals, [0.0, 0.0], atol=1e-12)
        assert positive

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_agrees_with_min_eigenvalue(self, d):
        # the verdict against the minimum eigenvalue, the e_2 ball identity
        # and the codec round trip, as the registry entry defines them
        rng = np.random.default_rng(100 + d)
        assert REGISTRY["bloch_codecs_and_positivity"].run(rng, d, 500) == (500, 0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_e2_ball_identity(self, d):
        rng = np.random.default_rng(200 + d)
        for _ in range(100):
            b = bloch.BlochVector(d, rng.normal(size=d * d - 1) * 0.3)
            vals, _ = bloch.positivity_conditions(b)
            lhs = 2.0 * vals[0]
            rhs = (d - 1) / d - 2.0 * np.dot(b.b, b.b)
            assert abs(lhs - rhs) < 1e-10

    def test_cubic_matches_6e3_at_d3(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            b = bloch.BlochVector(3, rng.normal(size=8) * 0.3)
            vals, _ = bloch.positivity_conditions(b)
            assert abs(bloch.cubic_condition_value(b) - 6.0 * vals[1]) < 1e-10

    @pytest.mark.parametrize("d", [4, 8, 12, 16])
    def test_cubic_matches_6e3(self, d):
        rng = np.random.default_rng(300 + d)
        radius = np.sqrt((d - 1) / (2.0 * d))
        for _ in range(20):
            v = samplers.unit_vector(rng, d * d - 1)
            b = bloch.BlochVector(d, v * radius * rng.uniform(0, 1))
            vals, _ = bloch.positivity_conditions(b)
            assert abs(bloch.cubic_condition_value(b) - 6.0 * vals[1]) < 1e-10


def tensor_cubic_value(b):
    """The cubic value as it was once computed, from the sparse symmetric
    tensor: (d-1)(d-2)/d^2 - 6 (d-2)/d |b|^2 + 4 sum_ijk g_ijk b_i b_j b_k."""
    d = b.dimension
    v = np.asarray(b.b, dtype=float)
    t = bloch.symmetric_tensor(d)
    i, j, k = t.index.T
    cubic = float(t.data @ (v[i] * v[j] * v[k]))
    return (d - 1) * (d - 2) / d**2 - 6.0 * (d - 2) / d * float(np.dot(v, v)) + 4.0 * cubic


def _cubic_samples(rng, d, count):
    """``count`` states, then ``count`` vectors in random directions at up
    to 1.2 times the pure-state radius, many of them not states."""
    radius = np.sqrt((d - 1) / (2.0 * d))
    for _ in range(count):
        yield bloch.state_to_bloch(samplers.density(rng, d))
    for _ in range(count):
        v = samplers.unit_vector(rng, d * d - 1) * radius * rng.uniform(0.0, 1.2)
        yield bloch.BlochVector(d, v)


class TestCubicFromOneProduct:
    @pytest.mark.parametrize("d", [3, 4, 8, 12, 16])
    def test_matches_tensor_form(self, d):
        rng = np.random.default_rng(1500 + d)
        for b in _cubic_samples(rng, d, 30):
            got = bloch.cubic_condition_value(b)
            want = tensor_cubic_value(b)
            assert type(got) is float
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 12])
    def test_tensor_contracts_to_half_trace_cube(self, d):
        # the tensor's own normalization: data @ (b_i b_j b_k) = Tr(B^3) / 2,
        # with B summed from the generator matrices
        rng = np.random.default_rng(1600 + d)
        t = bloch.symmetric_tensor(d)
        g = bloch.generator_basis(d).matrices
        i, j, k = t.index.T
        for b in _cubic_samples(rng, d, 10):
            mat = np.einsum("i,iab->ab", b.b, g)
            want = np.trace(mat @ mat @ mat).real / 2.0
            assert abs(t.data @ (b.b[i] * b.b[j] * b.b[k]) - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("d", [3, 12])
    def test_builds_no_tensor(self, d, spy, monkeypatch):
        monkeypatch.setattr(bloch, "_tensor_cache", {})
        counts = spy(bloch, ["_build_tensor"])
        bloch.cubic_condition_value(bloch.BlochVector(d, np.full(d * d - 1, 0.01)))
        assert counts == {"_build_tensor": 0}
        bloch.symmetric_tensor(d)
        assert counts == {"_build_tensor": 1}

    def test_refuses_a_stack(self):
        with pytest.raises(DimensionMismatchError, match="one coordinate row"):
            bloch.cubic_condition_value(bloch.BlochVector(3, np.full((2, 8), 0.01)))


def _spectral_states(rng, d, count):
    """Full-rank density matrices, pure states and low-rank states with
    Dirichlet(0.3) weights on ceil(d/2) levels, each in a Haar basis."""
    rank = (d + 1) // 2
    for _ in range(count):
        yield samplers.density(rng, d)
        u = samplers.haar_unitary(rng, d)
        yield np.outer(u[:, 0], u[:, 0].conj())
        weights = np.zeros(d)
        weights[:rank] = rng.dirichlet(np.full(rank, 0.3))
        yield (u * weights) @ u.conj().T


@pytest.mark.parametrize("d", range(2, 17))
def test_power_sums_match_spectrum(d):
    """e_k against the characteristic polynomial of the spectrum."""
    rng = np.random.default_rng(500 + d)
    for rho in _spectral_states(rng, d, 10):
        b = bloch.state_to_bloch(rho)
        lam = np.linalg.eigvalsh(bloch.bloch_to_state(b))
        e_ref = np.poly(lam)[2:].real * (-1.0) ** np.arange(2, d + 1)
        values, _ = bloch.positivity_conditions(b)
        assert np.max(np.abs(values - e_ref)) <= 1e-12


@pytest.mark.parametrize("d", [5, 8, 12, 16])
def test_verdicts_match_min_eigenvalue(d):
    """The verdicts equal lambda_min >= -POSITIVITY_ATOL, with the matrix
    rebuilt by a dense einsum over the generator stack, on acceptance
    criterion 9's ball sampler (up to 1.2 times the pure-state radius, so
    non-states are drawn too)."""
    rng = np.random.default_rng(600 + d)
    g = bloch.generator_basis(d).matrices
    verdicts = []
    for b in invariants._ball_points(rng, d, 300):
        _, positive = bloch.positivity_conditions(b)
        rho = np.eye(d) / d + np.einsum("k,kab->ab", b.b, g)
        assert positive == (np.linalg.eigvalsh(rho)[0] >= -bloch.POSITIVITY_ATOL)
        verdicts.append(positive)
    assert any(verdicts) and not all(verdicts)


def _planted_nonstate(rng, d):
    """A unit-trace Hermitian matrix with one eigenvalue -1e-3 and Dirichlet
    weights on the other levels, in a Haar basis."""
    spectrum = np.concatenate(([-1e-3], rng.dirichlet(np.ones(d - 1)) * (1.0 + 1e-3)))
    u = samplers.haar_unitary(rng, d)
    return (u * spectrum) @ u.conj().T


def _assert_witness(v, rho, atol):
    """v is a unit vector with <v|rho|v> < -atol."""
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert np.vdot(v, rho @ v).real < -atol


@pytest.mark.parametrize("d", [6, 8, 10, 12, 16])
def test_planted_nonstates_rejected(d):
    """A single eigenvalue of -1e-3 makes e_d only ~-1e-21 at d = 16, so no
    sign test on the e_k sees it; the spectral verdict does, and
    comask_general and require_density refuse the point with a witness
    vector that certifies the negative eigenvalue."""
    rng = np.random.default_rng(700 + d)
    state = bloch.state_to_bloch(samplers.density(rng, d)).b
    for _ in range(50):
        rho = _planted_nonstate(rng, d)
        b = bloch.state_to_bloch(rho)
        assert not bloch.positivity_conditions(b)[1]
        with pytest.raises(InvalidStateError, match="point 1") as exc:
            comask.comask_general([state, b.b], d)
        _assert_witness(exc.value.witness, bloch.bloch_to_state(b), bloch.POSITIVITY_ATOL)
        with pytest.raises(InvalidStateError, match="negative eigenvalue") as exc:
            channels.require_density(rho)
        _assert_witness(exc.value.witness, rho, channels.CHANNEL_ATOL)


def _first_nonstate(points, d):
    """Index of the first point positivity_conditions refuses, or None."""
    for i, b in enumerate(points):
        if not bloch.positivity_conditions(bloch.BlochVector(d, b))[1]:
            return i
    return None


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8, 12, 16])
def test_comask_general_verdicts_match_positivity_conditions(d):
    """comask_general's stacked check refuses exactly the first point
    positivity_conditions refuses, alone and in lists of 4, on acceptance
    criterion 9's ball sampler mixed with planted -1e-3 states; verdicts
    are compared, not the bits of the matrices (a stacked expansion may
    differ by an ulp)."""
    rng = np.random.default_rng(1100 + d)
    points = [b.b for b in invariants._ball_points(rng, d, 60)]
    points += [bloch.state_to_bloch(_planted_nonstate(rng, d)).b for _ in range(20)]
    points = [points[i] for i in rng.permutation(len(points))]
    groups = [[b] for b in points] + [points[i : i + 4] for i in range(0, len(points), 4)]
    refused = 0
    for group in groups:
        first = _first_nonstate(group, d)
        if first is None:
            comask.comask_general(group, d)
            continue
        refused += 1
        with pytest.raises(InvalidStateError, match=f"^point {first} is not a valid state$"):
            comask.comask_general(group, d)
    assert 0 < refused < len(groups)


@pytest.mark.parametrize("d", range(2, 17))
def test_boundary_states_accepted(d):
    """Full-rank states, and pure and rank-ceil(d/2) states, whose zero
    eigenvalues carry rounding noise, pass positivity_conditions and
    comask_general."""
    rng = np.random.default_rng(800 + d)
    for rho in _spectral_states(rng, d, 20):
        b = bloch.state_to_bloch(rho)
        assert bloch.positivity_conditions(b)[1]
        comask.comask_general([b.b], d)


def _linalg_spy(monkeypatch, names):
    """Patch each decomposition of the algebra seam in ``names`` to record
    the shape of its argument; returns the dict of recorded shapes by name."""
    calls = {name: [] for name in names}

    def spy(name):
        real = getattr(algebra, name)

        def recording(a, *args, **kwargs):
            calls[name].append(np.shape(a))
            return real(a, *args, **kwargs)

        return recording

    for name in names:
        monkeypatch.setattr(algebra, name, spy(name))
    return calls


@pytest.mark.parametrize("d", [2, 8, 16])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_comask_general_certifies_with_one_cholesky(monkeypatch, d, k):
    """An accepted list is certified by one stacked Cholesky factorization
    and no eigensolver; a refused one adds one stacked eigvalsh, to find
    the first failing point, and one eigh for its witness."""
    rng = np.random.default_rng(1200 + 4 * d + k)
    states = [bloch.state_to_bloch(samplers.density(rng, d)).b for _ in range(k + 1)]
    bad = bloch.state_to_bloch(_planted_nonstate(rng, d)).b
    calls = _linalg_spy(monkeypatch, ("_cholesky", "_eigvalsh", "_eigh"))
    comask.comask_general(states, d)
    assert calls == {"_cholesky": [(k + 1, d, d)], "_eigvalsh": [], "_eigh": []}
    i = int(rng.integers(k + 1))
    points = states[:i] + [bad] + states[i + 1 :]
    for shapes in calls.values():
        shapes.clear()
    with pytest.raises(InvalidStateError, match=f"^point {i} is not a valid state$"):
        comask.comask_general(points, d)
    assert calls == {
        "_cholesky": [(k + 1, d, d)], "_eigvalsh": [(k + 1, d, d)], "_eigh": [(d, d)]
    }


PLANTED_MINIMA = (0.0, -5e-10, -0.999e-9, -1.001e-9, -2e-9, -1e-3)


@pytest.mark.parametrize("d", [2, 3, 8, 12, 16])
def test_comask_general_threshold_table(d):
    """States with a planted least eigenvalue on both sides of
    -POSITIVITY_ATOL, 1e-12 from it at the closest, in a Haar basis: alone
    and at each position of a list of 4, comask_general accepts exactly
    when eigvalsh of the einsum-built matrix reads lambda_min >=
    -POSITIVITY_ATOL, and refuses the planted point with a witness."""
    rng = np.random.default_rng(1300 + d)
    g = bloch.generator_basis(d).matrices
    for low in PLANTED_MINIMA:
        rest = rng.dirichlet(np.ones(d - 1)) * (1.0 - low)
        u = samplers.haar_unitary(rng, d)
        planted = bloch.state_to_bloch((u * np.r_[low, rest]) @ u.conj().T).b
        rho = np.eye(d) / d + np.einsum("k,kab->ab", planted, g)
        accepted = bool(np.linalg.eigvalsh(rho)[0] >= -bloch.POSITIVITY_ATOL)
        assert accepted == (low >= -bloch.POSITIVITY_ATOL)
        others = [bloch.state_to_bloch(samplers.density(rng, d)).b for _ in range(3)]
        lists = [[planted]] + [others[:i] + [planted] + others[i:] for i in range(4)]
        for i, points in zip([0, 0, 1, 2, 3], lists):
            if accepted:
                comask.comask_general(points, d)
                continue
            with pytest.raises(InvalidStateError, match=f"^point {i} is not a valid state$") as exc:
                comask.comask_general(points, d)
            _assert_witness(exc.value.witness, rho, bloch.POSITIVITY_ATOL)


def test_comask_general_refuses_huge_point_without_warning():
    """Every coordinate 1e200 at d = 16: finite, far from a state.  The
    shifted factorization fails and the point is refused with a witness,
    with no RuntimeWarning on the way (the suite turns them into errors).
    The witness is checked on the unit-scale traceless part E, as
    <v|rho|v> = 1/16 + 1e200 <v|E|v>."""
    with pytest.raises(InvalidStateError, match="^point 0 is not a valid state$") as exc:
        comask.comask_general([np.full(255, 1e200)], 16)
    v = exc.value.witness
    traceless = np.einsum("kab->ab", bloch.generator_basis(16).matrices)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert 1.0 / 16 + 1e200 * np.vdot(v, traceless @ v).real < -bloch.POSITIVITY_ATOL


def test_one_eigvalsh_and_no_eigh(spy):
    # the verdict and the values come from one spectrum
    counts = spy(algebra, ["_eigh", "_eigvalsh"])
    bloch.positivity_conditions(bloch.BlochVector(5, np.zeros(24)))
    assert counts == {"_eigh": 0, "_eigvalsh": 1}
