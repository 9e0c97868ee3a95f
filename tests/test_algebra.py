import sys
import threading
import warnings

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

    @staticmethod
    def _per_column_phase_fix(vecs):
        """Reference phase fix, column by column on numpy scalars: each
        column's first entry above 1e-12 in magnitude becomes real >= 0."""

        def fix(v):
            for entry in v:
                mag = abs(entry)
                if mag > 1e-12:
                    return v * (entry.conjugate() / mag)
            return v * (1.0 + 0.0j)

        return np.column_stack([fix(vecs[:, i]) for i in range(vecs.shape[1])])

    @pytest.mark.parametrize("d", range(2, 17))
    def test_phase_fix_matches_per_column_loop_bit_for_bit(self, d):
        rng = np.random.default_rng(600 + d)
        u = samplers.haar_unitary(rng, d)
        degenerate = (u * np.round(rng.normal(size=d))) @ u.conj().T
        block = np.zeros((d, d), dtype=complex)
        block[0, 0] = 0.3
        block[1:, 1:] = samplers.hermitian(rng, d - 1)
        real = rng.normal(size=(d, d))
        cases = {
            "complex": samplers.hermitian(rng, d),
            "real": real + real.T,
            "degenerate": (degenerate + degenerate.conj().T) / 2,
            # eigenvectors of the lower block start with an exact zero
            "block-diagonal": block,
        }
        for name, m in cases.items():
            _, raw = np.linalg.eigh(np.asarray(m, dtype=complex))
            got = algebra.eig_hermitian(m).eigenvectors
            assert got.tobytes() == self._per_column_phase_fix(raw).tobytes(), name


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

    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [((2, 2), (2, 2)), ((2, 3), (4, 1)), ((1, 4), (3, 2)), ((3, 3), (2, 2)), ((2, 2), (16, 16))],
    )
    def test_equals_np_kron_bit_for_bit(self, shape_a, shape_b):
        rng = np.random.default_rng(sum(shape_a) * 10 + sum(shape_b))
        a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
        b = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
        for x, y in ((a, b), (a.real, b), (a, b.real), (a.real, b.real)):
            got = algebra.tensor(x, y)
            want = np.kron(x.astype(complex), y.astype(complex))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_rejects_non_matrices(self):
        with pytest.raises(DimensionMismatchError):
            algebra.tensor(KET0, np.eye(2))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_require_orthonormal_rejects_non_finite(bad):
    with pytest.raises(NotOrthonormalError, match="input family contains non-finite"):
        algebra.require_orthonormal([KET0, np.array([bad, 1.0])], "input")


def require_hermitian_two_pass(m):
    """``algebra.require_hermitian`` as it was before its one-pass form,
    verbatim: the finiteness pass of ``as_matrix`` runs before the
    deviation is measured."""
    arr = algebra.as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"matrix is {arr.shape}, not square")
    dev = algebra.max_norm(arr - algebra.dagger(arr))
    if dev > algebra.HERMITICITY_ATOL:  # only then is the scale read
        tol = algebra.HERMITICITY_ATOL * max(1.0, algebra.max_norm(arr))
        if dev > tol:
            raise NotHermitianError(f"max |M - M^dag| = {dev:.3e} exceeds {tol:.1e}")
    return arr


def _with_entries(base, value, *positions):
    m = np.array(base, dtype=complex)
    for pos in positions:
        m[pos] = value
    return m


def _hermiticity_cases():
    """{name: input} for the refusal table: non-finite entries on and off
    the diagonal, wrong shapes, and matrices at the scaled tolerance."""
    h = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, -0.7]])
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    big = 1e8 * h
    cases = {}
    for name, bad in {
        "nan": np.nan, "+inf": np.inf, "-inf": -np.inf,
        "nan-im": complex(0.0, np.nan), "+inf-im": complex(0.0, np.inf),
        "-inf-im": complex(0.0, -np.inf), "inf-inf-im": complex(np.inf, np.inf),
    }.items():
        cases[f"{name}-diagonal"] = _with_entries(h, bad, (1, 1))
        cases[f"{name}-off-diagonal"] = _with_entries(h, bad, (0, 1))
        # both mirrored entries, equal or conjugate: M - M^dag meets
        # inf - inf in the real part of one and the imaginary part of the other
        cases[f"{name}-mirrored"] = _with_entries(h, bad, (0, 1), (1, 0))
        cases[f"{name}-conjugate-mirrored"] = _with_entries(
            _with_entries(h, bad, (0, 1)), np.conj(bad), (1, 0)
        )
        cases[f"{name}-whole-diagonal"] = _with_entries(h, bad, (0, 0), (1, 1))
        cases[f"{name}-3x2"] = _with_entries(np.zeros((3, 2)), bad, (2, 1))
        cases[f"{name}-1d"] = np.array([0.5, bad])
        cases[f"{name}-3d"] = _with_entries(np.zeros((2, 2, 2)), bad, (1, 0, 0))
    cases.update({
        "finite-2x3": np.ones((2, 3)),
        "finite-1d": np.ones(3),
        "finite-3d": np.ones((2, 2, 2)),
        "scalar": np.array(1.0),
        "empty": np.zeros((0, 0)),
        "hermitian": h,
        "not-hermitian": h + 1e-3 * skew,
        "1e8-within-scaled-tolerance": big + 1e-3 * skew,
        "1e8-beyond-scaled-tolerance": big + 1e-1 * skew,
        "1e8-hermitian": big,
    })
    return cases


_HERMITICITY_CASES = _hermiticity_cases()


@pytest.mark.parametrize("m", _HERMITICITY_CASES.values(), ids=_HERMITICITY_CASES.keys())
def test_require_hermitian_refusals_match_two_pass(m):
    # each input gets the error class and message of the two-pass check,
    # and no warning from either (inf - inf is measured as NaN quietly)
    def outcome(check):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = check(m)
            except Exception as exc:
                return type(exc), str(exc)
        return "accepted", out.shape, out.tobytes()

    got = outcome(algebra.require_hermitian)
    assert got == outcome(require_hermitian_two_pass)
    assert got[0] is not RuntimeWarning, got


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31))
def test_eigh_reconstruction_property(d, seed):
    rng = np.random.default_rng(seed)
    assert REGISTRY["algebra_eig_reconstruction"].run(rng, d, 1) == (1, 0)


# each decomposition of the algebra seam, with the np.linalg call it stands for
_SEAM = {
    "_eigh": np.linalg.eigh,
    "_eigvalsh": np.linalg.eigvalsh,
    "_svd": lambda a: np.linalg.svd(a, full_matrices=False),
    "_svd_full": np.linalg.svd,
    "_svdvals": lambda a: np.linalg.svd(a, compute_uv=False),
    "_cholesky": np.linalg.cholesky,
    "_qr": np.linalg.qr,
}


_UMATH_LINALG = algebra._umath_linalg

# the LinAlgError message numpy.linalg gives for each failed factorization
_SEAM_MESSAGES = {
    "_eigh": "Eigenvalues did not converge",
    "_eigvalsh": "Eigenvalues did not converge",
    "_svd": "SVD did not converge",
    "_svd_full": "SVD did not converge",
    "_svdvals": "SVD did not converge",
    "_cholesky": "Matrix is not positive definite",
    "_qr": "Incorrect argument found while performing QR factorization",
}


def _seam_inputs(name, rng, d, dtype):
    """A single d x d matrix and a stack of three, the kind ``name`` takes:
    Hermitian for the eigensolvers, positive definite for Cholesky and
    general otherwise; the SVDs and QR also get k x n and n x k blocks."""
    shapes = [(d, d), (3, d, d)]
    if name.startswith(("_svd", "_qr")):
        shapes += [(k, n) for k in (1, 2, 3) for n in (d, 4 * d - 1)] + [(2, d, 3)]
    for shape in shapes:
        g = rng.normal(size=shape)
        if dtype is complex:
            g = g + 1j * rng.normal(size=shape)
        if name in ("_eigh", "_eigvalsh"):
            g = g + np.swapaxes(g.conj(), -1, -2)
        elif name == "_cholesky":
            g = g @ np.swapaxes(g.conj(), -1, -2) + np.eye(d)
        yield g


def _results(out):
    return out if isinstance(out, tuple) else (out,)


def _assert_same_bits(got, want):
    got, want = _results(got), _results(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is np.ndarray and g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


class TestLapackSeam:
    @pytest.mark.parametrize("name", list(_SEAM))
    @pytest.mark.parametrize("dtype", [float, complex], ids=["float64", "complex128"])
    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_matches_numpy_bit_for_bit(self, name, dtype, d):
        rng = np.random.default_rng(2700 + d)
        helper = getattr(algebra, name)
        for a in _seam_inputs(name, rng, d, dtype):
            _assert_same_bits(helper(a), _SEAM[name](a))
            # a transposed view (Hermitian or positive definite as a is), as
            # AffineSet hands QR its directions
            if a.ndim == 2:
                _assert_same_bits(helper(a.T), _SEAM[name](a.T))

    def test_qr_leaves_its_input_alone(self):
        a = np.random.default_rng(2).normal(size=(4, 3))
        before = a.copy()
        algebra._qr(a)
        assert a.tobytes() == before.tobytes()

    @pytest.mark.parametrize("dtype", [float, complex], ids=["float64", "complex128"])
    def test_cholesky_of_an_indefinite_matrix_raises(self, dtype):
        indefinite = np.diag([1.0, -1.0]), np.stack([np.eye(3), -np.eye(3)])
        for a in (m.astype(dtype) for m in indefinite):
            with pytest.raises(np.linalg.LinAlgError) as exc:
                algebra._cholesky(a)
            with pytest.raises(np.linalg.LinAlgError) as want:
                np.linalg.cholesky(a)
            assert str(exc.value) == str(want.value)

    @pytest.mark.parametrize("name", list(_SEAM))
    def test_gufuncs_run_in_numpys_linalg_error_state(self, name, monkeypatch):
        # the state inside every gufunc call is the one numpy.linalg's
        # wrappers enter, whatever the caller's own state is
        inside = []

        class Recorder:
            def __getattr__(self, attr):
                real = getattr(_UMATH_LINALG, attr)

                def call(*args, **kwargs):
                    inside.append((np.geterr(), np.geterrcall()))
                    return real(*args, **kwargs)

                return call

        monkeypatch.setattr(algebra, "_umath_linalg", Recorder())
        a = next(_seam_inputs(name, np.random.default_rng(3), 3, complex))
        with np.errstate(all="raise", call=print):
            getattr(algebra, name)(a)
        assert inside
        for state, handler in inside:
            with np.errstate(call=handler, invalid="call", over="ignore", divide="ignore",
                             under="ignore"):
                assert (state, handler) == (np.geterr(), np.geterrcall())
            with pytest.raises(np.linalg.LinAlgError, match=_SEAM_MESSAGES[name]):
                handler("invalid", 8)

    @pytest.mark.parametrize("caller", [{}, {"over": "raise"}], ids=["default", "over-raise"])
    def test_caller_state_survives_success_and_failure(self, caller):
        def state():
            return np.geterr(), np.geterrcall(), np.getbufsize()

        with np.errstate(**caller):
            before = state()
            for name in _SEAM:
                a = next(_seam_inputs(name, np.random.default_rng(4), 3, float))
                getattr(algebra, name)(a)
                assert state() == before, name
            with pytest.raises(np.linalg.LinAlgError):
                algebra._cholesky(-np.eye(2))
            assert state() == before

    def test_threads_keep_their_own_state(self):
        # contextvars are per thread: each thread's state survives the
        # other's seam calls, interleaved by a short switch interval
        callers = [{"over": "raise"}, {"divide": "raise", "under": "warn"}]
        a = samplers.hermitian(np.random.default_rng(5), 3)
        want = np.linalg.eigh(a)
        start = threading.Barrier(len(callers))
        kept = [None] * len(callers)

        def work(i):
            with np.errstate(**callers[i]):
                own = np.geterr()
                start.wait(timeout=10)
                ok = True
                for _ in range(2000):
                    _assert_same_bits(algebra._eigh(a), want)
                    ok &= np.geterr() == own
                kept[i] = ok

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(callers))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert kept == [True] * len(callers)

    def test_require_hermitian_quiets_only_invalid(self):
        # inf - inf is refused as non-finite without a warning; an overflow
        # of M - M^dag still follows the caller's own flag
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                algebra.require_hermitian(np.array([[np.inf, 1.0], [1.0, -np.inf]]))
        overflowing = np.array([[0.0, 1e308], [-1e308, 0.0]])
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            algebra.require_hermitian(overflowing)

    @pytest.mark.parametrize("name", list(_SEAM))
    @pytest.mark.parametrize("dtype", [float, complex], ids=["float64", "complex128"])
    def test_scale_1e300_raises_no_warning(self, name, dtype):
        rng = np.random.default_rng(2800)
        for a in _seam_inputs(name, rng, 4, dtype):
            big = a * (1e300 / np.abs(a).max())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = getattr(algebra, name)(big)
            _assert_same_bits(got, _SEAM[name](big))
