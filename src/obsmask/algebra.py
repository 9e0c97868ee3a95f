"""Dense complex matrix substrate: the LAPACK seam every decomposition runs
through, Hermitian eigendecomposition, tensor products, partial trace, and
unitary completion."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy._core.umath import _extobj_contextvar, _make_extobj
from numpy.linalg import _umath_linalg

from .errors import (
    DimensionMismatchError,
    InconsistentDimensionsError,
    NotHermitianError,
    NotOrthonormalError,
    NumericalFailureError,
)

# Max-norm tolerance for hermiticity and residual checks.
HERMITICITY_ATOL = 1e-10
# Tolerance for orthonormality / normalization of input vector families.
ORTHONORMALITY_ATOL = 1e-9


# The LAPACK seam.  Each helper calls the numpy.linalg._umath_linalg gufunc
# that numpy's own wrapper calls (numpy >= 2), with that wrapper's signature
# and error state, so its results are numpy's bit for bit and a failure
# raises LinAlgError with numpy's message; the wrapper's Python work (array
# coercion, dtype dispatch, result casts), which costs more than LAPACK at
# d <= 16, is skipped.  Each takes a float64 or complex128 array, or a stack
# of them with the matrix axes last.  invariants.py keeps the public
# np.linalg calls as its reference.
#
# numpy.linalg's error states are built once, here, with numpy's private
# _make_extobj, and each helper enters its state by setting numpy's
# _extobj_contextvar and resetting the token on exit: the two calls
# np.errstate makes, without building the object and its state on every
# call.  The states live in a context variable, so each thread and asyncio
# task keeps its own.

def _gufunc(name: str, message: str, real: str, complex_: str):
    """The seam helper calling ``_umath_linalg.<name>``, looked up per call,
    on its operands with signature ``real`` or ``complex_`` by the first's
    dtype, in numpy.linalg's error state, built here once: the gufuncs flag
    a failed factorization as an invalid value, which raises
    LinAlgError(message), and rounding flags are ignored."""
    def raise_linalg_error(err, flag):
        raise np.linalg.LinAlgError(message)

    state = _make_extobj(call=raise_linalg_error, invalid="call", over="ignore",
                         divide="ignore", under="ignore")

    def helper(a: np.ndarray, *rest: np.ndarray):
        token = _extobj_contextvar.set(state)
        try:
            return getattr(_umath_linalg, name)(
                a, *rest, signature=complex_ if a.dtype.kind == "c" else real)
        finally:
            _extobj_contextvar.reset(token)

    return helper


# np.linalg.eigh(a): ascending eigenvalues and the eigenvectors
_eigh = _gufunc("eigh_lo", "Eigenvalues did not converge", "d->dd", "D->dD")
# np.linalg.eigvalsh(a)
_eigvalsh = _gufunc("eigvalsh_lo", "Eigenvalues did not converge", "d->d", "D->d")
# np.linalg.svd(a, full_matrices=False): u, s, vh
_svd = _gufunc("svd_s", "SVD did not converge", "d->ddd", "D->DdD")
# np.linalg.svd(a): u, s, vh with u and vh square
_svd_full = _gufunc("svd_f", "SVD did not converge", "d->ddd", "D->DdD")
# np.linalg.svd(a, compute_uv=False)
_svdvals = _gufunc("svd", "SVD did not converge", "d->d", "D->d")
# np.linalg.cholesky(a): the lower factor
_cholesky = _gufunc("cholesky_lo", "Matrix is not positive definite", "d->d", "D->D")
# np.linalg.qr(a) in two steps: tau from the Householder factorization,
# which runs in place, and q from both
_QR_MESSAGE = "Incorrect argument found while performing QR factorization"
_qr_r_raw = _gufunc("qr_r_raw", _QR_MESSAGE, "d->d", "D->D")
_qr_reduced = _gufunc("qr_reduced", _QR_MESSAGE, "dd->d", "DD->D")


def _qr(a: np.ndarray):
    """``np.linalg.qr(a)`` (reduced): q and r.  As numpy does, the
    Householder factorization runs in place on a copy, q is formed from it
    and r is its upper triangle."""
    raw = a.astype(complex if a.dtype.kind == "c" else float, copy=True)
    tau = _qr_r_raw(raw)
    return _qr_reduced(raw, tau), np.triu(raw[..., : min(a.shape[-2:]), :])


def _set(obj, **attrs) -> None:
    """Assign the attributes of a frozen dataclass under construction."""
    for name, value in attrs.items():
        object.__setattr__(obj, name, value)


def _require_dimension(d: int) -> None:
    """Refuse a Hilbert-space dimension below 2: no generators, no masking."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex ndarray and reject non-finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix contains non-finite entries")
    return arr


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def max_norm(m) -> float:
    """Largest entry magnitude (the max-norm used by all residual checks)."""
    arr = np.asarray(m)
    # the reduction arr.max() makes, without its Python wrapper
    return 0.0 if arr.size == 0 else float(np.maximum.reduce(np.abs(arr), axis=None))


# Every floating-point flag ignored, for work whose overflow and invalid
# values end in a non-finite result that its caller refuses or rescales
# (``_norm``'s x . x can flag only overflow, which it rescales)
_QUIET_STATE = _make_extobj(all="ignore")


def _quietly(func, *args):
    """func(*args) in an error state that ignores every floating-point flag,
    so no RuntimeWarning is raised."""
    token = _extobj_contextvar.set(_QUIET_STATE)
    try:
        return func(*args)
    finally:
        _extobj_contextvar.reset(token)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a real 1-D array: math.sqrt(x @ x), so
    ``np.linalg.norm(x)`` bit for bit, wherever that sum is finite.  A sum
    that overflows on finite entries is taken again from x / max|x_i|,
    and no RuntimeWarning is raised; non-finite entries give inf or nan."""
    token = _extobj_contextvar.set(_QUIET_STATE)
    try:
        sq = x.dot(x)
        if math.isfinite(sq) or not np.isfinite(x).all():
            return math.sqrt(sq)
        scale = float(np.abs(x).max())
        y = x / scale
        return scale * math.sqrt(y.dot(y))
    finally:
        _extobj_contextvar.reset(token)


def _identity_deviation(product: np.ndarray) -> float:
    """max_norm(product - I) for a square matrix the caller has just made
    and owns: 1 is subtracted from its diagonal in place."""
    product.flat[:: product.shape[0] + 1] -= 1.0
    return max_norm(product)


def require_hermitian(m) -> np.ndarray:
    """Validate hermiticity within HERMITICITY_ATOL * max(1, ||M||_max) and
    return the matrix, so rounding of order eps * ||M|| is not refused.
    A NaN or inf entry makes max |M - M^dag| non-finite, so the other
    checks (matrix, finite, square, scaled) run only when it exceeds ATOL."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        # inf - inf is NaN, refused below as non-finite; the caller's other
        # flags still apply
        token = _extobj_contextvar.set(_make_extobj(invalid="ignore"))
        try:
            dev = abs(arr - arr.conj().T).max() if arr.size else 0.0
        finally:
            _extobj_contextvar.reset(token)
        if dev <= HERMITICITY_ATOL:
            return arr
    arr = as_matrix(arr)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"matrix is {arr.shape}, not square")
    tol = HERMITICITY_ATOL * max(1.0, max_norm(arr))
    if dev > tol:
        raise NotHermitianError(f"max |M - M^dag| = {dev:.3e} exceeds {tol:.1e}")
    return arr


@dataclass(frozen=True, eq=False)
class HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` ascending; ``eigenvectors`` holds matching orthonormal
    columns, each phase-fixed so its first nonzero component is real
    nonnegative.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dagger(v)


def _checked_eigh(m):
    """``_eigh`` of the Hermitian matrix m, once ``require_hermitian`` has
    accepted it; an eigensolver failure is a ``NumericalFailureError``."""
    arr = require_hermitian(m)
    try:
        return _eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc


def eig_hermitian(m) -> HermitianEig:
    """Eigendecompose a Hermitian matrix; eigenvalues ascending."""
    vals, vecs = _checked_eigh(m)
    return HermitianEig(eigenvalues=vals, eigenvectors=_fix_phases(vecs))


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """The columns of ``vecs``, each rotated so its first entry above 1e-12
    in magnitude is real >= 0 (a column with none is kept).  A column's
    result does not depend on the others, so a caller may fix only the
    eigenvectors it keeps; a fixed column fixed again may move by an ulp."""
    # one scan over Python complexes finds the entries, and the phases are
    # one numpy division, which divides through the reciprocal of the real
    # magnitude, like a division of numpy scalars (Python's complex / float
    # would differ by an ulp, and so would np.abs)
    entries, mags = [], []
    for col in vecs.T.tolist():
        for entry in col:
            mag = abs(entry)
            if mag > 1e-12:
                break
        else:
            entry, mag = 1.0, 1.0
        entries.append(entry)
        mags.append(mag)
    phases = np.array(entries).conj() / np.array(mags)
    return vecs * phases


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices, first factor major: one broadcast
    product of the same entry pairs ``np.kron`` multiplies, reshaped."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatchError(f"expected two matrices, got ndim {a.ndim} and {b.ndim}")
    shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(shape)


def partial_trace(m, dims: tuple[int, int], over: str) -> np.ndarray:
    """Trace out subsystem ``over`` ('A' or 'B') of a matrix on dims (dA, dB)."""
    d_a, d_b = dims
    arr = as_matrix(m)
    if arr.shape != (d_a * d_b, d_a * d_b):
        raise DimensionMismatchError(
            f"matrix shape {arr.shape} does not match dims {d_a}x{d_b}"
        )
    blocks = arr.reshape(d_a, d_b, d_a, d_b)
    if over == "A":
        return np.einsum("ijik->jk", blocks)
    if over == "B":
        return np.einsum("ijkj->ik", blocks)
    raise ValueError(f"subsystem label must be 'A' or 'B', got {over!r}")


def require_orthonormal(vectors, what: str) -> np.ndarray:
    """Stack the vectors (each flattened; all of one shape) as columns,
    validate their Gram matrix against the identity within
    ORTHONORMALITY_ATOL (max-norm), and return the stack."""
    rows = np.asarray(vectors, dtype=complex)
    cols = np.ascontiguousarray(rows.reshape(len(rows), -1).T)
    if not np.isfinite(cols).all():
        raise NotOrthonormalError(f"{what} family contains non-finite entries")
    dev = _identity_deviation(dagger(cols) @ cols)
    if dev > ORTHONORMALITY_ATOL:
        raise NotOrthonormalError(f"{what} family deviates from orthonormal by {dev:.3e}")
    return cols


def _gram_schmidt_completion(vectors: np.ndarray, d: int) -> np.ndarray:
    """Extend orthonormal columns to a full basis, sweeping e_0, e_1, ... in order."""
    cols = [vectors[:, i] for i in range(vectors.shape[1])]
    for j in range(d):
        if len(cols) == d:
            break
        cand = np.zeros(d, dtype=complex)
        cand[j] = 1.0
        for c in cols:
            cand = cand - c * (np.vdot(c, cand))
        norm = np.linalg.norm(cand)
        if norm > 1e-9:
            cols.append(cand / norm)
    return np.column_stack(cols)


def unitary_completion(pairs: list[tuple[np.ndarray, np.ndarray]], d: int) -> np.ndarray:
    """Unitary mapping input_k -> output_k for matched orthonormal families.

    The action on the orthogonal complement is fixed deterministically: both
    families are completed to full bases by Gram-Schmidt over standard basis
    vectors in index order, and completion vectors are mapped in order.  An
    empty pair list yields the identity.
    """
    if not pairs:
        return np.eye(d, dtype=complex)
    if len(pairs) > d:
        raise InconsistentDimensionsError(f"{len(pairs)} pairs exceed dimension {d}")
    ins = require_orthonormal([p[0] for p in pairs], "input")
    outs = require_orthonormal([p[1] for p in pairs], "output")
    if ins.shape[0] != d or outs.shape[0] != d:
        raise InconsistentDimensionsError(
            f"pair vectors live in dims {ins.shape[0]}/{outs.shape[0]}, expected {d}"
        )
    full_in = _gram_schmidt_completion(ins, d)
    full_out = _gram_schmidt_completion(outs, d)
    return full_out @ dagger(full_in)
