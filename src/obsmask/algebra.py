"""Dense complex matrix substrate: Hermitian eigendecomposition, tensor
products, partial trace, and unitary completion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex ndarray and reject non-finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    return arr


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def max_norm(m) -> float:
    """Largest entry magnitude (the max-norm used by all residual checks)."""
    arr = np.asarray(m)
    return 0.0 if arr.size == 0 else float(np.max(np.abs(arr)))


def require_hermitian(m, tol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Validate hermiticity within ``tol`` (max-norm) and return the matrix."""
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"matrix is {arr.shape}, not square")
    dev = max_norm(arr - dagger(arr))
    if dev > tol:
        raise NotHermitianError(f"max |M - M^dag| = {dev:.3e} exceeds {tol:.1e}")
    return arr


def fix_phase(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rotate a vector's global phase so its first nonzero entry is real >= 0."""
    for entry in v:
        mag = abs(entry)
        if mag > tol:
            return v * (entry.conjugate() / mag)
    return v * (1.0 + 0.0j)


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


def eig_hermitian(m, tol: float = HERMITICITY_ATOL) -> HermitianEig:
    """Eigendecompose a Hermitian matrix; eigenvalues ascending."""
    arr = require_hermitian(m, tol)
    try:
        vals, vecs = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc
    vecs = np.column_stack([fix_phase(vecs[:, i]) for i in range(vecs.shape[1])])
    return HermitianEig(eigenvalues=vals, eigenvectors=vecs)


def plane_frame(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pair spanning the plane orthogonal to a unit
    3-vector: the coordinate axis least aligned with it, projected, then the
    cross product."""
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(normal)))] = 1.0
    e1 = seed - normal * np.dot(normal, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    return e1, e2


def tensor(a, b) -> np.ndarray:
    """Kronecker product, first factor major."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


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


def require_orthonormal(vectors, what: str, tol: float) -> np.ndarray:
    """Stack the vectors as columns, validate their Gram matrix against the
    identity within ``tol`` (max-norm), and return the stacked array."""
    cols = np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for v in vectors])
    dev = max_norm(dagger(cols) @ cols - np.eye(cols.shape[1]))
    if dev > tol:
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


def unitary_completion(
    pairs: list[tuple[np.ndarray, np.ndarray]],
    d: int,
    tol: float = ORTHONORMALITY_ATOL,
) -> np.ndarray:
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
    ins = require_orthonormal([p[0] for p in pairs], "input", tol)
    outs = require_orthonormal([p[1] for p in pairs], "output", tol)
    if ins.shape[0] != d or outs.shape[0] != d:
        raise InconsistentDimensionsError(
            f"pair vectors live in dims {ins.shape[0]}/{outs.shape[0]}, expected {d}"
        )
    full_in = _gram_schmidt_completion(ins, d)
    full_out = _gram_schmidt_completion(outs, d)
    return full_out @ dagger(full_in)
