"""Generator bases of SU(d), Bloch-vector codecs for states and observables,
and positivity constraints evaluated from one eigensolve."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import _require_dimension, require_hermitian
from .errors import DimensionMismatchError, InvalidStateError, NotUnitTraceError

# A minimum eigenvalue this far below zero still counts as positive (absorbs
# roundoff at the pure-state boundary).
POSITIVITY_ATOL = 1e-9
# A state's trace may differ from 1 by at most TRACE_ATOL.
TRACE_ATOL = 1e-10

_basis_cache: dict[int, "GeneratorBasis"] = {}
_tensor_cache: dict[int, "SymmetricTensor"] = {}
_layout_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_codec_cache: dict[int, np.ndarray] = {}
# re-entrant: a basis build memoizes its layout, a tensor build its basis
_cache_lock = threading.RLock()


@dataclass(frozen=True, eq=False)
class GeneratorBasis:
    """The d^2 - 1 Hermitian, traceless generators with Tr(g_i g_j) = 2 delta_ij.

    Ordering: symmetric off-diagonal pairs (real), then antisymmetric pairs
    (imaginary), then diagonal generators, each block in index-lexicographic
    order.  For d = 2 this is exactly (sigma_1, sigma_2, sigma_3).  The
    expansion's layout defines that ordering and normalisation; the
    matrices are its expansion of the identity's rows.
    """

    dimension: int
    matrices: np.ndarray  # shape (d^2 - 1, d, d), read-only

    def __len__(self) -> int:
        return self.matrices.shape[0]


@dataclass(frozen=True, eq=False)
class SymmetricTensor:
    """Totally symmetric structure constants g_ijk = Tr({g_i, g_j} g_k) / 4.

    Stored sparsely: row m of ``index`` holds (i, j, k) and ``data[m]`` holds
    the nonzero g_ijk, every ordering of each index triple listed once and
    rows in lexicographic order.  That is 9 065 entries at d = 12 and 22 727
    at d = 16, against (d^2 - 1)^3 dense entries.  Contracted with a Bloch
    vector, ``data @ (b[i] b[j] b[k])`` is Tr(B^3) / 2 for
    B = sum_i b_i g_i, the value ``cubic_condition_value`` computes from B
    directly; no library function reads the tensor.
    """

    dimension: int
    index: np.ndarray  # shape (nnz, 3), intp, read-only
    data: np.ndarray  # shape (nnz,), real, read-only


@dataclass(frozen=True, eq=False)
class BlochVector:
    """Real coordinates b of a state rho = I/d + sum_i b_i g_i (or, for
    ``bloch_to_state``, a stack of such rows)."""

    dimension: int
    b: np.ndarray


@dataclass(frozen=True, eq=False)
class ObservableCoeffs:
    """Real coordinates (a0, a) of an observable O = a0 I + sum_i a_i g_i."""

    dimension: int
    a0: float
    a: np.ndarray

    def a_norm(self) -> float:
        """|a|: ``np.linalg.norm(a)`` bit for bit, without its wrapper,
        wherever a . a is finite, and finite up to the float limit beyond."""
        return algebra._norm(np.asarray(self.a, dtype=float).ravel(order="K"))


def _memoized(cache: dict, d: int, build):
    """cache[d], built by build(d) under the lock on the first request.

    A hit reads the dict without the lock; a miss re-checks under it, so
    concurrent first requests share one build.
    """
    value = cache.get(d)
    if value is not None:
        return value
    _require_dimension(d)
    with _cache_lock:
        value = cache.get(d)
        if value is None:
            value = cache[d] = build(d)
    return value


def _build_basis(d: int) -> GeneratorBasis:
    mats = _expansion(np.eye(d * d - 1), d, 0.0)
    mats.setflags(write=False)
    return GeneratorBasis(dimension=d, matrices=mats)


def generator_basis(d: int) -> GeneratorBasis:
    """Return (and memoize) the generator basis for dimension d >= 2."""
    return _memoized(_basis_cache, d, _build_basis)


def _match(left: np.ndarray, right: np.ndarray, size: int):
    """All index pairs (l, r) with left[l] == right[r], for keys in range(size).

    Groups ``right`` by key once, then repeats each l over the group of its
    key; the cost is the number of pairs returned.
    """
    order = np.argsort(right, kind="stable")
    counts = np.bincount(right, minlength=size)
    starts = np.cumsum(counts) - counts
    per_left = counts[left]
    l_idx = np.repeat(np.arange(left.size), per_left)
    rank = np.arange(l_idx.size) - np.repeat(np.cumsum(per_left) - per_left, per_left)
    return l_idx, order[starts[left[l_idx]] + rank]


def _build_tensor(d: int) -> SymmetricTensor:
    # g_ijk = Re Tr(g_i g_j g_k) / 2, since Tr(g_j g_i g_k) is the conjugate of
    # Tr(g_i g_j g_k) for Hermitian g.  The trace is a sum over closed chains
    # g_i[a, b] g_j[b, c] g_k[c, a] of nonzero entries; each generator has 2
    # of them (l + 1 for the l-th diagonal one), so there are O(d^3) chains.
    g = generator_basis(d).matrices
    n = g.shape[0]
    gen, row, col = np.nonzero(g)
    val = g[gen, row, col]
    p, q = _match(col, row, d)  # g_i[a, b] g_j[b, c]
    t, r = _match(col[q] * d + row[p], row * d + col, d * d)  # ... g_k[c, a]
    p, q = p[t], q[t]
    flat = (gen[p] * n + gen[q]) * n + gen[r]
    keys, slot = np.unique(flat, return_inverse=True)
    data = np.bincount(slot, weights=(val[p] * val[q] * val[r]).real) / 2.0
    keep = data != 0.0
    index = np.stack(np.unravel_index(keys[keep], (n, n, n)), axis=1)
    data = data[keep]
    index.setflags(write=False)
    data.setflags(write=False)
    return SymmetricTensor(dimension=d, index=index, data=data)


def symmetric_tensor(d: int) -> SymmetricTensor:
    """Return (and memoize) g_ijk = Tr({g_i, g_j} g_k) / 4 for dimension d >= 2.

    Built from the nonzero entries of the generators alone, in O(d^3) time
    and memory: a few milliseconds and under 7 MB of allocations at d = 16.
    Kept as a public reference for the g_ijk normalization; the cubic
    positivity value is computed without it.
    """
    return _memoized(_tensor_cache, d, _build_tensor)


def _build_codec(d: int) -> np.ndarray:
    """The read-only (d^2 - 1, 2 d^2) float64 codec: row i holds the entries
    of g_i / 2, flattened, as interleaved (re, im) pairs.  Halving is exact,
    so a product with it is the unhalved product over 2, bit for bit, unless
    a term is subnormal or the unhalved sum overflows."""
    g = generator_basis(d).matrices
    codec = g.reshape(len(g), d * d).view(float) * 0.5
    codec.setflags(write=False)
    return codec


def _codec(d: int) -> np.ndarray:
    """The memoized codec of dimension d; refuses d < 2."""
    return _memoized(_codec_cache, d, _build_codec)


def _coordinates(arr: np.ndarray, codec: np.ndarray) -> np.ndarray:
    """Tr(M g_i) / 2 for each generator g_i of a d x d matrix M, with
    ``codec`` the memoized codec of dimension d.

    Row i of the codec dotted with the (re, im) pairs of M is
    Re sum_ab g_i[a, b] conj(M[a, b]) / 2, which equals Re Tr(g_i M) / 2 term
    by term for Hermitian g_i: one real matrix product for all generators.
    """
    flat = np.ascontiguousarray(arr, dtype=complex).reshape(-1).view(float)
    return codec @ flat


def _build_layout(d: int) -> tuple[np.ndarray, np.ndarray]:
    # The expansion row is [c_sym + 0, c_anti + 0, 0 - c_anti, diagonal, 0]
    # (m, m, m, d and 1 slots).  Symmetric pair p puts c_p at (j, k) and
    # (k, j); antisymmetric pair p puts -i c at (j, k) and +i c at (k, j).
    # Diagonal generator l = 1 .. d - 1 has the diagonal s_l (1, .., 1, -l,
    # 0, .., 0), with l ones and s_l = sqrt(2 / (l (l + 1))).
    m = d * (d - 1) // 2
    j, k = np.triu_indices(d, 1)
    p = np.arange(m)
    r = np.arange(d)
    index = np.empty((d, d, 2), dtype=np.intp)
    index[j, k, 0] = index[k, j, 0] = p
    index[k, j, 1] = m + p
    index[j, k, 1] = 2 * m + p
    index[r, r, 0] = 3 * m + r
    index[r, r, 1] = 3 * m + d
    l = np.arange(1, d)[:, None]
    diag = np.sqrt(2.0 / (l * (l + 1))) * ((r < l) - l * (r == l))
    index.setflags(write=False)
    diag.setflags(write=False)
    return index, diag


def _layout(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, diag) of the expansion at dimension d, memoized: ``index``
    (d, d, 2) gives the slot in the expansion row of the real and the
    imaginary part of each entry, and ``diag`` (d - 1, d) holds the real
    diagonals of the diagonal generators."""
    return _memoized(_layout_cache, d, _build_layout)


def _coordinate_rows(coords, d: int, stack: bool = True) -> np.ndarray:
    """coords as a float array whose rows are d^2 - 1 long, one row unless
    ``stack``.  A dimension below 2 raises ``ValueError`` first; any other
    shape, ``DimensionMismatchError``."""
    _require_dimension(d)
    c = np.asarray(coords, dtype=float)
    n = d * d - 1
    if c.shape[-1:] != (n,):
        length = c.shape[-1] if c.ndim else 1
        raise DimensionMismatchError(
            f"coordinate row has length {length}, expected {n} at d = {d}"
        )
    if c.ndim != 1 and not stack:
        raise DimensionMismatchError(f"expected one coordinate row, got shape {c.shape}")
    return c


def _coordinate_family(members, d: int, what: str) -> np.ndarray:
    """The (m, d^2 - 1) float stack of a family of coordinate rows; refuses
    d < 2, then an empty family, then the first member not one row d^2 - 1
    long, named as ``what`` and its index (``DimensionMismatchError``)."""
    _require_dimension(d)
    rows = [np.asarray(row, dtype=float) for row in members]
    if not rows:
        raise ValueError(f"need at least one {what}")
    n = d * d - 1
    for i, row in enumerate(rows):
        if row.shape != (n,):
            raise DimensionMismatchError(f"{what} {i} has shape {row.shape}, expected ({n},)")
    return np.array(rows)


def _finite_bloch(c: np.ndarray) -> np.ndarray:
    """c, once every Bloch coordinate in it is finite; every comparison
    with NaN is False, so a NaN or infinite one raises ``InvalidStateError``."""
    if not np.isfinite(c).all():
        raise InvalidStateError("Bloch vector has non-finite coordinates")
    return c


def _expansion(c: np.ndarray, d: int, shift: float) -> np.ndarray:
    """shift I + sum_i c_i g_i at dimension d, for coordinate rows ``c``
    already read by ``_coordinate_rows`` or ``_coordinate_family``; a stack
    of rows gives a stack of matrices.

    Each off-diagonal entry is a single coordinate (negated for the upper
    antisymmetric ones), gathered into place; adding to or subtracting from
    0.0 turns -0.0 into 0.0, so every zero off the diagonal is +0.0 whatever
    the sign of its coordinate.  The diagonal is one (d - 1) x d product
    plus the shift.
    """
    index, diag = _layout(d)
    m = d * (d - 1) // 2
    row = np.concatenate(
        (
            c[..., : 2 * m] + 0.0,
            0.0 - c[..., m : 2 * m],
            c[..., 2 * m :] @ diag + shift,
            np.zeros(c.shape[:-1] + (1,)),
        ),
        axis=-1,
    )
    return row.take(index, axis=-1).view(complex)[..., 0]


def state_to_bloch(rho) -> BlochVector:
    """Bloch coordinates b_i = Tr(rho g_i) / 2 of a unit-trace Hermitian matrix."""
    arr = require_hermitian(rho)
    d = arr.shape[0]
    tr = float(arr.trace().real)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise NotUnitTraceError(f"trace is {tr!r}, not 1")
    return BlochVector(dimension=d, b=_coordinates(arr, _codec(d)))


def bloch_to_state(b: BlochVector) -> np.ndarray:
    """Matrix I/d + sum_i b_i g_i; Hermitian unit-trace, positivity not
    implied.  A stack of coordinate rows, shape (m, d^2 - 1), gives the
    stack of m matrices.  Built from the generators' structure: each
    off-diagonal entry is one coordinate, the diagonal one small product;
    d < 2 raises ``ValueError``, a row not d^2 - 1 long ``DimensionMismatchError``."""
    return _expansion(_coordinate_rows(b.b, b.dimension), b.dimension, 1.0 / b.dimension)


def observable_coeffs(obs) -> ObservableCoeffs:
    """Coefficients a0 = Tr(O)/d, a_i = Tr(O g_i)/2 of a Hermitian matrix."""
    arr = require_hermitian(obs)
    d = arr.shape[0]
    codec = _codec(d)  # first: it refuses d < 2
    a0 = float(arr.trace().real) / d
    return ObservableCoeffs(dimension=d, a0=a0, a=_coordinates(arr, codec))


def coeffs_to_observable(c: ObservableCoeffs) -> np.ndarray:
    """Matrix a0 I + sum_i a_i g_i, built as ``bloch_to_state`` builds a
    state, with the same refusals."""
    return _expansion(_coordinate_rows(c.a, c.dimension), c.dimension, c.a0)


def positivity_conditions(b: BlochVector):
    """Elementary symmetric polynomials e_2..e_d of the reconstructed matrix,
    and whether it is positive semidefinite.

    One ``eigvalsh`` gives the spectrum.  The verdict is its minimum
    checked against -POSITIVITY_ATOL; the values are the coefficients of
    prod_i (1 + lambda_i t), expanded in place on Python floats (those of
    ``np.poly`` up to sign, without its per-root overhead).  The first value
    relates to the ball constraint by 2 e_2 = (d-1)/d - 2|b|^2.  Refuses d < 2,
    then a ``b`` that is not one row d^2 - 1 long, then non-finite coordinates.
    """
    d = b.dimension
    v = _finite_bloch(_coordinate_rows(b.b, d, stack=False))
    lam = algebra._eigvalsh(_expansion(v, d, 1.0 / d))
    e = [1.0] + [0.0] * d
    for i, x in enumerate(lam.tolist(), 1):
        for k in range(i, 0, -1):
            e[k] += x * e[k - 1]
    return np.array(e[2:]), bool(lam[0] >= -POSITIVITY_ATOL)


def cubic_condition_value(b: BlochVector) -> float:
    """The cubic positivity combination of the Bloch vector.

    Equals (d-1)(d-2)/d^2 - 6 (d-2)/d |b|^2 + 4 sum_ijk g_ijk b_i b_j b_k,
    which coincides with 6 e_3 of the reconstructed matrix (vacuously zero
    at d = 2).  With B = sum_i b_i g_i, the cubic term is
    Tr({B, B} B) / 4 = Tr(B^3) / 2, taken from one d x d product; the
    symmetric tensor is not read.  It refuses what ``positivity_conditions``
    refuses, in the same order.
    """
    d = b.dimension
    v = _coordinate_rows(b.b, d, stack=False)
    bb = float(np.dot(v, v))
    # a finite |b|^2 proves every coordinate finite
    if not math.isfinite(bb):
        _finite_bloch(v)
    m = _expansion(v, d, 0.0)
    # vdot conjugates its first factor: sum conj(B) * B^2 = Tr(B^dag B^2)
    cubic = float(np.vdot(m, m @ m).real) / 2.0
    return (d - 1) * (d - 2) / d**2 - 6.0 * (d - 2) / d * bb + 4.0 * cubic
