"""Generator bases of SU(d), Bloch-vector codecs for states and observables,
and positivity constraints evaluated through Newton's identities."""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .algebra import require_hermitian
from .errors import NotUnitTraceError

# Condition values this far below zero still count as positive (absorbs
# roundoff at the pure-state boundary).
POSITIVITY_ATOL = 1e-9

_basis_cache: dict[int, "GeneratorBasis"] = {}
_tensor_cache: dict[int, "SymmetricTensor"] = {}
_cache_lock = threading.RLock()  # re-entrant: building a tensor memoizes its basis


@dataclass(frozen=True, eq=False)
class GeneratorBasis:
    """The d^2 - 1 Hermitian, traceless generators with Tr(g_i g_j) = 2 delta_ij.

    Ordering: symmetric off-diagonal pairs (real), then antisymmetric pairs
    (imaginary), then diagonal generators, each block in index-lexicographic
    order.  For d = 2 this is exactly (sigma_1, sigma_2, sigma_3).
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
    at d = 16, against (d^2 - 1)^3 dense entries.
    """

    dimension: int
    index: np.ndarray  # shape (nnz, 3), intp, read-only
    data: np.ndarray  # shape (nnz,), real, read-only

    @property
    def values(self) -> np.ndarray:
        """The dense tensor, shape (d^2 - 1,) * 3, read-only; built on each
        access (O(d^6) memory), so prefer ``index``/``data``."""
        n = self.dimension**2 - 1
        dense = np.zeros((n, n, n))
        dense[tuple(self.index.T)] = self.data
        dense.setflags(write=False)
        return dense


@dataclass(frozen=True, eq=False)
class BlochVector:
    """Real coordinates b of a state rho = I/d + sum_i b_i g_i."""

    dimension: int
    b: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.b))


@dataclass(frozen=True, eq=False)
class ObservableCoeffs:
    """Real coordinates (a0, a) of an observable O = a0 I + sum_i a_i g_i."""

    dimension: int
    a0: float
    a: np.ndarray

    def a_norm(self) -> float:
        return float(np.linalg.norm(self.a))


def _build_generators(d: int) -> np.ndarray:
    gens = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            gens.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            gens.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -float(l)
        gens.append(m * np.sqrt(2.0 / (l * (l + 1))))
    return np.stack(gens)


def _memoized(cache: dict, d: int, build):
    """cache[d], built by build(d) under the lock on the first request."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    with _cache_lock:
        value = cache.get(d)
        if value is None:
            value = cache[d] = build(d)
    return value


def _build_basis(d: int) -> GeneratorBasis:
    mats = _build_generators(d)
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
    """
    return _memoized(_tensor_cache, d, _build_tensor)


def _coordinates(arr: np.ndarray) -> np.ndarray:
    """Tr(M g_i) / 2 for each generator g_i of a d x d matrix M."""
    g = generator_basis(arr.shape[0]).matrices
    return np.einsum("kab,ba->k", g, arr).real / 2.0


def _expansion(coords, d: int) -> np.ndarray:
    """sum_i coords_i g_i over the generators of dimension d."""
    return np.einsum("k,kab->ab", coords, generator_basis(d).matrices)


def state_to_bloch(rho) -> BlochVector:
    """Bloch coordinates b_i = Tr(rho g_i) / 2 of a unit-trace Hermitian matrix."""
    arr = require_hermitian(rho)
    d = arr.shape[0]
    tr = np.trace(arr).real
    if abs(tr - 1.0) > 1e-10:
        raise NotUnitTraceError(f"trace is {tr!r}, not 1")
    return BlochVector(dimension=d, b=_coordinates(arr))


def bloch_to_state(b: BlochVector) -> np.ndarray:
    """Matrix I/d + sum_i b_i g_i; Hermitian unit-trace, positivity not implied."""
    return np.eye(b.dimension) / b.dimension + _expansion(b.b, b.dimension)


def observable_coeffs(obs) -> ObservableCoeffs:
    """Coefficients a0 = Tr(O)/d, a_i = Tr(O g_i)/2 of a Hermitian matrix."""
    arr = require_hermitian(obs)
    d = arr.shape[0]
    a0 = float(np.trace(arr).real) / d
    return ObservableCoeffs(dimension=d, a0=a0, a=_coordinates(arr))


def coeffs_to_observable(c: ObservableCoeffs) -> np.ndarray:
    """Matrix a0 I + sum_i a_i g_i."""
    return c.a0 * np.eye(c.dimension) + _expansion(np.asarray(c.a, float), c.dimension)


def _elementary_symmetric(power_sums: np.ndarray) -> np.ndarray:
    """e_1..e_n from power sums p_1..p_n via Newton's identities."""
    n = len(power_sums)
    e = np.zeros(n + 1)
    e[0] = 1.0
    for k in range(1, n + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1.0) ** (i - 1) * e[k - i] * power_sums[i - 1]
        e[k] = acc / k
    return e[1:]


def positivity_conditions(b: BlochVector, tol: float = POSITIVITY_ATOL):
    """Elementary symmetric polynomials e_2..e_d of the reconstructed matrix.

    Computed from the power sums Tr(rho^p), p = 1..d, through Newton's
    identities; no eigensolve.  The matrix is positive semidefinite exactly
    when every value is nonnegative (checked against -tol).  The first value
    relates to the ball constraint by 2 e_2 = (d-1)/d - 2|b|^2.
    """
    d = b.dimension
    rho = bloch_to_state(b)
    power_sums = np.empty(d)
    power_sums[0] = 1.0
    acc = rho
    for p in range(2, d + 1):
        acc = acc @ rho
        power_sums[p - 1] = np.trace(acc).real
    values = _elementary_symmetric(power_sums)[1:]
    return values, bool(np.all(values >= -tol))


def cubic_condition_value(b: BlochVector) -> float:
    """The cubic positivity combination built from the symmetric tensor.

    Equals (d-1)(d-2)/d^2 - 6 (d-2)/d |b|^2 + 4 sum_ijk g_ijk b_i b_j b_k,
    which coincides with 6 e_3 of the reconstructed matrix.  Exposed as a
    read-only cross-check of the g_ijk normalization (vacuously zero at d=2).
    """
    d = b.dimension
    t = symmetric_tensor(d)
    v = np.asarray(b.b, dtype=float)
    i, j, k = t.index.T
    bb = float(np.dot(v, v))
    cubic = float(t.data @ (v[i] * v[j] * v[k]))
    return (d - 1) * (d - 2) / d**2 - 6.0 * (d - 2) / d * bb + 4.0 * cubic
