"""Comaskable observable sets: the general-d affine decomposition and its
traceless qubit slice, universal-masker counterexamples, and a common-output-
state feasibility search."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import dagger
from .bloch import (
    POSITIVITY_ATOL,
    BlochVector,
    ObservableCoeffs,
    _coordinates,
    _expansion,
    _real_generators,
    bloch_to_state,
)
from .errors import (
    DimensionMismatchError,
    IdenticalPointsError,
    InconsistentConstraintsError,
    InfeasibleError,
    InvalidStateError,
    NoAffineSolutionError,
    NotHermitianError,
)

# Singular values below this fraction of the largest are treated as zero in
# rank decisions.
RANK_RTOL = 1e-9

# The qubit comask set is refused when the states' affine hull passes within
# HULL_ATOL of the maximally mixed state.
HULL_ATOL = 1e-9

# The common-state search accepts a state once every masking equation holds
# within CONSTRAINT_ATOL.  It reports infeasibility after SEARCH_MAX_ITER
# rounds, or when the gap between the two sets changes by less than
# STALL_ATOL while it exceeds INFEASIBLE_GAP.
CONSTRAINT_ATOL = 1e-7
SEARCH_MAX_ITER = 10_000
STALL_ATOL = 1e-9
INFEASIBLE_GAP = 1e-6


def _certified_independent(dirs: np.ndarray) -> bool:
    """Exact O(k N) certificate that the rows of ``dirs`` pass the
    singular-value test: some columns form a permuted identity (one column
    per row, holding 1 in that row and 0 elsewhere), so sigma_min >= 1,
    while sigma_max <= ||dirs||_F < 1 / (2 RANK_RTOL).  The factor 2 leaves
    room for the rounding of a computed SVD."""
    if not np.linalg.norm(dirs) < 0.5 / RANK_RTOL:
        return False
    units = (dirs == 1.0) & ((dirs != 0.0).sum(axis=0) == 1)
    return bool(units.any(axis=1).all())


@dataclass(frozen=True, eq=False)
class AffineSet:
    """Base point plus a linearly independent direction family (rows).

    Independence is checked on construction: by the exact certificate of
    ``_certified_independent`` when the directions carry a permuted identity
    block (as ``comask_general``'s echelon directions do), otherwise by the
    smallest singular value exceeding RANK_RTOL times the largest.
    """

    ambient_dim: int
    base_point: np.ndarray
    directions: np.ndarray  # shape (k, ambient_dim); k may be 0

    def __post_init__(self):
        base = np.asarray(self.base_point, dtype=float).reshape(-1)
        dirs = np.asarray(self.directions, dtype=float).reshape(-1, self.ambient_dim)
        if base.shape != (self.ambient_dim,):
            raise DimensionMismatchError(
                f"base point has length {base.shape[0]}, expected {self.ambient_dim}"
            )
        if dirs.shape[0] and not _certified_independent(dirs):
            svals = np.linalg.svd(dirs, compute_uv=False)
            if svals[-1] <= RANK_RTOL * svals[0]:
                raise ValueError("directions are not linearly independent")
        object.__setattr__(self, "base_point", base)
        object.__setattr__(self, "directions", dirs)

    @property
    def affine_dim(self) -> int:
        return self.directions.shape[0]

    def sample(self, weights) -> np.ndarray:
        """The element base + sum_j weights[j] * directions[j]."""
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.shape[0] != self.affine_dim:
            raise DimensionMismatchError(
                f"{w.shape[0]} weights for {self.affine_dim} directions"
            )
        return self.base_point + w @ self.directions

    def contains(self, point) -> bool:
        """Whether ``point`` lies in the set within max-norm 1e-9."""
        x = np.asarray(point, dtype=float).reshape(-1)
        if x.shape[0] != self.ambient_dim:
            raise DimensionMismatchError(
                f"point has length {x.shape[0]}, expected {self.ambient_dim}"
            )
        v = x - self.base_point
        if self.affine_dim:
            q = np.linalg.qr(self.directions.T)[0]
            v = v - q @ (q.T @ v)
        return bool(np.max(np.abs(v), initial=0.0) <= 1e-9)

    def slice_coordinate(self, index: int, value: float) -> "AffineSet":
        """Intersect with the hyperplane {x[index] = value}.

        The slice is based at its point nearest the base point, found by an
        orthogonal projection through a QR of the directions, so the result
        depends on the set and not on the basis chosen for it.  Its
        directions are orthonormal, and the coordinate is pinned: every
        sample of the slice has x[index] exactly equal to ``value``.
        """
        offset = value - self.base_point[index]
        if np.max(np.abs(self.directions[:, index]), initial=0.0) > 1e-12:
            q = np.linalg.qr(self.directions.T)[0]
            row = q[index]
            base = self.base_point + q @ (offset * row / np.dot(row, row))
            # directions keeping the coordinate fixed: null space of row
            dirs = np.linalg.svd(row.reshape(1, -1))[2][1:] @ q.T
        elif abs(offset) <= 1e-9:
            base, dirs = self.base_point.copy(), self.directions.copy()
        else:
            raise ValueError("slice misses the set")
        base[index] = value
        dirs[:, index] = 0.0
        return AffineSet(ambient_dim=self.ambient_dim, base_point=base, directions=dirs)


@dataclass(frozen=True, eq=False)
class ComaskDescription:
    """Affine set of observables (a0, a) masked by one common channel.

    ``coefficient_set`` lives in the (a0, a) space of dimension d^2 with a0
    as the leading coordinate.  ``comask_qubit`` holds the a0 = 0 slice of
    the general set, so its elements have a0 exactly 0.
    """

    kind: str  # "singleton" | "line" | "plane" | "general"
    dimension: int
    coefficient_set: AffineSet

    @property
    def affine_dim(self) -> int:
        return self.coefficient_set.affine_dim

    def element(self, weights) -> ObservableCoeffs:
        vec = self.coefficient_set.sample(weights)
        return ObservableCoeffs(dimension=self.dimension, a0=float(vec[0]), a=vec[1:])


def comask_qubit(points) -> ComaskDescription:
    """Traceless qubit observables masked onto every given output state: the
    a0 = 0 slice of ``comask_general(points, 2)``, a "plane", "line" or
    "singleton" by its affine dimension 2, 1 or 0.

    The slice is based at its minimum-norm element a*, and the points'
    affine hull lies 1 / (2|a*|) from the maximally mixed state b = 0, where
    a . b = 1/2 has no solution; a hull within HULL_ATOL of b = 0 raises
    ``InconsistentConstraintsError``.
    """
    general = comask_general(points, 2)
    refused = InconsistentConstraintsError(
        f"the states' affine hull passes within {HULL_ATOL:g} of the maximally mixed state"
    )
    try:
        coeff_set = general.coefficient_set.slice_coordinate(0, 0.0)
    except ValueError as exc:
        raise refused from exc
    if 2 * HULL_ATOL * np.linalg.norm(coeff_set.base_point) > 1:
        raise refused
    kind = ("singleton", "line", "plane")[coeff_set.affine_dim]
    return ComaskDescription(kind=kind, dimension=2, coefficient_set=coeff_set)


def _pivoted_echelon(v: np.ndarray):
    """Gauss-Jordan on the full-rank rows of ``v`` (k x n), each row pivoting
    on its largest remaining entry.  Returns (r, piv) with r[:, piv] exactly
    the identity and r spanning the same rows as v."""
    r = v.copy()
    piv = np.empty(len(r), dtype=np.intp)
    for i, row in enumerate(r):
        j = piv[i] = np.argmax(np.abs(row))
        row /= row[j]
        col = r[:, j].copy()
        col[i] = 0.0
        r -= col[:, None] * row
    return r, piv


def comask_general(points, d: int) -> ComaskDescription:
    """All observables (a0, a) masked onto a given set of output states.

    Tr(rho O) = a0 + 2 a.b, so O masks the state b (Tr(rho O) = 1) exactly
    when a0/2 + a.b = 1/2.  With V the direction space of the affine hull
    of the points b0, b1, ... (dimension k, from one reduced SVD of the
    differences b_i - b0), members satisfy a ⊥ V and a0 = 1 - 2 a.b0.  The
    directions are built in reduced row echelon form in O(d^4): Gauss-Jordan
    on V gives R with k pivot columns, R[:, piv] = I; each of the other
    d^2 - 1 - k coordinates of a gets one direction with a 1 there,
    a[piv] = -R[:, free]^T and a0 = -2 a.b0.  For k = 0 that is
    [-2 b0 | I].  The result is based at (1, 0), has affine dimension
    d^2 - k - 1 and is never empty, and no d^2-sized matrix is decomposed.

    Every point is checked to be a state by one stacked ``eigvalsh`` (the
    verdict of ``positivity_conditions``, without its e_k); a refused point
    carries the eigenvector of its least eigenvalue as the ``witness``.
    """
    n = d * d - 1
    arrs = []
    for i, pt in enumerate(points):
        vec = np.asarray(pt, dtype=float).reshape(-1)
        if vec.shape != (n,):
            raise DimensionMismatchError(f"point {i} has length {vec.shape[0]}, expected {n}")
        arrs.append(vec)
    if not arrs:
        raise ValueError("need at least one output state")
    pts = np.stack(arrs)
    if not np.isfinite(pts).all():
        raise InvalidStateError("Bloch vector has non-finite coordinates")
    rhos = bloch_to_state(BlochVector(d, pts))
    failing = np.flatnonzero(np.linalg.eigvalsh(rhos)[:, 0] < -POSITIVITY_ATOL)
    if failing.size:
        i = failing[0]
        witness = np.linalg.eigh(rhos[i])[1][:, 0]
        raise InvalidStateError(f"point {i} is not a valid state", witness=witness)
    b0 = pts[0]
    v = np.zeros((0, n))
    if len(pts) > 1:
        _, svals, vh = np.linalg.svd(pts[1:] - b0, full_matrices=False)
        v = vh[: int(np.sum(svals > RANK_RTOL * max(svals[0], 1e-30)))]
    r, piv = _pivoted_echelon(v)
    free = np.ones(n, dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)
    coupling = r[:, free]  # a[piv] = -coupling.T for the free unit vectors
    dirs = np.zeros((free.size, n + 1))
    dirs[:, 0] = -2.0 * (b0[free] - coupling.T @ b0[piv])
    dirs[np.arange(free.size), 1 + free] = 1.0
    dirs[:, 1 + piv] = -coupling.T
    base = np.concatenate(([1.0], np.zeros(n)))
    coeff_set = AffineSet(ambient_dim=n + 1, base_point=base, directions=dirs)
    return ComaskDescription(kind="general", dimension=d, coefficient_set=coeff_set)


def universal_counterexample(b, b_prime, d: int) -> ObservableCoeffs:
    """Observable masked at b_prime but provably not at b.

    Takes a along the difference of the two Bloch vectors and fixes
    a0 = 1 - 2 a . b', so the masking equation a0/2 + a . b = 1/2 holds at
    b' and fails at b by exactly |b - b'|.
    """
    n = d * d - 1
    b_arr = np.asarray(b, dtype=float).reshape(-1)
    bp_arr = np.asarray(b_prime, dtype=float).reshape(-1)
    if b_arr.shape != (n,) or bp_arr.shape != (n,):
        raise DimensionMismatchError(f"expected Bloch vectors of length {n}")
    if not (np.isfinite(b_arr).all() and np.isfinite(bp_arr).all()):
        raise InvalidStateError("Bloch vectors have non-finite coordinates")
    gap = np.linalg.norm(b_arr - bp_arr)
    if gap < 1e-9:
        raise IdenticalPointsError("the two output states coincide")
    a = (b_arr - bp_arr) / gap
    a0 = 1.0 - 2.0 * float(np.dot(a, bp_arr))
    return ObservableCoeffs(dimension=d, a0=a0, a=a)


def find_common_output_state(observables: Sequence[ObservableCoeffs], d: int) -> np.ndarray:
    """Search for one state masking every observable in the list.

    Alternates projections between the affine set of Bloch vectors solving
    all masking equations a0/2 + a.b = 1/2 and the positive unit-trace
    matrices (projected by eigenvalue clipping and trace renormalization).
    Returns a density matrix meeting every constraint within
    CONSTRAINT_ATOL; raises ``NotHermitianError`` for non-finite
    coefficients, ``NoAffineSolutionError`` when the linear system itself
    is inconsistent and ``InfeasibleError`` (carrying the final gap between
    the sets) when the iteration stalls or the cap is reached.

    The input is validated once, here: each round maps b to rho and back
    through the unvalidated codecs, one ``eigh`` and one residual vector.
    """
    obs_list = list(observables)
    if not obs_list:
        raise ValueError("need at least one observable")
    for c in obs_list:
        if c.dimension != d:
            raise DimensionMismatchError(
                f"observable dimension {c.dimension} != {d}"
            )
    rows = np.stack([np.asarray(c.a, dtype=float) for c in obs_list])
    rhs = np.array([0.5 - c.a0 / 2 for c in obs_list])
    if not (np.isfinite(rows).all() and np.isfinite(rhs).all()):
        raise NotHermitianError("observable coefficients are not finite")
    pinv = np.linalg.pinv(rows, rcond=RANK_RTOL)
    b = pinv @ rhs
    if np.max(np.abs(rows @ b - rhs)) > 1e-9:
        raise NoAffineSolutionError("masking equations are mutually inconsistent")

    mixed = np.eye(d) / d
    gens = _real_generators(d)
    gap = np.inf
    prev_gap = None
    for _ in range(SEARCH_MAX_ITER):
        vals, vecs = np.linalg.eigh(mixed + _expansion(b, gens))
        clipped = np.clip(vals, 0.0, None)
        # the iterate has unit trace, so its positive eigenvalues sum to >= 1
        rho_psd = (vecs * (clipped / float(np.sum(clipped)))) @ dagger(vecs)
        b_psd = _coordinates(rho_psd, gens)
        residual = rows @ b_psd - rhs
        if np.max(np.abs(residual)) < CONSTRAINT_ATOL:
            return rho_psd
        b_next = b_psd - pinv @ residual
        gap = float(np.linalg.norm(b_next - b_psd))
        if prev_gap is not None and abs(gap - prev_gap) < STALL_ATOL and gap > INFEASIBLE_GAP:
            raise InfeasibleError(
                f"projections stalled at set distance {gap:.3e}", residual=gap
            )
        prev_gap = gap
        b = b_next
    raise InfeasibleError(
        f"no common state after {SEARCH_MAX_ITER} iterations (gap {gap:.3e})", residual=gap
    )
