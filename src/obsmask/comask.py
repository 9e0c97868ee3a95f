"""Comaskable observable sets: the general-d affine decomposition and its
traceless qubit slice, universal-masker counterexamples, and a common-output-
state feasibility search."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import _set
from .bloch import (
    POSITIVITY_ATOL,
    ObservableCoeffs,
    _codec,
    _coordinate_family,
    _coordinates,
    _expansion,
    _finite_bloch,
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

# An affine residual counts as zero below AFFINE_ATOL: a point's max-norm
# distance from an AffineSet, the gap between the two points of a
# counterexample, and the masking system's residual at its least-squares
# solution, which is scaled by the size of the system's terms.
AFFINE_ATOL = 1e-9

# The common-state search accepts a state once every masking equation holds
# within CONSTRAINT_ATOL.  It reports infeasibility after SEARCH_MAX_ITER
# rounds, or when the gap between the two sets changes by less than
# STALL_ATOL while it exceeds INFEASIBLE_GAP or the iterate maps to itself
# exactly (a fixed point every later round would repeat).
CONSTRAINT_ATOL = 1e-7
SEARCH_MAX_ITER = 10_000
STALL_ATOL = 1e-9
INFEASIBLE_GAP = 1e-6


def _pinv(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.pinv(rows, rcond=RANK_RTOL)`` for a real 2-D ``rows``,
    from one reduced SVD with numpy's cutoff and product order, so bit for
    bit its result."""
    u, s, vt = algebra._svd(rows)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > RANK_RTOL * s.max())
    return vt.T @ (inv[:, None] * u.T)


def _unit_block_certifies(rest: np.ndarray) -> bool:
    """Exact O(m (N - m)) certificate that an echelon family [unit columns |
    ``rest``] of m rows passes the singular-value test: its Gram matrix is
    I + rest rest^T, so sigma_min >= 1, while sigma_max <= its Frobenius
    norm sqrt(m + ||rest||_F^2) < 1 / (2 RANK_RTOL).  The factor 2 leaves
    room for the rounding of a computed SVD."""
    norm = algebra._norm(rest.ravel())
    return rest.shape[0] + norm * norm < (0.5 / RANK_RTOL) ** 2


@dataclass(frozen=True, eq=False, init=False)
class AffineSet:
    """Base point plus a linearly independent direction family (rows) in
    reduced row echelon form, held as its factors; no dense direction
    matrix is formed.

    ``AffineSet(base_point, units, rest)``: row i has its 1 at column
    ``units[i]`` (and 0 in the other unit columns), and ``rest``, of shape
    (m, ambient_dim - m), holds every other column in increasing order;
    ambient_dim is the base point's length.  Each array is copied once and
    held read-only.  Unit columns outside [0, ambient_dim) raise
    ``ValueError``, as do repeated ones, a ``rest`` of another shape and a
    non-finite base point or ``rest``.  The unit block then certifies
    independence from the factors alone (``_unit_block_certifies``), and
    only where that bound fails does the singular-value test run: the
    smallest singular value of the rows must exceed RANK_RTOL times the
    largest, read from those of ``rest`` (the rows' Gram matrix is
    I + rest rest^T).  ``sample`` costs O(m (ambient_dim - m)), and
    ``contains`` one solve of order ambient_dim - m.
    """

    ambient_dim: int
    base_point: np.ndarray
    units: np.ndarray
    rest: np.ndarray

    def __init__(self, base_point, units, rest):
        base = np.array(base_point, dtype=float).reshape(-1)
        n = base.size
        unit_cols = np.array(units, dtype=np.intp).reshape(-1)
        block = np.array(rest, dtype=float)
        if unit_cols.size and not 0 <= unit_cols.min() <= unit_cols.max() < n:
            raise ValueError(f"unit columns must lie in [0, {n})")
        others = np.ones(n, dtype=bool)
        others[unit_cols] = False
        others = np.flatnonzero(others)
        if others.size + unit_cols.size != n or block.shape != (unit_cols.size, others.size):
            raise ValueError(
                f"units {unit_cols.shape} and rest {block.shape} are not m distinct "
                f"columns and (m, {n} - m)"
            )
        if not np.isfinite(base).all():
            raise ValueError("base point is not finite")
        # a non-finite rest fails the certificate through its norm
        if not _unit_block_certifies(block):
            if not np.isfinite(block).all():
                raise ValueError("rest is not finite")
            # the rows' singular values are sqrt(1 + sigma(rest)^2), and 1
            # for each row past min(m, ambient_dim - m)
            svals = algebra._svdvals(block)
            low = 1.0 if svals.size < unit_cols.size else math.hypot(1.0, svals[-1])
            if low <= RANK_RTOL * math.hypot(1.0, svals[0]):
                raise ValueError("directions are not linearly independent")
        base.setflags(write=False)
        unit_cols.setflags(write=False)
        others.setflags(write=False)
        block.setflags(write=False)
        _set(self, ambient_dim=n, base_point=base, units=unit_cols, rest=block,
             _others=others)

    @property
    def affine_dim(self) -> int:
        return self.units.size

    def sample(self, weights) -> np.ndarray:
        """The element base + sum_j weights[j] * (row j of the directions)."""
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.shape[0] != self.affine_dim:
            raise DimensionMismatchError(
                f"{w.shape[0]} weights for {self.affine_dim} directions"
            )
        x = self.base_point.copy()
        x[self.units] += w
        x[self._others] += w @ self.rest
        return x

    def contains(self, point) -> bool:
        """Whether ``point``'s offset v from the base, projected onto the
        normal space spanned by the rows N = [-rest^T | I] (unit columns,
        then the others), is within max-norm AFFINE_ATOL: the projection is
        N^T s with (I + rest^T rest) s = N v = v[others] - v[units] @ rest,
        one solve of order ambient_dim - affine_dim.  A non-finite v is out."""
        x = np.asarray(point, dtype=float).reshape(-1)
        if x.shape[0] != self.ambient_dim:
            raise DimensionMismatchError(
                f"point has length {x.shape[0]}, expected {self.ambient_dim}"
            )
        v = x - self.base_point
        if not np.isfinite(v).all():
            return False
        rest = self.rest
        s = np.linalg.solve(np.eye(rest.shape[1]) + rest.T @ rest,
                            v[self._others] - v[self.units] @ rest)
        return bool(np.abs(s).max(initial=0.0) <= AFFINE_ATOL
                    and np.abs(rest @ s).max(initial=0.0) <= AFFINE_ATOL)


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

    A traceless a masks the state b exactly when a . b = 1/2.  With V the
    orthonormal direction rows of the points' affine hull, taken as
    ``comask_general`` takes them (``_hull_directions``), the hull point
    nearest the maximally mixed state b = 0 is c = b0 - (V b0)^T V, and the
    members are the a with a ⊥ V and a . c = 1/2.  The set is based at its
    minimum-norm member a* = c / (2|c|^2), and its directions, the
    complement of span(V, c), are assembled in reduced row echelon form as
    ``comask_general`` assembles its own (``_echelon_complement``), with no
    a0 column (0 throughout).  A hull within HULL_ATOL of b = 0
    (|c| < HULL_ATOL) raises ``InconsistentConstraintsError``.  The points
    are read and certified states by ``_bloch_states``.
    """
    pts = _bloch_states(points, 2)
    v = _hull_directions(pts)
    c = pts[0] - (v @ pts[0]) @ v
    cc = float(c @ c)
    if math.sqrt(cc) < HULL_ATOL:
        raise InconsistentConstraintsError(
            f"the states' affine hull passes within {HULL_ATOL:g} of the maximally mixed state"
        )
    base = np.concatenate(([0.0], c / (2.0 * cc)))
    coeff_set = _echelon_complement(np.vstack((v, c)), base)
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


def _echelon_complement(rows: np.ndarray, base: np.ndarray, b0=None) -> AffineSet:
    """The AffineSet in (a0, a) space based at ``base`` whose directions
    span the a orthogonal to the full-rank ``rows``, in reduced row echelon
    form: Gauss-Jordan gives R with R[:, piv] = I, and each free coordinate
    of a gets one direction with a 1 there and a[piv] = -R[:, free]^T.
    Along each, a0 = -2 a.b0 with ``b0`` given, and 0 without.  Only the a0
    and a[piv] columns are stored."""
    r, piv = _pivoted_echelon(rows)
    free = np.ones(r.shape[1], dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)
    coupling = r[:, free]
    # the columns other than the units 1 + free: a0, then a[piv] by column
    rest = np.zeros((free.size, 1 + piv.size))
    if b0 is not None:
        rest[:, 0] = -2.0 * (b0[free] - coupling.T @ b0[piv])
    rest[:, 1:] = -coupling.T[:, np.argsort(piv)]
    return AffineSet(base, 1 + free, rest)


def _bloch_states(points, d: int) -> np.ndarray:
    """The (m, d^2 - 1) stack of the Bloch points, each of any flat shape,
    once all are finite and certified states by one stacked Cholesky
    factorization of rho_i + POSITIVITY_ATOL I, which exists exactly when
    lambda_min(rho_i) > -POSITIVITY_ATOL, up to rounding of order
    d eps ||rho_i||; a factor holding inf or nan (an entry that overflows on
    division by its pivot) has failed.  Only a failure runs the eigensolver:
    one stacked ``eigvalsh`` names the first point with lambda_min <
    -POSITIVITY_ATOL (the verdict of ``positivity_conditions``), refused
    with the eigenvector of its least eigenvalue as the ``witness``; with
    no such point, possible only within rounding of the bound, it accepts."""
    flat = (np.asarray(p, dtype=float).reshape(-1) for p in points)
    pts = _finite_bloch(_coordinate_family(flat, d, "point"))
    rhos = _expansion(pts, d, 1.0 / d)
    try:
        if np.isfinite(algebra._cholesky(rhos + POSITIVITY_ATOL * np.eye(d))).all():
            return pts
    except np.linalg.LinAlgError:
        pass
    failing = np.flatnonzero(algebra._eigvalsh(rhos)[:, 0] < -POSITIVITY_ATOL)
    if failing.size:
        i = failing[0]
        witness = algebra._eigh(rhos[i])[1][:, 0]
        raise InvalidStateError(f"point {i} is not a valid state", witness=witness)
    return pts


def _hull_directions(pts: np.ndarray) -> np.ndarray:
    """Orthonormal rows V spanning the direction space of the points'
    affine hull: from one reduced SVD of the differences b_i - b0, the
    right singular vectors whose singular values exceed RANK_RTOL times
    the largest (k rows, the hull's dimension)."""
    v = np.zeros((0, pts.shape[1]))
    if len(pts) > 1:
        _, svals, vh = algebra._svd(pts[1:] - pts[0])
        v = vh[: int(np.sum(svals > RANK_RTOL * svals[0]))]
    return v


def comask_general(points, d: int) -> ComaskDescription:
    """All observables (a0, a) masked onto a given set of output states.

    Tr(rho O) = a0 + 2 a.b, so O masks the state b (Tr(rho O) = 1) exactly
    when a0/2 + a.b = 1/2.  With V the direction space of the affine hull
    of the points b0, b1, ... (dimension k, ``_hull_directions``), members
    satisfy a ⊥ V and a0 = 1 - 2 a.b0.  The directions are the echelon
    complement of V (``_echelon_complement``, shared with ``comask_qubit``),
    held as the factors of ``AffineSet`` in O(k d^2) after the SVD: each of
    the d^2 - 1 - k free coordinates of a gets one direction with a 1
    there, a[piv] = -R[:, free]^T and a0 = -2 a.b0, and only the a0 and
    a[piv] columns are stored.  For k = 0 that is [-2 b0 | I].  The result
    is based at (1, 0), has affine dimension d^2 - k - 1 and is never
    empty; no d^2-sized matrix is formed or decomposed.  Every point is
    first read and certified a state by one stacked Cholesky factorization
    (``_bloch_states``), whose failure alone runs the eigensolver.
    """
    pts = _bloch_states(points, d)
    n = pts.shape[1]
    base = np.concatenate(([1.0], np.zeros(n)))
    coeff_set = _echelon_complement(_hull_directions(pts), base, pts[0])
    return ComaskDescription(kind="general", dimension=d, coefficient_set=coeff_set)


def universal_counterexample(b, b_prime, d: int) -> ObservableCoeffs:
    """Observable masked at b_prime but provably not at b.

    Takes a along the difference of the two Bloch vectors and fixes
    a0 = 1 - 2 a . b', so the masking equation a0/2 + a . b = 1/2 holds at
    b' and fails at b by exactly |b - b'|; both points are first read and
    certified states by ``_bloch_states``, so b - b' is finite.
    """
    b_arr, bp_arr = _bloch_states((b, b_prime), d)
    gap = algebra._norm(b_arr - bp_arr)
    if gap < AFFINE_ATOL:
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
    CONSTRAINT_ATOL; raises ``ValueError`` for d < 2 or no observables,
    ``DimensionMismatchError`` naming the first observable whose row is not
    d^2 - 1 long, ``NotHermitianError`` for
    non-finite coefficients, ``NoAffineSolutionError`` when the linear
    system itself is inconsistent (its least-squares solution b leaves a
    residual above AFFINE_ATOL max(1, max|rhs|, max|rows| sum|b|)) and
    ``InfeasibleError`` (carrying the final gap between the sets, or the
    constraint residual at an exact fixed point) when the iteration stalls
    or the cap is reached.

    The input is validated once, here, and the pseudo-inverse of its rows
    is taken once (``_pinv``): each round builds rho = I/d + b.g from the
    generators' structure, as ``bloch_to_state`` does, and maps it back
    through the unvalidated coordinate product, with one ``eigh`` and one
    residual vector.
    """
    obs_list = list(observables)
    for c in obs_list:
        if c.dimension != d:
            raise DimensionMismatchError(
                f"observable dimension {c.dimension} != {d}"
            )
    rows = _coordinate_family([c.a for c in obs_list], d, "observable")
    codec = _codec(d)
    rhs = np.array([0.5 - c.a0 / 2 for c in obs_list])
    if not (np.isfinite(rows).all() and np.isfinite(rhs).all()):
        raise NotHermitianError("observable coefficients are not finite")
    pinv = _pinv(rows)
    b = pinv @ rhs
    miss = np.abs(rows @ b - rhs).max()
    # AFFINE_ATOL max(1, ...), its terms read only past the absolute bound
    if miss > AFFINE_ATOL and miss > AFFINE_ATOL * max(
        float(np.abs(rhs).max()), float(np.abs(rows).max()) * float(np.abs(b).sum())
    ):
        raise NoAffineSolutionError("masking equations are mutually inconsistent")

    gap = np.inf
    prev_gap = None
    for _ in range(SEARCH_MAX_ITER):
        vals, vecs = algebra._eigh(_expansion(b, d, 1.0 / d))
        clipped = np.maximum(vals, 0.0)
        # the iterate has unit trace, so its positive eigenvalues sum to >= 1
        rho_psd = (vecs * (clipped / float(clipped.sum()))) @ vecs.conj().T
        b_psd = _coordinates(rho_psd, codec)
        residual = rows @ b_psd - rhs
        if np.abs(residual).max() < CONSTRAINT_ATOL:
            return rho_psd
        b_next = b_psd - pinv @ residual
        step = b_next - b_psd
        gap = math.sqrt(step @ step)
        if prev_gap is not None and abs(gap - prev_gap) < STALL_ATOL:
            if gap > INFEASIBLE_GAP:
                raise InfeasibleError(
                    f"projections stalled at set distance {gap:.3e}", residual=gap
                )
            if (b_next == b).all():
                worst = float(np.abs(residual).max())
                raise InfeasibleError(
                    f"projections reached a fixed point with constraint residual {worst:.3e}",
                    residual=worst,
                )
        prev_gap = gap
        b = b_next
    raise InfeasibleError(
        f"no common state after {SEARCH_MAX_ITER} iterations (gap {gap:.3e})", residual=gap
    )
