"""Comaskable observable sets: the general-d affine decomposition and its
traceless qubit slice, universal-masker counterexamples, and a common-output-
state feasibility search."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import algebra
from .bloch import (
    POSITIVITY_ATOL,
    ObservableCoeffs,
    _coordinate_family,
    _coordinates,
    _expansion,
    _finite_bloch,
    _real_generators,
)
from .channels import _set
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
# STALL_ATOL while it exceeds INFEASIBLE_GAP or the iterate maps to itself
# exactly (a fixed point every later round would repeat).
CONSTRAINT_ATOL = 1e-7
SEARCH_MAX_ITER = 10_000
STALL_ATOL = 1e-9
INFEASIBLE_GAP = 1e-6


def _require_independent(dirs: np.ndarray) -> None:
    """The singular-value rank test: the smallest singular value of the rows
    must exceed RANK_RTOL times the largest."""
    if dirs.shape[0]:
        svals = algebra._svdvals(dirs)
        if svals[-1] <= RANK_RTOL * svals[0]:
            raise ValueError("directions are not linearly independent")


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
    return bool(rest.shape[0] + np.linalg.norm(rest) ** 2 < (0.5 / RANK_RTOL) ** 2)


def _echelon_dense(units: np.ndarray, others: np.ndarray, rest: np.ndarray, n: int) -> np.ndarray:
    """The read-only m x n matrix with row i holding 1 at column units[i], 0
    in the other unit columns, and ``rest`` in the columns ``others``."""
    m = units.size
    dirs = np.zeros((m, n))
    dirs[:, others] = rest
    dirs[np.arange(m), units] = 1.0
    dirs.setflags(write=False)
    return dirs


@dataclass(frozen=True, eq=False, init=False)
class AffineSet:
    """Base point plus a linearly independent direction family (rows).

    ``AffineSet(ambient_dim, base_point, directions)`` holds a general
    family as a dense (m, ambient_dim) matrix, checked by the singular-value
    test: the smallest singular value must exceed RANK_RTOL times the
    largest.

    ``AffineSet.echelon(base_point, units, rest)`` holds a family in reduced
    row echelon form as its factors: row i has its 1 at column ``units[i]``
    (and 0 in the other unit columns), and ``rest``, of shape (m,
    ambient_dim - m), holds every other column in increasing order.  Its
    unit block certifies independence from the factors alone
    (``_unit_block_certifies``; the SVD runs only where that bound fails),
    ``sample`` costs O(m (ambient_dim - m)), and ``directions`` is a
    read-only dense view built on each access.  Both factors are None for a
    general family.  Either form holds read-only copies of its arrays.
    """

    ambient_dim: int
    base_point: np.ndarray
    units: np.ndarray | None
    rest: np.ndarray | None

    def __init__(self, ambient_dim: int, base_point, directions):
        base = np.array(base_point, dtype=float).reshape(-1)
        if base.shape != (ambient_dim,):
            raise DimensionMismatchError(
                f"base point has length {base.shape[0]}, expected {ambient_dim}"
            )
        dirs = np.array(directions, dtype=float).reshape(-1, ambient_dim)
        _require_independent(dirs)
        base.setflags(write=False)
        dirs.setflags(write=False)
        _set(self, ambient_dim=ambient_dim, base_point=base, units=None, rest=None,
             _directions=dirs)

    @classmethod
    def echelon(cls, base_point, units, rest) -> AffineSet:
        """The set base_point + span of the echelon rows given by ``units``
        and ``rest``, each copied once and held read-only.  Unit columns
        outside [0, ambient_dim) raise ``ValueError``, as do repeated ones
        or a ``rest`` not (m, ambient_dim - m).  Then the independence
        certificate runs, with the SVD where it fails."""
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
        if not _unit_block_certifies(block):
            _require_independent(_echelon_dense(unit_cols, others, block, n))
        base.setflags(write=False)
        unit_cols.setflags(write=False)
        others.setflags(write=False)
        block.setflags(write=False)
        self = object.__new__(cls)
        _set(self, ambient_dim=n, base_point=base, units=unit_cols, rest=block,
             _others=others)
        return self

    @property
    def directions(self) -> np.ndarray:
        """The (affine_dim, ambient_dim) direction matrix; for an echelon
        family, a read-only dense view built on each access."""
        if self.units is None:
            return self._directions
        return _echelon_dense(self.units, self._others, self.rest, self.ambient_dim)

    @property
    def affine_dim(self) -> int:
        if self.units is None:
            return self._directions.shape[0]
        return self.units.size

    def sample(self, weights) -> np.ndarray:
        """The element base + sum_j weights[j] * directions[j]."""
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.shape[0] != self.affine_dim:
            raise DimensionMismatchError(
                f"{w.shape[0]} weights for {self.affine_dim} directions"
            )
        if self.units is None:
            return self.base_point + w @ self._directions
        x = self.base_point.copy()
        x[self.units] += w
        x[self._others] += w @ self.rest
        return x

    def contains(self, point) -> bool:
        """Whether ``point`` lies in the set within max-norm 1e-9."""
        x = np.asarray(point, dtype=float).reshape(-1)
        if x.shape[0] != self.ambient_dim:
            raise DimensionMismatchError(
                f"point has length {x.shape[0]}, expected {self.ambient_dim}"
            )
        v = x - self.base_point
        if self.affine_dim:
            q = algebra._qr(self.directions.T)[0]
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
        directions = self.directions
        if np.max(np.abs(directions[:, index]), initial=0.0) > 1e-12:
            q = algebra._qr(directions.T)[0]
            row = q[index]
            base = self.base_point + q @ (offset * row / np.dot(row, row))
            # directions keeping the coordinate fixed: null space of row
            dirs = algebra._svd_full(row.reshape(1, -1))[2][1:] @ q.T
        elif abs(offset) <= 1e-9:
            base, dirs = self.base_point.copy(), directions.copy()
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


def _bloch_points(points, d: int) -> np.ndarray:
    """The (m, d^2 - 1) stack of finite Bloch points, each of any flat shape."""
    flat = (np.asarray(p, dtype=float).reshape(-1) for p in points)
    return _finite_bloch(_coordinate_family(flat, d, "point"))


def comask_general(points, d: int) -> ComaskDescription:
    """All observables (a0, a) masked onto a given set of output states.

    Tr(rho O) = a0 + 2 a.b, so O masks the state b (Tr(rho O) = 1) exactly
    when a0/2 + a.b = 1/2.  With V the direction space of the affine hull
    of the points b0, b1, ... (dimension k, from one reduced SVD of the
    differences b_i - b0), members satisfy a ⊥ V and a0 = 1 - 2 a.b0.  The
    directions are held in reduced row echelon form as the factors of
    ``AffineSet.echelon``, in O(k d^2) after the SVD: Gauss-Jordan on
    V gives R with k pivot columns, R[:, piv] = I; each of the other
    d^2 - 1 - k coordinates of a gets one direction with a 1 there,
    a[piv] = -R[:, free]^T and a0 = -2 a.b0, and only the a0 and a[piv]
    columns are stored.  For k = 0 that is [-2 b0 | I].  The result is
    based at (1, 0), has affine dimension d^2 - k - 1 and is never empty; no
    d^2-sized matrix is formed or decomposed.

    Every point is certified a state by one stacked Cholesky factorization
    of rho_i + POSITIVITY_ATOL I, which exists exactly when lambda_min(rho_i)
    > -POSITIVITY_ATOL, up to rounding of order d eps ||rho_i||.  Only when
    it fails does the eigensolver run: one stacked ``eigvalsh`` names the
    first point with lambda_min < -POSITIVITY_ATOL (the verdict of
    ``positivity_conditions``), and that point is refused with the
    eigenvector of its least eigenvalue as the ``witness``.  A failed
    factorization with no such point, possible only within rounding of the
    bound, accepts.
    """
    pts = _bloch_points(points, d)
    n = pts.shape[1]
    rhos = _expansion(pts, d, 1.0 / d)
    try:
        algebra._cholesky(rhos + POSITIVITY_ATOL * np.eye(d))
    except np.linalg.LinAlgError:
        failing = np.flatnonzero(algebra._eigvalsh(rhos)[:, 0] < -POSITIVITY_ATOL)
        if failing.size:
            i = failing[0]
            witness = algebra._eigh(rhos[i])[1][:, 0]
            raise InvalidStateError(f"point {i} is not a valid state", witness=witness) from None
    b0 = pts[0]
    v = np.zeros((0, n))
    if len(pts) > 1:
        _, svals, vh = algebra._svd(pts[1:] - b0)
        v = vh[: int(np.sum(svals > RANK_RTOL * max(svals[0], 1e-30)))]
    r, piv = _pivoted_echelon(v)
    free = np.ones(n, dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)
    coupling = r[:, free]  # a[piv] = -coupling.T for the free unit vectors
    # the columns other than the units 1 + free: a0, then a[piv] by column
    rest = np.empty((free.size, 1 + piv.size))
    rest[:, 0] = -2.0 * (b0[free] - coupling.T @ b0[piv])
    rest[:, 1:] = -coupling.T[:, np.argsort(piv)]
    base = np.concatenate(([1.0], np.zeros(n)))
    coeff_set = AffineSet.echelon(base, 1 + free, rest)
    return ComaskDescription(kind="general", dimension=d, coefficient_set=coeff_set)


def universal_counterexample(b, b_prime, d: int) -> ObservableCoeffs:
    """Observable masked at b_prime but provably not at b.

    Takes a along the difference of the two Bloch vectors and fixes
    a0 = 1 - 2 a . b', so the masking equation a0/2 + a . b = 1/2 holds at
    b' and fails at b by exactly |b - b'|.
    """
    b_arr, bp_arr = _bloch_points((b, b_prime), d)
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
    CONSTRAINT_ATOL; raises ``ValueError`` for d < 2 or no observables,
    ``DimensionMismatchError`` naming the first observable whose row is not
    d^2 - 1 long, ``NotHermitianError`` for
    non-finite coefficients, ``NoAffineSolutionError`` when the linear
    system itself is inconsistent and ``InfeasibleError`` (carrying the
    final gap between the sets, or the constraint residual at an exact
    fixed point) when the iteration stalls or the cap is reached.

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
    gens = _real_generators(d)
    rhs = np.array([0.5 - c.a0 / 2 for c in obs_list])
    if not (np.isfinite(rows).all() and np.isfinite(rhs).all()):
        raise NotHermitianError("observable coefficients are not finite")
    pinv = _pinv(rows)
    b = pinv @ rhs
    if np.abs(rows @ b - rhs).max() > 1e-9:
        raise NoAffineSolutionError("masking equations are mutually inconsistent")

    gap = np.inf
    prev_gap = None
    for _ in range(SEARCH_MAX_ITER):
        vals, vecs = algebra._eigh(_expansion(b, d, 1.0 / d))
        clipped = np.maximum(vals, 0.0)
        # the iterate has unit trace, so its positive eigenvalues sum to >= 1
        rho_psd = (vecs * (clipped / float(clipped.sum()))) @ vecs.conj().T
        b_psd = _coordinates(rho_psd, gens)
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
