"""Comaskable observable sets: qubit point/line/planar cases, the general-d
affine decomposition, universal-masker counterexamples, and a common-output-
state feasibility search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import dagger
from .bloch import BlochVector, ObservableCoeffs, bloch_to_state, positivity_conditions, state_to_bloch
from .errors import (
    DegenerateLineError,
    DegenerateSpanError,
    DegenerateStateError,
    DimensionMismatchError,
    IdenticalPointsError,
    InconsistentConstraintsError,
    InfeasibleError,
    InvalidStateError,
    NoAffineSolutionError,
)

# Singular values below this fraction of the largest are treated as zero in
# rank decisions.
RANK_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class AffineSet:
    """Base point plus a linearly independent direction family (rows)."""

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
        if dirs.shape[0]:
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

    def contains(self, point, tol: float = 1e-9) -> bool:
        """Whether ``point`` lies in the set within max-norm ``tol``."""
        v = np.asarray(point, dtype=float).reshape(-1) - self.base_point
        if self.affine_dim:
            q = np.linalg.qr(self.directions.T)[0]
            v = v - q @ (q.T @ v)
        return bool(np.max(np.abs(v), initial=0.0) <= tol)

    def slice_coordinate(self, index: int, value: float) -> "AffineSet":
        """Intersect with the hyperplane {x[index] = value}.

        The coordinate is pinned: every sample of the slice has x[index]
        exactly equal to ``value``.
        """
        col = self.directions[:, index]
        offset = value - self.base_point[index]
        if np.max(np.abs(col), initial=0.0) > 1e-12:
            w0 = offset * col / np.dot(col, col)
            base = self.base_point + w0 @ self.directions
            # weight combinations keeping the coordinate fixed: null space of col
            dirs = np.linalg.svd(col.reshape(1, -1))[2][1:] @ self.directions
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
    as the leading coordinate.  The qubit point/line/planar cases hold the
    a0 = 0 slice of the general set, so their elements have a0 exactly 0.
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


def _traceless_slice(general: ComaskDescription, kind: str, miss: Exception):
    """The a0 = 0 slice of a qubit ``comask_general`` result; raises ``miss``
    when the set holds no traceless observable."""
    try:
        coeff_set = general.coefficient_set.slice_coordinate(0, 0.0)
    except ValueError as exc:
        raise miss from exc
    return ComaskDescription(kind=kind, dimension=2, coefficient_set=coeff_set)


def comask_from_point(b) -> ComaskDescription:
    """Plane {a : a . b = 1/2} of traceless qubit observables masked onto the
    state b: the a0 = 0 slice of ``comask_general([b], 2)``, based at
    b / (2|b|^2).  Refused for the maximally mixed state."""
    general = comask_general([b], 2)
    degenerate = DegenerateStateError("maximally mixed output: a . 0 = 1/2 has no solution")
    if np.linalg.norm(np.asarray(b, dtype=float)) < 1e-9:
        raise degenerate
    return _traceless_slice(general, "plane", degenerate)


def comask_from_line(p, q) -> ComaskDescription:
    """Line of traceless qubit observables masked onto the segment [p, q]:
    the a0 = 0 slice of ``comask_general([p, q], 2)``.

    The free direction is the normal of the plane spanned by the position
    vectors of the segment; refused when p, q and the origin are collinear
    (no unique normal).
    """
    general = comask_general([p, q], 2)
    p_arr, q_arr = (np.asarray(v, dtype=float).reshape(-1) for v in (p, q))
    if np.linalg.norm(p_arr - q_arr) < 1e-9:
        raise IdenticalPointsError("segment endpoints coincide")
    collinear = DegenerateLineError("segment is collinear with the origin; normal not unique")
    norm = np.linalg.norm(np.cross(p_arr, q_arr))
    if norm < 1e-9 * max(np.linalg.norm(p_arr) * np.linalg.norm(q_arr), 1e-30):
        raise collinear
    return _traceless_slice(general, "line", collinear)


def comask_from_planar(points) -> ComaskDescription:
    """Singleton observable masked onto a genuinely 2-dimensional output set:
    the a0 = 0 slice of ``comask_general(points, 2)``.

    Refused when the points span affine dimension below 2; inconsistent
    when no plane a . b = 1/2 holds them all.
    """
    pts = list(points)
    general = comask_general(pts, 2) if pts else None
    rank = 3 - general.affine_dim if general else -1  # the empty set has dimension -1
    if rank < 2:
        raise DegenerateSpanError(f"points span affine dimension {rank} < 2; not a planar set")
    inconsistent = InconsistentConstraintsError("points do not lie on one masking plane")
    return _traceless_slice(general, "singleton", inconsistent)


def comask_general(points, d: int) -> ComaskDescription:
    """All observables (a0, a) masked onto a given set of output states.

    Tr(rho O) = a0 + 2 a.b, so O masks the state b (Tr(rho O) = 1) exactly
    when a0/2 + a.b = 1/2.  Decomposes the affine hull of the points
    (dimension k) into a direction space V and the orthogonal offset m;
    members satisfy a ⊥ V and a0 = 1 - 2 a.m.  The result has affine
    dimension d^2 - k - 1 and is never empty.
    """
    n = d * d - 1
    arrs = []
    for i, pt in enumerate(points):
        vec = np.asarray(pt, dtype=float).reshape(-1)
        if vec.shape != (n,):
            raise DimensionMismatchError(f"point {i} has length {vec.shape[0]}, expected {n}")
        _, positive = positivity_conditions(BlochVector(d, vec))
        if not positive:
            raise InvalidStateError(f"point {i} is not a valid state")
        arrs.append(vec)
    if not arrs:
        raise ValueError("need at least one output state")
    b0 = arrs[0]
    if len(arrs) > 1:
        _, svals, vh = np.linalg.svd(np.stack(arrs[1:]) - b0, full_matrices=True)
        k = int(np.sum(svals > RANK_RTOL * max(svals[0], 1e-30)))
    else:
        vh, k = np.eye(n), 0
    v_basis, w_basis = vh[:k], vh[k:]
    m = b0 - v_basis.T @ (v_basis @ b0)
    dirs = np.column_stack([-2.0 * (w_basis @ m), w_basis])
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
    gap = np.linalg.norm(b_arr - bp_arr)
    if gap < 1e-9:
        raise IdenticalPointsError("the two output states coincide")
    a = (b_arr - bp_arr) / gap
    a0 = 1.0 - 2.0 * float(np.dot(a, bp_arr))
    return ObservableCoeffs(dimension=d, a0=a0, a=a)


def find_common_output_state(
    observables,
    d: int,
    max_iter: int = 10_000,
    constraint_tol: float = 1e-7,
    stall_tol: float = 1e-9,
    infeasible_gap: float = 1e-6,
) -> np.ndarray:
    """Search for one state masking every observable in the list.

    Alternates projections between the affine set of Bloch vectors solving
    all masking equations a0/2 + a.b = 1/2 and the positive unit-trace
    matrices (projected by eigenvalue clipping and trace renormalization).
    Returns a density matrix meeting every constraint within
    ``constraint_tol``; raises ``NoAffineSolutionError`` when the linear
    system itself is inconsistent and ``InfeasibleError`` (carrying the
    final gap between the sets) when the iteration stalls or the cap is
    reached.
    """
    obs_list = list(observables)
    if not obs_list:
        raise ValueError("need at least one observable")
    n = d * d - 1
    for c in obs_list:
        if c.dimension != d:
            raise DimensionMismatchError(
                f"observable dimension {c.dimension} != {d}"
            )
    rows = np.stack([np.asarray(c.a, dtype=float) for c in obs_list])
    rhs = np.array([0.5 - c.a0 / 2 for c in obs_list])
    pinv = np.linalg.pinv(rows, rcond=RANK_RTOL)
    b = pinv @ rhs
    if np.max(np.abs(rows @ b - rhs)) > 1e-9:
        raise NoAffineSolutionError("masking equations are mutually inconsistent")

    gap = np.inf
    prev_gap = None
    for _ in range(max_iter):
        rho = bloch_to_state(BlochVector(d, b))
        vals, vecs = np.linalg.eigh(rho)
        clipped = np.clip(vals, 0.0, None)
        total = float(np.sum(clipped))
        if total < 1e-12:
            rho_psd = np.eye(d, dtype=complex) / d
        else:
            rho_psd = (vecs * (clipped / total)) @ dagger(vecs)
        b_psd = state_to_bloch(rho_psd).b
        if np.max(np.abs(rows @ b_psd - rhs)) < constraint_tol:
            return rho_psd
        b_next = b_psd - pinv @ (rows @ b_psd - rhs)
        gap = float(np.linalg.norm(b_next - b_psd))
        if prev_gap is not None and abs(gap - prev_gap) < stall_tol and gap > infeasible_gap:
            raise InfeasibleError(
                f"projections stalled at set distance {gap:.3e}", residual=gap
            )
        prev_gap = gap
        b = b_next
    raise InfeasibleError(
        f"no common state after {max_iter} iterations (gap {gap:.3e})", residual=gap
    )
