"""Maskability decisions, masker construction, masking verification, and
the observable no-hiding check."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import (
    _identity_deviation,
    dagger,
    eig_hermitian,
    max_norm,
    require_hermitian,
    tensor,
)
from .bloch import ObservableCoeffs, _coordinate_rows, generator_basis
from .channels import KrausChannel, UnitaryDilation, _spectral_rows, apply_adjoint, masker_dilation
from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotMaskableError,
    NotUnitVectorError,
    NumericalFailureError,
)

# Boundary band for the maskability criteria and the masking-declared
# threshold on adjoint residuals.
DECISION_ATOL = 1e-9
# Largest residual of the two no-hiding identities that counts as verified.
NOHIDING_ATOL = 1e-10


@dataclass(frozen=True)
class MaskabilityVerdict:
    """Outcome of a maskability decision.

    ``plane_distance`` is |1 - a0| / (2|a|), the distance of the masking
    plane from the Bloch-ball origin (absolute-value reading; undefined when
    a = 0).  ``eig_range`` is populated by the eigenvalue oracle.
    """

    maskable: bool
    method: str  # "bloch-criterion" | "oracle"
    plane_distance: float | None = None
    eig_range: tuple[float, float] | None = None


@dataclass(frozen=True)
class NoHidingReport:
    """Residuals of the two no-hiding identities for a masked observable."""

    swap_residual: float  # || U'^dag (O (x) I) U' - I (x) sigma3 ||_max
    recovery_residual: float  # || w^dag sigma3 w - O ||_max
    verified: bool


def _require_unit_vector(n) -> np.ndarray:
    arr = np.asarray(n, dtype=float).reshape(-1)
    if arr.shape != (3,):
        raise NotUnitVectorError(f"expected a real 3-vector, got shape {arr.shape}")
    norm = np.linalg.norm(arr)
    if not math.isfinite(norm) or abs(norm - 1.0) > DECISION_ATOL:
        raise NotUnitVectorError(f"|n| = {float(norm)!r} is not 1")
    return arr


def _ball_bound_holds(c: ObservableCoeffs, a_norm: float) -> bool:
    """|1 - a0| sqrt(d / (2(d-1))) <= |a| + DECISION_ATOL, the ball bound
    behind both the necessary condition and, at d = 2, the plane criterion.
    Refuses, through ``bloch``'s row check, a dimension below 2 and an ``a``
    that is not one row d^2 - 1 long, and then non-finite coefficients, on
    which every comparison is False."""
    d = c.dimension
    _coordinate_rows(c.a, d, stack=False)
    if not (math.isfinite(c.a0) and math.isfinite(a_norm)):
        raise NotHermitianError(
            f"observable coefficients are not finite: a0 = {c.a0!r}, |a| = {a_norm!r}"
        )
    return bool(abs(1.0 - c.a0) * math.sqrt(d / (2.0 * (d - 1))) <= a_norm + DECISION_ATOL)


def decide_maskable_qubit(c: ObservableCoeffs) -> MaskabilityVerdict:
    """Bloch-plane criterion for qubit observables: maskable iff |1 - a0| <= |a|.

    That is the ball bound of ``necessary_condition_d`` at d = 2, where it is
    also sufficient.  The degenerate direction a = 0 is maskable exactly
    when a0 = 1 (the expectation Tr(rho O) = a0 for every state).
    """
    if c.dimension != 2:
        raise DimensionMismatchError(f"qubit criterion needs d=2, got d={c.dimension}")
    a_norm = c.a_norm()
    maskable = _ball_bound_holds(c, a_norm)  # first: it refuses nan, a = 0 too
    if a_norm <= DECISION_ATOL:
        return MaskabilityVerdict(
            maskable=abs(c.a0 - 1.0) <= DECISION_ATOL, method="bloch-criterion"
        )
    return MaskabilityVerdict(
        maskable=maskable,
        method="bloch-criterion",
        plane_distance=abs(1.0 - c.a0) / (2.0 * a_norm),
    )


def decide_maskable_oracle(obs) -> MaskabilityVerdict:
    """Eigenvalue-range oracle, valid in every dimension.

    A constant channel onto sigma masks O exactly when Tr(sigma O) = 1, and
    Tr(sigma O) over all states sweeps [lambda_min, lambda_max]; so O is
    maskable iff that interval contains 1.  The verdict and range come from
    the ``eigh`` eigenvalues ``oracle_masker`` decides on, the same call on
    the same array, so the two verdicts agree.
    """
    arr = require_hermitian(obs)
    try:
        vals = algebra._eigh(arr)[0].tolist()
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc
    return _oracle_verdict(vals)


def _oracle_verdict(vals: list[float]) -> MaskabilityVerdict:
    """The oracle's verdict from the ascending eigenvalues of the
    observable; an empty (0 x 0) observable is refused."""
    if not vals:
        raise DimensionMismatchError("observable is 0 x 0")
    lo, hi = vals[0], vals[-1]
    return MaskabilityVerdict(
        maskable=(lo <= 1.0 + DECISION_ATOL) and (1.0 <= hi + DECISION_ATOL),
        method="oracle",
        eig_range=(lo, hi),
    )


def necessary_condition_d(c: ObservableCoeffs) -> bool:
    """Ball-constraint necessary condition |a| >= |1 - a0| sqrt(d / (2(d-1))).

    A masked state b solves a0/2 + a.b = 1/2 inside the ball of states,
    |b| <= sqrt((d-1) / (2d)).  Necessary in every dimension; also
    sufficient only at d = 2, where it reduces to the plane criterion.
    """
    return _ball_bound_holds(c, c.a_norm())


def build_constant_masker(obs) -> KrausChannel:
    """Constant channel whose adjoint maps the (maskable) observable to I.

    The target state mixes the normalized eigenprojectors of lambda_max and
    lambda_min with weight p = (1 - lambda_min) / (lambda_max - lambda_min),
    so Tr(sigma0 O) = 1; p is clipped to [0, 1], so an observable maskable
    only within DECISION_ATOL gets the projector of the extreme nearest 1.
    Degenerate extremes use the normalized projector onto the whole
    eigenspace, so the channel does not depend on the eigensolver's basis
    choice (O = I yields the maximally mixed state).  The Kraus operators
    sqrt(w_j) |v_j><k| use O's own eigenvectors v_j from its one ``eigh``;
    the target state is never formed or decomposed.
    """
    verdict, channel = oracle_masker(obs)
    if channel is None:
        raise NotMaskableError(
            f"1 is outside the eigenvalue range {verdict.eig_range}"
        )
    return channel


def oracle_masker(obs) -> tuple[MaskabilityVerdict, KrausChannel | None]:
    """The oracle's verdict and, when maskable, the constant masker of
    ``build_constant_masker``, both from one eigendecomposition of O.

    The target's spectral decomposition is read off O's: weight p / m_max
    on each eigenvector within DECISION_ATOL of lambda_max and
    (1 - p) / m_min on each within DECISION_ATOL of lambda_min (the two add
    where the sets overlap), or 1/d on all when the spectrum is flat.  The
    rows sqrt(w_j) v_j of the weights from 1e-12 up, in descending weight
    (ties in reverse O order), are the masker's amplitudes on every input.
    """
    eig = eig_hermitian(obs)
    vals = eig.eigenvalues.tolist()
    verdict = _oracle_verdict(vals)
    if not verdict.maskable:
        return verdict, None
    # halved, so no difference of two eigenvalues overflows; halving is exact
    # above the subnormal range, so p and both bands are those of the values
    half = [x * 0.5 for x in vals]
    lo, hi = half[0], half[-1]
    d = len(half)
    if hi - lo <= DECISION_ATOL / 2:
        weights = [1.0 / d] * d
    else:
        p = min(max((0.5 - lo) / (hi - lo), 0.0), 1.0)
        top = [abs(x - hi) <= DECISION_ATOL / 2 for x in half]
        bottom = [abs(x - lo) <= DECISION_ATOL / 2 for x in half]
        w_top, w_bottom = p / sum(top), (1.0 - p) / sum(bottom)
        weights = [t * w_top + b * w_bottom for t, b in zip(top, bottom)]
    rows = _spectral_rows(np.array(weights), eig.eigenvectors)
    return verdict, KrausChannel.rank_one(rows, np.ones((len(rows), d)))


def rotation_unitary(n) -> np.ndarray:
    """2x2 unitary w with w^dag sigma3 w = n.sigma for a unit 3-vector n.

    Built from the spherical angles of n as
    w = exp(i theta sigma2 / 2) exp(i phi sigma3 / 2); n = z gives w = I.
    """
    return _rotation(_require_unit_vector(n))


def _rotation(arr: np.ndarray) -> np.ndarray:
    """``rotation_unitary`` of an already validated unit 3-vector."""
    theta = np.arccos(np.clip(arr[2], -1.0, 1.0))
    phi = np.arctan2(arr[1], arr[0])
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ep, em = np.exp(1j * phi / 2.0), np.exp(-1j * phi / 2.0)
    return np.array([[c * ep, s * em], [-s * ep, c * em]])


def build_masker_swap(n, u0=None, u1=None) -> tuple[KrausChannel, UnitaryDilation]:
    """Masker for the spin observable n.sigma and its unitary dilation.

    Kraus operators are E'_i = w^dag |0><i| and the dilation is
    U' = (w^dag (x) I) U with U the swap-type unitary (u0 = u1 = I by
    default; other environment unitaries realize the same channel).
    """
    w = rotation_unitary(n)
    channel = KrausChannel.rank_one(dagger(w)[None, :, 0], [[1, 1]])
    return channel, _swap_dilation(w, u0, u1)


def _swap_dilation(w: np.ndarray, u0, u1) -> UnitaryDilation:
    """U' = (w^dag (x) I) U of ``build_masker_swap``; u0, u1 are validated
    once, in ``masker_dilation``, and U' once, as a ``UnitaryDilation``.
    The default pair's U, the swap, is built once and shared."""
    base = _swap() if u0 is None and u1 is None else masker_dilation(
        np.eye(2) if u0 is None else u0, np.eye(2) if u1 is None else u1
    )
    unitary = tensor(dagger(w), np.eye(2)) @ base.unitary
    return UnitaryDilation(system_dim=2, env_dim=2, unitary=unitary)


@functools.cache
def _swap() -> UnitaryDilation:
    """``masker_dilation(I, I)``, built on first use, its unitary read-only."""
    swap = masker_dilation(np.eye(2), np.eye(2))
    swap.unitary.setflags(write=False)
    return swap


def verify_masking(channel: KrausChannel, obs) -> float:
    """Max-norm residual || E*(O) - I ||; masking holds below DECISION_ATOL."""
    return _identity_deviation(apply_adjoint(channel, obs))


def verify_nohiding(n, u0=None, u1=None) -> NoHidingReport:
    """Check that masking n.sigma swaps it intact onto the environment.

    Verifies U'^dag (n.sigma (x) I) U' = I (x) sigma3 and that the local
    unitary w recovers the observable from the environment side.
    """
    arr = _require_unit_vector(n)
    w = _rotation(arr)
    up = _swap_dilation(w, u0, u1).unitary
    pauli = generator_basis(2).matrices
    obs = np.einsum("i,iab->ab", arr, pauli)
    sigma3 = pauli[2]
    conj = dagger(up) @ tensor(obs, np.eye(2)) @ up
    swap_residual = max_norm(conj - tensor(np.eye(2), sigma3))
    recovery_residual = max_norm(dagger(w) @ sigma3 @ w - obs)
    return NoHidingReport(
        swap_residual=float(swap_residual),
        recovery_residual=float(recovery_residual),
        verified=bool(swap_residual < NOHIDING_ATOL and recovery_residual < NOHIDING_ATOL),
    )

