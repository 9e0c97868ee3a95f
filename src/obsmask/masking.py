"""Maskability decisions, masker construction, masking verification, the
output-state disk geometry, and the observable no-hiding check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import dagger, eig_hermitian, max_norm, plane_frame, tensor
from .bloch import ObservableCoeffs, generator_basis
from .channels import (
    KrausChannel,
    UnitaryDilation,
    apply_adjoint,
    constant_channel,
    masker_dilation,
    require_unitary,
)
from .errors import (
    DimensionMismatchError,
    EmptyDiskError,
    NotMaskableError,
    NotUnitVectorError,
)

# Boundary band for the maskability criteria and the masking-declared
# threshold on adjoint residuals.
DECISION_ATOL = 1e-9


@dataclass(frozen=True)
class MaskabilityVerdict:
    """Outcome of a maskability decision.

    ``plane_distance`` is |1 - a0| / (2|a|), the distance of the masking
    plane from the Bloch-ball origin (absolute-value reading; undefined when
    a = 0).  ``eig_range`` is populated by the eigenvalue oracle.
    """

    maskable: bool
    method: str  # "bloch-criterion" | "necessary-only" | "oracle"
    plane_distance: float | None = None
    eig_range: tuple[float, float] | None = None


@dataclass(frozen=True, eq=False)
class OutputDisk:
    """The disk of valid output Bloch vectors masking a qubit observable.

    The disk is the slice of the Bloch ball by the plane a.b = 1/2; its rim
    lies on the Bloch sphere (radius^2 + |center|^2 = 1/4).
    """

    center: np.ndarray
    radius: float
    normal: np.ndarray

    def point(self, radial_fraction: float, angle: float) -> np.ndarray:
        """A point of the disk at fraction in [0, 1] of the radius."""
        e1, e2 = plane_frame(self.normal)
        offset = self.radius * radial_fraction * (np.cos(angle) * e1 + np.sin(angle) * e2)
        return self.center + offset


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
    if abs(norm - 1.0) > DECISION_ATOL:
        raise NotUnitVectorError(f"|n| = {norm!r} is not 1")
    return arr


def decide_maskable_qubit(c: ObservableCoeffs, tol: float = DECISION_ATOL) -> MaskabilityVerdict:
    """Bloch-plane criterion for qubit observables: maskable iff |1 - a0| <= |a|.

    The degenerate direction a = 0 is maskable exactly when a0 = 1 (the
    expectation Tr(rho O) = a0 for every state).
    """
    if c.dimension != 2:
        raise DimensionMismatchError(f"qubit criterion needs d=2, got d={c.dimension}")
    a_norm = c.a_norm()
    if a_norm <= tol:
        return MaskabilityVerdict(
            maskable=abs(c.a0 - 1.0) <= tol, method="bloch-criterion"
        )
    distance = abs(1.0 - c.a0) / (2.0 * a_norm)
    return MaskabilityVerdict(
        maskable=abs(1.0 - c.a0) <= a_norm + tol,
        method="bloch-criterion",
        plane_distance=distance,
    )


def decide_maskable_oracle(obs, tol: float = DECISION_ATOL) -> MaskabilityVerdict:
    """Eigenvalue-range oracle, valid in every dimension.

    A constant channel onto sigma masks O exactly when Tr(sigma O) = 1, and
    Tr(sigma O) over all states sweeps [lambda_min, lambda_max]; so O is
    maskable iff that interval contains 1.
    """
    return _oracle_verdict(eig_hermitian(obs).eigenvalues, tol)


def _oracle_verdict(eigenvalues: np.ndarray, tol: float) -> MaskabilityVerdict:
    """The oracle's verdict from the ascending eigenvalues of the observable."""
    lo = float(eigenvalues[0])
    hi = float(eigenvalues[-1])
    return MaskabilityVerdict(
        maskable=(lo <= 1.0 + tol) and (1.0 <= hi + tol),
        method="oracle",
        eig_range=(lo, hi),
    )


def necessary_condition_d(c: ObservableCoeffs, tol: float = DECISION_ATOL) -> bool:
    """Ball-constraint necessary condition |a| >= |1 - a0| sqrt(d / (2(d-1))).

    A masked state b solves a0/2 + a.b = 1/2 inside the ball of states,
    |b| <= sqrt((d-1) / (2d)).  Necessary in every dimension; also
    sufficient only at d = 2, where it reduces to the plane criterion.
    """
    d = c.dimension
    threshold = abs(1.0 - c.a0) * np.sqrt(d / (2.0 * (d - 1)))
    return c.a_norm() >= threshold - tol


def build_constant_masker(obs, tol: float = DECISION_ATOL) -> KrausChannel:
    """Constant channel whose adjoint maps the (maskable) observable to I.

    The target state mixes the normalized eigenprojectors of lambda_max and
    lambda_min with weight p = (1 - lambda_min) / (lambda_max - lambda_min),
    so Tr(sigma0 O) = 1.  Degenerate extremes use the normalized projector
    onto the whole eigenspace, which keeps the construction independent of
    the eigensolver's basis choice (O = I yields the maximally mixed state).
    """
    verdict, channel = oracle_masker(obs, tol)
    if channel is None:
        raise NotMaskableError(
            f"1 is outside the eigenvalue range {verdict.eig_range}"
        )
    return channel


def oracle_masker(obs, tol: float) -> tuple[MaskabilityVerdict, KrausChannel | None]:
    """The oracle's verdict and, when maskable, the constant masker of
    ``build_constant_masker``, both from one eigendecomposition."""
    eig = eig_hermitian(obs)
    vals, vecs = eig.eigenvalues, eig.eigenvectors
    verdict = _oracle_verdict(vals, tol)
    if not verdict.maskable:
        return verdict, None
    lo, hi = vals[0], vals[-1]

    def eigenspace_state(target):
        sel = np.abs(vals - target) <= tol
        cols = vecs[:, sel]
        return (cols @ dagger(cols)) / int(np.sum(sel))

    if hi - lo <= tol:
        sigma0 = eigenspace_state(hi)
    else:
        p = (1.0 - lo) / (hi - lo)
        sigma0 = p * eigenspace_state(hi) + (1.0 - p) * eigenspace_state(lo)
    return verdict, constant_channel(sigma0, vecs.shape[0])


def rotation_unitary(n) -> np.ndarray:
    """2x2 unitary w with w^dag sigma3 w = n.sigma for a unit 3-vector n.

    Built from the spherical angles of n as
    w = exp(i theta sigma2 / 2) exp(i phi sigma3 / 2); n = z gives w = I.
    """
    arr = _require_unit_vector(n)
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
    arr = _require_unit_vector(n)
    w = rotation_unitary(arr)
    wd = dagger(w)
    kraus = np.einsum("a,ib->iab", wd[:, 0], np.eye(2))
    channel = KrausChannel(input_dim=2, output_dim=2, kraus=kraus)
    base = masker_dilation(
        np.eye(2) if u0 is None else u0, np.eye(2) if u1 is None else u1
    )
    unitary = tensor(wd, np.eye(2)) @ base.unitary
    return channel, UnitaryDilation(system_dim=2, env_dim=2, unitary=unitary)


def verify_masking(channel: KrausChannel, obs) -> float:
    """Max-norm residual || E*(O) - I ||; masking holds below 1e-9."""
    out = apply_adjoint(channel, obs)
    return max_norm(out - np.eye(channel.input_dim))


def verify_nohiding(n, u0=None, u1=None, tol: float = 1e-10) -> NoHidingReport:
    """Check that masking n.sigma swaps it intact onto the environment.

    Verifies U'^dag (n.sigma (x) I) U' = I (x) sigma3 and that the local
    unitary w recovers the observable from the environment side.
    """
    arr = _require_unit_vector(n)
    u0 = np.eye(2) if u0 is None else require_unitary(u0)
    u1 = np.eye(2) if u1 is None else require_unitary(u1)
    _, dilation = build_masker_swap(arr, u0, u1)
    pauli = generator_basis(2).matrices
    obs = np.einsum("i,iab->ab", arr, pauli)
    sigma3 = pauli[2]
    up = dilation.unitary
    conj = dagger(up) @ tensor(obs, np.eye(2)) @ up
    swap_residual = max_norm(conj - tensor(np.eye(2), sigma3))
    w = rotation_unitary(arr)
    recovery_residual = max_norm(dagger(w) @ sigma3 @ w - obs)
    return NoHidingReport(
        swap_residual=float(swap_residual),
        recovery_residual=float(recovery_residual),
        verified=bool(swap_residual < tol and recovery_residual < tol),
    )


def output_disk(a) -> OutputDisk:
    """Disk of Bloch vectors b with a.b = 1/2 inside the ball |b| <= 1/2.

    Defined for traceless qubit observables (a0 = 0); empty when |a| < 1
    because the plane then misses the ball.
    """
    arr = np.asarray(a, dtype=float).reshape(-1)
    if arr.shape != (3,):
        raise DimensionMismatchError(f"expected a real 3-vector, got shape {arr.shape}")
    a_norm = float(np.linalg.norm(arr))
    if a_norm < 1.0 - DECISION_ATOL:
        raise EmptyDiskError(f"|a| = {a_norm!r} < 1: plane misses the Bloch ball")
    a_norm = max(a_norm, 1.0)
    normal = arr / a_norm
    center = normal / (2.0 * a_norm)
    radius = 0.5 * np.sqrt(max(0.0, 1.0 - 1.0 / a_norm**2))
    return OutputDisk(center=center, radius=float(radius), normal=normal)
