"""Kraus-channel algebra: forward and adjoint action, constant channels,
isometric extension, and the swap-type masker dilation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import HermitianEig, _identity_deviation, dagger, eig_hermitian
from .errors import (
    DimensionMismatchError,
    InvalidChannelError,
    InvalidStateError,
    NotUnitaryError,
)

# Slack allowed in trace preservation, unitarity and density matrices at
# construction; invalid channels are refused, never renormalized.
CHANNEL_ATOL = 1e-9


def require_unitary(u) -> np.ndarray:
    """Validate unitarity within CHANNEL_ATOL (max-norm) and return the matrix."""
    arr = np.asarray(u, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotUnitaryError(f"matrix of shape {arr.shape} cannot be unitary")
    if not np.isfinite(arr).all():
        raise NotUnitaryError("matrix contains non-finite entries")
    dev = _identity_deviation(dagger(arr) @ arr)
    if dev > CHANNEL_ATOL:
        raise NotUnitaryError(f"max |U^dag U - I| = {dev:.3e} exceeds {CHANNEL_ATOL:.1e}")
    return arr


def require_density(rho) -> HermitianEig:
    """Validate a density matrix (Hermitian, unit trace, positive within
    CHANNEL_ATOL) from one eigendecomposition, and return it.  A negative
    spectrum is refused with the least eigenvalue's eigenvector as the
    error's ``witness``."""
    try:
        eig = eig_hermitian(rho)
    except ValueError as exc:
        raise InvalidStateError(str(exc)) from exc
    tr = np.sum(eig.eigenvalues)
    if abs(tr - 1.0) > CHANNEL_ATOL:
        raise InvalidStateError(f"trace is {float(tr)!r}, not 1")
    min_eig = float(eig.eigenvalues[0])
    if min_eig < -CHANNEL_ATOL:
        raise InvalidStateError(
            f"negative eigenvalue {min_eig:.3e}", witness=eig.eigenvectors[:, 0]
        )
    return eig


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A CPTP map held as an ordered, trace-preserving Kraus family.

    ``kraus`` is one read-only complex array of shape (n, output_dim,
    input_dim) with E_i = kraus[i], copied once at construction.  Its memory
    is laid out as the isometric extension (row a * n + i of V is row a of
    E_i), so ``isometric_extension`` is a view and the forward and adjoint
    actions are two matrix products each.

    Kraus ordering is preserved as given (golden tests depend on it);
    the channel's action must not.
    """

    input_dim: int
    output_dim: int
    kraus: np.ndarray

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise InvalidChannelError("empty Kraus family")
        expected = (self.output_dim, self.input_dim)
        try:
            ops = np.asarray(self.kraus, dtype=complex)
            shape = ops.shape[1:]
        except ValueError:  # a ragged family: name its first misfit
            shape = next(filter(expected.__ne__, map(np.shape, self.kraus)))
        if shape != expected:
            raise InvalidChannelError(
                f"Kraus operator shape {shape} != "
                f"({self.output_dim}, {self.input_dim})"
            )
        if not np.isfinite(ops).all():
            raise InvalidChannelError("Kraus family contains non-finite entries")
        kraus = ops.transpose(1, 0, 2).copy().transpose(1, 0, 2)
        kraus.setflags(write=False)
        object.__setattr__(self, "kraus", kraus)
        v = isometric_extension(self)
        dev = _identity_deviation(dagger(v) @ v)
        if dev > CHANNEL_ATOL:
            raise InvalidChannelError(
                f"sum E^dag E deviates from identity by {dev:.3e}"
            )


@dataclass(frozen=True, eq=False)
class UnitaryDilation:
    """A unitary on system (x) environment realizing a channel with the
    environment starting in |0>."""

    system_dim: int
    env_dim: int
    unitary: np.ndarray

    def __post_init__(self):
        require_unitary(self.unitary)
        dim = self.system_dim * self.env_dim
        if self.unitary.shape != (dim, dim):
            raise DimensionMismatchError(
                f"unitary shape {self.unitary.shape} != ({dim}, {dim})"
            )


def apply_forward(channel: KrausChannel, rho) -> np.ndarray:
    """Schroedinger action sum_i E_i rho E_i^dag."""
    arr = np.asarray(rho, dtype=complex)
    if arr.shape != (channel.input_dim, channel.input_dim):
        raise DimensionMismatchError(
            f"state shape {arr.shape} != ({channel.input_dim}, {channel.input_dim})"
        )
    v = isometric_extension(channel)
    # row a of ``rows`` is row a of every E_i; (V rho) regrouped the same way
    # holds (E_i rho)[a, :], so one product sums over i and the columns
    rows = v.reshape(channel.output_dim, -1)
    return (v @ arr).reshape(rows.shape) @ dagger(rows)


def apply_adjoint(channel: KrausChannel, obs) -> np.ndarray:
    """Heisenberg action sum_i E_i^dag O E_i (unital by trace preservation).

    ``obs`` may be a stack of shape (..., out, out); each matrix of the
    stack goes through the same two products as a single one.
    """
    arr = np.asarray(obs, dtype=complex)
    if arr.shape[-2:] != (channel.output_dim, channel.output_dim):
        raise DimensionMismatchError(
            f"observable shape {arr.shape} != "
            f"(..., {channel.output_dim}, {channel.output_dim})"
        )
    v = isometric_extension(channel)
    # O applied to the regrouped rows gives O E_i stacked like V, so
    # V^dag of it sums E_i^dag O E_i
    rows = v.reshape(channel.output_dim, -1)
    return dagger(v) @ (arr @ rows).reshape(arr.shape[:-2] + v.shape)


def spectral_kraus(eig: HermitianEig, input_dim: int, columns) -> np.ndarray:
    """Stack of operators sqrt(p_j) |e_j><k| over the nonzero spectral terms
    of a state's decomposition ``eig`` (weights ascending, as
    ``require_density`` gives them; the stack runs in descending weight),
    then the input indices k in ``columns``."""
    terms = np.flatnonzero(eig.eigenvalues >= 1e-12)[::-1]
    amplitudes = np.sqrt(eig.eigenvalues[terms]) * eig.eigenvectors[:, terms]
    d = len(eig.eigenvalues)
    ops = np.zeros((len(terms), len(columns), d, input_dim), dtype=complex)
    # assigned, not multiplied by unit vectors, so zero entries stay +0.0
    ops[:, np.arange(len(columns)), :, columns] = amplitudes.T
    return ops.reshape(-1, d, input_dim)


def constant_channel(sigma0, input_dim: int) -> KrausChannel:
    """Channel mapping every input state to ``sigma0``.

    Kraus family sqrt(p_j) |e_j><k| over the nonzero spectral terms of
    sigma0 (descending weight) and k = 0..input_dim-1.
    """
    eig = require_density(sigma0)
    ops = spectral_kraus(eig, input_dim, range(input_dim))
    return KrausChannel(input_dim=input_dim, output_dim=len(eig.eigenvalues), kraus=ops)


def isometric_extension(channel: KrausChannel) -> np.ndarray:
    """Isometry V = sum_i E_i (x) |i>_E with one environment level per Kraus
    op; a read-only view of the channel's Kraus stack."""
    # row a * n + i of V is row a of E_i
    return channel.kraus.transpose(1, 0, 2).reshape(-1, channel.input_dim)


def masker_dilation(u0, u1) -> UnitaryDilation:
    """The two-qubit unitary U = sum_ij |j><i| (x) u_j |i><j|.

    Acts as U(|m>_A (x) |n>_E) = |n>_A (x) u_n |m>_E; with u0 = u1 = I this
    is the swap gate.
    """
    us = [require_unitary(u0), require_unitary(u1)]
    for u in us:
        if u.shape != (2, 2):
            raise DimensionMismatchError(f"expected 2x2 unitaries, got {u.shape}")
    # U[(j, m), (i, k)] = u_j[m, i] when k = j, else 0
    u = np.zeros((2, 2, 2, 2), dtype=complex)
    u[0, :, :, 0], u[1, :, :, 1] = us
    return UnitaryDilation(system_dim=2, env_dim=2, unitary=u.reshape(4, 4))
