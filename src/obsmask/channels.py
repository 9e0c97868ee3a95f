"""Kraus-channel algebra: forward and adjoint action, constant channels,
isometric extension, and unitary dilations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    dagger,
    eig_hermitian,
    max_norm,
    partial_trace,
    require_hermitian,
    tensor,
    unitary_completion,
)
from .errors import (
    DimensionMismatchError,
    InvalidChannelError,
    InvalidStateError,
    NotUnitaryError,
)

# Trace-preservation slack allowed at construction; invalid channels are
# refused, never renormalized.
CHANNEL_ATOL = 1e-9


def require_unitary(u, tol: float = CHANNEL_ATOL) -> np.ndarray:
    """Validate unitarity within ``tol`` (max-norm) and return the matrix."""
    arr = np.asarray(u, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotUnitaryError(f"matrix of shape {arr.shape} cannot be unitary")
    dev = max_norm(dagger(arr) @ arr - np.eye(arr.shape[0]))
    if dev > tol:
        raise NotUnitaryError(f"max |U^dag U - I| = {dev:.3e} exceeds {tol:.1e}")
    return arr


def require_density(rho, tol: float = CHANNEL_ATOL) -> np.ndarray:
    """Validate a density matrix (Hermitian, unit trace, positive within tol)."""
    try:
        arr = require_hermitian(rho)
    except ValueError as exc:
        raise InvalidStateError(str(exc)) from exc
    tr = np.trace(arr).real
    if abs(tr - 1.0) > tol:
        raise InvalidStateError(f"trace is {tr!r}, not 1")
    min_eig = float(np.linalg.eigvalsh(arr)[0])
    if min_eig < -tol:
        raise InvalidStateError(f"negative eigenvalue {min_eig:.3e}")
    return arr


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map held as an ordered, trace-preserving Kraus family.

    Kraus ordering is preserved as given (golden tests depend on it);
    the channel's action must not.
    """

    input_dim: int
    output_dim: int
    kraus: tuple = field(default_factory=tuple)

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise InvalidChannelError("empty Kraus family")
        for k in ops:
            if k.shape != (self.output_dim, self.input_dim):
                raise InvalidChannelError(
                    f"Kraus operator shape {k.shape} != "
                    f"({self.output_dim}, {self.input_dim})"
                )
        total = sum(dagger(k) @ k for k in ops)
        dev = max_norm(total - np.eye(self.input_dim))
        if dev > CHANNEL_ATOL:
            raise InvalidChannelError(
                f"sum E^dag E deviates from identity by {dev:.3e}"
            )
        object.__setattr__(self, "kraus", ops)


@dataclass(frozen=True)
class UnitaryDilation:
    """A unitary on system (x) environment realizing a channel with the
    environment starting in ``env_init`` (default |0>)."""

    system_dim: int
    env_dim: int
    unitary: np.ndarray
    env_init: np.ndarray

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
    return sum(k @ arr @ dagger(k) for k in channel.kraus)


def apply_adjoint(channel: KrausChannel, obs) -> np.ndarray:
    """Heisenberg action sum_i E_i^dag O E_i (unital by trace preservation)."""
    arr = np.asarray(obs, dtype=complex)
    if arr.shape != (channel.output_dim, channel.output_dim):
        raise DimensionMismatchError(
            f"observable shape {arr.shape} != "
            f"({channel.output_dim}, {channel.output_dim})"
        )
    return sum(dagger(k) @ arr @ k for k in channel.kraus)


def spectral_kraus(state, input_dim: int, columns) -> list[np.ndarray]:
    """Operators sqrt(p_j) |e_j><k| over the nonzero spectral terms of a
    validated ``state`` (descending weight), then the input indices k in
    ``columns``."""
    eig = eig_hermitian(state)
    ops = []
    for j in range(len(eig.eigenvalues) - 1, -1, -1):
        p = eig.eigenvalues[j]
        if p < 1e-12:
            continue
        for k in columns:
            op = np.zeros((len(eig.eigenvalues), input_dim), dtype=complex)
            op[:, k] = np.sqrt(p) * eig.eigenvectors[:, j]
            ops.append(op)
    return ops


def constant_channel(sigma0, input_dim: int) -> KrausChannel:
    """Channel mapping every input state to ``sigma0``.

    Kraus family sqrt(p_j) |e_j><k| over the nonzero spectral terms of
    sigma0 (descending weight) and k = 0..input_dim-1.
    """
    arr = require_density(sigma0)
    ops = spectral_kraus(arr, input_dim, range(input_dim))
    return KrausChannel(input_dim=input_dim, output_dim=arr.shape[0], kraus=tuple(ops))


def isometric_extension(channel: KrausChannel) -> np.ndarray:
    """Isometry V = sum_i E_i (x) |i>_E with one environment level per Kraus op."""
    # row a * n + i of V is row a of E_i
    return np.stack(channel.kraus, axis=1).reshape(-1, channel.input_dim)


def dilation_from_channel(channel: KrausChannel) -> UnitaryDilation:
    """Embed a channel's isometric extension into a unitary on system+env.

    Requires a square channel.  The unitary sends |j>_A (x) |0>_E to V|j>
    and is completed deterministically elsewhere.
    """
    if channel.input_dim != channel.output_dim:
        raise DimensionMismatchError("dilation requires input_dim == output_dim")
    d = channel.input_dim
    n_env = len(channel.kraus)
    v = isometric_extension(channel)
    dim = d * n_env
    env0 = np.zeros(n_env, dtype=complex)
    env0[0] = 1.0
    pairs = []
    for j in range(d):
        ket = np.zeros(d, dtype=complex)
        ket[j] = 1.0
        pairs.append((np.kron(ket, env0), v[:, j]))
    u = unitary_completion(pairs, dim)
    return UnitaryDilation(system_dim=d, env_dim=n_env, unitary=u, env_init=env0)


def dilation_forward(dilation: UnitaryDilation, rho) -> np.ndarray:
    """Tr_E( U (rho (x) |e0><e0|) U^dag ) for the dilation's environment state."""
    env = np.outer(dilation.env_init, dilation.env_init.conj())
    full = dilation.unitary @ tensor(rho, env) @ dagger(dilation.unitary)
    return partial_trace(full, (dilation.system_dim, dilation.env_dim), "B")


def kraus_from_dilation(dilation: UnitaryDilation) -> KrausChannel:
    """Extract Kraus operators E_i = (I (x) <i|) U (I (x) |e0>)."""
    d, n = dilation.system_dim, dilation.env_dim
    blocks = dilation.unitary.reshape(d, n, d, n)
    ops = [np.einsum("abj,j->ab", blocks[:, i, :, :], dilation.env_init) for i in range(n)]
    return KrausChannel(input_dim=d, output_dim=d, kraus=tuple(ops))


def masker_dilation(u0, u1) -> UnitaryDilation:
    """The two-qubit unitary U = sum_ij |j><i| (x) u_j |i><j|.

    Acts as U(|m>_A (x) |n>_E) = |n>_A (x) u_n |m>_E; with u0 = u1 = I this
    is the swap gate.
    """
    us = [require_unitary(u0), require_unitary(u1)]
    for u in us:
        if u.shape != (2, 2):
            raise DimensionMismatchError(f"expected 2x2 unitaries, got {u.shape}")
    kets = np.eye(2, dtype=complex)
    u = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            u += tensor(
                np.outer(kets[j], kets[i].conj()),
                us[j] @ np.outer(kets[i], kets[j].conj()),
            )
    env0 = np.array([1.0, 0.0], dtype=complex)
    return UnitaryDilation(system_dim=2, env_dim=2, unitary=u, env_init=env0)
