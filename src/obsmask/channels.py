"""Kraus-channel algebra: forward and adjoint action, isometric extension,
and the unitary and density-matrix validators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    HermitianEig,
    _fix_phases,
    _identity_deviation,
    _quietly,
    _set,
    dagger,
    eig_hermitian,
    max_norm,
)
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
    tr = eig.eigenvalues.sum()
    if abs(tr - 1.0) > CHANNEL_ATOL:
        raise InvalidStateError(f"trace is {float(tr)!r}, not 1")
    min_eig = float(eig.eigenvalues[0])
    if min_eig < -CHANNEL_ATOL:
        raise InvalidStateError(
            f"negative eigenvalue {min_eig:.3e}", witness=eig.eigenvectors[:, 0]
        )
    return eig


@dataclass(frozen=True, eq=False, init=False)
class KrausChannel:
    """A CPTP map held as an ordered, trace-preserving Kraus family.

    ``KrausChannel(input_dim, output_dim, kraus)`` holds a general family as
    one read-only complex array of shape (n, output_dim, input_dim) with
    E_i = kraus[i], copied once at construction.  Its memory is laid out as
    the isometric extension (row a * n + i of V is row a of E_i), so
    ``isometric_extension`` is a view and the forward and adjoint actions are
    two matrix products each.

    ``KrausChannel.rank_one(amplitudes, support)`` holds a family of rank-one
    operators |u_j><k| as its factors: ``amplitudes`` of shape (t,
    output_dim), one row u_j per term, and the 0/1 ``support`` of shape (t,
    input_dim); the operators run term-major over every support[j, k] = 1.
    Its actions cost O(t d^2) and never form the family, and ``kraus`` is a
    dense view built on each access.  Both factors are None for a general
    family.

    Kraus ordering is preserved as given (golden tests depend on it);
    the channel's action must not.
    """

    input_dim: int
    output_dim: int
    amplitudes: np.ndarray | None
    support: np.ndarray | None

    def __init__(self, input_dim: int, output_dim: int, kraus):
        if len(kraus) == 0:
            raise InvalidChannelError("empty Kraus family")
        expected = (output_dim, input_dim)
        try:
            ops = np.asarray(kraus, dtype=complex)
            shape = ops.shape[1:]
        except ValueError:  # a ragged family: name its first misfit
            shape = next(filter(expected.__ne__, map(np.shape, kraus)))
        if shape != expected:
            raise InvalidChannelError(
                f"Kraus operator shape {shape} != ({output_dim}, {input_dim})"
            )
        if not np.isfinite(ops).all():
            raise InvalidChannelError("Kraus family contains non-finite entries")
        dense = ops.transpose(1, 0, 2).copy().transpose(1, 0, 2)
        dense.setflags(write=False)
        _set(self, input_dim=input_dim, output_dim=output_dim, amplitudes=None,
             support=None, _kraus=dense)
        v = isometric_extension(self)
        dev = _identity_deviation(dagger(v) @ v)
        if dev > CHANNEL_ATOL:
            raise InvalidChannelError(
                f"sum E^dag E deviates from identity by {dev:.3e}"
            )

    @classmethod
    def rank_one(cls, amplitudes, support) -> KrausChannel:
        """The family |u_j><k| over every support[j, k] = 1, term-major, with
        u_j = amplitudes[j]; both factors are copied once, the amplitudes
        in row order whatever the caller's layout."""
        amps = np.array(amplitudes, dtype=complex, order="C")
        supp = np.asarray(support, dtype=bool).astype(float)
        if amps.ndim != 2 or supp.ndim != 2 or len(amps) != len(supp):
            raise InvalidChannelError(
                f"amplitudes {amps.shape} and support {supp.shape} are not "
                "(t, output_dim) and (t, input_dim)"
            )
        if len(amps) == 0:
            raise InvalidChannelError("empty Kraus family")
        # one pass checks both finiteness and trace preservation: a
        # non-finite amplitude makes column norms inf or nan, which fail
        # it, so only a failed check reads which refusal it is
        norms = _quietly(_column_norms, amps, supp)
        if not all(abs(x - 1.0) <= CHANNEL_ATOL for x in norms):
            if not np.isfinite(amps).all():
                raise InvalidChannelError("Kraus family contains non-finite entries")
            dev = max_norm(np.array(norms) - 1.0)
            raise InvalidChannelError(
                f"sum E^dag E deviates from identity by {dev:.3e}"
            )
        amps.setflags(write=False)
        supp.setflags(write=False)
        # row j of _outer is conj(u_j) u_j^T, flattened: <u_j|O|u_j> is its
        # dot product with O's entries
        outer = (amps.conj()[:, :, None] * amps[:, None, :]).reshape(len(amps), -1)
        self = object.__new__(cls)
        _set(self, input_dim=supp.shape[1], output_dim=amps.shape[1],
             amplitudes=amps, support=supp, _outer=outer)
        return self

    @property
    def kraus(self) -> np.ndarray:
        """The read-only (n, output_dim, input_dim) Kraus stack; for a
        rank-one family, a dense view built on each access."""
        if self.amplitudes is None:
            return self._kraus
        return _dense_kraus(self.amplitudes, self.support)


def _column_norms(amplitudes: np.ndarray, support: np.ndarray) -> list[float]:
    """The diagonal of a rank-one family's sum E^dag E, its only nonzero
    entries: entry k sums the squared norms of the terms whose support
    holds k."""
    parts = amplitudes.view(float)
    return ((parts * parts).sum(axis=1) @ support).tolist()


def _dense_kraus(amplitudes: np.ndarray, support: np.ndarray) -> np.ndarray:
    """The stack of |u_j><k| over every support[j, k] = 1, term-major, laid
    out as the isometric extension."""
    terms, cols = np.nonzero(support)
    n = len(terms)
    v = np.zeros((amplitudes.shape[1], n, support.shape[1]), dtype=complex)
    # assigned, not multiplied by unit vectors, so zero entries stay +0.0
    v[:, np.arange(n), cols] = amplitudes[terms].T
    ops = v.transpose(1, 0, 2)
    ops.setflags(write=False)
    return ops


def apply_forward(channel: KrausChannel, rho) -> np.ndarray:
    """Schroedinger action sum_i E_i rho E_i^dag."""
    arr = np.asarray(rho, dtype=complex)
    if arr.shape != (channel.input_dim, channel.input_dim):
        raise DimensionMismatchError(
            f"state shape {arr.shape} != ({channel.input_dim}, {channel.input_dim})"
        )
    if channel.amplitudes is not None:
        # sum_j c_j |u_j><u_j|, c_j the weight of rho's diagonal on term j's
        # support; |u_j><u_j| is the transpose of row j of _outer
        m = channel.output_dim
        return ((channel.support @ arr.diagonal()) @ channel._outer).reshape(m, m).T
    v = isometric_extension(channel)
    # row a of ``rows`` is row a of every E_i; (V rho) regrouped the same way
    # holds (E_i rho)[a, :], so one product sums over i and the columns
    rows = v.reshape(channel.output_dim, -1)
    return (v @ arr).reshape(rows.shape) @ dagger(rows)


def apply_adjoint(channel: KrausChannel, obs) -> np.ndarray:
    """Heisenberg action sum_i E_i^dag O E_i (unital by trace preservation).

    ``obs`` may be a stack of shape (..., out, out); each matrix of the
    stack goes through the same products as a single one.
    """
    if channel.amplitudes is not None:
        # diagonal, and zero elsewhere
        diagonal = _adjoint_diagonal(channel, obs)
        n = channel.input_dim
        out = np.zeros(diagonal.shape[:-1] + (n * n,), dtype=complex)
        out[..., :: n + 1] = diagonal
        return out.reshape(diagonal.shape[:-1] + (n, n))
    arr = _observable(channel, obs)
    v = isometric_extension(channel)
    # O applied to the regrouped rows gives O E_i stacked like V, so
    # V^dag of it sums E_i^dag O E_i
    rows = v.reshape(channel.output_dim, -1)
    return dagger(v) @ (arr @ rows).reshape(arr.shape[:-2] + v.shape)


def _observable(channel: KrausChannel, obs) -> np.ndarray:
    """``obs`` as a complex array of shape (..., out, out), or refused."""
    arr = np.asarray(obs, dtype=complex)
    if arr.shape[-2:] != (channel.output_dim, channel.output_dim):
        raise DimensionMismatchError(
            f"observable shape {arr.shape} != "
            f"(..., {channel.output_dim}, {channel.output_dim})"
        )
    return arr


def _adjoint_diagonal(channel: KrausChannel, obs) -> np.ndarray:
    """The diagonal, of shape (..., in), of a rank-one family's E*(O), its
    only nonzero entries: entry k sums <u_j|O|u_j> over the terms whose
    support holds k.  Each matrix of a stack is its own (1, out^2) row, so
    it goes through the products of a single call."""
    arr = _observable(channel, obs)
    m = channel.output_dim
    rows = arr.reshape(arr.shape[:-2] + (1, m * m))
    return ((rows @ channel._outer.T) @ channel.support)[..., 0, :]


def _spectral_rows(weights, vectors: np.ndarray, fix_phases: bool = False) -> np.ndarray:
    """Rows sqrt(w_j) v_j over the weights w_j >= 1e-12 of a state's
    spectral terms (an array or a list of floats), v_j the columns of
    ``vectors``, in descending weight (ties in reverse index order): the
    amplitudes of the channels that prepare the state.  With
    ``fix_phases``, the columns are raw ``eigh`` eigenvectors, and only
    those kept are phase-fixed, as ``eig_hermitian`` fixes them."""
    ws = weights.tolist() if isinstance(weights, np.ndarray) else weights
    # a stable ascending sort of the kept terms, reversed: the order of a
    # stable argsort of all of them, reversed, with the rest dropped
    terms = sorted((j for j, w in enumerate(ws) if w >= 1e-12), key=ws.__getitem__)[::-1]
    columns = vectors.take(terms, axis=1)
    if fix_phases:
        columns = _fix_phases(columns)
    return (np.sqrt([ws[j] for j in terms]) * columns).T


def isometric_extension(channel: KrausChannel) -> np.ndarray:
    """Isometry V = sum_i E_i (x) |i>_E with one environment level per Kraus
    op; a read-only view of the channel's Kraus stack (of the dense view a
    rank-one family builds on each access)."""
    # row a * n + i of V is row a of E_i
    return channel.kraus.transpose(1, 0, 2).reshape(-1, channel.input_dim)
