"""Host-speed normalization of measured times.

The host this benchmark was written on switches, within a millisecond,
between a fast state and one that runs the same code 1.6 to 1.9 times
slower, and the share of slow time drifts over minutes (bench/README.md).
A fixed kernel that uses no ``obsmask`` code is timed again and again during
the measured work, and every measured time is scaled by
``REFERENCE_S / typical kernel time``: the result is the time the work would
take on a host where the kernel takes ``REFERENCE_S``.  A change to
``obsmask`` cannot change the kernel, so the scaling cancels host speed and
nothing else.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Kernel duration that defines the reference host speed (roughly the
# kernel's time in the host's fast state when this benchmark was written).
REFERENCE_S = 500e-6
# Kernel samples are taken this often during measured work (about 4% of it).
INTERVAL_S = 0.02
# trimmed_mean keeps this share of the times, the fastest ones.
TRIM_KEEP = 0.9

_rng = np.random.default_rng(0)
_A2 = _rng.normal(size=(2, 2)) + 1j * _rng.normal(size=(2, 2))
_A2 = _A2 + _A2.conj().T
_A8 = _rng.normal(size=(8, 8))
_A8 = _A8 + _A8.T
_A16 = _rng.normal(size=(16, 16))
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def trimmed_mean(xs) -> float:
    """Mean of the fastest 90% of the times ``xs``.

    It leaves out the rare executions that the host stalls for milliseconds,
    which would otherwise decide the slowest items of a run.  A median would
    leave them out too, but the times are bimodal (fast and slow state), and
    a median jumps between the modes as the slow share drifts past 1/2; the
    trimmed mean moves smoothly with it, as the work does."""
    xs = sorted(xs)
    return statistics.fmean(xs[: math.ceil(len(xs) * TRIM_KEEP)])


@dataclass(frozen=True)
class _Record:
    index: int
    matrix: np.ndarray
    extra: dict


def kernel() -> list:
    """Small objects, small arrays and small dense linear algebra: the kind
    of work obsmask's ops do, in about the same proportions."""
    out = []
    for i in range(30):
        m = np.asarray([[1.0, i], [i, 2.0]], dtype=complex)
        a = np.einsum("kab,ba->k", _PAULI, m).real
        out.append(_Record(i, m.conj().T @ m, {"a": a, "max": float(np.max(np.abs(a)))}))
    for _ in range(8):
        np.linalg.eigh(_A2)
    np.linalg.eigh(_A8)
    _A16 @ _A16
    return out


class SpeedProbe:
    """Kernel samples spread over a stretch of measured work.

    The host's slow and fast states alternate within a millisecond, far
    faster than work can be bracketed, so the probe estimates the share of
    slow time instead: the typical kernel time over samples spread evenly
    over the stretch slows down by the same factor as the typical execution
    of the work done in it.  "Typical" is the ``trimmed_mean`` on both
    sides.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        t = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t)
        self._last = perf_counter()

    def maybe_sample(self) -> None:
        """Sample if INTERVAL_S has passed since the last sample."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        """Factor from measured times to times at the reference speed."""
        return REFERENCE_S / trimmed_mean(self.samples)
