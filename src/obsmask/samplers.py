"""Seeded random samplers shared by the demo, the invariant registry and the
tests.

Each sampler draws from the generator it is given, so a seed fixes every
sample; the order of the numpy calls is part of that contract.
"""

from __future__ import annotations

import numpy as np


def hermitian(
    rng: np.random.Generator, d: int, size: tuple = (), scale: float = 1.0
) -> np.ndarray:
    """Hermitian (G + G^dag) * scale / 2 from a complex Gaussian G.

    ``size`` stacks independent matrices in front: the whole real part of
    the batch is drawn first, then the whole imaginary part.
    """
    shape = (*size, d, d)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return (g + np.swapaxes(g.conj(), -1, -2)) * (scale / 2)


def density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank density matrix G G^dag / Tr(G G^dag) (Hilbert-Schmidt measure)."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with the phases of R fixed."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniformly random direction in R^n."""
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)
