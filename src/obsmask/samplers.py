"""Seeded random samplers shared by the demo, the invariant registry and the
tests.

Each sampler draws from the generator it is given, so a seed fixes every
sample; the order of the numpy calls is part of that contract.  The stack
order of each sampler:

- ``hermitian(size=...)`` draws the real parts of the whole batch first,
  then the whole batch of imaginary parts;
- ``hermitian_stack``, ``haar_unitary(size=...)`` and ``density`` draw
  matrix after matrix, each as its real part then its imaginary part, so a
  stack of n equals n single draws bit for bit;
- ``unit_vector`` draws one vector.
"""

from __future__ import annotations

import math

import numpy as np

from . import algebra


def _gaussians(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """n complex Gaussian d x d matrices from one draw, matrix after matrix,
    each its real part then its imaginary part."""
    x = rng.normal(size=(n, 2, d, d))
    return x[:, 0] + 1j * x[:, 1]


def _hermitian_part(g: np.ndarray, scale: float) -> np.ndarray:
    return (g + np.swapaxes(g.conj(), -1, -2)) * (scale / 2)


def hermitian(
    rng: np.random.Generator, d: int, size: tuple = (), scale: float = 1.0
) -> np.ndarray:
    """Hermitian (G + G^dag) * scale / 2 from a complex Gaussian G.

    ``size`` stacks independent matrices in front: the whole real part of
    the batch is drawn first, then the whole imaginary part.
    """
    shape = (*size, d, d)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return _hermitian_part(g, scale)


def hermitian_stack(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """Stack of n matrices ``hermitian(rng, d)`` would give in turn, from one
    draw."""
    return _hermitian_part(_gaussians(rng, d, n), 1.0)


def density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank density matrix G G^dag / Tr(G G^dag) (Hilbert-Schmidt measure)."""
    g = _gaussians(rng, d, 1)[0]
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar_unitary(rng: np.random.Generator, d: int, size: tuple = ()) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with the phases of R fixed.

    ``size`` stacks independent unitaries in front, from one draw, one
    stacked QR and one phase fix; a single unitary is a stack of one.
    """
    g = _gaussians(rng, d, math.prod(size)).reshape(*size, d, d)
    q, r = algebra._qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniformly random direction in R^n."""
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)
