"""Seeded input generators and reference math for the benchmark.

Everything here is plain numpy and independent of the ``obsmask`` code paths
under test: planted spectra give the true verdicts, and the generalized
Gell-Mann basis is rebuilt from its documented ordering so that Bloch
coordinates and masking equations can be checked without the library.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

# Residual bound for maskers and decisions, as the library documents it.
ATOL = 1e-9


def rng_for(seed: int, *tags) -> np.random.Generator:
    """Independent stream for one input family, derived from the run seed."""
    words = [int(seed)] + [int(hashlib.sha256(str(t).encode()).hexdigest()[:8], 16) for t in tags]
    return np.random.default_rng(words)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def with_spectrum(u: np.ndarray, eigenvalues) -> np.ndarray:
    """Hermitian matrix u diag(eigenvalues) u^dag, made exactly Hermitian."""
    m = (u * np.asarray(eigenvalues, dtype=float)) @ u.conj().T
    return (m + m.conj().T) / 2


def random_state(rng: np.random.Generator, d: int, min_eig: float | None = None):
    """Density matrix with a Dirichlet spectrum, and that spectrum.

    With ``min_eig`` set, the smallest eigenvalue is planted at that value and
    the rest rescaled so the trace stays 1 (a negative value plants a
    non-state).
    """
    p = rng.dirichlet(np.ones(d))
    if min_eig is not None:
        p = np.concatenate(([min_eig], p[1:] / p[1:].sum() * (1.0 - min_eig)))
    return with_spectrum(haar_unitary(rng, d), p), np.sort(p)


@lru_cache(maxsize=None)
def gell_mann(d: int) -> np.ndarray:
    """Generators with Tr(g_i g_j) = 2 delta_ij in the library's documented
    order: symmetric pairs, antisymmetric pairs, then diagonal ones."""
    gens = []
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = m[k, j] = 1.0
        gens.append(m)
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k], m[k, j] = -1.0j, 1.0j
        gens.append(m)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -float(l)
        gens.append(np.diag(diag * np.sqrt(2.0 / (l * (l + 1)))).astype(complex))
    out = np.stack(gens)
    out.setflags(write=False)
    return out


def bloch_of(rho: np.ndarray) -> np.ndarray:
    """b_i = Tr(rho g_i) / 2."""
    return np.einsum("kab,ba->k", gell_mann(rho.shape[0]), rho).real / 2.0


def coeffs_of(obs: np.ndarray) -> tuple[float, np.ndarray]:
    """(a0, a) with O = a0 I + sum_i a_i g_i."""
    d = obs.shape[0]
    return float(np.trace(obs).real) / d, bloch_of(obs)


def expectation(a0: float, a: np.ndarray, b: np.ndarray) -> float:
    """Tr(rho O) for rho = I/d + b.g and O = a0 I + a.g."""
    return a0 + 2.0 * float(np.dot(a, b))


def elementary_e3(eigenvalues) -> float:
    """e_3 of the spectrum, read off the characteristic polynomial."""
    return -float(np.poly(np.asarray(eigenvalues, dtype=float))[3])


def max_norm(m) -> float:
    arr = np.asarray(m)
    return 0.0 if arr.size == 0 else float(np.max(np.abs(arr)))


def adjoint_residual(kraus, obs) -> tuple[float, float]:
    """(max |sum K^dag O K - I|, max |sum K^dag K - I|) for a Kraus family."""
    ks = np.stack([np.asarray(k, dtype=complex) for k in kraus])
    eye = np.eye(ks.shape[2])
    out = np.einsum("nba,bc,ncd->ad", ks.conj(), obs, ks)
    tp = np.einsum("nba,nbd->ad", ks.conj(), ks)
    return max_norm(out - eye), max_norm(tp - eye)


def is_density(rho, tol: float = ATOL) -> bool:
    rho = np.asarray(rho, dtype=complex)
    return (
        max_norm(rho - rho.conj().T) <= 1e-10
        and abs(np.trace(rho).real - 1.0) <= tol
        and float(np.linalg.eigvalsh(rho)[0]) >= -tol
    )


def digest(obj) -> str:
    """Stable hash of nested inputs (arrays, numbers, strings, containers)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str((x.dtype.str, x.shape)).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            for k in sorted(x):
                feed(k)
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()
