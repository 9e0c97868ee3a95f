"""Bit-commitment mechanics: commitment-state pairs, the concealment measure,
cheating-unitary synthesis, the measure-and-prepare channel, and the
no-bit-commitment demonstration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import samplers
from .algebra import ORTHONORMALITY_ATOL, dagger, max_norm, require_orthonormal
from .channels import KrausChannel, apply_adjoint, require_density, spectral_kraus
from .errors import (
    BadSpectrumError,
    DimensionMismatchError,
    NotNormalizedError,
    NotOrthonormalError,
)
from .masking import verify_masking
from .report import RunReport

# Cheating counts as exact when Alice's unitary reproduces the target
# coefficient matrix within this max-norm slack.
CHEAT_ATOL = 1e-8

# Random observables the no-bit-commitment demo drives through its channel.
DEMO_OBSERVABLES = 20


@dataclass(frozen=True, eq=False)
class CommitmentPair:
    """Two bipartite pure states encoding bit values 0 and 1.

    psi_x = sum_ij M_x[i, j] |i>_A |j>_B, so ``psi_x.reshape(dim_a, dim_b)``
    is the coefficient matrix M_x.  ``spectrum`` holds the shared Schmidt
    weights when the pair was built from bases; pairs assembled from raw
    vectors leave it None.
    """

    dim_a: int
    dim_b: int
    psi0: np.ndarray
    psi1: np.ndarray
    marginal_b0: np.ndarray
    marginal_b1: np.ndarray
    spectrum: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class CheatResult:
    """Alice's best unitary for turning psi0 into psi1.

    ``fidelity`` is the overlap |<psi1| (U (x) I) |psi0>| it reaches, which
    is the root fidelity of the two B-marginals; ``feasible`` says whether
    the cheat is exact.
    """

    unitary_a: np.ndarray
    fidelity: float
    feasible: bool


def _pair(m0: np.ndarray, m1: np.ndarray, spectrum=None) -> CommitmentPair:
    """The pair with coefficient matrices m0, m1; rho_B = M^T conj(M)."""
    b0, b1 = (m.T @ m.conj() for m in (m0, m1))
    return CommitmentPair(dim_a=m0.shape[0], dim_b=m0.shape[1], psi0=m0.reshape(-1),
                          psi1=m1.reshape(-1), marginal_b0=b0, marginal_b1=b1,
                          spectrum=spectrum)


def commitment_pair_from_vectors(psi0, psi1, dims: tuple[int, int]) -> CommitmentPair:
    """Wrap two normalized vectors on dims (dA, dB) with their B-marginals."""
    d_a, d_b = dims
    vecs = []
    for name, psi in (("psi0", psi0), ("psi1", psi1)):
        v = np.asarray(psi, dtype=complex).reshape(-1)
        if v.size != d_a * d_b:
            raise NotNormalizedError(f"{name} has length {v.size}, expected {d_a * d_b}")
        if abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise NotNormalizedError(f"{name} is not normalized")
        vecs.append(v.reshape(d_a, d_b))
    return _pair(vecs[0], vecs[1])


def _check_family(vectors, r: int, name: str) -> np.ndarray:
    cols = require_orthonormal(vectors, name, ORTHONORMALITY_ATOL)
    if cols.shape[1] < r:
        raise NotOrthonormalError(f"{name} supplies {cols.shape[1]} vectors, need {r}")
    return cols


def make_commitment_pair(lam, basis_a0, basis_a1, basis_b) -> CommitmentPair:
    """Build psi_x = sum_i sqrt(lam_i) |a^x_i> (x) |b_i>.

    Equal Schmidt spectra against one B-basis force equal B-marginals, the
    perfectly concealing configuration.
    """
    weights = np.asarray(lam, dtype=float).reshape(-1)
    if np.any(weights < -1e-12) or abs(np.sum(weights) - 1.0) > 1e-9:
        raise BadSpectrumError("weights must be nonnegative and sum to 1")
    r = weights.size
    a0 = _check_family(basis_a0, r, "basis_a0")
    a1 = _check_family(basis_a1, r, "basis_a1")
    b = _check_family(basis_b, r, "basis_b")
    if a1.shape[0] != a0.shape[0]:
        raise NotOrthonormalError("basis_a0 and basis_a1 live in different dimensions")
    roots = np.sqrt(np.clip(weights, 0.0, None))
    # M_x = sum_i sqrt(lam_i) a^x_i b_i^T
    m0, m1 = ((a[:, :r] * roots) @ b[:, :r].T for a in (a0, a1))
    return _pair(m0, m1, weights)


def concealment_gap(pair: CommitmentPair) -> float:
    """Trace distance between the two B-marginals; 0 means perfectly
    concealing (no observable separates the committed bits)."""
    diff = pair.marginal_b0 - pair.marginal_b1
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def cheating_unitary(pair: CommitmentPair) -> CheatResult:
    """Alice's optimal cheat: the polar factor U of M1 M0^dag.

    Acting with U on A turns the coefficient matrix M0 into U M0, whose
    overlap with psi1 is Tr(M1^dag U M0).  By Uhlmann's theorem the polar
    factor (U = u vh from one SVD u s vh of M1 M0^dag) maximizes its modulus,
    at the root fidelity ||sqrt(rho_B0) sqrt(rho_B1)||_1 of the B-marginals.
    So U M0 = M1 (the cheat is exact) exactly when the marginals are equal,
    which is perfect concealment.  Infeasibility is a result state, not an
    error.
    """
    m0 = pair.psi0.reshape(pair.dim_a, pair.dim_b)
    m1 = pair.psi1.reshape(pair.dim_a, pair.dim_b)
    u, _, vh = np.linalg.svd(m1 @ dagger(m0))
    unitary = u @ vh
    residual = max_norm(unitary @ m0 - m1)
    fidelity = float(abs(np.trace(dagger(m1) @ unitary @ m0)))
    return CheatResult(
        unitary_a=unitary,
        fidelity=fidelity,
        feasible=bool(residual < CHEAT_ATOL),
    )


def measure_prepare_channel(rho0, rho1, d: int) -> KrausChannel:
    """Channel measuring {|0><0|, I - |0><0|} and preparing rho0 or rho1.

    Kraus operators sqrt(p^i_j) |e^i_j><k| pair the spectral terms of rho_i
    with the basis kets of effect i (k = 0, or k >= 1); for d = 2 this is the
    familiar sqrt(p^i_j) |e^i_j><i| family.
    """
    states = [require_density(rho0), require_density(rho1)]
    for arr in states:
        if arr.shape != (d, d):
            raise DimensionMismatchError(f"state shape {arr.shape} != ({d}, {d})")
    ops = np.concatenate(
        (spectral_kraus(states[0], d, [0]), spectral_kraus(states[1], d, range(1, d)))
    )
    return KrausChannel(input_dim=d, output_dim=d, kraus=ops)


def random_commitment_pair(rng: np.random.Generator, d: int) -> CommitmentPair:
    """Perfectly concealing d x d pair with Schmidt weights bounded away from 0
    and Haar-random bases: the pair the demo draws."""
    lam = rng.random(d) + 0.2
    lam /= lam.sum()
    ua0, ua1, ub = (samplers.haar_unitary(rng, d) for _ in range(3))
    return make_commitment_pair(
        lam,
        [ua0[:, i] for i in range(d)],
        [ua1[:, i] for i in range(d)],
        [ub[:, i] for i in range(d)],
    )


def no_bit_commitment_demo(d: int, seed: int) -> RunReport:
    """Run the full reduction at dimension d with a seeded generator (PCG64).

    Draws a random full-rank commitment pair, confirms it is perfectly
    concealing yet not binding, then drives ``DEMO_OBSERVABLES`` random
    observables through the measure-and-prepare channel built from the
    (equal) marginals: its adjoint sends every observable to Tr(rho_B O) I,
    and masks exactly the observables with unit expectation.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    rng = np.random.default_rng(seed)
    pair = random_commitment_pair(rng, d)
    gap = concealment_gap(pair)
    marginal_gap = max_norm(pair.marginal_b0 - pair.marginal_b1)
    cheat = cheating_unitary(pair)

    rho_b = pair.marginal_b0
    channel = measure_prepare_channel(rho_b, rho_b, d)
    hiding_residual = 0.0
    proportional = 0
    masking_consistent = 0
    rescaled_masked = 0
    rescaled_total = 0
    for _ in range(DEMO_OBSERVABLES):
        obs = samplers.hermitian(rng, d)
        expectation = float(np.trace(rho_b @ obs).real)
        out = apply_adjoint(channel, obs)
        residual = max_norm(out - expectation * np.eye(d))
        hiding_residual = max(hiding_residual, residual)
        if residual < 1e-9:
            proportional += 1
        masked = verify_masking(channel, obs) < 1e-9
        if masked == (abs(expectation - 1.0) < 1e-9):
            masking_consistent += 1
        if abs(expectation) > 1e-6:
            rescaled_total += 1
            if verify_masking(channel, obs / expectation) < 1e-9:
                rescaled_masked += 1

    report = RunReport()
    report.add("demo", "bitcommit")
    report.add("dim", d)
    report.add("seed", seed)
    report.add("concealment_gap", gap)
    report.add("marginal_gap_max", marginal_gap)
    report.add("cheat_feasible", cheat.feasible)
    report.add("cheat_fidelity", cheat.fidelity)
    report.add("hiding_residual_max", hiding_residual)
    report.add("proportionality_checks", f"{proportional}/{DEMO_OBSERVABLES}")
    report.add("masking_matches_unit_expectation", f"{masking_consistent}/{DEMO_OBSERVABLES}")
    report.add("rescaled_observables_masked", f"{rescaled_masked}/{rescaled_total}")
    report.add(
        "note",
        "adjoint outputs are proportional to the identity for every observable; "
        "equality with the identity (masking) holds exactly for observables "
        "with unit expectation on the commitment marginal",
    )
    report.add(
        "conclusion",
        "a perfectly concealing, binding protocol would make this channel a "
        "universal masker, which does not exist; unconditional bit commitment "
        "is therefore impossible",
    )
    return report
