"""Bit-commitment mechanics: commitment-state pairs, the concealment measure,
cheating-unitary synthesis, the measure-and-prepare channel, and the
no-bit-commitment demonstration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, samplers
from .algebra import _require_dimension, dagger, max_norm, require_orthonormal
from .channels import KrausChannel, _spectral_rows, apply_adjoint, require_density
from .errors import (
    BadSpectrumError,
    DimensionMismatchError,
    NotNormalizedError,
    NotOrthonormalError,
)
from .report import RunReport

# Cheating counts as exact when Alice's unitary reproduces the target
# coefficient matrix within this max-norm slack.
CHEAT_ATOL = 1e-8
# Slack in a state vector's norm and in the sum of the Schmidt weights.
NORMALIZATION_ATOL = 1e-9
# Schmidt weights may fall this far below 0 (rounding) and count as 0.
NEGATIVE_WEIGHT_ATOL = 1e-12
# The demo counts an adjoint output as proportional to I, or equal to it
# (masked), within this max-norm slack, and an expectation as unit within it.
DEMO_MASKING_ATOL = 1e-9
# The demo rescales an output by its expectation only above this magnitude.
DEMO_RESCALE_FLOOR = 1e-6

# Random observables the no-bit-commitment demo drives through its channel.
DEMO_OBSERVABLES = 20


@dataclass(frozen=True, eq=False)
class CommitmentPair:
    """Two bipartite pure states encoding bit values 0 and 1.

    psi_x = sum_ij M_x[i, j] |i>_A |j>_B, so ``psi_x.reshape(dim_a, dim_b)``
    is the coefficient matrix M_x.
    """

    dim_a: int
    dim_b: int
    psi0: np.ndarray
    psi1: np.ndarray
    marginal_b0: np.ndarray
    marginal_b1: np.ndarray


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


def _pair(m0: np.ndarray, m1: np.ndarray) -> CommitmentPair:
    """The pair with coefficient matrices m0, m1; rho_B = M^T conj(M)."""
    b0, b1 = (m.T @ m.conj() for m in (m0, m1))
    return CommitmentPair(dim_a=m0.shape[0], dim_b=m0.shape[1], psi0=m0.reshape(-1),
                          psi1=m1.reshape(-1), marginal_b0=b0, marginal_b1=b1)


def commitment_pair_from_vectors(psi0, psi1, dims: tuple[int, int]) -> CommitmentPair:
    """Wrap two normalized vectors on dims (dA, dB) with their B-marginals."""
    d_a, d_b = dims
    vecs = []
    for name, psi in (("psi0", psi0), ("psi1", psi1)):
        v = np.asarray(psi, dtype=complex).reshape(-1)
        if v.size != d_a * d_b:
            raise NotNormalizedError(f"{name} has length {v.size}, expected {d_a * d_b}")
        if not np.isfinite(v).all():
            raise NotNormalizedError(f"{name} contains non-finite entries")
        if abs(np.linalg.norm(v) - 1.0) > NORMALIZATION_ATOL:
            raise NotNormalizedError(f"{name} is not normalized")
        vecs.append(v.reshape(d_a, d_b))
    return _pair(vecs[0], vecs[1])


def _check_family(vectors, r: int, name: str) -> np.ndarray:
    cols = require_orthonormal(vectors, name)
    if cols.shape[1] < r:
        raise NotOrthonormalError(f"{name} supplies {cols.shape[1]} vectors, need {r}")
    return cols


def make_commitment_pair(lam, basis_a0, basis_a1, basis_b) -> CommitmentPair:
    """Build psi_x = sum_i sqrt(lam_i) |a^x_i> (x) |b_i>.

    Equal Schmidt spectra against one B-basis force equal B-marginals, the
    perfectly concealing configuration.
    """
    weights = np.asarray(lam, dtype=float).reshape(-1)
    if not np.isfinite(weights).all():
        raise BadSpectrumError("weights contain non-finite entries")
    if (weights < -NEGATIVE_WEIGHT_ATOL).any() or abs(weights.sum() - 1.0) > NORMALIZATION_ATOL:
        raise BadSpectrumError("weights must be nonnegative and sum to 1")
    r = weights.size
    a0 = _check_family(basis_a0, r, "basis_a0")
    a1 = _check_family(basis_a1, r, "basis_a1")
    b = _check_family(basis_b, r, "basis_b")
    if a1.shape[0] != a0.shape[0]:
        raise NotOrthonormalError("basis_a0 and basis_a1 live in different dimensions")
    return _schmidt_pair(np.sqrt(weights.clip(0.0, None)), a0, a1, b)


def _schmidt_pair(roots: np.ndarray, a0: np.ndarray, a1: np.ndarray,
                  b: np.ndarray) -> CommitmentPair:
    """The pair M_x = sum_i roots_i a^x_i b_i^T from bases held as columns,
    unchecked."""
    r = roots.size
    m0, m1 = ((a[:, :r] * roots) @ b[:, :r].T for a in (a0, a1))
    return _pair(m0, m1)


def concealment_gap(pair: CommitmentPair) -> float:
    """Trace distance between the two B-marginals; 0 means perfectly
    concealing (no observable separates the committed bits)."""
    diff = pair.marginal_b0 - pair.marginal_b1
    return float(0.5 * np.abs(algebra._eigvalsh(diff)).sum())


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
    u, _, vh = algebra._svd_full(m1 @ dagger(m0))
    unitary = u @ vh
    residual = max_norm(unitary @ m0 - m1)
    fidelity = float(abs((dagger(m1) @ unitary @ m0).trace()))
    return CheatResult(
        unitary_a=unitary,
        fidelity=fidelity,
        feasible=bool(residual < CHEAT_ATOL),
    )


def measure_prepare_channel(rho0, rho1, d: int) -> KrausChannel:
    """Channel measuring {|0><0|, I - |0><0|} and preparing rho0 or rho1.

    Kraus operators sqrt(p^i_j) |e^i_j><k| pair the spectral terms of rho_i
    with the basis kets of effect i (k = 0, or k >= 1); for d = 2 this is the
    familiar sqrt(p^i_j) |e^i_j><i| family.  One state passed twice, as
    the demo does, is decomposed once and its spectral rows are formed once.
    """
    eig0 = require_density(rho0)
    eig1 = eig0 if rho1 is rho0 else require_density(rho1)
    for eig in (eig0, eig1):
        if eig.eigenvectors.shape != (d, d):
            raise DimensionMismatchError(f"state shape {eig.eigenvectors.shape} != ({d}, {d})")
    rows0 = _spectral_rows(eig0.eigenvalues, eig0.eigenvectors)
    rows1 = rows0 if eig1 is eig0 else _spectral_rows(eig1.eigenvalues, eig1.eigenvectors)
    # the terms of rho_0 on k = 0, then those of rho_1 on k >= 1
    support = np.zeros((len(rows0) + len(rows1), d))
    support[: len(rows0), 0] = support[len(rows0):, 1:] = 1
    return KrausChannel.rank_one(np.concatenate((rows0, rows1)), support)


def random_commitment_pair(rng: np.random.Generator, d: int) -> CommitmentPair:
    """Perfectly concealing d x d pair with Schmidt weights bounded away from 0
    and Haar-random bases: the pair the demo draws."""
    lam = rng.random(d) + 0.2
    lam /= lam.sum()
    # each family is the columns of one Haar unitary, orthonormal by
    # construction, so the pair is built without make_commitment_pair's checks
    ua0, ua1, ub = samplers.haar_unitary(rng, d, size=(3,))
    return _schmidt_pair(np.sqrt(lam), ua0, ua1, ub)


def _max_norms(stack: np.ndarray) -> np.ndarray:
    """``max_norm`` of each matrix of a (..., d, d) stack."""
    return np.abs(stack).max(axis=(-2, -1))


def no_bit_commitment_demo(d: int, seed: int) -> RunReport:
    """Run the full reduction at dimension d with a seeded generator (PCG64).

    Draws a random full-rank commitment pair, confirms it is perfectly
    concealing yet not binding, then drives ``DEMO_OBSERVABLES`` random
    observables through the measure-and-prepare channel built from the
    (equal) marginals: its adjoint sends every observable to Tr(rho_B O) I,
    and masks exactly the observables with unit expectation.
    """
    _require_dimension(d)
    rng = np.random.default_rng(seed)
    pair = random_commitment_pair(rng, d)
    gap = concealment_gap(pair)
    marginal_gap = max_norm(pair.marginal_b0 - pair.marginal_b1)
    cheat = cheating_unitary(pair)

    rho_b = pair.marginal_b0
    channel = measure_prepare_channel(rho_b, rho_b, d)
    # one draw, matrix after matrix, as single hermitian() draws would come;
    # hermitian(size=...) would draw every real part before any imaginary
    # part, and so change the observables a seed gives
    obs = samplers.hermitian_stack(rng, d, DEMO_OBSERVABLES)
    expectation = (rho_b @ obs).trace(axis1=-2, axis2=-1).real
    out = apply_adjoint(channel, obs)
    eye = np.eye(d)
    residual = _max_norms(out - expectation[:, None, None] * eye)
    masked = _max_norms(out - eye) < DEMO_MASKING_ATOL
    unit = np.abs(expectation - 1.0) < DEMO_MASKING_ATOL
    masking_consistent = int(np.count_nonzero(masked == unit))
    rescalable = np.abs(expectation) > DEMO_RESCALE_FLOOR
    rescaled = _max_norms(out[rescalable] / expectation[rescalable, None, None] - eye)
    hiding_residual = float(residual.max())
    proportional = int(np.count_nonzero(residual < DEMO_MASKING_ATOL))
    rescaled_total = int(np.count_nonzero(rescalable))
    rescaled_masked = int(np.count_nonzero(rescaled < DEMO_MASKING_ATOL))

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
