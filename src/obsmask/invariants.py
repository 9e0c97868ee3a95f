"""Registry of the library's invariants, in the order ``obsmask selftest``
reports them.

Each entry pairs a seeded sampler with a check and its tolerance, and
defines the property once: ``obsmask selftest`` runs every entry at small
counts, and the acceptance suite runs the same entries at its pinned seeds,
counts and dimensions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from . import algebra, bitcommit, bloch, comask, masking, samplers
from .errors import NotMaskableError

# A commitment pair counts as perfectly concealing below this trace distance.
CONCEALMENT_ATOL = 1e-10


@dataclass(frozen=True)
class Invariant:
    """One checked property.

    ``draw(rng, setting, count)`` yields cases; ``check(setting, case, tol)``
    says whether a case holds, or returns None for a case the property
    excludes.  A setting is a dimension d, or (d, k) for the comask formula.
    ``selftest`` lists the (setting, count) pairs ``obsmask selftest`` runs.
    """

    name: str
    draw: Callable[[np.random.Generator, Any, int], Iterable]
    check: Callable[[Any, Any, float], bool | None]
    tol: float
    selftest: tuple[tuple[Any, int], ...]

    def run(self, rng: np.random.Generator, setting, count: int) -> tuple[int, int]:
        """(passed, failed) over one draw, stopping after ``count`` checked
        cases; an unbounded draw (a rejection sampler) is cut off there."""
        passed = failed = 0
        for case in self.draw(rng, setting, count):
            verdict = self.check(setting, case, self.tol)
            if verdict is None:
                continue
            if verdict:
                passed += 1
            else:
                failed += 1
            if passed + failed == count:
                break
        return passed, failed


def _hermitian_batch(rng, d, count):
    return samplers.hermitian(rng, d, size=(count,))


def _eig_reconstructs(d, m, tol):
    return algebra.max_norm(algebra.eig_hermitian(m).reconstruct() - m) < tol


def _ball_points(rng, d, count):
    """Bloch vectors up to 1.2 times the pure-state radius, so non-states
    are drawn too."""
    r_ball = np.sqrt((d - 1) / (2.0 * d))
    for _ in range(count):
        direction = samplers.unit_vector(rng, d * d - 1)
        yield bloch.BlochVector(d, direction * rng.uniform(0.0, 1.2 * r_ball))


def _ball_point_consistent(d, b, tol):
    """Positivity verdict against the minimum eigenvalue, the e_2 ball
    identity, and the Bloch codec round trip."""
    values, positive = bloch.positivity_conditions(b)
    rho = bloch.bloch_to_state(b)
    is_state = float(np.linalg.eigvalsh(rho)[0]) >= -bloch.POSITIVITY_ATOL
    identity = abs(2 * values[0] - ((d - 1) / d - 2 * float(np.dot(b.b, b.b))))
    round_trip = algebra.max_norm(bloch.state_to_bloch(rho).b - b.b)
    return positive == is_state and identity <= tol and round_trip <= tol


def _oracle_agrees(d, obs, tol):
    c = bloch.observable_coeffs(obs)
    if abs(c.a_norm() - abs(1.0 - c.a0)) < tol:
        return None  # boundary band, where the two decisions may round apart
    plane = masking.decide_maskable_qubit(c).maskable
    return plane == masking.decide_maskable_oracle(obs).maskable


def _maskable_candidates(rng, d, count):
    return (samplers.hermitian(rng, d, scale=2.0) for _ in itertools.count())


def _masker_verifies(d, obs, tol):
    try:
        channel = masking.build_constant_masker(obs)
    except NotMaskableError:
        return None
    return masking.verify_masking(channel, obs) <= tol


def _directions(rng, d, count):
    return (samplers.unit_vector(rng, d * d - 1) for _ in range(count))


def _swap_identity_holds(d, n, tol):
    report = masking.verify_nohiding(n)
    return report.swap_residual < tol and report.recovery_residual < tol


def _state_sets(rng, setting, count):
    d, k = setting
    for _ in range(count):
        yield [bloch.state_to_bloch(samplers.density(rng, d)).b for _ in range(k + 1)]


def _comask_dimension(setting, points, tol):
    d, k = setting
    return abs(comask.comask_general(points, d).affine_dim - (d * d - k - 1)) <= tol


def _demo_seeds(rng, d, count):
    """Demo seeds 1..count; each demo seeds its own generator."""
    return range(1, count + 1)


def _demo_sound(d, seed, tol):
    """Concealing yet not binding, and the adjoint is proportional to I."""
    rep = bitcommit.no_bit_commitment_demo(d, seed)
    return bool(
        rep.get("concealment_gap") < CONCEALMENT_ATOL
        and rep.get("cheat_feasible")
        and rep.get("cheat_fidelity") > 1 - tol
        and rep.get("hiding_residual_max") < tol
    )


REGISTRY = {
    inv.name: inv
    for inv in (
        Invariant("algebra_eig_reconstruction", _hermitian_batch, _eig_reconstructs,
                  algebra.HERMITICITY_ATOL, ((2, 50), (3, 50), (4, 50))),
        Invariant("bloch_codecs_and_positivity", _ball_points, _ball_point_consistent,
                  1e-10, ((2, 50), (3, 50), (4, 50))),
        Invariant("qubit_oracle_agreement", _hermitian_batch, _oracle_agrees,
                  masking.DECISION_ATOL, ((2, 500),)),
        Invariant("constant_maskers_verify", _maskable_candidates, _masker_verifies,
                  masking.DECISION_ATOL, ((2, 25), (3, 25))),
        Invariant("nohiding_swap_identity", _directions, _swap_identity_holds,
                  1e-10, ((2, 50),)),
        # exact: the affine dimension is an integer
        Invariant("comask_dimension_formula", _state_sets, _comask_dimension,
                  0, tuple(((d, k), 10) for d in (2, 3) for k in (0, 1, 2))),
        Invariant("bitcommit_mechanics", _demo_seeds, _demo_sound,
                  1e-9, ((2, 5), (3, 5))),
    )
}
