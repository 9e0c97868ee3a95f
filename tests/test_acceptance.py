"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every seed, dimension and sample count is pinned here; criteria 1,
3, 5, 6, 8 and 9 run the checks and tolerances of ``obsmask.invariants``,
the ones ``obsmask selftest`` runs at small counts.
"""

import numpy as np

from obsmask import algebra, bitcommit, bloch, comask, masking, samplers
from obsmask.channels import apply_forward
from obsmask.errors import InfeasibleError
from obsmask.invariants import REGISTRY

S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = (KET0 + KET1) / np.sqrt(2)
MINUS = (KET0 - KET1) / np.sqrt(2)


def _finish(number, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, f"criterion {number}: " + "; ".join(failures[:5])


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1001)
    failures = []
    _, disagreements = REGISTRY["qubit_oracle_agreement"].run(rng, 2, 100_000)
    if disagreements > 0:
        failures.append(f"{disagreements} disagreements outside the boundary band")
    _finish(1, "oracle equivalence at d=2", failures)


def test_criterion_2_necessary_condition():
    failures = []
    for d in (2, 3, 4, 5):
        rng = np.random.default_rng(2000 + d)
        batch = samplers.hermitian(rng, d, size=(10_000,), scale=2.0)
        violations = 0
        for i in range(batch.shape[0]):
            obs = batch[i]
            if masking.decide_maskable_oracle(obs).maskable:
                if not masking.necessary_condition_d(bloch.observable_coeffs(obs)):
                    violations += 1
        if violations:
            failures.append(f"d={d}: {violations} maskable observables violate the bound")
        # witness: an observable violating the bound must be unmaskable
        witness = 0.5 * np.eye(d)
        c = bloch.observable_coeffs(witness)
        if masking.necessary_condition_d(c):
            failures.append(f"d={d}: witness unexpectedly satisfies the bound")
        if masking.decide_maskable_oracle(witness).maskable:
            failures.append(f"d={d}: witness unexpectedly maskable")
    _finish(2, "necessary condition in d", failures)


def test_criterion_3_masker_correctness():
    failures = []
    chan = masking.build_constant_masker(S3)
    expected = [np.outer(KET0, KET0.conj()), np.outer(KET0, KET1.conj())]
    if len(chan.kraus) != 2 or any(
        algebra.max_norm(k - e) > 1e-12 for k, e in zip(chan.kraus, expected)
    ):
        failures.append("sigma3 masker Kraus family differs from |0><0|, |0><1|")
    rng = np.random.default_rng(3001)
    for _ in range(50):
        out = apply_forward(chan, samplers.density(rng, 2))
        if algebra.max_norm(out - np.outer(KET0, KET0.conj())) > 1e-10:
            failures.append("forward image is not |0><0|")
            break
        b = bloch.state_to_bloch(out)
        if np.max(np.abs(b.b - np.array([0, 0, 0.5]))) > 1e-10:
            failures.append("forward image Bloch vector is not (0,0,1/2)")
            break
    if masking.verify_masking(chan, S3) > 1e-9:
        failures.append("sigma3 adjoint residual exceeds 1e-9")
    for d in (2, 3, 4, 5):
        rng_d = np.random.default_rng(3100 + d)
        passed, _ = REGISTRY["constant_maskers_verify"].run(rng_d, d, 1000)
        if passed < 1000:
            failures.append(f"d={d}: {1000 - passed}/1000 adjoint residuals > 1e-9")
    _finish(3, "masker correctness", failures)


def test_criterion_4_single_masker_exclusivity():
    failures = []
    chan = masking.build_constant_masker(S3)
    for name, obs in (("sigma1", S1), ("sigma2", S2)):
        residual = masking.verify_masking(chan, obs)
        if residual <= 0.9:
            failures.append(f"{name} residual {residual} not > 0.9")
    sz = bloch.ObservableCoeffs(2, 0.0, np.array([0.0, 0.0, 1.0]))
    sx = bloch.ObservableCoeffs(2, 0.0, np.array([1.0, 0.0, 0.0]))
    try:
        comask.find_common_output_state([sz, sx], 2)
        failures.append("{sigma3, sigma1} unexpectedly feasible")
    except InfeasibleError:
        pass
    _finish(4, "no universal qubit masker mechanics", failures)


def test_criterion_5_nohiding():
    rng = np.random.default_rng(5001)
    failures = []
    passed, _ = REGISTRY["nohiding_swap_identity"].run(rng, 2, 1000)
    if passed < 1000:
        failures.append(f"{1000 - passed}/1000 swap or recovery residuals >= 1e-10")
    # the dilation realises its masker: tracing the environment out of
    # U'(rho (x) |0><0|)U'^dag gives the masker's output, onto which n.sigma
    # is masked
    rng = np.random.default_rng(5002)
    env = np.outer(KET0, KET0.conj())
    for _ in range(200):
        n = samplers.unit_vector(rng, 3)
        chan, dil = masking.build_masker_swap(n)
        residual = masking.verify_masking(chan, n[0] * S1 + n[1] * S2 + n[2] * S3)
        if residual >= masking.DECISION_ATOL:
            failures.append(f"swap masker adjoint residual {residual:.3e}")
            break
        rho = samplers.density(rng, 2)
        u = dil.unitary
        joint = u @ algebra.tensor(rho, env) @ algebra.dagger(u)
        gap = algebra.max_norm(
            algebra.partial_trace(joint, (2, 2), "B") - apply_forward(chan, rho)
        )
        if gap > 1e-12:
            failures.append(f"dilation output differs from the masker's by {gap:.3e}")
            break
    _finish(5, "no-hiding swap identity", failures)


def test_criterion_6_comask_geometry():
    failures = []
    rng = np.random.default_rng(6001)
    desc = comask.comask_qubit([[0.0, 0.0, 0.5]])
    for _ in range(50):
        m1, m2 = rng.normal(size=2) * 3
        if not desc.coefficient_set.contains([0.0, m1, m2, 1.0]):
            failures.append("expected plane element rejected")
            break
    for _ in range(50):
        el = desc.coefficient_set.sample(rng.normal(size=2) * 3)
        if abs(el[0]) > 1e-12 or abs(el[3] - 1.0) > 1e-9:
            failures.append("sampled element leaves the expected plane")
            break
    for d in (2, 3):
        for k in (0, 1, 2, 3):
            passed, _ = REGISTRY["comask_dimension_formula"].run(rng, (d, k), 200)
            if passed < 200:
                failures.append(f"d={d}, k={k}: dimension formula failed {200 - passed}/200")
    _finish(6, "comaskable geometry", failures)


def test_criterion_7_universal_counterexample():
    rng = np.random.default_rng(7001)
    failures = []
    for d in (2, 3):
        done = 0
        while done < 50:
            b = bloch.state_to_bloch(samplers.density(rng, d)).b
            bp = bloch.state_to_bloch(samplers.density(rng, d)).b
            if np.linalg.norm(b - bp) < 1e-3:
                continue
            done += 1
            out = comask.universal_counterexample(b, bp, d)
            # (Tr(rho O) - 1) / 2 from the matrices, at b' and at b
            obs = bloch.coeffs_to_observable(out)
            at_bp, at_b = (
                (np.trace(bloch.bloch_to_state(bloch.BlochVector(d, v)) @ obs).real - 1.0) / 2
                for v in (bp, b)
            )
            if abs(at_bp) > 1e-10:
                failures.append(f"d={d}: masking equation off at b' by {at_bp:.3e}")
            if abs(at_b) <= 1e-6:
                failures.append(f"d={d}: margin at b only {abs(at_b):.3e}")
    _finish(7, "universal-masker counterexample", failures)


def test_criterion_8_bitcommit_reduction():
    failures = []
    for d in (2, 3):
        # demo seeds 1..50; the generator argument is unused
        passed, _ = REGISTRY["bitcommit_mechanics"].run(None, d, 50)
        if passed < 50:
            failures.append(f"d={d}: {50 - passed}/50 demos conceal imperfectly, bind, or leak")
    pair = bitcommit.make_commitment_pair(
        [0.5, 0.5], [KET0, KET1], [PLUS, MINUS], [KET0, KET1]
    )
    cheat = bitcommit.cheating_unitary(pair)
    if algebra.max_norm(cheat.unitary_a - HADAMARD) > 1e-10:
        failures.append("Bell/Hadamard golden case does not yield the Hadamard")
    # a pair that is not concealing binds: Alice's best cheat reaches only
    # the root fidelity ||sqrt(rho_B0) sqrt(rho_B1)||_1 of the B-marginals
    theta = 0.7
    psi0 = np.array([1, 0, 0, 1]) / np.sqrt(2)
    psi1 = np.array([np.cos(theta), 0, 0, np.sin(theta)])
    pair = bitcommit.commitment_pair_from_vectors(psi0, psi1, (2, 2))
    cheat = bitcommit.cheating_unitary(pair)
    roots = []
    for psi in (psi0, psi1):
        m = psi.reshape(2, 2)
        vals, vecs = np.linalg.eigh(m.T @ m.conj())
        roots.append((vecs * np.sqrt(vals.clip(0.0))) @ vecs.conj().T)
    root_fidelity = np.linalg.svd(roots[0] @ roots[1], compute_uv=False).sum()
    if not bitcommit.concealment_gap(pair) > 0:
        failures.append("tilted Bell pair reads as concealing")
    if cheat.feasible:
        failures.append("tilted Bell pair admits an exact cheat")
    if abs(cheat.fidelity - root_fidelity) > 1e-12:
        failures.append(f"cheat fidelity {cheat.fidelity!r} != root fidelity {root_fidelity!r}")
    _finish(8, "no-bit-commitment reduction", failures)


def test_criterion_9_positivity_machinery():
    failures = []
    for d in (2, 3, 4):
        rng = np.random.default_rng(9000 + d)
        passed, _ = REGISTRY["bloch_codecs_and_positivity"].run(rng, d, 10_000)
        if passed < 10_000:
            failures.append(
                f"d={d}: {10_000 - passed} verdict, ball-identity or round-trip failures"
            )
    # the cubic value is 6 e_3, on states and non-states out to 1.2 times
    # the pure-state radius
    for d in (3, 4, 8, 16):
        rng = np.random.default_rng(9100 + d)
        radius = np.sqrt((d - 1) / (2 * d))
        for _ in range(200):
            direction = samplers.unit_vector(rng, d * d - 1)
            b = bloch.BlochVector(d, direction * rng.uniform(0, 1.2 * radius))
            value = bloch.cubic_condition_value(b)
            e3 = bloch.positivity_conditions(b)[0][1]
            if abs(value - 6 * e3) > 1e-12 * max(1.0, abs(value)):
                failures.append(f"d={d}: cubic value {value!r} != 6 e_3 = {6 * e3!r}")
                break
    _finish(9, "positivity machinery", failures)
