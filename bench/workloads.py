"""The four benchmark workloads: seeded inputs, the timed op, and its check.

Each workload builds a list of *blocks* of items from the seed; a block
holds the workload's full op mix.  ``run`` makes the library calls of one op
through a ``spans.Calls`` object; ``check`` compares what came back with a
reference that does not use the code path under test and returns ``None``
or the kind of failure.

The timed blocks hold only the kinds of input the library answers
correctly, so a timed op that fails is a regression.  The inputs that meet a
known defect of the library go into a separate *defect probe*, built from
the same seed by ``probe``: each probe item is run once per run, outside the
timed window, with the same checks.  ``check`` names each known defect with
one of the ``KNOWN_DEFECTS`` kinds, so a run tells them from new breakage.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from obsmask import bitcommit, bloch, comask, fileio, masking
from obsmask.bloch import BlochVector, ObservableCoeffs
from obsmask.errors import InfeasibleError, InvalidStateError, NoAffineSolutionError, ParseError

from inputs import (
    ATOL,
    adjoint_residual,
    bloch_of,
    coeffs_of,
    elementary_e3,
    expectation,
    haar_unitary,
    is_density,
    random_hermitian,
    random_state,
    rng_for,
    with_spectrum,
)

KNOWN_DEFECTS = {
    "nonstate_accepted": "positivity_conditions / comask_general accept a state "
    "with a planted eigenvalue of -1e-3 at d >= 8",
    "trace_equation": "find_common_output_state, comask_general and "
    "necessary_condition_d use a0/d + a.b = 1/2 instead of Tr(rho O) = 1, "
    "which differ for d > 2",
    "feasible_reported_infeasible": "find_common_output_state raises "
    "InfeasibleError on a feasible family (boundary cases)",
}

# Tolerance on Tr(rho O) = 1 for a state returned by the common-state search:
# the search stops at a Bloch-equation residual of 1e-7, and Tr(rho O) - 1 is
# twice that residual at d = 2.
COMMON_STATE_TOL = 1e-6


def _unexpected(what: str) -> str:
    return f"unexpected.{what}"


class Tally:
    """Useful outcomes over attempts, for the per-layer ratios."""

    RATIOS = (
        "masking.build_constant_masker.verified",
        "comask.find_common_output_state.solved",
        "comask.find_common_output_state.infeasible_certified",
        "comask.comask_general.nonstate_rejected",
    )

    def __init__(self):
        self.counts = {name: [0, 0] for name in self.RATIOS}

    def add(self, name: str, useful: bool) -> None:
        entry = self.counts[name]
        entry[0] += int(useful)
        entry[1] += 1


# --------------------------------------------------------------------------
# qubit-scan: many cheap decisions, mostly at d = 2


def _observable_item(rng, d: int, boundary: bool, necessary: bool = False) -> dict:
    if boundary:
        lam = rng.uniform(-1.0, 1.0, d)
        lam[int(np.argmax(lam))] = 1.0
    else:
        # about 1/3 of d=2 and 1/2 of d=3 observables are maskable; an even
        # split would put the median op between the with-masker and
        # without-masker costs, where it jumps from seed to seed
        lam = rng.uniform(-1.0, 1.5, d)
    obs = with_spectrum(haar_unitary(rng, d), lam)
    a0, a = coeffs_of(obs)
    return {
        "op": f"necessary.d{d}" if necessary else f"observable.d{d}",
        "d": d,
        "obs": obs,
        "lo": float(lam.min()),
        "hi": float(lam.max()),
        "boundary": boundary,
        "a0": a0,
        "a": a,
    }


def _nohide_item(rng) -> dict:
    v = rng.normal(size=3)
    return {"op": "nohide", "n": v / np.linalg.norm(v)}


class QubitScan:
    name = "qubit-scan"
    # per block: generic d=2, generic d=3, boundary d=2, boundary d=3, no-hiding
    MIX = (80, 9, 2, 1, 8)
    N_BLOCKS = 40

    def build(self, seed: int) -> list[list[dict]]:
        n2, n3, b2, b3, nh = self.MIX
        blocks = []
        for i in range(self.N_BLOCKS):
            rng = rng_for(seed, self.name, i)
            items = (
                [_observable_item(rng, 2, False) for _ in range(n2)]
                + [_observable_item(rng, 3, False) for _ in range(n3)]
                + [_observable_item(rng, 2, True) for _ in range(b2)]
                + [_observable_item(rng, 3, True) for _ in range(b3)]
                + [_nohide_item(rng) for _ in range(nh)]
            )
            blocks.append([items[j] for j in rng.permutation(len(items))])
        return blocks

    def probe(self, seed: int) -> list[dict]:
        # necessary_condition_d rejects some maskable d=3 observables
        # (trace_equation), so it is called only here
        rng = rng_for(seed, self.name, "probe")
        return [_observable_item(rng, 3, b, necessary=True) for b in [False] * 90 + [True] * 30]

    def warm(self, blocks) -> None:
        pass

    def run(self, item: dict, calls) -> dict:
        if item["op"] == "nohide":
            return {"nohide": calls.call("masking.verify_nohiding", masking.verify_nohiding, item["n"])}
        obs = item["obs"]
        out = {"coeffs": calls.call("bloch.observable_coeffs", bloch.observable_coeffs, obs)}
        if item["op"].startswith("necessary"):
            out["necessary"] = calls.call(
                "masking.necessary_condition_d", masking.necessary_condition_d, out["coeffs"]
            )
            return out
        if item["d"] == 2:
            out["plane"] = calls.call(
                "masking.decide_maskable_qubit", masking.decide_maskable_qubit, out["coeffs"]
            )
        out["oracle"] = calls.call(
            "masking.decide_maskable_oracle", masking.decide_maskable_oracle, obs
        )
        if out["oracle"].maskable:
            channel = calls.call(
                "masking.build_constant_masker", masking.build_constant_masker, obs
            )
            out["channel"] = channel
            out["residual"] = calls.call(
                "masking.verify_masking", masking.verify_masking, channel, obs
            )
        return out

    def check(self, item: dict, out, tally: Tally) -> str | None:
        if isinstance(out, BaseException):
            return _unexpected(f"exception.{type(out).__name__}")
        if item["op"] == "nohide":
            rep = out["nohide"]
            ok = rep.verified and rep.swap_residual < 1e-10 and rep.recovery_residual < 1e-10
            return None if ok else _unexpected("nohiding")
        c = out["coeffs"]
        scale = max(1.0, abs(item["hi"]), abs(item["lo"]))
        if abs(c.a0 - item["a0"]) > ATOL * scale or np.max(np.abs(c.a - item["a"])) > ATOL * scale:
            return _unexpected("observable_coeffs")
        truth = item["lo"] <= 1.0 <= item["hi"]
        if "necessary" in out:
            # a maskable observable failing the "necessary" condition: the
            # bound is derived from a0/d + a.b = 1/2, not Tr(rho O) = 1
            return "trace_equation" if truth and not out["necessary"] else None
        lo, hi = out["oracle"].eig_range
        if abs(lo - item["lo"]) > ATOL * scale or abs(hi - item["hi"]) > ATOL * scale:
            return _unexpected("oracle_eig_range")
        in_band = min(abs(item["lo"] - 1.0), abs(item["hi"] - 1.0)) <= ATOL
        if (item["boundary"] or not in_band) and out["oracle"].maskable != truth:
            return _unexpected("oracle_verdict")
        if "plane" in out:
            a_norm = float(np.linalg.norm(item["a"]))
            if abs(a_norm - abs(1.0 - item["a0"])) > ATOL and out["plane"].maskable != out["oracle"].maskable:
                return _unexpected("plane_verdict")
        if "channel" in out:
            ref, tp = adjoint_residual(out["channel"].kraus, item["obs"])
            verified = out["residual"] < ATOL and ref < ATOL and tp < ATOL
            tally.add("masking.build_constant_masker.verified", verified)
            if not verified:
                return _unexpected("masker_residual")
        return None


# --------------------------------------------------------------------------
# highdim: few heavy calls at d in {8, 12, 16}


class HighDim:
    name = "highdim"
    DIMS = (8, 12, 16)
    # d=12 twice: the tail op (p95) then falls inside the cubic d=12 items,
    # not at the edge of the cheaper ops below them, where it jumps
    CUBIC_DIMS = (8, 12, 12)
    N_BLOCKS = 12
    NONSTATE_EIG = -1e-3

    def build(self, seed: int) -> list[list[dict]]:
        blocks = []
        for i in range(self.N_BLOCKS):
            rng = rng_for(seed, self.name, i)
            items = []
            for d in self.DIMS:
                items.append(self._masker(rng, d, degenerate=False))
                items.append(self._masker(rng, d, degenerate=True))
                items += [self._positivity(rng, d) for _ in range(3)]
                # k fixed by position, not drawn: comask's cost grows with
                # k, and the median op should not move with the seed
                items += [self._comask(rng, d, (i + d + j) % 4) for j in range(2)]
            for d in self.CUBIC_DIMS:
                rho, spec = random_state(rng, d)
                items.append({"op": f"cubic.d{d}", "d": d, "b": bloch_of(rho), "e3": elementary_e3(spec)})
            blocks.append([items[j] for j in rng.permutation(len(items))])
        return blocks

    def probe(self, seed: int) -> list[dict]:
        # at d >= 8 positivity_conditions and comask_general accept planted
        # non-states (nonstate_accepted); at every d > 2 the element of a
        # comask family solves a0/d + a.b = 1/2 (trace_equation)
        rng = rng_for(seed, self.name, "probe")
        items = []
        for d in self.DIMS:
            for k in range(4):
                items.append(self._positivity(rng, d, self.NONSTATE_EIG))
                items.append(self._comask(rng, d, k, nonstate=True))
                items.append(self._comask(rng, d, k, element=True))
        return items

    @staticmethod
    def _positivity(rng, d: int, planted: float | None = None) -> dict:
        rho, spec = random_state(rng, d, planted)
        return {"op": f"positivity.d{d}", "d": d, "b": bloch_of(rho), "spectrum": spec, "e2": float(np.poly(spec)[2])}

    @classmethod
    def _comask(cls, rng, d: int, k: int, nonstate: bool = False, element: bool = False) -> dict:
        """k + 1 states; with ``nonstate`` one of them is a planted non-state,
        with ``element`` the check also tests an element of the family."""
        points = [bloch_of(random_state(rng, d)[0]) for _ in range(k + 1)]
        if nonstate:
            points[int(rng.integers(0, k + 1))] = bloch_of(random_state(rng, d, cls.NONSTATE_EIG)[0])
        return {
            "op": f"comask.d{d}", "d": d, "points": points, "k": k, "nonstate": nonstate,
            "element": element, "weights": rng.normal(size=d * d - k - 1),
        }

    @staticmethod
    def _masker(rng, d: int, degenerate: bool) -> dict:
        lo = rng.uniform(-1.0, 0.5)
        hi = rng.uniform(1.5, 3.0)
        if degenerate:
            # two-level spectrum: the target state is full rank, d^2 Kraus ops
            lam = np.array([lo] * (d - d // 2) + [hi] * (d // 2))
        else:
            lam = np.concatenate(([lo, hi], rng.uniform(lo, hi, d - 2)))
        kind = "degenerate" if degenerate else "generic"
        return {"op": f"masker.{kind}.d{d}", "d": d, "obs": with_spectrum(haar_unitary(rng, d), lam)}

    def warm(self, blocks) -> None:
        # The structure tensor is built once per dimension and cached by the
        # library; building it here puts that cost in set-up, not in the ops.
        for d in self.DIMS:
            bloch.generator_basis(d)
        for d in self.CUBIC_DIMS:
            bloch.symmetric_tensor(d)

    def run(self, item: dict, calls):
        op = item["op"]
        d = item["d"]
        if op.startswith("masker"):
            channel = calls.call("masking.build_constant_masker", masking.build_constant_masker, item["obs"])
            residual = calls.call("masking.verify_masking", masking.verify_masking, channel, item["obs"])
            return channel, residual
        if op.startswith("positivity"):
            return calls.call("bloch.positivity_conditions", bloch.positivity_conditions, BlochVector(d, item["b"]))
        if op.startswith("comask"):
            return calls.call("comask.comask_general", comask.comask_general, item["points"], d)
        return calls.call("bloch.cubic_condition_value", bloch.cubic_condition_value, BlochVector(d, item["b"]))

    def check(self, item: dict, out, tally: Tally) -> str | None:
        op = item["op"]
        d = item["d"]
        if op.startswith("comask"):
            if item["nonstate"]:
                rejected = isinstance(out, InvalidStateError)
                tally.add("comask.comask_general.nonstate_rejected", rejected)
                if rejected:
                    return None
                if isinstance(out, BaseException):
                    return _unexpected(f"exception.{type(out).__name__}")
                return "nonstate_accepted"
            if isinstance(out, BaseException):
                return _unexpected(f"exception.{type(out).__name__}")
            if out.affine_dim != d * d - item["k"] - 1:
                return _unexpected("comask_dimension")
            if not item["element"]:
                return None
            element = out.element(item["weights"])
            true_res = max(abs(expectation(element.a0, element.a, b) - 1.0) for b in item["points"])
            code_res = max(abs(element.a0 / d + float(np.dot(element.a, b)) - 0.5) for b in item["points"])
            scale = 1.0 + abs(element.a0) + float(np.linalg.norm(element.a))
            if true_res <= 1e-8 * scale:
                return None
            return "trace_equation" if code_res <= 1e-8 * scale else _unexpected("comask_element")
        if isinstance(out, BaseException):
            return _unexpected(f"exception.{type(out).__name__}")
        if op.startswith("masker"):
            channel, residual = out
            ref, tp = adjoint_residual(channel.kraus, item["obs"])
            verified = residual < ATOL and ref < ATOL and tp < ATOL
            tally.add("masking.build_constant_masker.verified", verified)
            return None if verified else _unexpected("masker_residual")
        if op.startswith("positivity"):
            values, positive = out
            truth = item["spectrum"][0] >= -ATOL
            if positive != truth:
                return "nonstate_accepted" if positive else _unexpected("state_rejected")
            if abs(values[0] - item["e2"]) > ATOL:
                return _unexpected("positivity_e2")
            return None
        return None if abs(out - 6.0 * item["e3"]) <= ATOL * max(1.0, abs(out)) else _unexpected("cubic_value")


# --------------------------------------------------------------------------
# search: the common-state search and the bit-commitment demo


def planted_observable(rng, rho: np.ndarray, traceless: bool) -> np.ndarray:
    """Random observable with Tr(rho O) = 1 (traceless if asked)."""
    d = rho.shape[0]
    h = random_hermitian(rng, d)
    if not traceless:
        return h - np.trace(rho @ h).real * np.eye(d) + np.eye(d)
    # make h traceless, then move it along the traceless delta = rho - I/d
    # (Tr(rho delta) > 0 unless rho = I/d) until Tr(rho O) = 1
    delta = rho - np.eye(d) / d
    weight = np.trace(rho @ delta).real
    h = h - np.trace(h).real / d * np.eye(d)
    return h + (1.0 - np.trace(rho @ h).real) / weight * delta


class Search:
    """Common-state searches and bit-commitment demos.

    The search's iteration count, and so its time, swings from one iteration
    to the 10^4 cap with the shape of the family.  So the family *shapes*
    (spectra, overlaps, family size) come from a fixed seed and the run's
    seed draws a random unitary V per family, replacing each O by V O V^dag.
    Conjugation preserves the problem's geometry, so the mix of easy and hard
    searches is the same in every run while every input matrix changes with
    the seed.

    Each block draws all four kinds of family at every d.  The timed blocks
    keep the families the library solves (``timed``); the defect probe takes
    the others from block 0.
    """

    name = "search"
    DIMS = (2, 3, 4, 6)
    FAMILIES = ("full", "rank1", "boundary", "infeasible")
    DEMO_DIMS = (2, 3, 4)
    N_BLOCKS = 20
    SHAPE_SEED = 20220926

    @staticmethod
    def timed(item: dict) -> bool:
        """Every kind of family at d = 2, and traceless full-rank ones above.

        For d > 2 a family that is not traceless meets the trace_equation
        defect, and traceless rank-1 and boundary families can be reported
        infeasible (feasible_reported_infeasible); an infeasible family
        cannot be traceless."""
        return item["d"] == 2 or "seed" in item or (item["family"] == "full" and item["traceless"])

    def _block(self, seed: int, i: int) -> list[dict]:
        shapes = rng_for(self.SHAPE_SEED, self.name, i)
        rng = rng_for(seed, self.name, i)
        items = []
        for d in self.DIMS:
            for family in self.FAMILIES:
                # a traceless family makes both masking equations agree,
                # which separates search faults from the equation fault
                for traceless in ((False,) if family == "infeasible" else (False, True)):
                    items.append(self._family(shapes, haar_unitary(rng, d), d, family, traceless))
        # demos in every other block only: with one per block, the median op
        # would sit where the cheap searches give way to the dearer ones
        for d in self.DEMO_DIMS if i % 2 == 0 else ():
            items.append({"op": f"demo.d{d}", "d": d, "seed": int(rng.integers(0, 2**31))})
        return [items[j] for j in rng.permutation(len(items))]

    def build(self, seed: int) -> list[list[dict]]:
        return [[it for it in self._block(seed, i) if self.timed(it)] for i in range(self.N_BLOCKS)]

    def probe(self, seed: int) -> list[dict]:
        return [it for it in self._block(seed, 0) if not self.timed(it)]

    @staticmethod
    def _family(rng, rotation: np.ndarray, d: int, family: str, traceless: bool) -> dict:
        k = int(rng.integers(1, 4))
        if family == "full":
            rho = random_state(rng, d)[0]
            obs = [planted_observable(rng, rho, traceless) for _ in range(k)]
        elif family == "rank1":
            v = haar_unitary(rng, d)[:, 0]
            rho = np.outer(v, v.conj())
            obs = [planted_observable(rng, rho, traceless) for _ in range(k)]
        elif family == "boundary":
            # lambda_max = 1 exactly: only the top eigenvector masks it
            if traceless:
                lam = np.concatenate((-rng.dirichlet(np.ones(d - 1)), [1.0]))
            else:
                lam = np.concatenate((rng.uniform(-1.0, 0.95, d - 1), [1.0]))
            u = haar_unitary(rng, d)
            v = u[:, -1]
            rho = np.outer(v, v.conj())
            obs = [with_spectrum(u, lam)] + [planted_observable(rng, rho, traceless) for _ in range(k - 1)]
        else:
            # lambda_min > 1: O - I is positive definite, so no state masks O
            obs = [with_spectrum(haar_unitary(rng, d), rng.uniform(1.05, 3.0, d))]
            obs += [random_hermitian(rng, d) for _ in range(k - 1)]
        obs = [rotation @ o @ rotation.conj().T for o in obs]
        obs = [(o + o.conj().T) / 2 for o in obs]
        coeffs = [coeffs_of(o) for o in obs]
        return {
            "op": f"common.{family}.d{d}",
            "d": d,
            "family": family,
            "traceless": traceless,
            "obs": obs,
            "coeffs": [ObservableCoeffs(dimension=d, a0=a0, a=a) for a0, a in coeffs],
        }

    def warm(self, blocks) -> None:
        pass

    def run(self, item: dict, calls):
        if item["op"].startswith("demo"):
            rep = calls.call("bitcommit.no_bit_commitment_demo", bitcommit.no_bit_commitment_demo, item["d"], item["seed"])
            return rep, calls.call("report.RunReport.render", rep.render)
        return calls.call(
            "comask.find_common_output_state", comask.find_common_output_state, item["coeffs"], item["d"]
        )

    def check(self, item: dict, out, tally: Tally) -> str | None:
        if item["op"].startswith("demo"):
            if isinstance(out, BaseException):
                return _unexpected(f"exception.{type(out).__name__}")
            rep, text = out
            ok = (
                rep.get("concealment_gap") < 1e-10
                and rep.get("cheat_feasible")
                and rep.get("cheat_fidelity") > 1 - 1e-9
                and rep.get("hiding_residual_max") < 1e-9
                and text.startswith("version: ")
                and f"\ndim: {item['d']}\n" in text
            )
            return None if ok else _unexpected("bitcommit_demo")
        d = item["d"]
        feasible = item["family"] != "infeasible"
        infeasible_answer = isinstance(out, (InfeasibleError, NoAffineSolutionError))
        if isinstance(out, BaseException) and not infeasible_answer:
            return _unexpected(f"exception.{type(out).__name__}")
        # with d > 2 and a0 != 0 the library solves a different equation, so
        # any wrong answer on such a family is that defect
        equation_differs = d > 2 and not item["traceless"]
        if infeasible_answer:
            tally.add("comask.find_common_output_state.infeasible_certified", not feasible)
            if feasible:
                tally.add("comask.find_common_output_state.solved", False)
                return "trace_equation" if equation_differs else "feasible_reported_infeasible"
            return None
        rho = out
        true_res = max(abs(np.trace(rho @ o).real - 1.0) for o in item["obs"])
        valid = is_density(rho) and true_res <= COMMON_STATE_TOL
        if feasible:
            tally.add("comask.find_common_output_state.solved", valid)
        if valid and feasible:
            return None
        b = bloch_of(rho)
        code_res = max(abs(c.a0 / d + float(np.dot(c.a, b)) - 0.5) for c in item["coeffs"])
        if equation_differs and is_density(rho) and code_res <= COMMON_STATE_TOL:
            return "trace_equation"
        return _unexpected("common_state")


# --------------------------------------------------------------------------
# cli-session: the command line, one call at a time


def _num(x: float) -> str:
    return repr(float(x))


def _matrix_text(m: np.ndarray) -> str:
    rows = [" ".join(f"{_num(z.real)},{_num(z.imag)}" for z in row) for row in m]
    return f"matrix {m.shape[0]} {m.shape[1]}\n" + "\n".join(rows) + "\n"


def _coeffs_text(obs: np.ndarray) -> str:
    a0, a = coeffs_of(obs)
    return f"coeffs {obs.shape[0]} " + " ".join(_num(v) for v in [a0, *a]) + "\n"


def maskable_observable(rng, d: int) -> np.ndarray:
    lam = np.concatenate(([rng.uniform(-1.0, 0.5), rng.uniform(1.5, 3.0)], rng.uniform(-1.0, 3.0, d - 2)))
    return with_spectrum(haar_unitary(rng, d), lam)


def cli_inputs(seed: int) -> dict:
    """Input files for the CLI session: name -> text, and the observables."""
    rng = rng_for(seed, "cli-session")
    obs = {d: maskable_observable(rng, d) for d in (2, 4)}
    obs.update({f"c{d}": maskable_observable(rng, d) for d in (2, 4)})
    common = random_state(rng, 2)[0]
    states = [bloch_of(random_state(rng, 2)[0]) for _ in range(2)]
    b, b_prime = (bloch_of(random_state(rng, 2)[0]) for _ in range(2))
    files = {
        "d2.matrix": _matrix_text(obs[2]),
        "d4.matrix": _matrix_text(obs[4]),
        "d2.coeffs": _coeffs_text(obs["c2"]),
        "d4.coeffs": _coeffs_text(obs["c4"]),
        "common1.matrix": _matrix_text(planted_observable(rng, common, False)),
        "common2.matrix": _matrix_text(planted_observable(rng, common, False)),
        "states.txt": "".join(" ".join(_num(x) for x in s) + "\n" for s in states),
        "b.bloch": "bloch 2 " + " ".join(_num(x) for x in b) + "\n",
        "bprime.bloch": "bloch 2 " + " ".join(_num(x) for x in b_prime) + "\n",
    }
    theta, phi = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi)
    demo_seed = int(rng.integers(0, 2**31))
    argvs = [
        ["maskable", "--observable", "d2.matrix", "--method", "both"],
        ["maskable", "--observable", "d4.coeffs", "--method", "both"],
        ["mask", "--observable", "d2.coeffs", "--out", "d2.kraus"],
        ["mask", "--observable", "d4.matrix", "--out", "d4.kraus"],
        ["nohide", "--theta", _num(theta), "--phi", _num(phi)],
        ["comask", "--states", "states.txt", "--dim", "2"],
        ["common-state", "--observables", "common1.matrix", "common2.matrix"],
        ["counterexample", "--b", "b.bloch", "--bprime", "bprime.bloch", "--dim", "2"],
        ["bitcommit-demo", "--dim", "2", "--seed", str(demo_seed)],
        ["bitcommit-demo", "--dim", "3", "--seed", str(demo_seed)],
        ["selftest"],
    ]
    masked = {"d2.kraus": obs["c2"], "d4.kraus": obs[4]}
    return {"files": files, "argvs": argvs, "masked": masked}


def write_cli_inputs(seed: int, workdir: Path) -> dict:
    spec = cli_inputs(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in spec["files"].items():
        (workdir / name).write_text(text, encoding="utf-8")
    return spec


class CliSession:
    name = "cli-session"

    def __init__(self, root: Path, workdir: Path):
        self.src = root / "src"
        self.workdir = workdir
        self.masked: dict[str, np.ndarray] = {}  # Kraus file -> masked observable
        self.first_output: dict[int, tuple[bytes, bytes | None]] = {}

    def build(self, seed: int) -> list[list[dict]]:
        spec = write_cli_inputs(seed, self.workdir)
        self.masked = spec["masked"]
        return [[{"op": f"cli.{argv[0]}", "index": i, "argv": argv} for i, argv in enumerate(spec["argvs"])]]

    def probe(self, seed: int) -> list[dict]:
        return []

    def _env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        return env

    def warm(self, blocks) -> None:
        # one call compiles the package's bytecode, which users pay only once
        item = blocks[0][0]
        subprocess.run(
            [sys.executable, "-m", "obsmask.cli", *item["argv"]],
            cwd=self.workdir, env=self._env(), capture_output=True, check=True, timeout=60,
        )

    def run(self, item: dict, calls):
        return calls.call(
            item["op"], subprocess.run,
            [sys.executable, "-m", "obsmask.cli", *item["argv"]],
            cwd=self.workdir, env=self._env(), capture_output=True, timeout=60,
        )

    def check(self, item: dict, out, tally: Tally) -> str | None:
        if isinstance(out, BaseException):
            return _unexpected(f"exception.{type(out).__name__}")
        if out.returncode != 0:
            return _unexpected("exit_code")
        written = None
        if item["argv"][0] == "mask":
            name = item["argv"][item["argv"].index("--out") + 1]
            text = (self.workdir / name).read_text(encoding="utf-8")
            written = text.encode()
            blocks = [blk for blk in text.split("\n\n") if blk.strip()]
            kraus = []
            for blk in blocks:
                try:
                    kind, value = fileio.parse_document(blk)
                except ParseError:
                    return _unexpected("mask_output_parse")
                if kind != "matrix":
                    return _unexpected("mask_output_kind")
                kraus.append(value)
            res, tp = adjoint_residual(kraus, self.masked[name])
            if res >= ATOL or tp >= ATOL:
                return _unexpected("mask_output_residual")
        first = self.first_output.setdefault(item["index"], (out.stdout, written))
        if first != (out.stdout, written):
            return _unexpected("report_not_byte_identical")
        return None


def make(name: str, root: Path, workdir: Path):
    if name == "cli-session":
        return CliSession(root, workdir)
    return {"qubit-scan": QubitScan, "highdim": HighDim, "search": Search}[name]()


WORKLOADS = ("qubit-scan", "highdim", "search", "cli-session")
