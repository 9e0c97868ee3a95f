"""Command-line front end exposing every decision, construction, and
verification as a subcommand.

Exit codes: 0 when the computation ran (mathematical verdicts live in the
report), 1 when ``selftest`` finds a failed invariant, 2 on input or parse
errors, 3 on numerical failure.

Each handler imports the modules it runs, so a call loads only what its
subcommand needs, and returns its report; ``main`` puts the ``command``
entry first.  The handlers check no input themselves: ``fileio`` refuses a
document of the wrong kind or dimension at its token, its error naming the
file, and the library refuses the rest.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import (
    InfeasibleError,
    NoAffineSolutionError,
    NumericalFailureError,
    ObsMaskError,
    ParseError,
)
from .report import RunReport


def _parse(path: str, parse, *args, **kwargs):
    """``parse(text, *args, **kwargs)`` on the text of the file at ``path``;
    a ``ParseError`` it raises names the file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return parse(text, *args, **kwargs)
    except ParseError as exc:
        exc.source = path
        raise


def _load(path: str, *kinds: str, dim: int | None = None):
    """The value of the document in the file at ``path``, whose kind must be
    one of ``kinds`` and, with ``dim`` given, whose dimension must be
    ``dim``."""
    from . import fileio

    return _parse(path, fileio.parse_as, *kinds, dim=dim)


def _observable_views(path: str, dim: int | None):
    """Matrix and coefficient views of an observable file."""
    from . import bloch

    value = _load(path, "matrix", "coeffs", dim=dim)
    if isinstance(value, bloch.ObservableCoeffs):
        coeffs = value
        matrix = bloch.coeffs_to_observable(coeffs)
    else:
        matrix = value
        coeffs = bloch.observable_coeffs(matrix)
    return matrix, coeffs


def _cmd_maskable(args) -> RunReport:
    from . import masking

    matrix, coeffs = _observable_views(args.observable, args.dim)
    d = coeffs.dimension
    report = RunReport()
    report.add("dim", d)
    report.add("method", args.method)
    verdicts = []
    plane_distance = None
    eig_range = None
    necessary = None
    if args.method in ("bloch", "both"):
        if d == 2:
            v = masking.decide_maskable_qubit(coeffs)
            verdicts.append(v.maskable)
            plane_distance = v.plane_distance
        else:
            necessary = masking.necessary_condition_d(coeffs)
    if args.method in ("oracle", "both"):
        v = masking.decide_maskable_oracle(matrix)
        verdicts.append(v.maskable)
        eig_range = v.eig_range
    if verdicts:
        report.add("maskable", all(verdicts))
        if len(verdicts) == 2:
            report.add("methods_agree", verdicts[0] == verdicts[1])
    if plane_distance is not None:
        report.add("plane_distance", plane_distance)
    if eig_range is not None:
        report.add("eig_range", eig_range)
    if necessary is not None:
        report.add("necessary_condition", necessary)
        if not verdicts:
            report.add("note", "necessary-only: condition failure disproves "
                               "maskability, passing it does not prove it")
    return report


def _cmd_mask(args) -> RunReport:
    from . import fileio, masking

    matrix, coeffs = _observable_views(args.observable, args.dim)
    report = RunReport()
    report.add("dim", coeffs.dimension)
    verdict, channel = masking.oracle_masker(matrix)
    report.add("maskable", verdict.maskable)
    report.add("eig_range", verdict.eig_range)
    if channel is None:
        report.add("note", "no masker exists; output not written")
        return report
    Path(args.out).write_text(fileio.render_kraus(channel), encoding="utf-8")
    report.add("kraus_count", int(channel.support.sum()))
    report.add("adjoint_residual", masking.verify_masking(channel, matrix))
    report.add("out", args.out)
    return report


def _cmd_nohide(args) -> RunReport:
    from . import masking

    theta, phi = args.theta, args.phi
    n = np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    u0, u1 = (
        None if path is None else _load(path, "matrix") for path in (args.u0, args.u1)
    )
    result = masking.verify_nohiding(n, u0, u1)
    report = RunReport()
    report.add("direction", n)
    report.add("swap_residual", result.swap_residual)
    report.add("recovery_residual", result.recovery_residual)
    report.add("verified", result.verified)
    return report


def _cmd_comask(args) -> RunReport:
    from . import comask, fileio

    points = _parse(args.states, fileio.parse_bloch_lines)
    desc = comask.comask_general(points, args.dim)
    d = args.dim
    k = d * d - 1 - desc.affine_dim
    report = RunReport()
    report.add("dim", d)
    report.add("n_states", len(points))
    report.add("input_affine_dim", k)
    report.add("kind", desc.kind)
    report.add("comask_affine_dim", desc.affine_dim)
    report.add("base_point", desc.coefficient_set.base_point)
    return report


def _cmd_common_state(args) -> RunReport:
    from . import bloch, comask

    coeff_list = []
    for path in args.observables:
        _, coeffs = _observable_views(path, None)
        coeff_list.append(coeffs)
    d = coeff_list[0].dimension
    report = RunReport()
    report.add("dim", d)
    report.add("n_observables", len(coeff_list))
    try:
        rho = comask.find_common_output_state(coeff_list, d)
    except InfeasibleError as exc:
        report.add("feasible", False)
        report.add("residual", exc.residual)
        return report
    except NoAffineSolutionError:
        report.add("feasible", False)
        report.add("reason", "masking equations are mutually inconsistent")
        return report
    b = bloch.state_to_bloch(rho)
    residual = max(
        abs(c.a0 / 2 + float(np.dot(c.a, b.b)) - 0.5) for c in coeff_list
    )
    report.add("feasible", True)
    report.add("state_bloch", b.b)
    report.add("constraint_residual", residual)
    return report


def _cmd_counterexample(args) -> RunReport:
    from . import comask

    b, bp = (_load(path, "bloch", dim=args.dim) for path in (args.b, args.bprime))
    out = comask.universal_counterexample(b.b, bp.b, args.dim)
    d = args.dim
    report = RunReport()
    report.add("dim", d)
    report.add("a0", out.a0)
    report.add("a", out.a)
    report.add("value_at_bprime", out.a0 / 2 + float(np.dot(out.a, bp.b)))
    report.add("value_at_b", out.a0 / 2 + float(np.dot(out.a, b.b)))
    report.add("margin", abs(float(np.dot(out.a, b.b - bp.b))))
    return report


def _cmd_bitcommit_demo(args) -> RunReport:
    from . import bitcommit

    return bitcommit.no_bit_commitment_demo(args.dim, args.seed)


def _cmd_selftest(_args) -> RunReport:
    from . import invariants

    report = RunReport()
    rng = np.random.default_rng(2024)
    total_pass = total_fail = 0
    for inv in invariants.REGISTRY.values():
        ok = bad = 0
        for setting, count in inv.selftest:
            passed, failed = inv.run(rng, setting, count)
            ok += passed
            bad += failed
        total_pass += ok
        total_fail += bad
        report.add(inv.name, f"{ok} passed, {bad} failed")
    report.add("total_passed", total_pass)
    report.add("total_failed", total_fail)
    report.add("all_passed", total_fail == 0)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obsmask",
        description="Decide, construct, and verify maskings of quantum observables.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("maskable", help="decide whether an observable is maskable")
    p.add_argument("--observable", required=True, help="matrix or coeffs file")
    p.add_argument("--method", choices=["bloch", "oracle", "both"], default="both")
    p.add_argument("--dim", type=int, default=None)
    p.set_defaults(func=_cmd_maskable)

    p = sub.add_parser("mask", help="construct a constant masker channel")
    p.add_argument("--observable", required=True)
    p.add_argument("--out", required=True, help="output file for the Kraus family")
    p.add_argument("--dim", type=int, default=None)
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("nohide", help="verify the no-hiding swap identity")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--u0", default=None, help="optional environment unitary file")
    p.add_argument("--u1", default=None, help="optional environment unitary file")
    p.set_defaults(func=_cmd_nohide)

    p = sub.add_parser("comask", help="characterize the comaskable set of a state list")
    p.add_argument("--states", required=True, help="file with one bloch vector per line")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_cmd_comask)

    p = sub.add_parser("common-state", help="search a state masking all observables")
    p.add_argument("--observables", nargs="+", required=True)
    p.set_defaults(func=_cmd_common_state)

    p = sub.add_parser("counterexample", help="observable separating two output states")
    p.add_argument("--b", required=True, help="bloch file")
    p.add_argument("--bprime", required=True, help="bloch file")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("bitcommit-demo", help="run the no-bit-commitment reduction")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bitcommit_demo)

    p = sub.add_parser("selftest", help="run the built-in invariant suites")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ObsMaskError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.entries.insert(0, ("command", args.subcommand))
    sys.stdout.write(report.render())
    if args.subcommand == "selftest" and not report.get("all_passed"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
