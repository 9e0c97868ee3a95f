"""obsmask benchmark: one closed-loop client, one process, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload qubit-scan --seed 1 --seconds 20 --trace 0

Prints a one-line JSON run record (environment, counts, failures by kind),
then, as the last line, the result object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics and writes the spans to
``.bench_out/``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One process with no worker threads: BLAS must not start its own pool.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

# set-up is timed this many times per run (this process plus fresh ones)
SETUP_SAMPLES = 7
TAIL_BEYOND = 10
PERCENTILE_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)
MODULES = ("algebra", "bloch", "channels", "masking", "comask", "bitcommit", "fileio", "report", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("qubit-scan", "highdim", "search", "cli-session"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time one set-up and exit")
    return p.parse_args(argv)


def set_up(name: str, seed: int, workdir: Path):
    """Import, input generation and warm-up; returns (workload, blocks, seconds)."""
    start = perf_counter()
    import obsmask

    src = (ROOT / "src").resolve()
    if src not in Path(obsmask.__file__).resolve().parents:
        raise SystemExit(f"obsmask imported from {obsmask.__file__}, not from {src}")
    import workloads

    wl = workloads.make(name, ROOT, workdir)
    blocks = wl.build(seed)
    wl.warm(blocks)
    elapsed = perf_counter() - start
    import speed

    probe = speed.SpeedProbe()
    for _ in range(40):
        probe.sample()
    # the host's speed right after set-up stands for its speed during set-up
    return wl, blocks, elapsed * probe.scale()


def measure(wl, blocks, seconds: float, calls) -> dict:
    """Closed loop over the blocks, again and again, until ``seconds`` have
    passed; every execution of every item is timed and checked.  Times are
    scaled to the reference host speed (speed.py)."""
    from speed import SpeedProbe
    from workloads import KNOWN_DEFECTS, Tally

    tally = Tally()
    times: dict[tuple[int, int], list[float]] = {}  # item -> seconds of each execution
    failures: dict[str, int] = {}
    tracebacks: dict[str, str] = {}  # first one of each unexpected kind
    probe = SpeedProbe()
    probe.sample()
    start = perf_counter()
    deadline = start + seconds
    b = 0
    while b < len(blocks) or perf_counter() < deadline:
        for j, item in enumerate(blocks[b % len(blocks)]):
            calls.begin_op(item["op"])
            t = perf_counter()
            try:
                out = wl.run(item, calls)
            except Exception as exc:  # the check decides whether it was expected
                out = exc
            dt = perf_counter() - t
            calls.end_op()
            times.setdefault((b % len(blocks), j), []).append(dt)
            try:
                kind = wl.check(item, out, tally)
            except Exception as exc:  # an output the check cannot read is a failure
                kind, out = f"unexpected.check.{type(exc).__name__}", exc
            if kind is not None:
                failures[kind] = failures.get(kind, 0) + 1
                if isinstance(out, Exception) and kind not in KNOWN_DEFECTS:
                    tracebacks.setdefault(kind, "".join(traceback.format_exception(out)))
            probe.maybe_sample()
        b += 1
    wall = perf_counter() - start
    probe.sample()
    scale = probe.scale()
    unexpected = {k: v for k, v in failures.items() if k not in KNOWN_DEFECTS}
    return {
        "wall_s": wall,
        "times": times,
        "scale": scale,
        "executions": sum(len(ts) for ts in times.values()),
        "speed_kernel_deciles_us": [round(x * 1e6, 1) for x in statistics.quantiles(probe.samples, n=10)],
        "failures": failures,
        "unexpected": unexpected,
        "tracebacks": tracebacks,
        "tally": tally.counts,
    }


def run_probe(wl, items: list[dict]) -> dict:
    """Each defect-probe item once, untimed, with the workload's checks.
    Known defects found here are reported, not counted as failed ops."""
    from spans import Calls
    from workloads import KNOWN_DEFECTS, Tally

    tally = Tally()
    wrong: dict[str, int] = {}
    tracebacks: dict[str, str] = {}
    for item in items:
        try:
            out = wl.run(item, Calls())
        except Exception as exc:  # the check decides whether it was expected
            out = exc
        try:
            kind = wl.check(item, out, tally)
        except Exception as exc:
            kind, out = f"unexpected.check.{type(exc).__name__}", exc
        if kind is not None:
            wrong[kind] = wrong.get(kind, 0) + 1
            if isinstance(out, Exception) and kind not in KNOWN_DEFECTS:
                tracebacks.setdefault(kind, "".join(traceback.format_exception(out)))
    return {
        "items": len(items),
        "wrong": dict(sorted(wrong.items())),
        "error_rate": sum(wrong.values()) / len(items) if items else 0.0,
        "unexpected": {k: v for k, v in wrong.items() if k not in KNOWN_DEFECTS},
        "tracebacks": tracebacks,
        "tally": tally.counts,
    }


def tail(xs: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND samples beyond it, else the median."""
    xs = sorted(xs)
    n = len(xs)
    for p in PERCENTILE_LADDER:
        rank = math.ceil(p * n / 100)  # nearest rank, 1-based
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return 50.0, statistics.median(xs)


def peak_rss_mb(workload: str) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli-session":
        # the work runs in the CLI processes, the only children so far
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def setup_samples(args, first: float) -> list[float]:
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args) -> dict:
    import hashlib

    import numpy

    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(),
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def summarize(m: dict) -> dict:
    """Timing statistics over the distinct items, each timed by the trimmed
    mean of its executions (speed.trimmed_mean), scaled to the reference
    host speed."""
    from speed import trimmed_mean

    per_item = [trimmed_mean(ts) * m["scale"] for ts in m["times"].values()]
    reps = [len(ts) for ts in m["times"].values()]
    pct, value = tail(per_item)
    failed = sum(m["failures"].values())
    n_exec = m["executions"]
    return {
        "items": len(per_item),
        "executions": n_exec,
        "executions_per_item_min": min(reps),
        "wall_s": m["wall_s"],
        "raw_busy_ops_per_s": n_exec / sum(sum(ts) for ts in m["times"].values()),
        "speed_scale": m["scale"],
        "speed_kernel_deciles_us": m["speed_kernel_deciles_us"],
        "ops_per_s": 1.0 / math.exp(statistics.fmean(math.log(x) for x in per_item)),
        "op_p50_ms": statistics.median(per_item) * 1e3,
        "op_mean_ms": statistics.fmean(per_item) * 1e3,
        "op_tail_ms": value * 1e3,
        "tail_percentile": pct,
        "tail_samples": len(per_item),
        "tail_samples_beyond": sum(1 for x in per_item if x > value),
        "failed": failed,
        "error_rate": failed / n_exec,
        "failures_by_kind": dict(sorted(m["failures"].items())),
        "ratios": {k: {"useful": u, "base": b} for k, (u, b) in m["tally"].items()},
    }


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for this process and every process it starts, so the speed
    # probe samples the CPU that does the measured work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl, blocks, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        from spans import Calls, SpanRecorder
        from workloads import KNOWN_DEFECTS

        record = environment(args)
        if args.trace == 0:
            m = measure(wl, blocks, args.seconds, Calls())
            rss = peak_rss_mb(args.workload)
            setups = setup_samples(args, setup_s)
            s = summarize(m)
            record.update(s, setup_samples_s=setups, peak_rss_mb=rss)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (s["ops_per_s"], "1/s"),
                "op_p50_ms": (s["op_p50_ms"], "ms"),
                "op_tail_ms": (s["op_tail_ms"], "ms"),
                "peak_rss_mb": (rss, "MB"),
            }
            runs = [m]
        else:
            import layers

            plain = measure(wl, blocks, args.seconds / 2, Calls())
            recorder = SpanRecorder()
            traced = measure(wl, blocks, args.seconds / 2, recorder)
            s = summarize(traced)
            s_plain = summarize(plain)
            metrics = layers.sweep(ROOT, args.seed, workdir / "layers")
            op_time = sum(sum(ts) for ts in traced["times"].values())  # the spans' clock
            totals = recorder.module_totals()
            for module in MODULES:
                calls, busy = totals.get(module, (0, 0.0))
                metrics[f"{module}.busy_share"] = (busy / op_time, "ratio")
                metrics[f"{module}.calls"] = (calls, "count")
            overhead = s["op_mean_ms"] / s_plain["op_mean_ms"] - 1.0
            metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
            OUT.mkdir(exist_ok=True)
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            recorder.write(span_file)
            record.update(s, untraced=s_plain, spans=len(recorder.spans), span_file=str(span_file.relative_to(ROOT)))
            runs = [plain, traced]
        probe = run_probe(wl, wl.probe(args.seed))
        if args.trace == 1:
            for name, (useful, base) in traced["tally"].items():
                useful += probe["tally"][name][0]
                base += probe["tally"][name][1]
                metrics[f"{name}_ratio"] = (useful / base if base else 0.0, "ratio")
                metrics[f"{name}_base"] = (base, "count")
            metrics["defects.probed"] = (probe["items"], "count")
            metrics["defects.error_rate"] = (probe["error_rate"], "ratio")
            for kind in KNOWN_DEFECTS:
                metrics[f"defects.{kind}.count"] = (probe["wrong"].get(kind, 0), "count")
        record["defect_probe"] = {k: probe[k] for k in ("items", "wrong", "error_rate")}
        record["known_defects"] = sorted({k for r in runs for k in r["failures"]} - {
            k for r in runs for k in r["unexpected"]})
        record["unexpected"] = {k: v for r in [*runs, probe] for k, v in r["unexpected"].items()}
        record["tracebacks"] = {k: v for r in [*runs, probe] for k, v in r["tracebacks"].items()}
        attempted = sum(r["executions"] for r in runs)
        failed = sum(sum(r["failures"].values()) for r in runs)
        print(json.dumps({"run": record}))
        print(result(not record["unexpected"], attempted, failed, metrics))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
