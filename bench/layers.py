"""Per-layer sweep for traced runs: time per call of each module's public
functions at d in {2, 4, 8, 16}, the cold structure-tensor build, file I/O,
and the CLI's start-up and in-process costs."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from obsmask import algebra, bitcommit, bloch, channels, cli, comask, fileio, masking
from obsmask.bloch import BlochVector, ObservableCoeffs

from speed import SpeedProbe, trimmed_mean
from inputs import bloch_of, coeffs_of, haar_unitary, random_state, rng_for, with_spectrum
from workloads import maskable_observable, planted_observable, write_cli_inputs

DIMS = (2, 4, 8, 16)
TENSOR_DIMS = (4, 8, 12, 16)
# Each row repeats its call for at least this long and this many times, and
# reports the trimmed mean call (speed.trimmed_mean).
MIN_SECONDS = 0.05
MIN_CALLS = 5
STARTUP_REPEATS = 5
INPROC_REPEATS = 3


def per_call_seconds(fn, probe: SpeedProbe, min_seconds: float = MIN_SECONDS, min_calls: int = MIN_CALLS) -> float:
    """Typical call time; ``probe`` samples host speed between calls."""
    times = []
    end = perf_counter() + min_seconds
    while len(times) < min_calls or perf_counter() < end:
        t = perf_counter()
        fn()
        times.append(perf_counter() - t)
        probe.maybe_sample()
    return trimmed_mean(times)


def _row_inputs(seed: int, d: int) -> dict:
    rng = rng_for(seed, "layers", d)
    obs = maskable_observable(rng, d)
    rho = random_state(rng, d)[0]
    u = haar_unitary(rng, d)
    pairs = [(np.eye(d)[:, k], u[:, k]) for k in range(max(1, d // 2))]
    basis = [haar_unitary(rng, d) for _ in range(3)]
    pair = bitcommit.make_commitment_pair(
        rng.dirichlet(np.ones(d)), *([b[:, i] for i in range(d)] for b in basis)
    )
    common = random_state(rng, d)[0]
    family = [planted_observable(rng, common, True) for _ in range(2)]
    return {
        "obs": obs,
        "rho": rho,
        "bipartite": with_spectrum(haar_unitary(rng, d * d), rng.uniform(-1.0, 1.0, d * d)),
        "pairs": pairs,
        "pair": pair,
        "channel": masking.build_constant_masker(obs),
        "bloch": BlochVector(d, bloch_of(rho)),
        "points": [bloch_of(random_state(rng, d)[0]) for _ in range(3)],
        "family": [ObservableCoeffs(d, *coeffs_of(o)) for o in family],
        "demo_seed": int(rng.integers(0, 2**31)),
    }


def function_rows(seed: int, probe: SpeedProbe) -> dict[str, tuple[float, str]]:
    """``<module>.<function>.d<d>.us`` rows."""
    rows = {}
    for d in DIMS:
        x = _row_inputs(seed, d)
        calls = {
            "algebra.eig_hermitian": lambda: algebra.eig_hermitian(x["obs"]),
            "algebra.partial_trace": lambda: algebra.partial_trace(x["bipartite"], (d, d), "B"),
            "algebra.unitary_completion": lambda: algebra.unitary_completion(x["pairs"], d),
            "bloch.observable_coeffs": lambda: bloch.observable_coeffs(x["obs"]),
            "bloch.state_to_bloch": lambda: bloch.state_to_bloch(x["rho"]),
            "bloch.positivity_conditions": lambda: bloch.positivity_conditions(x["bloch"]),
            "channels.apply_adjoint": lambda: channels.apply_adjoint(x["channel"], x["obs"]),
            "channels.apply_forward": lambda: channels.apply_forward(x["channel"], x["rho"]),
            "masking.decide_maskable_oracle": lambda: masking.decide_maskable_oracle(x["obs"]),
            "masking.build_constant_masker": lambda: masking.build_constant_masker(x["obs"]),
            "masking.verify_masking": lambda: masking.verify_masking(x["channel"], x["obs"]),
            "comask.comask_general": lambda: comask.comask_general(x["points"], d),
            "comask.find_common_output_state": lambda: comask.find_common_output_state(x["family"], d),
            "bitcommit.no_bit_commitment_demo": lambda: bitcommit.no_bit_commitment_demo(d, x["demo_seed"]),
            "bitcommit.cheating_unitary": lambda: bitcommit.cheating_unitary(x["pair"]),
        }
        for name, fn in calls.items():
            rows[f"{name}.d{d}.us"] = (per_call_seconds(fn, probe) * 1e6, "us")
    rng = rng_for(seed, "layers", "nohide")
    v = rng.normal(size=3)
    n = v / np.linalg.norm(v)
    rows["masking.verify_nohiding.d2.us"] = (per_call_seconds(lambda: masking.verify_nohiding(n), probe) * 1e6, "us")
    return rows


_TENSOR_PROBE = """
import json, sys, tracemalloc
from time import perf_counter
from obsmask import bloch
d = int(sys.argv[1])
bloch.generator_basis(d)
tracemalloc.start()
t = perf_counter()
bloch.symmetric_tensor(d)
ms = (perf_counter() - t) * 1e3
print(json.dumps({"ms": ms, "peak_mb": tracemalloc.get_traced_memory()[1] / 2**20}))
"""


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def tensor_rows(root: Path) -> dict[str, tuple[float, str]]:
    """Cold ``symmetric_tensor`` build, each in a fresh process, with the
    peak of numpy allocations during the build from tracemalloc."""
    rows = {}
    for d in TENSOR_DIMS:
        proc = subprocess.run(
            [sys.executable, "-c", _TENSOR_PROBE, str(d)],
            env=_env(root), capture_output=True, text=True, check=True, timeout=120,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        rows[f"bloch.symmetric_tensor.d{d}.cold_ms"] = (probe["ms"], "ms")
        rows[f"bloch.symmetric_tensor.d{d}.peak_alloc_mb"] = (probe["peak_mb"], "MB")
    return rows


def fileio_rows(seed: int, probe: SpeedProbe) -> dict[str, tuple[float, str]]:
    rng = rng_for(seed, "layers", "fileio")
    channel = masking.build_constant_masker(maskable_observable(rng, 16))
    text = fileio.render_kraus(channel)

    def parse():
        return [fileio.parse_document(blk) for blk in text.split("\n\n")]

    return {
        "fileio.render.kraus_d16.us": (per_call_seconds(lambda: fileio.render_kraus(channel), probe) * 1e6, "us"),
        "fileio.parse.kraus_d16.us": (per_call_seconds(parse, probe) * 1e6, "us"),
    }


def _median_wall(argv, env, cwd, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = perf_counter()
        subprocess.run(argv, env=env, cwd=cwd, capture_output=True, check=True, timeout=60)
        times.append(perf_counter() - t)
    return float(np.median(times))


def cli_startup_rows(root: Path, workdir: Path) -> dict[str, tuple[float, str]]:
    """Interpreter start, and the extra time to import the CLI module."""
    env = _env(root)
    workdir.mkdir(parents=True, exist_ok=True)
    interpreter = _median_wall([sys.executable, "-c", "pass"], env, workdir, STARTUP_REPEATS)
    with_import = _median_wall([sys.executable, "-c", "import obsmask.cli"], env, workdir, STARTUP_REPEATS)
    return {
        "cli.interpreter_ms": (interpreter * 1e3, "ms"),
        "cli.import_ms": ((with_import - interpreter) * 1e3, "ms"),
    }


def cli_inproc_rows(seed: int, workdir: Path, probe: SpeedProbe) -> dict[str, tuple[float, str]]:
    """``cli.main(argv)`` per subcommand, stdout captured, on the session's inputs."""
    spec = write_cli_inputs(seed, workdir)
    rows = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in spec["argvs"]:
            name = f"cli.{argv[0]}.inproc_ms"
            if name in rows:
                continue

            def call(argv=argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"obsmask {argv[0]} failed")

            rows[name] = (per_call_seconds(call, probe, min_seconds=0.0, min_calls=INPROC_REPEATS) * 1e3, "ms")
    finally:
        os.chdir(cwd)
    return rows


def sweep(root: Path, seed: int, workdir: Path) -> dict[str, tuple[float, str]]:
    """All layer rows.  In-process rows are scaled to the reference host
    speed (speed.py); rows timed in a child process are not."""
    probe = SpeedProbe()
    rows = function_rows(seed, probe)
    rows.update(fileio_rows(seed, probe))
    rows.update(cli_inproc_rows(seed, workdir, probe))
    scale = probe.scale()
    rows = {name: (value * scale, unit) for name, (value, unit) in rows.items()}
    rows.update(cli_startup_rows(root, workdir))
    rows.update(tensor_rows(root))
    return rows
