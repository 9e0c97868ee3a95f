"""Tests of the benchmark itself.  Run from the repository root with

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import workloads  # noqa: E402
from obsmask.errors import InfeasibleError  # noqa: E402
from spans import Calls  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_end_to_end_metric(workload):
    res = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1
    assert res["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    res = _result(_run("--workload", "qubit-scan", "--seed", "3", "--seconds", "0.2", "--trace", "1"))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert res["metrics"]["bloch.symmetric_tensor.d16.peak_alloc_mb"]["value"] > 0
    assert (ROOT / ".bench_out" / "spans-qubit-scan-seed3.jsonl").is_file()


def _digest(name: str, seed: int) -> str:
    if name == "cli-session":
        return inputs.digest(workloads.cli_inputs(seed))
    return inputs.digest(workloads.make(name, ROOT, ROOT / ".bench_out" / "unused").build(seed))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    assert _digest(workload, 5) == _digest(workload, 5)
    assert _digest(workload, 5) != _digest(workload, 6)


def test_cli_session_reports_are_byte_identical_across_repeats(tmp_path):
    wl = workloads.CliSession(ROOT, tmp_path)
    (block,) = wl.build(7)
    tally = workloads.Tally()
    for _ in range(2):
        for item in block:
            assert wl.check(item, wl.run(item, Calls()), tally) is None, item["argv"]
    assert len(wl.first_output) == len(block)


def test_checks_name_the_known_defects():
    """Wrong answers the library is known to give on the defect probe are
    classified, not passed: a planted non-state accepted, and a feasible
    boundary family reported infeasible."""
    tally = workloads.Tally()
    hd = workloads.HighDim()
    item = next(i for i in hd.probe(1) if i["op"] == "positivity.d8" and i["spectrum"][0] < 0)
    assert hd.check(item, (np.array([item["e2"]]), True), tally) == "nonstate_accepted"
    assert hd.check(item, (np.array([item["e2"]]), False), tally) is None

    search = workloads.Search()
    family = next(i for i in search.probe(1) if i["op"] == "common.boundary.d3" and i["traceless"])
    infeasible = InfeasibleError("stalled", residual=0.1)
    assert search.check(family, infeasible, tally) == "feasible_reported_infeasible"
    general = next(i for i in search.probe(1) if i["op"] == "common.boundary.d3" and not i["traceless"])
    assert search.check(general, infeasible, tally) == "trace_equation"


def test_timed_blocks_and_probe_split_the_search_families():
    search = workloads.Search()
    timed = [i for blk in search.build(1) for i in blk]
    probe = search.probe(1)
    assert all(search.timed(i) for i in timed) and not any(search.timed(i) for i in probe)
    assert {i["family"] for i in probe} == set(search.FAMILIES)


def test_unknown_failure_makes_the_run_incorrect():
    qs = workloads.QubitScan()
    item = next(i for blk in qs.build(1) for i in blk if i["op"] == "observable.d2")
    out = qs.run(item, Calls())
    out["oracle"] = type(out["oracle"])(maskable=not out["oracle"].maskable, method="oracle",
                                       eig_range=out["oracle"].eig_range)
    kind = qs.check(item, out, workloads.Tally())
    assert kind is not None and kind not in workloads.KNOWN_DEFECTS


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "qubit-scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
