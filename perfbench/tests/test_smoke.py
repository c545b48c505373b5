"""Smoke tests of the benchmark: tiny inputs, every workload, both modes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_and_passes_its_checks(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    record = json.loads((ROOT / ".bench_out" / "results" /
                         f"{workload}-seed0-trace{trace}.json").read_text())
    assert record["pinned"], "seed 0 of the smoke inputs has pinned outcomes"


def test_fleet_no_op_latency_comes_from_every_fourth_trade_repeated():
    proc = _run("--workload", "fleet", "--seed", "1", "--seconds", "1", "--trace", "0",
                "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
    record = json.loads((ROOT / ".bench_out" / "results" /
                         "fleet-seed1-trace0.json").read_text())
    # 3 robots, 2 forays: 12 trades a trial; the no-op latency is over the
    # 3 repeats alone, whatever no-op trades the trial made itself
    assert record["detail"]["noop_trades"] == 3
    assert record["detail"]["trades"] <= 12


def test_all_prints_every_end_to_end_metric_with_its_unit():
    proc = _run("--all", "--seed", "0", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for metric in SPEC["end_to_end"]:
        assert any(line.split()[:2] == [metric["name"], metric["unit"]] for line in lines)
    assert any(line.startswith("failed_frac") for line in lines)


def test_fails_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_probe_leaves_its_slices_out_of_the_clock():
    sys.path.insert(0, str(BENCH))
    try:
        from speed import SpeedProbe

        before = signal.getsignal(signal.SIGALRM)
        probe = SpeedProbe()
        t0, c0 = time.perf_counter(), probe.clock()
        probe.start()
        try:
            while time.perf_counter() - t0 < 0.5:
                pass
        finally:
            probe.stop()
        wall, program = time.perf_counter() - t0, probe.clock() - c0
        assert len(probe.slices) >= 3
        assert abs((wall - program) - probe.spent) < 1e-3
        assert probe.slowness() > 0
        assert signal.getsignal(signal.SIGALRM) is before
    finally:
        sys.path.remove(str(BENCH))


def test_tracer_wraps_every_name_a_function_is_imported_under():
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import expmarket.cli  # noqa: F401
        from expmarket import integrity, merging, patches, sim
        from tracing import Tracer

        originals = (merging.execute_trade, sim.execute_trade, patches.build_patch,
                     integrity.build_patch)
        tracer = Tracer()
        tracer.install()
        try:
            assert sim.execute_trade is merging.execute_trade
            assert integrity.build_patch is patches.build_patch
            assert merging.execute_trade is not originals[0]
            assert integrity.build_patch is not originals[3]
        finally:
            tracer.uninstall()
        assert (merging.execute_trade, sim.execute_trade, patches.build_patch,
                integrity.build_patch) == originals
    finally:
        sys.path.remove(str(BENCH))
        sys.path.remove(str(ROOT / "src"))
