"""Smoke test of the benchmark itself: every workload at a tiny size.

Run with ``python3 -m pytest perfbench/test_smoke.py -s`` (``-s`` shows the
unaccounted remainder of each traced run).  It checks that the metric names
the benchmark prints are the ones ``BENCHMARK.json`` declares, that the
traced layers account for the traced wall time, and that the benchmark
refuses to run where there is no package to measure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# Share of a traced run's wall time that may lie outside every span and
# outside import: interpreter teardown, the in-process workloads' own loop
# and the wrappers' own cost around each call.
MAX_UNACCOUNTED = 0.3


def _run(workload, trace, tmp_path, cwd=HERE.parent):
    saved = tmp_path / f"{workload}_{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke", "--save", str(saved)],
        capture_output=True, text=True, timeout=170,
    )
    return proc, saved


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_declared(workload, tmp_path):
    proc, _ = _run(workload, 0, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_account_for_wall(workload, tmp_path):
    proc, saved = _run(workload, 1, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("per_layer")

    self_times = [name for name, unit in emitted.items()
                  if unit == "s" and name not in ("import_s", "unaccounted_s", "traced_wall_s")]
    for sample in json.loads(saved.read_text())["layer_samples"]:
        assert all(sample[name] >= 0 for name in self_times)
        wall = sample["traced_wall_s"]
        accounted = sum(sample[name] for name in self_times) + sample["import_s"]
        remainder = wall - accounted
        print(f"{workload}: traced wall {wall:.3f} s, layers {accounted - sample['import_s']:.3f} s "
              f"(cli {sample['cli.self_s']:.3f} s), import {sample['import_s']:.3f} s, "
              f"unaccounted {remainder:.3f} s")
        assert remainder == pytest.approx(sample["unaccounted_s"], abs=1e-9)
        assert 0 <= remainder <= MAX_UNACCOUNTED * wall


def test_refuses_without_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc, _ = _run(WORKLOADS[0], 0, tmp_path, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
