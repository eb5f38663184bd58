#!/usr/bin/env python3
"""Summarise saved benchmark runs into a baseline, or compare runs against one.

Usage::

    python3 perfbench/compare.py summarise OUT.json RUN.json...
    python3 perfbench/compare.py BASELINE.json RUN.json...

``RUN.json`` files are written by ``run.py --save``.  A summary holds, per
workload, the median and quartiles over runs of every metric.  A comparison
prints, per workload and end-to-end metric, the ratio of the new median to
the baseline median and flags a change worse than the metric's bound in
``BENCHMARK.json``.  Results from different kernel backends are never
summarised or compared together: that exits with status 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(paths) -> list:
    return [json.loads(Path(p).read_text()) for p in paths]


def _refuse(message: str):
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _one_backend(docs) -> str:
    backends = {d["manifest"]["backend"] for d in docs}
    if len(backends) != 1:
        _refuse(f"refusing to mix results from backends {sorted(backends)}")
    return backends.pop()


def summarise(runs: list) -> dict:
    backend = _one_backend(runs)
    workloads = {}
    for run in runs:
        man = run["manifest"]
        entry = workloads.setdefault(man["workload"], {"seeds": [], "end_to_end": {}, "per_layer": {}})
        kind = "per_layer" if man["trace"] else "end_to_end"
        if not man["trace"]:
            entry["seeds"].append(man["seed"])
        for name, metric in run["result"]["metrics"].items():
            entry[kind].setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(
                metric["value"]
            )
    for entry in workloads.values():
        for kind in ("end_to_end", "per_layer"):
            for metric in entry[kind].values():
                values = metric.pop("values")
                q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                metric.update(median=q2, q1=q1, q3=q3, runs=len(values))
    first = runs[0]["manifest"]
    manifest = {k: first[k] for k in ("python", "numpy", "nproc", "git_commit", "source_sha256")}
    return {"backend": backend, "manifest": manifest, "workloads": workloads}


def compare(baseline: dict, runs: list) -> int:
    backend = _one_backend(runs)
    if backend != baseline["backend"]:
        _refuse(f"refusing to compare backend {backend!r} with baseline {baseline['backend']!r}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    new = summarise(runs)["workloads"]
    worse = 0
    for spec in bench["end_to_end"]:
        for workload, entry in sorted(new.items()):
            if spec["name"] not in entry["end_to_end"]:
                continue
            base = baseline["workloads"][workload]["end_to_end"][spec["name"]]["median"]
            value = entry["end_to_end"][spec["name"]]["median"]
            ratio = value / base
            regressed = ratio > 1 + spec["bound"] if spec["better"] == "lower" else ratio < 1 - spec["bound"]
            worse += regressed
            flag = "WORSE" if regressed else ""
            print(f"{workload:20s} {spec['name']:14s} {base:12.6g} -> {value:12.6g} "
                  f"{spec['unit']:5s} x{ratio:.3f} {flag}")
    return 1 if worse else 0


def main(argv) -> int:
    if len(argv) >= 3 and argv[0] == "summarise":
        Path(argv[1]).write_text(json.dumps(summarise(_load(argv[2:])), indent=1) + "\n")
        return 0
    if len(argv) >= 2:
        return compare(json.loads(Path(argv[0]).read_text()), _load(argv[1:]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
