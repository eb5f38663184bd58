#!/usr/bin/env python3
"""pathgap benchmark: five check workloads, end-to-end metrics and per-layer traces.

Usage::

    python3 perfbench/run.py --workload chi_ladder --seed 1 --seconds 20 --trace 0

A closed loop with one client: each run of the workload is a child process
(``child.py``), started only after the previous one has exited.  Runs repeat
until ``--seconds`` have passed (at least ``MIN_RUNS``).  Each run's exit code
and output are checked, including that a seed run twice prints the same
stdout; a run that fails counts in ``failed`` without stopping the loop.

``--trace 0`` reports the end-to-end metrics (medians over runs).  ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics (medians
over traced runs) plus the tracing overhead.  The last stdout line is the
result object; the line before it is the run manifest.  ``--save PATH`` also
writes manifest, result and per-run samples to PATH for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import REPORT_MARKER  # noqa: E402
from workloads import WORKLOADS, statistic_stderr  # noqa: E402

# At least MIN_RUNS runs, so that the PANEL runs after the two repeats always happen.
PANEL = 5
MIN_RUNS = 2 + PANEL
CHILD_TIMEOUT_S = 120.0
# BLAS threads are pinned; the package's own seed and backend overrides are removed.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DROPPED_ENV = ("PATHGAP_SEED", "PATHGAP_BACKEND", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE",
               "PYTHONSTARTUP", "PYTHONOPTIMIZE")

END_TO_END_UNITS = {
    "wall_s": "s",
    "paths_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "work_norm_var": "s",
}
PER_LAYER_UNITS = {
    "sampling.increments_s": "s",
    "sampling.generators_built": "count",
    "sampling.walk_s": "s",
    "sampling.walk_path_steps": "count",
    "sampling.paths_run_ratio": "ratio",
    "sampling.self_s": "s",
    "gradients.linear_field_s": "s",
    "gradients.linear_field_out_mb": "MB",
    "gradients.resolvent_s": "s",
    "gradients.resolvent_pairs": "count",
    "gradients.self_s": "s",
    "estimators.functional_s": "s",
    "estimators.functional_calls": "count",
    "estimators.damped_energy_s": "s",
    "estimators.self_s": "s",
    "bounds.closed_form_s": "s",
    "bounds.calls": "count",
    "bounds.integral_mismatches": "count",
    "bounds.report_errors": "count",
    "geometry.self_s": "s",
    "cli.self_s": "s",
    "import_s": "s",
    "unaccounted_s": "s",
    "traced_wall_s": "s",
    "trace_overhead": "ratio",
}
# Tracer bucket -> per-layer metric; a layer's bare name holds its remaining self time.
BUCKET_METRICS = {
    "sampling.increments": "sampling.increments_s",
    "sampling.walk": "sampling.walk_s",
    "sampling": "sampling.self_s",
    "gradients.linear_field": "gradients.linear_field_s",
    "gradients.resolvent": "gradients.resolvent_s",
    "gradients": "gradients.self_s",
    "estimators.functional": "estimators.functional_s",
    "estimators.damped_energy": "estimators.damped_energy_s",
    "estimators": "estimators.self_s",
    "bounds": "bounds.closed_form_s",
    "geometry": "geometry.self_s",
    "cli": "cli.self_s",
}
COUNT_METRICS = (
    "sampling.generators_built",
    "sampling.walk_path_steps",
    "gradients.linear_field_out_mb",
    "gradients.resolvent_pairs",
    "estimators.functional_calls",
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env.update(PINNED_ENV)
    return env


def spawn(argv: list, env: dict) -> dict:
    """Run one child to completion; its peak RSS comes from wait4 on that child alone."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + CHILD_TIMEOUT_S - time.monotonic()
            if remaining <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(timeout=remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    stderr = b"".join(chunks[proc.stderr]).decode(errors="replace")
    report = None
    for line in stderr.splitlines():
        if line.startswith(REPORT_MARKER):
            report = json.loads(line[len(REPORT_MARKER):])
    return {
        "start": start,
        "wall_s": end - start,
        "code": proc.returncode,
        "timed_out": timed_out,
        "stdout": b"".join(chunks[proc.stdout]).decode(errors="replace"),
        "stderr": stderr,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "report": report,
    }


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pathgap").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_seed(seed: int, i: int) -> int:
    """Workload seed of the i-th run of a benchmark run.

    Runs 0 and 1 use ``seed``, which checks that a seed reproduces its output.
    Later runs use a fixed panel of seeds, the same in every benchmark run, on
    which work_norm_var's variance is measured: the lsi functional's direction
    is drawn from the seed and its per-path variance changes eightfold with
    it, so a variance over fresh seeds would compare problem instances rather
    than commits.
    """
    if i < 2:
        return seed
    digest = hashlib.sha256(f"panel:{i}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


class Loop:
    """Runs one workload repeatedly and checks every run."""

    def __init__(self, name: str, seed: int, scale: str):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.scale = scale
        self.size = self.workload.smoke if scale == "smoke" else self.workload.full
        self.env = child_env()
        self.reference = {}  # workload seed -> stdout of its first run
        self.attempted = 0
        self.failed = 0

    def argv(self, mode: str, seed: int) -> list:
        return [sys.executable, str(HERE / "child.py"), self.workload.name, str(seed), mode,
                self.scale]

    def warm(self) -> dict:
        run = spawn(self.argv("warm", self.seed), self.env)
        if run["code"] != 0 or run["report"] is None:
            raise SystemExit(f"the package does not import:\n{run['stderr']}")
        return run["report"]

    def once(self, mode: str, seed: int) -> dict:
        run = spawn(self.argv(mode, seed), self.env)
        run["seed"] = seed
        problems = self.workload.check(run["code"], run["stdout"])
        if run["timed_out"]:
            problems.append(f"killed after {CHILD_TIMEOUT_S} s")
        if run["report"] is None:
            problems.append("no report from the child")
        if run["stdout"] != self.reference.setdefault(seed, run["stdout"]):
            problems.append(f"stdout differs from an earlier run with seed {seed} ({mode} run)")
        self.attempted += 1
        if problems:
            self.failed += 1
            tail = run["stderr"].strip().splitlines()[-3:]
            print(f"run {self.attempted} failed: {problems} {tail}", file=sys.stderr)
        run["ok"] = not problems
        return run


def end_to_end(loop: Loop, runs: list) -> dict:
    ok = [r for r in runs if r["ok"]]
    timed = ok or runs  # if every run failed the result is marked incorrect anyway
    wall = statistics.median(r["wall_s"] for r in timed)
    setups = [r["report"]["first_work"] - r["start"] for r in timed
              if r["report"] and r["report"]["first_work"] is not None]
    items = loop.workload.items(loop.size)
    panel = {run_seed(loop.seed, i) for i in range(2, 2 + PANEL)}
    variances = [statistic_stderr(r["stdout"], loop.workload.statistic) ** 2
                 for r in ok if loop.workload.statistic is not None and r["seed"] in panel]
    if variances:
        work_norm_var = statistics.median(variances) * wall
    else:
        # Exact per-path verdicts (or no valid output): the cost of one verdict
        # of fixed accuracy is the time per item.
        work_norm_var = wall / items
    return {
        "wall_s": wall,
        "paths_per_s": items / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "setup_s": statistics.median(setups) if setups else wall,
        "work_norm_var": work_norm_var,
    }


def per_layer(loop: Loop, plain: list, traced: list):
    """Medians over traced runs, and the per-run values they come from."""
    samples = []
    for run in traced:
        rep = run["report"] or {}
        self_s = rep.get("self_s", {})
        counts = rep.get("counts", {})
        m = {metric: self_s.get(bucket, 0.0) for bucket, metric in BUCKET_METRICS.items()}
        for name in COUNT_METRICS:
            m[name] = counts.get(name, 0.0)
        m["bounds.calls"] = counts.get("bounds.entries", 0.0)
        m["bounds.integral_mismatches"] = rep.get("integral_mismatches", 0)
        m["bounds.report_errors"] = rep.get("report_errors", 0)
        run_paths = counts.get("sampling.paths_run", 0.0)
        reported = loop.workload.items(loop.size) if run_paths else 0
        m["sampling.paths_run_ratio"] = run_paths / reported if reported else 1.0
        first = rep.get("first_span")
        m["import_s"] = (first - run["start"]) if first is not None else run["wall_s"]
        m["traced_wall_s"] = run["wall_s"]
        m["unaccounted_s"] = run["wall_s"] - m["import_s"] - sum(self_s.values())
        samples.append(m)
    out = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    out["trace_overhead"] = out["traced_wall_s"] / statistics.median(r["wall_s"] for r in plain)
    return out, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    ap.add_argument("--save", help="also write manifest, result and samples to this file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pathgap" / "__init__.py").is_file():
        print(f"no pathgap sources under {ROOT / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2

    loop = Loop(args.workload, args.seed, "smoke" if args.smoke else "full")
    manifest = loop.warm()
    manifest.pop("first_work")
    manifest.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": loop.scale, "nproc": os.cpu_count(),
        "git_commit": git_commit(), "source_sha256": source_digest(), "env": PINNED_ENV,
    })

    began = time.monotonic()
    plain, traced = [], []
    while len(plain) < MIN_RUNS or time.monotonic() - began < args.seconds:
        seed = run_seed(args.seed, len(plain))
        plain.append(loop.once("plain", seed))
        if args.trace:
            traced.append(loop.once("trace", seed))  # tracing must not change the output
    layer_samples = []
    if args.trace:
        (values, layer_samples), units = per_layer(loop, plain, traced), PER_LAYER_UNITS
    else:
        values, units = end_to_end(loop, plain), END_TO_END_UNITS

    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    for name, metric in result["metrics"].items():
        print(f"{args.workload:20s} {name:32s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    if args.save:
        samples = [{k: r[k] for k in ("wall_s", "peak_rss_mb", "code", "ok")} for r in plain]
        Path(args.save).write_text(json.dumps({
            "manifest": manifest, "result": result, "samples": samples,
            "layer_samples": layer_samples,
        }, indent=1) + "\n")
    print("manifest " + json.dumps(manifest))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
