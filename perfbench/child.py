"""Runs one workload once, in its own process, for ``run.py``.

Usage: ``child.py <workload> <seed> <plain|trace|warm> <full|smoke>``

The workload's output goes to stdout unchanged.  The last stderr line is
``REPORT_MARKER`` followed by a JSON report: when the first unit of work
started (``time.monotonic()``, comparable with the parent's clock), what ran
(backend, versions) and, in ``trace`` mode, the per-bucket self times and
counts.  ``warm`` only imports the package, so that the first timed run
starts from compiled bytecode like every other.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

REPORT_MARKER = "PERFBENCH_REPORT "
ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    name, seed, mode, scale = argv[0], int(argv[1]), argv[2], argv[3]
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import pathgap
    from pathgap import estimators

    if not Path(pathgap.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"pathgap imported from {pathgap.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    report = {
        "backend": pathgap.backend_name(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "first_work": None,
    }
    if mode == "warm":
        _emit(report)
        return 0

    from workloads import WORKLOADS

    workload = WORKLOADS[name]

    def mark_first_work():
        if report["first_work"] is None:
            report["first_work"] = time.monotonic()

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        draw = estimators.batch_increments

        def first_draw_probe(*args, **kwargs):
            mark_first_work()
            return draw(*args, **kwargs)

        estimators.batch_increments = first_draw_probe

    size = workload.smoke if scale == "smoke" else workload.full
    code, out, extra = workload.run(size, seed, mark_first_work)
    sys.stdout.write(out)
    sys.stdout.flush()
    report.update(extra)
    if tracer is not None:
        report["first_span"] = tracer.first_span
        report["self_s"] = dict(tracer.self_s)
        report["counts"] = dict(tracer.counts)
    _emit(report)
    return code


def _emit(report):
    sys.stderr.write(REPORT_MARKER + json.dumps(report) + "\n")
    sys.stderr.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
