"""The five benchmark workloads: what a child process runs and how its output is checked.

Each workload has two halves.  ``run`` executes inside the child process
(``child.py``) and returns the exit code, the stdout text and any counts to
report; it is the only code that imports ``pathgap``.  ``check`` runs in the parent (``run.py``) on the child's exit code
and stdout and returns the list of problems found; it uses the standard library
only.

Sizes are the README invocations except ``chi_ladder``: 8192 paths instead of
100k.  That is one full 4096-draw antithetic chunk per rung, so the peak memory
(the reason this workload exists) is the same as at 100k paths, while a run of
the workload fits many times into the benchmark's time budget.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass
from typing import Callable, Optional

# Tolerances of the acceptance suite's closed-form criterion (tests/test_acceptance.py).
ENDPOINT_TOL = 1e-12
COROLLARY_TOL = 1e-14
LIMIT_TOL = 1e-3
# lambda_integral against Gauss-Legendre quadrature of lambda_profile (tests/test_bounds.py
# uses 1e-8 against Simpson; quadrature here is exact to roundoff, so 1e-9 is safe).
INTEGRAL_TOL = 1e-9
ASYMPTOTICS_TOL_REL = 0.1  # the CLI's --tol-rel default


@dataclass(frozen=True)
class Size:
    paths: int
    steps: int = 0
    functionals: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: Size
    smoke: Size
    # paths (or closed-form windows) one run of the workload checks
    items: Callable[[Size], int]
    # executed in the child: (size, seed, mark_first_work) -> (exit code, stdout text, extra report)
    run: Callable
    # executed in the parent: (exit code, stdout) -> problems
    check: Callable[[int, str], list]
    # stdout metric whose stderr enters work_norm_var; None for exact checks
    statistic: Optional[str] = None


# ---------------------------------------------------------------- parent-side parsing


def parse_rows(stdout: str) -> dict:
    """Map metric -> (mean, stderr) from the CLI's simulate/asymptotics CSV."""
    lines = [line for line in stdout.splitlines() if line]
    if not lines:
        raise ValueError("empty output")
    header = lines[0].split(",")
    i_metric, i_mean, i_err = (header.index(c) for c in ("metric", "mean", "stderr"))
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows.setdefault(cells[i_metric], []).append((float(cells[i_mean]), float(cells[i_err])))
    return rows


def parse_pairs(stdout: str) -> dict:
    """Map key -> float from the ``key,value`` lines the in-process workloads print."""
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(",")
        if key != "digest":
            out[key] = float(value)
    return out


def _finite(values) -> list:
    return [] if all(math.isfinite(v) for v in values) else ["non-finite number in output"]


def _cli_problems(code: int, stdout: str, verdict: Callable[[dict], list]) -> list:
    if code != 0:
        return [f"exit code {code}"]
    try:
        rows = parse_rows(stdout)
    except (ValueError, IndexError) as exc:
        return [f"unparsable output: {exc}"]
    problems = _finite(v for pairs in rows.values() for pair in pairs for v in pair)
    return problems or verdict(rows)


def statistic_stderr(stdout: str, metric: str) -> float:
    return parse_rows(stdout)[metric][-1][1]


# ---------------------------------------------------------------- CLI workloads


def _cli(argv: list) -> Callable:
    def run(size: Size, seed: int, mark_first_work):
        import io
        from contextlib import redirect_stdout

        from pathgap import cli

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main([a.format(size=size, seed=seed) for a in argv])
        return code, buf.getvalue(), {}

    return run


CHI_ARGV = [
    "asymptotics", "--manifold", "sphere", "--dim", "3", "--kappa", "1.0",
    "--T-ladder", "0.005,0.01,0.02,0.04", "--paths", "{size.paths}", "--seed", "{seed}",
    "--threads", "1",
]
THEOREM1_ARGV = [
    "simulate", "--manifold", "hyperbolic", "--dim", "2", "--kappa", "-1.0", "--T", "1.0",
    "--steps", "{size.steps}", "--paths", "{size.paths}", "--seed", "{seed}",
    "--mode", "theorem1", "--functionals", "{size.functionals}", "--threads", "1",
]
LSI_ARGV = [
    "simulate", "--manifold", "sphere", "--dim", "2", "--kappa", "1.0", "--T", "0.5",
    "--steps", "{size.steps}", "--paths", "{size.paths}", "--seed", "{seed}",
    "--mode", "lsi", "--threads", "1",
]


def _check_chi(code, stdout):
    def verdict(rows):
        fitted, predicted = rows["slope_fitted"][0][0], rows["slope_predicted"][0][0]
        if abs(fitted - predicted) > ASYMPTOTICS_TOL_REL * abs(predicted):
            return [f"slope {fitted} not within {ASYMPTOTICS_TOL_REL} of {predicted}"]
        return []

    return _cli_problems(code, stdout, verdict)


def _check_theorem1(code, stdout):
    def verdict(rows):
        frac = rows["satisfied_fraction"][0][0]
        return [] if frac == 1.0 else [f"satisfied_fraction {frac}"]

    return _cli_problems(code, stdout, verdict)


def _check_lsi(code, stdout):
    def verdict(rows):
        gap, err = rows["gap"][0]
        return [] if gap >= -4.0 * err else [f"entropy inequality violated: gap {gap} +- {err}"]

    return _cli_problems(code, stdout, verdict)


# ---------------------------------------------------------------- theorem1 on a synthetic Ricci path


def _ricci(t):
    """Non-symmetric 2x2 Ricci path (the one benchmarks/bench_kernels.py times)."""
    import numpy as np

    return np.array(
        [[0.5 + 0.3 * np.sin(2 * t), 0.2 * np.cos(3 * t)],
         [-0.2 * np.cos(3 * t), 0.6 - 0.2 * np.sin(t)]]
    )


# On [0, 1] the symmetric part of _ricci has smallest eigenvalue 0.43 and the
# operator norm peaks at 0.82, so this window is admissible and declared honestly.
SYNTHETIC_WINDOW = (1.0, 0.4)


def _run_synthetic(size: Size, seed: int, mark_first_work):
    import pathgap as pg
    from pathgap import estimators as est

    m = pg.synthetic_ricci_path(2, _ricci)
    family = est.random_two_point_family(m, 1.0, size.functionals, seed)
    rep = est.verify_theorem1(
        m, pg.CurvatureBounds(*SYNTHETIC_WINDOW), family, 1.0, size.steps, size.paths, seed
    )
    out = (
        f"n_paths,{rep.n_paths}\nmax_violation,{rep.max_violation!r}\n"
        f"satisfied_fraction,{rep.satisfied_fraction!r}\n"
    )
    return (0 if rep.satisfied_fraction == 1.0 else 1), out, {}


def _check_synthetic(code, stdout):
    if code != 0:
        return [f"exit code {code}"]
    try:
        values = parse_pairs(stdout)
        frac = values["satisfied_fraction"]
    except (ValueError, KeyError) as exc:
        return [f"unparsable output: {exc}"]
    return _finite(values.values()) or ([] if frac == 1.0 else [f"satisfied_fraction {frac}"])


# ---------------------------------------------------------------- closed-form sweep

# (k1, T) pairs at which the acceptance suite checks the k2 -> 0 limit with k2 = +-1e-4.
LIMIT_POINTS = ((1.0, 1.0), (2.5, 0.4), (0.3, 2.0), (3.5, 0.8))
# |k2| * T as multiples of K2_SWITCH: both sides of the closed-form/limit switch.
SWITCH_FACTORS = (0.5, 0.9, 1.1, 2.0, 10.0)


def bounds_windows(seed: int, n_horizons: int, per_sign: int) -> list:
    """(T, k1, k2, kind) windows: a horizon grid times both signs of k2.

    Per horizon and sign: ``per_sign`` random admissible windows, one
    corollary window k1 = |k2| and one window per switch factor with k1 >> |k2|
    (where lambda_integral cancels catastrophically).  The acceptance suite's
    k2 -> 0 limit points come last.
    """
    from pathgap.bounds import K2_SWITCH

    rng = random.Random(seed)
    horizons = [0.05 + 2.95 * i / (n_horizons - 1) for i in range(n_horizons)]
    windows = []
    for T in horizons:
        for sign in (1.0, -1.0):
            for _ in range(per_sign):
                k1 = rng.uniform(0.05, 4.0)
                windows.append((T, k1, sign * rng.uniform(0.0, k1), "random"))
            K = rng.uniform(0.05, 3.0)
            windows.append((T, K, sign * K, "corollary"))
            for f in SWITCH_FACTORS:
                windows.append((T, rng.uniform(0.5, 4.0), sign * f * K2_SWITCH / T, "switch"))
    for k1, T in LIMIT_POINTS:
        for k2 in (1e-4, -1e-4):
            windows.append((T, k1, k2, "limit"))
    return windows


def _gauss_legendre(n: int):
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(n)
    return [float(v) for v in x], [float(v) for v in w]


def _run_bounds(size: Size, seed: int, mark_first_work):
    """Sweep the closed forms; exit 1 if an identity the acceptance suite asserts fails.

    Two defects are counted and reported rather than failed, because they are
    known and the windows that show them stay in the sweep: lambda_integral
    losing digits when k1 >> |k2| (windows near K2_SWITCH, the k2 -> 0 limit
    points, some random windows), and bound_report raising on its own ordering
    check just below the switch with k2 < 0.
    """
    from pathgap import bounds as bd

    windows = bounds_windows(seed, size.steps, size.paths)
    nodes, weights = _gauss_legendre(16)
    mark_first_work()
    pack = struct.Struct(f"<{6 + len(nodes)}d").pack
    values = bytearray()
    worst = {"endpoint": 0.0, "corollary": 0.0, "limit": 0.0}
    order_violations = 0
    mismatches = 0
    report_errors = 0
    for T, k1, k2, kind in windows:
        cb = bd.CurvatureBounds(k1, k2)
        try:
            rep = bd.bound_report(T, cb)
            lam0, lamT, sup, psi = rep.lambda_at_0, rep.lambda_at_T, rep.lambda_sup, rep.psi
        except AssertionError:
            report_errors += 1
            lam0, lamT = bd.lambda_profile(0.0, T, cb), bd.lambda_profile(T, T, cb)
            sup, psi = bd.lambda_sup(T, cb), bd.psi(T, cb)
        profile = [bd.lambda_profile(0.5 * T * (x + 1.0), T, cb) for x in nodes]
        integral = bd.lambda_integral(T, T, cb)
        half = bd.lambda_integral(0.5 * T, T, cb)
        values += pack(lam0, lamT, sup, psi, integral, half, *profile)

        worst["endpoint"] = max(
            worst["endpoint"], abs(lamT - (0.5 + 0.5 * lam0 * lam0)) / max(1.0, lam0 * lam0)
        )
        if not 1.0 - 1e-12 <= sup <= psi * (1.0 + 1e-10) + 1e-12:
            order_violations += 1
        if kind == "corollary":
            if k2 > 0:
                want = 4.0 - math.sqrt(3.0 * (4.0 - math.exp(-k1 * T / 2))) * math.exp(-k1 * T / 4)
            else:
                want = 0.5 * (1.0 + math.exp(k1 * T))
            worst["corollary"] = max(worst["corollary"], abs(psi - want) / want)
        if kind == "limit":
            limit = 1.0 + k1 * T / 2 + (k1 * T) ** 2 / 8
            worst["limit"] = max(worst["limit"], abs(psi - limit) / limit, abs(sup - limit) / limit)
        quad = 0.5 * T * sum(w * v for w, v in zip(weights, profile))
        if not abs(integral - quad) <= INTEGRAL_TOL * abs(quad):
            mismatches += 1

    failed = (
        worst["endpoint"] > ENDPOINT_TOL
        or worst["corollary"] > COROLLARY_TOL
        or worst["limit"] > LIMIT_TOL
        or order_violations
    )
    out = (
        f"windows,{len(windows)}\n"
        f"worst_endpoint,{worst['endpoint']!r}\nworst_corollary,{worst['corollary']!r}\n"
        f"worst_limit,{worst['limit']!r}\norder_violations,{order_violations}\n"
        f"integral_mismatches,{mismatches}\nreport_errors,{report_errors}\n"
        f"digest,{hashlib.sha256(values).hexdigest()}\n"
    )
    known = {"integral_mismatches": mismatches, "report_errors": report_errors}
    return (1 if failed else 0), out, known


def _check_bounds(code, stdout):
    if code != 0:
        return [f"exit code {code} (a closed-form identity failed)"]
    try:
        values = parse_pairs(stdout)
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    problems = _finite(values.values())
    for key, tol in (("worst_endpoint", ENDPOINT_TOL), ("worst_corollary", COROLLARY_TOL),
                     ("worst_limit", LIMIT_TOL)):
        if not values.get(key, math.inf) <= tol:
            problems.append(f"{key} {values.get(key)} above {tol}")
    if values.get("order_violations", 1) != 0:
        problems.append("lambda_sup <= psi ordering violated")
    return problems


def _bounds_items(size: Size) -> int:
    return size.steps * 2 * (size.paths + 1 + len(SWITCH_FACTORS)) + 2 * len(LIMIT_POINTS)


# ---------------------------------------------------------------- the table

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chi_ladder",
            "README asymptotics run: RNG and the linear-field gradient, no walk, no callbacks; "
            "the memory-heavy case",
            Size(paths=8192),
            Size(paths=512),
            lambda s: 4 * s.paths,
            _cli(CHI_ARGV),
            _check_chi,
            statistic="slope_fitted",
        ),
        Workload(
            "theorem1_hyperbolic",
            "README theorem1 run: per-path functional callbacks, pullback and pairwise "
            "energy dominate; the walk is small",
            Size(paths=1000, steps=128, functionals=10),
            Size(paths=100, steps=64, functionals=4),
            lambda s: s.paths,
            _cli(THEOREM1_ARGV),
            _check_theorem1,
        ),
        Workload(
            "lsi_sphere",
            "README lsi run: the same per-path code as theorem1 but the walk and RNG dominate",
            Size(paths=10000, steps=64),
            Size(paths=1000, steps=32),
            lambda s: s.paths,
            _cli(LSI_ARGV),
            _check_lsi,
            statistic="gap",
        ),
        Workload(
            "theorem1_synthetic",
            "verify_theorem1 on a synthetic Ricci path: the only run of the RK4 propagator "
            "triangle and the trapezoid damped energy",
            Size(paths=200, steps=1024, functionals=10),
            Size(paths=20, steps=128, functionals=4),
            lambda s: s.paths,
            _run_synthetic,
            _check_synthetic,
        ),
        Workload(
            "bounds_sweep",
            "closed forms over a horizon grid, both signs of k2 and both sides of K2_SWITCH; "
            "the only workload where the bounds layer dominates",
            # paths = random windows per horizon and sign, steps = horizons
            Size(paths=240, steps=40),
            Size(paths=10, steps=5),
            _bounds_items,
            _run_bounds,
            _check_bounds,
        ),
    )
}
