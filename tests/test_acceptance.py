"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines as
they complete.  Budgets are generous ceilings; the suite typically finishes
far below them with the compiled kernels.
"""

import io
import math
import time
from contextlib import redirect_stdout

import numpy as np

import pathgap as pg
from pathgap import estimators as est
from pathgap._backend import kernels
from pathgap.bounds import (
    CurvatureBounds,
    lambda_argmax,
    lambda_profile,
    lambda_sup,
    psi,
)
from pathgap.cli import main as cli_main
from pathgap.gradients import CylindricalFunctional, resolvent_on_grid
from pathgap.sampling import TimeGrid, sample_path

from conftest import argmax_mp, smooth_ricci, spectral_norms, stiff_ricci
from reference import (
    GradientField,
    damped_gradient,
    damped_gradient_integral_form,
    duality_defect,
    field_l2_distance,
    transform_pair,
)

RNG_SEED = 96_001


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} -- {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _draw_admissible(rng, n):
    k1 = rng.uniform(0.0, 4.0, size=n)
    k2 = rng.uniform(-k1, np.minimum(k1, 4.0))
    T = rng.uniform(0.05, 3.0, size=n)
    return np.stack([k1, k2, T], axis=1)


def test_criterion_1_closed_form_identities():
    t0 = time.time()
    rng = np.random.default_rng(RNG_SEED)
    worst_identity = 0.0
    for k1, k2, T in _draw_admissible(rng, 1000):
        cb = CurvatureBounds(k1, k2)
        lam0 = lambda_profile(0.0, T, cb)
        lamT = lambda_profile(T, T, cb)
        err = abs(lamT - (0.5 + 0.5 * lam0 * lam0)) / max(1.0, lam0 * lam0)
        worst_identity = max(worst_identity, err)

    worst_cor = 0.0
    for _ in range(200):
        K = float(rng.uniform(0.05, 3.0))
        T = float(rng.uniform(0.1, 2.5))
        same = psi(T, CurvatureBounds(K, K))
        want_same = 4.0 - math.sqrt(3.0 * (4.0 - math.exp(-K * T / 2))) * math.exp(-K * T / 4)
        opposite = psi(T, CurvatureBounds(K, -K))
        want_opp = 0.5 * (1.0 + math.exp(K * T))
        worst_cor = max(
            worst_cor,
            abs(same - want_same) / want_same,
            abs(opposite - want_opp) / want_opp,
        )

    worst_limit = 0.0
    for k1, T in [(1.0, 1.0), (2.5, 0.4), (0.3, 2.0), (3.5, 0.8)]:
        limit = 1.0 + k1 * T / 2 + (k1 * T) ** 2 / 8
        for k2 in (1e-4, -1e-4):
            cb = CurvatureBounds(k1, k2)
            worst_limit = max(
                worst_limit,
                abs(psi(T, cb) - limit) / limit,
                abs(lambda_sup(T, cb) - limit) / limit,
            )

    ok = worst_identity <= 1e-12 and worst_cor <= 1e-14 and worst_limit <= 1e-3
    _report(
        1,
        "closed-form identities",
        ok,
        f"endpoint identity {worst_identity:.2e} (<=1e-12), corollaries "
        f"{worst_cor:.2e} (<=1e-14), k2->0 limits {worst_limit:.2e} (<=1e-3), "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_2_maximizer():
    t0 = time.time()
    rng = np.random.default_rng(RNG_SEED + 1)
    worst_dt = 0.0
    worst_drop = 0.0
    for _ in range(1000):
        k1 = float(rng.uniform(0.05, 4.0))
        k2 = float(rng.uniform(0.02, k1))
        T = float(rng.uniform(0.1, 2.5))
        cb = CurvatureBounds(k1, k2)
        t_star = lambda_argmax(T, cb)
        worst_dt = max(worst_dt, abs(t_star - float(argmax_mp(T, k1, k2))) / T)
        peak = lambda_profile(t_star, T, cb)
        grid_vals = [lambda_profile(float(t), T, cb) for t in np.linspace(0.0, T, 200)]
        worst_drop = max(worst_drop, (max(grid_vals) - peak) / peak)

    worst_decrease = 0.0
    for _ in range(5):
        k1 = float(rng.uniform(0.1, 3.0))
        k2 = float(rng.uniform(-k1, -0.05))
        T = float(rng.uniform(0.2, 2.0))
        cb = CurvatureBounds(k1, k2)
        vals = np.array([lambda_profile(float(t), T, cb) for t in np.linspace(0, T, 10_000)])
        worst_decrease = max(worst_decrease, float(np.max(-np.diff(vals))))

    ok = worst_dt <= 1e-9 and worst_drop <= 1e-12 and worst_decrease <= 1e-12
    _report(
        2,
        "maximizer",
        ok,
        f"|t* - root|/T {worst_dt:.2e} (<=1e-9), grid drop {worst_drop:.2e}, "
        f"k2<0 decrease {worst_decrease:.2e} (<=1e-12), {time.time() - t0:.1f}s",
    )


def test_criterion_3_resolvent():
    t0 = time.time()
    # constant Ricci: exact exponential entries
    m = pg.sphere(2, 1.0)
    grid = TimeGrid.with_times(1.0, 512, ())
    tri = kernels.resolvent_triangle(resolvent_on_grid(grid, m, m.curvature_window).steps)
    worst_const = 0.0
    for i, j in [(512, 0), (300, 120), (64, 63)]:
        want = math.exp(-0.5 * (grid.times[i] - grid.times[j]))
        worst_const = max(worst_const, np.abs(tri[i * (i + 1) // 2 + j] - want * np.eye(2)).max())

    # 100 synthetic non-symmetric paths at n=512
    rng = np.random.default_rng(RNG_SEED + 2)
    worst_cocycle = 0.0
    worst_excess = -np.inf
    idx_i, idx_j = np.tril_indices(513)
    for path_id in range(100):
        ms, cb = smooth_ricci(2, seed=2000 + path_id)
        tri = kernels.resolvent_triangle(resolvent_on_grid(grid, ms, cb).steps)
        norms = spectral_norms(tri)
        bound = np.exp(-0.5 * cb.k2 * (grid.times[idx_i] - grid.times[idx_j]))
        worst_excess = max(worst_excess, float((norms - bound).max()))
        j = rng.integers(0, 512, size=500)
        k = rng.integers(j, 513)
        i = rng.integers(k, 513)
        q_ij = tri[i * (i + 1) // 2 + j]
        q_ik = tri[i * (i + 1) // 2 + k]
        q_kj = tri[k * (k + 1) // 2 + j]
        err = np.abs(q_ij - np.einsum("pab,pbc->pac", q_ik, q_kj)).max()
        worst_cocycle = max(worst_cocycle, float(err))

    # refinement order on the oscillatory path
    msf, cbf = stiff_ricci()

    def q_final(n):
        g = TimeGrid.with_times(1.0, n, ())
        return kernels.resolvent_column(resolvent_on_grid(g, msf, cbf).steps, 0)[-1]

    ref = q_final(16384)
    e_256 = np.abs(q_final(256) - ref).max()
    e_2048 = np.abs(q_final(2048) - ref).max()
    order = math.log(e_256 / e_2048) / math.log(8.0)

    ok = (
        worst_const <= 1e-12
        and worst_cocycle <= 1e-8
        and worst_excess <= 1e-8
        and order >= 3.5
    )
    _report(
        3,
        "resolvent",
        ok,
        f"constant-ric error {worst_const:.2e} (<=1e-12), cocycle {worst_cocycle:.2e} "
        f"(<=1e-8), norm-bound excess {worst_excess:.2e} (<=1e-8), order {order:.2f} "
        f"(>=3.5), {time.time() - t0:.1f}s",
    )


def test_criterion_4_pathwise_inequality():
    t0 = time.time()
    configs = [
        ("sphere S2", pg.sphere(2, 1.0), pg.sphere(2, 1.0).curvature_window),
        ("hyperbolic H2", pg.hyperbolic(2, -1.0), pg.hyperbolic(2, -1.0).curvature_window),
        ("synthetic", *smooth_ricci(2, seed=71)),
    ]
    details = []
    ok = True
    for name, m, cb in configs:
        family = est.random_two_point_family(m, 1.0, 10, seed=RNG_SEED + 3)
        rep = est.verify_theorem1(m, cb, family, 1.0, 128, 1000, RNG_SEED + 4)
        ok = ok and rep.satisfied_fraction == 1.0 and rep.max_violation <= 1e-8
        details.append(f"{name}: fraction {rep.satisfied_fraction}, max {rep.max_violation:.2e}")
    _report(4, "pathwise inequality", ok, "; ".join(details) + f", {time.time() - t0:.1f}s")


def test_criterion_5_gradient_algebra():
    t0 = time.time()
    m, cb = smooth_ricci(2, seed=81, amplitude=0.5)
    rng = np.random.default_rng(RNG_SEED + 5)
    v_base = rng.normal(size=(1024, 2))
    b1, b2 = rng.normal(size=2), rng.normal(size=2)
    F = CylindricalFunctional(
        (0.375, 0.75),
        lambda pos: pos[:, 0] @ b1 + pos[:, 1] @ b2,
        lambda pos: np.broadcast_to(np.stack([b1, b2]), pos.shape),
    )

    def measure(n, reps):
        g = TimeGrid.with_times(1.0, n, ())
        path = sample_path(m, g, 55)
        R = resolvent_on_grid(path.grid, m, cb)
        v = GradientField(g, np.repeat(v_base, reps, axis=0))
        tld, hat = transform_pair(v, path, R, m)
        _, hat_of_tilde = transform_pair(tld, path, R, m)
        tilde_of_hat, _ = transform_pair(hat, path, R, m)
        round1 = field_l2_distance(hat_of_tilde, v)
        round2 = field_l2_distance(tilde_of_hat, v)
        dual = duality_defect(F, v, path, R, m)
        cross = field_l2_distance(
            damped_gradient(F, path, R, m), damped_gradient_integral_form(F, path, R, m)
        )
        return round1, round2, dual, cross

    r1, r2, dual, cross = measure(1024, 1)
    r1f, r2f, dualf, crossf = measure(2048, 2)
    tol_ok = max(r1, r2, dual, cross) <= 1e-6
    improve_ok = (
        r1f <= r1 / 1.8
        and r2f <= r2 / 1.8
        and crossf <= cross / 1.8
        and (dualf <= dual / 1.8 or dualf <= 1e-9)
    )
    _report(
        5,
        "gradient algebra",
        tol_ok and improve_ok,
        f"n=1024: roundtrips {r1:.2e}/{r2:.2e}, duality {dual:.2e}, cross {cross:.2e} "
        f"(<=1e-6); n=2048 ratios {r1 / max(r1f, 1e-300):.1f}/"
        f"{cross / max(crossf, 1e-300):.1f} (>=1.8), {time.time() - t0:.1f}s",
    )


def test_criterion_6_chi_reproduction():
    t0 = time.time()
    flat = est.estimate_chi(
        pg.euclidean(3), np.array([1.0, 0.0, 0.0]), 0.02, 200, 10_000, RNG_SEED + 6
    )
    flat_ok = abs(flat.chi.mean - 1.0) <= 1e-12 and flat.chi.stderr == 0.0

    ladder = [0.005, 0.01, 0.02, 0.04]
    s3 = est.small_time_slope(
        pg.sphere(3, 1.0), np.array([1.0, 0.0, 0.0]), ladder, 100_000, RNG_SEED + 7
    )
    s3_ok = abs(s3.slope.mean - 1.0) <= 0.1

    h2 = est.small_time_slope(
        pg.hyperbolic(2, -1.0), np.array([1.0, 0.0]), ladder, 100_000, RNG_SEED + 8
    )
    h2_ok = abs(h2.slope.mean - (-0.5)) <= 0.05

    _report(
        6,
        "chi small-time slopes",
        flat_ok and s3_ok and h2_ok,
        f"flat chi-1 {flat.chi.mean - 1.0:.1e} (<=1e-12), S3 slope "
        f"{s3.slope.mean:.4f}+-{s3.slope.stderr:.1e} (target 1 +-10%), H2 slope "
        f"{h2.slope.mean:.4f}+-{h2.slope.stderr:.1e} (target -0.5 +-10%), "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_7_lsi_statistical():
    t0 = time.time()
    flat = est.verify_lsi(
        pg.euclidean(2),
        est.truncated_exponential_functional(np.array([0.8, -0.6]), 0.5, cap=1.5),
        0.5,
        64,
        10_000,
        RNG_SEED + 9,
    )
    s2 = est.verify_lsi(
        pg.sphere(2, 1.0),
        est.exponential_functional(pg.sphere(2, 1.0), np.array([0.4, -0.3, 0.5]), 0.5),
        0.5,
        64,
        10_000,
        RNG_SEED + 10,
    )
    ok = (not flat.violated) and (not s2.violated)
    _report(
        7,
        "entropy inequality",
        ok,
        f"flat gap {flat.gap:.4f}+-{flat.gap_stderr:.4f}, sphere gap "
        f"{s2.gap:.4f}+-{s2.gap_stderr:.4f} (no violation beyond 4 sigma), "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_8_determinism():
    t0 = time.time()

    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    checks = []
    bounds_argv = ["bounds", "--k1", "1.3", "--k2", "-0.4", "--T-grid", "0.2:2.0:7"]
    checks.append(run(bounds_argv) == run(bounds_argv))

    sim_argv = [
        "simulate", "--manifold", "sphere", "--dim", "3", "--kappa", "1.0",
        "--T", "0.05", "--steps", "64", "--paths", "2000", "--seed", "77",
        "--mode", "chi",
    ]
    checks.append(run(sim_argv) == run(sim_argv))

    asym = [
        "asymptotics", "--manifold", "sphere", "--dim", "2", "--kappa", "1.0",
        "--T-ladder", "0.005,0.01,0.02,0.04", "--paths", "1000", "--seed", "78",
    ]
    out_t1 = run(asym + ["--threads", "1"])
    out_t3 = run(asym + ["--threads", "3"])
    checks.append(out_t1 == out_t3)

    thm = [
        "simulate", "--manifold", "hyperbolic", "--dim", "2", "--kappa", "-1.0",
        "--T", "0.5", "--steps", "64", "--paths", "100", "--seed", "79",
        "--mode", "theorem1",
    ]
    checks.append(run(thm) == run(thm))

    ok = all(checks)
    _report(
        8,
        "determinism",
        ok,
        f"bounds/simulate/theorem1 re-runs and thread counts byte-identical: "
        f"{checks}, {time.time() - t0:.1f}s",
    )
