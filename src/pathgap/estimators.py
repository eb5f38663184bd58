"""Monte-Carlo estimators and inequality verifiers.

Everything is deterministic in (seed, configuration): paths are seeded
counter-style, per-path statistics are written into preallocated arrays at
fixed offsets, and reductions happen once over the full arrays, so the
results do not depend on chunking or on the number of worker threads.

The chi estimators compute nothing twice.  An antithetic mirror path
``-increments`` has the same gradient field as its draw, so each pair is
computed once.  Along a horizon ladder every path draws its normals once, for
the longest rung, and the shorter rungs use a prefix of them.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import CurvatureBounds, _require_horizon, lambda_integral
from .geometry import SYNTHETIC, ModelManifold, _project_tangent
from .gradients import (
    CylindricalFunctional,
    ResolventGrid,
    _damped_limits,
    _pullback,
    linear_gradient_batch,
    resolvent_on_grid,
)
from .sampling import TimeGrid, batch_increments, simulate_increments

__all__ = [
    "EstimateWithCI",
    "ChiReport",
    "TheoremOneReport",
    "LsiReport",
    "SlopeReport",
    "default_steps",
    "estimate_chi",
    "verify_theorem1",
    "verify_lsi",
    "small_time_slope",
    "random_two_point_family",
    "truncated_exponential_functional",
    "exponential_functional",
]


@dataclass(frozen=True)
class EstimateWithCI:
    """Sample mean with standard error; 95% CI is mean +/- 1.96 stderr."""

    mean: float
    stderr: float
    n: int
    seed: int

    def ci(self, z: float = 1.96) -> tuple[float, float]:
        return self.mean - z * self.stderr, self.mean + z * self.stderr


def _mean_ci(samples: np.ndarray, seed: int) -> EstimateWithCI:
    n = samples.shape[0]
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(n)) if n >= 2 else 0.0
    return EstimateWithCI(mean, stderr, n, seed)


@dataclass(frozen=True)
class ChiReport:
    """Rayleigh-quotient estimate for the linear functional F = <a, w_T>."""

    T: float
    chi: EstimateWithCI
    predicted_first_order: float
    var_F: EstimateWithCI
    dirichlet: EstimateWithCI
    variance_mode: str  # "sample" (ratio of sample means) | "analytic"
    n_paths: int  # paths run: antithetic sampling rounds an odd count up to whole pairs
    n_steps: int
    i_terms: Optional[tuple[EstimateWithCI, ...]] = None


def default_steps(T: float) -> int:
    """Step-count rule keeping order-1 walk bias below the O(T) signal."""
    return max(64, int(math.ceil(_require_horizon(T) / 1e-4)))


def _chunk_ranges(n: int, chunk: int):
    return [(s, min(s + chunk, n)) for s in range(0, n, chunk)]


# Draws per chunk of the chi estimators: keeps the (draws, steps, d)
# temporaries cache-sized; the result does not depend on it.
_CHI_CHUNK = 256


def estimate_chi(
    m: ModelManifold,
    a: np.ndarray,
    T: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    antithetic: bool = True,
    include_i_terms: bool = False,
    chunk: int = _CHI_CHUNK,
    threads: int = 1,
    variance: str = "auto",
) -> ChiReport:
    """Monte-Carlo Rayleigh quotient chi_T for F = <a, w_T>, |a| = 1.

    The numerator estimates E integral |D_tau F|^2 dtau from the explicit
    gradient field of the linear functional.  The denominator mode:

    * ``"sample"`` -- sample variance of F, ratio CI by the delta method
      (numerator and denominator share paths).
    * ``"analytic"`` -- the exact identity Var(F) = |a|^2 T for this
      functional; the only noise left is the numerator's, which scales with
      the horizon and makes small-T ladders usable.
    * ``"auto"`` (default) -- "analytic" when the Ricci action vanishes
      (the estimator is then exactly 1 with zero spread), else "sample".

    The sample variance of F is estimated and reported in either mode.

    With ``antithetic`` sampling, each draw is paired with its mirror path
    ``-increments``.  The field is even in the increments, so the mirror
    shares its draw's field and Dirichlet value while F changes sign; the
    pair is computed once and the pair means are exact.  An odd ``n_paths``
    is rounded up to the next pair.  The result does not depend on ``chunk``
    or ``threads``.
    """
    return _chi_ladder(
        m, a, [(T, n_steps)], n_paths, seed, antithetic, include_i_terms, chunk, threads,
        variance,
    )[0]


def _chi_ladder(
    m: ModelManifold,
    a: np.ndarray,
    rungs: Sequence[tuple[float, int]],
    n_paths: int,
    seed: int,
    antithetic: bool,
    include_i_terms: bool,
    chunk: int,
    threads: int,
    variance: str,
) -> list[ChiReport]:
    """``estimate_chi`` for each (T, n_steps) rung, sharing every path's draw.

    Path k draws its normals once, for the longest rung; a rung of n steps
    uses the first n rows, which are exactly the normals its own grid would
    draw for path k, scaled by the same sqrt(dt).
    """
    if m.kind == SYNTHETIC:
        raise ValueError("chi estimation needs a curvature tensor")
    a = np.asarray(a, dtype=float)
    if abs(np.linalg.norm(a) - 1.0) > 1e-9:
        raise ValueError("direction a must be a unit vector")
    if variance not in ("auto", "sample", "analytic"):
        raise ValueError(f"unknown variance mode {variance!r}")
    if antithetic and n_paths % 2:
        n_paths += 1
    n_draws = n_paths // 2 if antithetic else n_paths
    if n_draws < 2:
        raise ValueError(
            f"the chi estimate needs at least 2 independent draws, got {max(n_draws, 0)}"
            + (" (a mirrored pair is one draw)" if antithetic else "")
        )
    c = m.ricci_scalar
    if variance == "auto":
        variance = "analytic" if c == 0.0 else "sample"

    grids = [TimeGrid.with_times(T, n_steps, ()) for T, n_steps in rungs]
    n_max = max(grid.n_steps for grid in grids)
    # unit steps: batch_increments returns the raw normals
    normals_grid = TimeGrid.with_times(n_max, n_max, ())
    x_r = np.empty((len(grids), n_draws))  # integral |field|^2 per draw
    f_r = np.empty((len(grids), n_draws))  # F per draw
    it_r = np.empty((len(grids), 6, n_draws)) if include_i_terms else None

    def run_chunk(lo_hi):
        lo, hi = lo_hi
        z = batch_increments(normals_grid, m.dim, seed, range(lo, hi))
        for r, grid in enumerate(grids):
            inc = z[:, : grid.n_steps] * grid.sqrt_dts[:, None]
            fields = linear_gradient_batch(inc, grid.times, a, m.kappa, c)
            x_r[r, lo:hi] = np.einsum("pkd,pkd,k->p", fields, fields, grid.dts)
            f_r[r, lo:hi] = np.einsum("pkd,d->p", inc, a)
            if include_i_terms:
                it_r[r, :, lo:hi] = _i_terms(fields, a, c, grid)

    ranges = _chunk_ranges(n_draws, chunk)
    if threads > 1:
        # numpy keeps its error state per context, so a worker starts from the
        # default state; each chunk runs under the caller's instead
        err = np.geterr()

        def run_chunk_in_caller_state(lo_hi):
            with np.errstate(**err):
                run_chunk(lo_hi)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk_in_caller_state, ranges))
    else:
        for r in ranges:
            run_chunk(r)

    reports = []
    for r, grid in enumerate(grids):
        T = grid.T
        x, f = x_r[r], f_r[r]
        if antithetic:
            # the pair means of x and F^2 over a draw and its mirror
            v = f * f
        else:
            f_bar = float(np.mean(f))
            v = (f - f_bar) ** 2 * (n_paths / (n_paths - 1.0))
        dirichlet = _mean_ci(x, seed)
        var_F = _mean_ci(v, seed)
        if var_F.mean <= 0:
            raise ValueError("degenerate sample: variance estimate is not positive")
        if variance == "analytic":
            # Var(F) = |a|^2 T is an identity for F = <a, w_T> on any manifold
            chi = EstimateWithCI(dirichlet.mean / T, dirichlet.stderr / T, dirichlet.n, seed)
        else:
            ratio = dirichlet.mean / var_F.mean
            cov = np.cov(np.stack([x, v]), ddof=1)
            var_r = (
                cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio * ratio * cov[1, 1]
            ) / (var_F.mean ** 2 * n_draws)
            chi = EstimateWithCI(ratio, math.sqrt(max(var_r, 0.0)), n_draws, seed)
        i_terms = None
        if include_i_terms:
            i_terms = tuple(_mean_ci(it_r[r, i], seed) for i in range(6))
        reports.append(
            ChiReport(
                T=T,
                chi=chi,
                predicted_first_order=1.0 + 0.5 * T * c,
                var_F=var_F,
                dirichlet=dirichlet,
                variance_mode=variance,
                n_paths=n_paths,
                n_steps=grid.n_steps,
                i_terms=i_terms,
            )
        )
    return reports


def _i_terms(fields: np.ndarray, a: np.ndarray, c: float, grid: TimeGrid) -> np.ndarray:
    """The six terms of integral |field|^2 split at the deterministic part, (6, P)."""
    T, dts, taus = grid.T, grid.dts, grid.times[:-1]
    P = fields.shape[0]
    det = a[None, None, :] * (1.0 + 0.5 * c * (T - taus))[None, :, None]
    mart = fields - det
    t1 = np.einsum("pkd,pkd,k->p", mart, mart, dts)
    t2 = np.full(P, T)
    t3 = 0.25 * c * c * float(np.sum((T - taus) ** 2 * dts)) * np.ones(P)
    t4 = c * float(np.sum((T - taus) * dts)) * np.ones(P)
    mart_a = np.einsum("pkd,d->pk", mart, a)
    t5 = 2.0 * np.einsum("pk,k->p", mart_a, dts)
    t6 = c * np.einsum("pk,k->p", mart_a, (T - taus) * dts)
    return np.stack([t1, t2, t3, t4, t5, t6])


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` of each entry of a 1-D array, through the scalar ``math`` function.

    The batched functionals and the entropy use this for exp, log, sin and
    cos, so each entry rounds exactly as the scalar evaluation of one path
    does on every platform (numpy's vectorised transcendental loops may
    differ from ``math`` in the last bit).
    """
    return np.fromiter(map(fn, x), float, x.size)


def damped_energy_pairwise(ts: np.ndarray, gram: np.ndarray, c: float) -> np.ndarray:
    """Exact integral |D~_tau F|^2 dtau for constant Ricci c, one per path.

    ts are the slot times, gram the (P, N, N) stack of frame-coordinate slot
    Gram matrices, gram[p, j, k] = <g_j, g_k> along path p.  Each (j, k)
    pair contributes the closed-form integral of e^{-c (t_j + t_k - 2 tau)/2}
    over tau in [0, min(t_j, t_k)].  Returns (P,).
    """
    tmin = np.minimum.outer(ts, ts)
    tsum = ts[:, None] + ts[None, :]
    if c == 0.0:
        weights = tmin
    else:
        weights = np.exp(-0.5 * c * tsum) * np.expm1(c * tmin) / c
    return np.sum(gram * weights, axis=(1, 2))


# Relative excess of the damped over the weighted usual energy that still
# counts as satisfied: roundoff between the two closed-form sides.
THEOREM1_SLACK = 1e-8


@dataclass(frozen=True)
class TheoremOneReport:
    """Pathwise comparison of damped vs weighted usual gradient energy."""

    n_paths: int
    n_functionals: int
    max_violation: float  # max over samples of (lhs - rhs) / max(rhs, tiny)
    satisfied_fraction: float
    slack: float
    seed: int


def verify_theorem1(
    m: ModelManifold,
    declared: CurvatureBounds,
    F_family: Sequence[CylindricalFunctional],
    T: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    chunk: int = 1024,
) -> TheoremOneReport:
    """Per-path check that the damped-gradient energy never exceeds the
    Lambda-weighted usual-gradient energy.

    Constant-curvature manifolds use exact closed-form time integrals on both
    sides (the inequality has equality cases, so quadrature skew would
    produce spurious violations); synthetic Ricci paths use a per-cell
    trapezoid for the damped side.  Each functional is evaluated once per
    chunk of paths.
    """
    eval_times = sorted({t for F in F_family for t in F.eval_times})
    grid = TimeGrid.with_times(T, n_steps, eval_times)
    rec_idx = np.array([grid.index_of(t) for t in eval_times], dtype=np.int64)
    rec_pos = {t: i for i, t in enumerate(eval_times)}
    per_F = []
    for F in F_family:
        sel = np.array([rec_pos[t] for t in F.eval_times], dtype=np.int64)
        idx = np.array([grid.index_of(t) for t in F.eval_times], dtype=np.int64)
        ts = np.array(F.eval_times)
        wmat = np.vectorize(lambda t: lambda_integral(t, T, declared))(
            np.minimum.outer(ts, ts)
        )
        per_F.append((F, sel, idx, ts, wmat))
    R = None if m.kind != SYNTHETIC else resolvent_on_grid(grid, m, declared)
    g = m.metric_diag()

    n_ok = 0
    max_violation = -math.inf
    for lo, hi in _chunk_ranges(n_paths, chunk):
        inc = batch_increments(grid, m.dim, seed, range(lo, hi))
        pos, frames = simulate_increments(m, grid, inc, record=rec_idx)
        for F, sel, idx, ts, wmat in per_F:
            slots = _pullback(F, pos[:, sel], frames[:, sel], g)
            gram = slots @ slots.transpose(0, 2, 1)
            rhs = np.sum(gram * wmat, axis=(1, 2))
            if m.kind != SYNTHETIC:
                lhs = damped_energy_pairwise(ts, gram, m.ricci_scalar)
            else:
                lhs = np.array([_damped_energy_trapezoid(idx, s, R, grid) for s in slots])
            violation = (lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
            max_violation = max(max_violation, float(np.max(violation)))
            n_ok += int(np.count_nonzero(violation <= THEOREM1_SLACK))
    return TheoremOneReport(
        n_paths=n_paths,
        n_functionals=len(F_family),
        max_violation=max_violation,
        satisfied_fraction=n_ok / (n_paths * len(F_family)),
        slack=THEOREM1_SLACK,
        seed=seed,
    )


def _damped_energy_trapezoid(idx, slots, R: ResolventGrid, grid: TimeGrid) -> float:
    """Trapezoid-in-tau integral of |D~_tau F|^2 from the propagator triangle."""
    left, right = _damped_limits(idx, slots, R)
    dts = grid.dts
    return float(0.5 * np.einsum("k,k->", dts, np.einsum("kd,kd->k", left, left)
                                 + np.einsum("kd,kd->k", right, right)))


@dataclass(frozen=True)
class LsiReport:
    """One-sided statistical check of entropy <= 2 * damped Dirichlet energy."""

    entropy: float
    dirichlet_twice: float
    gap: float  # dirichlet_twice - entropy, expected >= 0
    gap_stderr: float
    n_paths: int
    violated: bool  # gap < -4 * stderr
    seed: int


def verify_lsi(
    m: ModelManifold,
    F: CylindricalFunctional,
    T: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    chunk: int = 4096,
) -> LsiReport:
    """Estimate E(F^2 log(F^2/||F||^2)) and 2 E integral |D~F|^2 and compare.

    Monte Carlo cannot certify an inequality between expectations; the check
    only flags a failure when the gap is negative beyond four combined
    standard errors.
    """
    if m.kind == SYNTHETIC:
        raise ValueError("the entropy check needs a curvature tensor")
    if n_paths < 2:
        raise ValueError(f"the entropy check needs at least 2 paths, got {n_paths}")
    grid = TimeGrid.with_times(T, n_steps, list(F.eval_times))
    eval_idx = np.array([grid.index_of(t) for t in F.eval_times], dtype=np.int64)
    ts = grid.times[eval_idx]
    c = m.ricci_scalar
    g = m.metric_diag()

    a_p = np.empty(n_paths)  # F^2 log F^2
    b_p = np.empty(n_paths)  # F^2
    r_p = np.empty(n_paths)  # 2 * integral |D~F|^2
    for lo, hi in _chunk_ranges(n_paths, chunk):
        inc = batch_increments(grid, m.dim, seed, range(lo, hi))
        pos, frames = simulate_increments(m, grid, inc, record=eval_idx)
        val = np.asarray(F.value(pos), dtype=float)
        if val.shape != (hi - lo,):
            raise ValueError(
                f"value must return one number per path: expected shape {(hi - lo,)}, "
                f"got {val.shape}"
            )
        slots = _pullback(F, pos, frames, g)
        f2 = val * val
        a_p[lo:hi] = f2 * _elementwise(math.log, f2)
        b_p[lo:hi] = f2
        r_p[lo:hi] = 2.0 * damped_energy_pairwise(ts, slots @ slots.transpose(0, 2, 1), c)

    a_bar, b_bar, r_bar = float(np.mean(a_p)), float(np.mean(b_p)), float(np.mean(r_p))
    entropy = a_bar - b_bar * math.log(b_bar)
    gap = r_bar - entropy
    # delta method: gap = r - a + b log(mean b); linearize the last term
    lin = r_p - a_p + (math.log(b_bar) + 1.0) * b_p
    gap_stderr = float(np.std(lin, ddof=1) / math.sqrt(n_paths))
    return LsiReport(
        entropy=entropy,
        dirichlet_twice=r_bar,
        gap=gap,
        gap_stderr=gap_stderr,
        n_paths=n_paths,
        violated=gap < -4.0 * gap_stderr,
        seed=seed,
    )


@dataclass(frozen=True)
class SlopeReport:
    """Weighted origin-through fit of (chi_T - 1) against T."""

    slope: EstimateWithCI
    predicted_slope: float
    points: tuple[ChiReport, ...]


def small_time_slope(
    m: ModelManifold,
    a: np.ndarray,
    T_list: Sequence[float],
    n_paths: int,
    seed: int,
    antithetic: bool = True,
    threads: int = 1,
) -> SlopeReport:
    """Fit the first-order coefficient of chi_T - 1 over a horizon ladder.

    The fitted slope is compared against <ric(u0) a, a> / 2 by the caller;
    chi_T upper-bounds the inverse-gap test quantity, so this exercises the
    upper branch of the small-time envelope.  Each ladder point uses the
    analytic variance identity Var(F) = T: the leftover noise then scales
    with T and the origin-through fit stays well conditioned at small T.
    Each horizon runs ``default_steps(T)`` steps.
    """
    T_list = list(T_list)
    if len(T_list) < 4:
        raise ValueError("need at least 4 horizons for the slope fit")
    points = _chi_ladder(
        m, a, [(T, default_steps(T)) for T in T_list], n_paths, seed, antithetic, False,
        _CHI_CHUNK, threads, "analytic",
    )
    ts = np.array([p.T for p in points])
    ys = np.array([p.chi.mean - 1.0 for p in points])
    sig = np.array([p.chi.stderr for p in points])
    if np.max(sig) == 0.0:
        denom = float(np.sum(ts * ts))
        slope = EstimateWithCI(float(np.sum(ts * ys) / denom), 0.0, len(ts), seed)
    else:
        if np.min(sig) <= 0.0:
            raise ValueError("ill-conditioned fit: mixed zero and nonzero point errors")
        w = 1.0 / sig**2
        denom = float(np.sum(w * ts * ts))
        slope_mean = float(np.sum(w * ts * ys) / denom)
        slope = EstimateWithCI(slope_mean, math.sqrt(1.0 / denom), len(ts), seed)
    c = m.ricci_scalar
    predicted = 0.5 * c * float(np.dot(a, a))
    return SlopeReport(slope=slope, predicted_slope=predicted, points=tuple(points))


def random_two_point_family(
    m: ModelManifold, T: float, n_funcs: int, seed: int
) -> list[CylindricalFunctional]:
    """Smooth random two-slot functionals with tangent-projected gradients.

    Values pair positions with random ambient vectors through the ambient
    metric (Minkowski on the hyperboloid), combined through sin/cos and a
    product term; gradients are the ambient coefficient vectors projected to
    the tangent spaces.
    """
    T = _require_horizon(T)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7001,)))
    amb = m.ambient_dim
    g = m.metric_diag()
    family = []
    for _ in range(n_funcs):
        t1, t2 = sorted(rng.uniform(0.2 * T, T, size=2))
        if t2 - t1 < 0.05 * T:
            t2 = min(T, t1 + 0.25 * T)
        b = rng.normal(size=(4, amb)) / math.sqrt(amb)
        alpha = rng.uniform(0.3, 1.0, size=3)

        def pairings(pos, b=b):
            """<b_0, x_1>, <b_1, x_2>, <b_2, x_1>, <b_3, x_2> per path."""
            return (
                np.vecdot(b[0] * g, pos[:, 0]),
                np.vecdot(b[1] * g, pos[:, 1]),
                np.vecdot(b[2] * g, pos[:, 0]),
                np.vecdot(b[3] * g, pos[:, 1]),
            )

        def value(pos, pairings=pairings, alpha=alpha):
            s1, s2, p1, p2 = pairings(pos)
            return (
                alpha[0] * _elementwise(math.sin, s1)
                + alpha[1] * _elementwise(math.cos, s2)
                + alpha[2] * p1 * p2
            )

        def slot_gradients(pos, pairings=pairings, b=b, alpha=alpha):
            s1, s2, p1, p2 = pairings(pos)
            c1 = alpha[0] * _elementwise(math.cos, s1)
            c2 = -alpha[1] * _elementwise(math.sin, s2)
            g1 = c1[:, None] * b[0] + (alpha[2] * p2)[:, None] * b[2]
            g2 = c2[:, None] * b[1] + (alpha[2] * p1)[:, None] * b[3]
            return np.stack(
                [_project_tangent(m, pos[:, 0], g1), _project_tangent(m, pos[:, 1], g2)], axis=1
            )

        family.append(CylindricalFunctional((t1, t2), value, slot_gradients))
    return family


def truncated_exponential_functional(
    b: np.ndarray, t_eval: float, cap: float
) -> CylindricalFunctional:
    """F = exp(clip(<b, x_t>, -cap, cap)): strictly positive, bounded."""
    b = np.asarray(b, dtype=float)

    def value(pos):
        return _elementwise(math.exp, np.clip(np.vecdot(b, pos[:, 0]), -cap, cap))

    def slot_gradients(pos):
        s = np.vecdot(b, pos[:, 0])
        inside = (-cap < s) & (s < cap)
        grad = _elementwise(math.exp, np.where(inside, s, 0.0))[:, None] * b
        grad[~inside] = 0.0
        return grad[:, None, :]

    return CylindricalFunctional((t_eval,), value, slot_gradients)


def exponential_functional(m: ModelManifold, b: np.ndarray, t_eval: float) -> CylindricalFunctional:
    """F = exp(<b, x_t>) with a tangent-projected gradient (bounded domains)."""
    b = np.asarray(b, dtype=float)
    bg = b * m.metric_diag()

    def value(pos):
        return _elementwise(math.exp, np.vecdot(bg, pos[:, 0]))

    def slot_gradients(pos):
        grad = _elementwise(math.exp, np.vecdot(bg, pos[:, 0]))[:, None] * b
        return _project_tangent(m, pos[:, 0], grad)[:, None, :]

    return CylindricalFunctional((t_eval,), value, slot_gradients)
