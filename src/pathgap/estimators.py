"""Monte-Carlo estimators and inequality verifiers.

Everything is deterministic in (seed, configuration): paths are seeded
counter-style, per-path statistics are written into preallocated arrays at
fixed offsets, and reductions happen once over the full arrays, so the
results do not depend on chunking.

The chi estimators compute nothing twice.  A mirrored path ``-increments``
has the same gradient field as its draw, so each pair is computed once.
Along a horizon ladder every path draws its normals once, for the longest
rung, and the shorter rungs use a prefix of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bounds import CurvatureBounds, _require_horizon, lambda_integral
from .geometry import SYNTHETIC, ModelManifold, _project_tangent
from .gradients import CylindricalFunctional, _batch_output, _pullback, resolvent_on_grid
from .sampling import BLOCK, TimeGrid, batch_increments, simulate_increments

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
    stderr = float(np.std(samples, ddof=1) / math.sqrt(n))
    return EstimateWithCI(mean, stderr, n, seed)


@dataclass(frozen=True)
class ChiReport:
    """Rayleigh-quotient estimate for the linear functional F = w_T^1."""

    T: float
    chi: EstimateWithCI
    predicted_first_order: float
    var_F: EstimateWithCI
    dirichlet: EstimateWithCI
    n_paths: int  # paths run: an odd count is rounded up to whole mirrored pairs
    n_steps: int


def default_steps(T: float) -> int:
    """Step-count rule keeping order-1 walk bias below the O(T) signal.

    At most 2**14 steps (T <= 1.6384): the chi ladder's workspace of
    normals, prefix sums and per-cell rows is then 92 MB at d = 3.
    """
    n = _require_horizon(T) / 1e-4
    if n > 2**14:
        raise ValueError(f"horizon T = {T} needs more than 2**14 steps of 1e-4 (T <= 1.6384)")
    return max(64, int(math.ceil(n)))


def _chunk_ranges(n: int, chunk: int):
    """ceil(n / chunk) ranges over 0..n, all but the last of one width.

    The width is at most ``chunk`` and is rounded up to whole blocks of
    ``BLOCK`` paths, so 10,000 paths in chunks of at most 4,096 run as
    3,392 + 3,392 + 3,216 rather than 4,096 + 4,096 + 1,808, and the
    widest buffer shrinks.  A ``chunk`` below one block comes out as given.
    """
    count = -(-n // chunk)
    width = min(chunk, BLOCK * -(-n // (count * BLOCK)))
    return [(s, min(s + width, n)) for s in range(0, n, width)]


# Draws per chunk of the chi estimators, one normal block: the ladder's _ChiWork
# is then 2.3 MB at d = 3 and the 400 steps of the README ladder (92 MB at
# 2**14 steps).  The result does not depend on it.
_CHI_CHUNK = 64


class _ChiWork:
    """The chi ladder's buffers, sized for its widest chunk.

    ``carve(p)`` points the attributes at C-contiguous views, from the front
    of one allocation, for a chunk of p draws over n steps: the prefix sums
    ``w`` and ``u`` (d, n+1, P) and ``v`` (n+1, P); four (n+1, P) ``rows`` of
    scratch; and ``inc``, the (P, n, d) transpose of an (n, d, P) normals
    buffer.  The prefix sums use ``rows[0]``, which the normals do not
    overlap; the martingale and the rung energy use all four, the last three
    over the normals, which are dead by then.  Every chunk writes into the
    same memory, so it is allocated and faulted in once per call.
    """

    def __init__(self, dim: int, n: int, width: int):
        self.dim, self.n = dim, n
        tail = max(n + 1 + n * dim, 4 * (n + 1))  # rows[0] and the normals, or the four rows
        self.store = np.empty(width * ((2 * dim + 1) * (n + 1) + tail))

    def carve(self, p: int) -> "_ChiWork":
        d, n = self.dim, self.n
        views, at = [], 0
        for shape in [(d, n + 1, p)] * 2 + [(n + 1, p)] * 5:
            views.append(self.store[at : at + math.prod(shape)].reshape(shape))
            at += math.prod(shape)
        self.w, self.u, self.v, *self.rows = views
        at -= 3 * (n + 1) * p  # the normals start after rows[0]
        self.inc = self.store[at : at + n * d * p].reshape(n, d, p).transpose(2, 0, 1)
        return self


def estimate_chi(
    m: ModelManifold,
    T: float,
    n_steps: int,
    n_paths: int,
    seed: int,
) -> ChiReport:
    """Monte-Carlo Rayleigh quotient chi_T for F = w_T^1, the first frame
    coordinate of the driving motion.  On a model space every unit a gives
    F = <a, w_T> the same chi_T: a rotation of the normals maps a to e_1.

    chi_T = E integral |D_tau F|^2 dtau / Var F, and Var F = T is an
    identity for this functional on every manifold.  The gradient field is
    det + mart: det = e_1 h with h = 1 + c (T - tau)/2 is deterministic, and
    the martingale part mart multiplies each increment by a left point
    independent of it, so the cross term 2 integral <det, mart> has mean
    exactly zero.  The numerator drops it, a control variate with a known
    mean: the grid sum of |det|^2, computed once, plus integral |mart|^2 per
    draw.  On flat space mart vanishes and chi is exactly 1 with zero spread.

    Each draw is paired with its mirror path ``-increments``, which has the
    same field while F changes sign; a pair is computed once, and an odd
    ``n_paths`` is rounded up to the next pair.  ``var_F``, the pair mean of
    F^2, checks the normals against Var F = T.  The result does not depend
    on the chunking.
    """
    return _chi_ladder(m, [(T, n_steps)], n_paths, seed)[0][0]


def _prefix_sums(increments: np.ndarray, work: _ChiWork):
    """Prefix sums at the nodes of a (P, n, d) batch of increments x_j, draws last.

    w_k = sum_{j<k} x_j and u_k = sum_{j<k} w_j^1 x_j are (d, n+1, P), and
    v_k = sum_{j<k} <w_j, x_j> is (n+1, P).  They are written into the
    arrays of ``work``, carved for P draws.
    """
    x = increments.transpose(2, 1, 0)  # (d, n, P) view
    w, u, v, scratch = work.w, work.u, work.v, work.rows[0]
    w[:, 0] = 0.0
    np.cumsum(x, axis=1, out=w[:, 1:])
    u[:, 0] = 0.0
    np.multiply(w[0, :-1], x, out=u[:, 1:])
    np.cumsum(u[:, 1:], axis=1, out=u[:, 1:])
    v[0] = 0.0
    np.multiply(w[0, :-1], x[0], out=v[1:])
    for wc, xc in zip(w[1:], x[1:]):
        v[1:] += np.multiply(wc[:-1], xc, out=scratch[1:])
    np.cumsum(v[1:], axis=0, out=v[1:])
    return w, u, v


def _martingale(sums, n: int, rows: Sequence[np.ndarray]):
    """Yield M_k, k < n, over the first n increments, one (n, P) component at a time.

    M_k = (u_n - u_k) - w_k^1 (w_n - w_k) - [(v_n - v_k) - <w_k, w_n - w_k>] e_1
    from the :func:`_prefix_sums`.  On constant curvature the gradient field
    of F = w_T^1 is e_1 (1 + c (T - tau)/2) - kappa M: the curvature action
    in the moving frame does not depend on the frame, the inner curvature
    integral is exact and the outer one left-point.

    The work and every part live in ``rows``, three (at least n, P) arrays,
    so each part overwrites the last.
    """
    w, u, v = sums
    ahead, scalar = rows[0][:n], rows[1][:n]  # ahead: w_n - w_k of one component, then scratch
    np.subtract(v[n], v[:n], out=scalar)
    for wc in w:
        scalar -= np.multiply(wc[:n], np.subtract(wc[n], wc[:n], out=ahead), out=ahead)
    for c, (wc, uc) in enumerate(zip(w, u)):
        np.multiply(np.subtract(wc[n], wc[:n], out=ahead), w[0, :n], out=ahead)
        part = np.subtract(uc[n], uc[:n], out=rows[2][:n])
        part -= ahead
        if c == 0:  # the scalar term lies along e_1
            part -= scalar
        yield part


def _chi_ladder(
    m: ModelManifold,
    rungs: Sequence[tuple[float, int]],
    n_paths: int,
    seed: int,
) -> tuple[list[ChiReport], np.ndarray]:
    """``estimate_chi`` for each (T, n_steps) rung, sharing every path's draw.

    Path k draws its normals z once, for the longest rung; a rung of n steps
    uses the first n rows, exactly the normals its own grid would draw for
    path k.  One set of prefix sums of z per chunk serves every rung: with
    increments sqrt(dt) z, dt = T/n, the martingale part is -kappa dt M and
    F = sqrt(dt) w_n^1.  Every chunk is drawn and summed in one
    :class:`_ChiWork`.  Also returns the numerators, (rungs, draws).
    """
    if m.kind == SYNTHETIC:
        raise ValueError("chi estimation needs a curvature tensor")
    n_paths += n_paths % 2
    n_draws = n_paths // 2
    if n_draws < 2:
        raise ValueError(
            f"the chi estimate needs at least 2 independent draws, got {max(n_draws, 0)}"
            " (a mirrored pair is one draw)"
        )
    c = m.ricci_scalar

    grids = [TimeGrid.with_times(T, n_steps, ()) for T, n_steps in rungs]
    # the (n, d) field e_1 h: a 1-D sum of h^2 dt rounds differently
    dets = [np.eye(m.dim)[0] * (1.0 + 0.5 * c * (g.T - g.times[:-1]))[:, None] for g in grids]
    det_energy = [float(np.einsum("kd,kd,k->", det, det, g.dts)) for det, g in zip(dets, grids)]
    n_max = max(grid.n_steps for grid in grids)
    # unit steps: batch_increments returns the raw normals
    normals_grid = TimeGrid.with_times(n_max, n_max, ())
    x_r = np.empty((len(grids), n_draws))  # integral |det|^2 + integral |mart|^2 per draw
    f_r = np.empty((len(grids), n_draws))  # F per draw
    ranges = _chunk_ranges(n_draws, _CHI_CHUNK)
    work = _ChiWork(m.dim, n_max, ranges[0][1])
    for lo, hi in ranges:
        work.carve(hi - lo)
        batch_increments(normals_grid, m.dim, seed, range(lo, hi), out=work.inc)
        sums = _prefix_sums(work.inc, work)
        for r, grid in enumerate(grids):
            n, dt = grid.n_steps, grid.T / grid.n_steps
            f_r[r, lo:hi] = math.sqrt(dt) * work.w[0, n]
            if m.kappa == 0.0:  # flat space has no martingale part
                x_r[r, lo:hi] = det_energy[r]
                continue
            energy = work.rows[3][:n]
            parts = _martingale(sums, n, work.rows)
            np.square(next(parts), out=energy)
            for part in parts:
                energy += np.square(part, out=part)
            # a running sum adds each draw's cells in order, however wide the chunk
            np.cumsum(energy, axis=0, out=energy)
            x_r[r, lo:hi] = det_energy[r] + m.kappa**2 * dt**3 * energy[-1]

    reports = []
    for r, grid in enumerate(grids):
        T = grid.T
        dirichlet = _mean_ci(x_r[r], seed)
        reports.append(
            ChiReport(
                T=T,
                chi=EstimateWithCI(dirichlet.mean / T, dirichlet.stderr / T, n_draws, seed),
                predicted_first_order=1.0 + 0.5 * T * c,
                var_F=_mean_ci(f_r[r] * f_r[r], seed),
                dirichlet=dirichlet,
                n_paths=n_paths,
                n_steps=grid.n_steps,
            )
        )
    return reports, x_r


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` of each entry of a 1-D array, through the scalar ``math`` function.

    The batched functionals and the entropy use this for exp, log, sin and
    cos, so each entry rounds exactly as the scalar evaluation of one path
    does on every platform (numpy's vectorised transcendental loops may
    differ from ``math`` in the last bit).
    """
    return np.fromiter(map(fn, x), float, x.size)


def damped_kernel(ts: np.ndarray, c: float) -> np.ndarray:
    """Weights K^d of the exact damped energy for constant Ricci c, (N, N).

    integral |D~_tau F|^2 dtau = sum_{j,k} <s_j, s_k> K^d_jk in the frame slot
    vectors s_j at the slot times ts: K^d_jk is the closed-form integral of
    e^{-c (t_j + t_k - 2 tau)/2} over tau in [0, min(t_j, t_k)].  The weights
    do not depend on the path.
    """
    tmin = np.minimum.outer(ts, ts)
    if c == 0.0:
        return tmin
    # e^{-c (t_j + t_k)/2} (e^{c tmin} - 1) / c, bounded for c > 0
    return -np.exp(-0.5 * c * np.abs(np.subtract.outer(ts, ts))) * np.expm1(-c * tmin) / c


# Relative excess of the damped over the weighted usual energy that still
# counts as satisfied: roundoff between the two closed-form sides.
THEOREM1_SLACK = 1e-8

# Most paths per chunk of the verifiers (``_chunk_ranges`` splits evenly in
# whole blocks): each functional is called once per chunk, and the reports do
# not depend on these.
_THEOREM1_CHUNK = 1024
_LSI_CHUNK = 4096


@dataclass(frozen=True)
class TheoremOneReport:
    """Pathwise comparison of damped vs weighted usual gradient energy."""

    n_paths: int
    n_functionals: int
    max_violation: float  # max over samples of (lhs - rhs) / max(rhs, tiny)
    satisfied_fraction: float
    slack: float
    seed: int
    # (path_index, functional_index, lhs, rhs) of max_violation, from its path
    # drawn again alone, as sample_path draws it; repr prints only the summary
    witness: tuple[int, int, float, float] = field(repr=False)


def verify_theorem1(
    m: ModelManifold,
    declared: CurvatureBounds,
    F_family: Sequence[CylindricalFunctional],
    T: float,
    n_steps: int,
    n_paths: int,
    seed: int,
) -> TheoremOneReport:
    """Per-path check that the damped-gradient energy never exceeds the
    Lambda-weighted usual-gradient energy.

    Constant-curvature manifolds use exact closed-form time integrals on both
    sides (the inequality has equality cases, so quadrature skew would
    produce spurious violations); synthetic Ricci paths use a per-cell
    trapezoid for the damped side.  Neither side's weights depend on the
    path: each functional's pair is built once from its own slot times, and
    each chunk of paths evaluates each functional once and contracts.  The
    report does not depend on the chunking.

    Only a synthetic path is checked against ``declared`` (``DataError``
    before any path is drawn): its window is a contract on supplied data.
    On constant curvature the window is the hypothesis under test, so a
    window that excludes the true Ricci runs and can fail the check.

    It can fail only where c < 0.  Let h = DF and
    u(tau) = integral_tau^T e^{-c (s - tau)/2} h(s) ds.  Then D~F = h - (c/2) u
    and h = (c/2) u - u' with u(T) = 0, and integrating by parts gives
    integral |D~F|^2 = integral |DF|^2 - (c^2/4) integral |u|^2 - (c/2) |u(0)|^2,
    at most integral |DF|^2 when c >= 0.  In slot vectors: min(t_j, t_k)
    minus the :func:`damped_kernel` weights is positive semidefinite.
    Since also Lambda >= 1 on every admissible window, no window passed with
    a sphere or flat space fails; on H^d a raised k2 does.
    """
    if n_paths < 1:
        raise ValueError(f"the pathwise check needs at least 1 path, got {n_paths}")
    if len(F_family) == 0:
        raise ValueError("the pathwise check needs at least 1 functional")
    eval_times = np.array(sorted({t for F in F_family for t in F.eval_times}), dtype=float)
    grid = TimeGrid.with_times(T, n_steps, eval_times)
    rec_idx = np.searchsorted(grid.times, eval_times)  # with_times inserted them exactly
    # per functional, before any path: K^d (a block of one sweep on a synthetic path), K^L
    if m.kind == SYNTHETIC:
        sweep = _damped_weights(grid, rec_idx, resolvent_on_grid(grid, m, declared))
    L = np.array([lambda_integral(t, T, declared) for t in eval_times])
    per_F = []
    for F in F_family:
        sel = np.searchsorted(eval_times, F.eval_times)
        ts = eval_times[sel]
        kd = sweep[np.ix_(sel, sel)] if m.kind == SYNTHETIC else damped_kernel(ts, m.ricci_scalar)
        # eval_times increase, so L(min(t_j, t_k)) is L at min(sel_j, sel_k)
        per_F.append((F, sel, kd, L[np.minimum.outer(sel, sel)]))
    g = m.metric_diag()

    worst = np.full(n_paths, -np.inf)  # per path: largest violation
    n_ok = np.zeros(n_paths, dtype=np.int64)  # per path: functionals within the slack

    def sides(lo, hi):
        """Yield each functional's (violation, lhs, rhs) on paths lo..hi."""
        inc = batch_increments(grid, m.dim, seed, range(lo, hi))
        pos, frames = simulate_increments(m, grid, inc, record=rec_idx)
        for F, sel, kd, kl in per_F:
            slots = _pullback(F, pos[:, sel], frames[:, sel], g, lo)
            gram = slots @ slots.transpose(0, 2, 1)
            rhs = np.sum(gram * kl, axis=(1, 2))
            if kd.ndim == 2:
                lhs = np.sum(gram * kd, axis=(1, 2))
            else:
                lhs = np.einsum("pja,jlab,plb->p", slots, kd, slots)
            yield (lhs - rhs) / np.maximum(np.abs(rhs), 1e-300), lhs, rhs

    for lo, hi in _chunk_ranges(n_paths, _THEOREM1_CHUNK):
        for violation, _, _ in sides(lo, hi):
            np.maximum(worst[lo:hi], violation, out=worst[lo:hi])
            n_ok[lo:hi] += violation <= THEOREM1_SLACK

    k = int(np.argmax(worst))
    replay = [(float(v[0]), float(lhs[0]), float(rhs[0])) for v, lhs, rhs in sides(k, k + 1)]
    j = int(np.argmax([v for v, _, _ in replay]))
    return TheoremOneReport(
        n_paths=n_paths,
        n_functionals=len(F_family),
        max_violation=float(worst[k]),
        satisfied_fraction=int(np.sum(n_ok)) / (n_paths * len(F_family)),
        slack=THEOREM1_SLACK,
        seed=seed,
        witness=(k, j, *replay[j][1:]),
    )


def _damped_weights(grid: TimeGrid, idx: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Path-independent weights W of the trapezoid damped energy, (N, N, d, d).

    The energy is sum_{j,l} s_j^T W_jl s_l in the slot gradients s_j, with
    W_jl = 1/2 sum_{k < min(i_j, i_l)} dt_k (Q_{i_j,k} Q_{i_l,k}^T
    + Q_{i_j,k+1} Q_{i_l,k+1}^T) and i_j = idx[j] the slot's grid index.  For
    i_j <= i_l the cocycle gives W_jl = G_{i_j} Q_{i_l,i_j}^T with the
    trapezoid Gramian G_{k+1} = M_k (G_k + dt_k/2 I) M_k^T + dt_k/2 I.  One
    forward sweep carries H_j = Q_{k,i_j} G_{i_j} for the slots passed, and
    at k = i_l block column l is H^T and block row l is H.  ``steps`` holds
    the per-cell propagators M_k of the grid; the sweep reads them up to the
    last slot.
    """
    last = int(max(idx))
    N, d = len(idx), steps.shape[-1]
    slot_at = {int(i): l for l, i in enumerate(idx)}  # slot grid indices are distinct
    eye = np.eye(d)
    gram = np.zeros((d, d))
    held = np.zeros((d, N * d))  # block j: H_j, zero until slot j is passed
    weights = np.zeros((N, N, d, d))
    for k in range(last + 1):
        l = slot_at.get(k)
        if l is not None:
            held[:, l * d : (l + 1) * d] = gram
            blocks = held.reshape(d, N, d).transpose(1, 0, 2)
            weights[:, l] = blocks.transpose(0, 2, 1)
            weights[l] = blocks
        if k < last:
            half = 0.5 * grid.dts[k]
            gram = steps[k] @ (gram + half * eye) @ steps[k].T + half * eye
            held = steps[k] @ held
    return weights


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
) -> LsiReport:
    """Estimate E(F^2 log(F^2/||F||^2)) and 2 E integral |D~F|^2 and compare.

    Monte Carlo cannot certify an inequality between expectations; the check
    only flags a failure when the gap is negative beyond four combined
    standard errors.  The report does not depend on the chunking.
    """
    if m.kind == SYNTHETIC:
        raise ValueError("the entropy check needs a curvature tensor")
    if n_paths < 2:
        raise ValueError(f"the entropy check needs at least 2 paths, got {n_paths}")
    grid = TimeGrid.with_times(T, n_steps, F.eval_times)
    eval_idx = np.searchsorted(grid.times, F.eval_times)  # with_times inserted them exactly
    k_damped = damped_kernel(np.array(F.eval_times), m.ricci_scalar)
    g = m.metric_diag()

    a_p = np.empty(n_paths)  # F^2 log F^2
    b_p = np.empty(n_paths)  # F^2
    r_p = np.empty(n_paths)  # 2 * integral |D~F|^2

    # a function, so that a chunk's arrays are freed before the next chunk draws
    def run_chunk(lo, hi):
        inc = batch_increments(grid, m.dim, seed, range(lo, hi))
        pos, frames = simulate_increments(m, grid, inc, record=eval_idx)
        val = _batch_output(F.value(pos), (hi - lo,), "value", "one number per path", lo)
        slots = _pullback(F, pos, frames, g, lo)
        f2 = val * val
        a_p[lo:hi] = f2 * _elementwise(math.log, f2)
        b_p[lo:hi] = f2
        r_p[lo:hi] = 2.0 * np.sum(slots @ slots.transpose(0, 2, 1) * k_damped, axis=(1, 2))

    for lo, hi in _chunk_ranges(n_paths, _LSI_CHUNK):
        run_chunk(lo, hi)
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
    """Origin-through fit of (chi_T - 1) against T, with fixed weights T^-4.

    The stderr is the spread of the per-draw fit.  It excludes the fit's
    O(T) bias and the time-step bias (together about +0.021 on the unit
    3-sphere at the README ladder).
    """

    slope: EstimateWithCI
    predicted_slope: float
    points: tuple[ChiReport, ...]


def small_time_slope(
    m: ModelManifold,
    T_list: Sequence[float],
    n_paths: int,
    seed: int,
) -> SlopeReport:
    """Fit the first-order coefficient of chi_T - 1 over a horizon ladder.

    The fitted slope is compared against c/2 = <ric(u0) a, a> / 2 by the caller;
    chi_T upper-bounds the inverse-gap test quantity, so this exercises the
    upper branch of the small-time envelope.  The chi stderr scales as T^2,
    so rung r gets the fixed weight w_r = T_r^-4, and each draw i gives the
    slope sum_r w_r T_r (x_ri / T_r - 1) / sum_r w_r T_r^2 from its
    numerators x_ri.  Every rung shares the draws, so the mean and stderr of
    these per-draw slopes carry the rungs' correlation.  Each horizon runs
    ``default_steps(T)`` steps.
    """
    T_list = list(T_list)
    if len(T_list) < 4:
        raise ValueError("need at least 4 horizons for the slope fit")
    points, x = _chi_ladder(m, [(T, default_steps(T)) for T in T_list], n_paths, seed)
    ts = np.array([p.T for p in points])
    coef = ts**-3 / np.sum(ts**-2)
    slope = _mean_ci(coef @ (x / ts[:, None] - 1.0), seed)
    return SlopeReport(slope=slope, predicted_slope=0.5 * m.ricci_scalar, points=tuple(points))


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
