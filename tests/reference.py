"""Reference gradient algebra of one sampled path, the geometry defects, the
chi numerator's exact mean on model spaces and the theorem1 family's exact
worst case.

The package computes the damped energy in one batched form only
(``estimators._damped_weights`` and ``damped_kernel``); this module
re-derives the gradient fields one path at a time, and the tests compare
against it.  The curvature action, which no package code needs, is kept
here for the contraction identity (Ricci as its trace).  Imported by the
tests as ``from reference import ...``.

For a cylindrical functional F(path) = f(x_{t_1}, ..., x_{t_N}) the usual
gradient at time tau is the frame pullback of the slot gradients of f summed
over future evaluation times; the damped gradient additionally twists each
term by the transposed damping propagator Q_{t_j, tau}, where Q solves
dQ_{t,s}/dt = -1/2 ric(t) Q_{t,s}, Q_{s,s} = Id.

Gradient fields are piecewise constant on grid cells (value index k covers
[t_k, t_{k+1})), so plain time integrals of fields are exact left-point
sums.  Integrals weighted by the propagator use a trapezoid rule per cell,
which keeps the transform round-trips and the two damped-gradient formulas
consistent to second order in the step.  Every discrete propagator is a
product of the per-cell steps M_k = Q_{t_{k+1}, t_k}, so each damped
quantity is one forward or backward sweep over them, O(n) in the grid.  The
package returns only the steps (``resolvent_on_grid``); :func:`resolvent`
bundles them with their grid and the node Ricci matrices that the sweeps read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pathgap import estimators as est
from pathgap.bounds import CurvatureBounds, lambda_integral
from pathgap.estimators import default_steps
from pathgap.geometry import SYNTHETIC, FramePoint, ModelManifold, ricci_matrix
from pathgap.gradients import CylindricalFunctional, _pullback, resolvent_on_grid
from pathgap.sampling import PathSample, TimeGrid, batch_increments


def whole_increments(grid: TimeGrid, dim: int, seed: int, indices: range) -> np.ndarray:
    """All (P, n_steps, dim) increments of paths ``indices`` in one array, drawn
    through ``out=`` into a draws-last buffer (without it the draw is a stream)."""
    out = np.empty((grid.n_steps, dim, len(indices))).transpose(2, 0, 1)
    return batch_increments(grid, dim, seed, indices, out=out)


def index_of(grid: TimeGrid, t: float) -> int:
    """Exact index of a grid time; raises if t is not on the grid."""
    idx = int(np.searchsorted(grid.times, t))
    if idx >= grid.times.shape[0] or grid.times[idx] != t:
        raise ValueError(f"time {t} is not a grid point")
    return idx


def ricci_at_nodes(m: ModelManifold, grid: TimeGrid) -> np.ndarray:
    """The Ricci matrices at the grid nodes, one callback call each."""
    return np.array([ricci_matrix(m, t) for t in grid.times])


@dataclass(frozen=True)
class Resolvent:
    """What the one-path sweeps read of a grid: the grid, its damping steps
    (``resolvent_on_grid``, (n, d, d)) and the Ricci matrices at its n + 1
    nodes, (n+1, d, d)."""

    grid: TimeGrid
    steps: np.ndarray
    ricci: np.ndarray


def resolvent(grid: TimeGrid, m: ModelManifold, declared: CurvatureBounds) -> Resolvent:
    """The grid's :class:`Resolvent`, its steps checked against ``declared``."""
    return Resolvent(grid, resolvent_on_grid(grid, m, declared), ricci_at_nodes(m, grid))


@dataclass(frozen=True)
class GradientField:
    """Piecewise-constant field: values[k] holds on [t_k, t_{k+1})."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape[0] != self.grid.n_steps:
            raise ValueError("need one value per grid cell")


def field_energy(field: GradientField) -> float:
    """integral |v_t|^2 dt; exact for piecewise-constant fields."""
    return float(np.einsum("kd,kd,k->", field.values, field.values, field.grid.dts))


def field_l2_distance(f1: GradientField, f2: GradientField) -> float:
    """L^2(grid) distance between two fields on the same grid."""
    diff = f1.values - f2.values
    return float(np.sqrt(np.einsum("kd,kd,k->", diff, diff, f1.grid.dts)))


def frame_pullback_slots(F: CylindricalFunctional, path: PathSample, m: ModelManifold):
    """Slot gradients of F pulled back through the frames.

    Returns (eval_indices, slots) where slots[j] is the frame-coordinate
    gradient u^{-1} (grad_j f) in R^d at evaluation time j.
    """
    idx = np.array([index_of(path.grid, t) for t in F.eval_times], dtype=np.int64)
    slots = _pullback(
        F, path.positions[idx][None], path.frames[idx][None], m.metric_diag(), path.path_index
    )
    return idx, slots[0]


def usual_gradient(F: CylindricalFunctional, path: PathSample, m: ModelManifold) -> GradientField:
    """Frame pullbacks of future slot gradients: sum over t_j >= tau.

    Cell k carries the sum of u_{t_j}^{-1} grad_j f over slots with
    t_j >= t_{k+1}, matching the indicator structure exactly on the grid.
    """
    idx, slots = frame_pullback_slots(F, path, m)
    n, d = path.grid.n_steps, slots.shape[1]
    values = np.zeros((n, d))
    for j, slot in zip(idx, slots):
        values[:j] += slot
    return GradientField(path.grid, values)


def damped_gradient(
    F: CylindricalFunctional, path: PathSample, R: Resolvent, m: ModelManifold
) -> GradientField:
    """Damped version: each future slot is twisted by Q*_{t_j, tau}."""
    idx, slots = frame_pullback_slots(F, path, m)
    left, _ = _damped_limits(idx, slots, R)
    return GradientField(path.grid, left)


def _damped_limits(idx, slots, R: Resolvent):
    """Left and right limits of the damped gradient on each grid cell, (n, d) each.

    On cell k the damped gradient is the sum of Q*_{t_j, tau} slots[j] over
    the slots with t_j > t_k; ``left`` evaluates it at tau = t_k and
    ``right`` at tau = t_{k+1}.  The left limit is the cell value.  One
    backward sweep: right[k] is the sum A over the slots past t_k, taken at
    t_{k+1}, and left[k] = M_k* A.
    """
    n, d = R.grid.n_steps, slots.shape[1]
    at = np.zeros((n + 1, d))
    np.add.at(at, np.asarray(idx), slots)
    steps = R.steps
    left = np.empty((n, d))
    right = np.empty((n, d))
    acc = at[n]
    for k in range(n - 1, -1, -1):
        right[k] = acc
        left[k] = acc @ steps[k]
        acc = left[k] + at[k]
    return left, right


def damped_sweep(usual: np.ndarray, R: Resolvent) -> np.ndarray:
    """The damped transform of a gradient field, (n, d) values on R's grid.

    D~_t = D_t - 1/2 integral_t^T Q*_{s,t} ric*(s) D_s ds, with the s-integral
    taken by a trapezoid rule per grid cell.  The integral J_k at t_k is one
    backward sweep, J_k = M_k* (J_{k+1} + dt_k/2 ric*(t_{k+1}) D_k) + dt_k/2 ric*(t_k) D_k.
    """
    half = 0.5 * R.grid.dts
    ric = R.ricci
    steps = R.steps
    values = np.empty_like(usual)
    acc = np.zeros(usual.shape[1])
    for k in range(usual.shape[0] - 1, -1, -1):
        acc = (acc + half[k] * (usual[k] @ ric[k + 1])) @ steps[k] + half[k] * (usual[k] @ ric[k])
        values[k] = usual[k] - 0.5 * acc
    return values


def damped_gradient_integral_form(
    F: CylindricalFunctional, path: PathSample, R: Resolvent, m: ModelManifold
) -> GradientField:
    """Damped gradient via the correction-integral formula: the usual
    gradient through :func:`damped_sweep`.  Agrees with
    :func:`damped_gradient` up to quadrature error, which the test suite
    tracks under grid refinement.
    """
    return GradientField(path.grid, damped_sweep(usual_gradient(F, path, m).values, R))


def transform_pair(
    v: GradientField, path: PathSample, R: Resolvent, m: ModelManifold
) -> tuple[GradientField, GradientField]:
    """The mutually inverse damping / undamping maps on adapted fields.

    tilde(v)_t = v_t - 1/2 ric(t) integral_0^t Q_{t,s} v_s ds
    hat(v)_t   = v_t + 1/2 ric(t) integral_0^t v_s ds

    The hat integral of a piecewise-constant field is an exact sum; the
    propagator-weighted tilde integral uses the composite trapezoid rule.
    """
    n = v.values.shape[0]
    ric = R.ricci
    tilde = v.values - _tilde_corrections(v, R, ric)[:n]
    running = np.cumsum(path.grid.dts[:-1, None] * v.values[:-1], axis=0)
    hat = v.values.copy()
    hat[1:] += 0.5 * np.einsum("kab,kb->ka", ric[1:n], running)
    return GradientField(path.grid, tilde), GradientField(path.grid, hat)


def _tilde_corrections(v: GradientField, R: Resolvent, ric: np.ndarray) -> np.ndarray:
    """1/2 ric(t_k) integral_0^{t_k} Q_{t_k, s} v_s ds at the nodes k = 0..n, (n+1, d).

    One forward sweep of the composite trapezoid: the integral I_k at t_k
    is I_{k+1} = M_k (I_k + dt_k/2 v_k) + dt_k/2 v_k.  ``ric`` holds the
    Ricci matrices at the nodes.
    """
    n, d = v.values.shape
    half = 0.5 * v.grid.dts
    steps = R.steps
    integ = np.zeros((n + 1, d))
    for k in range(n):
        cell = half[k] * v.values[k]
        integ[k + 1] = steps[k] @ (integ[k] + cell) + cell
    return 0.5 * np.einsum("kab,kb->ka", ric, integ)


def duality_defect(
    F: CylindricalFunctional,
    v: GradientField,
    path: PathSample,
    R: Resolvent,
    m: ModelManifold,
) -> float:
    """|integral <D~F, v> dt - integral <DF, tilde(v)> dt|, both sides quadratured.

    Within each cell the damped gradient and the tilde correction vary
    smoothly in time, so both sides use the trapezoid of their cell-endpoint
    limits (the active future-slot set of the cell applies at both ends);
    the usual gradient and v themselves are exactly piecewise constant.
    """
    idx, slots = frame_pullback_slots(F, path, m)
    dts = path.grid.dts
    left, right = _damped_limits(idx, slots, R)
    lhs = float(0.5 * np.einsum("k,kd,kd->", dts, left + right, v.values))

    usual = usual_gradient(F, path, m)
    # left/right limits of tilde(v) on each cell: v is constant there, the
    # damping correction is evaluated at both cell ends
    corr = _tilde_corrections(v, R, R.ricci)
    tilde_left = v.values - corr[:-1]
    tilde_right = v.values - corr[1:]
    rhs = float(0.5 * np.einsum("k,kd,kd->", dts, usual.values, tilde_left + tilde_right))
    return abs(lhs - rhs)


def curvature_action(m: ModelManifold, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of c |-> kappa * (<b, c> a - <a, c> b) in the moving frame.

    Frame-independent for constant curvature, which is why no frame argument
    appears.  Antisymmetric in (a, b); identically zero on Euclidean space.
    """
    if m.kind == SYNTHETIC:
        raise ValueError("synthetic mode carries no curvature tensor")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (m.dim,) or b.shape != (m.dim,):
        raise ValueError(f"a, b must be vectors of length {m.dim}")
    return m.kappa * (np.outer(a, b) - np.outer(b, a))


def frame_orthonormality_defect(m: ModelManifold, fp: FramePoint) -> float:
    """Max |<e_i, e_j> - delta_ij| over the frame, in the ambient metric."""
    g = m.metric_diag()
    gram = (fp.frame * g) @ fp.frame.T
    return float(np.max(np.abs(gram - np.eye(m.dim))))


def surface_defect(m: ModelManifold, fp: FramePoint) -> float:
    """Distance of the position from the model surface <x, x> = 1/kappa."""
    if not m.kappa:
        return 0.0
    q = (fp.position * m.metric_diag()) @ fp.position
    return float(abs(q - 1.0 / m.kappa))


def expected_numerator(m: ModelManifold, T: float, n: int) -> float:
    """Mean chi numerator of F = w_T^1 on n uniform steps of constant curvature.

    The left-point sum of h_k^2 dt, h_k = 1 + c (T - t_k)/2, plus the
    martingale energy kappa^2 (d - 1) dt^3 (n^3 - n)/3: the martingale terms
    are orthogonal, so E|M_k|^2 = (d - 1)(n - k)(n - k - 1).
    """
    dt = T / n
    h = 1.0 + 0.5 * m.ricci_scalar * (T - dt * np.arange(n))
    return float(np.sum(h * h) * dt) + m.kappa**2 * (m.dim - 1) * dt**3 * (n**3 - n) / 3.0


def expected_slope(m: ModelManifold, ladder) -> float:
    """The slope ``small_time_slope`` fits, with the T^-4 weights, to the exact
    chi means on each rung's default step count."""
    ts = np.array(ladder, dtype=float)
    means = np.array([expected_numerator(m, T, default_steps(T)) for T in ladder])
    return float(ts**-3 / np.sum(ts**-2) @ (means / ts - 1.0))


def lambda_kernel(ts, T, declared):
    """K^L = L(min(t_j, t_k)), one scalar lambda_integral call per entry."""
    return np.array([[lambda_integral(min(a, b), T, declared) for b in ts] for a in ts])


def exact_worst_violation(m, declared, family, T, n_steps):
    """The family's largest lambda_max(K^L^-1 K^d) - 1: each functional's worst
    relative violation over all slot vectors at its slot times.

    Both sides are quadratic forms in the slot vectors, with K^L = L(min(t_j,
    t_k)); on a synthetic path the damped side is the symmetrized (Nd, Nd)
    form of the trapezoid weights against K^L (x) I_d.  A Cholesky of K^L
    whitens the damped side, and ``eigvalsh`` takes its largest eigenvalue.
    """
    grid = TimeGrid.with_times(T, n_steps, sorted({t for F in family for t in F.eval_times}))
    worst = -math.inf
    for F in family:
        ts = np.array(F.eval_times)
        kl = lambda_kernel(ts, T, declared)
        if m.kind == SYNTHETIC:
            idx = np.array([index_of(grid, t) for t in ts])
            w = est._damped_weights(grid, idx, resolvent_on_grid(grid, m, declared))
            nd = w.shape[0] * w.shape[-1]
            kd = w.transpose(0, 2, 1, 3).reshape(nd, nd)
            kl = np.kron(kl, np.eye(w.shape[-1]))
        else:
            kd = est.damped_kernel(ts, m.ricci_scalar)
        chol = np.linalg.cholesky(kl)
        white = np.linalg.solve(chol, np.linalg.solve(chol, kd).T)
        worst = max(worst, np.linalg.eigvalsh(0.5 * (white + white.T))[-1] - 1.0)
    return worst
