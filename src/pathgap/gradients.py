"""Damping propagators on a grid and the gradient algebra of one sampled path.

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
quantity is one forward or backward sweep over them, O(n) in the grid.
The batched energies and the algebra of the linear functional <a, w_T> are
in :mod:`pathgap.estimators`, their only caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._backend import kernels
from .bounds import CurvatureBounds
from .geometry import SYNTHETIC, ModelManifold, ricci_matrix
from .sampling import PathSample, TimeGrid

__all__ = [
    "DataError",
    "ResolventGrid",
    "CylindricalFunctional",
    "GradientField",
    "resolvent_on_grid",
    "usual_gradient",
    "damped_gradient",
    "damped_gradient_integral_form",
    "transform_pair",
    "duality_defect",
    "field_energy",
    "field_l2_distance",
]


class DataError(ValueError):
    """Supplied data violates its declared contract (e.g. curvature window)."""


@dataclass(frozen=True)
class CylindricalFunctional:
    """F(path) = value(x_{t_1}, ..., x_{t_N}) with per-slot tangent gradients.

    Both callbacks are batched over paths.  ``value`` maps the (P, N,
    ambient_dim) stack of positions at the evaluation times, one row per
    path, to the (P,) array of values; ``slot_gradients`` maps the same stack
    to the (P, N, ambient_dim) array of intrinsic (tangent) gradients, one
    per path and slot.  Single-path callers pass P = 1.  Evaluation times
    must be grid points of any path the functional is applied to.
    """

    eval_times: tuple
    value: Callable[[np.ndarray], np.ndarray]
    slot_gradients: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.eval_times)
        object.__setattr__(self, "eval_times", ts)
        if len(ts) == 0:
            raise ValueError("need at least one evaluation time")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("evaluation times must be strictly increasing")


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


@dataclass(frozen=True)
class ResolventGrid:
    """Damping propagators on a time grid, held as their per-cell steps.

    ``steps[k]`` is M_k = Q_{t_{k+1}, t_k}, (n, d, d): the exact
    e^{-c dt_k/2} Id on constant Ricci c, the RK4 step otherwise.  Every
    propagator is a product Q_{t_i, t_j} = M_{i-1} ... M_j, so the gradient
    algebra sweeps the steps in O(n); ``kernels.resolvent_triangle`` and
    ``kernels.resolvent_column`` form the products as test references.
    ``ricci`` holds the Ricci matrices at the n + 1 nodes, (n+1, d, d).
    """

    grid: TimeGrid
    steps: np.ndarray
    ricci: np.ndarray


def _stage_ricci(m: ModelManifold, grid: TimeGrid) -> np.ndarray:
    """Ricci path at the RK4 stage times (t_k, midpoint, t_{k+1}), each node once."""
    times = grid.times
    nodes = np.array([ricci_matrix(m, t) for t in times])
    mids = np.array([ricci_matrix(m, 0.5 * (t0 + t1)) for t0, t1 in zip(times[:-1], times[1:])])
    return np.stack([nodes[:-1], mids, nodes[1:]], axis=1)


def resolvent_on_grid(grid: TimeGrid, m: ModelManifold, declared: CurvatureBounds) -> ResolventGrid:
    """Damping propagators on a grid; the Ricci data depends on time only.

    The Ricci data is checked against the declared window first; a violation
    raises :class:`DataError`.  Constant Ricci c gives the exact steps
    e^{-c dt_k/2} Id.  A synthetic path is checked at every distinct RK4
    stage time and integrated by RK4 with stage-time evaluation: one step
    matrix per cell.  Either way the grid holds O(n) matrices.
    """
    if m.kind != SYNTHETIC:
        c = m.ricci_scalar
        if c < declared.k2 - 1e-12 or abs(c) > declared.k1 + 1e-12:
            raise DataError(
                f"constant Ricci {c:.6g} outside declared window "
                f"(k1={declared.k1:.6g}, k2={declared.k2:.6g})"
            )
        eye = np.eye(m.dim)
        ricci = c * np.broadcast_to(eye, (grid.n_steps + 1, m.dim, m.dim))
        return ResolventGrid(grid, np.exp(-0.5 * c * grid.dts)[:, None, None] * eye, ricci)
    stages = _stage_ricci(m, grid)
    ricci = np.concatenate([stages[:, 0], stages[-1:, 2]])
    mats = np.concatenate([ricci, stages[:, 1]])
    min_eig = np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, -1, -2)))[:, 0].min()
    op_norm = np.linalg.norm(mats, ord=2, axis=(-2, -1)).max()
    if min_eig < declared.k2 - 1e-9:
        raise DataError(
            f"ricci path violates declared lower bound: min sym eigenvalue "
            f"{min_eig:.6g} < k2 = {declared.k2:.6g}"
        )
    if op_norm > declared.k1 + 1e-9:
        raise DataError(
            f"ricci path violates declared norm bound: max operator norm "
            f"{op_norm:.6g} > k1 = {declared.k1:.6g}"
        )
    return ResolventGrid(grid, kernels.resolvent_steps(stages, grid.dts), ricci)


def _pullback(F: CylindricalFunctional, positions: np.ndarray, frames: np.ndarray, g: np.ndarray):
    """Frame-coordinate slot gradients u^{-1} (grad_j f) for a batch of paths.

    ``positions`` (P, N, amb) and ``frames`` (P, N, d, amb) hold each path
    at the evaluation times of F and ``g`` is the ambient metric diagonal.
    Returns (P, N, d).
    """
    grads = np.asarray(F.slot_gradients(positions), dtype=float)
    if grads.shape != positions.shape:
        raise ValueError(
            f"slot_gradients must return one ambient vector per path and slot: "
            f"expected shape {positions.shape}, got {grads.shape}"
        )
    return np.einsum("pjia,pja->pji", frames * g, grads)


def frame_pullback_slots(F: CylindricalFunctional, path: PathSample, m: ModelManifold):
    """Slot gradients of F pulled back through the frames.

    Returns (eval_indices, slots) where slots[j] is the frame-coordinate
    gradient u^{-1} (grad_j f) in R^d at evaluation time j.
    """
    idx = np.array([path.grid.index_of(t) for t in F.eval_times], dtype=np.int64)
    slots = _pullback(F, path.positions[idx][None], path.frames[idx][None], m.metric_diag())
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
    F: CylindricalFunctional, path: PathSample, R: ResolventGrid, m: ModelManifold
) -> GradientField:
    """Damped version: each future slot is twisted by Q*_{t_j, tau}."""
    idx, slots = frame_pullback_slots(F, path, m)
    left, _ = _damped_limits(idx, slots, R)
    return GradientField(path.grid, left)


def _damped_limits(idx, slots, R: ResolventGrid):
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


def damped_gradient_integral_form(
    F: CylindricalFunctional, path: PathSample, R: ResolventGrid, m: ModelManifold
) -> GradientField:
    """Damped gradient via the correction-integral formula.

    D~_t = D_t - 1/2 integral_t^T Q*_{s,t} ric*(s) D_s ds, with the s-integral
    taken by a trapezoid rule per grid cell.  Agrees with
    :func:`damped_gradient` up to quadrature error, which the test suite
    tracks under grid refinement.  The integral J_k at t_k is one backward
    sweep, J_k = M_k* (J_{k+1} + dt_k/2 ric*(t_{k+1}) D_k) + dt_k/2 ric*(t_k) D_k.
    """
    usual = usual_gradient(F, path, m).values
    half = 0.5 * path.grid.dts
    ric = R.ricci
    steps = R.steps
    values = np.empty_like(usual)
    acc = np.zeros(usual.shape[1])
    for k in range(usual.shape[0] - 1, -1, -1):
        acc = (acc + half[k] * (usual[k] @ ric[k + 1])) @ steps[k] + half[k] * (usual[k] @ ric[k])
        values[k] = usual[k] - 0.5 * acc
    return GradientField(path.grid, values)


def transform_pair(
    v: GradientField, path: PathSample, R: ResolventGrid, m: ModelManifold
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


def _tilde_corrections(v: GradientField, R: ResolventGrid, ric: np.ndarray) -> np.ndarray:
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
    R: ResolventGrid,
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
