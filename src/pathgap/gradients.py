"""Pathwise gradient machinery along sampled paths.

For a cylindrical functional F(path) = f(x_{t_1}, ..., x_{t_N}) the usual
gradient at time tau is the frame pullback of the slot gradients of f summed
over future evaluation times; the damped gradient additionally twists each
term by the transposed damping propagator Q_{t_j, tau}, where Q solves
dQ_{t,s}/dt = -1/2 ric(t) Q_{t,s}, Q_{s,s} = Id.

Gradient fields are piecewise constant on grid cells (value index k covers
[t_k, t_{k+1})), so plain time integrals of fields are exact left-point
sums.  Integrals weighted by the propagator use a trapezoid rule per cell,
which keeps the transform round-trips and the two damped-gradient formulas
consistent to second order in the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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
    "resolvent_propagator",
    "usual_gradient",
    "damped_gradient",
    "damped_gradient_integral_form",
    "transform_pair",
    "duality_defect",
    "correlated_norm",
    "linear_functional_gradient",
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
    """Damping propagators Q_{t_i, t_j} (i >= j) on a time grid.

    Constant Ricci c*Id produces the exact scalar form Q = e^{-c (t_i-t_j)/2} Id
    (``packed`` is None, nothing stored); otherwise the packed lower triangle
    from the RK4 kernel is held with pair (i, j) at index i*(i+1)/2 + j.
    Callers read propagators only through ``entry``, ``row`` and ``column``,
    which return (d, d) matrices in either form.
    """

    grid: TimeGrid
    dim: int
    scalar_rate: float = 0.0
    packed: Optional[np.ndarray] = None

    def entry(self, i: int, j: int) -> np.ndarray:
        """Q_{t_i, t_j} as a (d, d) matrix."""
        if j > i:
            raise IndexError("propagator defined for i >= j only")
        return self.row(i)[j]

    def row(self, i: int) -> np.ndarray:
        """Stack Q_{t_i, t_j} for j = 0..i, shape (i+1, d, d)."""
        if self.packed is None:
            dts = self.grid.times[i] - self.grid.times[: i + 1]
            return np.exp(-0.5 * self.scalar_rate * dts)[:, None, None] * np.eye(self.dim)
        base = i * (i + 1) // 2
        return self.packed[base : base + i + 1]

    def column(self, j: int) -> np.ndarray:
        """Stack Q_{t_i, t_j} for i = j..n, shape (n+1-j, d, d)."""
        n = self.grid.n_steps
        if self.packed is None:
            dts = self.grid.times[j:] - self.grid.times[j]
            return np.exp(-0.5 * self.scalar_rate * dts)[:, None, None] * np.eye(self.dim)
        idx = np.arange(j, n + 1)
        return self.packed[idx * (idx + 1) // 2 + j]


def _stage_ricci(m: ModelManifold, grid: TimeGrid) -> np.ndarray:
    """Ricci path sampled at RK4 stage times (t_k, midpoint, t_{k+1})."""
    n, d = grid.n_steps, m.dim
    stages = np.empty((n, 3, d, d))
    for k in range(n):
        t0, t1 = grid.times[k], grid.times[k + 1]
        stages[k, 0] = ricci_matrix(m, t0)
        stages[k, 1] = ricci_matrix(m, 0.5 * (t0 + t1))
        stages[k, 2] = ricci_matrix(m, t1)
    return stages


def _checked_stages(
    grid: TimeGrid, m: ModelManifold, declared: CurvatureBounds
) -> Optional[np.ndarray]:
    """Check the Ricci data against the declared window; return its RK4 stages.

    Constant curvature returns None: its scalar Ricci gives the exact
    exponential propagator, so there is nothing to integrate.  A synthetic
    path is checked at every stage time.  A violation raises
    :class:`DataError`.
    """
    if m.kind != SYNTHETIC:
        c = m.ricci_scalar
        if c < declared.k2 - 1e-12 or abs(c) > declared.k1 + 1e-12:
            raise DataError(
                f"constant Ricci {c:.6g} outside declared window "
                f"(k1={declared.k1:.6g}, k2={declared.k2:.6g})"
            )
        return None
    stages = _stage_ricci(m, grid)
    mats = stages.reshape(-1, m.dim, m.dim)
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
    return stages


def resolvent_on_grid(grid: TimeGrid, m: ModelManifold, declared: CurvatureBounds) -> ResolventGrid:
    """Damping propagators on a grid; the Ricci data depends on time only.

    Constant-curvature manifolds use the exact exponential; synthetic Ricci
    paths are integrated by RK4 with stage-time evaluation (one column per
    start time).
    """
    stages = _checked_stages(grid, m, declared)
    if stages is None:
        return ResolventGrid(grid, m.dim, scalar_rate=m.ricci_scalar)
    return ResolventGrid(grid, m.dim, packed=kernels.resolvent_triangle(stages, grid.dts))


def resolvent_propagator(
    grid: TimeGrid, m: ModelManifold, declared: CurvatureBounds, j0: int = 0
) -> np.ndarray:
    """Single column Q_{t_i, t_{j0}}, i = j0..n, without the full triangle."""
    stages = _checked_stages(grid, m, declared)
    if stages is None:
        return ResolventGrid(grid, m.dim, scalar_rate=m.ricci_scalar).column(j0)
    return kernels.resolvent_column(stages, grid.dts, j0)


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
    ``right`` at tau = t_{k+1}.  The left limit is the cell value.
    """
    n, d = R.grid.n_steps, slots.shape[1]
    left = np.zeros((n, d))
    right = np.zeros((n, d))
    for j, slot in zip(idx, slots):
        contrib = np.einsum("kab,a->kb", R.row(int(j)), slot)  # Q*_{t_j, t_k} g_j, k = 0..j
        left[:j] += contrib[:j]
        right[:j] += contrib[1 : j + 1]
    return left, right


def damped_gradient_integral_form(
    F: CylindricalFunctional, path: PathSample, R: ResolventGrid, m: ModelManifold
) -> GradientField:
    """Damped gradient via the correction-integral formula.

    D~_t = D_t - 1/2 integral_t^T Q*_{s,t} ric*(s) D_s ds, with the s-integral
    taken by a trapezoid rule per grid cell.  Agrees with
    :func:`damped_gradient` up to quadrature error, which the test suite
    tracks under grid refinement.
    """
    usual = usual_gradient(F, path, m)
    dts = path.grid.dts
    values = usual.values.copy()
    ric_nodes = np.array([ricci_matrix(m, t) for t in path.grid.times])
    for k in range(path.grid.n_steps):
        w = np.einsum("iab,ibc->iac", ric_nodes[k:], R.column(k))  # ric(t_i) Q_{t_i,t_k}
        cell = 0.5 * dts[k:, None, None] * (w[:-1] + w[1:])
        values[k] -= 0.5 * np.einsum("lba,lb->a", cell, usual.values[k:])
    return GradientField(path.grid, values)


def _quadratic_cell_weights(times: np.ndarray):
    """Per-cell 3-node quadrature weights for propagator-weighted integrals.

    Cell l >= 1 integrates the quadratic through nodes (l-1, l, l+1) over
    [t_l, t_{l+1}]; cell 0 uses the forward nodes (0, 1, 2).  Exact for
    quadratics, so the composite rule is third order on smooth integrands.
    Returns (first (3,), inner (n-1, 3)) node weights; grids with a single
    cell fall back to the trapezoid outside this helper.
    """

    def weights(x0, x1, x2, a, b):
        out = np.empty(3)
        for i, (p, q, denom) in enumerate(
            [
                (x1, x2, (x0 - x1) * (x0 - x2)),
                (x0, x2, (x1 - x0) * (x1 - x2)),
                (x0, x1, (x2 - x0) * (x2 - x1)),
            ]
        ):
            integ = (
                (b**3 - a**3) / 3.0
                - (p + q) * (b**2 - a**2) / 2.0
                + p * q * (b - a)
            )
            out[i] = integ / denom
        return out

    n = times.shape[0] - 1
    first = weights(times[0], times[1], times[2], times[0], times[1])
    inner = np.empty((n - 1, 3))
    for l in range(1, n):
        inner[l - 1] = weights(times[l - 1], times[l], times[l + 1], times[l], times[l + 1])
    return first, inner


def _damped_integral(row: np.ndarray, values: np.ndarray, k: int, grid: TimeGrid, wcache):
    """integral_0^{t_k} Q_{t_k, s} v_s ds from row k of the propagator stack.

    ``row`` holds the matrices Q_{t_k, t_j} for j = 0..k; v is piecewise
    constant.  Uses the per-cell quadratic rule, trapezoid when only one cell
    is available.
    """
    if k == 1:
        w = 0.5 * (grid.times[1] - grid.times[0])
        return (w * (row[0] + row[1])) @ values[0]
    first, inner = wcache
    acc = np.einsum("lab,l,lb->a", row[:3], first, np.broadcast_to(values[0], (3, values.shape[1])))
    w = inner[: k - 1]
    acc = acc + np.einsum("lab,l,lb->a", row[: k - 1], w[:, 0], values[1:k])
    acc = acc + np.einsum("lab,l,lb->a", row[1:k], w[:, 1], values[1:k])
    acc = acc + np.einsum("lab,l,lb->a", row[2 : k + 1], w[:, 2], values[1:k])
    return acc


def transform_pair(
    v: GradientField, path: PathSample, R: ResolventGrid, m: ModelManifold
) -> tuple[GradientField, GradientField]:
    """The mutually inverse damping / undamping maps on adapted fields.

    tilde(v)_t = v_t - 1/2 ric(t) integral_0^t Q_{t,s} v_s ds
    hat(v)_t   = v_t + 1/2 ric(t) integral_0^t v_s ds

    The hat integral of a piecewise-constant field is an exact sum; the
    propagator-weighted tilde integral uses the per-cell quadratic rule.
    """
    n, d = v.values.shape
    dts = path.grid.dts
    tilde = v.values - _tilde_corrections(v, R, m)[:n]
    hat = v.values.copy()
    running = np.zeros(d)
    for k in range(n):
        hat[k] += 0.5 * ricci_matrix(m, path.grid.times[k]) @ running
        running = running + dts[k] * v.values[k]
    return GradientField(path.grid, tilde), GradientField(path.grid, hat)


def _tilde_corrections(v: GradientField, R: ResolventGrid, m: ModelManifold) -> np.ndarray:
    """1/2 ric(t_k) integral_0^{t_k} Q_{t_k, s} v_s ds at the nodes k = 0..n, (n+1, d)."""
    grid = v.grid
    n, d = v.values.shape
    wcache = _quadratic_cell_weights(grid.times) if n >= 2 else None
    corr = np.zeros((n + 1, d))
    for k in range(1, n + 1):
        integ = _damped_integral(R.row(k), v.values, k, grid, wcache)
        corr[k] = 0.5 * ricci_matrix(m, grid.times[k]) @ integ
    return corr


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
    corr = _tilde_corrections(v, R, m)
    tilde_left = v.values - corr[:-1]
    tilde_right = v.values - corr[1:]
    rhs = float(0.5 * np.einsum("k,kd,kd->", dts, usual.values, tilde_left + tilde_right))
    return abs(lhs - rhs)


def correlated_norm(F: CylindricalFunctional, path: PathSample, m: ModelManifold) -> float:
    """Coupled quadratic form sum_{j,k} <u^{-1} grad_j f, u^{-1} grad_k f> (t_j ^ t_k).

    Equals the time integral of |usual gradient|^2 by the indicator algebra;
    both are finite sums, so they agree to roundoff.
    """
    idx, slots = frame_pullback_slots(F, path, m)
    ts = path.grid.times[idx]
    gram = slots @ slots.T
    tmin = np.minimum.outer(ts, ts)
    return float(np.sum(gram * tmin))


def linear_gradient_batch(
    increments: np.ndarray, times: np.ndarray, a: np.ndarray, kappa: float, ric_scalar: float
) -> np.ndarray:
    """Gradient field of F = <a, w_T> for a batch of paths, (P, n, d).

    On a constant-curvature manifold the curvature action in the moving
    frame does not depend on the frame, so the field is an explicit
    functional of the driving increments: a deterministic part
    a (1 + c (T - tau)/2) plus a stochastic part built from suffix sums of
    the increments (inner curvature integral exact, outer integral left-point).
    """
    increments = np.asarray(increments, dtype=float)
    P, n, d = increments.shape
    a = np.asarray(a, dtype=float)
    T = times[-1]
    taus = times[:n]
    det_part = a[None, None, :] * (1.0 + 0.5 * ric_scalar * (T - taus))[None, :, None]
    if kappa == 0.0:
        return np.broadcast_to(det_part, (P, n, d)).copy()

    w = np.empty((P, n + 1, d))
    w[:, 0] = 0.0
    np.cumsum(increments, axis=1, out=w[:, 1:])
    w_nodes = w[:, :n, :]  # w at left points t_k
    wa = w_nodes @ a  # (P, n)
    # suffix sums over cells k >= K, accumulated in place on reversed views
    field = wa[:, :, None] * increments
    np.cumsum(field[:, ::-1], axis=1, out=field[:, ::-1])  # sA
    sC = np.einsum("pkd,pkd->pk", w_nodes, increments)
    np.cumsum(sC[:, ::-1], axis=1, out=sC[:, ::-1])
    B = w[:, -1:, :] - w_nodes  # w_T - w_{t_k}, (P, n, d)
    term_sca = sC - np.einsum("pkd,pkd->pk", w_nodes, B)
    B *= wa[:, :, None]
    field -= B  # sA - <w_{t_k}, a> B
    np.multiply(term_sca[:, :, None], a, out=B)
    field -= B
    field *= -kappa  # the martingale part
    field += det_part
    return field


def linear_functional_gradient(
    a: np.ndarray, path: PathSample, m: ModelManifold
) -> GradientField:
    """Gradient field of the linear functional F = <a, w_T>, |a| = 1."""
    if m.kind == SYNTHETIC:
        raise ValueError("linear functional gradient needs a curvature tensor")
    a = np.asarray(a, dtype=float)
    if abs(np.linalg.norm(a) - 1.0) > 1e-9:
        raise ValueError("direction a must be a unit vector")
    values = linear_gradient_batch(
        path.increments[None], path.grid.times, a, m.kappa, m.ricci_scalar
    )[0]
    return GradientField(path.grid, values)
