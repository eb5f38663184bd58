"""Damping propagators on a grid, and the cylindrical functional contract.

For a cylindrical functional F(path) = f(x_{t_1}, ..., x_{t_N}) the damped
gradient twists each frame-pulled-back slot gradient by the transposed
damping propagator Q_{t_j, tau}, where Q solves
dQ_{t,s}/dt = -1/2 ric(t) Q_{t,s}, Q_{s,s} = Id.  This module holds Q on a
time grid as one (n, d, d) array of its per-cell steps M_k = Q_{t_{k+1}, t_k},
checks the Ricci data against the declared window, and pulls the slot
gradients of a batch of paths back through their frames.  The batched damped
energies and the algebra of the linear functional w_T^1 are in
:mod:`pathgap.estimators`, their only caller; the one-path gradient fields,
transforms and duality that the tests compare against are in
``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._backend import kernels
from .bounds import CurvatureBounds
from .geometry import SYNTHETIC, ModelManifold, ricci_matrix
from .sampling import TimeGrid

__all__ = [
    "DataError",
    "CylindricalFunctional",
    "resolvent_on_grid",
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
        if not np.all(np.isfinite(ts)):
            raise ValueError(f"evaluation times must be finite, got {ts}")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("evaluation times must be strictly increasing")


def resolvent_on_grid(grid: TimeGrid, m: ModelManifold, declared: CurvatureBounds) -> np.ndarray:
    """The damping steps M_k = Q_{t_{k+1}, t_k} of a grid, float64 (n, d, d).

    Every propagator is a product Q_{t_i, t_j} = M_{i-1} ... M_j, so every
    damped quantity sweeps the steps in O(n); ``kernels.resolvent_triangle``
    and ``kernels.resolvent_column`` form the products as test references.
    The Ricci data, which depends on time only, is checked against the
    declared window first; a violation raises :class:`DataError`.  Constant
    Ricci c gives the exact steps e^{-c dt_k/2} Id.  A synthetic path is
    read in one call (the n + 1 nodes, then the n midpoints), checked there
    and integrated by RK4 with stage-time evaluation: one step per cell.
    """
    if m.kind != SYNTHETIC:
        c = m.ricci_scalar
        if c < declared.k2 - 1e-12 or abs(c) > declared.k1 + 1e-12:
            raise DataError(
                f"constant Ricci {c:.6g} outside declared window "
                f"(k1={declared.k1:.6g}, k2={declared.k2:.6g})"
            )
        return np.exp(-0.5 * c * grid.dts)[:, None, None] * np.eye(m.dim)
    mats = ricci_matrix(m, np.concatenate([grid.times, 0.5 * (grid.times[:-1] + grid.times[1:])]))
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
    return kernels.resolvent_steps(mats[: grid.n_steps + 1], mats[grid.n_steps + 1 :], grid.dts)


def _batch_output(out, shape: tuple, name: str, what: str, first: int) -> np.ndarray:
    """A batched callback's output as a float array of ``shape``, or ValueError for a
    wrong shape or for an entry that is not finite, naming its first path (from ``first``)."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise ValueError(f"{name} must return {what}: expected shape {shape}, got {out.shape}")
    bad = ~np.isfinite(out).all(axis=tuple(range(1, out.ndim)))
    if bad.any():
        raise ValueError(f"{name} is not finite on path {first + int(np.argmax(bad))}")
    return out


def _pullback(
    F: CylindricalFunctional, positions: np.ndarray, frames: np.ndarray, g: np.ndarray, first: int
):
    """Frame-coordinate slot gradients u^{-1} (grad_j f) for a batch of paths.

    ``positions`` (P, N, amb) and ``frames`` (P, N, d, amb) hold paths
    first, first + 1, ... at the evaluation times of F and ``g`` is the
    ambient metric diagonal.  Returns (P, N, d).  A gradient of the wrong
    shape, or one that is not finite, raises ValueError (:func:`_batch_output`).
    """
    grads = _batch_output(
        F.slot_gradients(positions), positions.shape, "slot_gradients",
        "one ambient vector per path and slot", first,
    )
    return np.einsum("pjia,pja->pji", frames * g, grads)
