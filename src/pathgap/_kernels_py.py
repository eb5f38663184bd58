"""Numpy implementations of the hot kernels.

Two entry points:

* ``simulate_paths`` -- geodesic random walk on a model manifold for a batch
  of driving-increment arrays, recording positions and frames at selected
  time indices.
* ``resolvent_triangle`` / ``resolvent_column`` -- RK4 integration of the
  damping matrix ODE dQ/dt = -1/2 A(t) Q, per start column.

Vectorization is across paths (simulate) and across start columns
(resolvent).
"""

from __future__ import annotations

import numpy as np

KIND_FLAT = 0
KIND_SPHERE = 1
KIND_HYPERBOLOID = 2


def _step_flat(pos, frames, disp):
    return pos + disp, frames


def _step_curved(kind, kappa, pos, frames, disp, g):
    """One geodesic step with parallel transport for a batch of paths.

    pos (P, amb), frames (P, d, amb), disp (P, amb) ambient displacement.
    """
    arc = np.sqrt(np.einsum("pa,pa->p", disp * g, disp))
    moving = arc > 0.0
    safe = np.where(moving, arc, 1.0)
    direction = disp / safe[:, None]
    if kind == KIND_SPHERE:
        radius = 1.0 / np.sqrt(kappa)
        theta = arc / radius
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        new_pos = cos_t[:, None] * pos + radius * sin_t[:, None] * direction
        correction = (cos_t - 1.0)[:, None] * direction - sin_t[:, None] * pos / radius
    else:
        radius = 1.0 / np.sqrt(-kappa)
        theta = arc / radius
        cos_t, sin_t = np.cosh(theta), np.sinh(theta)
        new_pos = cos_t[:, None] * pos + radius * sin_t[:, None] * direction
        correction = (cos_t - 1.0)[:, None] * direction + sin_t[:, None] * pos / radius
    coeffs = np.einsum("pia,pa->pi", frames * g, direction)
    new_frames = frames + coeffs[:, :, None] * correction[:, None, :]

    # Renormalize: snap to surface, project rows to the tangent space,
    # modified Gram-Schmidt in the ambient metric.
    if kind == KIND_SPHERE:
        norm = np.sqrt(np.einsum("pa,pa->p", new_pos, new_pos))
        new_pos = new_pos * (radius / norm)[:, None]
        r2 = radius * radius
        proj = np.einsum("pia,pa->pi", new_frames, new_pos) / r2
        new_frames = new_frames - proj[:, :, None] * new_pos[:, None, :]
    else:
        norm = np.sqrt(-np.einsum("pa,pa->p", new_pos * g, new_pos))
        new_pos = new_pos * (radius / norm)[:, None]
        r2 = radius * radius
        proj = np.einsum("pia,pa->pi", new_frames * g, new_pos) / r2
        new_frames = new_frames + proj[:, :, None] * new_pos[:, None, :]
    d = frames.shape[1]
    for i in range(d):
        v = new_frames[:, i, :]
        for j in range(i):
            w = new_frames[:, j, :]
            v = v - np.einsum("pa,pa->p", v * g, w)[:, None] * w
        nrm = np.sqrt(np.einsum("pa,pa->p", v * g, v))
        new_frames[:, i, :] = v / nrm[:, None]

    # Paths with a zero increment stay put.
    if not np.all(moving):
        keep = ~moving
        new_pos[keep] = pos[keep]
        new_frames[keep] = frames[keep]
    return new_pos, new_frames


def simulate_paths(kind, kappa, dim, start_pos, start_frame, increments, record):
    """Geodesic random walk driven by per-path increment arrays.

    increments: (P, n, d); record: sorted int64 indices into 0..n of the
    time slots whose positions/frames are kept.  Returns
    (positions (P, m, amb), frames (P, m, d, amb)).
    """
    increments = np.ascontiguousarray(increments, dtype=np.float64)
    n_paths, n_steps, d = increments.shape
    amb = start_pos.shape[0]
    record = np.asarray(record, dtype=np.int64)
    m = record.shape[0]

    pos = np.broadcast_to(start_pos, (n_paths, amb)).copy()
    frames = np.broadcast_to(start_frame, (n_paths, d, amb)).copy()
    out_pos = np.empty((n_paths, m, amb))
    out_frames = np.empty((n_paths, m, d, amb))

    g = np.ones(amb)
    if kind == KIND_HYPERBOLOID:
        g[0] = -1.0

    rec_ptr = 0
    if rec_ptr < m and record[rec_ptr] == 0:
        out_pos[:, 0] = pos
        out_frames[:, 0] = frames
        rec_ptr += 1
    for k in range(n_steps):
        disp = np.einsum("pi,pia->pa", increments[:, k, :], frames)
        if kind == KIND_FLAT:
            pos, frames = _step_flat(pos, frames, disp)
        else:
            pos, frames = _step_curved(kind, kappa, pos, frames, disp, g)
        if rec_ptr < m and record[rec_ptr] == k + 1:
            out_pos[:, rec_ptr] = pos
            out_frames[:, rec_ptr] = frames
            rec_ptr += 1
    return out_pos, out_frames


def _rk4_step(a0, a1, a2, q, h):
    """One RK4 step of dQ/dt = -1/2 A(t) Q on a stack of matrices q."""
    k1 = -0.5 * (a0 @ q)
    k2 = -0.5 * (a1 @ (q + (0.5 * h) * k1))
    k3 = -0.5 * (a1 @ (q + (0.5 * h) * k2))
    k4 = -0.5 * (a2 @ (q + h * k3))
    return q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def resolvent_triangle(ric_stages, dts):
    """All propagators Q_{t_i, t_j}, i >= j, packed row-major.

    ric_stages: (n, 3, d, d) Ricci matrices at (t_k, t_k + dt/2, t_{k+1});
    dts: (n,).  Returns (n_pairs, d, d) with pair (i, j) at i*(i+1)/2 + j.
    """
    ric_stages = np.asarray(ric_stages, dtype=np.float64)
    dts = np.asarray(dts, dtype=np.float64)
    n = dts.shape[0]
    d = ric_stages.shape[2]
    n_pairs = (n + 1) * (n + 2) // 2
    out = np.empty((n_pairs, d, d))
    eye = np.eye(d)
    out[0] = eye
    cur = np.empty((n + 1, d, d))
    cur[0] = eye
    for k in range(n):
        a0, a1, a2 = ric_stages[k]
        cur[: k + 1] = _rk4_step(a0, a1, a2, cur[: k + 1], dts[k])
        cur[k + 1] = eye
        base = (k + 1) * (k + 2) // 2
        out[base : base + k + 2] = cur[: k + 2]
    return out


def resolvent_column(ric_stages, dts, j0):
    """Propagators Q_{t_i, t_{j0}} for i = j0..n: shape (n+1-j0, d, d)."""
    ric_stages = np.asarray(ric_stages, dtype=np.float64)
    dts = np.asarray(dts, dtype=np.float64)
    n = dts.shape[0]
    d = ric_stages.shape[2]
    out = np.empty((n + 1 - j0, d, d))
    q = np.eye(d)
    out[0] = q
    for k in range(j0, n):
        a0, a1, a2 = ric_stages[k]
        q = _rk4_step(a0, a1, a2, q, dts[k])
        out[k + 1 - j0] = q
    return out
