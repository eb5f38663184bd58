"""Numpy implementations of the hot kernels.

Two kernels:

* ``simulate_paths`` -- geodesic random walk on a model manifold for a batch
  of driving-increment arrays, recording positions and frames at selected
  time indices.
* ``resolvent_steps(nodes, mids, dts)`` -- RK4 for the damping ODE
  dQ/dt = -1/2 A(t) Q from A at the grid nodes and cell midpoints.  The ODE
  is linear in Q, so each cell's RK4 step is one matrix M_k = Q_{t_{k+1}, t_k},
  and every propagator is a product of them; the (n, d, d) step array is
  what ``gradients.resolvent_on_grid`` returns.
  ``resolvent_triangle`` (all pairs) and ``resolvent_column`` (one start
  column) form those products from that array; they are the test
  references, and no package code calls them.

Vectorization is across paths (simulate, component-major: every array holds
the paths on its last axis) and across cells (resolvent steps).
"""

from __future__ import annotations

import itertools

import numpy as np

from .geometry import _root, _surface


def _inner(u, v, lorentz):
    """Ambient inner product of u (..., amb, P) and v (amb, P), summed over amb.

    The coordinate rows are summed in a fixed order, the one numpy 2.4's
    einsum used for this short contiguous axis on x86-64 (two lanes): the even
    coordinates in order, then the odd ones, then the two partial sums added.
    The walk's bits, pinned by a digest in the tests, therefore do not depend
    on numpy's SIMD dispatch.  lorentz negates coordinate 0's product, which
    is exact.
    """
    lanes = [u[..., 0, :] * v[0], u[..., 1, :] * v[1]]
    if lorentz:
        np.negative(lanes[0], out=lanes[0])
    for a in range(2, v.shape[0]):
        lanes[a % 2] += u[..., a, :] * v[a]
    lanes[0] += lanes[1]
    return lanes[0]


def _step_curved(kappa, pos, frames, disp, step):
    """One geodesic step with parallel transport for a batch of paths.

    Component-major: pos (amb, P), frames (d, amb, P), disp (amb, P) ambient
    displacement, so every coordinate row is a contiguous run over the paths.
    The sign of kappa picks the surface (:func:`geometry._surface`): the
    sphere and the Lorentzian hyperboloid share one exact code path.  Every
    square root goes through :func:`geometry._root`, the rule geodesic_step
    shares, which raises ValueError naming ``step``, kappa and the step length
    for a step that cannot stay on its surface in floating point.

    The step works in place: ``disp`` is overwritten with the step's
    direction, and when every path moves, ``frames`` with the new frames.
    """
    s, cos, sin, radius, lorentz = _surface(kappa)
    with np.errstate(over="ignore", invalid="ignore"):  # _root refuses inf and NaN
        arc2 = _inner(disp, disp, lorentz)
    arc = _root(kappa, arc2, step, pos[0])
    moving = arc > 0.0
    all_moving = bool(np.all(moving))
    direction = np.divide(disp, np.where(moving, arc, 1.0), out=disp)
    theta = arc / radius
    cos_t, sin_t = cos(theta), sin(theta)
    new_pos = cos_t * pos + radius * sin_t * direction
    correction = (cos_t - 1.0) * direction - s * sin_t * pos / radius
    # a resting path needs its old frames below, so only a step where every
    # path moves adds the update into them
    update = _inner(frames, direction, lorentz)[:, None] * correction
    new_frames = np.add(frames, update, out=frames if all_moving else None)

    # Renormalize: snap to surface, project rows to the tangent space,
    # modified Gram-Schmidt in the ambient metric.
    new_pos *= radius / _root(kappa, arc2, step, q=s * _inner(new_pos, new_pos, lorentz))
    proj = s * _inner(new_frames, new_pos, lorentz) / (radius * radius)
    new_frames -= proj[:, None] * new_pos
    for i in range(frames.shape[0]):
        v = new_frames[i]
        for j in range(i):
            w = new_frames[j]
            v = v - _inner(v, w, lorentz) * w
        np.divide(v, _root(kappa, arc2, step, q=_inner(v, v, lorentz)), out=new_frames[i])

    # Paths with a zero increment stay put.
    if not all_moving:
        keep = ~moving
        new_pos[:, keep] = pos[:, keep]
        new_frames[:, :, keep] = frames[:, :, keep]
    return new_pos, new_frames


# kind and dim are unused but kept in place: perfbench/tracer.py reads the
# increments as args[5] and counts path-steps from their shape.
def simulate_paths(kind, kappa, dim, start_pos, start_frame, increments, record):
    """Geodesic random walk driven by per-path increments.

    The sign of kappa picks the surface, and kappa = 0 walks flat.
    increments: (P, n, d), an array or a stream of that ``shape`` yielding
    (s, d, P) time slabs in order; record: sorted int64 indices into 0..n of
    the time slots whose positions/frames are kept.  Returns (positions
    (P, m, amb), frames (P, m, d, amb)).

    The walk runs component-major, draws last: positions (amb, P), frames
    (d, amb, P), and step k reads the (d, P) row k - 1 of the (n, d, P)
    increments, across slab seams.  An array is one slab, its (n, d, P) view,
    free in ``batch_increments``' layout (any other is copied once).  Only the
    recorded slots are transposed back to path-major.  Every operation is
    elementwise over the paths, so a path's bits do not depend on the batch.
    """
    n_paths, n_steps, d = np.shape(increments)
    if isinstance(increments, np.ndarray):
        increments = [np.ascontiguousarray(np.transpose(increments, (1, 2, 0)), dtype=np.float64)]
    rows = itertools.chain.from_iterable(increments)  # row k - 1 drives step k
    record = np.asarray(record, dtype=np.int64)
    m = record.shape[0]

    pos = np.repeat(start_pos[:, None], n_paths, axis=1)
    frames = np.repeat(start_frame[:, :, None], n_paths, axis=2)
    out_pos = np.empty((n_paths, m, pos.shape[0]))
    out_frames = np.empty((n_paths, m, d, pos.shape[0]))

    rec_ptr = 0
    for k in range(n_steps + 1):
        if k:
            x = next(rows)
            # summed from zero in frame order: an all-zero sum is +0.0
            disp = np.zeros_like(pos)
            for i in range(d):
                disp += x[i] * frames[i]
            if kappa:
                pos, frames = _step_curved(kappa, pos, frames, disp, k)
            else:
                pos = pos + disp
        if rec_ptr < m and record[rec_ptr] == k:
            out_pos[:, rec_ptr] = pos.T
            out_frames[:, rec_ptr] = frames.transpose(2, 0, 1)
            rec_ptr += 1
    return out_pos, out_frames


def resolvent_steps(nodes, mids, dts):
    """Each cell's RK4 step as one matrix M_k, (n, d, d).

    Cell k's stages read the Ricci matrices nodes[k] at t_k, mids[k] at
    t_k + dt_k/2 and nodes[k+1], from (n+1, d, d) and (n, d, d); dts: (n,).
    """
    h = dts[:, None, None]
    b0, b1, b2 = -0.5 * nodes[:-1], -0.5 * mids, -0.5 * nodes[1:]
    eye = np.eye(nodes.shape[-1])
    k2 = b1 @ (eye + (0.5 * h) * b0)
    k3 = b1 @ (eye + (0.5 * h) * k2)
    k4 = b2 @ (eye + h * k3)
    return eye + (h / 6.0) * (b0 + 2.0 * k2 + 2.0 * k3 + k4)


def resolvent_triangle(steps):
    """All propagators Q_{t_i, t_j}, i >= j, from the per-cell steps, packed row-major.

    The test reference for all pairs: returns (n_pairs, d, d) with pair
    (i, j) at i*(i+1)/2 + j.  Row i + 1 is M_i times row i, then
    Q_{i+1, i+1} = I.  The package itself sweeps the steps and never builds
    this O(n^2) stack.
    """
    eye = np.eye(steps.shape[-1])[None]
    rows = [eye]
    for step in steps:
        rows.append(np.concatenate([step @ rows[-1], eye]))
    return np.concatenate(rows)


def resolvent_column(steps, j0):
    """Propagators Q_{t_i, t_{j0}} for i = j0..n from the per-cell steps, (n+1-j0, d, d).

    The test reference for one start column.
    """
    out = [np.eye(steps.shape[-1])]
    for step in steps[j0:]:
        out.append(step @ out[-1])
    return np.array(out)
