"""Brownian path sampling on model manifolds by geodesic random walk.

Each time step draws a Gaussian increment of the driving motion and moves
along the geodesic it spans in the current frame; the frame is parallel-
transported alongside.

Seeding is counter-based, in blocks of ``BLOCK`` paths (stream version 2):
path ``k`` is row ``k mod BLOCK`` of block ``k // BLOCK``, whose normals are
one time-major ``(n_steps, BLOCK, d)`` draw from
``SeedSequence(base_seed, spawn_key=(k // BLOCK,))``.  Any slicing, chunking
or parallel consumption of a batch therefore reproduces identical paths, and
an n-step draw is exactly the first n steps of a longer one.  A generator
fills its output in order, so the draw may be taken in time slabs of
``(SLAB, BLOCK, d)`` with the same stream.  (Stream
version 1 built one generator per path, keyed ``spawn_key=(k,)``.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from ._backend import kernels
from .bounds import _require_horizon
from .geometry import FramePoint, ModelManifold

__all__ = ["TimeGrid", "PathSample", "sample_path"]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times from 0 to T, uniform unless times are forced.

    Functional evaluation times must sit on the grid exactly, so
    ``with_times`` inserts them into the uniform base grid.
    """

    T: float
    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        _require_horizon(self.T)
        if times.ndim != 1 or times.shape[0] < 2:
            raise ValueError("grid needs at least two time points")
        if times[0] != 0.0 or times[-1] != self.T:
            raise ValueError("grid must start at 0 and end at T")
        if not np.all(np.diff(times) > 0):
            raise ValueError("grid times must be strictly increasing")

    @classmethod
    def with_times(cls, T: float, n_steps: int, forced: Sequence[float]) -> "TimeGrid":
        """Uniform grid of ``n_steps`` steps with ``forced`` times inserted exactly."""
        T = _require_horizon(T)
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        times = np.linspace(0.0, T, n_steps + 1)
        times[-1] = T
        forced = np.asarray(forced, dtype=float)
        if forced.size:
            if forced.min() < 0 or forced.max() > T:
                raise ValueError("forced times must lie in [0, T]")
            # sort and drop adjacent duplicates, as np.unique does, without
            # np.unique's import of numpy.ma (about 1.3 MB and 15 ms)
            times = np.sort(np.concatenate([times, forced]))
            times = times[np.concatenate([[True], times[1:] != times[:-1]])]
        return cls(T, times)

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1

    @cached_property
    def dts(self) -> np.ndarray:
        """Step sizes, (n_steps,); read-only, computed once per grid."""
        return _read_only(np.diff(self.times))

    @cached_property
    def sqrt_dts(self) -> np.ndarray:
        """Square roots of the step sizes: the increment scale per step."""
        return _read_only(np.sqrt(self.dts))

    def index_of(self, t: float) -> int:
        """Exact index of a grid time; raises if t is not on the grid."""
        idx = int(np.searchsorted(self.times, t))
        if idx >= self.times.shape[0] or self.times[idx] != t:
            raise ValueError(f"time {t} is not a grid point")
        return idx


@dataclass(frozen=True)
class PathSample:
    """One discretized path: grid, positions, frames, driving increments.

    ``positions`` has shape (n_steps+1, ambient_dim), ``frames``
    (n_steps+1, d, ambient_dim), ``increments`` (n_steps, d).  The sample is
    a pure function of (manifold, grid, seed, path_index).
    """

    grid: TimeGrid
    positions: np.ndarray
    frames: np.ndarray
    increments: np.ndarray
    seed: int
    path_index: int = 0

    def frame_point(self, i: int) -> FramePoint:
        return FramePoint(self.positions[i], self.frames[i])


# Paths per block of the normal stream; the estimators' chunks are whole
# blocks wide (``estimators._chunk_ranges``), so each chunk but the last
# draws whole blocks.
BLOCK = 64
# Time steps per draw of a block's normals: a (64, 64, d) slab is 32 KB per
# dimension whatever the step count, and a grid of up to 64 steps (the README
# lsi run) draws each block in one call.
SLAB = 64


def batch_increments(
    grid: TimeGrid,
    dim: int,
    seed: int,
    indices: Iterable[int],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gaussian driving increments, Normal(0, dt_i * Id) per step, (P, n_steps, dim).

    Row r holds path ``indices[r]``.  Each block's generator is built once
    per run of consecutive indices inside it, and draws the block's normals
    ``SLAB`` time steps at a time; the run's rows of each slab are scaled
    into place.  A generator fills its output in order, so slabs read the
    same stream as one (n_steps, BLOCK, dim) draw.  The memory is draws
    last: the result is the transpose of an (n_steps, dim, P) buffer, so the
    walk's (n, d, P) view and the prefix sums' (d, n, P) view read
    contiguous rows without a copy.

    ``out``, if given, is filled and returned: a float64 (P, n_steps, dim)
    array in that layout, such as a transposed (n_steps, dim, P) buffer;
    anything else raises ValueError.
    """
    idx = np.fromiter(indices, dtype=np.int64)
    n = grid.n_steps
    if out is None:
        out = np.empty((n, dim, idx.size)).transpose(2, 0, 1)
    elif (
        out.shape != (idx.size, n, dim)
        or out.dtype != np.float64
        or not out.transpose(1, 2, 0).flags.c_contiguous
    ):
        raise ValueError(
            f"out must be a float64 ({idx.size}, {n}, {dim}) transpose of a C-contiguous "
            f"({n}, {dim}, {idx.size}) buffer, got {out.dtype} {out.shape} "
            f"with strides {out.strides}"
        )
    buf = out.transpose(1, 2, 0)
    if idx.size:
        breaks = np.flatnonzero((np.diff(idx) != 1) | (idx[1:] % BLOCK == 0)) + 1
        edges = [0, *breaks.tolist(), idx.size]
        slab = np.empty((min(n, SLAB), BLOCK, dim))  # refilled per slab of each run
        scale = grid.sqrt_dts[:, None, None]
        for lo, hi in zip(edges[:-1], edges[1:]):
            block, row = divmod(int(idx[lo]), BLOCK)
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
            for t in range(0, n, SLAB):
                z = slab[: min(SLAB, n - t)]
                rng.standard_normal(out=z)
                np.multiply(
                    z[:, row : row + hi - lo].transpose(0, 2, 1),
                    scale[t : t + z.shape[0]],
                    out=buf[t : t + z.shape[0], :, lo:hi],
                )
    return out


def simulate_increments(
    m: ModelManifold,
    grid: TimeGrid,
    increments: np.ndarray,
    record: Optional[np.ndarray] = None,
):
    """Run the geodesic walk kernel on a batch of increment arrays.

    Returns (positions (P, m, amb), frames (P, m, d, amb)) at the recorded
    time indices (all of them by default).  Raises ValueError unless the
    increments are (P, grid.n_steps, m.dim) and ``record`` is 1-D, strictly
    increasing and within 0..n_steps: the kernel leaves any other slot unwritten.
    """
    n = grid.n_steps
    if np.ndim(increments) != 3 or np.shape(increments)[1:] != (n, m.dim):
        raise ValueError(f"increments must be (P, {n}, {m.dim}), got {np.shape(increments)}")
    if record is None:
        record = np.arange(n + 1, dtype=np.int64)
    else:
        record = np.asarray(record, dtype=np.int64)
        if record.ndim != 1 or not (
            np.all(np.diff(record) > 0) and np.all((record >= 0) & (record <= n))
        ):
            raise ValueError(f"record must be strictly increasing indices in 0..{n}, got {record}")
    base = m.basepoint()
    return kernels.simulate_paths(
        m.kind, m.kappa, m.dim, base.position, base.frame, increments, record
    )


def sample_path(m: ModelManifold, grid: TimeGrid, seed: int, path_index: int = 0) -> PathSample:
    """Sample one path; deterministic in (m, grid, seed, path_index)."""
    inc = batch_increments(grid, m.dim, seed, range(path_index, path_index + 1))[0]
    pos, frames = simulate_increments(m, grid, inc[None])
    return PathSample(grid, pos[0], frames[0], inc, seed, path_index)

