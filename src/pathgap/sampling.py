"""Brownian path sampling on model manifolds by geodesic random walk.

Each time step draws a Gaussian increment of the driving motion and moves
along the geodesic it spans in the current frame; the frame is parallel-
transported alongside.  Seeding is counter-based: path ``k`` of a batch uses
``SeedSequence(base_seed, spawn_key=(k,))``, so any slicing, chunking or
parallel consumption of a batch reproduces identical paths.
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
        # np.unique loads numpy.ma on first use (about 1 MB): a uniform grid skips it
        if forced.size:
            if forced.min() < 0 or forced.max() > T:
                raise ValueError("forced times must lie in [0, T]")
            times = np.unique(np.concatenate([times, forced]))
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


def path_increments(grid: TimeGrid, dim: int, seed: int, path_index: int = 0) -> np.ndarray:
    """Gaussian driving increments, Normal(0, dt_i * Id) per step."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(path_index,))
    rng = np.random.default_rng(ss)
    z = rng.standard_normal((grid.n_steps, dim))
    return z * grid.sqrt_dts[:, None]


def batch_increments(grid: TimeGrid, dim: int, seed: int, indices: Iterable[int]) -> np.ndarray:
    """Stack of per-path increments for the given path indices, (P, n_steps, dim)."""
    indices = list(indices)
    out = np.empty((len(indices), grid.n_steps, dim))
    for row, k in zip(out, indices):
        row[...] = path_increments(grid, dim, seed, k)
    return out


def simulate_increments(
    m: ModelManifold,
    grid: TimeGrid,
    increments: np.ndarray,
    record: Optional[np.ndarray] = None,
):
    """Run the geodesic walk kernel on a batch of increment arrays.

    Returns (positions (P, m, amb), frames (P, m, d, amb)) at the recorded
    time indices (all of them by default).
    """
    if record is None:
        record = np.arange(grid.n_steps + 1, dtype=np.int64)
    else:
        record = np.asarray(record, dtype=np.int64)
    base = m.basepoint()
    return kernels.simulate_paths(
        m.kind, m.kappa, m.dim, base.position, base.frame, increments, record
    )


def sample_path(m: ModelManifold, grid: TimeGrid, seed: int, path_index: int = 0) -> PathSample:
    """Sample one path; deterministic in (m, grid, seed, path_index)."""
    inc = path_increments(grid, m.dim, seed, path_index)
    pos, frames = simulate_increments(m, grid, inc[None])
    return PathSample(grid, pos[0], frames[0], inc, seed, path_index)

