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
``(SLAB, BLOCK, d)`` with the same stream, each as the walk reads it
(:class:`IncrementStream`).  (Stream version 1 built one generator per path,
keyed ``spawn_key=(k,)``.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ._backend import kernels
from .bounds import _require_horizon
from .geometry import ModelManifold

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
        """Uniform grid of ``n_steps`` steps with ``forced`` times inserted exactly.

        The uniform grid is checked first, so a node that ``np.linspace``
        repeats below a subnormal T is refused, not merged away.
        """
        T = _require_horizon(T)
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        times = cls(T, np.linspace(0.0, T, n_steps + 1)).times  # its last node is T itself
        forced = np.asarray(forced, dtype=float)
        inside = (forced >= 0) & (forced <= T)  # false for NaN
        if not np.all(inside):
            raise ValueError(f"forced times must lie in [0, {T}], got {forced[~inside].tolist()}")
        # sort and drop adjacent duplicates, as np.unique does, without
        # np.unique's import of numpy.ma (about 1.3 MB and 15 ms)
        times = np.sort(np.concatenate([times, forced]))
        return cls(T, times[np.concatenate([[True], times[1:] != times[:-1]])])

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


# Paths per block of the normal stream; the estimators' chunks are whole
# blocks wide (``estimators._chunk_ranges``), so each chunk but the last
# draws whole blocks.
BLOCK = 64
# Time steps per slab of a stream: a chunk's (SLAB, d, P) buffer, 0.9 MB for
# the README lsi run's widest chunk, replaces its (n_steps, d, P) array.  That
# run peaks at 38.2 MB of RSS with 16, 39.2 MB with 32 and 40.9 MB with 64.
SLAB = 16


class IncrementStream:
    """The increments of a range of paths, shape (P, n_steps, dim), drawn as they are read.

    Iterating yields the (s, dim, P) time slabs of the draws-last (n_steps,
    dim, P) array in order, ``SLAB`` steps each but the last, in one reused
    buffer: a slab is valid until the next is drawn.  Each block's generator
    is built once, with the stream, and fills its output in order, so the
    slabs read the normals of one (n_steps, BLOCK, dim) draw.  A stream is read once.
    """

    def __init__(self, grid: TimeGrid, dim: int, seed: int, indices: range):
        if not isinstance(indices, range) or indices.step != 1 or indices.start < 0:
            raise ValueError(f"indices must be a range of consecutive paths >= 0, got {indices!r}")
        self.shape, self._scale = (len(indices), grid.n_steps, dim), grid.sqrt_dts[:, None, None]
        lo, hi = indices.start, indices.start + len(indices)
        starts = [lo, *range((lo // BLOCK + 1) * BLOCK, hi, BLOCK)]  # one run per block
        self._runs = [
            (np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(a // BLOCK,))),
             a % BLOCK, a - lo, b - lo)
            for a, b in zip(starts, [*starts[1:], hi])
        ]

    def __iter__(self):
        runs, self._runs = self._runs, None
        if runs is None:
            raise ValueError("an IncrementStream is read once: its generators have moved on")
        P, n, dim = self.shape
        return self._slabs(runs, np.empty((min(n, SLAB), dim, P)))

    def _slabs(self, runs, buf):
        """Draw into ``buf``, (n_steps, dim, P) or one slab long; yield each slab in it."""
        n, dim = self.shape[1:]
        z = np.empty((min(n, SLAB), BLOCK, dim))  # each block's normals of one slab
        for t in range(0, n, SLAB):
            s, at = min(SLAB, n - t), t % buf.shape[0]  # at t in a whole buffer, 0 in a slab
            for rng, row, a, b in runs:
                rng.standard_normal(out=z[:s])
                np.multiply(
                    z[:s, row : row + b - a].transpose(0, 2, 1),
                    self._scale[t : t + s],
                    out=buf[at : at + s, :, a:b],
                )
            yield buf[at : at + s]


def batch_increments(
    grid: TimeGrid,
    dim: int,
    seed: int,
    indices: range,
    out: Optional[np.ndarray] = None,
):
    """Gaussian driving increments, Normal(0, dt_i * Id) per step, (P, n_steps, dim).

    ``indices`` is a ``range`` of consecutive paths from index 0 up; row r
    holds path ``indices[r]``, and any other ``indices`` raises ValueError.
    Without ``out`` the result is an :class:`IncrementStream`, which draws a
    slab at a time as the walk reads it, so a chunk's memory does not grow
    with the step count.

    ``out``, if given, is filled with the stream's slabs and returned: a
    float64 (P, n_steps, dim) transpose of a C-contiguous (n_steps, dim, P)
    buffer, so the walk's (n, d, P) view and the prefix sums' (d, n, P) view
    read contiguous rows without a copy; anything else raises ValueError.
    """
    stream = IncrementStream(grid, dim, seed, indices)
    if out is None:
        return stream
    P, n, dim = stream.shape
    buf = out.transpose(1, 2, 0) if out.shape == stream.shape else None
    if buf is None or buf.dtype != np.float64 or not buf.flags.c_contiguous:
        raise ValueError(
            f"out must be a float64 ({P}, {n}, {dim}) transpose of a C-contiguous "
            f"({n}, {dim}, {P}) buffer, got {out.dtype} {out.shape} "
            f"with strides {out.strides}"
        )
    for _ in stream._slabs(stream._runs, buf):
        pass
    return out


def simulate_increments(
    m: ModelManifold,
    grid: TimeGrid,
    increments: np.ndarray,
    record: Optional[np.ndarray] = None,
):
    """Run the geodesic walk kernel on a batch of increments, an array or a stream.

    Returns (positions (P, m, amb), frames (P, m, d, amb)) at the recorded
    time indices (all of them by default).  Raises ValueError unless the
    increments are (P, grid.n_steps, m.dim) and ``record`` is 1-D, strictly
    increasing and within 0..n_steps: the kernel leaves any other slot unwritten.
    """
    n, shape = grid.n_steps, np.shape(increments)  # np.shape reads a stream's shape
    if len(shape) != 3 or shape[1:] != (n, m.dim):
        raise ValueError(f"increments must be (P, {n}, {m.dim}), got {shape}")
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
    out = np.empty((grid.n_steps, m.dim, 1)).transpose(2, 0, 1)
    inc = batch_increments(grid, m.dim, seed, range(path_index, path_index + 1), out=out)
    pos, frames = simulate_increments(m, grid, inc)
    return PathSample(grid, pos[0], frames[0], inc[0], seed, path_index)

