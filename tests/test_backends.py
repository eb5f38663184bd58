"""The numpy kernels are deterministic and record consistently."""

import numpy as np
import pytest

import pathgap as pg
from pathgap import _kernels_py
from pathgap._backend import backend_name
from pathgap.sampling import TimeGrid, batch_increments

from conftest import smooth_ricci

# the kernel module, under the name run records give it
with_kernels = pytest.mark.parametrize("kern", [_kernels_py], ids=[backend_name()])

KIND = {"euclidean": 0, "sphere": 1, "hyperbolic": 2}


def _simulate(kern, m, inc, record):
    base = m.basepoint()
    return kern.simulate_paths(
        KIND[m.kind], m.kappa, m.dim, base.position, base.frame, inc, record
    )


class TestSimulateKernels:
    @with_kernels
    def test_deterministic(self, kern):
        m = pg.sphere(2, 1.0)
        g = TimeGrid.uniform(0.5, 64)
        inc = batch_increments(g, m.dim, seed=3, indices=range(4))
        record = np.arange(g.n_steps + 1, dtype=np.int64)
        a = _simulate(kern, m, inc, record)
        b = _simulate(kern, m, inc, record)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @with_kernels
    def test_record_subset(self, kern):
        m = pg.hyperbolic(2, -1.0)
        g = TimeGrid.uniform(0.5, 32)
        inc = batch_increments(g, m.dim, seed=5, indices=range(3))
        full = np.arange(g.n_steps + 1, dtype=np.int64)
        sub = np.array([0, 7, 32], dtype=np.int64)
        pos_f, fr_f = _simulate(kern, m, inc, full)
        pos_s, fr_s = _simulate(kern, m, inc, sub)
        np.testing.assert_array_equal(pos_s, pos_f[:, sub])
        np.testing.assert_array_equal(fr_s, fr_f[:, sub])


class TestResolventKernels:
    @staticmethod
    def _stages(n, d, seed):
        import pathgap.gradients as gr

        m, cb = smooth_ricci(d, seed=seed)
        g = TimeGrid.uniform(1.0, n)
        return gr._stage_ricci(m, g), g.dts

    @with_kernels
    def test_column_matches_triangle(self, kern):
        stages, dts = self._stages(48, 2, seed=59)
        tri = kern.resolvent_triangle(stages, dts)
        col = kern.resolvent_column(stages, dts, 0)
        idx = np.arange(49)
        np.testing.assert_allclose(tri[idx * (idx + 1) // 2], col, atol=1e-12)
