"""Constant-curvature model manifolds in embedding coordinates.

Spheres live in R^{d+1}, hyperbolic spaces on the upper hyperboloid sheet in
Minkowski R^{d,1} (signature -+...+), Euclidean space in R^d.  Both curved
models have closed-form geodesics and parallel transport, so no charts and no
cut-locus handling are needed.  A fourth, synthetic mode carries a prescribed
time-dependent Ricci matrix path (flat geometry) for exercising the resolvent
machinery with non-symmetric curvature data.

The sign of kappa, not ``kind``, picks the surface <x, x> = 1/kappa: s = +1
(cos, sin) and s = -1 (cosh, sinh) share one code path of radius 1/sqrt(s kappa).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ModelManifold",
    "FramePoint",
    "euclidean",
    "sphere",
    "hyperbolic",
    "synthetic_ricci_path",
    "ricci_matrix",
    "curvature_action",
    "geodesic_step",
]

EUCLIDEAN = "euclidean"
SPHERE = "sphere"
HYPERBOLIC = "hyperbolic"
SYNTHETIC = "synthetic"


@dataclass(frozen=True)
class ModelManifold:
    """Geometry descriptor: kind, intrinsic dimension, sectional curvature.

    ``ricci_path`` is only set in synthetic mode and maps time to a d x d
    matrix (not necessarily symmetric).  ``ricci_scalar`` is the constant c
    with Ric = c * Id for the three constant-curvature kinds.
    """

    kind: str
    dim: int
    kappa: float = 0.0
    ricci_path: Optional[Callable[[float], np.ndarray]] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, SPHERE, HYPERBOLIC, SYNTHETIC):
            raise ValueError(f"unknown manifold kind {self.kind!r}")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if not np.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, got {self.kappa}")
        if self.kind == SPHERE and not self.kappa > 0:
            raise ValueError("sphere requires kappa > 0")
        if self.kind == HYPERBOLIC and not self.kappa < 0:
            raise ValueError("hyperbolic requires kappa < 0")
        if self.kind in (EUCLIDEAN, SYNTHETIC) and self.kappa != 0.0:
            raise ValueError(f"{self.kind} requires kappa = 0")
        if self.kind == SYNTHETIC and self.ricci_path is None:
            raise ValueError("synthetic mode requires a ricci_path callback")

    @property
    def ambient_dim(self) -> int:
        return self.dim + 1 if self.kappa else self.dim

    @property
    def ricci_scalar(self) -> float:
        """Constant c with Ric = c * Id (constant-curvature kinds only)."""
        if self.kind == SYNTHETIC:
            raise ValueError("synthetic mode has no constant Ricci scalar")
        return (self.dim - 1) * self.kappa

    @property
    def curvature_window(self):
        """Admissible (k1, k2) implied by the constant curvature."""
        from .bounds import CurvatureBounds

        c = self.ricci_scalar
        return CurvatureBounds(k1=abs(c), k2=c)

    def metric_diag(self) -> np.ndarray:
        """Diagonal of the ambient metric (Minkowski sign for kappa < 0)."""
        g = np.ones(self.ambient_dim)
        if self.kappa < 0:
            g[0] = -1.0
        return g

    def basepoint(self) -> "FramePoint":
        """Canonical starting frame: a pole (the sphere's last coordinate, the
        hyperboloid's first) with the other coordinate axes as its frame."""
        if not self.kappa:
            return FramePoint(np.zeros(self.dim), np.eye(self.dim))
        pole = -1 if self.kappa > 0 else 0
        pos = np.zeros(self.ambient_dim)
        pos[pole] = 1.0 / np.sqrt(abs(self.kappa))
        return FramePoint(pos, np.delete(np.eye(self.ambient_dim), pole, axis=0))


@dataclass(frozen=True)
class FramePoint:
    """A surface point plus an orthonormal tangent frame.

    ``frame`` has shape (d, ambient_dim); row i is the i-th frame vector in
    ambient coordinates, orthonormal with respect to the ambient metric.
    """

    position: np.ndarray
    frame: np.ndarray


def euclidean(dim: int) -> ModelManifold:
    return ModelManifold(EUCLIDEAN, dim)


def sphere(dim: int, kappa: float = 1.0) -> ModelManifold:
    return ModelManifold(SPHERE, dim, float(kappa))


def hyperbolic(dim: int, kappa: float = -1.0) -> ModelManifold:
    return ModelManifold(HYPERBOLIC, dim, float(kappa))


def synthetic_ricci_path(dim: int, ricci_path: Callable[[float], np.ndarray]) -> ModelManifold:
    return ModelManifold(SYNTHETIC, dim, 0.0, ricci_path)


def ricci_matrix(m: ModelManifold, t: float) -> np.ndarray:
    """Ricci action read in the moving frame: a d x d matrix.

    Constant curvature gives (d-1)*kappa*Id regardless of the frame; the
    synthetic mode returns its prescribed matrix path at time t.
    """
    if m.kind == SYNTHETIC:
        out = np.asarray(m.ricci_path(float(t)), dtype=float)
        if out.shape != (m.dim, m.dim):
            raise ValueError(f"ricci_path must return a {(m.dim, m.dim)} matrix, got {out.shape}")
        return out
    return m.ricci_scalar * np.eye(m.dim)


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


def _project_tangent(m: ModelManifold, pos: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Remove the normal component of ambient vectors at ``pos``.

    ``pos`` and ``vec`` are (..., ambient_dim) stacks that broadcast against
    each other.  Each pairing is an ``np.vecdot`` row, which rounds exactly
    like the 1-D ``vec @ pos`` of a single vector.  The normal is pos itself,
    with <pos, pos> = 1/kappa; dividing by 1/kappa, not multiplying by kappa,
    keeps the rounding of the per-surface forms that the tests pin.
    """
    if not m.kappa:
        return vec
    return vec - (np.vecdot(vec * m.metric_diag(), pos) / (1.0 / m.kappa))[..., None] * pos


def _root(m: ModelManifold, q: float) -> float:
    """Square root of a metric square that is positive on the surface.

    Far out on the hyperboloid <x, x> and the frame's metric squares cancel
    to roundoff and can come out nonpositive; such a square raises
    ValueError naming kappa, as the walk kernel does.
    """
    if not 0.0 < q < np.inf:
        surface = "sphere" if m.kappa > 0 else "hyperboloid"
        raise ValueError(
            f"the step leaves the {surface}: kappa = {m.kappa!r}; take a shorter step or a "
            "smaller |kappa|"
        )
    return np.sqrt(q)


def _renormalize(m: ModelManifold, pos: np.ndarray, frame: np.ndarray):
    """Snap position back to a curved surface and Gram-Schmidt the frame."""
    g, s = m.metric_diag(), np.sign(m.kappa)
    pos = pos * ((1.0 / np.sqrt(s * m.kappa)) / _root(m, s * ((pos * g) @ pos)))
    frame = frame.copy()
    for i in range(frame.shape[0]):
        v = _project_tangent(m, pos, frame[i])
        for j in range(i):
            v = v - ((v * g) @ frame[j]) * frame[j]
        frame[i] = v / _root(m, (v * g) @ v)
    return pos, frame


def geodesic_step(m: ModelManifold, fp: FramePoint, v: np.ndarray, h: float = 1.0) -> FramePoint:
    """Flow along the geodesic with initial velocity frame . v for time h.

    The frame is parallel-transported along the geodesic (a closed-form
    rotation/boost in the plane of motion), then re-orthonormalized.  A
    step whose metric squares are roundoff, far out on the hyperboloid,
    raises ValueError naming kappa instead of returning NaN.
    """
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h}")
    v = np.asarray(v, dtype=float)
    if v.shape != (m.dim,):
        raise ValueError(f"v must be a vector of length {m.dim}")
    pos, frame = fp.position, fp.frame
    disp = h * (frame.T @ v)  # ambient displacement vector
    if not m.kappa:
        return FramePoint(pos + disp, frame)

    g = m.metric_diag()
    if (arc2 := (disp * g) @ disp) == 0.0:
        return fp
    arc = _root(m, arc2)
    direction = disp / arc
    s, cos, sin = (1.0, np.cos, np.sin) if m.kappa > 0 else (-1.0, np.cosh, np.sinh)
    radius = 1.0 / np.sqrt(s * m.kappa)
    theta = arc / radius
    new_pos = cos(theta) * pos + radius * sin(theta) * direction
    correction = (cos(theta) - 1.0) * direction - s * sin(theta) * pos / radius
    coeffs = (frame * g) @ direction  # metric pairing of each row with direction
    new_frame = frame + np.outer(coeffs, correction)
    new_pos, new_frame = _renormalize(m, new_pos, new_frame)
    return FramePoint(new_pos, new_frame)
