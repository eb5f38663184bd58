"""Constant-curvature model manifolds in embedding coordinates.

Spheres live in R^{d+1}, hyperbolic spaces on the upper hyperboloid sheet in
Minkowski R^{d,1} (signature -+...+), Euclidean space in R^d.  Both curved
models have closed-form geodesics and parallel transport, so no charts and no
cut-locus handling are needed.  A fourth, synthetic mode carries a prescribed
time-dependent Ricci matrix path (flat geometry) for exercising the resolvent
machinery with non-symmetric curvature data.

The sign of kappa, not ``kind``, picks the surface <x, x> = 1/kappa: s = +1
(cos, sin) and s = -1 (cosh, sinh) share one code path of radius 1/sqrt(s kappa)
(``_surface``).  One rule refuses a curved step that cannot stay on its surface
in floating point (``_root``), for geodesic_step and the batched walk alike.
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


def _surface(kappa: float):
    """The curved surface <x, x> = 1/kappa: its sign s, its geodesics' (cos, sin)
    pair, its radius 1/sqrt(s kappa) and whether its metric is Lorentzian."""
    if kappa > 0:
        return 1.0, np.cos, np.sin, 1.0 / np.sqrt(kappa), False
    return -1.0, np.cosh, np.sinh, 1.0 / np.sqrt(-kappa), True


def _root(kappa: float, arc2, step=None, x0=None, q=None):
    """Square roots of a curved step's metric squares, once the step passes the
    one rule that refuses it.

    The walk kernel passes arrays over its paths and the 1-based ``step``;
    geodesic_step passes single values.  ``arc2`` are the squared step lengths.
    With ``q`` None they are the squares rooted, and three checks run:

    * they must be finite and nonnegative (a squared length can overflow);
    * on the sphere the largest angle theta = sqrt(max arc2) / radius (the
      largest per-path angle bit for bit: both operations are monotone) may
      not pass 2**26 radians, where it rounds by theta * 2**-52 and sine and
      cosine are roundoff;
    * on the hyperboloid the largest coordinate the step may reach from
      coordinates 0 at most max(x0), max(x0) e**theta, may not pass 2**17
      radii r.  The metric squares of the position and of the frame rows
      (which reach x0 / r) cancel, and rounding leaves them and the
      renormalized step a relative error of up to about 6 (x0/r)**2 2**-53,
      1.2e-5 at the limit (measured on one step from the basepoint against
      the exact geodesic).  Nor may it pass e**350, where the squares
      overflow (0.5 log of the float maximum is 354.9); that binds only for
      |kappa| below about 2e-294.

    Otherwise ``q`` (a position's or a frame row's metric squares) must be
    finite and positive.  A passing check costs two reductions (a NaN fails
    both), and one over x0 on the hyperboloid.  A failing one raises
    ValueError naming the step (when given), kappa and the longest step length.
    """
    lengths = q is None
    q = arc2 if lengths else q
    low = np.minimum.reduce(q, axis=None, initial=np.inf)
    high = np.maximum.reduce(q, axis=None, initial=0.0)
    what = None
    if not ((low >= 0.0 if lengths else low > 0.0) and high < np.inf):
        what = f"leaves the {'sphere' if kappa > 0 else 'hyperboloid'}"
    elif lengths:
        radius = _surface(kappa)[3]
        theta = np.sqrt(high) / radius
        if kappa > 0 and not theta <= 2.0**26:
            what = "turns the sphere past 2**26 radians, where sine and cosine are roundoff"
        elif kappa < 0 and not theta + np.log(
            np.maximum.reduce(x0, axis=None, initial=radius)
        ) <= min(np.log(radius) + 17 * np.log(2.0), 350.0):
            what = "boosts the hyperboloid past 2**17 radii (or e**350), where its squares fail"
    if what is None:
        return np.sqrt(q)
    subject = "the step" if step is None else f"the walk's step {step}"
    raise ValueError(
        f"{subject} {what}: kappa = {kappa!r}, step length "
        f"{float(np.sqrt(np.max(np.abs(arc2))))!r}; take shorter steps or a smaller |kappa|"
    )


def _renormalize(m: ModelManifold, pos: np.ndarray, frame: np.ndarray, arc2: float = 0.0):
    """Snap position back to a curved surface and Gram-Schmidt the frame.

    ``arc2`` is the squared length of the step that led here, for the error
    of a metric square that :func:`_root` refuses.
    """
    g, (s, _, _, radius, _) = m.metric_diag(), _surface(m.kappa)
    pos = pos * (radius / _root(m.kappa, arc2, q=s * ((pos * g) @ pos)))
    frame = frame.copy()
    for i in range(frame.shape[0]):
        v = _project_tangent(m, pos, frame[i])
        for j in range(i):
            v = v - ((v * g) @ frame[j]) * frame[j]
        frame[i] = v / _root(m.kappa, arc2, q=(v * g) @ v)
    return pos, frame


def geodesic_step(m: ModelManifold, fp: FramePoint, v: np.ndarray, h: float = 1.0) -> FramePoint:
    """Flow along the geodesic with initial velocity frame . v for time h.

    The frame is parallel-transported along the geodesic (a closed-form
    rotation/boost in the plane of motion), then re-orthonormalized.  A
    curved step is refused by the rule the walk kernel shares
    (:func:`_root`): a squared length, position or frame square that is not
    finite and positive, a sphere turn past 2**26 radians or a boost that
    may carry a coordinate past 2**17 radii raises ValueError naming kappa
    and the step length, with no RuntimeWarning and no NaN returned.
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
    with np.errstate(over="ignore", invalid="ignore"):  # _root refuses inf and NaN
        arc2 = (disp * g) @ disp
    if arc2 == 0.0:
        return fp
    arc = _root(m.kappa, arc2, x0=pos[0])
    direction = disp / arc
    s, cos, sin, radius, _ = _surface(m.kappa)
    theta = arc / radius
    new_pos = cos(theta) * pos + radius * sin(theta) * direction
    correction = (cos(theta) - 1.0) * direction - s * sin(theta) * pos / radius
    coeffs = (frame * g) @ direction  # metric pairing of each row with direction
    new_frame = frame + np.outer(coeffs, correction)
    new_pos, new_frame = _renormalize(m, new_pos, new_frame, arc2)
    return FramePoint(new_pos, new_frame)
