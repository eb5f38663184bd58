"""Spectral-gap bounds on Riemannian path space and their Monte-Carlo checks.

Closed-form bound evaluation lives in :mod:`pathgap.bounds`; constant-
curvature geometry in :mod:`pathgap.geometry`; Brownian path sampling in
:mod:`pathgap.sampling`; damping propagators on a grid and the cylindrical
functional contract in :mod:`pathgap.gradients`; Monte-Carlo estimators,
their batched gradient energies and the inequality verifiers in
:mod:`pathgap.estimators`; the command-line front end in :mod:`pathgap.cli`.
"""

from ._backend import backend_name
from .bounds import (
    BoundReport,
    CurvatureBounds,
    bound_report,
    gap_bounds_small_time,
    lambda_argmax,
    lambda_prime,
    lambda_profile,
    lambda_sup,
    psi,
)
from .geometry import (
    FramePoint,
    ModelManifold,
    euclidean,
    geodesic_step,
    hyperbolic,
    ricci_matrix,
    sphere,
    synthetic_ricci_path,
)
from .sampling import PathSample, TimeGrid, sample_path

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CurvatureBounds",
    "FramePoint",
    "ModelManifold",
    "PathSample",
    "TimeGrid",
    "backend_name",
    "bound_report",
    "euclidean",
    "gap_bounds_small_time",
    "geodesic_step",
    "hyperbolic",
    "lambda_argmax",
    "lambda_prime",
    "lambda_profile",
    "lambda_sup",
    "psi",
    "ricci_matrix",
    "sample_path",
    "sphere",
    "synthetic_ricci_path",
]
