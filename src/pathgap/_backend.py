"""The kernel module: the numpy geodesic walk and RK4 propagator kernels.

Callers reach the kernels as attributes of ``kernels``, so they can be
wrapped in one place; ``backend_name`` names the implementation for run
records.
"""

from . import _kernels_py as kernels


def backend_name() -> str:
    """Name of the kernel backend in use: always 'python' (numpy)."""
    return "python"
