"""Numerical toolkit for anisotropic capillary geometry in the half-space.

Modules:
    expr      expression parsing with third-order derivative jets
    norms     Minkowski norms, dual support solves, G/Q tensors
    wulff     capillary model shapes and translated-norm machinery
    condition admissibility checks for the convexity condition
    surface   half-sphere radial graphs, geometry, and integrals
    flow      volume-preserving curvature-type flow driver
    checks    surface batteries and the verify suites built on them
    cli       command line interface
"""

__version__ = "0.1.0"


class CapflowError(Exception):
    """Root of the errors capflow raises; the CLI maps it to an exit code."""
