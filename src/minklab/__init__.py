"""minklab: a numerical laboratory for convex smoothness transfer.

The package constructs explicit convex functions and plane convex bodies,
computes infimal convolutions and Minkowski sums by independent routes,
and verifies the quantitative claims that connect them: curvature
transfer under infimal convolution, norm control of rotated graphs,
convex patching with prescribed slope data, hinge smoothing and
Cantor-like Gauss-image sets; its windowed Hölder-seminorm estimator is
so far tested on a synthetic function only.
"""

from . import errors  # noqa: F401
from .fn_core import SmoothFn, NormReport, HolderReport, cr_norm, holder_seminorm  # noqa: F401

__version__ = "0.1.0"
