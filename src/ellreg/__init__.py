"""Spectral toolkit for elliptic regularity experiments on periodic grids.

Fields on the torus [-L, L)^m, differential operators with matrix
coefficients, Besov norms across the smoothness scale, Friedrichs
mollification, parameter-elliptic resolvent solvers, partition-of-unity patch
norms, and an explicit 1-D counterexample suite, plus a CLI experiment runner.
"""

from .besov import BesovParams, besov_norm, bessel_lift, sobolev_norm
from .errors import EllregError
from .grid import Field, GridSpec, SpectralField, dft, idft, lp_norm
from .mollify import mollify
from .pdo import PDOperator, apply, neg_laplacian

__version__ = "0.1.0"

__all__ = [
    "BesovParams",
    "EllregError",
    "Field",
    "GridSpec",
    "PDOperator",
    "SpectralField",
    "apply",
    "besov_norm",
    "bessel_lift",
    "dft",
    "idft",
    "lp_norm",
    "mollify",
    "neg_laplacian",
    "sobolev_norm",
    "__version__",
]
