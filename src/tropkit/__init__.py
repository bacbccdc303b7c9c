"""Numerics over idempotent semirings.

The package follows one organizing idea: the change of variables
u ↦ h·log u turns ordinary (+, ×) arithmetic into a family of deformed
semirings that degenerate, as h → 0, to (max, +).  Everything downstream
— linear algebra, integration, Hamilton–Jacobi propagation, Newton
polytopes, amoebas — is the h = 0 shadow of a classical construction,
and most modules expose both the limit object and the deformation that
approaches it.
"""
from . import semiring, errors, linalg, analysis, hamilton_jacobi
from . import polytope, dequantize, fractal, amoeba
from .semiring import *
from .errors import *
from .linalg import *
from .analysis import *
from .hamilton_jacobi import *
from .polytope import *
from .dequantize import *
from .fractal import *
from .amoeba import *

__version__ = "0.1.0"

# Each public name is declared once, in its module's __all__.
__all__ = [
    name
    for module in (
        semiring, errors, linalg, analysis, hamilton_jacobi, polytope, dequantize, fractal, amoeba
    )
    for name in module.__all__
] + ["__version__"]
