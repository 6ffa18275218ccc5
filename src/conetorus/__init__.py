"""Determinant of the Laplacian on a genus-one surface with one 4*pi cone point.

The surface is the double cover of the sphere branched over {0, 1, inf, t},
carrying the pullback of the curvature-one conical metric; the determinant
of its Friedrichs Laplacian is computed in closed form (up to a universal
constant) and cross-checked spectrally.
"""

from . import errors, specialfn, moduli, detformula, geometry, spectral, verify
from .errors import *
from .specialfn import *
from .moduli import *
from .detformula import *
from .geometry import *
from .spectral import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *specialfn.__all__,
    *moduli.__all__,
    *detformula.__all__,
    *geometry.__all__,
    *spectral.__all__,
    *verify.__all__,
    "__version__",
]
