"""Deformed uncertainty relations from probability-only entropy statistics.

The package goes from a pair of entropy measures built purely from
probabilities, through their maximum-entropy distributions and a
generalized-exponential condensation of those, to the deformation parameter
of a modified position-momentum commutator and the phenomenology it implies
(minimal length or maximal momentum).
"""

from . import entropy, gup, maxent, series, superstats
from .entropy import *
from .errors import NumericalError
from .gup import *
from .maxent import *
from .series import *
from .superstats import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "NumericalError",
    *series.__all__,
    *superstats.__all__,
    *entropy.__all__,
    *maxent.__all__,
    *gup.__all__,
]
