"""Deformed uncertainty relations from probability-only entropy statistics.

The package goes from a pair of entropy measures built purely from
probabilities, through their maximum-entropy distributions and a
generalized-exponential condensation of those, to the deformation parameter
of a modified position-momentum commutator and the phenomenology it implies
(minimal length or maximal momentum).

``import entrogup`` loads only :class:`NumericalError`.  The first access to
any other public name (or to ``__all__``) imports the five submodules, and
with them numpy, and binds all of their exports here at once.
"""

from .errors import NumericalError

__version__ = "0.1.0"


def __getattr__(name: str):
    namespace = globals()
    if "__all__" not in namespace:
        # importlib, not ``from . import ...``: that form looks the names up
        # on this package first, which would call back into __getattr__.
        import importlib

        exports = ["__version__", "NumericalError"]
        for submodule in ("series", "superstats", "entropy", "maxent", "gup"):
            module = importlib.import_module(f"{__name__}.{submodule}")
            namespace.update((export, getattr(module, export)) for export in module.__all__)
            exports += module.__all__
        namespace["__all__"] = exports
    try:
        return namespace[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
