"""Deformed Fuss number families: exact sequences, transforms, densities, positivity.

The package is organized around the two-parameter family
a_n(p, t) = t raney(p,1,n) + (1-t) raney(p,2,n):

- :mod:`fussdeform.exact_seq` -- exact rational sequence computations
- :mod:`fussdeform.series`    -- truncated power series and free-probability transforms
- :mod:`fussdeform.density`   -- spectral densities and adaptive quadrature
- :mod:`fussdeform.posdef`    -- positivity classification and Hankel analysis
- :mod:`fussdeform.cli`       -- the ``fussdeform`` command line tool

The package re-exports the ``__all__`` of ``errors``, ``exact_seq``, ``series``
and ``density``; each public name is declared once, in its module.  Only
``errors`` and ``exact_seq``, which every command uses, load with the package.
The names of ``series`` and ``density``, the submodules and ``__all__``
resolve on first use (PEP 562), so a command loads only the layers it calls.
Float-heavy kernels live in one pure-Python module (``backend_name`` is
``"python"``).
"""

from importlib import import_module

from . import errors, exact_seq
from .errors import *  # noqa: F403
from .exact_seq import *  # noqa: F403

__version__ = "0.1.0"

backend_name = "python"

_LAZY = ("series", "density")  # re-exported after errors and exact_seq, in this order


def __getattr__(name: str):
    if name == "__all__":
        names = ["__version__", "backend_name", *errors.__all__, *exact_seq.__all__]
        for lazy in _LAZY:
            names += import_module(f"{__name__}.{lazy}").__all__
        globals()["__all__"] = names
        return names
    # Attribute access to a submodule not yet imported (``fussdeform.posdef``
    # after ``import fussdeform``), tried before the re-export search, which
    # would import ``series`` and ``density``.
    if name.isidentifier():
        try:
            return import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    if not name.startswith("_"):
        for lazy in _LAZY:
            module = import_module(f"{__name__}.{lazy}")
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
