"""Deformed Fuss number families: exact sequences, transforms, densities, positivity.

The package is organized around the two-parameter family
a_n(p, t) = t raney(p,1,n) + (1-t) raney(p,2,n):

- :mod:`fussdeform.exact_seq` -- exact rational sequence computations
- :mod:`fussdeform.series`    -- truncated power series and free-probability transforms
- :mod:`fussdeform.density`   -- spectral densities and adaptive quadrature
- :mod:`fussdeform.posdef`    -- positivity classification and Hankel analysis
- :mod:`fussdeform.cli`       -- the ``fussdeform`` command line tool

The package re-exports the ``__all__`` of ``errors``, ``exact_seq``, ``series``
and ``density``; each public name is declared once, in its module.  Float-heavy
kernels live in one pure-Python module (``fussdeform.backend_name`` is
``"python"``).
"""

from . import density, errors, exact_seq, series
from ._backend import backend_name
from .density import *  # noqa: F403
from .errors import *  # noqa: F403
from .exact_seq import *  # noqa: F403
from .series import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", "backend_name"]
__all__ += errors.__all__
__all__ += exact_seq.__all__
__all__ += series.__all__
__all__ += density.__all__
