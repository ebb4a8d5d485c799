"""Deformed Fuss number families: exact sequences, transforms, densities, positivity.

The package is organized around the two-parameter family
a_n(p, t) = t raney(p,1,n) + (1-t) raney(p,2,n):

- :mod:`fussdeform.exact_seq` -- exact rational sequence computations
- :mod:`fussdeform.series`    -- truncated power series and free-probability transforms
- :mod:`fussdeform.density`   -- spectral densities and adaptive quadrature
- :mod:`fussdeform.posdef`    -- positivity classification and Hankel analysis
- :mod:`fussdeform.cli`       -- the ``fussdeform`` command line tool

Float-heavy kernels live in one pure-Python module (``fussdeform.backend_name``
is ``"python"``).
"""

from ._backend import backend_name
from .errors import (
    BracketingError,
    DigitLimitError,
    FussDeformError,
    InconsistencyError,
    QuadratureError,
)
from .exact_seq import (
    Params,
    SeqTable,
    a022558_table,
    a220910,
    a220910_table,
    binomial_transform,
    catalan_table,
    constellation_count,
    constellation_table,
    deformed_fuss,
    deformed_table,
    ex1_table,
    necessary_gap,
    parse_rational,
    raney,
    rational_str,
)
from .density import (
    CUMULANT_CASES,
    DensitySample,
    SupportInfo,
    cumulant_measure_eval,
    cumulant_quadrature,
    density_grid,
    f_pt,
    moment_quadrature,
    moment_quadrature_full,
    rho,
    rho_prime,
    support_c,
    w_closed,
    w_param,
)
from .series import (
    CumulantTable,
    TruncSeries,
    bp_series,
    compose,
    cumulant_jet,
    cumulants_from_moments,
    gf_closed_expand,
    moment_series,
    moments_from_cumulants,
    pow1p,
    r_series_closed,
    revert,
    s_series_closed,
    s_series_from_moments,
    sqrt1p,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "backend_name",
    "FussDeformError",
    "InconsistencyError",
    "QuadratureError",
    "BracketingError",
    "DigitLimitError",
    "Params",
    "SeqTable",
    "parse_rational",
    "rational_str",
    "raney",
    "deformed_fuss",
    "deformed_table",
    "ex1_table",
    "constellation_count",
    "constellation_table",
    "binomial_transform",
    "a220910",
    "a220910_table",
    "a022558_table",
    "necessary_gap",
    "catalan_table",
    "TruncSeries",
    "CumulantTable",
    "compose",
    "revert",
    "sqrt1p",
    "pow1p",
    "bp_series",
    "moment_series",
    "cumulants_from_moments",
    "moments_from_cumulants",
    "cumulant_jet",
    "s_series_from_moments",
    "s_series_closed",
    "r_series_closed",
    "gf_closed_expand",
    "DensitySample",
    "SupportInfo",
    "CUMULANT_CASES",
    "support_c",
    "rho",
    "rho_prime",
    "w_param",
    "w_closed",
    "f_pt",
    "density_grid",
    "moment_quadrature",
    "moment_quadrature_full",
    "cumulant_measure_eval",
    "cumulant_quadrature",
]
