"""Spectral densities of the deformed family and quadrature against them.

Two routes to the density f_{p,t} = t W_{p,1} + (1 - t) W_{p,2} on (0, c(p)):

* parametric -- solve x = rho(phi) on (0, pi/p) and evaluate the angle form
  (works for every p > 1); rho is assumed strictly decreasing, an assumption
  converted into a runtime check by a 64-point monotone scan per p;
* closed     -- the six elementary closed forms for p in {2, 3, 3/2}, r in {1, 2}.

Quadrature integrates in the angle variable (the substitution x = rho(phi)
bounds the integrand at both support edges), using the adaptive
Gauss-Kronrod kernels.  Everything here is float arithmetic; exact statements
live in the rational modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isfinite, pi, sqrt
from typing import Optional

from ._backend import kernels
from .errors import BracketingError, QuadratureError
from .exact_seq import Params

__all__ = [
    "DensitySample",
    "SupportInfo",
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
    "CUMULANT_CASES",
]


@dataclass(frozen=True)
class DensitySample:
    """A density evaluation: support coordinate x, solved angle (if any), value."""

    x: float
    phi: Optional[float]
    value: float


@dataclass(frozen=True)
class SupportInfo:
    """The support (0, upper) of the family's density for a given p > 1."""

    p: float
    upper: float


def support_c(p: float) -> SupportInfo:
    """c(p) = p^p (p-1)^(1-p), the right support endpoint."""
    p = float(p)
    if not (isfinite(p) and p > 1.0):
        raise ValueError("support requires p > 1")
    return SupportInfo(p=p, upper=p**p * (p - 1.0) ** (1.0 - p))


def _check_phi(p: float, phi: float) -> tuple[float, float]:
    p = float(p)
    phi = float(phi)
    if not (isfinite(p) and p > 1.0):
        raise ValueError("rho requires p > 1")
    if not (0.0 < phi < pi / p):
        raise ValueError(f"phi must lie in (0, pi/p) = (0, {pi / p})")
    return p, phi


def rho(p: float, phi: float) -> float:
    """The support coordinate x = sin(p phi)^p / (sin phi sin((p-1) phi)^(p-1))."""
    p, phi = _check_phi(p, phi)
    return kernels.rho(p, phi)


def rho_prime(p: float, phi: float) -> float:
    """d rho / d phi (negative throughout the domain)."""
    p, phi = _check_phi(p, phi)
    return kernels.rho_prime(p, phi)


_SCAN_POINTS = 64


@lru_cache(maxsize=256)
def _rho_scan(p: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Monotonicity check + bisection bracket grid for rho(p, .)."""
    top = pi / p
    phis = tuple(top * (i + 1) / (_SCAN_POINTS + 1) for i in range(_SCAN_POINTS))
    vals = tuple(kernels.rho(p, f) for f in phis)
    chain = (support_c(p).upper,) + vals + (0.0,)
    for a, b in zip(chain, chain[1:]):
        if not a > b:
            raise BracketingError(
                f"rho(p={p}, .) is not strictly decreasing on the scan grid"
            )
    return phis, vals


def _solve_phi(p: float, x: float) -> float:
    """Invert x = rho(p, phi) by scan bracketing plus bisection to 1e-13."""
    phis, vals = _rho_scan(p)
    top = pi / p
    inset = top * 1e-12
    lo, hi = None, None
    if x > vals[0]:
        lo, hi = inset, phis[0]
    elif x < vals[-1]:
        lo, hi = phis[-1], top - inset
    else:
        for i in range(len(vals) - 1):
            if vals[i] >= x >= vals[i + 1]:
                lo, hi = phis[i], phis[i + 1]
                break
    if lo is None:
        raise BracketingError(f"no bracket found for x={x} at p={p}")
    return kernels.rho_bisect(p, x, lo, hi, 1e-13)


def _check_x(p: float, x: float) -> tuple[float, float]:
    p = float(p)
    x = float(x)
    upper = support_c(p).upper
    if not (isfinite(x) and 0.0 < x < upper):
        raise ValueError(f"x must lie in the open support (0, {upper})")
    return p, x


def w_param(p: float, r: float, x: float) -> DensitySample:
    """Component density W_{p,r}(x) through the angle parametrization."""
    p, x = _check_x(p, x)
    phi = _solve_phi(p, x)
    return DensitySample(x=x, phi=phi, value=kernels.w_phi(p, float(r), phi))


_THIRD = 1.0 / 3.0


def _w_closed_2(r: int, x: float) -> float:
    if r == 1:
        return sqrt((4.0 - x) / x) / (2.0 * pi)
    return sqrt(x * (4.0 - x)) / (2.0 * pi)


def _w_closed_3(r: int, x: float) -> float:
    up = 1.0 + sqrt(1.0 - 4.0 * x / 27.0)
    fx = 4.0 * x
    if r == 1:
        return (3.0 * up ** (2.0 * _THIRD) - fx**_THIRD) / (
            sqrt(3.0) * pi * fx ** (2.0 * _THIRD) * up**_THIRD
        )
    return (9.0 * up ** (4.0 * _THIRD) - fx ** (2.0 * _THIRD)) / (
        2.0 * pi * 3.0**1.5 * fx**_THIRD * up ** (2.0 * _THIRD)
    )


def _w_closed_32(r: int, x: float) -> float:
    s = sqrt(1.0 - 4.0 * x * x / 27.0)
    up = 1.0 + s
    um = (4.0 * x * x / 27.0) / up  # 1 - s without cancellation
    d13 = up**_THIRD - um**_THIRD
    d23 = up ** (2.0 * _THIRD) - um ** (2.0 * _THIRD)
    tx = 2.0 * x
    if r == 1:
        return sqrt(3.0) * d13 / (2.0 * tx**_THIRD * pi) + sqrt(3.0) * tx**_THIRD * d23 / (4.0 * pi)
    return sqrt(3.0) * tx ** (5.0 * _THIRD) * d13 / (8.0 * pi) + sqrt(3.0) * tx**_THIRD * (
        x * x - 1.0
    ) * d23 / (4.0 * pi)


def w_closed(p, r: int, x: float) -> float:
    """The six elementary closed forms: p in {2, 3, 3/2}, r in {1, 2}."""
    try:
        p_key = Fraction(p)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"unsupported p={p!r} for the closed forms") from exc
    if r not in (1, 2):
        raise ValueError("closed forms cover r in {1, 2}")
    _, x = _check_x(float(p_key), x)
    if p_key == 2:
        return _w_closed_2(r, x)
    if p_key == 3:
        return _w_closed_3(r, x)
    if p_key == Fraction(3, 2):
        return _w_closed_32(r, x)
    raise ValueError("closed forms cover p in {2, 3, 3/2}")


def f_pt(params: Params, x: float, route: str = "parametric") -> float:
    """Density f_{p,t}(x) = t W_{p,1}(x) + (1-t) W_{p,2}(x)."""
    p, t = params.as_floats()
    p, x = _check_x(p, x)
    if route == "parametric":
        phi = _solve_phi(p, x)
        return kernels.f_phi(p, t, phi)
    if route == "closed":
        return t * w_closed(p, 1, x) + (1.0 - t) * w_closed(p, 2, x)
    raise ValueError("route must be 'parametric' or 'closed'")


def density_grid(params: Params, grid_size: int, route: str = "parametric") -> list[DensitySample]:
    """grid_size samples of f_{p,t} at x_i = c(p) i/(grid_size+1), i = 1..grid_size."""
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    p, t = params.as_floats()
    upper = support_c(p).upper
    out = []
    for i in range(1, grid_size + 1):
        x = upper * i / (grid_size + 1)
        if route == "parametric":
            phi = _solve_phi(p, x)
            out.append(DensitySample(x=x, phi=phi, value=kernels.f_phi(p, t, phi)))
        elif route == "closed":
            out.append(DensitySample(x=x, phi=None, value=f_pt(params, x, "closed")))
        else:
            raise ValueError("route must be 'parametric' or 'closed'")
    return out


def moment_quadrature_full(
    params: Params, n: int, tol: float = 1e-10, max_depth: int = 20
) -> tuple[float, float]:
    """(value, error estimate) for the n-th moment of f_{p,t} by angle-space quadrature."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p, t = params.as_floats()
    if not p > 1.0:
        raise ValueError("moment quadrature requires p > 1")
    value, err, ok = kernels.moment_quad(p, t, n, tol, 1e-12, max_depth)
    if not ok:
        raise QuadratureError(
            f"moment quadrature did not converge at (p={p}, t={t}, n={n}): "
            f"estimate {value} with error {err}"
        )
    return value, err


def moment_quadrature(params: Params, n: int, tol: float = 1e-10, max_depth: int = 20) -> float:
    """The n-th moment of f_{p,t}; see moment_quadrature_full for the error estimate."""
    return moment_quadrature_full(params, n, tol, max_depth)[0]


CUMULANT_CASES = ("p2", "p3", "a220910", "a022558")


def _cumulant_support(case: str, t: float) -> tuple[float, float]:
    if case == "p2":
        if not 1.0 < t <= 4.0 / 3.0 + 1e-12:
            raise ValueError("case p2 requires 1 < t <= 4/3")
        half = 2.0 * sqrt(t * t - t)
        return 2.0 * t - 1.0 - half, 2.0 * t - 1.0 + half
    if case == "p3":
        if not 0.5 - 1e-12 <= t <= 1.5 + 1e-12:
            raise ValueError("case p3 requires 1/2 <= t <= 3/2")
        return 0.0, 4.0 * t
    if case == "a220910":
        return 0.0, 12.0
    if case == "a022558":
        return 0.0, 8.0
    raise ValueError(f"unknown case {case!r}; expected one of {CUMULANT_CASES}")


def cumulant_measure_eval(case: str, t: float, x: float) -> float:
    """Pointwise density of the named cumulant-side measure (verbatim formulas)."""
    t = float(t)
    x = float(x)
    lo, hi = _cumulant_support(case, t)
    if not (isfinite(x) and lo < x < hi):
        raise ValueError(f"x={x} outside the open support ({lo}, {hi}) of case {case}")
    if case == "p2":
        rad = 4.0 * t * (t - 1.0) - (x - 2.0 * t + 1.0) ** 2
        return (1.0 - t * x + x) * sqrt(rad) / (2.0 * pi * (t - 1.0) * x**3)
    if case == "p3":
        return (
            (t - x * (t - 1.0) ** 2)
            * sqrt(4.0 * t - x)
            / (2.0 * pi * (t * x - x + 1.0) ** 2 * sqrt(x))
        )
    if case == "a220910":
        return sqrt((12.0 - x) ** 3) / (2.0 * pi * (x + 4.0) ** 2 * sqrt(x))
    return sqrt(x * (8.0 - x) ** 3) / (2.0 * pi * (x + 1.0) ** 3)


def cumulant_quadrature(
    case: str, t: float, n: int, tol: float = 1e-10, max_depth: int = 20
) -> tuple[float, float]:
    """(integral of x^n against the named measure, error estimate)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    t = float(t)
    _cumulant_support(case, t)  # domain validation
    value, err, ok = kernels.cumulant_quad(case, t, n, tol, 1e-12, max_depth)
    if not ok:
        raise QuadratureError(
            f"cumulant quadrature did not converge for case {case} "
            f"(t={t}, n={n}): estimate {value} with error {err}"
        )
    return value, err
