"""Spectral densities of the deformed family and quadrature against them.

Two routes to the density f_{p,t} = t W_{p,1} + (1 - t) W_{p,2} on (0, c(p)):

* parametric -- solve x = rho(phi) on (0, pi/p) and evaluate the angle form
  (works for every p > 1); rho is assumed strictly decreasing, an assumption
  converted into a runtime check by a monotone scan per p at 64 or more
  multiples of a power of two, whose cells bracket the bisection.  Each
  interior cell is a dyadic interval, so the bisection starts from the
  smallest dyadic interval that holds the window Newton's method proves.  The
  points of a call, one or a whole grid, are solved by one kernel call that
  starts Newton's method at each point from the previous point's root;
* closed     -- the six elementary closed forms for p in {2, 3, 3/2}, r in {1, 2}.

f_pt, w_param and density_grid evaluate through one helper, which resolves the
route, and on the closed route the form for p, once per call.  Moment
quadrature integrates in the angle variable (x = rho(phi) bounds the integrand
at both support edges) with the adaptive Gauss-Kronrod kernels; one call gives
the moments 0..n_max of one (p, t), which share the integrand's samples.  The
cumulant-side measures are defined in the kernels; cumulant_quadrature checks
the range of t and integrates x^n against them.
The kernels' settings are constants of fussdeform._kernels_py (bisection width
_RHO_TOL; quadrature _ATOL, _RTOL, _MAX_DEPTH and _INIT_PANELS); only the
absolute tolerance of moment quadrature is an argument here.  Everything here
is float arithmetic; exact statements live in the rational modules.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import partial
from math import ceil, frexp, isfinite, ldexp, pi, sqrt
from operator import neg
from typing import NamedTuple, Optional

from ._backend import kernels
from .errors import BracketingError, QuadratureError
from .exact_seq import Params

__all__ = [
    "DensitySample",
    "support_c",
    "rho",
    "rho_prime",
    "w_param",
    "w_closed",
    "f_pt",
    "density_grid",
    "moment_quadrature",
    "moment_quadrature_full",
    "cumulant_quadrature",
]


class DensitySample(NamedTuple):
    """A density evaluation: support coordinate x, solved angle (if any), value."""

    x: float
    phi: Optional[float]
    value: float


def support_c(p: float) -> float:
    """c(p) = p^p (p-1)^(1-p), the right endpoint of the support (0, c(p))."""
    p = float(p)
    if not (isfinite(p) and p > 1.0):
        raise ValueError("support requires p > 1")
    return p**p * (p - 1.0) ** (1.0 - p)


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


def _rho_scan(p: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Monotonicity check + bisection bracket grid for rho(p, .): the scan points h, 2h, ..., K h
    for the largest power of two h that leaves K >= _SCAN_POINTS with (K + 1) h < pi/p, and rho
    at each.  Every interior cell is then a dyadic interval (a power-of-two width, a left end
    that is a multiple of it), so each bisection midpoint in it is exact."""
    top = pi / p
    h = ldexp(1.0, frexp(top / (_SCAN_POINTS + 1))[1] - 1)
    if (_SCAN_POINTS + 1) * h >= top:
        h *= 0.5
    phis = tuple(i * h for i in range(1, ceil(top / h) - 1))
    vals = tuple(kernels.rho(p, f) for f in phis)
    chain = (support_c(p),) + vals + (0.0,)
    for a, b in zip(chain, chain[1:]):
        if not a > b:
            raise BracketingError(
                f"rho(p={p}, .) is not strictly decreasing on the scan grid"
            )
    return phis, vals


def _brackets(p: float, xs) -> list[tuple[float, float]]:
    """The bisection bracket of each x: the first scan cell that holds it, or an end cell."""
    phis, vals = _rho_scan(p)
    top = pi / p
    inset = top * 1e-12
    first, last = (inset, phis[0]), (phis[-1], top - inset)
    out = []
    for x in xs:
        if x > vals[0]:
            out.append(first)
        elif x < vals[-1]:
            out.append(last)
        else:
            # vals decreases, so the first cell with vals[i] >= x >= vals[i + 1] starts one
            # before the count of values above x (at 0 when x is vals[0])
            i = max(bisect_left(vals, -x, key=neg) - 1, 0)
            out.append((phis[i], phis[i + 1]))
    return out


def _check_x(p: float, x: float) -> tuple[float, float]:
    p = float(p)
    x = float(x)
    upper = support_c(p)
    if not (isfinite(x) and 0.0 < x < upper):
        raise ValueError(f"x must lie in the open support (0, {upper})")
    return p, x


def w_param(p: float, r: float, x: float) -> DensitySample:
    """Component density W_{p,r}(x) through the angle parametrization."""
    p, x = _check_x(p, x)
    return _samples(p, [x], "parametric", partial(kernels.w_phi, p, float(r)))[0]


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


# Keyed by value: 2.0, Fraction(2) and 2 all find the same form.
_CLOSED_FORMS = {2: _w_closed_2, 3: _w_closed_3, Fraction(3, 2): _w_closed_32}


def _closed_form(p):
    form = _CLOSED_FORMS.get(p)
    if form is None:
        raise ValueError("closed forms cover p in {2, 3, 3/2}")
    return form


def w_closed(p, r: int, x: float) -> float:
    """The six elementary closed forms: p in {2, 3, 3/2}, r in {1, 2}."""
    try:
        p_key = Fraction(p)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"unsupported p={p!r} for the closed forms") from exc
    if r not in (1, 2):
        raise ValueError("closed forms cover r in {1, 2}")
    _, x = _check_x(float(p_key), x)
    return _closed_form(p_key)(r, x)


def _samples(p: float, xs: list[float], route: str, angle, closed=None) -> list[DensitySample]:
    """A sample at each of the increasing xs.  parametric: its phi solves x = rho(p, phi), all
    of them by one kernel call, and its value is angle(phi); closed: phi is None and the value
    is closed(form, x), with the closed form for p read once.  A float limit on the way (rho's
    denominator leaves the normal floats, or the angle form's underflows to 0, next to c(p))
    raises OverflowError."""
    if route == "closed":
        form = _closed_form(p)
        return [DensitySample(x, None, closed(form, x)) for x in xs]
    if route != "parametric":
        raise ValueError("route must be 'parametric' or 'closed'")
    try:
        phis = kernels.rho_bisect(p, xs, _brackets(p, xs))
        return [DensitySample(x, phi, angle(phi)) for x, phi in zip(xs, phis)]
    except ZeroDivisionError:
        at = xs[0] if len(xs) == 1 else f"{xs[0]}..{xs[-1]}"
        raise OverflowError(
            f"the angle parametrization left the float range at p={p}, x={at}"
        ) from None


def _mixed(p: float, t: float, xs: list[float], route: str) -> list[DensitySample]:
    """_samples of f_{p,t} = t W_{p,1} + (1 - t) W_{p,2}, each value checked by _finite."""
    samples = _samples(
        p, xs, route, partial(kernels.f_phi, p, t),
        lambda form, x: t * form(1, x) + (1.0 - t) * form(2, x),
    )
    for x, _, value in samples:
        _finite(p, t, x, value)
    return samples


def _finite(p: float, t: float, x: float, value: float) -> float:
    """value, the density at x, once it is known to be finite: a huge |t| overflows it."""
    if not isfinite(value):
        raise OverflowError(f"f_(p,t)(x) is {value} at p={p}, t={t}, x={x}")
    return value


def f_pt(params: Params, x: float, route: str = "parametric") -> float:
    """Density f_{p,t}(x) = t W_{p,1}(x) + (1-t) W_{p,2}(x)."""
    p, t = params.as_floats()
    p, x = _check_x(p, x)
    return _mixed(p, t, [x], route)[0].value


def density_grid(params: Params, grid_size: int, route: str = "parametric") -> list[DensitySample]:
    """grid_size samples of f_{p,t} at x_i = c(p) i/(grid_size+1), i = 1..grid_size."""
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    p, t = params.as_floats()
    upper = support_c(p)
    return _mixed(p, t, [upper * i / (grid_size + 1) for i in range(1, grid_size + 1)], route)


def moment_quadrature_full(params: Params, n_max: int, tol: float = 1e-10) -> list:
    """(value, error estimate) of the moments n = 0..n_max of f_{p,t}, by one angle-space
    quadrature call to the absolute tolerance tol.  The first n that does not converge raises
    QuadratureError, and a float limit (at large p) OverflowError; each names that n."""
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    p, t = params.as_floats()
    if not p > 1.0:
        raise ValueError("moment quadrature requires p > 1")
    try:
        table = kernels.moment_quad(p, t, n_max, tol)
    except ZeroDivisionError as exc:  # at large p, f_phi's denominator underflows to 0
        raise OverflowError(
            f"moment quadrature left the float range at p={p}, t={t}, n={exc.args[0]}"
        ) from None
    value, err, ok = table[-1]
    if not ok:
        raise QuadratureError(
            f"moment quadrature did not converge at (p={p}, t={t}, n={len(table) - 1}): "
            f"estimate {value} with error {err}"
        )
    return [(value, err) for value, err, _ in table]


def moment_quadrature(params: Params, n: int, tol: float = 1e-10) -> float:
    """The n-th moment of f_{p,t}: the value in entry n of moment_quadrature_full."""
    return moment_quadrature_full(params, n, tol)[n][0]


def cumulant_quadrature(case: str, t: float, n: int) -> tuple[float, float]:
    """(integral of x^n against the named cumulant-side measure, error estimate), once t is in
    the range of the case.

    The p2 estimate understates the error as t -> 1: at t = 1 + 1e-12 and n = 8
    the error is 2.5e-12 against an estimate of 6.3e-14, so verify's c9 uses
    p2 only at t >= 7/6.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    t = float(t)
    cases = tuple(kernels.CUMULANT_MEASURES)
    if case not in cases:
        raise ValueError(f"unknown case {case!r}; expected one of {cases}")
    if case == "p2" and not 1.0 < t <= 4.0 / 3.0 + 1e-12:
        raise ValueError("case p2 requires 1 < t <= 4/3")
    if case == "p3" and not 0.5 - 1e-12 <= t <= 1.5 + 1e-12:
        raise ValueError("case p3 requires 1/2 <= t <= 3/2")
    if case == "p3" and not 0.6 - 1e-12 <= t:
        raise ValueError(
            "case p3 quadrature requires 3/5 <= t <= 3/2: below 3/5 the pole at "
            "x = 1/(1 - t) crowds the support edge 4t, and at t = 1/2 the measure "
            "has an atom at x = 2 that its density leaves out"
        )
    value, err, ok = kernels.cumulant_quad(case, t, n)
    if not ok:
        raise QuadratureError(
            f"cumulant quadrature did not converge for case {case} "
            f"(t={t}, n={n}): estimate {value} with error {err}"
        )
    return value, err
