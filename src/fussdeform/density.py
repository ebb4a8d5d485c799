"""Spectral densities of the deformed family and quadrature against them.

Two routes to the density f_{p,t} = t W_{p,1} + (1 - t) W_{p,2} on (0, c(p)):

* parametric -- phi = arg B, which solves x = rho(phi), and the value
  kernels.mass(t, B) / (pi x) at the root B of x (B - 1) = B^p in the sector
  0 < arg B < pi/p (every p > 1); one call to kernels.rho_bisect, whose docstring
  describes the Newton continuation and the check that accepts each root,
  solves the points of a call, one or a whole grid;
* closed     -- the six elementary closed forms for p in {2, 3, 3/2}, r in {1, 2}.

density_grid evaluates through one helper, which resolves the route, and on the
closed route the form for p, once per call; the components W_{p,1} and W_{p,2}
are f_{p,t} at t = 1 and t = 0.  Moment
quadrature integrates in the angle variable (x = rho(phi) bounds the integrand
at both support edges) with the adaptive Gauss-Kronrod kernels; one call gives
the moments 0..n_max of one (p, t), which share the integrand's samples.  The
cumulant-side measures are defined in the kernels; cumulant_quadrature checks
the range of t and integrates x^n against them.
The kernels' settings are constants of fussdeform._kernels_py (Newton's method
_NEWTON_TOL, _NEWTON_STEPS and _HALVINGS; quadrature _ATOL, _RTOL, _MAX_DEPTH,
_INIT_PANELS, _INSET and _KEPT_PANELS); only the absolute tolerance of moment
quadrature is an argument here.  Everything here is float arithmetic; exact
statements live in the rational modules.
"""

from __future__ import annotations

from fractions import Fraction
from math import atan2, isfinite, pi, sqrt
from typing import NamedTuple, Optional

from ._backend import kernels
from .errors import QuadratureError
from .exact_seq import Params

__all__ = [
    "DensitySample",
    "support_c",
    "w_closed",
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
    """c(p), the right endpoint of the support (0, c(p)): kernels.support_end once p > 1."""
    p = float(p)
    if not (isfinite(p) and p > 1.0):
        raise ValueError("support requires p > 1")
    return kernels.support_end(p)


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
    x = float(x)
    upper = support_c(float(p_key))
    if not (isfinite(x) and 0.0 < x < upper):
        raise ValueError(f"x must lie in the open support (0, {upper})")
    return _closed_form(p_key)(r, x)


def _samples(p: float, t: float, xs: list[float], route: str) -> list[DensitySample]:
    """A sample of f_{p,t} = t W_{p,1} + (1 - t) W_{p,2} at each of the increasing xs.
    parametric: the roots B of x (B - 1) = B^p come from one kernel call, phi = arg B solves
    x = rho(p, phi), and the value is kernels.mass(t, B) / (pi x); closed: phi is None and the
    value is the closed form, with the form for p read once.  A float limit raises
    OverflowError naming p and x: the inversion loses a point, or a huge |t| overflows a
    value."""
    if route == "closed":
        form = _closed_form(p)
        samples = [DensitySample(x, None, t * form(1, x) + (1.0 - t) * form(2, x)) for x in xs]
    elif route != "parametric":
        raise ValueError("route must be 'parametric' or 'closed'")
    else:
        samples = [
            DensitySample(x, atan2(b.imag, b.real), kernels.mass(t, b) / (pi * x))
            for x, b in zip(xs, kernels.rho_bisect(p, xs))
        ]
    for x, _, value in samples:
        if not isfinite(value):
            raise OverflowError(f"f_(p,t)(x) is {value} at p={p}, t={t}, x={x}")
    return samples


def density_grid(params: Params, grid_size: int, route: str = "parametric") -> list[DensitySample]:
    """grid_size samples of f_{p,t} at x_i = c(p) i/(grid_size+1), i = 1..grid_size."""
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    p, t = params.as_floats()
    upper = support_c(p)
    return _samples(p, t, [upper * i / (grid_size + 1) for i in range(1, grid_size + 1)], route)


def moment_quadrature_full(params: Params, n_max: int, tol: float = 1e-10) -> list:
    """(value, error estimate) of the moments n = 0..n_max of f_{p,t}, by one angle-space
    quadrature call to the absolute tolerance tol.  The first n that does not converge raises
    QuadratureError, and a float limit (at large p or large n) the kernel's OverflowError;
    each names that n."""
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    p, t = params.as_floats()
    if not p > 1.0:
        raise ValueError("moment quadrature requires p > 1")
    table = kernels.moment_quad(p, t, n_max, tol)
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
