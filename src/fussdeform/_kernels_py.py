"""Float kernels: trig parametrization, feasibility scans, quadrature.

Higher-level modules reach these through :mod:`fussdeform._backend`, which
binds this module as ``kernels``.

Only plain floats are used here.  Exact arithmetic lives elsewhere.
"""

from functools import partial
from math import cos, fabs, pi, sin, sqrt

BACKEND = "python"

__all__ = [
    "BACKEND",
    "rho",
    "rho_prime",
    "w_phi",
    "f_phi",
    "psi",
    "psi_forms",
    "psi_min",
    "rho_bisect",
    "integrate_callable",
    "moment_quad",
    "cumulant_quad",
]


# -- trig parametrization of the spectral density ---------------------------


def rho(p, phi):
    """x-coordinate of the density parametrization: sin(p phi)^p / (sin phi sin((p-1)phi)^(p-1)).

    Strictly decreasing on (0, pi/p) from p^p (p-1)^(1-p) down to 0.
    Callers guarantee p > 1 and 0 < phi < pi/p.
    """
    return sin(p * phi) ** p / (sin(phi) * sin((p - 1.0) * phi) ** (p - 1.0))


def rho_prime(p, phi):
    """Derivative of rho: rho * (p^2 cot(p phi) - cot(phi) - (p-1)^2 cot((p-1) phi))."""
    factor = (
        p * p * cos(p * phi) / sin(p * phi)
        - cos(phi) / sin(phi)
        - (p - 1.0) * (p - 1.0) * cos((p - 1.0) * phi) / sin((p - 1.0) * phi)
    )
    return rho(p, phi) * factor


def w_phi(p, r, phi):
    """Angle form of the component density W_{p,r} at x = rho(p, phi)."""
    return (
        sin((p - 1.0) * phi) ** (p - r - 1.0)
        * sin(phi)
        * sin(r * phi)
        / (pi * sin(p * phi) ** (p - r))
    )


def f_phi(p, t, phi):
    """Angle form of the mixed density t W_{p,1} + (1-t) W_{p,2} at x = rho(p, phi)."""
    s1 = sin((p - 1.0) * phi)
    return (
        sin(phi) ** 2
        * s1 ** (p - 3.0)
        * (t * s1 + 2.0 * (1.0 - t) * sin(p * phi) * cos(phi))
        / (pi * sin(p * phi) ** (p - 1.0))
    )


# -- the feasibility function on [0, pi] -------------------------------------


def psi(p, t, phi):
    """t sin((1 - 1/p) phi) + 2 (1 - t) sin(phi) cos(phi / p)."""
    return t * sin((1.0 - 1.0 / p) * phi) + 2.0 * (1.0 - t) * sin(phi) * cos(phi / p)


def psi_forms(p, t, phi):
    """The three algebraically equal writings of psi (agreement is a float check)."""
    a = t * sin((1.0 - 1.0 / p) * phi) + 2.0 * (1.0 - t) * sin(phi) * cos(phi / p)
    b = (2.0 - t) * sin(phi) * cos(phi / p) - t * cos(phi) * sin(phi / p)
    c = (1.0 - t) * sin((1.0 + 1.0 / p) * phi) + sin((1.0 - 1.0 / p) * phi)
    return (a, b, c)


_INVPHI = (sqrt(5.0) - 1.0) / 2.0


def _golden_psi(p, t, a, b, tol):
    """Golden-section minimum of psi(p, t, .) on [a, b] to width tol."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = psi(p, t, x1)
    f2 = psi(p, t, x2)
    while (b - a) > tol:
        if f1 <= f2:
            b = x2
            x2 = x1
            f2 = f1
            x1 = b - _INVPHI * (b - a)
            f1 = psi(p, t, x1)
        else:
            a = x1
            x1 = x2
            f1 = f2
            x2 = a + _INVPHI * (b - a)
            f2 = psi(p, t, x2)
    xm = 0.5 * (a + b)
    return xm, psi(p, t, xm)


# The trig table of the last p scanned: (p, grid) and, at phi_i = i pi / grid,
# the triples (sin((1 - 1/p) phi_i), sin phi_i, cos(phi_i / p)).  psi is
# affine in t, so the bisection for g(p) evaluates each grid point once.
_psi_grid = (None, ())


def _psi_scan(p, t, grid):
    """psi(p, t, i pi / grid) for i = 0..grid, grouped as psi groups it."""
    global _psi_grid
    if _psi_grid[0] != (p, grid):
        step = pi / grid
        table = []
        for i in range(grid + 1):
            phi = i * step
            table.append((sin((1.0 - 1.0 / p) * phi), sin(phi), cos(phi / p)))
        _psi_grid = ((p, grid), table)
    k = 2.0 * (1.0 - t)
    return [t * s1 + k * s * c for s1, s, c in _psi_grid[1]]


def psi_min(p, t, grid=512, tol=1e-12):
    """Global minimum of psi(p, t, .) over [0, pi].

    Dense grid scan followed by golden-section refinement of every bracketed
    local minimum (interior sign pattern v[i] <= v[i-1], v[i] <= v[i+1], plus
    the two edge cells).  Returns (value, argmin).
    """
    step = pi / grid
    vals = _psi_scan(p, t, grid)
    best_val = vals[0]
    best_phi = 0.0
    for i in range(1, grid + 1):
        if vals[i] < best_val:
            best_val = vals[i]
            best_phi = i * step
    for i in range(1, grid):
        if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]:
            xm, fm = _golden_psi(p, t, (i - 1) * step, (i + 1) * step, tol)
            if fm < best_val:
                best_val = fm
                best_phi = xm
    if vals[0] <= vals[1]:
        xm, fm = _golden_psi(p, t, 0.0, step, tol)
        if fm < best_val:
            best_val = fm
            best_phi = xm
    if vals[grid] <= vals[grid - 1]:
        xm, fm = _golden_psi(p, t, pi - step, pi, tol)
        if fm < best_val:
            best_val = fm
            best_phi = xm
    return best_val, best_phi


def rho_bisect(p, x, lo, hi, tol=1e-13):
    """Solve rho(p, phi) = x by bisection on a bracket with rho(lo) >= x >= rho(hi)."""
    while (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if rho(p, mid) >= x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- Gauss-Kronrod 7/15 adaptive quadrature ----------------------------------

_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_EPS = 2.220446049250313e-16


def _gk15_nodes(a, b):
    """Half width of [a, b] and its 15 Kronrod nodes: the centre, then c -+ h x_j."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    nodes = [c]
    for x in _XGK:
        dx = h * x
        nodes.append(c - dx)
        nodes.append(c + dx)
    return h, nodes


def _gk15_sum(h, fx):
    """Gauss 7 / Kronrod 15 sums of the values fx at _gk15_nodes: (kronrod, error, resabs)."""
    fc = fx[0]
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    resabs = _WGK[7] * fabs(fc)
    for j in range(7):
        f1 = fx[2 * j + 1]
        f2 = fx[2 * j + 2]
        kron += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (fabs(f1) + fabs(f2))
        if j & 1:
            gauss += _WG[(j - 1) // 2] * (f1 + f2)
    kron *= h
    gauss *= h
    resabs *= h
    d = fabs(kron - gauss)
    err = d
    # (200 d)^1.5 < d only when 200 d < 1; skipping it otherwise keeps the
    # power from overflowing once the integrand is huge.
    if 0.0 < 200.0 * d < 1.0:
        scaled = (200.0 * d) ** 1.5
        if scaled < err:
            err = scaled
    floor = 50.0 * _EPS * resabs
    if err < floor:
        err = floor
    return kron, err, resabs


def _gk15(f, a, b):
    """One 7-point Gauss / 15-point Kronrod panel of f: (kronrod, error, resabs)."""
    h, nodes = _gk15_nodes(a, b)
    return _gk15_sum(h, [f(x) for x in nodes])


def _adaptive(panel, a, b, atol, rtol, max_depth, init_panels):
    """Worst-panel-first refinement of panel(a, b) -> (value, error, resabs).

    Returns (value, error_estimate, converged).
    """
    panels = []  # [a, b, value, err, depth]
    width = (b - a) / init_panels
    for i in range(init_panels):
        pa = a + i * width
        pb = b if i == init_panels - 1 else a + (i + 1) * width
        v, e, _ = panel(pa, pb)
        panels.append([pa, pb, v, e, 0])
    max_panels = 4096
    while True:
        total = 0.0
        err = 0.0
        for row in panels:
            total += row[2]
            err += row[3]
        if err <= atol + rtol * fabs(total):
            return total, err, True
        worst = -1
        worst_err = -1.0
        for i, row in enumerate(panels):
            if row[4] < max_depth and row[3] > worst_err:
                worst = i
                worst_err = row[3]
        if worst < 0 or len(panels) >= max_panels:
            return total, err, False
        pa, pb, _, _, depth = panels[worst]
        mid = 0.5 * (pa + pb)
        v1, e1, _ = panel(pa, mid)
        v2, e2, _ = panel(mid, pb)
        panels[worst] = [pa, mid, v1, e1, depth + 1]
        panels.append([mid, pb, v2, e2, depth + 1])


def integrate_callable(f, a, b, atol=1e-10, rtol=1e-12, max_depth=20, init_panels=8):
    """Adaptive Gauss-Kronrod integral of a Python callable on [a, b]."""
    return _adaptive(partial(_gk15, f), a, b, atol, rtol, max_depth, init_panels)


_INSET = 1e-12


# The angle-space samples of the last (p, t) integrated: ((p, t), panels),
# where panels maps (a, b) to its half width and the triples
# (rho, f_phi, |rho'|) at its 15 nodes.  They do not depend on n, so every
# moment reuses them; one (p, t) is held at a time.  The moments-check runs of
# the benchmark (n <= 200) need under 30 panels per (p, t), but a quadrature
# that fails to converge splits into 4096, whose samples would take about
# 20 MB, so at most _KEPT_PANELS are kept.
_moment_nodes = (None, {})
_KEPT_PANELS = 256


def moment_quad(p, t, n, atol=1e-10, rtol=1e-12, max_depth=20):
    """n-th moment of the density of the (p, t) family, integrated in angle space.

    The x-space integral over (0, p^p (p-1)^(1-p)) becomes
    int_0^{pi/p} rho^n * f_phi * |rho'| dphi, whose integrand stays bounded at
    both endpoints.  Returns (value, error_estimate, converged).
    """
    global _moment_nodes
    if _moment_nodes[0] != (p, t):
        _moment_nodes = ((p, t), {})
    samples = _moment_nodes[1]

    def panel(a, b):
        hit = samples.get((a, b))
        if hit is None:
            h, nodes = _gk15_nodes(a, b)
            hit = (h, [(rho(p, x), f_phi(p, t, x), fabs(rho_prime(p, x))) for x in nodes])
            if len(samples) < _KEPT_PANELS:
                samples[(a, b)] = hit
        h, triples = hit
        return _gk15_sum(h, [r ** n * f * w for r, f, w in triples])

    value, err, converged = _adaptive(panel, _INSET, pi / p - _INSET, atol, rtol, max_depth, 8)
    # Two errors the panel estimates do not see; refinement ignores both.
    # rho multiplies about 2p sines, each good to half an ulp, so rho^n is off
    # by about n (p + 1) _EPS relative.  And the integral leaves out
    # (0, _INSET), where the integrand vanishes like phi^2, and
    # (pi/p - _INSET, pi/p), where it tends to rho^n t p^2 / pi with rho of
    # order _INSET / sin(pi/p): only n = 0 leaves mass worth counting there,
    # about _INSET t p^2 / pi, bounded by twice that.
    err += n * (p + 1.0) * _EPS * fabs(value)
    if n == 0:
        err += 2.0 * _INSET * fabs(t) * p * p / pi
    return value, err, converged


def cumulant_quad(case, t, n, atol=1e-10, rtol=1e-12, max_depth=20):
    """Moment integrals of the cumulant-side measures; returns (value, err, converged).

    case "p2":     x^n (1 - t x + x) sqrt(4 t (t-1) - (x - 2t + 1)^2) / (2 pi (t-1) x^3)
                   on [2t - 1 - 2 sqrt(t^2-t), 2t - 1 + 2 sqrt(t^2-t)]  (needs t > 1)
    case "p3":     x^n (t - x (t-1)^2) sqrt(4t - x) / (2 pi ((t-1) x + 1)^2 sqrt(x))
                   on [0, 4t], computed with x = u^2
    case "a220910": x^n sqrt((12 - x)^3) / (2 pi (x + 4)^2 sqrt(x)) on [0, 12],
                   computed with x = u^2
    case "a022558": x^n sqrt(x (8 - x)^3) / (2 pi (x + 1)^3) on [0, 8]
    """
    if case == "p2":
        half = 2.0 * sqrt(t * t - t)
        lo = 2.0 * t - 1.0 - half
        hi = 2.0 * t - 1.0 + half

        def g(x):
            rad = 4.0 * t * (t - 1.0) - (x - 2.0 * t + 1.0) ** 2
            return (
                x ** n
                * (1.0 - t * x + x)
                * sqrt(rad)
                / (2.0 * pi * (t - 1.0) * x * x * x)
            )

        return _adaptive(partial(_gk15, g), lo + _INSET, hi - _INSET, atol, rtol, max_depth, 8)
    if case == "p3":

        def g(u):
            x = u * u
            return (
                x ** n
                * (t - x * (t - 1.0) * (t - 1.0))
                * sqrt(4.0 * t - x)
                / (pi * ((t - 1.0) * x + 1.0) ** 2)
            )

        return _adaptive(partial(_gk15, g), 0.0, 2.0 * sqrt(t) - _INSET, atol, rtol, max_depth, 8)
    if case == "a220910":

        def g(u):
            x = u * u
            return x ** n * (12.0 - x) ** 1.5 / (pi * (x + 4.0) ** 2)

        return _adaptive(partial(_gk15, g), 0.0, 2.0 * sqrt(3.0) - _INSET, atol, rtol, max_depth, 8)
    if case == "a022558":

        def g(x):
            return x ** n * sqrt(x) * (8.0 - x) ** 1.5 / (2.0 * pi * (x + 1.0) ** 3)

        return _adaptive(partial(_gk15, g), _INSET, 8.0 - _INSET, atol, rtol, max_depth, 8)
    raise ValueError(f"unknown cumulant measure case {case!r}")
