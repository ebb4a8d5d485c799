"""Float kernels: trig parametrization, feasibility scans, quadrature.

Higher-level modules reach these through :mod:`fussdeform._backend`, which
binds this module as ``kernels``.

Only plain floats are used here.  Exact arithmetic lives elsewhere.

The settings no caller varies are module constants: psi_min scans psi at the _PSI_GRID + 1
points i pi / _PSI_GRID of [0, pi] and refines by golden section to width _PSI_TOL.  g_scan, all
of g(p), is 0 from p = 2 on with no scan; below 2 it scans psi and -B/A the same way from
i = floor(p _PSI_GRID / 2) - 2 on, the arc where psi can go negative, on samples of its p built
once, and reads psi's sign against -_FEAS_TOL (see g_scan); the refinement evaluates each point
afresh.  rho_bisect inverts rho by Newton's method on x (B - 1) = B^p, continued down the
points (see rho_bisect): at most _NEWTON_STEPS steps per attempt, a relative residual within
_NEWTON_TOL to accept a root, and at most _HALVINGS halvings of the continuation step; the
density at a root B is mass(t, B) / (pi x).  The adaptive quadrature starts from _INIT_PANELS
panels, halves a panel at most _MAX_DEPTH times and stops once its error estimate is within
_ATOL + _RTOL |value|.  moment_quad alone takes its absolute tolerance as an argument; it
integrates the moments 0..n_max of one (p, t) over (_INSET, pi/p - _INSET) in one call, which
samples each panel's nodes once for all of them, kept for at most _KEPT_PANELS panels.
cumulant_quad integrates every cumulant-side measure by one rule, in theta with
x = lo + (hi - lo) sin(theta)^2.  No kernel keeps a value from one call to the next.
"""

from functools import partial
from math import atan2, cos, exp, fabs, inf, log1p, pi, sin, sqrt

from .errors import InconsistencyError

_PSI_GRID = 512
_PSI_TOL = 1e-12
_FEAS_TOL = 1e-12
_NEWTON_TOL = 1e-12
_NEWTON_STEPS = 64
_HALVINGS = 30
_ATOL = 1e-10
_RTOL = 1e-12
_MAX_DEPTH = 20
_INIT_PANELS = 8

__all__ = [
    "support_end",
    "rho",
    "mass",
    "psi",
    "psi_forms",
    "psi_min",
    "g_scan",
    "rho_bisect",
    "integrate_callable",
    "moment_quad",
    "CUMULANT_MEASURES",
    "cumulant_quad",
]


# -- trig parametrization of the spectral density ---------------------------


def support_end(p):
    """c(p) = p^p (p-1)^(1-p): the limit of rho at phi = 0, the right end of the support.
    Where p^p overflows (from p = 144 on) it is p exp((p-1) log1p(1/(p-1))), which stays below
    e p: the exponent is about 1, and the rounding of 1/(p-1) moves it by an ulp or so, where
    p (p/(p-1))^(p-1) would multiply the rounding of p/(p-1) by p - 1."""
    try:
        return p**p * (p - 1.0) ** (1.0 - p)
    except OverflowError:
        return p * exp((p - 1.0) * log1p(1.0 / (p - 1.0)))


def rho(p, phi):
    """x-coordinate of the density parametrization: sin(p phi)^p / (sin phi sin((p-1)phi)^(p-1)),
    written r^p sin((p-1)phi) / sin(phi) with r = sin(p phi) / sin((p-1)phi).

    Strictly decreasing on (0, pi/p) from p^p (p-1)^(1-p) down to 0.
    Callers guarantee p > 1 and 0 < phi < pi/p.
    """
    sq = sin((p - 1.0) * phi)
    return (sin(p * phi) / sq) ** p * sq / sin(phi)


def mass(t, b):
    """Im(t b + (1-t) b^2), which is pi x f_{p,t}(x) at the root b of x (B - 1) = B^p."""
    return t * b.imag + (1.0 - t) * (b * b).imag


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


def _golden(f, a, b):
    """Golden-section minimum of f on [a, b] to width _PSI_TOL: (argmin, value)."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = f(x1)
    f2 = f(x2)
    while (b - a) > _PSI_TOL:
        if f1 <= f2:
            b = x2
            x2 = x1
            f2 = f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a = x1
            x1 = x2
            f1 = f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def _grid_min(f, vals, first):
    """Minimum of f over [0, pi] from vals[i] = f((first + i) pi / _PSI_GRID): (value, argmin).
    Golden section refines each cell bracketing a local minimum, one per flat run of equal
    values (the run's last point, where the values rise again); +inf marks a point without a
    value.  With first > 0 the caller knows f >= 0 left of the sample first + 1, and 0.0 at
    phi = 0 stands for that part: it is the value unless the scan finds one below it."""
    last = len(vals) - 1
    step = pi / _PSI_GRID
    best = min(range(last + 1), key=vals.__getitem__)
    best_val, best_phi = vals[best], (first + best) * step
    if first and not best_val < 0.0:
        best_val, best_phi = 0.0, 0.0
    brackets = [
        ((first + i - 1) * step, (first + i + 1) * step)
        for i in range(1, last)
        if vals[i] < inf and vals[i] <= vals[i - 1] and vals[i] < vals[i + 1]
    ]
    if not first and vals[0] < inf and vals[0] <= vals[1]:
        brackets.append((0.0, step))
    if vals[last] < inf and vals[last] <= vals[last - 1]:
        brackets.append((pi - step, pi))
    for a, b in brackets:
        xm, fm = _golden(f, a, b)
        if fm < best_val:
            best_val, best_phi = fm, xm
    return best_val, best_phi


def _psi_grid(p, first):
    """The grid samples psi is built from at p, which do not depend on t: the three lists
    sin((1 - 1/p) phi_i), sin(phi_i) and cos(phi_i / p) at phi_i = i pi / _PSI_GRID, from
    i = first to _PSI_GRID."""
    k = 1.0 - 1.0 / p
    step = pi / _PSI_GRID
    grid = range(first, _PSI_GRID + 1)
    return (
        [sin(k * (i * step)) for i in grid],
        [sin(i * step) for i in grid],
        [cos(i * step / p) for i in grid],
    )


def _psi_scan(p, t, samples, first):
    """Global minimum of psi(p, t, .) over [0, pi] from the _psi_grid samples of p from first
    on (see _grid_min): (value, argmin); psi is written inline on the samples and evaluated
    pointwise by the refinement."""
    vals = [t * a + 2.0 * (1.0 - t) * s * c for a, s, c in zip(*samples)]
    return _grid_min(partial(psi, p, t), vals, first)


def psi_min(p, t):
    """Global minimum of psi(p, t, .) over [0, pi], for any t, from every grid point: (value,
    argmin)."""
    return _psi_scan(p, t, _psi_grid(p, 0), 0)


def _t_bound(p, phi):
    """B/A where A > 0, else inf, with psi(p, t, phi) = t A + B; there psi >= 0 iff t >= -B/A."""
    b = 2.0 * sin(phi) * cos(phi / p)
    a = sin((1.0 - 1.0 / p) * phi) - b
    return b / a if a > 0.0 else inf


def g_scan(p):
    """g(p) and the least psi(p, g(p), .) over [0, pi]: (g, value), from one set of grid samples.
    Callers guarantee p >= 1.

    From p = 2 on, phi / p <= pi / 2 on [0, pi] makes psi(p, 0, .) >= 0, in floats too (float
    pi < pi), so (0.0, 0.0) needs no grid sample.  Below 2, g = 0 where the minimum of
    psi(p, 0, .) is >= -_FEAS_TOL; only that sign is read, so a grid sample under it decides it
    before any refinement, which could only lower the minimum.  Otherwise g is the sup of -B/A
    over A > 0 (see _t_bound), clamped to [0, 1], and value the minimum of psi at t = g, which
    must be >= -_FEAS_TOL (else InconsistencyError).  psi at t = 0 and _t_bound are written
    inline on the grid samples and evaluated pointwise by the refinement.

    The three scans read only the samples from first = floor(p _PSI_GRID / 2) - 2 on.  For t in
    [0, 1] and phi in [0, p pi / 2] each term of psi is >= 0, and so is B = 2 sin(phi)
    cos(phi / p), as phi / p <= pi / 2.  The grid samples left of first and the refinements of
    the cells up to first lie in [0, (first + 1) pi / _PSI_GRID], where the two cells of margin
    keep cos(phi / p) clear of 0 in floats, so each gives psi >= 0 and B/A >= 0 or inf.  None of
    them can take the minimum of psi below psi(p, t, 0) = 0.0, which _grid_min folds in, or give
    -B/A > 0, so g and value are the floats a scan of the whole grid gives."""
    if p >= 2.0:
        return 0.0, 0.0
    first = int(p * (_PSI_GRID // 2)) - 2
    sin_k, sin_1, cos_p = samples = _psi_grid(p, first)
    zero = [2.0 * s * c for s, c in zip(sin_1, cos_p)]  # psi(p, 0, .), which is B
    if min(zero) >= -_FEAS_TOL:
        value = _grid_min(partial(psi, p, 0.0), zero, first)[0]
        if value >= -_FEAS_TOL:
            return 0.0, value
    bounds = [b / (u - b) if u - b > 0.0 else inf for u, b in zip(sin_k, zero)]
    g = min(1.0, max(0.0, -_grid_min(partial(_t_bound, p), bounds, first)[0]))
    value = _psi_scan(p, g, samples, first)[0]
    if value < -_FEAS_TOL:
        raise InconsistencyError(f"g({p!r}) = {g!r}, yet the minimum of psi there is {value!r}")
    return g, value


def _newton(p, x, b):
    """Newton's method on h(B) = x (B - 1) - B^p (principal power) from b: the root it settles
    on, or None when it does not settle within _NEWTON_STEPS steps or leaves the float range.
    It stops after a step within 4 _EPS |B|, or before a step no shorter than the one before:
    where rounding sets a floor above 4 _EPS (next to the double root at x = c(p), or at p next
    to 1), the steps stop shrinking there.  rho_bisect checks whatever it returns."""
    last = inf
    try:
        for _ in range(_NEWTON_STEPS):
            power = b**p
            step = (x * (b - 1.0) - power) / (x - p * power / b)
            size = abs(step)
            if size >= last:
                return b
            b -= step
            if size <= 4.0 * _EPS * abs(b):
                return b
            last = size
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def rho_bisect(p, xs):
    """Solve x (B - 1) = B^p for each x of the increasing xs by Newton's method: the list of
    roots B, whose arguments phi in (0, pi/p) solve rho(p, phi) = x.  (The name predates the
    method; perfbench's tracer looks it up.)

    For 0 < x < c(p), x (B - 1) = B^p (principal power) has exactly one root B in the sector
    0 < arg B < pi/p, and rho(p, arg B) = x: with B = r e^(i phi), the imaginary part gives
    r^(p-1) = x sin(phi) / sin(p phi), the real part r sin((p-1) phi) = sin(p phi), and together
    x = rho(p, phi), which strictly decreases on (0, pi/p).  At x = c(p) the root is the double
    root p/(p-1).  The solve continues from there down the xs, largest first: Newton (see
    _newton) starts the first point at p/(p-1) + i sqrt(2 p (c - x) / (c (p-1)^3)), the root of
    the equation's expansion to second order about the double root, and each later point at
    the last accepted root.  A root is accepted only inside the sector and only when the
    residual |x (B - 1) - B^p| is within _NEWTON_TOL (x |B - 1| + |B|^p); this check, not an
    assumption on rho, is what makes each B the root.  A point that fails is approached
    again from halfway to the last accepted x, and one still lost after _HALVINGS halvings
    raises OverflowError naming p and x.
    """
    c = support_end(p)
    double = p / (p - 1.0)
    top = pi / p
    anchor, b = c, None  # the last accepted x and its root; None stands for the double root
    roots = []
    for x in reversed(xs):
        target, halvings = x, 0
        while True:
            if b is None:
                start = complex(double, sqrt(2.0 * p * (c - target) / c) / (p - 1.0) ** 1.5)
            else:
                start = b
            root = _newton(p, target, start)
            if (
                root is not None
                and 0.0 < atan2(root.imag, root.real) < top
                and abs(target * (root - 1.0) - root**p)
                <= _NEWTON_TOL * (target * abs(root - 1.0) + abs(root) ** p)
            ):
                anchor, b = target, root
                if target == x:
                    break
                target = x
            elif halvings == _HALVINGS:
                raise OverflowError(f"rho's inversion left the float range at p={p}, x={x}")
            else:
                halvings += 1
                target = 0.5 * (anchor + target)
        roots.append(b)
    return roots[::-1]


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


_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7 = _WGK
_G0, _G1, _G2, _G3 = _WG


def _gk15_sum(h, fx):
    """Gauss 7 / Kronrod 15 sums of the values fx at _gk15_nodes: (kronrod, error, resabs).

    Pair j holds the nodes c -+ h x_j; Gauss uses pairs 1, 3 and 5.  Each sum runs left to
    right and is scaled by h last."""
    fc, l0, r0, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6 = fx
    s1, s3, s5 = l1 + r1, l3 + r3, l5 + r5
    kron = (
        _K7 * fc + _K0 * (l0 + r0) + _K1 * s1 + _K2 * (l2 + r2) + _K3 * s3
        + _K4 * (l4 + r4) + _K5 * s5 + _K6 * (l6 + r6)
    ) * h
    gauss = (_G3 * fc + _G0 * s1 + _G1 * s3 + _G2 * s5) * h
    resabs = (
        _K7 * fabs(fc) + _K0 * (fabs(l0) + fabs(r0)) + _K1 * (fabs(l1) + fabs(r1))
        + _K2 * (fabs(l2) + fabs(r2)) + _K3 * (fabs(l3) + fabs(r3))
        + _K4 * (fabs(l4) + fabs(r4)) + _K5 * (fabs(l5) + fabs(r5))
        + _K6 * (fabs(l6) + fabs(r6))
    ) * h
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


def _adaptive(panel, a, b, atol):
    """Worst-panel-first refinement of panel(a, b) -> (value, error, resabs), from _INIT_PANELS
    panels, each halved at most _MAX_DEPTH times, until the error is within atol + _RTOL |value|.

    Returns (value, error_estimate, converged).
    """
    panels = []  # [a, b, value, err, depth]
    width = (b - a) / _INIT_PANELS
    for i in range(_INIT_PANELS):
        pa = a + i * width
        pb = b if i == _INIT_PANELS - 1 else a + (i + 1) * width
        v, e, _ = panel(pa, pb)
        panels.append([pa, pb, v, e, 0])
    max_panels = 4096
    while True:
        total = 0.0
        err = 0.0
        for row in panels:
            total += row[2]
            err += row[3]
        if err <= atol + _RTOL * fabs(total):
            return total, err, True
        worst = -1
        worst_err = -1.0
        for i, row in enumerate(panels):
            if row[4] < _MAX_DEPTH and row[3] > worst_err:
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


def integrate_callable(f, a, b):
    """Adaptive Gauss-Kronrod integral of a Python callable on [a, b]: (value, error, converged)."""
    return _adaptive(partial(_gk15, f), a, b, _ATOL)


_INSET = 1e-12


# A quadrature that fails to converge splits into 4096 panels, whose samples would take about
# 20 MB, so moment_quad keeps those of at most _KEPT_PANELS; the moments-check runs of the
# benchmark (n <= 200) need under 30 panels per (p, t).
_KEPT_PANELS = 256


def _node(p, t, phi):
    """x = rho(p, phi) and the weight f |dx/dphi| at one node phi of moment_quad: f is
    mass(t, B) / (pi x) at the root B = r e^(i phi), r = sin(p phi) / sin((p-1) phi), and
    |dx/dphi| = x |p^2 cot(p phi) - cot(phi) - (p-1)^2 cot((p-1) phi)|, so x cancels."""
    sp, sq = sin(p * phi), sin((p - 1.0) * phi)
    slope = p * p * cos(p * phi) / sp - cos(phi) / sin(phi)
    slope -= (p - 1.0) * (p - 1.0) * cos((p - 1.0) * phi) / sq
    r = sp / sq
    return rho(p, phi), mass(t, complex(r * cos(phi), r * sin(phi))) * fabs(slope) / pi


def moment_quad(p, t, n_max, atol=_ATOL):
    """The moments 0..n_max of the density of the (p, t) family, integrated in angle space: a
    list of (value, error_estimate, converged), one per n, that stops at the first n that does
    not converge.

    The x-space integral over (0, p^p (p-1)^(1-p)) becomes int_0^{pi/p} rho^n f |rho'| dphi,
    whose integrand stays bounded at both endpoints.  A panel's (x, weight) pairs at its 15
    nodes (see _node) do not depend on n, so each n reads the samples an earlier n took.  A
    float limit, such as rho^n overflowing at large n, raises OverflowError naming p, t and the
    n it reached.
    """
    samples = {}  # (a, b) -> (half width, the (x, weight) pairs at its nodes)

    def panel(n, a, b):
        hit = samples.get((a, b))
        if hit is None:
            h, nodes = _gk15_nodes(a, b)
            hit = (h, [_node(p, t, phi) for phi in nodes])
            if len(samples) < _KEPT_PANELS:
                samples[(a, b)] = hit
        h, pairs = hit
        return _gk15_sum(h, [x**n * w for x, w in pairs])

    table = []
    for n in range(n_max + 1):
        try:
            value, err, converged = _adaptive(partial(panel, n), _INSET, pi / p - _INSET, atol)
        except (ZeroDivisionError, OverflowError):
            raise OverflowError(
                f"moment quadrature left the float range at p={p}, t={t}, n={n}"
            ) from None
        # Two errors the panel estimates do not see; refinement ignores both.
        # rho raises a quotient of two sines, each good to half an ulp, to the
        # power p, so rho^n is off by about n (p + 1) _EPS relative.  And the
        # integral leaves out (0, _INSET), where the integrand vanishes like phi^2, and
        # (pi/p - _INSET, pi/p), where it tends to rho^n t p^2 / pi with rho of
        # order _INSET / sin(pi/p): only n = 0 leaves mass worth counting there,
        # about _INSET t p^2 / pi, bounded by twice that.
        err += n * (p + 1.0) * _EPS * fabs(value)
        if n == 0:
            err += 2.0 * _INSET * fabs(t) * p * p / pi
        table.append((value, err, converged))
        if not converged:
            break
    return table


# -- the cumulant-side measures ----------------------------------------------
#
# Their moments are the free cumulants of the (2, t) and (3, t) families and of
# two fixed sequences (which ignore t).  case -> (support(t) = (lo, hi),
# density(t, x)).


def _p2_support(t):
    half = 2.0 * sqrt(t * t - t)
    return 2.0 * t - 1.0 - half, 2.0 * t - 1.0 + half


def _p2_density(t, x):
    rad = 4.0 * t * (t - 1.0) - (x - 2.0 * t + 1.0) ** 2
    return (1.0 - t * x + x) * sqrt(rad) / (2.0 * pi * (t - 1.0) * x**3)


def _p3_density(t, x):
    den = 2.0 * pi * (t * x - x + 1.0) ** 2 * sqrt(x)
    return (t - x * (t - 1.0) ** 2) * sqrt(4.0 * t - x) / den


def _a220910_density(t, x):
    return sqrt((12.0 - x) ** 3) / (2.0 * pi * (x + 4.0) ** 2 * sqrt(x))


def _a022558_density(t, x):
    return sqrt(x * (8.0 - x) ** 3) / (2.0 * pi * (x + 1.0) ** 3)


CUMULANT_MEASURES = {
    "p2": (_p2_support, _p2_density),
    "p3": (lambda t: (0.0, 4.0 * t), _p3_density),
    "a220910": (lambda t: (0.0, 12.0), _a220910_density),
    "a022558": (lambda t: (0.0, 8.0), _a022558_density),
}


def cumulant_quad(case, t, n):
    """Integral of x^n against the CUMULANT_MEASURES case at t: (value, err, converged).

    Every case is integrated in theta over (0, pi/2), x = lo + (hi - lo) sin(theta)^2, where
    2 (hi - lo) sin(theta) cos(theta) x^n density(t, x) stays smooth at both ends: at each end
    of the support each density behaves as a half-integer power of the distance to it."""
    try:
        support, density = CUMULANT_MEASURES[case]
    except KeyError:
        raise ValueError(f"unknown cumulant measure case {case!r}") from None
    lo, hi = support(t)
    width = hi - lo

    def g(theta):
        s, c = sin(theta), cos(theta)
        x = lo + width * s * s
        return x**n * density(t, x) * 2.0 * width * s * c

    return integrate_callable(g, 0.0, 0.5 * pi)
