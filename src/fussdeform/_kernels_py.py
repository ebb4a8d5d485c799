"""Float kernels: trig parametrization, feasibility scans, quadrature.

Higher-level modules reach these through :mod:`fussdeform._backend`, which
binds this module as ``kernels``.

Only plain floats are used here.  Exact arithmetic lives elsewhere.

The settings no caller varies are module constants: psi_min scans psi at the _PSI_GRID + 1
points i pi / _PSI_GRID of [0, pi] and refines by golden section to width _PSI_TOL.  g_scan, all
of g(p), is 0 from p = 2 on with no scan; below 2 it scans psi and -B/A the same way from
i = floor(p _PSI_GRID / 2) - 2 on, the arc where psi can go negative, on samples of its p built
once, and reads psi's sign against -_FEAS_TOL (see g_scan); the refinement evaluates each point
afresh.  rho_bisect scans rho at _SCAN_POINTS or more points and bisects a scan cell to width
_RHO_TOL (see rho_bisect), a dyadic one down to leaves _LEAF = 2^-44 within _RHO_TOL.  The adaptive
quadrature starts from _INIT_PANELS panels, halves a panel at most _MAX_DEPTH times and stops
once its error estimate is within _ATOL + _RTOL |value|.
moment_quad alone takes its absolute tolerance as an argument; it integrates the moments
0..n_max of one (p, t) in one call, which samples each panel's nodes once for all of them.
cumulant_quad integrates every cumulant-side measure by one rule, in theta with
x = lo + (hi - lo) sin(theta)^2.  No kernel keeps a value from one call to the next.
"""

from bisect import bisect_left
from functools import partial
from math import ceil, cos, fabs, frexp, inf, ldexp, log, pi, sin, sqrt, tan
from operator import neg
from sys import float_info

from .errors import BracketingError, InconsistencyError

_PSI_GRID = 512
_PSI_TOL = 1e-12
_FEAS_TOL = 1e-12
_RHO_TOL = 1e-13
_SCAN_POINTS = 64
_ATOL = 1e-10
_RTOL = 1e-12
_MAX_DEPTH = 20
_INIT_PANELS = 8

__all__ = [
    "support_end",
    "rho",
    "rho_prime",
    "f_phi",
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
    Where p^p overflows (from p = 144 on) it is p (p / (p-1))^(p-1), which stays below e p."""
    try:
        return p**p * (p - 1.0) ** (1.0 - p)
    except OverflowError:
        return p * (p / (p - 1.0)) ** (p - 1.0)


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


def _cell_eta(p, lo, hi):
    """The margin eta by which rho must clear x at the ends of a window in [lo, hi] to prove
    it (see _rho_window), or None where no window can be proven.  It depends only on the cell.
    """
    width = hi - lo
    # End cells get no window: near 0 the three cotangents of the slope in _rho_window cancel
    # (each is about 1/phi, their sum is O(phi)), and near pi/p the sines lose their relative
    # accuracy.
    if not (1.0 < p and 0.0 < 0.5 * width <= lo and p * (hi + 0.5 * width) < pi):
        return None
    # Float error of rho = sin(p phi)^p / (sin(phi) sin(q phi)^q) on the cell, q = p - 1.0
    # (exact for 1 < p < 2^53), in units of u = _EPS / 2, the relative error of a correctly
    # rounded operation.  p phi and q phi round by u, and sin turns an argument error into a
    # relative one by its condition number |v cot v| <= v / sin v, which grows on (0, pi), so
    # its value at hi bounds the cell; sin and pow are good to one ulp (2 u), the product and
    # quotient to u.  To first order, |float rho / rho - 1| <= e with
    #     e = u (p (k_p + 2) + q (k_q + 2) + 8),  k_p = p hi / sin(p hi),  k_q = q hi / sin(q hi).
    # The bound needs every intermediate to be a normal float, so sin(p phi)^p and
    # sin(phi) sin(q phi)^q stay above 1e-300 (each sine is least at an end of the cell, as sin
    # is concave on (0, pi)), and e small enough that its square does not count.
    q = p - 1.0
    s_p, s_q = sin(p * hi), sin(q * hi)
    if not (
        min(sin(p * lo), s_p) ** p > 1e-300
        and min(sin(lo), sin(hi)) * min(sin(q * lo), s_q) ** q > 1e-300
    ):
        return None
    e = 0.5 * _EPS * (p * (p * hi / s_p + 2.0) + q * (q * hi / s_q + 2.0) + 8.0)
    # For phi <= a in the cell, float rho(phi) >= rho(phi) (1 - e) >= rho(a) (1 - e) (rho
    # decreases) >= float rho(a) (1 - e) / (1 + e), which is >= x once float rho(a) >= x (1 + eta)
    # with eta >= 2 e / (1 - e); likewise at b.  eta = 4 e is twice that, which also covers
    # the rounding of x (1 +- eta).
    eta = 4.0 * e
    return eta if eta < 1e-3 else None


def _rho_window(p, x, lx, lo, hi, eta, start):
    """A window [a, b] of [lo, hi] with rho(p, phi) >= x proven for every float phi in [lo, a]
    and rho(p, phi) < x for every one in [b, hi], and the slope and curve of log rho at the
    last Newton iterate: (a, b, slope, curve); (lo, hi, None, None) when none is proven.

    lx is log x (None when x <= 0) and eta is _cell_eta(p, lo, hi).  Newton in log rho from
    start in the cell predicts the root, and one evaluation at each end of the window proves it.
    """
    if eta is None or lx is None:
        return lo, hi, None, None
    # log rho is concave in phi (its second derivative, with csc^2 = 1 + cot^2 the negative of
    # curve below, is negative wherever sampled for p from 1.001 to 300), so from any start,
    # the cell midpoint or one predicted from a neighbouring root, one Newton step lands right
    # of the root, and from there the steps go left and do not pass it; a step past hi
    # restarts at hi.  miss (in log rho) is four times the error C s^2 that the last step s
    # leaves, C = |l''| / (2 |l'|).  Where concavity failed, the check at a and b would reject
    # the window.
    q = p - 1.0
    pp, qq = p * p, q * q
    phi = start
    for _ in range(8):
        cp, c1, cq = 1.0 / tan(p * phi), 1.0 / tan(phi), 1.0 / tan(q * phi)
        slope = pp * cp - c1 - qq * cq
        if not slope < 0.0:
            return lo, hi, None, None
        step = (log(rho(p, phi)) - lx) / slope
        phi -= step
        if phi > hi:
            phi = hi
        elif not phi > lo:
            return lo, hi, None, None
        curve = pp * p * (1.0 + cp * cp) - 1.0 - c1 * c1 - qq * q * (1.0 + cq * cq)
        miss = 2.0 * step * step * fabs(curve)
        if miss <= eta:
            break
    else:
        return lo, hi, None, None
    # In log rho the window reaches eta past the root for the check, e for the rounding of rho,
    # and eta / 4 to spare, beyond what Newton may miss.
    half = (1.5 * eta + miss) / -slope
    a, b = phi - half, phi + half
    if lo <= a and b <= hi and rho(p, a) >= x * (1.0 + eta) and rho(p, b) < x * (1.0 - eta):
        return a, b, slope, curve
    return lo, hi, None, None


# Bisection of a dyadic bracket (see _bisect) halves it down to leaves of width _LEAF, the
# largest power of two within _RHO_TOL, so each midpoint on the way is a multiple of _LEAF.
_LEAF = 2.0**-44


def _bisect(p, x, lo, hi, a, b):
    """Bisection of [lo, hi] to width _RHO_TOL for rho(p, phi) = x that evaluates rho only at
    the midpoints inside the window (a, b) and decides one outside it by its position, as rho
    would decide it.

    A dyadic bracket in (0, pi) (a power-of-two width of at least _LEAF, a left end that is a
    multiple of it) has exact midpoints, and its bisection passes through each dyadic interval
    that holds [a, b]; the loop starts from the smallest one that holds the leaves of a and b,
    read off their indices, so the midpoints it skips are all <= a or >= b, and the result is
    the same float."""
    width = hi - lo  # exact once lo is 0 or a multiple of it (Sterbenz)
    if _LEAF <= width and hi < pi and frexp(width)[0] == 0.5 and lo % width == 0.0:
        ia, ib = int(a / _LEAF), int(b / _LEAF)
        level = (ia ^ ib).bit_length()
        node = ldexp(_LEAF, level)
        if node < width:
            lo = (ia >> level << level) * _LEAF
            hi = lo + node
    while (hi - lo) > _RHO_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= a or (mid < b and rho(p, mid) >= x):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _rho_scan(p):
    """The scan of rho_bisect (see there): (ends, vals), the ends of its cells, end cells
    included, and rho at its points."""
    top = pi / p
    h = ldexp(1.0, frexp(top / (_SCAN_POINTS + 1))[1] - 1)
    if (_SCAN_POINTS + 1) * h >= top:
        h *= 0.5
    phis = [i * h for i in range(1, ceil(top / h) - 1)]
    vals = [rho(p, phi) for phi in phis]
    chain = [support_end(p)] + vals + [0.0]
    if not all(a > b for a, b in zip(chain, chain[1:])):
        raise BracketingError(f"rho(p={p}, .) is not strictly decreasing on the scan grid")
    return [top * 1e-12] + phis + [top - top * 1e-12], vals


def rho_bisect(p, xs):
    """Solve rho(p, phi) = x for each x of the increasing xs by bisection: the list of roots.

    A scan of rho turns the assumption that rho decreases into a runtime check and gives each x
    its bracket.  It samples rho at h, 2h, ..., K h for the largest power of two h that leaves
    K >= _SCAN_POINTS with (K + 1) h < pi/p, and raises BracketingError unless c(p), those
    values and 0 strictly decrease.  Each interior cell (i h, (i + 1) h) is then a dyadic
    interval, a power-of-two width and a left end that is a multiple of it, so each bisection
    midpoint in it is exact.  The bracket of x is the first interior cell that holds it, or an
    end cell: (pi/p 1e-12, h) above the first value, (K h, pi/p (1 - 1e-12)) below the last.

    Each root is the float plain bisection of its bracket returns, but rho is evaluated only at
    the midpoints inside the window of _rho_window, and in a dyadic cell the loop starts from
    the smallest dyadic interval that holds the window (see _bisect); with no window (a, b) =
    (lo, hi), which is plain bisection.  eta is computed once per cell.  Newton starts from a
    second-order prediction off the previous root: d = dlog x / slope, then
    d += curve d^2 / (2 slope), with the slope l' and curve -l'' of l = log rho at that root's
    last Newton iterate; it starts at the cell midpoint when there is none (as for the first
    x) or the prediction leaves the cell.  Each root still comes from a window whose two ends
    rho has proven.  log x is computed once per point.  A root found without a window at which
    rho's denominator sin(phi) sin((p - 1) phi)^(p - 1) is below the normal floats (next to
    c(p) at large p) raises ZeroDivisionError: rho there has lost its relative accuracy.
    """
    ends, vals = _rho_scan(p)
    roots = []
    cell = slope = None
    q = p - 1.0
    for x in xs:
        # cell i is (ends[i], ends[i + 1]); as vals decreases, the first interior cell with
        # vals[i - 1] >= x >= vals[i] is i = the count of values above x, or 1 when x is vals[0]
        i = 0 if x > vals[0] else max(bisect_left(vals, -x, key=neg), 1)
        lo, hi = ends[i], ends[i + 1]
        if i != cell:
            cell, eta = i, _cell_eta(p, lo, hi)
        lx = log(x) if 0.0 < x else None
        start = 0.5 * (lo + hi)
        if slope is not None:
            d = (lx - last_lx) / slope
            d += curve * d * d / (2.0 * slope)
            if lo < root + d < hi:
                start = root + d
        a, b, slope, curve = _rho_window(p, x, lx, lo, hi, eta, start)
        root = _bisect(p, x, lo, hi, a, b)
        if slope is None and sin(root) * sin(q * root) ** q < float_info.min:
            raise ZeroDivisionError(f"rho's denominator underflows at p={p}, phi={root}")
        roots.append(root)
        last_lx = lx
    return roots


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


def moment_quad(p, t, n_max, atol=_ATOL):
    """The moments 0..n_max of the density of the (p, t) family, integrated in angle space: a
    list of (value, error_estimate, converged), one per n, that stops at the first n that does
    not converge.

    The x-space integral over (0, p^p (p-1)^(1-p)) becomes int_0^{pi/p} rho^n * f_phi * |rho'|
    dphi, whose integrand stays bounded at both endpoints.  A panel's (rho, f_phi, |rho'|) at its
    15 nodes do not depend on n, so each n reads the samples an earlier n took.  A float limit,
    f_phi's denominator underflowing to 0 at large p or rho^n overflowing at large n, raises
    OverflowError naming p, t and the n it reached.
    """
    samples = {}  # (a, b) -> (half width, the triples at its nodes)

    def panel(n, a, b):
        hit = samples.get((a, b))
        if hit is None:
            h, nodes = _gk15_nodes(a, b)
            hit = (h, [(rho(p, x), f_phi(p, t, x), fabs(rho_prime(p, x))) for x in nodes])
            if len(samples) < _KEPT_PANELS:
                samples[(a, b)] = hit
        h, triples = hit
        return _gk15_sum(h, [r ** n * f * w for r, f, w in triples])

    table = []
    for n in range(n_max + 1):
        try:
            value, err, converged = _adaptive(partial(panel, n), _INSET, pi / p - _INSET, atol)
        except (ZeroDivisionError, OverflowError):
            raise OverflowError(
                f"moment quadrature left the float range at p={p}, t={t}, n={n}"
            ) from None
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
