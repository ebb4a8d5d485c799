"""Float kernels: trig parametrization, feasibility scans, quadrature.

Higher-level modules reach these through :mod:`fussdeform._backend`, which
binds this module as ``kernels``.

Only plain floats are used here.  Exact arithmetic lives elsewhere.

No kernel keeps a value from one call to the next.  The settings no caller varies are these
module constants:

* _PSI_GRID, _PSI_TOL: _psi_scan evaluates psi itself at the points i pi / _PSI_GRID, from
  i = 0 for psi_min and from i = floor(p _PSI_GRID / 2) - 2 for g_scan's check, and refines
  by golden section to width _PSI_TOL; g_scan's search runs to the same width (see g_scan).
* _FEAS_TOL: the least psi at t = g(p) that g_scan's check accepts.
* _NEWTON_STEPS, _NEWTON_TOL, _HALVINGS, _EDGE: rho_bisect's steps per Newton attempt,
  relative residual to accept a root, halvings of the continuation step, and the relative
  distance from the sector's edge pi/p within which a root's argument is left to rounding.
  Newton starts each point from the quadratic through the last three roots, or from the last
  root until three are known, after a halving and after a root within _EDGE of the edge, and
  returns with each root the iterate it stepped from and that iterate's power B^p, which the
  residual check reads (see rho_bisect and _newton): one complex power per Newton step and
  none besides.
* _INIT_PANELS, _MAX_DEPTH, _MAX_PANELS, _ATOL, _RTOL: the adaptive Gauss-Kronrod quadrature
  starts from _INIT_PANELS panels, halves one at most _MAX_DEPTH times, holds at most
  _MAX_PANELS and stops at an error within _ATOL + _RTOL |value|; moment_quad alone takes its
  absolute tolerance as an argument.
* _RETIRE: moment_quad integrates the moments 0..n_max of one (p, t) over (0, pi/p), moment
  n starting from the partition moment n - 1 ended with, so _MAX_PANELS bounds that partition
  too; each panel samples its nodes once for all the n.  A panel whose sums fall to _RETIRE =
  _EPS _RTOL of a converged moment, below the rounding of the tolerance, retires from the sums
  and leaves a bound in the error estimate instead (see moment_quad); _RETIRE is derived from
  the two constants, not set on its own.

Both quadratures build each panel with _moment_panel from a node function u -> (x, w) and sum
it with _moment_sums; integrate_callable is moment 0 of the weight f, u -> (1, f(u)).
cumulant_quad integrates every cumulant-side measure of CUMULANT_MEASURES, which verify's c9
also reads pointwise, by integrate_callable, in theta with x = lo + (hi - lo) sin(theta)^2.
"""

from functools import partial
from math import atan2, cos, exp, fabs, inf, isfinite, log1p, pi, sin, sqrt
from operator import mul

from .errors import InconsistencyError

_PSI_GRID = 512
_PSI_TOL = 1e-12
_FEAS_TOL = 1e-12
_NEWTON_TOL = 1e-12
_NEWTON_STEPS = 64
_HALVINGS = 30
_EDGE = 1e-12
_ATOL = 1e-10
_RTOL = 1e-12
_MAX_DEPTH = 20
_INIT_PANELS = 8
_MAX_PANELS = 256

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
    a = psi(p, t, phi)
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


def _psi_scan(p, t, first):
    """Minimum of psi(p, t, .) over [0, pi] from its samples at i pi / _PSI_GRID, i = first to
    _PSI_GRID: (value, argmin).  Golden section refines each cell bracketing a local minimum, one
    per flat run of equal values (the run's last point, where the values rise again).  With
    first > 0 the caller knows psi >= 0 left of the sample first + 1, and 0.0 at phi = 0 stands
    for that part: it is the value unless the scan finds one below it.  A minimum that is not
    finite (2 (1 - t) overflows from |t| near 1e308 on) is a float limit: OverflowError naming p
    and t."""
    f = partial(psi, p, t)
    step = pi / _PSI_GRID
    vals = [f(i * step) for i in range(first, _PSI_GRID + 1)]
    last = len(vals) - 1
    best = min(range(last + 1), key=vals.__getitem__)
    best_val, best_phi = vals[best], (first + best) * step
    if first and not best_val < 0.0:
        best_val, best_phi = 0.0, 0.0
    brackets = [
        ((first + i - 1) * step, (first + i + 1) * step)
        for i in range(1, last)
        if vals[i] <= vals[i - 1] and vals[i] < vals[i + 1]
    ]
    if not first and vals[0] <= vals[1]:
        brackets.append((0.0, step))
    if vals[last] <= vals[last - 1]:
        brackets.append((pi - step, pi))
    for a, b in brackets:
        xm, fm = _golden(f, a, b)
        if fm < best_val:
            best_val, best_phi = fm, xm
    if not isfinite(best_val):
        raise OverflowError(f"the minimum of psi left the float range at p={p}, t={t}")
    return best_val, best_phi


def psi_min(p, t):
    """Global minimum of psi(p, t, .) over [0, pi], for any t, from every grid point (see
    _psi_scan): (value, argmin)."""
    return _psi_scan(p, t, 0)


def _t_bound(p, phi):
    """B/A, with psi(p, t, phi) = t A + B: where A > 0, psi >= 0 iff t >= -B/A.  On the open arc
    (p pi / 2, pi) of a p in [1, 2), A = sin((1 - 1/p) phi) - 2 sin(phi) cos(phi / p) > 0, as
    cos(phi / p) < 0 there and 0 <= (1 - 1/p) phi < pi / 2."""
    b = 2.0 * sin(phi) * cos(phi / p)
    return b / (sin((1.0 - 1.0 / p) * phi) - b)


def g_scan(p):
    """g(p) and the least psi(p, g(p), .) over [0, pi]: (g, value).  Callers guarantee p >= 1.

    From p = 2 on, phi / p <= pi / 2 on [0, pi] makes psi(p, 0, .) >= 0, in floats too (float
    pi < pi), so (0.0, 0.0) needs no search.  Below 2, psi can go negative only on the arc
    (p pi / 2, pi), where Re B < 0 on the root curve (see posdef) and A > 0 (see _t_bound).  g
    is the sup of -B/A there, clamped to [0, 1]: the negated minimum of B/A that one golden-
    section search finds on [p pi / 2, pi].  -B/A had one maximum on the arc at every p
    measured; value, the minimum of psi at t = g, must be >= -_FEAS_TOL (else
    InconsistencyError), so a search settled on a lower maximum cannot pass unseen.

    The check is _psi_scan from first = floor(p _PSI_GRID / 2) - 2 on.  For t in [0, 1] each
    term of psi is >= 0 on [0, p pi / 2], and the samples and refinements left of first lie in
    [0, (first + 1) pi / _PSI_GRID], where the two cells of margin keep cos(phi / p) clear of 0
    in floats.  None of them can take the minimum below psi(p, t, 0) = 0.0, which _psi_scan
    folds in, so value is psi_min's float."""
    if p >= 2.0:
        return 0.0, 0.0
    g = min(1.0, max(0.0, -_golden(partial(_t_bound, p), p * pi / 2.0, pi)[1]))
    first = int(p * (_PSI_GRID // 2)) - 2
    value = _psi_scan(p, g, first)[0]
    if value < -_FEAS_TOL:
        raise InconsistencyError(f"g({p!r}) = {g!r}, yet the minimum of psi there is {value!r}")
    return g, value


def _newton(p, x, b):
    """Newton's method on h(B) = x (B - 1) - B^p (principal power) from b: (checked, power,
    root), or None when it does not settle within _NEWTON_STEPS steps or leaves the float
    range.  It stops after a step within 4 _EPS |B|, or before a step no shorter than the one
    before: where rounding sets a floor above 4 _EPS (next to the double root at x = c(p), or
    at p next to 1), the steps stop shrinking there.  root is where it stops; checked is the
    last iterate whose power it computed, and power is that B^p: checked is the iterate that
    root stepped from, or root itself where it stops before a step.  rho_bisect checks the
    residual of checked with power, so it takes no power of its own."""
    last = inf
    try:
        for _ in range(_NEWTON_STEPS):
            power = b**p
            step = (x * (b - 1.0) - power) / (x - p * power / b)
            size = abs(step)
            if size >= last:
                return b, power, b
            root = b - step
            if size <= 4.0 * _EPS * abs(root):
                return b, power, root
            b = root
            last = size
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def rho_bisect(p, xs):
    """Solve x (B - 1) = B^p for each x of the increasing xs by Newton's method: the list of
    pairs (B, phi), the root B and its argument phi in (0, pi/p), which solves rho(p, phi) = x.
    (The name predates the method; perfbench's tracer looks it up.)

    For 0 < x < c(p), x (B - 1) = B^p (principal power) has exactly one root B in the sector
    0 < arg B < pi/p, and rho(p, arg B) = x: with B = r e^(i phi), the imaginary part gives
    r^(p-1) = x sin(phi) / sin(p phi), the real part r sin((p-1) phi) = sin(p phi), and together
    x = rho(p, phi), which strictly decreases on (0, pi/p).  At x = c(p) the root is the double
    root p/(p-1).  The solve continues from there down the xs, largest first: Newton (see
    _newton) starts the first point at p/(p-1) + i sqrt(2 p (c - x) / (c (p-1)^3)), the root of
    the equation's expansion to second order about the double root, and each later point at
    3 (b1 - b2) + b3, the quadratic through the last three accepted roots b1, b2, b3 (off by a
    term of third order in the step on an even grid), or at the last accepted root b1 until
    three roots are known, counting afresh after a halving and after a root whose argument is
    within _EDGE pi/p of pi/p.  There (p within about 1e-12 of 1) the last bits of arg B are
    rounding and decide the sector check, and the last root as the start keeps the floats of
    the plain continuation: a start extrapolated from such roots let four points of a 7-point
    grid at p = 1 + 2^-52 pass one float below pi/p, with equal phi, where the plain
    continuation rounds them to pi/p and fails them.  A root is accepted only inside the
    sector and only when the residual |x (B - 1) - B^p| of the iterate it stepped from is
    within _NEWTON_TOL (x |B - 1| + |B^p|), with the B^p that _newton computed there; this
    check, not an assumption on rho or on the start, is what makes each B the root, and the
    root is at most Newton's last step, 4 _EPS |B|, from the iterate checked.  An x equal to the
    last accepted x takes that checked root again: Newton restarted at a root next to the
    double root can step out of the sector on rounding alone.  A point that fails is approached
    again from halfway to the last accepted x, and one still lost after _HALVINGS halvings
    raises OverflowError naming p and x.
    """
    c = support_end(p)
    double = p / (p - 1.0)
    top = pi / p
    anchor, b = c, None  # the last accepted x and its root; None stands for the double root
    b2 = b3 = None  # the two roots accepted before b since a restart of the count, if two
    roots = []
    for x in reversed(xs):
        if x == anchor and roots:
            roots.append(roots[-1])
            continue
        target, halvings = x, 0
        while True:
            if b is None:
                start = complex(double, sqrt(2.0 * p * (c - target) / c) / (p - 1.0) ** 1.5)
            elif b3 is None:
                start = b
            else:
                start = 3.0 * (b - b2) + b3
            found = _newton(p, target, start)
            if found is not None:
                checked, power, root = found
                phi = atan2(root.imag, root.real)
                if 0.0 < phi < top and abs(target * (checked - 1.0) - power) <= _NEWTON_TOL * (
                    target * abs(checked - 1.0) + abs(power)
                ):
                    anchor, b, b2, b3 = target, root, b, b2
                    if top - phi < _EDGE * top:
                        b2 = b3 = None
                    if target == x:
                        break
                    target = x
                    continue
            if halvings == _HALVINGS:
                raise OverflowError(f"rho's inversion left the float range at p={p}, x={x}")
            halvings += 1
            target = 0.5 * (anchor + target)
            b2 = b3 = None
        roots.append((b, phi))
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


_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7 = _WGK
_G0, _G1, _G2, _G3 = _WG


# The Kronrod and Gauss weights of the 15 nodes in _moment_panel's order; Gauss leaves out the
# pairs 0, 2, 4 and 6.
_KRONROD15 = (_K7, _K0, _K0, _K1, _K1, _K2, _K2, _K3, _K3, _K4, _K4, _K5, _K5, _K6, _K6)
_GAUSS15 = (_G3, 0.0, 0.0, _G0, _G0, 0.0, 0.0, _G1, _G1, 0.0, 0.0, _G2, _G2, 0.0, 0.0)


def _kronrod_sum(w, x):
    """The sum of w_i x_i over the 15 nodes, added left to right.  It is written out, not
    sum(), so that it gives the same float on every Python: from 3.12 on, sum() of floats
    compensates its rounding."""
    w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14 = w
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14 = x
    return (
        w0 * x0 + w1 * x1 + w2 * x2 + w3 * x3 + w4 * x4 + w5 * x5 + w6 * x6 + w7 * x7
        + w8 * x8 + w9 * x9 + w10 * x10 + w11 * x11 + w12 * x12 + w13 * x13 + w14 * x14
    )


def _gauss_sum(g, x):
    """The sum of g_i x_i over the 7 Gauss nodes (the centre and pairs 1, 3 and 5) of the 15,
    added left to right as _kronrod_sum does; the other nodes, of Gauss weight 0, are left out."""
    g0, _, _, g3, g4, _, _, g7, g8, _, _, g11, g12, _, _ = g
    x0, _, _, x3, x4, _, _, x7, x8, _, _, x11, x12, _, _ = x
    return g0 * x0 + g3 * x3 + g4 * x4 + g7 * x7 + g8 * x8 + g11 * x11 + g12 * x12


def _gk_error(kron, gauss, resabs):
    """QUADPACK's error estimate of one panel from its Kronrod and Gauss sums and resabs, the
    Kronrod sum of |f|: |kron - gauss|, lowered to (200 |kron - gauss|)^1.5 where that is less,
    and raised to 50 _EPS resabs, the rounding of the sums."""
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
    return err


# The slots of a panel's row, which _moment_panel builds for both quadratures: its Kronrod value
# and error estimate, how often it was halved and its ends, which _adaptive reads, then six that
# _moment_sums reads and sets (see _moment_panel).
_VALUE, _ERR, _DEPTH, _A, _B = range(5)
_RESABS, _XS, _KRONROD, _GAUSS, _ABSOLUTE, _POWERS = range(5, 11)


def _first_panels(panel, a, b):
    """The _INIT_PANELS equal panels of [a, b], each evaluated by panel(a, b, depth) at depth 0."""
    width = (b - a) / _INIT_PANELS
    return [
        panel(a + i * width, b if i == _INIT_PANELS - 1 else a + (i + 1) * width, 0)
        for i in range(_INIT_PANELS)
    ]


def _adaptive(panel, panels, atol, held=0):
    """Worst-panel-first refinement of panels, a list of rows (see _VALUE) that it refines in
    place: the worst panel is halved, panel(a, b, depth) evaluating each half, until the error
    is within atol + _RTOL |value|.  A panel is halved at most _MAX_DEPTH times, and the list
    holds at most _MAX_PANELS less held, the count of the partition's panels kept elsewhere
    (moment_quad's retired panels).

    Returns (value, error_estimate, converged).
    """
    while True:
        total = 0.0
        err = 0.0
        for row in panels:
            total += row[_VALUE]
            err += row[_ERR]
        if err <= atol + _RTOL * fabs(total):
            return total, err, True
        worst = -1
        worst_err = -1.0
        for i, row in enumerate(panels):
            if row[_DEPTH] < _MAX_DEPTH and row[_ERR] > worst_err:
                worst = i
                worst_err = row[_ERR]
        if worst < 0 or len(panels) + held >= _MAX_PANELS:
            return total, err, False
        row = panels[worst]
        depth, pa, pb = row[_DEPTH], row[_A], row[_B]
        mid = 0.5 * (pa + pb)
        panels[worst] = panel(pa, mid, depth + 1)
        panels.append(panel(mid, pb, depth + 1))


_RETIRE = _EPS * _RTOL


def _node(p, t, phi):
    """x = rho(p, phi) and the weight f |dx/dphi| at one node phi of moment_quad: f is
    mass(t, B) / (pi x) at the root B = r e^(i phi), r = sin(p phi) / sin((p-1) phi), and
    |dx/dphi| = x |p^2 cot(p phi) - cot(phi) - (p-1)^2 cot((p-1) phi)|, so x cancels."""
    sp, sq = sin(p * phi), sin((p - 1.0) * phi)
    slope = p * p * cos(p * phi) / sp - cos(phi) / sin(phi)
    slope -= (p - 1.0) * (p - 1.0) * cos((p - 1.0) * phi) / sq
    r = sp / sq
    return rho(p, phi), mass(t, complex(r * cos(phi), r * sin(phi))) * fabs(slope) / pi


def _moment_sums(row):
    """Set a panel's value, error and resabs from its weights and its powers x^n.  The powers
    are >= 0, so where every Kronrod weight is too, resabs is the Kronrod sum itself.  A sum
    that leaves the float range raises OverflowError."""
    powers, absolute = row[_POWERS], row[_ABSOLUTE]
    value = _kronrod_sum(row[_KRONROD], powers)
    resabs = value if absolute is None else _kronrod_sum(absolute, powers)
    err = _gk_error(value, _gauss_sum(row[_GAUSS], powers), resabs)
    if not isfinite(err):
        raise OverflowError("a panel sum left the float range")
    row[_VALUE], row[_ERR], row[_RESABS] = value, err, resabs


def _moment_panel(node, n, a, b, depth):
    """The row of the panel [a, b] at moment n of the weight that node gives: the slots of every
    row (see _VALUE), then resabs and, per Kronrod node u (the centre c, then c -+ h x_j), x and
    the Kronrod and Gauss weights times w h, where (x, w) = node(u), |the Kronrod weight| or
    None where none is negative, and x^n."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    us = [c]
    for x in _XGK:
        dx = h * x
        us.append(c - dx)
        us.append(c + dx)
    xs, weights = zip(*map(node, us))
    kronrod = [k * h * w for k, w in zip(_KRONROD15, weights)]
    gauss = [g * h * w for g, w in zip(_GAUSS15, weights)]
    absolute = list(map(fabs, kronrod)) if min(kronrod) < 0.0 else None
    row = [0.0, 0.0, depth, a, b, 0.0, xs, kronrod, gauss, absolute, [x**n for x in xs]]
    _moment_sums(row)
    return row


def integrate_callable(f, a, b):
    """Adaptive Gauss-Kronrod integral of a Python callable on [a, b]: (value, error, converged).
    It is moment 0 of the weight f (see _moment_panel), so a panel sum that leaves the float
    range raises OverflowError."""
    panel = partial(_moment_panel, lambda u: (1.0, f(u)), 0)
    return _adaptive(panel, _first_panels(panel, a, b), _ATOL)


def moment_quad(p, t, n_max, atol=_ATOL):
    """The moments 0..n_max of the density of the (p, t) family, integrated in angle space: a
    list of (value, error_estimate, converged), one per n, that stops at the first n that does
    not converge.

    The x-space integral over (0, p^p (p-1)^(1-p)) becomes int_0^{pi/p} rho^n f |rho'| dphi,
    whose integrand stays bounded at both endpoints, where it is 0/0; no Gauss-Kronrod node lies
    on an end of its panel, so neither is evaluated.  Moment n starts from the partition that
    moment n - 1 ended with and refines it (see _adaptive); each panel keeps its 15 nodes' x and
    weights (see _moment_panel), and the next moment multiplies each node's x^n by x.

    Once moment n has converged, a panel whose resabs is at most _RETIRE |value| retires: it
    keeps its place in the partition, so _MAX_PANELS counts it, but is neither stepped nor
    summed.  Its contribution to a later moment n + k is at most its resabs at n times
    (its largest node x)^k, and the error estimate adds that bound; a panel whose bound passes
    _RETIRE |value| of the moment at hand takes x^n afresh and rejoins the sums.  A float
    limit, such as x^n overflowing at large n, raises OverflowError naming p, t and the n it
    reached; so does a p where p - 1 rounds to p (from about 9e15 on), naming p and t, since
    there sin(p phi) = sin((p-1) phi) at every node and every weight is 0.
    """
    if p - 1.0 == p:
        raise OverflowError(f"moment quadrature left the float range at p={p}, t={t}")
    table = []
    panels = None
    retired = []  # [bound, largest node x, row] of each retired panel
    node = partial(_node, p, t)
    for n in range(n_max + 1):
        panel = partial(_moment_panel, node, n)
        try:
            if panels is None:
                panels = _first_panels(panel, 0.0, pi / p)
            else:
                for row in panels:
                    row[_POWERS] = list(map(mul, row[_POWERS], row[_XS]))  # x^(n-1) x
                    _moment_sums(row)
                for entry in retired:
                    entry[0] *= entry[1]
            value, err, converged = _adaptive(panel, panels, atol, len(retired))
            limit = _RETIRE * fabs(value)
            back = [entry[2] for entry in retired if entry[0] > limit] if converged else ()
            if back:
                retired = [entry for entry in retired if entry[0] <= limit]
                for row in back:
                    row[_POWERS] = [x**n for x in row[_XS]]
                    _moment_sums(row)
                panels += back
                value, err, converged = _adaptive(panel, panels, atol, len(retired))
        except (ZeroDivisionError, OverflowError):
            raise OverflowError(
                f"moment quadrature left the float range at p={p}, t={t}, n={n}"
            ) from None
        # Three errors the panel estimates do not see; refinement ignores them.
        # rho raises a quotient of two sines, each good to half an ulp, to the
        # power p, so rho^n is off by about n (p + 1) _EPS relative.  Each x^n
        # is x^(n-1) x rounded, n - 1 roundings of _EPS / 2 relative each, or
        # x**n for a panel split or rejoined at n, within an ulp: either way
        # within n _EPS / 2 relative, so the sums move by at most n _EPS / 2
        # times their resabs.  And the retired panels, left out of the sums,
        # add their bounds.
        resabs = 0.0
        for row in panels:
            resabs += row[_RESABS]
        err += n * ((p + 1.0) * fabs(value) + 0.5 * resabs) * _EPS
        for entry in retired:
            err += entry[0]
        table.append((value, err, converged))
        if not converged:
            break
        limit = _RETIRE * fabs(value)
        kept = []
        for row in panels:
            if row[_RESABS] <= limit:
                retired.append([row[_RESABS], max(row[_XS]), row])
            else:
                kept.append(row)
        panels = kept
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
