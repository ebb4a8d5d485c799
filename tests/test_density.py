"""Density layer: parametrization vs closed forms, quadrature vs exact values.

Each property is checked once.  test_density_routes_agree holds the two routes' agreement,
with w_closed's components at t = 0 and 1, the grid layout and phi None on the closed route;
the p = 2 display formula stays a reference of its own.  test_phi_form_is_the_affine_combination
holds one root: its angle and the angle form of the density there.
test_rho_bisect_grid_matches_each_point_solved_alone holds a grid against each point solved
alone, on uneven grids too.  test_moment_quad_is_within_its_estimate_of_the_exact_moments holds
the moment tables against the exact a_n, through the kernel and the density layer.
test_cumulant_moments_to_fourteen_digits holds the cumulant-side measures' moments, and
test_cumulant_measure_is_pointwise_positive their sign; two x-space integrals stay references
of their own.  test_density_sign_follows_the_theorem_region holds the density's sign, and
test_closed_route_error_messages every refusal of the layer with its message.
"""

import cmath
import hashlib
import random
import re
from fractions import Fraction as F
from math import inf, isfinite, nextafter, pi, sin, sqrt, ulp

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fussdeform
import fussdeform.cli
import fussdeform.verify as verify
import seams
from fussdeform import (
    Params,
    QuadratureError,
    a022558_table,
    a220910_table,
    cumulant_quadrature,
    deformed_table,
    density_grid,
    ex1_table,
    moment_quadrature,
    moment_quadrature_full,
    r_series_closed,
    support_c,
    w_closed,
)
from seams import kernels


def _f(params, x, route="parametric"):
    """f_{p,t}(x) at the one point x, by the evaluator behind density_grid."""
    p, t = params.as_floats()
    return seams.samples(p, t, [x], route)[0].value


def test_support_endpoint_values():
    assert support_c(2) == pytest.approx(4.0, abs=1e-14)
    assert support_c(3) == pytest.approx(27.0 / 4.0, abs=1e-13)
    assert support_c(1.5) == pytest.approx(3.0 * sqrt(3.0) / 2.0, abs=1e-14)


def test_support_end_past_the_overflow_of_p_to_the_p():
    # p^p overflows from p = 144 on, while c(p) < e p; at 143 c(p) keeps its float
    assert support_c(143) == 387.3543657340457
    for p in (143, 144, 150, 197.5, 250, 1000):
        with mpmath.workdps(40):
            ref = mpmath.mpf(p) ** p * (mpmath.mpf(p) - 1) ** (1 - mpmath.mpf(p))
        assert abs(support_c(p) - ref) <= 4e-16 * ref, p
    grid = density_grid(Params.exact(150, F(1, 2)), 50)
    assert all(isfinite(s.value) and s.value >= 0.0 for s in grid)


def test_rho_closed_value_p2():
    # rho(2, phi) = 4 cos^2 phi, so rho(2, pi/3) = 1
    assert kernels.rho(2, pi / 3) == pytest.approx(1.0, abs=1e-12)


def test_rho_limits():
    for p in (2.0, 3.0, 1.5, 2.5):
        top = pi / p
        assert kernels.rho(p, 1e-8) == pytest.approx(support_c(p), rel=1e-10)
        assert kernels.rho(p, top * (1 - 1e-8)) < 1e-6


def _node_slope(p, phi):
    """|rho'(phi)| as moment_quad's node weighs it: the weight f |dx/dphi| over f, which at
    t = 1 is mass(1, B) / (pi x) with B = r e^(i phi), r = sin(p phi) / sin((p - 1) phi)."""
    x, weight = seams.node(p, 1.0, phi)
    b = cmath.rect(sin(p * phi) / sin((p - 1.0) * phi), phi)
    return weight * pi * x / kernels.mass(1.0, b)


def _rho_difference(p, phi, h=1e-6):
    """The central difference of rho at phi."""
    return (kernels.rho(p, phi + h) - kernels.rho(p, phi - h)) / (2 * h)


def test_node_slope_closed_value_p2():
    # rho(2, phi) = 4 cos^2 phi  =>  rho' = -4 sin 2phi  =>  rho'(pi/4) = -4
    assert _rho_difference(2, pi / 4) == pytest.approx(-4.0, abs=1e-8)
    assert _node_slope(2, pi / 4) == pytest.approx(4.0, abs=1e-12)


@settings(max_examples=40)
@given(p=st.floats(1.1, 4.5), u=st.floats(0.15, 0.85))
@example(p=1.2, u=0.5)
@example(p=1.5, u=0.5)
@example(p=2.0, u=0.5)
@example(p=3.0, u=0.5)
@example(p=4.5, u=0.5)
def test_node_slope_is_the_size_of_rho_differences_throughout(p, u):
    # rho decreases, and the node's |rho'| is the size of its differences, at 39 even angles and
    # a drawn one
    top = pi / p
    for phi in [top * i / 40 for i in range(1, 40)] + [u * top]:
        numeric = _rho_difference(p, phi)
        assert numeric < 0.0
        assert _node_slope(p, phi) == pytest.approx(-numeric, rel=1e-6)


def test_parametric_component_values_p2():
    # W_{2,1}(1) = sqrt(3)/(2 pi) and W_{2,2}(2) = 1/pi; W_{p,r} is f_{p,t} at t = 2 - r
    (s,) = seams.samples(2.0, 1.0, [1.0], "parametric")
    assert s.value == pytest.approx(sqrt(3.0) / (2.0 * pi), abs=1e-12)
    assert s.x == 1.0 and 0.0 < s.phi < pi / 2
    assert _f(Params.exact(2, 0), 2.0) == pytest.approx(1.0 / pi, abs=1e-12)


def test_w_closed_accepts_float_and_fraction_p():
    assert w_closed(2, 1, 1.0) == w_closed(2.0, 1, 1.0) == w_closed(F(2), 1, 1.0)
    assert w_closed(1.5, 2, 1.0) == w_closed(F(3, 2), 2, 1.0)
    assert w_closed(2, 1, 1.0) == w_closed(2, 1.0, 1.0) == w_closed(2, F(1), 1.0)
    assert w_closed(3, 2, 1.0) == w_closed(3, 2.0, 1.0) == w_closed(3, F(2), 1.0)


_P3_RANGE = (
    "case p3 quadrature requires 3/5 <= t <= 3/2: below 3/5 the pole at x = 1/(1 - t) crowds "
    "the support edge 4t, and at t = 1/2 the measure has an atom at x = 2 that its density "
    "leaves out"
)


def test_closed_route_error_messages():
    # The first failing check names the fault.  w_closed checks that p is a number, then r,
    # p > 1, x and the form for p; density_grid the grid size, p > 1, the route and the form;
    # the moment quadratures n >= 0, then p > 1 or the case and its range of t.
    five, one, two = Params.exact(5, 1), Params.exact(1, 1), Params.exact(2, 1)
    cases = [
        (lambda: w_closed("two", 1, 1.0), "unsupported p='two' for the closed forms"),
        (lambda: w_closed(1, 1, 0.5), "support requires p > 1"),
        (lambda: w_closed(5, 3, 1.0), "closed forms cover r in {1, 2}"),
        (lambda: w_closed(2, 3, 1.0), "closed forms cover r in {1, 2}"),
        (lambda: w_closed(5, 1, 100.0), "x must lie in the open support (0, 12.20703125)"),
        (lambda: w_closed(2, 1, 4.0), "x must lie in the open support (0, 4.0)"),
        (lambda: w_closed(2, 1, 0.0), "x must lie in the open support (0, 4.0)"),
        (lambda: w_closed(5, 1, 1.0), "closed forms cover p in {2, 3, 3/2}"),
        (lambda: support_c(1), "support requires p > 1"),
        (lambda: support_c(0.5), "support requires p > 1"),
        (lambda: density_grid(one, 0, "series"), "grid_size must be positive"),
        (lambda: density_grid(one, 3, "series"), "support requires p > 1"),
        (lambda: density_grid(five, 3, "series"), "route must be 'parametric' or 'closed'"),
        (lambda: _f(two, 1.0, route="series"), "route must be 'parametric' or 'closed'"),
        (lambda: density_grid(five, 3, "closed"), "closed forms cover p in {2, 3, 3/2}"),
        (lambda: moment_quadrature(one, 0), "moment quadrature requires p > 1"),
        (lambda: moment_quadrature(two, -1), "n must be nonnegative"),
        (lambda: cumulant_quadrature("p2", 0.9, 0), "case p2 requires 1 < t <= 4/3"),
        (lambda: cumulant_quadrature("p2", 1.0, 0), "case p2 requires 1 < t <= 4/3"),
        (lambda: cumulant_quadrature("p2", 1.5, 0), "case p2 requires 1 < t <= 4/3"),
        (lambda: cumulant_quadrature("p3", 0.4, 0), _P3_RANGE),
        (lambda: cumulant_quadrature("p3", 1.6, 0), _P3_RANGE),
        (lambda: cumulant_quadrature("nope", 1.2, 0), "unknown case 'nope'; expected one of "
         "('p2', 'p3', 'a220910', 'a022558')"),
        (lambda: cumulant_quadrature("hankel", 1.0, 0), "unknown case 'hankel'; expected one of "
         "('p2', 'p3', 'a220910', 'a022558')"),
        (lambda: cumulant_quadrature("p3", 1.2, -1), "n must be nonnegative"),
        (lambda: kernels.cumulant_quad("p4", 1.0, 0), "unknown cumulant measure case 'p4'"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_w32_component_takes_negative_values():
    # the r=2 component at p=3/2 dips below zero for small x
    assert w_closed(F(3, 2), 2, 0.3) < -0.1


def test_density_p2_display_formula_on_both_routes():
    # f_{2,t}(x) = (t + x - t x) sqrt((4-x)/x) / (2 pi)
    rng = random.Random(1203)
    for _ in range(25):
        t = F(rng.randint(-4, 5), rng.randint(1, 4))
        x = rng.uniform(0.05, 3.95)
        params = Params.exact(2, t)
        expected = float(t + x - t * x) * sqrt((4.0 - x) / x) / (2.0 * pi)
        assert _f(params, x) == pytest.approx(expected, rel=1e-11, abs=1e-13)
        assert _f(params, x, route="closed") == pytest.approx(expected, rel=1e-11, abs=1e-13)


def _agree(a, b):
    """a is b within 1e-10 relative, or 1e-12 absolute next to 0, and never off by over 1e-10."""
    return abs(a - b) <= min(1e-10, max(1e-10 * abs(b), 1e-12))


@settings(max_examples=60)
@given(
    p=st.sampled_from((F(2), F(3), F(3, 2))),
    k=st.integers(0, 8),
    us=st.lists(st.floats(0.02, 0.98), max_size=20),
    grid=st.integers(1, 60),
)
@example(p=F(2), k=6, us=[], grid=7)
@example(p=F(2), k=0, us=[], grid=50)
@example(p=F(2), k=6, us=[], grid=50)
@example(p=F(3), k=0, us=[], grid=50)
@example(p=F(3), k=6, us=[], grid=50)
@example(p=F(3, 2), k=0, us=[], grid=50)
@example(p=F(3, 2), k=6, us=[], grid=50)
def test_density_routes_agree(p, k, us, grid):
    # at t = k/6, on a grid x = c(p) i/(grid + 1) and at single points x = c(p) u, the parametric
    # route agrees with the closed one, which leaves phi None; at t = 1 and t = 0 both are the
    # closed form's component W_{p,r}, r = 2 - t
    t = F(k, 6)
    params = Params.exact(p, t)
    upper = support_c(p)
    parametric, closed = (density_grid(params, grid, route) for route in ("parametric", "closed"))
    xs = [upper * i / (grid + 1) for i in range(1, grid + 1)]
    assert [s.x for s in parametric] == [s.x for s in closed] == xs
    assert all(a.x < b.x for a, b in zip(parametric, parametric[1:]))
    assert all(s.phi is None for s in closed)
    singles = [(x, _f(params, x), _f(params, x, route="closed")) for x in (upper * u for u in us)]
    for x, a, b in [(s.x, s.value, c.value) for s, c in zip(parametric, closed)] + singles:
        assert _agree(a, b), (x, a, b)
        if t in (0, 1):
            w = w_closed(p, 2 - t, x)
            assert _agree(a, w) and _agree(b, w), (x, a, b, w)


@pytest.mark.parametrize(
    "route, p, x", [("parametric", F(3, 2), 0.001), ("closed", F(2), 0.01)]
)
@pytest.mark.parametrize("t", [F(10) ** 308, -F(10) ** 308])
def test_non_finite_density_is_a_float_limit(route, p, x, t):
    # next to 0, |t (W_{p,1} - W_{p,2})| exceeds the float range: at x, and at the first point
    # of a grid, c(p) / (grid + 1), which is below x
    params = Params.exact(p, t)
    with pytest.raises(OverflowError):
        _f(params, x, route=route)
    grid = 3000 if route == "parametric" else 400
    first = support_c(p) / (grid + 1)
    with pytest.raises(OverflowError, match=re.escape(f"x={first}")):
        density_grid(params, grid, route=route)
    if route == "parametric":
        # at 1/4 of c(3/2) the value is about 5e307, in the float range
        assert isfinite(_f(params, 0.649519052838329))


def _w_phi(p, r, phi):
    """The angle form of the component density W_{p,r} at x = rho(p, phi)."""
    return (
        sin((p - 1.0) * phi) ** (p - r - 1.0)
        * sin(phi)
        * sin(r * phi)
        / (pi * sin(p * phi) ** (p - r))
    )


@settings(max_examples=60)
@given(p=st.floats(1.1, 4.0), t=st.floats(-1.0, 2.0), u=st.floats(0.05, 0.95))
def test_phi_form_is_the_affine_combination(p, t, u):
    # the root B of x (B - 1) = B^p at x = rho(p, phi0) gives phi0 back as arg B, and there
    # mass(t, B) / (pi x) is the affine combination of the angle forms
    phi0 = u * pi / p
    x = kernels.rho(p, phi0)
    ((b, phi),) = kernels.rho_bisect(p, [x])
    assert phi == cmath.phase(b) and abs(phi - phi0) <= 1e-9
    combo = t * _w_phi(p, 1.0, phi) + (1.0 - t) * _w_phi(p, 2.0, phi)
    assert kernels.mass(t, b) / (pi * x) == pytest.approx(combo, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize(
    "p, t, grid, nonnegative",
    [
        (F(2), F(0), 100, True),
        (F(2), F(1), 100, True),
        (F(2), F(4, 3), 100, True),
        (F(3, 2), F(1, 5), 200, True),  # the smallest admissible deformation at p = 3/2
        (F(2), F(-1, 10), 100, False),
        (F(2), F(7, 5), 100, False),
    ],
)
def test_density_sign_follows_the_theorem_region(p, t, grid, nonnegative):
    # nonnegative for g(p) <= t <= 2p/(p + 1), and clearly negative somewhere outside
    low = min(s.value for s in density_grid(Params.exact(p, t), grid))
    assert low >= -1e-12 if nonnegative else low < -1e-4


def test_gk_rule_is_exact_on_polynomials():
    # one panel integrates x^13 as moment 13 of the unit weight (a row starts with its value
    # and error estimate), and integrate_callable, moment 0 of the weight f, integrates sin
    val, err = seams.moment_panel(lambda u: (u, 1.0), 13, 0.0, 1.0, 0)[:2]
    assert val == pytest.approx(1.0 / 14.0, rel=1e-14)
    assert err < 1e-12
    total, err, ok = kernels.integrate_callable(sin, 0.0, pi)
    assert ok
    assert total == pytest.approx(2.0, rel=1e-12)


def _panel_loop(h, nodes, n):
    """The sums of a panel's row (seams.moment_panel, seams.moment_sums) as a loop over its nodes
    (x, w) in order, branching per node pair for the Gauss sum: (value, error, resabs), and
    d = |kronrod - gauss|."""
    wgk, wg = seams.WGK, seams.WG
    kron = gauss = resabs = 0.0
    for i, (x, w) in enumerate(nodes):
        j = (i - 1) // 2
        power = x**n
        k = wgk[7] if i == 0 else wgk[j]
        kron += k * h * w * power
        resabs += abs(k * h * w) * power
        if i == 0:
            gauss += wg[3] * h * w * power
        elif j & 1:
            gauss += wg[(j - 1) // 2] * h * w * power
    d = abs(kron - gauss)
    err = d
    if 0.0 < 200.0 * d < 1.0:
        scaled = (200.0 * d) ** 1.5
        if scaled < err:
            err = scaled
    floor = 50.0 * seams.EPS * resabs
    if err < floor:
        err = floor
    return (kron, err, resabs), d


def test_moment_sums_matches_the_loop():
    # the one panel builder and panel sum of both quadratures against a loop over the nodes,
    # bit for bit, on panels [-h, h] of either orientation and weights of both signs
    rng = random.Random(1983)
    scaled_d = {"below 1": 0, "at least 1": 0}
    signs = {"one": 0, "both": 0}  # of the Kronrod weights: the value is resabs, or is not
    for _ in range(4000):
        h = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        n = rng.randrange(30)
        # x^n within 1e+-150 of 1, and x = 0 now and then
        span = 150.0 / max(n, 1)
        if rng.random() < 0.5:
            # weights of wholly different sizes and signs, some of them zero, at scattered x
            nodes = [
                (
                    0.0 if rng.random() < 0.05 else 10.0 ** rng.uniform(-span, span),
                    0.0 if rng.random() < 0.1
                    else rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-150.0, 150.0),
                )
                for _ in range(15)
            ]
        else:
            # a smooth-looking panel at one scale and one sign, so Gauss and Kronrod nearly agree
            x, w = 10.0 ** rng.uniform(-span, span), 10.0 ** rng.uniform(-150.0, 150.0)
            w *= rng.choice((-1.0, 1.0))
            nodes = [
                (x * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0)),
                 w * (1.0 + 10.0 ** rng.uniform(-16.0, 0.0) * rng.uniform(-1.0, 1.0)))
                for _ in range(15)
            ]
        draws = iter(nodes)
        row = seams.moment_panel(lambda u: next(draws), n, -h, h, 0)
        expected, d = _panel_loop(h, nodes, n)
        assert (row[0], row[1], row[seams.RESABS]) == expected, (h, n, nodes)
        signs["both" if min(h * w for _, w in nodes) < 0.0 else "one"] += 1
        if d > 0.0:
            scaled_d["below 1" if 200.0 * d < 1.0 else "at least 1"] += 1
    assert min(scaled_d.values()) > 500, scaled_d
    assert min(signs.values()) > 500, signs


def test_gk_error_estimate_survives_huge_integrands():
    # Gauss and Kronrod differ by ~1e247 here, so (200 d)^1.5 would overflow.
    val, err = seams.moment_panel(lambda u: (1.0, 1e250 * u**40), 0, 0.0, 1.0, 0)[:2]
    assert val == pytest.approx(1e250 / 41.0, rel=1e-6)
    assert 0.0 < err < val


def test_integrate_callable_raises_once_a_panel_sum_leaves_the_float_range():
    # each weight is finite, and their sum times the half width is not
    with pytest.raises(OverflowError, match="a panel sum left the float range"):
        kernels.integrate_callable(lambda x: 1e300, 0.0, 1e10)


def test_integrate_callable_reversed_interval_keeps_the_rounding_floor():
    # on a > b every weight h f is negative for f > 0, and resabs, the sum of their sizes,
    # is positive, so each panel's estimate is at least 50 EPS resabs on either orientation
    forward = kernels.integrate_callable(lambda x: 1.0, 0.0, 1.0)
    backward = kernels.integrate_callable(lambda x: 1.0, 1.0, 0.0)
    assert backward[0] == pytest.approx(-forward[0], rel=1e-15)
    assert backward[1] >= 50.0 * seams.EPS * (1.0 - 1e-12)
    assert backward[1] == pytest.approx(forward[1], rel=1e-12)
    assert forward[2] and backward[2]


def test_backend_name_is_python():
    assert fussdeform.backend_name == "python"


def _phi_condition(p, x, phi):
    """How far an error of an ulp in the terms of x (B - 1) = B^p moves phi = arg B:
    eps (x |B - 1| + |B|^p) / (|h'(B)| |B|), eps the float epsilon, with h'(B) = x - p B^p / B and
    B = e^(i phi) sin(p phi) / sin((p - 1) phi).  It grows without bound next to c(p), at the
    double root, and everywhere as p nears 1."""
    b = cmath.rect(sin(p * phi) / sin((p - 1.0) * phi), phi)
    power = b**p
    slope = abs(x - p * power / b) * abs(b)
    return seams.EPS * (x * abs(b - 1.0) + abs(power)) / slope if slope else inf


def _grid_matches_each_point_alone(p, xs, lossless):
    """The roots of the sorted xs, solved by one continuation, against each point solved on its
    own from the double root: the starts differ, so the floats may too, within 1e-13; within 1%
    of c(p) the double root makes phi ill-conditioned, and the bound adds 64 times what rounding
    moves phi by there.  Unless lossless, the grid may lose a point, as below."""
    upper = support_c(p)
    try:
        grid = [phi for _, phi in kernels.rho_bisect(p, xs)]
    except OverflowError as exc:
        # the grid may lose only a point that is lost alone too, or, a few ulps above p = 1, one
        # whose root alone is within a few ulps of pi/p: there the rounding of arg B decides the
        # sector check, whatever the start
        assert not lossless, str(exc)
        message = re.escape(f"rho's inversion left the float range at p={p}, x=")
        lost = re.fullmatch(message + "(.+)", str(exc))
        assert lost, str(exc)
        try:
            ((_, alone),) = kernels.rho_bisect(p, [float(lost[1])])
        except OverflowError:
            return
        assert pi / p - alone <= 8.0 * ulp(pi), (lost[1], alone)
        return
    for x, phi in zip(xs, grid):
        # the continuation may reach a point that its halvings from c(p) do not reach alone,
        # such as x = 1e-45 c(p); the converse is what this test looks for
        try:
            ((_, alone),) = kernels.rho_bisect(p, [x])
        except OverflowError as exc:
            assert not lossless and f"p={p}, x={x}" in str(exc), str(exc)
            continue
        bound = 1e-13 if x <= 0.99 * upper else 1e-13 + 64.0 * _phi_condition(p, x, phi)
        assert abs(alone - phi) <= bound, (x, alone, phi)


# 300 uniform draws, seeded: as c(p) u^3 an uneven grid that crowds towards 0
_RANDOM_46 = random.Random(46)
_US_46 = [_RANDOM_46.random() for _ in range(300)]


@settings(max_examples=60)
@given(
    p=st.floats(min_value=1.0, max_value=100.0, exclude_min=True),
    us=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)),
    repeats=st.lists(st.integers(min_value=0, max_value=200), max_size=8),
)
@example(p=12.0, us=[0.9999999999999999, 0.9999999999999999], repeats=[])
@example(p=1.1, us=_US_46, repeats=[])
@example(p=2.5, us=_US_46, repeats=[])
@example(p=4.0, us=_US_46, repeats=[])
@example(p=20.0, us=_US_46, repeats=[])
def test_rho_bisect_grid_matches_each_point_solved_alone(p, us, repeats):
    # First the drawn grid: random points, an even grid, a point within 1e-9 of each end, then
    # duplicates.  The example at p = 12 repeats x = c(12) (1 - 1.1e-16), whose root has argument
    # 4.1e-10: Newton restarted at that root stepped out of the sector on rounding alone and lost
    # the grid; a repeated x now takes the checked root again.  Then three uneven grids up to
    # 0.99 c(p): from the fourth point on, Newton starts from the quadratic through the last
    # three roots, 3 (b1 - b2) + b3, which assumes even steps in x; on grids that step
    # geometrically, in clusters with gaps, or as c(p) u^3 for the drawn u >= 1e-3, each point
    # still solves as it does alone, and from p = 1.1 on none is lost
    upper = support_c(p)
    xs = [upper * u for u in us] + [upper * i / 65 for i in range(1, 65)]
    xs += [upper * 1e-9, upper * (1.0 - 1e-9)]
    xs = [x for x in xs if x < upper]
    xs += [xs[i % len(xs)] for i in repeats]
    _grid_matches_each_point_alone(p, sorted(xs), lossless=False)
    for xs in (
        [upper * 0.8**i for i in range(1, 120)],
        [upper * (k + j * 1e-3) / 12 for k in range(1, 12) for j in range(8)],
        [upper * u**3 for u in us if u >= 1e-3],
    ):
        xs = sorted(x for x in xs if x <= 0.99 * upper)
        _grid_matches_each_point_alone(p, xs, lossless=p >= 1.1)


def test_density_grid_next_to_p_1_is_a_float_limit(capsys):
    # an ulp above p = 1 the root of the smallest x rounds to pi/p, out of the open sector; at
    # grid 7 four roots lie within an ulp of each other there, and a start predicted from
    # roots that close to the edge settled a float lower, inside the sector, for four equal phi
    p = F(nextafter(1.0, 2.0))
    for grid in (5, 7):
        with pytest.raises(OverflowError, match=re.escape(f"at p={float(p)}, x=")):
            density_grid(Params.exact(p, F(1, 2)), grid)
    assert fussdeform.cli.main(["density", "--p", str(p), "--t", "1/2", "--grid", "5"]) == 2
    assert capsys.readouterr().err == "fussdeform: error: a value left the float range\n"


@pytest.mark.parametrize("p, grid", [("1.0000000000000002", 3), ("1.0000000000001", 1000)])
def test_density_next_to_p_1_prints_through_a_restart(monkeypatch, capsys, p, grid):
    # next to p = 1 the continuation loses a point at its first attempt and solves it from
    # halfway to the last accepted x: these grids print only through that restart
    attempts = seams.record(monkeypatch, "newton")
    assert fussdeform.cli.main(["density", "--p", p, "--t", "1/2", "--grid", str(grid)]) == 0
    assert len(attempts) > grid
    _, *rows = capsys.readouterr().out.splitlines()
    phis = [float(row.split(",")[1]) for row in rows]
    assert len(phis) == grid and all(0.0 < phi < pi / float(p) for phi in phis)
    # every phi is within 1e-9 of pi/p, where neighbouring points may round to the same float
    assert all(a >= b for a, b in zip(phis, phis[1:]))


def test_each_evaluation_solves_its_points_by_one_kernel_call(monkeypatch):
    calls = seams.record(monkeypatch, "rho_bisect")
    params = Params.exact(2, F(1, 3))
    for evaluate, points in (
        (lambda: density_grid(params, 500), 500),
        (lambda: _f(params, 1.0), 1),
        (lambda: density_grid(params, 500, route="closed"), None),
        (lambda: _f(params, 1.0, route="closed"), None),
    ):
        calls.clear()
        evaluate()
        assert [len(xs) for _, xs in calls] == ([] if points is None else [points])
    assert not hasattr(kernels, "rho_bisect_grid")


@pytest.mark.parametrize("p", [1.000001, 1.001, 1.01, 4.0, 20.0])
def test_rho_bisect_stops_newton_at_the_rounding_floor(p):
    # next to the double root, and everywhere at p next to 1, rounding keeps Newton's steps
    # from shrinking to 4 eps |B|; it stops where they stop shrinking, so these points solve
    upper = support_c(p)
    xs = [upper * i / 2001 for i in range(1, 2001)]
    for xs in (xs, *([upper * (1.0 - 10.0**-e)] for e in (4, 5, 6, 10, 14, 16))):
        phis = [phi for _, phi in kernels.rho_bisect(p, xs)]
        assert all(0.0 < phi < pi / p for phi in phis), (p, xs[-1])
        assert all(a > b for a, b in zip(phis, phis[1:])), p


def test_rho_bisect_recovers_a_lost_point_from_halfway(monkeypatch):
    # a Newton that loses every point of the grid at its first attempt: each is solved after
    # one halving, from the root halfway to the last accepted x, as by the plain continuation
    p = 2.5
    xs = [support_c(p) * i / 21 for i in range(1, 21)]
    expected = [phi for _, phi in kernels.rho_bisect(p, xs)]
    targets = []

    def losing(real_newton):
        def newton(p, x, b):
            targets.append(x)
            return None if x in xs and targets.count(x) == 1 else real_newton(p, x, b)

        return newton

    seams.plant(monkeypatch, "newton", losing)
    phis = [phi for _, phi in kernels.rho_bisect(p, xs)]
    assert max(abs(a - b) for a, b in zip(phis, expected)) <= 1e-13
    anchors = [support_c(p)] + xs[::-1]
    halfway = [0.5 * (a + x) for a, x in zip(anchors, xs[::-1])]
    assert targets == [t for x, h in zip(xs[::-1], halfway) for t in (x, h, x)]
    # each halving restarts from the last root, and each point still solves as it does alone
    monkeypatch.undo()
    for x, phi in zip(xs, phis):
        assert abs(kernels.rho_bisect(p, [x])[0][1] - phi) <= 1e-13, x


def test_rho_bisect_takes_few_newton_steps_per_point():
    # a count, not a time: over 200- and 2000-point grids at four p, the predicted starts take
    # 2.4 Newton steps per point (the last root as the start took 4.1); at 200 points alone it
    # is 3.1-3.5, at 2000 points 2.2-2.6.  Each step takes one power B^p, and the check that
    # accepts a root reads the power Newton computed at the iterate it checks, so that is all
    # the powers (the check used to take B**p and |B|**p afresh, two more per point)
    powers = points = 0
    for p in (1.1, 2.5, 4.0, 20.0):
        for size in (200, 2000):
            xs = [support_c(p) * i / (size + 1) for i in range(1, size + 1)]
            roots, count = seams.complex_powers(p, xs)
            assert len(roots) == size
            powers += count
            points += size
    assert powers <= 2.6 * points, powers / points


@settings(max_examples=60)
@given(
    p=st.floats(min_value=1.0, max_value=1000.0, exclude_min=True),
    us=st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True), max_size=50
    ),
    size=st.integers(min_value=0, max_value=300),
)
def test_rho_bisect_roots_meet_the_residual_gate_with_a_fresh_power(p, us, size):
    # the check that accepts a root reads the residual of the iterate Newton's last step
    # started from, with the power B^p Newton computed there; every root returned, one step
    # on, meets the same gate with B**p taken afresh.  A power's own rounding grows like p: at
    # p = 1000 it is up to 1.9e-13 relative (against 40-digit mpmath), a fifth of the gate, and
    # from about p = 1.6e4, where the inversion starts to lose points, it alone can pass it
    upper = support_c(p)
    xs = [upper * u for u in us] + [upper * i / (size + 1) for i in range(1, size + 1)]
    xs = sorted({x for x in xs if 0.0 < x < upper})
    try:
        roots = kernels.rho_bisect(p, xs)
    except OverflowError as exc:
        assert f"at p={p}, x=" in str(exc)
        return
    for x, (b, phi) in zip(xs, roots):
        power = b**p
        assert abs(x * (b - 1.0) - power) <= seams.NEWTON_TOL * (x * abs(b - 1.0) + abs(power))
        assert phi == cmath.phase(b) and 0.0 < phi < pi / p, (x, b)


@pytest.mark.parametrize(
    "fault",
    [
        # the conjugate of the root: a root of the equation, but arg B < 0, out of the sector
        lambda root, start: root.conjugate(),
        # the start, untouched: inside the sector, but not a root
        lambda root, start: start,
    ],
    ids=["conjugate", "start"],
)
def test_rho_bisect_accepts_only_roots_in_the_sector(monkeypatch, fault):
    # a Newton that settles on a planted wrong answer: the first point, the largest, is never
    # accepted, and after at most HALVINGS halvings, each an attempt and maybe a second one
    # from the halfway point, the float limit names it
    tries = []

    def faulty(real_newton):
        def newton(p, x, b):
            found = real_newton(p, x, b)
            tries.append(x)
            if found is None:
                return None
            root = fault(found[2], b)
            return root, root**p, root

        return newton

    seams.plant(monkeypatch, "newton", faulty)
    for p in (1.5, 2.0, 37.0 / 13.0, 20.0):
        for xs in ([support_c(p) / 2.0], [support_c(p) * i / 11 for i in range(1, 11)]):
            tries.clear()
            with pytest.raises(OverflowError, match=re.escape(f"at p={p}, x={xs[-1]}")):
                kernels.rho_bisect(p, xs)
            assert len(tries) <= 2 * seams.HALVINGS + 1, (p, len(xs))


@settings(max_examples=80)
@given(
    p=st.fractions(min_value=1, max_value=300, max_denominator=64).filter(lambda p: p > 1)
    | st.floats(min_value=1.0, max_value=300.0, exclude_min=True).map(F),
    t=st.fractions(min_value=-2, max_value=2, max_denominator=12),
    grid=st.integers(min_value=1, max_value=60),
)
def test_density_grid_is_in_the_sector_or_a_float_limit(p, t, grid):
    # every phi a grid returns is in the open sector and decreases along x; up to grid 60 every
    # p from 1 + 1e-13 to 300 prints, and closer to 1 a grid it cannot give raises
    # OverflowError naming p (the last seen was 1 + 26 2^-52)
    params = Params.exact(p, t)
    try:
        samples = density_grid(params, grid)
    except OverflowError as exc:
        assert p < 1 + F(1e-13) and f"p={float(p)}" in str(exc), (p, grid, str(exc))
        return
    phis = [s.phi for s in samples]
    assert all(0.0 < phi < pi / float(p) for phi in phis), p
    assert all(a > b for a, b in zip(phis, phis[1:])), p
    assert all(isfinite(s.value) for s in samples), p


@pytest.mark.parametrize("p", ["198", "397/2", "250", "300", "1000"])
def test_density_prints_at_large_p_with_mean_a1(capsys, p):
    # at large p the grid point next to c(p) has sin(p phi)^(p - 1) far below the float range;
    # the value Im(t B + (1 - t) B^2) / (pi x) takes no such power, and the grid is a
    # probability density with mean a_1 = 3/2 at t = 1/2
    assert fussdeform.cli.main(["density", "--p", p, "--t", "1/2", "--grid", "400"]) == 0
    out, err = capsys.readouterr()
    header, *rows = out.splitlines()
    assert (header, len(rows), err) == ("x,phi,f", 400, "")
    xs, phis, values = zip(*[map(float, row.split(",")) for row in rows])
    assert all(0.0 < phi < pi / float(F(p)) for phi in phis)
    assert all(a > b for a, b in zip(phis, phis[1:]))
    assert all(isfinite(f) and f >= 0.0 for f in values)
    dx = support_c(F(p)) / 401
    assert abs(sum(x * f * dx for x, f in zip(xs, values)) - 1.5) <= 5e-3


def test_density_next_to_c_at_large_p_is_finite():
    # at p = 300 the grid point next to c(300) has sin(p phi)^(p - 1) below the float range;
    # its value, and every other of the grid, is finite and positive
    xs = [support_c(300) * i / 401 for i in range(1, 401)]
    samples = density_grid(Params.exact(300, F(1, 2)), 400)
    assert [s.x for s in samples] == xs
    assert all(isfinite(s.value) and s.value > 0.0 for s in samples)


def test_float_limits_next_to_c_are_overflow_errors(monkeypatch):
    # x this close to c(62) has its root at phi of about 2.3e-8, where sin(p phi)^(p - 1) is
    # below the float range; the density takes no such power, and neither does the moment
    # quadrature at p = 100, whose mass meets 1 within its estimate
    x = support_c(62) * (1.0 - 1e-12)
    for t in (F(1, 3), F(1)):
        assert isfinite(_f(Params.exact(62, t), x)) and _f(Params.exact(62, t), x) > 0.0
    ((mass, err),) = moment_quadrature_full(Params.exact(100, 1), 0)
    assert abs(mass - 1.0) <= err
    # at large n, rho^n overflows next to c(4) = 9.48...
    with pytest.raises(OverflowError, match=re.escape("p=4.0, t=0.5, n=316")):
        moment_quadrature_full(Params.exact(4, F(1, 2)), 600)
    # where p - 1 rounds to p every weight would be 0: the kernel refuses, naming p and t
    with pytest.raises(OverflowError, match=re.escape("at p=1e+20, t=0.5")):
        kernels.moment_quad(1e20, 0.5, 2)
    # a limit met by a later moment of the table names that moment: with every x scaled by
    # 1e103, x^2 stays a float at each node (x < 4) and x^3 overflows at the nodes past 0.56
    def scaled(node):
        def planted(p, t, phi):
            x, weight = node(p, t, phi)
            return 1e103 * x, weight

        return planted

    seams.plant(monkeypatch, "node", scaled)
    with pytest.raises(OverflowError, match=re.escape("p=2.0, t=0.5, n=3")):
        moment_quadrature_full(Params.exact(2, F(1, 2)), 5)

    # and a node the float kernels cannot evaluate names the moment that samples it
    def undefined(p, t, phi):
        raise ZeroDivisionError("float division by zero")

    seams.plant(monkeypatch, "node", lambda real: undefined)
    with pytest.raises(OverflowError, match=re.escape("p=2.0, t=0.5, n=0")):
        moment_quadrature_full(Params.exact(2, F(1, 2)), 5)


@pytest.mark.parametrize("p, t", [(F(3, 2), F(1, 5)), (F(5, 2), F(1, 2)), (F(97, 37), F(1, 3))])
def test_density_grid_matches_each_point_evaluated_alone(p, t):
    # the grid, solved by one continuation, against each of its points evaluated on its own:
    # phi within 1e-13, and the value within what that moves f
    params = Params.exact(p, t)
    pf, tf = params.as_floats()
    for s in density_grid(params, 1000):
        ((x, phi, value),) = seams.samples(pf, tf, [s.x], "parametric")
        assert x == s.x and abs(phi - s.phi) <= 1e-13, s.x
        assert abs(value - s.value) <= 1e-12, s.x


def _density_reference(p, t, x):
    """(phi*, f(phi*), f'(phi*)) at 50 digits for the float inputs p, t, x: phi* solves
    rho(p, phi) = x by mpmath's bracketed Illinois solver in the cell of an even 64-cell scan
    of (0, pi/p) that holds x, and f is the angle form of f_{p,t}."""
    cells = 64
    with mpmath.workdps(50):
        p, t, x = mpmath.mpf(p), mpmath.mpf(t), mpmath.mpf(x)
        q = p - 1

        def rho_mp(phi):
            return mpmath.sin(p * phi) ** p / (mpmath.sin(phi) * mpmath.sin(q * phi) ** q)

        def f_mp(phi):
            s1 = mpmath.sin(q * phi)
            mixed = t * s1 + 2 * (1 - t) * mpmath.sin(p * phi) * mpmath.cos(phi)
            return mpmath.sin(phi) ** 2 * s1 ** (p - 3) * mixed / (
                mpmath.pi * mpmath.sin(p * phi) ** (p - 1)
            )

        top = mpmath.pi / p
        tiny = mpmath.mpf(10) ** -30
        ends = [top * tiny] + [top * j / cells for j in range(1, cells)] + [top * (1 - tiny)]
        j = next(j for j in range(cells) if rho_mp(ends[j + 1]) < x)
        phi = mpmath.findroot(lambda u: rho_mp(u) - x, (ends[j], ends[j + 1]), solver="illinois")
        return phi, f_mp(phi), mpmath.diff(f_mp, phi)


@pytest.mark.parametrize(
    "p, t",
    [(F(101, 100), F(1, 3)), (F(3, 2), F(1, 5)), (F(2), F(1)), (F(37, 13), F(1, 2)),
     (F(4), F(-1, 3)), (F(20), F(1, 3)), (F(150), F(1, 2)), (F(300), F(1, 3)), (F(1000), F(1))],
)
def test_density_grid_matches_a_50_digit_reference(p, t):
    # each phi is within 1e-13 of the root; each value is off by at most what that moves f,
    # |f'(phi*)| 1e-13, plus a rounding allowance of 1e-14 of the largest value.  Points 1e-6 to
    # 1e-12 below c(p), next to the double root, get 16 times what rounding moves phi by on
    # top (a root accepted at the 1e-12 residual gate, not at the rounding floor, would be off
    # by thousands of times that); up to p = 20 they read at most 3 times it.  From p = 150 on
    # only the grid is checked: there the points 1e-8 and 1e-10 below c(p) read up to 1.6 times
    # that bound
    params = Params.exact(p, t)
    pf, tf = params.as_floats()
    upper = support_c(pf)
    samples = density_grid(params, 30)
    near_c = [upper * (1.0 - 10.0**-e) for e in (12, 10, 8, 6)] if p <= 20 else []
    near_c = seams.samples(pf, tf, near_c, "parametric")
    refs = [_density_reference(pf, tf, s.x) for s in samples + near_c]
    scale = max(abs(f_star) for _, f_star, _ in refs[: len(samples)])
    for i, (s, (phi_star, f_star, slope)) in enumerate(zip(samples + near_c, refs)):
        bound = 1e-13 if i < len(samples) else 1e-13 + 16.0 * _phi_condition(pf, s.x, s.phi)
        assert abs(s.phi - phi_star) <= bound, s.x
        assert abs(s.value - f_star) <= abs(slope) * bound + 1e-14 * scale, s.x


def test_moment_quad_is_deterministic():
    assert kernels.moment_quad(1.5, 0.2, 3) == kernels.moment_quad(1.5, 0.2, 3)


def test_moment_quad_is_within_its_estimate_of_the_exact_moments():
    # the floats of moments 0, 5 and 12 (the exact a_5 = 229.55078125 and a_12 = 9332163.75
    # are floats), then every moment of a table against the exact a_n at 13 landmarks and 20
    # random rational points with 0 <= t <= 2p/(p+1), where each table converges to n = 200.
    # The density layer reads the same table: moment_quadrature_full to n = 10 is its prefix,
    # moment_quadrature(n) its value n, the mass is 1 within 1e-13, and up to p = 3 moments 1..10
    # are within 1e-8 of a_n relative, with estimates below 1e-6
    assert [kernels.moment_quad(2.5, 0.5, 12)[n] for n in (0, 5, 12)] == [
        (0.9999999999999999, 1.1102230246251564e-14, True),
        (229.55078125, 3.567935877302197e-12, True),
        (9332163.749999994, 2.7417774996949473e-06, True),
    ]
    rng = random.Random(1507)
    points = [(F(3, 2), F(1, 5)), (F(3, 2), F(6, 5)), (F(3, 2), F(1)), (F(2), F(0)),
              (F(2), F(1, 2)), (F(2), F(1)), (F(2), F(4, 3)), (F(3), F(0)), (F(3), F(1)),
              (F(3), F(3, 2)), (F(5, 2), F(1)), (F(6, 5), F(1, 2)), (F(4), F(0))]
    for _ in range(20):
        p = F(4.0 - 3.0 * rng.random()).limit_denominator(64)
        points.append((p, (2 * p / (p + 1) * F(rng.random())).limit_denominator(64)))
    for p, t in points:
        params = Params.exact(p, t)
        exact = deformed_table(params, 200).values
        table = kernels.moment_quad(float(p), float(t), 200)
        assert len(table) == 201 and all(ok for _, _, ok in table), (p, t)
        for n, (value, err, _) in enumerate(table):
            assert abs(F(value) - exact[n]) <= err, (p, t, n)
        assert moment_quadrature_full(params, 10) == [(value, err) for value, err, _ in table[:11]]
        for n in (0, 4, 10):
            assert moment_quadrature(params, n) == table[n][0], (p, t, n)
        assert abs(table[0][0] - 1.0) <= 1e-13, (p, t)
        for n in range(1, 11) if p <= 3 else ():
            value, err, _ = table[n]
            assert abs(value - float(exact[n])) <= 1e-8 * abs(float(exact[n])), (p, t, n)
            assert err < 1e-6, (p, t, n)


def test_moment_quad_tables_are_prefix_stable():
    # moment n is the same float whatever n_max the table runs to, unconverged end included
    for p, t, n_max in ((2.5, 0.5, 200), (1.5, 0.0, 120), (11.0 / 8.0, 6.0 / 5.0, 240)):
        full = kernels.moment_quad(p, t, n_max)
        for k in (0, 1, 7, len(full) // 2, len(full) - 1):
            assert full[: k + 1] == kernels.moment_quad(p, t, k), (p, t, k)


def test_moment_quad_retires_panels_within_its_estimate(monkeypatch):
    # once a moment converges, a panel whose sums are at most RETIRE |value| leaves the sums
    # and leaves its bound in the estimate: every moment to n = 200 stays within its estimate
    # of the exact a_n, at landmarks and at t next to g(p), where the density touches 0; the
    # values are the floats of the table that sums every panel, and the retired panels save
    # at least a fifth of the panel sums
    sums = seams.record(monkeypatch, "moment_sums")
    retire = seams.RETIRE
    g = {p: F(kernels.g_scan(float(p))[0]) for p in (F(5, 4), F(7, 4))}
    points = [(F(5, 2), F(1, 2)), (F(3, 2), F(1, 5)), (F(5, 4), g[F(5, 4)]),
              (F(7, 4), g[F(7, 4)]), (F(11, 10), F(0)), (F(3), F(1)), (F(2), F(4, 3)),
              (F(4), F(-1, 3))]
    for p, t in points:
        exact = deformed_table(Params.exact(p, t), 200).values
        tables, counts = [], []
        for threshold in (retire, 0.0):
            seams.override(monkeypatch, "RETIRE", threshold)
            sums.clear()
            tables.append(kernels.moment_quad(float(p), float(t), 200))
            counts.append(len(sums))
        table, every = tables
        assert len(table) == 201 and all(ok for _, _, ok in table), (p, t)
        for n, (value, err, _) in enumerate(table):
            assert abs(F(value) - exact[n]) <= err, (p, t, n)
        assert [value for value, _, _ in table] == [value for value, _, _ in every], (p, t)
        assert counts[0] <= 0.8 * counts[1], (p, t, counts)


def test_moment_quad_retired_panels_rejoin_when_their_bound_grows(monkeypatch):
    # a planted node rule whose right half (phi > pi/(2p), panels 4 to 7 of the first
    # partition) weighs 1e-40 times as much at 100 times the x: those panels retire after
    # n = 0, their bound resabs (100 x)^k outgrows RETIRE |value|, and they take x^n afresh
    # and rejoin; each moment stays within its estimate of the table that sums every panel
    def far_and_light(node):
        def planted(p, t, phi):
            x, weight = node(p, t, phi)
            return (100.0 * x, 1e-40 * weight) if phi > pi / (2.0 * p) else (x, weight)

        return planted

    seams.plant(monkeypatch, "node", far_and_light)
    calls = seams.record(monkeypatch, "adaptive")
    table = kernels.moment_quad(2.5, 0.5, 60)
    # the retired panels each refinement holds, its fourth argument
    held = [args[3] for args in calls]
    assert held[:2] == [0, 4] and any(b < a for a, b in zip(held, held[1:])), held
    seams.override(monkeypatch, "RETIRE", 0.0)
    every = kernels.moment_quad(2.5, 0.5, 60)
    assert len(table) == len(every) == 61
    for (value, err, ok), (reference, _, _) in zip(table, every):
        assert ok and abs(value - reference) <= err


def test_moment_quad_without_retiring_keeps_the_carried_partition_floats(monkeypatch):
    # with RETIRE = 0 only a panel whose sums are exactly 0 could leave, and the tables are the
    # floats of the carried partition before panels retired, bit for bit (sha256 of the repr)
    seams.override(monkeypatch, "RETIRE", 0.0)
    digests = {
        (2.5, 0.5, 200): "16fa7a4bcf0b1b2c3c13f5fd514b672505b16084e9347fed2bbf4b397ae51d11",
        (1.5, 0.0, 120): "ea19c522774a2d284488aa84cbc0e89473f72d2bc8e5f6553ceba2bdde7d8e69",
        (11.0 / 8.0, 6.0 / 5.0, 240): "dbf093e64435850080e10a818181d3da5d003d7ef76a3589b9882082269a795a",
        (3.0, 1.0, 200): "0122628342f5bce62d053564ba6a55cab33f01862a4659d1b01ac8248baf22ea",
        (1.1, 0.2, 200): "e6fafc5d61b4c13deec1445014776b4320192c4bd65fd4d16977549c23222a49",
    }
    for (p, t, n_max), digest in digests.items():
        table = kernels.moment_quad(p, t, n_max)
        assert hashlib.sha256(repr(table).encode()).hexdigest() == digest, (p, t)


def test_moment_quad_partition_stays_within_the_panel_cap(monkeypatch, capsys):
    # one kernel call per moments-check, whatever its n-max
    calls = seams.record(monkeypatch, "moment_quad")
    for argv in (("--p", "5/2", "--t", "1/2"), ("--p", "7/3", "--t", "2/3")):
        assert fussdeform.cli.main(["moments-check", *argv, "--n-max", "12"]) == 0
    capsys.readouterr()
    assert calls == [(2.5, 0.5, 12, 1e-10), (7.0 / 3.0, 2.0 / 3.0, 12, 1e-10)]
    monkeypatch.undo()
    made = seams.record(monkeypatch, "moment_panel")

    def partition():
        # the INIT_PANELS first panels, then two per split, one of them in the split one's place
        return seams.INIT_PANELS + (len(made) - seams.INIT_PANELS) // 2

    # moment n starts from the partition of n - 1: (5/2, 1/2) ends with 15 panels at n = 100,
    # and each n splits only panels its own estimate calls for
    expected = kernels.moment_quad(2.5, 0.5, 200)
    assert partition() == 15 and max(n for _, n, *_ in made) == 100
    assert [ok for _, _, ok in expected] == [True] * 201
    # a cap below that stops the table at the first n whose panels would pass it
    seams.override(monkeypatch, "MAX_PANELS", 12)
    made.clear()
    table = kernels.moment_quad(2.5, 0.5, 200)
    assert partition() == 12 and table[-1][2] is False
    assert table[:-1] == expected[: len(table) - 1]
    # a quadrature gives up once it holds MAX_PANELS panels: the 8 initial ones and two more
    # sampled per split
    cap = 256
    seams.override(monkeypatch, "MAX_PANELS", cap)
    sampled = []

    def never(a, b, depth):
        sampled.append((a, b))
        return [0.0, 1.0, depth, a, b]

    panels = seams.first_panels(never, 0.0, 1.0)
    assert seams.adaptive(never, panels, 0.0) == (0.0, float(cap), False)
    assert len(panels) == cap and len(sampled) == 8 + 2 * (cap - 8)
    # at (11/8, 6/5) a_20 nearly cancels: the table's n = 20 fills the partition to the cap
    # unconverged and stops there
    made.clear()
    table = kernels.moment_quad(11.0 / 8.0, 6.0 / 5.0, 240)
    assert [ok for _, _, ok in table] == [True] * 20 + [False]
    assert partition() == cap and max(n for _, n, *_ in made) == 20


def _case_ids(cases):
    """A test id per (case, t): the case, then t as numerator_denominator unless t is None."""
    return [case if t is None else f"{case}-{t.numerator}_{t.denominator}" for case, t in cases]


_CUMULANT_CASES = [("p2", F(7, 6)), ("p2", F(4, 3)), ("p2", F(11, 10)), ("p3", F(5, 4)),
                   *(("p3", F(k, 10)) for k in range(6, 16)), ("a220910", None), ("a022558", None)]


@pytest.mark.parametrize("case, t", _CUMULANT_CASES, ids=_case_ids(_CUMULANT_CASES))
def test_cumulant_moments_to_fourteen_digits(case, t):
    # moments 0..8 of each measure at t (None: the fixed measures), each within its estimate and
    # within 1e-14 relative: 1 and the free cumulants r_1..r_8 of mu(p, t) for p2 and p3, the
    # integer sequence named otherwise
    if t is None:
        exact = {"a220910": a220910_table, "a022558": a022558_table}[case](8).values
    else:
        r = r_series_closed(F(int(case[1])), t, 8)
        exact = [F(1)] + [r.coefficient(n) for n in range(1, 9)]
    for n in range(9):
        value, err = cumulant_quadrature(case, float(t or 0), n)
        assert abs(value - float(exact[n])) <= min(err, 1e-14 * abs(float(exact[n]))), (n, value)


def _cumulant_density(case):
    return kernels.CUMULANT_MEASURES[case][1]


@pytest.mark.parametrize("t", [0.5, 0.55])
def test_cumulant_quadrature_p3_stops_at_three_fifths(t):
    with pytest.raises(ValueError, match="3/5 <= t"):
        cumulant_quadrature("p3", t, 0)
    assert _cumulant_density("p3")(t, 1.0) > 0.0


_POSITIVE_CASES = [("p2", F(7, 6)), ("p2", F(4, 3)), ("p3", F(1, 2)), ("p3", F(3, 2))]


@pytest.mark.parametrize("case, t", _POSITIVE_CASES, ids=_case_ids(_POSITIVE_CASES))
def test_cumulant_measure_is_pointwise_positive(case, t):
    # at 59 even points of the open support, p3 also at t = 1/2, below its quadrature's range
    support, density = kernels.CUMULANT_MEASURES[case]
    t = float(t)
    lo, hi = support(t)
    for i in range(1, 60):
        assert density(t, lo + (hi - lo) * i / 60) >= 0.0, i


@pytest.mark.parametrize(
    "case, t, lo, hi",
    [
        ("p2", 7 / 6, 4 / 3 - 2 * sqrt(7 / 36), 4 / 3 + 2 * sqrt(7 / 36)),
        ("p3", 5 / 4, 0.0, 5.0),
        ("a220910", 0.0, 0.0, 12.0),
        ("a022558", 0.0, 0.0, 8.0),
    ],
)
def test_cumulant_quadrature_integrates_the_pointwise_density(case, t, lo, hi):
    # An independent reference for the theta rule: the density integrated directly in x.  n
    # starts at 1: at n = 0 the 1/sqrt(x) edge of p3 and a220910 keeps the x-space rule from
    # converging.
    f = _cumulant_density(case)
    for n in range(1, 9):
        value, _ = cumulant_quadrature(case, t, n)
        direct, _, ok = kernels.integrate_callable(lambda x: x**n * f(t, x), lo + 1e-12, hi - 1e-12)
        assert ok
        assert abs(value - direct) <= 1e-9 * abs(direct), (n, value, direct)


def test_verbatim_moment_integral_on_one_nine():
    # same measure as the p2 cumulant case at t = 4/3, pushed forward by x -> 3x, written out
    # and integrated in x as an independent reference for the theta rule:
    # integral over [1, 9] of x^n sqrt((x-1)(9-x)^3) / (2 pi x^3)
    table = ex1_table(6)

    def make_integrand(n):
        def g(x):
            return x**n * sqrt((x - 1.0) * (9.0 - x) ** 3) / (2.0 * pi * x**3)

        return g

    for n in range(7):
        value, _, ok = kernels.integrate_callable(make_integrand(n), 1.0 + 1e-12, 9.0 - 1e-12)
        assert ok
        assert value == pytest.approx(float(table.values[n]), rel=1e-7)


def test_quadrature_error_when_depth_exhausted():
    with pytest.raises(QuadratureError):
        moment_quadrature(Params.exact(F(11, 8), F(6, 5)), 20)


def _c9(monkeypatch, case, f):
    """The c9 result with the kernel density of case replaced by f."""
    support = kernels.CUMULANT_MEASURES[case][0]
    monkeypatch.setitem(kernels.CUMULANT_MEASURES, case, (support, f))
    (res,) = verify.run_criteria(only="c9")
    return res


def test_c9_fails_on_a_scaled_p3_density(monkeypatch):
    p3 = _cumulant_density("p3")
    res = _c9(monkeypatch, "p3", lambda t, x: p3(t, x) * (1.0 + 1e-9))
    assert not res.passed
    assert res.detail.startswith("p3 moment 0 at t = 3/5 off by"), res.detail


def test_c9_fails_on_a_negative_density_value(monkeypatch):
    # at t = 1 the p3 support is (0, 4) and its grid point 17 is 17/16, a float the
    # quadrature nodes do not meet
    p3 = _cumulant_density("p3")
    res = _c9(monkeypatch, "p3", lambda t, x: -1e-300 if (t, x) == (1.0, 1.0625) else p3(t, x))
    assert not res.passed
    assert res.detail == "p3 density negative at t = 1, x = 1.0625", res.detail


def test_c9_reaches_every_cumulant_measure(monkeypatch):
    calls = seams.record(monkeypatch, "cumulant_quadrature")
    (res,) = verify.run_criteria(only="c9")
    assert res.passed, res.detail
    assert {case for case, _, _ in calls} == set(kernels.CUMULANT_MEASURES)
