"""Density layer: parametrization vs closed forms, quadrature vs exact values."""

import cmath
import random
import re
from collections import Counter
from fractions import Fraction as F
from math import inf, isfinite, nextafter, pi, sin, sqrt, ulp

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fussdeform
import fussdeform.cli
import fussdeform.density as density
import fussdeform.verify as verify
from fussdeform import (
    DensitySample,
    Params,
    QuadratureError,
    a022558_table,
    a220910_table,
    cumulant_quadrature,
    density_grid,
    ex1_table,
    moment_quadrature,
    moment_quadrature_full,
    moment_series,
    r_series_closed,
    support_c,
    w_closed,
)
from fussdeform._backend import kernels


def _f(params, x, route="parametric"):
    """f_{p,t}(x) at the one point x, by the evaluator behind density_grid."""
    p, t = params.as_floats()
    return density._samples(p, t, [x], route)[0].value


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


def test_support_rejects_small_p():
    with pytest.raises(ValueError):
        support_c(1)
    with pytest.raises(ValueError):
        support_c(0.5)


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
    x, weight = kernels._node(p, 1.0, phi)
    b = cmath.rect(sin(p * phi) / sin((p - 1.0) * phi), phi)
    return weight * pi * x / kernels.mass(1.0, b)


def _rho_difference(p, phi, h=1e-6):
    """The central difference of rho at phi."""
    return (kernels.rho(p, phi + h) - kernels.rho(p, phi - h)) / (2 * h)


def test_rho_prime_closed_value_p2():
    # rho(2, phi) = 4 cos^2 phi  =>  rho' = -4 sin 2phi  =>  rho'(pi/4) = -4
    assert _rho_difference(2, pi / 4) == pytest.approx(-4.0, abs=1e-8)
    assert _node_slope(2, pi / 4) == pytest.approx(4.0, abs=1e-12)


def test_rho_prime_matches_finite_differences():
    rng = random.Random(40902)
    for _ in range(20):
        p = 1.0 + rng.uniform(0.1, 3.0)
        top = pi / p
        phi = rng.uniform(0.15, 0.85) * top
        assert _node_slope(p, phi) == pytest.approx(-_rho_difference(p, phi), rel=1e-6)


def test_rho_prime_negative_throughout():
    # rho decreases, and the node's |rho'| is the size of its differences
    for p in (1.2, 1.5, 2.0, 3.0, 4.5):
        top = pi / p
        for i in range(1, 40):
            numeric = _rho_difference(p, top * i / 40)
            assert numeric < 0.0
            assert _node_slope(p, top * i / 40) == pytest.approx(-numeric, rel=1e-6)


def test_parametric_component_values_p2():
    # W_{2,1}(1) = sqrt(3)/(2 pi) and W_{2,2}(2) = 1/pi; W_{p,r} is f_{p,t} at t = 2 - r
    (s,) = density._samples(2.0, 1.0, [1.0], "parametric")
    assert s.value == pytest.approx(sqrt(3.0) / (2.0 * pi), abs=1e-12)
    assert s.x == 1.0 and 0.0 < s.phi < pi / 2
    assert _f(Params.exact(2, 0), 2.0) == pytest.approx(1.0 / pi, abs=1e-12)


def test_parametric_components_agree_with_all_six_closed_forms():
    # W_{p,r} is f_{p,t} at t = 2 - r, sampled at x = c(p) i/51, i = 1..50
    for p in (F(2), F(3), F(3, 2)):
        upper = support_c(float(p))
        for r in (1, 2):
            grid = density_grid(Params.exact(p, 2 - r), 50)
            assert [s.x for s in grid] == [upper * i / 51 for i in range(1, 51)]
            for x, _, a in grid:
                b = w_closed(p, r, x)
                assert abs(a - b) <= 1e-10, (p, r, x, a, b)


def test_w_closed_accepts_float_and_fraction_p():
    assert w_closed(2, 1, 1.0) == w_closed(2.0, 1, 1.0) == w_closed(F(2), 1, 1.0)
    assert w_closed(1.5, 2, 1.0) == w_closed(F(3, 2), 2, 1.0)


def test_w_closed_domain_checks():
    with pytest.raises(ValueError):
        w_closed(5, 1, 1.0)
    with pytest.raises(ValueError):
        w_closed(2, 3, 1.0)
    with pytest.raises(ValueError):
        w_closed(2, 1, 4.0)
    with pytest.raises(ValueError):
        w_closed(2, 1, 0.0)


def test_closed_route_error_messages():
    # The first failing check names the fault.  w_closed checks that p is a
    # number, then r, p > 1, x and the form for p; density_grid the grid size,
    # p > 1, the route and the form.
    five, one = Params.exact(5, 1), Params.exact(1, 1)
    cases = [
        (lambda: w_closed("two", 1, 1.0), "unsupported p='two' for the closed forms"),
        (lambda: w_closed(1, 1, 0.5), "support requires p > 1"),
        (lambda: w_closed(5, 3, 1.0), "closed forms cover r in {1, 2}"),
        (lambda: w_closed(5, 1, 100.0), "x must lie in the open support (0, 12.20703125)"),
        (lambda: w_closed(2, 1, 4.0), "x must lie in the open support (0, 4.0)"),
        (lambda: w_closed(5, 1, 1.0), "closed forms cover p in {2, 3, 3/2}"),
        (lambda: density_grid(one, 0, "series"), "grid_size must be positive"),
        (lambda: density_grid(one, 3, "series"), "support requires p > 1"),
        (lambda: density_grid(five, 3, "series"), "route must be 'parametric' or 'closed'"),
        (lambda: density_grid(five, 3, "closed"), "closed forms cover p in {2, 3, 3/2}"),
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


def test_density_routes_agree():
    rng = random.Random(77)
    for p in (F(2), F(3), F(3, 2)):
        upper = support_c(float(p))
        for _ in range(20):
            t = F(rng.randint(0, 8), 6)
            x = rng.uniform(0.02, 0.98) * upper
            params = Params.exact(p, t)
            a = _f(params, x, route="parametric")
            b = _f(params, x, route="closed")
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


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


def test_density_rejects_an_unknown_route():
    with pytest.raises(ValueError):
        _f(Params.exact(2, 1), 1.0, route="series")


def _w_phi(p, r, phi):
    """The angle form of the component density W_{p,r} at x = rho(p, phi)."""
    return (
        sin((p - 1.0) * phi) ** (p - r - 1.0)
        * sin(phi)
        * sin(r * phi)
        / (pi * sin(p * phi) ** (p - r))
    )


def test_phi_form_is_the_affine_combination():
    # mass(t, B) / (pi x) at the root B of x (B - 1) = B^p against the angle forms at arg B
    rng = random.Random(8833)
    for _ in range(40):
        p = 1.0 + rng.uniform(0.1, 3.0)
        t = rng.uniform(-1.0, 2.0)
        x = kernels.rho(p, rng.uniform(0.05, 0.95) * pi / p)
        (b,) = kernels.rho_bisect(p, [x])
        phi = cmath.phase(b)
        combo = t * _w_phi(p, 1.0, phi) + (1.0 - t) * _w_phi(p, 2.0, phi)
        assert kernels.mass(t, b) / (pi * x) == pytest.approx(combo, rel=1e-11, abs=1e-12)


def test_density_sign_inside_theorem_region_p2():
    for t in (F(0), F(1), F(4, 3)):
        params = Params.exact(2, t)
        for s in density_grid(params, 100):
            assert s.value >= -1e-12


def test_density_sign_outside_theorem_region_p2():
    for t in (F(-1, 10), F(7, 5)):
        params = Params.exact(2, t)
        values = [s.value for s in density_grid(params, 100)]
        assert min(values) < -1e-4


def test_density_nonnegative_at_the_critical_pair():
    # t = 1/5 is the smallest admissible deformation at p = 3/2
    params = Params.exact(F(3, 2), F(1, 5))
    for s in density_grid(params, 200):
        assert s.value >= -1e-12


def test_density_grid_layout():
    params = Params.exact(2, 1)
    grid = density_grid(params, 7)
    assert len(grid) == 7
    assert grid[0].x == pytest.approx(4.0 / 8.0)
    assert grid[-1].x == pytest.approx(4.0 * 7.0 / 8.0)
    assert all(a.x < b.x for a, b in zip(grid, grid[1:]))
    closed = density_grid(params, 7, route="closed")
    for a, b in zip(grid, closed):
        assert a.value == pytest.approx(b.value, rel=1e-10, abs=1e-12)
        assert b.phi is None


def test_gk_rule_is_exact_on_polynomials():
    val, err, resabs = kernels._gk15(lambda x: x**13, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 14.0, rel=1e-14)
    assert err < 1e-12
    total, err, ok = kernels.integrate_callable(sin, 0.0, pi)
    assert ok
    assert total == pytest.approx(2.0, rel=1e-12)


def _gk15_sum_loop(h, fx):
    """_gk15_sum as a loop over the node pairs, branching per pair for the Gauss sum;
    also returns d = |kronrod - gauss|."""
    fc = fx[0]
    kron = kernels._WGK[7] * fc
    gauss = kernels._WG[3] * fc
    resabs = kernels._WGK[7] * abs(fc)
    for j in range(7):
        f1 = fx[2 * j + 1]
        f2 = fx[2 * j + 2]
        kron += kernels._WGK[j] * (f1 + f2)
        resabs += kernels._WGK[j] * (abs(f1) + abs(f2))
        if j & 1:
            gauss += kernels._WG[(j - 1) // 2] * (f1 + f2)
    kron *= h
    gauss *= h
    resabs *= h
    d = abs(kron - gauss)
    err = d
    if 0.0 < 200.0 * d < 1.0:
        scaled = (200.0 * d) ** 1.5
        if scaled < err:
            err = scaled
    floor = 50.0 * kernels._EPS * resabs
    if err < floor:
        err = floor
    return (kron, err, resabs), d


def test_gk15_sum_matches_the_loop():
    rng = random.Random(1983)
    scaled_d = {"below 1": 0, "at least 1": 0}
    for _ in range(4000):
        h = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        if rng.random() < 0.5:
            # entries of wholly different sizes and signs, some of them zero
            fx = [
                0.0 if rng.random() < 0.1
                else rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
                for _ in range(15)
            ]
        else:
            # a smooth-looking panel at one scale, so Gauss and Kronrod nearly agree
            scale = 10.0 ** rng.uniform(-300.0, 300.0)
            fx = [
                scale * (1.0 + 10.0 ** rng.uniform(-16.0, 0.0) * rng.uniform(-1.0, 1.0))
                for _ in range(15)
            ]
        expected, d = _gk15_sum_loop(h, fx)
        assert kernels._gk15_sum(h, fx) == expected, (h, fx)
        if d > 0.0:
            scaled_d["below 1" if 200.0 * d < 1.0 else "at least 1"] += 1
    assert min(scaled_d.values()) > 500, scaled_d


def test_gk_error_estimate_survives_huge_integrands():
    # Gauss and Kronrod differ by ~1e247 here, so (200 d)^1.5 would overflow.
    val, err, _ = kernels._gk15(lambda x: 1e250 * x**40, 0.0, 1.0)
    assert val == pytest.approx(1e250 / 41.0, rel=1e-6)
    assert 0.0 < err < val


def test_backend_name_is_python():
    assert fussdeform.backend_name == "python"


def test_rho_bisect_recovers_the_angle():
    rng = random.Random(2026)
    for _ in range(25):
        p = 1.1 + 2.9 * rng.random()
        top = pi / p
        phi0 = (0.05 + 0.9 * rng.random()) * top
        x = kernels.rho(p, phi0)
        (b,) = kernels.rho_bisect(p, [x])
        assert abs(cmath.phase(b) - phi0) <= 1e-9


def _phi_condition(p, x, phi):
    """How far an error of an ulp in the terms of x (B - 1) = B^p moves phi = arg B:
    _EPS (x |B - 1| + |B|^p) / (|h'(B)| |B|), with h'(B) = x - p B^p / B and
    B = e^(i phi) sin(p phi) / sin((p - 1) phi).  It grows without bound next to c(p), at the
    double root, and everywhere as p nears 1."""
    b = cmath.rect(sin(p * phi) / sin((p - 1.0) * phi), phi)
    power = b**p
    slope = abs(x - p * power / b) * abs(b)
    return kernels._EPS * (x * abs(b - 1.0) + abs(power)) / slope if slope else inf


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=1.0, max_value=100.0, exclude_min=True),
    us=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)),
    repeats=st.lists(st.integers(min_value=0, max_value=200), max_size=8),
)
def test_rho_bisect_grid_matches_each_point_solved_alone(p, us, repeats):
    # the roots of a sorted grid, solved by one continuation, against each point solved on its
    # own from the double root: the starts differ, so the floats may too, within 1e-13; within
    # 1% of c(p) the double root makes phi ill-conditioned, and the bound adds 64 times what
    # rounding moves phi by there
    upper = support_c(p)
    # random points, a grid, a point within 1e-9 of each end, then duplicates
    xs = [upper * u for u in us] + [upper * i / 65 for i in range(1, 65)]
    xs += [upper * 1e-9, upper * (1.0 - 1e-9)]
    xs = [x for x in xs if x < upper]
    xs += [xs[i % len(xs)] for i in repeats]
    xs.sort()
    try:
        grid = [cmath.phase(b) for b in kernels.rho_bisect(p, xs)]
    except OverflowError as exc:
        # the grid may lose only a point that is lost alone too, or, a few ulps above p = 1, one
        # whose root alone is within a few ulps of pi/p: there the rounding of arg B decides the
        # sector check, whatever the start
        message = re.escape(f"rho's inversion left the float range at p={p}, x=")
        lost = re.fullmatch(message + "(.+)", str(exc))
        assert lost, str(exc)
        try:
            (alone,) = kernels.rho_bisect(p, [float(lost[1])])
        except OverflowError:
            return
        assert pi / p - cmath.phase(alone) <= 8.0 * ulp(pi), (lost[1], alone)
        return
    for x, phi in zip(xs, grid):
        # the continuation may reach a point that its halvings from c(p) do not reach alone,
        # such as x = 1e-45 c(p); the converse is what this test looks for
        try:
            (alone,) = kernels.rho_bisect(p, [x])
        except OverflowError as exc:
            assert f"p={p}, x={x}" in str(exc)
            continue
        alone = cmath.phase(alone)
        bound = 1e-13 if x <= 0.99 * upper else 1e-13 + 64.0 * _phi_condition(p, x, phi)
        assert abs(alone - phi) <= bound, (x, alone, phi)


def test_density_grid_next_to_p_1_is_a_float_limit(capsys):
    # an ulp above p = 1 the root of the smallest x rounds to pi/p, out of the open sector
    p = F(nextafter(1.0, 2.0))
    with pytest.raises(OverflowError, match=re.escape(f"at p={float(p)}, x=")):
        density_grid(Params.exact(p, F(1, 2)), 5)
    assert fussdeform.cli.main(["density", "--p", str(p), "--t", "1/2", "--grid", "5"]) == 2
    assert capsys.readouterr().err == "fussdeform: error: a value left the float range\n"


@pytest.mark.parametrize("p, grid", [("1.0000000000000002", 3), ("1.0000000000001", 1000)])
def test_density_next_to_p_1_prints_through_a_restart(monkeypatch, capsys, p, grid):
    # next to p = 1 the continuation loses a point at its first attempt and solves it from
    # halfway to the last accepted x: these grids print only through that restart
    real_newton = kernels._newton
    attempts = []

    def counted_newton(p, x, b):
        attempts.append(x)
        return real_newton(p, x, b)

    monkeypatch.setattr(kernels, "_newton", counted_newton)
    assert fussdeform.cli.main(["density", "--p", p, "--t", "1/2", "--grid", str(grid)]) == 0
    assert len(attempts) > grid
    _, *rows = capsys.readouterr().out.splitlines()
    phis = [float(row.split(",")[1]) for row in rows]
    assert len(phis) == grid and all(0.0 < phi < pi / float(p) for phi in phis)
    # every phi is within 1e-9 of pi/p, where neighbouring points may round to the same float
    assert all(a >= b for a, b in zip(phis, phis[1:]))


def test_each_evaluation_solves_its_points_by_one_kernel_call(monkeypatch):
    real_rho_bisect = kernels.rho_bisect
    calls = []

    def recorded_rho_bisect(p, xs):
        calls.append(("rho_bisect", len(xs)))
        return real_rho_bisect(p, xs)

    monkeypatch.setattr(kernels, "rho_bisect", recorded_rho_bisect)
    params = Params.exact(2, F(1, 3))
    for evaluate, points in (
        (lambda: density_grid(params, 500), 500),
        (lambda: _f(params, 1.0), 1),
        (lambda: density_grid(params, 500, route="closed"), None),
        (lambda: _f(params, 1.0, route="closed"), None),
    ):
        calls.clear()
        evaluate()
        assert calls == ([] if points is None else [("rho_bisect", points)])
    assert not hasattr(kernels, "rho_bisect_grid")


@pytest.mark.parametrize("p", [1.000001, 1.001, 1.01, 4.0, 20.0])
def test_rho_bisect_stops_newton_at_the_rounding_floor(p):
    # next to the double root, and everywhere at p next to 1, rounding keeps Newton's steps
    # from shrinking to 4 _EPS |B|; it stops where they stop shrinking, so these points solve
    upper = support_c(p)
    xs = [upper * i / 2001 for i in range(1, 2001)]
    for xs in (xs, *([upper * (1.0 - 10.0**-e)] for e in (4, 5, 6, 10, 14, 16))):
        phis = [cmath.phase(b) for b in kernels.rho_bisect(p, xs)]
        assert all(0.0 < phi < pi / p for phi in phis), (p, xs[-1])
        assert all(a > b for a, b in zip(phis, phis[1:])), p


def test_rho_bisect_recovers_a_lost_point_from_halfway(monkeypatch):
    # a Newton that loses every point of the grid at its first attempt: each is solved after
    # one halving, from the root halfway to the last accepted x, as by the plain continuation
    real_newton = kernels._newton
    p = 2.5
    xs = [support_c(p) * i / 21 for i in range(1, 21)]
    expected = [cmath.phase(b) for b in kernels.rho_bisect(p, xs)]
    targets = []

    def losing_newton(p, x, b):
        targets.append(x)
        return None if x in xs and targets.count(x) == 1 else real_newton(p, x, b)

    monkeypatch.setattr(kernels, "_newton", losing_newton)
    phis = [cmath.phase(b) for b in kernels.rho_bisect(p, xs)]
    assert max(abs(a - b) for a, b in zip(phis, expected)) <= 1e-13
    anchors = [support_c(p)] + xs[::-1]
    halfway = [0.5 * (a + x) for a, x in zip(anchors, xs[::-1])]
    assert targets == [t for x, h in zip(xs[::-1], halfway) for t in (x, h, x)]


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
    # accepted, and after at most _HALVINGS halvings, each an attempt and maybe a second one
    # from the halfway point, the float limit names it
    real_newton = kernels._newton
    tries = []

    def faulty_newton(p, x, b):
        root = real_newton(p, x, b)
        tries.append(x)
        return None if root is None else fault(root, b)

    monkeypatch.setattr(kernels, "_newton", faulty_newton)
    for p in (1.5, 2.0, 37.0 / 13.0, 20.0):
        for xs in ([support_c(p) / 2.0], [support_c(p) * i / 11 for i in range(1, 11)]):
            tries.clear()
            with pytest.raises(OverflowError, match=re.escape(f"at p={p}, x={xs[-1]}")):
                kernels.rho_bisect(p, xs)
            assert len(tries) <= 2 * kernels._HALVINGS + 1, (p, len(xs))


@settings(max_examples=80, deadline=None)
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
    # a limit met by a later moment of the table names that moment
    adaptive, runs = kernels._adaptive, []

    def underflow_at_n2(*args):
        runs.append(args)
        if len(runs) == 3:
            raise ZeroDivisionError("float division by zero")
        return adaptive(*args)

    monkeypatch.setattr(kernels, "_adaptive", underflow_at_n2)
    with pytest.raises(OverflowError, match=re.escape("p=2.0, t=0.5, n=2")):
        moment_quadrature_full(Params.exact(2, F(1, 2)), 5)


@pytest.mark.parametrize("p, t", [(F(3, 2), F(1, 5)), (F(5, 2), F(1, 2)), (F(97, 37), F(1, 3))])
def test_density_grid_matches_each_point_evaluated_alone(p, t):
    # the grid, solved by one continuation, against each of its points evaluated on its own:
    # phi within 1e-13, and the value within what that moves f
    params = Params.exact(p, t)
    pf, tf = params.as_floats()
    for s in density_grid(params, 1000):
        ((x, phi, value),) = density._samples(pf, tf, [s.x], "parametric")
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
    near_c = density._samples(pf, tf, near_c, "parametric")
    refs = [_density_reference(pf, tf, s.x) for s in samples + near_c]
    scale = max(abs(f_star) for _, f_star, _ in refs[: len(samples)])
    for i, (s, (phi_star, f_star, slope)) in enumerate(zip(samples + near_c, refs)):
        bound = 1e-13 if i < len(samples) else 1e-13 + 16.0 * _phi_condition(pf, s.x, s.phi)
        assert abs(s.phi - phi_star) <= bound, s.x
        assert abs(s.value - f_star) <= abs(slope) * bound + 1e-14 * scale, s.x


def test_density_sample_fields_are_fixed():
    sample = density_grid(Params.exact(2, 1), 3)[0]
    assert DensitySample._fields == ("x", "phi", "value")
    assert sample == DensitySample(x=sample.x, phi=sample.phi, value=sample.value)
    for name in DensitySample._fields:
        with pytest.raises(AttributeError):
            setattr(sample, name, 0.0)


def test_moment_quad_is_deterministic():
    assert kernels.moment_quad(1.5, 0.2, 3) == kernels.moment_quad(1.5, 0.2, 3)


def _moment_quad_reference(p, t, n):
    """One moment with no shared samples: every panel samples the integrand afresh."""

    def g(phi):
        x, weight = kernels._node(p, t, phi)
        return x**n * weight

    return kernels.integrate_callable(g, kernels._INSET, pi / p - kernels._INSET)


def test_moment_quad_reuse_is_bit_identical():
    # the floats of moments 0, 5 and 12, which a call integrating the one moment gives too
    assert [kernels.moment_quad(2.5, 0.5, 12)[n] for n in (0, 5, 12)] == [
        (0.9999999999990051, 2.0005390188949322e-12, True),
        (229.55078125000003, 3.4405097661100986e-12, True),
        (9332163.750000006, 2.7201101058937465e-06, True),
    ]
    rng = random.Random(1507)
    points = [(1.5, 0.2), (1.5, 1.2), (2.0, 0.5), (2.0, 4.0 / 3.0), (3.0, 1.0), (3.0, 0.0)]
    for _ in range(20):
        p = 4.0 - 3.0 * rng.random()
        points.append((p, 2.0 * p / (p + 1.0) * rng.random()))
    for p, t in points:
        # each n of the table reads the samples the earlier n left behind
        table = kernels.moment_quad(p, t, 200)
        assert len(table) == 201 and all(ok for _, _, ok in table), (p, t)
        for n in sorted(rng.sample(range(201), 6)) + [0, 200]:
            value, err, ok = table[n]
            ref_value, ref_err, ref_ok = _moment_quad_reference(p, t, n)
            assert (value, ok) == (ref_value, ref_ok), (p, t, n)
            # moment_quad adds the rounding of rho^n and the end slices
            assert err >= ref_err, (p, t, n)


def test_moment_quad_keeps_at_most_the_kept_panels(monkeypatch, capsys):
    # one kernel call per moments-check, whatever its n-max
    calls = []
    real = kernels.moment_quad
    monkeypatch.setattr(kernels, "moment_quad", lambda *args: calls.append(args) or real(*args))
    for argv in (("--p", "5/2", "--t", "1/2"), ("--p", "7/3", "--t", "2/3")):
        assert fussdeform.cli.main(["moments-check", *argv, "--n-max", "12"]) == 0
    capsys.readouterr()
    assert calls == [(2.5, 0.5, 12, 1e-10), (7.0 / 3.0, 2.0 / 3.0, 12, 1e-10)]
    monkeypatch.setattr(kernels, "moment_quad", real)
    expected = kernels.moment_quad(2.5, 0.5, 12)
    kept = kernels._KEPT_PANELS
    nodes = kernels._gk15_nodes
    sampled = []
    monkeypatch.setattr(kernels, "_gk15_nodes", lambda a, b: sampled.append((a, b)) or nodes(a, b))
    # with room for 4 panels, the first 4 sampled are kept and each n samples the others again:
    # every n asks for the 8 initial panels
    monkeypatch.setattr(kernels, "_KEPT_PANELS", 4)
    assert kernels.moment_quad(2.5, 0.5, 12) == expected
    counts = Counter(sampled)
    assert [counts[panel] for panel in list(counts)[:8]] == [1] * 4 + [13] * 4
    # a quadrature that gives up after 4096 panels, at n = 20, keeps the first _KEPT_PANELS
    monkeypatch.setattr(kernels, "_KEPT_PANELS", kept)
    sampled.clear()
    table = kernels.moment_quad(11.0 / 8.0, 6.0 / 5.0, 240)
    counts = Counter(sampled)
    assert len(counts) > kept == 256
    assert [counts[panel] for panel in list(counts)[:kept]] == [1] * kept
    assert [ok for _, _, ok in table] == [True] * 20 + [False]
    assert table[20][::2] == _moment_quad_reference(11.0 / 8.0, 6.0 / 5.0, 20)[::2]


def test_masses_normalize_to_one():
    pairs = [
        (F(2), F(1, 2)),
        (F(2), F(4, 3)),
        (F(3), F(1)),
        (F(3), F(3, 2)),
        (F(3, 2), F(1, 5)),
        (F(5, 2), F(1)),
        (F(6, 5), F(1, 2)),
        (F(4), F(0)),
        (F(2), F(0)),
        (F(2), F(1)),
        (F(3), F(0)),
        (F(3, 2), F(1)),
    ]
    for p, t in pairs:
        mass = moment_quadrature(Params.exact(p, t), 0)
        assert mass == pytest.approx(1.0, abs=1e-9), (p, t, mass)


def test_moment_quadrature_matches_exact_moments():
    pairs = [(F(2), F(1, 2)), (F(2), F(4, 3)), (F(3), F(1)), (F(3, 2), F(1, 5))]
    for p, t in pairs:
        params = Params.exact(p, t)
        mom = moment_series(params, 10)
        table = moment_quadrature_full(params, 10)
        assert len(table) == 11
        for n in (0, 4, 10):
            assert moment_quadrature(params, n) == table[n][0], (p, t, n)
        for n, (value, est) in enumerate(table[1:], 1):
            exact = float(mom.coefficient(n))
            assert abs(value - exact) <= 1e-8 * abs(exact), (p, t, n, value, exact)
            assert est < 1e-6


def test_cumulant_measure_p2_matches_free_cumulants():
    for t in (F(7, 6), F(4, 3)):
        cum = r_series_closed(F(2), t, 9)
        mass, _ = cumulant_quadrature("p2", float(t), 0)
        assert mass == pytest.approx(1.0, rel=1e-7)
        for n in range(1, 9):
            value, _ = cumulant_quadrature("p2", float(t), n)
            exact = float(cum.coefficient(n))
            assert abs(value - exact) <= 1e-7 * abs(exact), (t, n, value, exact)


def test_cumulant_measure_p3_matches_free_cumulants():
    for t in (F(3, 2), F(5, 4)):
        cum = r_series_closed(F(3), t, 9)
        mass, _ = cumulant_quadrature("p3", float(t), 0)
        assert mass == pytest.approx(1.0, rel=1e-7)
        for n in range(1, 9):
            value, _ = cumulant_quadrature("p3", float(t), n)
            exact = float(cum.coefficient(n))
            assert abs(value - exact) <= 1e-7 * abs(exact), (t, n, value, exact)


def test_cumulant_measure_p3_quadrature_from_three_fifths():
    for k in range(6, 16):
        t = F(k, 10)
        cum = r_series_closed(F(3), t, 9)
        for n in range(9):
            value, err = cumulant_quadrature("p3", float(t), n)
            exact = 1.0 if n == 0 else float(cum.coefficient(n))
            assert abs(value - exact) <= err, (t, n, value, exact, err)


def _cumulant_density(case):
    return kernels.CUMULANT_MEASURES[case][1]


@pytest.mark.parametrize("t", [0.5, 0.55])
def test_cumulant_quadrature_p3_stops_at_three_fifths(t):
    with pytest.raises(ValueError, match="3/5 <= t"):
        cumulant_quadrature("p3", t, 0)
    assert _cumulant_density("p3")(t, 1.0) > 0.0


def test_cumulant_measure_p3_pointwise_positive_at_edges_of_t():
    for t in (0.5, 1.5):
        for i in range(1, 60):
            x = 4.0 * t * i / 60
            assert _cumulant_density("p3")(t, x) >= 0.0


def test_cumulant_measure_p2_pointwise_positive():
    for t in (7.0 / 6.0, 4.0 / 3.0):
        lo = 2 * t - 1 - 2 * sqrt(t * t - t)
        hi = 2 * t - 1 + 2 * sqrt(t * t - t)
        for i in range(1, 60):
            x = lo + (hi - lo) * i / 60
            assert _cumulant_density("p2")(t, x) >= 0.0


@pytest.mark.parametrize(
    "t", [F(7, 6), F(4, 3), F(11, 10), None], ids=["p2-7_6", "p2-4_3", "p2-11_10", "a022558"]
)
def test_cumulant_moments_to_fourteen_digits(t):
    # p2 at t (None: a022558) against its exact moments 1, r_1, ..., r_8 (the a022558 terms)
    if t is None:
        case, tf, exact = "a022558", 0.0, a022558_table(8).values
    else:
        r = r_series_closed(F(2), t, 8)
        case, tf, exact = "p2", float(t), [F(1)] + [r.coefficient(n) for n in range(1, 9)]
    for n in range(9):
        value, _ = cumulant_quadrature(case, tf, n)
        assert abs(value - float(exact[n])) <= 1e-14 * float(exact[n]), (case, t, n, value)


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


def test_fixed_measures_reproduce_integer_sequences():
    table = a220910_table(8)
    for n in range(9):
        value, _ = cumulant_quadrature("a220910", 0.0, n)
        assert value == pytest.approx(float(table.values[n]), rel=1e-9)
    table = a022558_table(8)
    for n in range(9):
        value, _ = cumulant_quadrature("a022558", 0.0, n)
        assert value == pytest.approx(float(table.values[n]), rel=1e-9)


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


def test_moment_quadrature_domain_checks():
    with pytest.raises(ValueError):
        moment_quadrature(Params.exact(1, 1), 0)
    with pytest.raises(ValueError):
        moment_quadrature(Params.exact(2, 1), -1)


def test_cumulant_quadrature_domain_checks():
    with pytest.raises(ValueError, match="1 < t <= 4/3"):
        cumulant_quadrature("p2", 0.9, 0)
    with pytest.raises(ValueError, match="1 < t <= 4/3"):
        cumulant_quadrature("p2", 1.0, 0)  # t must exceed 1
    with pytest.raises(ValueError, match="1 < t <= 4/3"):
        cumulant_quadrature("p2", 1.5, 0)  # t above 4/3
    with pytest.raises(ValueError, match="1/2 <= t <= 3/2"):
        cumulant_quadrature("p3", 0.4, 0)
    with pytest.raises(ValueError, match="1/2 <= t <= 3/2"):
        cumulant_quadrature("p3", 1.6, 0)
    with pytest.raises(ValueError, match="unknown case"):
        cumulant_quadrature("nope", 1.2, 0)
    with pytest.raises(ValueError, match="unknown case"):
        cumulant_quadrature("hankel", 1.0, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        cumulant_quadrature("p3", 1.2, -1)
    with pytest.raises(ValueError):
        kernels.cumulant_quad("p4", 1.0, 0)


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
    seen = []

    def recording(case, t, n):
        seen.append(case)
        return cumulant_quadrature(case, t, n)

    monkeypatch.setattr(verify, "cumulant_quadrature", recording)
    (res,) = verify.run_criteria(only="c9")
    assert res.passed, res.detail
    assert set(seen) == set(kernels.CUMULANT_MEASURES)
