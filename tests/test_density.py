"""Density layer: parametrization vs closed forms, quadrature vs exact values."""

import random
import re
from collections import Counter
from fractions import Fraction as F
from math import frexp, isfinite, nextafter, pi, sin, sqrt

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fussdeform
import fussdeform.cli
import fussdeform.density as density
import fussdeform.verify as verify
from fussdeform import (
    BracketingError,
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
    for p in (143, 144, 150, 197.5):
        with mpmath.workdps(40):
            ref = mpmath.mpf(p) ** p * (mpmath.mpf(p) - 1) ** (1 - mpmath.mpf(p))
        assert abs(support_c(p) - ref) <= 2e-14 * ref, p
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


def test_rho_prime_closed_value_p2():
    # rho(2, phi) = 4 cos^2 phi  =>  rho' = -4 sin 2phi  =>  rho'(pi/4) = -4
    assert kernels.rho_prime(2, pi / 4) == pytest.approx(-4.0, abs=1e-12)


def test_rho_prime_matches_finite_differences():
    rng = random.Random(40902)
    h = 1e-6
    for _ in range(20):
        p = 1.0 + rng.uniform(0.1, 3.0)
        top = pi / p
        phi = rng.uniform(0.15, 0.85) * top
        numeric = (kernels.rho(p, phi + h) - kernels.rho(p, phi - h)) / (2 * h)
        assert kernels.rho_prime(p, phi) == pytest.approx(numeric, rel=1e-6)


def test_rho_prime_negative_throughout():
    for p in (1.2, 1.5, 2.0, 3.0, 4.5):
        top = pi / p
        for i in range(1, 40):
            assert kernels.rho_prime(p, top * i / 40) < 0.0


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
    "route, p, x", [("parametric", F(3, 2), 0.649519052838329), ("closed", F(2), 0.01)]
)
@pytest.mark.parametrize("t", [F(10) ** 308, -F(10) ** 308])
def test_non_finite_density_is_a_float_limit(route, p, x, t):
    params = Params.exact(p, t)
    with pytest.raises(OverflowError):
        _f(params, x, route=route)
    with pytest.raises(OverflowError):
        density_grid(params, 3 if route == "parametric" else 400, route=route)


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
    rng = random.Random(8833)
    for _ in range(40):
        p = 1.0 + rng.uniform(0.1, 3.0)
        t = rng.uniform(-1.0, 2.0)
        phi = rng.uniform(0.05, 0.95) * pi / p
        combo = t * _w_phi(p, 1.0, phi) + (1.0 - t) * _w_phi(p, 2.0, phi)
        assert kernels.f_phi(p, t, phi) == pytest.approx(combo, rel=1e-11, abs=1e-12)


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


def _plain_bisect(p, x, lo, hi, tol=1e-13):
    """rho_bisect as plain bisection, which evaluates rho at every midpoint."""
    while (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if kernels.rho(p, mid) >= x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_rho_scan_cells_are_dyadic_with_a_window(monkeypatch):
    # the scan points are h, 2h, ..., K h for a power of two h with (K + 1) h < pi/p, so each
    # interior cell has a power-of-two width and a left end that is a multiple of it, and
    # stays far enough from pi/p for _cell_eta to bound its window; rho_bisect at the scan
    # values bisects every interior cell and bounds the window of each (one _cell_eta call per
    # cell); p near 1, a spread of rational p = a/b in (1, 4] with b from 8 to 48, and large p
    real_eta = kernels._cell_eta
    cells = []

    def recorded_eta(p, lo, hi):
        eta = real_eta(p, lo, hi)
        cells.append((lo, hi, eta))
        return eta

    monkeypatch.setattr(kernels, "_cell_eta", recorded_eta)
    ps = (
        [1.0 + i / 1000 for i in range(1, 50)]
        + [float(F(a, b)) for b in range(8, 49, 4) for a in range(b + 1, 4 * b + 1, 3)]
        + [20.0, 62.0, 100.0]
    )
    for p in ps:
        ends, vals = kernels._rho_scan(p)
        phis = ends[1:-1]
        h = phis[0]
        assert [ends[0], ends[-1]] == [pi / p * 1e-12, pi / p - pi / p * 1e-12], p
        assert len(phis) >= 64, p
        assert frexp(h)[0] == 0.5 and phis == [i * h for i in range(1, len(phis) + 1)], p
        assert (len(phis) + 1) * h < pi / p, p
        cells.clear()
        kernels.rho_bisect(p, vals[::-1])
        assert [(lo, hi) for lo, hi, _ in cells] == list(zip(phis, phis[1:]))[::-1], p
        for lo, hi, eta in cells:
            width = hi - lo
            assert frexp(width)[0] == 0.5 and lo % width == 0.0, (p, lo)
            assert eta is not None, (p, lo)


@st.composite
def _bracket_windows(draw):
    """A bracket [lo, hi] in (0, pi) and a window lo <= a < b <= hi: mostly a dyadic bracket,
    sometimes one moved by a third of its width or stretched by 11/8, which is not; each end
    of the window the bracket's, a leaf boundary or a point inside a leaf, the window inside
    one leaf, across a few or across many."""
    level = draw(st.integers(min_value=-44, max_value=-2))
    width = 2.0**level
    lo = draw(st.integers(min_value=0, max_value=int(pi / width) - 3)) * width
    lo += draw(st.sampled_from([0.0, 0.0, 0.0, 1.0 / 3.0])) * width
    hi = lo + draw(st.sampled_from([1.0, 1.0, 1.0, 1.375])) * width
    leaf = kernels._LEAF
    leaves = int((hi - lo) / leaf)
    inside = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    ia = draw(st.integers(min_value=0, max_value=leaves))
    ib = draw(
        st.one_of(
            st.just(ia),
            st.integers(min_value=ia, max_value=min(ia + 3, leaves)),
            st.integers(min_value=ia, max_value=leaves),
        )
    )
    a = draw(st.one_of(st.just(lo), st.just(min(lo + (ia + draw(inside)) * leaf, hi))))
    b = draw(st.one_of(st.just(hi), st.just(min(lo + (ib + draw(inside)) * leaf, hi))))
    return lo, hi, a, b


@settings(max_examples=400, deadline=None)
@given(window=_bracket_windows(), salt=st.integers(min_value=0, max_value=2**32))
def test_bisect_jump_returns_plain_bisection(window, salt):
    # a rho that is >= x up to a, < x from b on and arbitrary in between: whatever it says
    # inside the window, _bisect returns the float of plain bisection over the whole bracket,
    # from the dyadic interval that holds the window in a dyadic bracket, from the bracket in
    # any other
    lo, hi, a, b = window
    assume(a < b)

    def window_rho(p, phi):
        if phi <= a:
            return 1.0
        if phi >= b:
            return 0.0
        return float(hash((phi, salt)) & 1)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "rho", window_rho)
        assert kernels._bisect(2.0, 0.5, lo, hi, a, b) == _plain_bisect(2.0, 0.5, lo, hi)


def test_rho_bisect_recovers_the_angle():
    rng = random.Random(2026)
    for _ in range(25):
        p = 1.1 + 2.9 * rng.random()
        top = pi / p
        phi0 = (0.05 + 0.9 * rng.random()) * top
        x = kernels.rho(p, phi0)
        (phi,) = kernels.rho_bisect(p, [x])
        assert abs(phi - phi0) <= 1e-9
        assert phi == _plain_bisect(p, x, *_scan_cells(p, [x])[0])


def _scan_cells(p, xs):
    """The bracket rho_bisect bisects for each x: the cell above the first scan value, the one
    below the last, or else the first scan cell with vals[i] >= x >= vals[i + 1]."""
    ends, vals = kernels._rho_scan(p)
    phis = ends[1:-1]
    top = pi / p
    cells = []
    for x in xs:
        if x > vals[0]:
            cells.append((top * 1e-12, phis[0]))
        elif x < vals[-1]:
            cells.append((phis[-1], top - top * 1e-12))
        else:
            i = next(i for i in range(len(vals) - 1) if vals[i] >= x >= vals[i + 1])
            cells.append((phis[i], phis[i + 1]))
    return cells


def test_rho_bisect_is_plain_bisection_with_fewer_rho_calls(monkeypatch):
    # every point of density_grid and of a one-point evaluation ends in one _bisect call, which
    # closes the count of its rho calls
    real_rho, real_bisect, real_scan = kernels.rho, kernels._bisect, kernels._rho_scan
    count = [0]
    solves = []

    def counted_rho(p, phi):
        count[0] += 1
        return real_rho(p, phi)

    def recorded_bisect(p, x, lo, hi, a, b):
        phi = real_bisect(p, x, lo, hi, a, b)
        solves.append((p, x, lo, hi, phi, count[0]))
        count[0] = 0
        return phi

    def uncounted_scan(p):
        # the scan brackets every point of a call; its rho calls belong to no one solve
        scan = real_scan(p)
        count[0] = 0
        return scan

    monkeypatch.setattr(kernels, "rho", counted_rho)
    monkeypatch.setattr(kernels, "_bisect", recorded_bisect)
    monkeypatch.setattr(kernels, "_rho_scan", uncounted_scan)
    for p in (F(101, 100), F(3, 2), F(2), F(37, 13), F(4), F(20), F(100)):
        params = Params.exact(p, F(1, 3))
        _, vals = kernels._rho_scan(float(p))
        count[0] = 0
        before = len(solves)
        density_grid(params, 2000)
        assert len(solves) == before + 2000
        # one point in each end cell: above the first scan value, below the last
        for x in ((vals[0] + support_c(p)) / 2.0, vals[-1] / 2.0):
            _f(params, x)
    end_cells = 0
    for p, x, lo, hi, phi, calls in solves:
        assert [(lo, hi)] == _scan_cells(p, [x]), (p, x)
        phis = kernels._rho_scan(p)[0][1:-1]
        count[0] = 0
        assert phi == _plain_bisect(p, x, lo, hi), (p, x)
        if lo < phis[0] or hi > phis[-1]:
            # no window: every midpoint is evaluated, as in plain bisection
            end_cells += 1
            assert calls == count[0], (p, x)
        else:
            assert calls <= 12, (p, x, calls)
    assert end_cells >= 2 * 7


def test_rho_bisect_proves_its_window(monkeypatch):
    # a rho with a relative error of 1e-6, far past the bound the window assumes, in the scan
    # and the bisection alike: the checks at the ends of the window see it, so the result stays
    # plain bisection's over the cell the noisy scan gives x, a point inside an interior cell
    real_rho = kernels.rho

    def noisy_rho(p, phi):
        return real_rho(p, phi) * (1.0 + 1e-6 * sin(1e9 * phi))

    monkeypatch.setattr(kernels, "rho", noisy_rho)
    rng = random.Random(7)
    for _ in range(200):
        p = 1.1 + 2.9 * rng.random()
        phis = kernels._rho_scan(p)[0][1:-1]
        i = rng.randrange(len(phis) - 1)
        lo, hi = phis[i], phis[i + 1]
        x = real_rho(p, lo + (hi - lo) * rng.random())
        ((lo, hi),) = _scan_cells(p, [x])
        assert kernels.rho_bisect(p, [x]) == [_plain_bisect(p, x, lo, hi)], (p, x)


def test_rho_bisect_grid_proves_its_windows(monkeypatch):
    # the noisy rho of test_rho_bisect_proves_its_window along sorted grids: neither a start
    # predicted from a neighbouring root nor the midpoint start reaches the result
    real_rho = kernels.rho

    def noisy_rho(p, phi):
        return real_rho(p, phi) * (1.0 + 1e-6 * sin(1e9 * phi))

    monkeypatch.setattr(kernels, "rho", noisy_rho)
    rng = random.Random(8)
    for _ in range(20):
        p = 1.1 + 2.9 * rng.random()
        upper = support_c(p)
        xs = [upper * i / 301 for i in range(1, 301)]
        plain = [_plain_bisect(p, x, lo, hi) for x, (lo, hi) in zip(xs, _scan_cells(p, xs))]
        assert kernels.rho_bisect(p, xs) == plain, p


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=1.0, max_value=100.0, exclude_min=True),
    us=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)),
    repeats=st.lists(st.integers(min_value=0, max_value=200), max_size=8),
)
def test_rho_bisect_grid_matches_each_point_solved_alone(p, us, repeats):
    # the roots of a sorted grid, solved by one call, against each point solved on its own
    def solve(xs):
        return kernels.rho_bisect(p, xs)

    try:
        _, vals = kernels._rho_scan(p)
    except BracketingError:  # p so close to 1 that the scan cannot tell rho decreases
        with pytest.raises(BracketingError):
            solve([0.5])
        return
    upper = support_c(p)
    # random points, every scan value, a point in each end cell, then duplicates
    xs = [upper * u for u in us] + list(vals) + [(vals[0] + upper) / 2.0, vals[-1] / 2.0]
    xs += [xs[i % len(xs)] for i in repeats]
    xs.sort()
    expected = []
    for x in xs:
        try:
            expected += solve([x])
        except ZeroDivisionError:
            # x within an ulp or so of c(p) at large p: bisection reaches a phi where rho's
            # denominator underflows, and the grid stops at the same point
            with pytest.raises(ZeroDivisionError):
                solve(xs)
            return
    assert solve(xs) == expected


def test_density_grid_raises_bracketing_error_next_to_p_1():
    # a few ulps above p = 1 the scan's values of rho do not strictly decrease
    for p in (F(nextafter(1.0, 2.0)), F(1.00000000000001)):
        message = f"rho(p={float(p)}, .) is not strictly decreasing"
        with pytest.raises(BracketingError, match=re.escape(message)):
            density_grid(Params.exact(p, F(1, 2)), 5)


def test_rho_bisect_brackets_in_the_first_scan_cell_that_holds_x(monkeypatch):
    real_bisect = kernels._bisect
    brackets = []

    def recorded_bisect(p, x, lo, hi, a, b):
        brackets.append((lo, hi))
        return real_bisect(p, x, lo, hi, a, b)

    monkeypatch.setattr(kernels, "_bisect", recorded_bisect)
    for p in (1.01, 1.5, 2.0, 37.0 / 13.0, 20.0):
        _, vals = kernels._rho_scan(p)
        # every scan value, where two cells hold x, a point inside each cell, and a point in
        # each end cell
        xs = list(vals) + [(a + b) / 2.0 for a, b in zip(vals, vals[1:])]
        xs += [(vals[0] + support_c(p)) / 2.0, vals[-1] / 2.0]
        for x in xs:
            brackets.clear()
            density._samples(p, 1.0, [x], "parametric")
            assert brackets == _scan_cells(p, [x]), (p, x)


def test_each_evaluation_solves_its_points_by_one_kernel_call(monkeypatch):
    real_scan, real_rho_bisect = kernels._rho_scan, kernels.rho_bisect
    calls = []

    def recorded_scan(p):
        calls.append(("rho_scan", p))
        return real_scan(p)

    def recorded_rho_bisect(p, xs):
        calls.append(("rho_bisect", len(xs)))
        return real_rho_bisect(p, xs)

    monkeypatch.setattr(kernels, "_rho_scan", recorded_scan)
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
        assert calls == ([] if points is None else [("rho_bisect", points), ("rho_scan", 2.0)])
    assert not hasattr(kernels, "rho_bisect_grid")


def test_float_limits_next_to_c_are_overflow_errors(monkeypatch):
    # x this close to c(62) sends the end-cell bisection to phi near 1e-7, where
    # sin((p - 1) phi)^(p - 1) in rho's denominator underflows to 0; at p = 100 the moment
    # quadrature meets the same underflow in f_phi
    x = support_c(62) * (1.0 - 1e-12)
    for t in (F(1, 3), F(1)):
        with pytest.raises(OverflowError, match=re.escape(f"p=62.0, x={x}")):
            _f(Params.exact(62, t), x)
    with pytest.raises(OverflowError, match=re.escape("p=100.0, t=1.0, n=0")):
        moment_quadrature_full(Params.exact(100, 1), 0)
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
    # the grid, solved by one call, against each of its points evaluated on its own
    params = Params.exact(p, t)
    pf, tf = params.as_floats()
    for s in density_grid(params, 1000):
        assert density._samples(pf, tf, [s.x], "parametric") == [s], s.x


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
     (F(4), F(-1, 3)), (F(20), F(1, 3))],
)
def test_density_grid_matches_a_50_digit_reference(p, t):
    # each phi is within the bisection width of the root; each value is off by at most what
    # that moves f, |f'(phi*)| _RHO_TOL, plus a rounding allowance of 1e-14 of the largest value
    params = Params.exact(p, t)
    pf, tf = params.as_floats()
    samples = density_grid(params, 30)
    refs = [_density_reference(pf, tf, s.x) for s in samples]
    scale = max(abs(f_star) for _, f_star, _ in refs)
    for s, (phi_star, f_star, slope) in zip(samples, refs):
        assert abs(s.phi - phi_star) <= kernels._RHO_TOL, s.x
        assert abs(s.value - f_star) <= abs(slope) * kernels._RHO_TOL + 1e-14 * scale, s.x


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
        return kernels.rho(p, phi) ** n * kernels.f_phi(p, t, phi) * abs(kernels.rho_prime(p, phi))

    return kernels.integrate_callable(g, kernels._INSET, pi / p - kernels._INSET)


def test_moment_quad_reuse_is_bit_identical():
    # the single-n floats moment_quad gave when each call integrated one moment
    assert [kernels.moment_quad(2.5, 0.5, 12)[n] for n in (0, 5, 12)] == [
        (0.9999999999990051, 2.0005390188949322e-12, True),
        (229.55078125000006, 3.4405097661100946e-12, True),
        (9332163.750000007, 2.716746299689493e-06, True),
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
