"""Density layer: parametrization vs closed forms, quadrature vs exact values."""

import random
from fractions import Fraction as F
from math import pi, sin, sqrt

import pytest

import fussdeform
import fussdeform.cli
from fussdeform import (
    BracketingError,
    Params,
    QuadratureError,
    a022558_table,
    a220910_table,
    cumulant_measure_eval,
    cumulant_quadrature,
    density_grid,
    ex1_table,
    f_pt,
    moment_quadrature,
    moment_quadrature_full,
    moment_series,
    r_series_closed,
    rho,
    rho_prime,
    support_c,
    w_closed,
    w_param,
)
from fussdeform._backend import kernels


def test_support_endpoint_values():
    assert support_c(2).upper == pytest.approx(4.0, abs=1e-14)
    assert support_c(3).upper == pytest.approx(27.0 / 4.0, abs=1e-13)
    assert support_c(1.5).upper == pytest.approx(3.0 * sqrt(3.0) / 2.0, abs=1e-14)


def test_support_rejects_small_p():
    with pytest.raises(ValueError):
        support_c(1)
    with pytest.raises(ValueError):
        support_c(0.5)


def test_rho_closed_value_p2():
    # rho(2, phi) = 4 cos^2 phi, so rho(2, pi/3) = 1
    assert rho(2, pi / 3) == pytest.approx(1.0, abs=1e-12)


def test_rho_limits():
    for p in (2.0, 3.0, 1.5, 2.5):
        top = pi / p
        assert rho(p, 1e-8) == pytest.approx(support_c(p).upper, rel=1e-10)
        assert rho(p, top * (1 - 1e-8)) < 1e-6


def test_rho_domain_checks():
    with pytest.raises(ValueError):
        rho(2, 0.0)
    with pytest.raises(ValueError):
        rho(2, pi / 2)
    with pytest.raises(ValueError):
        rho(1.0, 0.5)


def test_rho_prime_closed_value_p2():
    # rho(2, phi) = 4 cos^2 phi  =>  rho' = -4 sin 2phi  =>  rho'(pi/4) = -4
    assert rho_prime(2, pi / 4) == pytest.approx(-4.0, abs=1e-12)


def test_rho_prime_matches_finite_differences():
    rng = random.Random(40902)
    h = 1e-6
    for _ in range(20):
        p = 1.0 + rng.uniform(0.1, 3.0)
        top = pi / p
        phi = rng.uniform(0.15, 0.85) * top
        numeric = (rho(p, phi + h) - rho(p, phi - h)) / (2 * h)
        assert rho_prime(p, phi) == pytest.approx(numeric, rel=1e-6)


def test_rho_prime_negative_throughout():
    for p in (1.2, 1.5, 2.0, 3.0, 4.5):
        top = pi / p
        for i in range(1, 40):
            assert rho_prime(p, top * i / 40) < 0.0


def test_w_param_closed_values_p2():
    # W_{2,1}(1) = sqrt(3)/(2 pi) and W_{2,2}(2) = 1/pi
    s = w_param(2, 1, 1.0)
    assert s.value == pytest.approx(sqrt(3.0) / (2.0 * pi), abs=1e-12)
    assert s.x == 1.0 and 0.0 < s.phi < pi / 2
    assert w_param(2, 2, 2.0).value == pytest.approx(1.0 / pi, abs=1e-12)


def test_w_param_agrees_with_all_six_closed_forms():
    for p in (F(2), F(3), F(3, 2)):
        upper = support_c(float(p)).upper
        for r in (1, 2):
            for i in range(1, 51):
                x = upper * i / 51
                a = w_param(float(p), r, x).value
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


def test_w32_component_takes_negative_values():
    # the r=2 component at p=3/2 dips below zero for small x
    assert w_closed(F(3, 2), 2, 0.3) < -0.1


def test_f_pt_p2_display_formula():
    # f_{2,t}(x) = (t + x - t x) sqrt((4-x)/x) / (2 pi)
    rng = random.Random(1203)
    for _ in range(25):
        t = F(rng.randint(-4, 5), rng.randint(1, 4))
        x = rng.uniform(0.05, 3.95)
        params = Params.exact(2, t)
        expected = float(t + x - t * x) * sqrt((4.0 - x) / x) / (2.0 * pi)
        assert f_pt(params, x) == pytest.approx(expected, rel=1e-11, abs=1e-13)
        assert f_pt(params, x, route="closed") == pytest.approx(expected, rel=1e-11, abs=1e-13)


def test_f_pt_routes_agree():
    rng = random.Random(77)
    for p in (F(2), F(3), F(3, 2)):
        upper = support_c(float(p)).upper
        for _ in range(20):
            t = F(rng.randint(0, 8), 6)
            x = rng.uniform(0.02, 0.98) * upper
            params = Params.exact(p, t)
            a = f_pt(params, x, route="parametric")
            b = f_pt(params, x, route="closed")
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_f_pt_rejects_unknown_route():
    with pytest.raises(ValueError):
        f_pt(Params.exact(2, 1), 1.0, route="series")


def test_phi_form_is_the_affine_combination():
    rng = random.Random(8833)
    for _ in range(40):
        p = 1.0 + rng.uniform(0.1, 3.0)
        t = rng.uniform(-1.0, 2.0)
        phi = rng.uniform(0.05, 0.95) * pi / p
        combo = t * kernels.w_phi(p, 1.0, phi) + (1.0 - t) * kernels.w_phi(p, 2.0, phi)
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
    total, err, ok = kernels.integrate_callable(sin, 0.0, pi, 1e-12, 1e-12, 12)
    assert ok
    assert total == pytest.approx(2.0, rel=1e-12)


def test_gk_error_estimate_survives_huge_integrands():
    # Gauss and Kronrod differ by ~1e247 here, so (200 d)^1.5 would overflow.
    val, err, _ = kernels._gk15(lambda x: 1e250 * x**40, 0.0, 1.0)
    assert val == pytest.approx(1e250 / 41.0, rel=1e-6)
    assert 0.0 < err < val


def test_backend_name_is_python():
    assert fussdeform.backend_name == kernels.BACKEND == "python"


def test_rho_bisect_recovers_the_angle():
    rng = random.Random(2026)
    for _ in range(25):
        p = 1.1 + 2.9 * rng.random()
        top = pi / p
        phi0 = (0.05 + 0.9 * rng.random()) * top
        x = kernels.rho(p, phi0)
        phi = kernels.rho_bisect(p, x, top * 1e-9, top * (1.0 - 1e-9))
        assert abs(phi - phi0) <= 1e-9


def test_moment_quad_is_deterministic():
    assert kernels.moment_quad(1.5, 0.2, 3) == kernels.moment_quad(1.5, 0.2, 3)


def _moment_quad_reference(p, t, n):
    """moment_quad without its node store: every panel samples the integrand afresh."""

    def g(phi):
        return kernels.rho(p, phi) ** n * kernels.f_phi(p, t, phi) * abs(kernels.rho_prime(p, phi))

    return kernels.integrate_callable(g, kernels._INSET, pi / p - kernels._INSET, 1e-10, 1e-12, 20)


def test_moment_quad_reuse_is_bit_identical():
    rng = random.Random(1507)
    points = [(1.5, 0.2), (1.5, 1.2), (2.0, 0.5), (2.0, 4.0 / 3.0), (3.0, 1.0), (3.0, 0.0)]
    for _ in range(20):
        p = 4.0 - 3.0 * rng.random()
        points.append((p, 2.0 * p / (p + 1.0) * rng.random()))
    for p, t in points:
        # each n reuses the samples the earlier n of this (p, t) left behind
        for n in sorted(rng.sample(range(201), 6)) + [0, 200]:
            value, err, ok = kernels.moment_quad(p, t, n)
            ref_value, ref_err, ref_ok = _moment_quad_reference(p, t, n)
            assert (value, ok) == (ref_value, ref_ok), (p, t, n)
            # moment_quad adds the rounding of rho^n and the end slices
            assert err >= ref_err, (p, t, n)


def test_moment_node_store_holds_the_last_point(capsys):
    for argv in (("--p", "5/2", "--t", "1/2"), ("--p", "7/3", "--t", "2/3")):
        assert fussdeform.cli.main(["moments-check", *argv, "--n-max", "12"]) == 0
    capsys.readouterr()
    (p, t), panels = kernels._moment_nodes
    assert (p, t) == (7.0 / 3.0, 2.0 / 3.0)
    assert panels and all(0.0 < a < b < pi / p for a, b in panels)
    # a quadrature that gives up after 4096 panels keeps only some of them
    value, _, ok = kernels.moment_quad(11.0 / 8.0, 6.0 / 5.0, 20)
    assert len(kernels._moment_nodes[1]) == kernels._KEPT_PANELS
    assert (value, ok) == _moment_quad_reference(11.0 / 8.0, 6.0 / 5.0, 20)[::2]
    assert not ok


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
        for n in range(1, 11):
            value, est = moment_quadrature_full(params, n)
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


def test_cumulant_measure_p3_pointwise_positive_at_edges_of_t():
    for t in (0.5, 1.5):
        for i in range(1, 60):
            x = 4.0 * t * i / 60
            assert cumulant_measure_eval("p3", t, x) >= 0.0


def test_cumulant_measure_p2_pointwise_positive():
    for t in (7.0 / 6.0, 4.0 / 3.0):
        lo = 2 * t - 1 - 2 * sqrt(t * t - t)
        hi = 2 * t - 1 + 2 * sqrt(t * t - t)
        for i in range(1, 60):
            x = lo + (hi - lo) * i / 60
            assert cumulant_measure_eval("p2", t, x) >= 0.0


def test_cumulant_measure_domain_checks():
    with pytest.raises(ValueError):
        cumulant_measure_eval("p2", 1.0, 1.0)  # t must exceed 1
    with pytest.raises(ValueError):
        cumulant_measure_eval("p2", 1.5, 1.0)  # t above 4/3
    with pytest.raises(ValueError):
        cumulant_measure_eval("p3", 0.4, 0.5)
    with pytest.raises(ValueError):
        cumulant_measure_eval("p3", 1.2, 5.0)  # x outside (0, 4t)
    with pytest.raises(ValueError):
        cumulant_measure_eval("hankel", 1.0, 1.0)


def test_fixed_measures_reproduce_integer_sequences():
    table = a220910_table(8)
    for n in range(9):
        value, _ = cumulant_quadrature("a220910", 0.0, n)
        assert value == pytest.approx(float(table.term(n)), rel=1e-9)
    table = a022558_table(8)
    for n in range(9):
        value, _ = cumulant_quadrature("a022558", 0.0, n)
        assert value == pytest.approx(float(table.term(n)), rel=1e-9)


def test_verbatim_moment_integral_on_one_nine():
    # same measure as the p2 cumulant case at t = 4/3, pushed forward by x -> 3x:
    # integral over [1, 9] of x^n sqrt((x-1)(9-x)^3) / (2 pi x^3)
    table = ex1_table(6)

    def make_integrand(n):
        def g(x):
            return x**n * sqrt((x - 1.0) * (9.0 - x) ** 3) / (2.0 * pi * x**3)

        return g

    for n in range(7):
        value, _, ok = kernels.integrate_callable(
            make_integrand(n), 1.0 + 1e-12, 9.0 - 1e-12, 1e-10, 1e-12, 20
        )
        assert ok
        assert value == pytest.approx(float(table.term(n)), rel=1e-7)


def test_quadrature_error_when_depth_exhausted():
    with pytest.raises(QuadratureError):
        moment_quadrature(Params.exact(F(3, 2), F(1, 5)), 40, max_depth=0)


def test_moment_quadrature_domain_checks():
    with pytest.raises(ValueError):
        moment_quadrature(Params.exact(1, 1), 0)
    with pytest.raises(ValueError):
        moment_quadrature(Params.exact(2, 1), -1)


def test_cumulant_quadrature_domain_checks():
    with pytest.raises(ValueError):
        cumulant_quadrature("p2", 0.9, 0)
    with pytest.raises(ValueError):
        cumulant_quadrature("nope", 1.2, 0)
    with pytest.raises(ValueError):
        cumulant_quadrature("p3", 1.2, -1)
    with pytest.raises(ValueError):
        kernels.cumulant_quad("p4", 1.0, 0)
