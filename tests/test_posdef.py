"""Positivity layer: psi criterion, the boundary curve g, exact Hankel verdicts."""

import math
import random
from fractions import Fraction as F
from itertools import combinations, permutations

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fussdeform import (
    InconsistencyError,
    Params,
    moment_series,
    necessary_gap,
    posdef,
)
from fussdeform._backend import kernels
from fussdeform.cli import main
from fussdeform.exact_seq import catalan_table
from fussdeform.posdef import (
    HankelVerdict,
    classify_point,
    g_of_p,
    hankel_report,
    infdiv_check,
    psi,
    psi_min,
    theorem_interval,
)

PHI_STAR = 3.0 * math.asin(math.sqrt(5.0 / 8.0))


def test_psi_reduces_to_a_sine_at_p1():
    rng = random.Random(5150)
    for _ in range(30):
        t = rng.uniform(-2.0, 2.0)
        phi = rng.uniform(0.0, math.pi)
        expected = (1.0 - t) * math.sin(2.0 * phi)
        assert psi(1.0, t, phi).value == pytest.approx(expected, abs=1e-12)


def test_psi_value_at_pi():
    rng = random.Random(624)
    for _ in range(30):
        p = 1.0 + rng.uniform(0.0, 4.0)
        t = rng.uniform(-2.0, 2.0)
        assert psi(p, t, math.pi).value == pytest.approx(t * math.sin(math.pi / p), abs=1e-12)


def test_psi_nonnegative_at_t1():
    for p in (1.0, 1.5, 2.0, 3.0, 5.0):
        for i in range(51):
            point = psi(p, 1.0, math.pi * i / 50)
            assert point.value >= -1e-15


def test_psi_three_forms_agree():
    rng = random.Random(90210)
    for _ in range(1000):
        p = 1.0 + rng.uniform(0.0, 5.0)
        t = rng.uniform(-3.0, 3.0)
        phi = rng.uniform(0.0, math.pi)
        assert psi(p, t, phi).form_spread <= 1e-12


def test_psi_domain_checks():
    with pytest.raises(ValueError):
        psi(0.9, 1.0, 1.0)
    with pytest.raises(ValueError):
        psi(2.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        psi(2.0, 1.0, math.pi + 0.1)


def test_psi_min_landmarks():
    assert psi_min(1.0, 1.0).value == pytest.approx(0.0, abs=1e-14)
    assert psi_min(2.0, 0.0).value == pytest.approx(0.0, abs=1e-14)
    # the critical deformation at p = 3/2: the minimum just touches zero
    assert psi_min(1.5, 0.2).value == pytest.approx(0.0, abs=1e-9)
    assert psi(1.5, 0.2, PHI_STAR).value == pytest.approx(0.0, abs=1e-12)


def test_psi_min_locates_the_critical_angle():
    # just below the critical deformation the minimum is negative, near phi*
    report = psi_min(1.5, 0.19)
    assert report.value < -0.009
    assert abs(report.phi - PHI_STAR) < 0.05


def test_psi_min_flags_negative_regions():
    assert psi_min(1.5, 0.1).value < -0.01
    assert psi_min(1.0, 0.5).value == pytest.approx(-0.5, abs=1e-10)


def test_g_landmark_values():
    assert g_of_p(1.5) == pytest.approx(0.2, abs=1e-12)
    assert g_of_p(2.0) <= 1e-6
    assert g_of_p(1.0) == pytest.approx(1.0, abs=1e-6)


def test_g_vanishes_beyond_two():
    for p in (2.0, 2.5, 3.0, 4.0, 7.0):
        assert g_of_p(p) == 0.0


def test_g_strictly_decreasing_on_the_unit_gap():
    values = [g_of_p(1.0 + 0.05 * k) for k in range(20)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def _psi_min_pointwise(p, t, grid=512, tol=1e-12):
    """kernels.psi_min with every grid point evaluated by psi itself."""
    step = math.pi / grid
    vals = [kernels.psi(p, t, i * step) for i in range(grid + 1)]
    best = min(range(grid + 1), key=vals.__getitem__)
    best_val, best_phi = vals[best], best * step
    cells = [i for i in range(1, grid) if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]]
    brackets = [((i - 1) * step, (i + 1) * step) for i in cells]
    if vals[0] <= vals[1]:
        brackets.append((0.0, step))
    if vals[grid] <= vals[grid - 1]:
        brackets.append((math.pi - step, math.pi))
    for a, b in brackets:
        xm, fm = kernels._golden(lambda phi: kernels.psi(p, t, phi), a, b, tol)
        if fm < best_val:
            best_val, best_phi = fm, xm
    return best_val, best_phi


def _g_bisection(p):
    """The least t in [0, 1] that psi_min finds feasible, bracketed to 1e-9 by bisection."""

    def feasible(t):
        return kernels.psi_min(p, t)[0] >= -posdef._FEAS_TOL

    if feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_psi_min_is_pointwise_psi_and_g_meets_the_bisection():
    rng = random.Random(7312)
    ps = [1.0, 1.5, 2.0, 3.0, 7.0, 20.0] + [1.0 + 3.0 * rng.random() for _ in range(4)]
    for p in ps:
        assert 0.0 <= _g_bisection(p) - g_of_p(p) <= 1e-9, p
        for t in (0.0, rng.random(), 2.0 * rng.random()):
            assert kernels.psi_min(p, t) == _psi_min_pointwise(p, t), (p, t)


def _g_reference(p, points=1000):
    """g(p) = max(0, sup of -B/A over A > 0) at 50 digits, psi = t A + B.

    A finer grid than the kernel's, then golden section in mpmath around the
    best grid point.
    """
    with mpmath.workdps(50):
        p = mpmath.mpf(p)

        def ratio(phi):
            b = 2 * mpmath.sin(phi) * mpmath.cos(phi / p)
            a = mpmath.sin((1 - 1 / p) * phi) - b
            return -b / a if a > 0 else mpmath.ninf

        step = mpmath.pi / points
        best = max(range(points + 1), key=lambda i: ratio(i * step))
        if ratio(best * step) == mpmath.ninf:
            return 0.0
        lo, hi = max(best - 1, 0) * step, min(best + 1, points) * step
        inv = (mpmath.sqrt(5) - 1) / 2
        while hi - lo > mpmath.mpf(10) ** -30:
            x1, x2 = hi - inv * (hi - lo), lo + inv * (hi - lo)
            if ratio(x1) >= ratio(x2):
                hi = x2
            else:
                lo = x1
        return float(min(1, max(0, ratio((lo + hi) / 2))))


@pytest.mark.parametrize("p", [1.0, 1.05, 1.25, 1.5, 1.75, 1.99, 2.0, 3.0, 7.0, 20.0])
def test_g_matches_the_50_digit_reference(p):
    assert abs(g_of_p(p) - _g_reference(p)) <= 1e-14


def test_g_is_certified_by_psi_min(monkeypatch, capsys):
    for p in (1.05, 1.5, 1.99):
        g = g_of_p(p)
        assert kernels.psi_min(p, g)[0] >= -1e-12
    sup = kernels.g_sup

    def low_sup(*args):
        value, phi = sup(*args)
        return value - 1e-6, phi

    monkeypatch.setattr(kernels, "g_sup", low_sup)
    posdef._g_cached.cache_clear()
    try:
        with pytest.raises(InconsistencyError):
            g_of_p(1.5)
        assert main(["gfun", "--p-min", "1.5", "--p-max", "1.5", "--steps", "1"]) == 3
        assert "internal contradiction" in capsys.readouterr().err
    finally:
        posdef._g_cached.cache_clear()


def test_flat_scans_refine_one_cell_per_run(monkeypatch):
    # At p = 1, psi(1, 1, .) is 0 on the whole grid and B/A is -1 wherever
    # A > 0, so each scan is flat runs only; each run is refined once.
    golden = kernels._golden
    calls = []

    def counting_golden(*args):
        calls.append(args)
        return golden(*args)

    monkeypatch.setattr(kernels, "_golden", counting_golden)
    assert kernels.psi_min(1.0, 1.0) == (0.0, 0.0)
    assert len(calls) <= 2
    calls.clear()
    assert kernels.g_sup(1.0) == (1.0, 1.576932249946439)
    assert len(calls) <= 2


def test_g_rejects_small_p():
    with pytest.raises(ValueError):
        g_of_p(0.99)


def test_theorem_interval_endpoints():
    lower, upper = theorem_interval(2)
    assert lower == 0.0
    assert upper == F(4, 3)
    lower, upper = theorem_interval(F(3, 2))
    assert lower == pytest.approx(0.2, abs=1e-8)
    assert upper == F(6, 5)


def test_hankel_catalan_minors_are_all_one():
    report = hankel_report(catalan_table(18), 10)
    assert report.minors == [F(1)] * 10
    assert report.verdict == "positive_definite"


def test_hankel_rank_one_is_semidefinite():
    report = hankel_report([F(1)] * 9, 5)
    assert report.minors == [F(1), F(0), F(0), F(0), F(0)]
    assert report.verdict == "positive_semidefinite"


def test_hankel_indefinite_section():
    moments = moment_series(Params.exact(1, F(1, 2)), 2)
    report = hankel_report([moments.coefficient(k) for k in range(3)], 2)
    assert report.minors == [F(1), F(-1, 4)]
    assert report.verdict == "indefinite"


def test_hankel_zero_diagonal_with_coupling_is_indefinite():
    # [[0, 1], [1, 0]] has eigenvalues +-1
    assert hankel_report([F(0), F(1), F(0)], 2).verdict == "indefinite"
    # the second pivot of [[1, 1, 1], [1, 1, 2], [1, 2, 5]] is 0 facing 1,
    # yet the next leading minor does not vanish
    report = hankel_report([F(1), F(1), F(1), F(2), F(5)], 3)
    assert report.minors == [F(1), F(0), F(-1)]
    assert report.verdict == "indefinite"


def test_hankel_needs_no_determinant_without_breakdown(monkeypatch):
    calls = []
    real_det = posdef._det
    monkeypatch.setattr(posdef, "_det", lambda rows: calls.append(rows) or real_det(rows))
    assert hankel_report(catalan_table(30), 16).verdict == "positive_definite"
    assert hankel_report([F(1)] * 9, 5).verdict == "positive_semidefinite"
    moments = moment_series(Params.exact(2, F(7, 5)), 14)
    report = hankel_report([moments.coefficient(k) for k in range(15)], 8)
    assert report.minors[3] < 0 and report.verdict == "indefinite"
    assert calls == []


def _leibniz_det(rows):
    # sum over permutations of sign * product, independent of posdef._det
    n = len(rows)
    total = F(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = F(-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _minor(values, index):
    return _leibniz_det([[values[i + j] for j in index] for i in index])


_SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=2)
# moments of a discrete measure, so semidefinite sections of every rank occur
_MEASURE = st.lists(
    st.tuples(_SMALL, st.fractions(min_value=F(1, 2), max_value=2, max_denominator=2)),
    min_size=1,
    max_size=5,
)


@st.composite
def _sections(draw):
    size = draw(st.integers(1, 5))
    if draw(st.booleans()):
        values = draw(st.lists(_SMALL, min_size=2 * size - 1, max_size=2 * size - 1))
    else:
        atoms = draw(_MEASURE)
        values = [sum(w * x**k for x, w in atoms) for k in range(2 * size - 1)]
    return values, size


@settings(max_examples=300, deadline=None)
@given(_sections())
def test_hankel_report_matches_brute_force(section):
    values, size = section
    report = hankel_report(values, size)
    leading = [_minor(values, range(k + 1)) for k in range(size)]
    assert report.minors == leading
    if all(m > 0 for m in leading):
        expected = "positive_definite"
    elif all(
        _minor(values, index) >= 0
        for r in range(1, size + 1)
        for index in combinations(range(size), r)
    ):
        expected = "positive_semidefinite"
    else:
        expected = "indefinite"
    assert report.verdict == expected


def test_hankel_input_validation():
    with pytest.raises(ValueError):
        hankel_report([F(1)] * 4, 3)
    with pytest.raises(ValueError):
        hankel_report([F(1)], 0)


def test_hankel_accepts_table_or_plain_sequence():
    table = catalan_table(8)
    assert hankel_report(table, 4) == hankel_report(list(table.values), 4)
    assert isinstance(hankel_report([1, 1, 2], 2), HankelVerdict)


def test_classify_inside_the_admissible_interval():
    record = classify_point(Params.exact(5, F(5, 3)), 6)
    assert record["theorem_verdict"] is True
    assert record["hankel"].verdict == "positive_definite"
    record = classify_point(Params.exact(F(3, 2), F(1, 5)), 6)
    assert record["theorem_verdict"] is True
    assert record["hankel"].verdict == "positive_definite"
    record = classify_point(Params.exact(2, F(4, 3)), 6)
    assert record["theorem_verdict"] is True
    assert record["hankel"].verdict == "positive_definite"


def test_classify_outside_the_admissible_interval():
    record = classify_point(Params.exact(2, F(7, 5)), 8)
    assert record["theorem_verdict"] is False
    assert record["hankel"].verdict == "indefinite"
    record = classify_point(Params.exact(F(3, 2), F(1, 10)), 6)
    assert record["theorem_verdict"] is False


def test_classify_input_validation():
    with pytest.raises(ValueError):
        classify_point(Params.exact(F(1, 2), F(1)), 4)


def test_classify_grid_is_coherent():
    ps = (F(1), F(3, 2), F(2), F(3), F(4))
    ts = (F(-1, 2), F(0), F(1, 5), F(1, 2), F(1), F(4, 3), F(3, 2), F(2))
    for p in ps:
        for t in ts:
            record = classify_point(Params.exact(p, t), 4)
            assert set(record) == {"theorem_verdict", "hankel"}
            if record["theorem_verdict"]:
                # positive definiteness forces the quadratic necessary condition
                assert necessary_gap(Params.exact(p, t)) >= F(-1, 10**6)


def test_hankel_failure_size_bound_above_the_upper_edge():
    # when t exceeds 2p/(p+1), the section of size ceil(2/(t+pt-2p)) + 1 fails
    pairs = [(F(2), F(2)), (F(2), F(3, 2)), (F(3), F(7, 4)), (F(3, 2), F(3, 2))]
    for p, t in pairs:
        excess = t + p * t - 2 * p
        assert excess > 0
        size = math.ceil(F(2) / excess) + 1
        moments = moment_series(Params.exact(p, t), 2 * size - 2)
        report = hankel_report([moments.coefficient(k) for k in range(2 * size - 1)], size)
        assert report.verdict == "indefinite", (p, t, size)


def test_indefiniteness_persists_in_larger_sections():
    params = Params.exact(2, F(7, 5))
    moments = moment_series(params, 14)
    values = [moments.coefficient(k) for k in range(15)]
    seen_bad = False
    for size in range(2, 9):
        verdict = hankel_report(values[: 2 * size - 1], size).verdict
        if seen_bad:
            assert verdict == "indefinite"
        elif verdict == "indefinite":
            seen_bad = True
    assert seen_bad


def test_infdiv_small_deformation_fails():
    report = infdiv_check(2, F(1, 2), 2)
    assert report.minors == [F(5, 4), F(-21, 64)]
    assert report.verdict == "indefinite"


def test_infdiv_free_poisson_degenerate_case():
    report = infdiv_check(2, F(0), 4)
    assert report.minors == [F(1), F(0), F(0), F(0)]
    assert report.verdict == "positive_semidefinite"


def test_infdiv_inside_the_divisibility_windows():
    for p, t in ((2, F(7, 6)), (2, F(4, 3)), (3, F(1)), (3, F(3, 2)), (3, F(1, 2))):
        assert infdiv_check(p, t, 5).verdict != "indefinite", (p, t)


def test_infdiv_outside_the_divisibility_windows():
    for p, t in ((2, F(1, 2)), (2, F(3, 4)), (3, F(2)), (2, F(3, 2))):
        assert infdiv_check(p, t, 5).verdict == "indefinite", (p, t)


def test_infdiv_covers_only_the_closed_description():
    with pytest.raises(ValueError):
        infdiv_check(4, F(1), 3)
    with pytest.raises(ValueError):
        infdiv_check(F(3, 2), F(1), 3)
