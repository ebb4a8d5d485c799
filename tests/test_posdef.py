"""Positivity layer: psi criterion, the boundary curve g, exact Hankel verdicts.

Each property is checked once.  test_the_grid_samples_follow_p holds psi_min's floats against
a pointwise scan, and test_psi_min_landmarks its landmarks.  test_g_matches_the_50_digit_reference
holds g against its reference, which reads 1, 1/5 and 0 at p = 1, 3/2 and 2;
test_g_meets_the_bisection holds g against a bisection of psi_min, and
test_g_needs_no_scan_from_two_on g = 0 from p = 2 on.  test_hankel_report_matches_brute_force
holds Hankel minors and verdicts against the Leibniz brute force, with the pinned sections as
examples; only the size-10 Catalan section, too slow for the brute force, is a test of its own.
test_classify_pins_read_the_same_through_classify_row holds the classification pins,
test_infdiv_pins the divisibility pins, and test_posdef_error_messages every refusal of the
layer with its message.
"""

import cmath
import inspect
import math
import random
import re
from fractions import Fraction as F
from itertools import combinations, permutations

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import seams
from fussdeform import (
    InconsistencyError,
    Params,
    moment_series,
    necessary_gap,
)
from fussdeform.cli import main
from fussdeform.exact_seq import SeqTable, catalan_table, constellation_table
from fussdeform.posdef import (
    HankelVerdict,
    classify_point,
    classify_row,
    g_of_p,
    hankel_report,
    infdiv_check,
    psi_min,
    theorem_interval,
)
from fussdeform.series import TruncSeries, cumulants_from_moments
from seams import kernels

PHI_STAR = 3.0 * math.asin(math.sqrt(5.0 / 8.0))


def test_psi_reduces_to_a_sine_at_p1():
    rng = random.Random(5150)
    for _ in range(30):
        t = rng.uniform(-2.0, 2.0)
        phi = rng.uniform(0.0, math.pi)
        expected = (1.0 - t) * math.sin(2.0 * phi)
        assert kernels.psi(1.0, t, phi) == pytest.approx(expected, abs=1e-12)


def test_psi_value_at_pi():
    rng = random.Random(624)
    for _ in range(30):
        p = 1.0 + rng.uniform(0.0, 4.0)
        t = rng.uniform(-2.0, 2.0)
        assert kernels.psi(p, t, math.pi) == pytest.approx(t * math.sin(math.pi / p), abs=1e-12)


def test_psi_nonnegative_at_t1():
    for p in (1.0, 1.5, 2.0, 3.0, 5.0):
        for i in range(51):
            assert kernels.psi(p, 1.0, math.pi * i / 50) >= -1e-15


def test_psi_three_forms_agree():
    rng = random.Random(90210)
    for _ in range(1000):
        p = 1.0 + rng.uniform(0.0, 5.0)
        t = rng.uniform(-3.0, 3.0)
        phi = rng.uniform(0.0, math.pi)
        a, b, c = kernels.psi_forms(p, t, phi)
        assert max(abs(a - b), abs(a - c), abs(b - c)) <= 1e-12


def test_psi_is_affine_in_re_b_along_the_root_curve():
    # psi(p, t, phi) = sin((1 - 1/p) phi) (t + 2 (1 - t) Re B) at B = r e^(i phi / p),
    # r = sin(phi) / sin((1 - 1/p) phi), the root of x (B - 1) = B^p at x = rho(p, phi / p).
    # Re B is below p / (p - 1), its limit at phi -> 0, and negative only past p pi / 2.
    rng = random.Random(1507)
    for _ in range(2000):
        p = rng.uniform(1.05, 4.0)
        t = rng.uniform(-2.0, 2.0)
        phi = rng.uniform(0.0, math.pi)
        k = math.sin((1.0 - 1.0 / p) * phi)
        b = cmath.rect(math.sin(phi) / k, phi / p)
        assert abs(kernels.psi(p, t, phi) - k * (t + 2.0 * (1.0 - t) * b.real)) <= 1e-14
        assert b.real < p / (p - 1.0)
        if abs(phi - p * math.pi / 2.0) > 1e-9:
            assert (b.real < 0.0) == (phi > p * math.pi / 2.0), (p, phi)
        x = kernels.rho(p, phi / p)
        assert abs(x * (b - 1.0) - b**p) <= 1e-12 * (x * abs(b - 1.0) + abs(b) ** p), (p, phi)


def test_psi_min_landmarks():
    # (p, t, an open interval that holds the minimum, the angle it is within 0.05 of): the
    # minimum touches 0 at t = 1 for p = 1, at t = 0 for p = 2 and at the critical deformation
    # t = 1/5 for p = 3/2, where psi vanishes at phi*; just below, it is negative near phi*
    rows = [
        (1.0, 1.0, -1e-14, 1e-14, None),
        (2.0, 0.0, -1e-14, 1e-14, None),
        (1.5, 0.2, -1e-9, 1e-9, None),
        (1.5, 0.19, -math.inf, -0.009, PHI_STAR),
        (1.5, 0.1, -math.inf, -0.01, None),
        (1.0, 0.5, -0.5 - 1e-10, -0.5 + 1e-10, None),
    ]
    for p, t, low, high, angle in rows:
        value, phi = psi_min(p, t)
        assert low < value < high, (p, t, value)
        assert angle is None or abs(phi - angle) < 0.05, (p, t, phi)
    assert kernels.psi(1.5, 0.2, PHI_STAR) == pytest.approx(0.0, abs=1e-12)


def test_psi_min_reports_a_float_limit():
    # from |t| near 1e308 on 2 (1 - t) overflows, and inf sin(0) is nan: a float limit, not a
    # minimum; just inside the range the minimum is still the finite -|t| or so
    for p, t in ((1.5, 1e308), (3.0, -1.7e308)):
        with pytest.raises(OverflowError, match=re.escape(f"p={p}, t={t}")):
            psi_min(p, t)
    for p, t in ((1.5, 1e307), (1.5, 6e307), (1.5, -6e307), (3.0, 8e307)):
        value = psi_min(p, t)[0]
        assert math.isfinite(value) and value == pytest.approx(-abs(t), rel=1e-15), (p, t)


def test_g_strictly_decreasing_on_the_unit_gap():
    values = [g_of_p(1.0 + 0.05 * k) for k in range(20)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def _scan_pointwise(f, grid=None):
    """The kernels' grid scan of f over [0, pi], every one of the grid + 1 points evaluated by f
    itself, on the kernels' PSI_GRID unless grid is given; +inf marks a point without a value."""
    grid = seams.PSI_GRID if grid is None else grid
    step = math.pi / grid
    vals = [f(i * step) for i in range(grid + 1)]
    best = min(range(grid + 1), key=vals.__getitem__)
    best_val, best_phi = vals[best], best * step
    cells = [
        i
        for i in range(1, grid)
        if vals[i] < math.inf and vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]
    ]
    brackets = [((i - 1) * step, (i + 1) * step) for i in cells]
    if vals[0] < math.inf and vals[0] <= vals[1]:
        brackets.append((0.0, step))
    if vals[grid] < math.inf and vals[grid] <= vals[grid - 1]:
        brackets.append((math.pi - step, math.pi))
    for a, b in brackets:
        xm, fm = seams.golden(f, a, b)
        if fm < best_val:
            best_val, best_phi = fm, xm
    return best_val, best_phi


def _psi_min_pointwise(p, t):
    """kernels.psi_min with every grid point evaluated by psi itself."""
    psi = kernels.psi
    return _scan_pointwise(lambda phi: psi(p, t, phi))


def _t_bound(p, phi):
    """B/A where A > 0, else inf, for psi = t A + B at phi: the form that reference scans of
    the whole of [0, pi] need."""
    b = 2.0 * math.sin(phi) * math.cos(phi / p)
    a = math.sin((1.0 - 1.0 / p) * phi) - b
    return b / a if a > 0.0 else math.inf


def _g_scan_pointwise(p):
    """kernels.g_scan with its check scanning the whole grid, every point evaluated by psi
    itself, at every p and with its tolerance seams.FEAS_TOL: (g, value), or
    InconsistencyError where the check of psi at t = g fails.  g is 0 from p = 2 on, and below
    2 the negated minimum of B/A that golden section finds on the arc [p pi / 2, pi]."""
    g = 0.0
    if p < 2.0:
        search = seams.golden(lambda x: _t_bound(p, x), p * math.pi / 2.0, math.pi)
        g = min(1.0, max(0.0, -search[1]))
    value = _psi_min_pointwise(p, g)[0]
    return InconsistencyError if value < -seams.FEAS_TOL else (g, value)


def _g_bisection(p):
    """The least t in [0, 1] that psi_min finds feasible, bracketed to 1e-9 by bisection."""

    def feasible(t):
        return kernels.psi_min(p, t)[0] >= -seams.FEAS_TOL

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


def test_g_meets_the_bisection():
    rng = random.Random(7312)
    ps = [1.0, 1.5, 2.0, 3.0, 7.0, 20.0] + [1.0 + 3.0 * rng.random() for _ in range(4)]
    for p in ps:
        assert 0.0 <= _g_bisection(p) - g_of_p(p) <= 1e-9, p


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


@pytest.mark.parametrize(
    "p",
    [1.0, 1.0 + 1e-6, 1.05, 1.1, 1.25, 4.0 / 3.0, 1.5, 5.0 / 3.0, 1.75, 1.9, 1.99, 1.999,
     2.0 - 1e-6, 2.0 - 1e-9, 2.0, 3.0, 7.0, 20.0],
)
def test_g_matches_the_50_digit_reference(p):
    # next to p = 2, g is its true positive value: g(2 - 1e-6) is 6.17e-13; the reference reads
    # g(1) = 1, g(3/2) = 1/5 and g(2) = 0
    reference = _g_reference(p)
    assert reference == {1.0: 1.0, 1.5: 0.2, 2.0: 0.0}.get(p, reference)
    assert abs(g_of_p(p) - reference) <= 1e-14


@settings(max_examples=60)
@given(p=st.floats(1.0, 2.0, exclude_max=True))
@example(p=1.0)
@example(p=1.5)
@example(p=2.0 - 1e-6)
@example(p=math.nextafter(2.0, 0.0))
def test_g_is_the_sup_of_a_fine_grid_scan(p):
    # the reference makes no assumption of one maximum: a scan of -B/A over the whole of [0, pi]
    # (+inf marking A <= 0) on a grid of 4096 cells, each cell bracketing a local maximum
    # refined by golden section.  The two differ by at most 4 ulps of g in [1/2, 1): 15 of
    # 20,000 random p in [1, 3/2] reach it.
    sup = -_scan_pointwise(lambda phi: _t_bound(p, phi), 4096)[0]
    assert abs(g_of_p(p) - min(1.0, max(0.0, sup))) <= 4 * 2.0**-53


def test_g_is_certified_by_psi_min(monkeypatch, capsys):
    for p in (1.05, 1.5, 1.99):
        g = g_of_p(p)
        assert kernels.psi_min(p, g)[0] >= -1e-12

    def low_sup(golden):
        def search(f, a, b):
            # the sup of -B/A is the negated minimum of B/A: raising that minimum lowers the sup
            phi, value = golden(f, a, b)
            return phi, (value + 1e-6 if f.func is seams.t_bound else value)

        return search

    seams.plant(monkeypatch, "golden", low_sup)
    with pytest.raises(InconsistencyError):
        g_of_p(1.5)
    assert main(["gfun", "--p-min", "1.5", "--p-max", "1.5", "--steps", "1"]) == 3
    assert "internal contradiction" in capsys.readouterr().err


def _arc_first(p):
    """The first grid index of g_scan's check at p < 2: the arc where psi can go negative, from
    two cells before p pi / 2."""
    return math.floor(p * seams.PSI_GRID / 2) - 2


_P_EDGES = [1.0, 1.5, math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0), 1e6]


@settings(max_examples=40)
@example(ps=[2.0, math.nextafter(2.0, 3.0), 1e6], order=[0, 1, 2], t=0.5)
@given(
    ps=st.lists(
        st.one_of(st.sampled_from(_P_EDGES), st.floats(1.0, 2.0), st.floats(1.0, 1e6)),
        min_size=1,
        max_size=4,
    ),
    order=st.lists(st.integers(0, 3), min_size=2, max_size=8),
    t=st.floats(0.0, 2.0),
)
def test_the_grid_samples_follow_p(ps, order, t):
    # psi_min and g_scan build their grid samples from the p of the call; any interleaving of
    # p values, repeats included, must give the pointwise scans' floats.  g_scan's check scans
    # only the arc from _arc_first(p) on, and none from p = 2 on, and must still give the floats
    # of the full-grid reference, or raise where its check does, at each tolerance.
    for i in order:
        p = ps[i % len(ps)]
        assert kernels.psi_min(p, t) == _psi_min_pointwise(p, t), (p, t)
        for tol in (0.0, 1e-12, 1e-3):
            with pytest.MonkeyPatch.context() as patch:
                seams.override(patch, "FEAS_TOL", tol)
                try:
                    got = kernels.g_scan(p)
                except InconsistencyError:
                    got = InconsistencyError
                assert got == _g_scan_pointwise(p), (p, tol)


@settings(max_examples=60)
@given(p=st.floats(1.0, 2.0, exclude_max=True), u=st.floats(0.0, 1.0))
@example(p=1.0, u=0.5)
@example(p=1.5, u=0.5)
@example(p=math.nextafter(2.0, 0.0), u=0.5)
def test_psi_is_nonnegative_left_of_the_arc(p, u):
    # The lemmas behind g_scan, on floats: for t in [0, 1] every grid sample left of the first
    # index its check scans has psi >= 0, and A > 0 on the open arc (p pi / 2, pi) its search
    # reads B/A on, next to both ends included.
    with pytest.MonkeyPatch.context() as patch:
        scans = seams.record(patch, "psi_scan")
        kernels.g_scan(p)
    [(_, _, first)] = scans
    assert first == _arc_first(p)
    step = math.pi / seams.PSI_GRID
    psi = kernels.psi
    for i in range(first):
        for t in (0.0, 1.0, u):
            assert psi(p, t, i * step) >= 0.0, (p, t, i)
    lo, hi = math.nextafter(p * math.pi / 2.0, math.pi), math.nextafter(math.pi, 0.0)
    for phi in (lo, hi, lo + u * (hi - lo)):
        b = 2.0 * math.sin(phi) * math.cos(phi / p)
        assert math.sin((1.0 - 1.0 / p) * phi) - b > 0.0, (p, phi)


def test_g_needs_no_scan_from_two_on(monkeypatch):
    rng = random.Random(2718)
    ps = [2.0, math.nextafter(2.0, math.inf), 2.5, 3.0, 4.0, 7.0, 1e6, 1e307]
    ps += [rng.uniform(2.0, 100.0) for _ in range(20)]
    # the scan the shortcut skips would find psi(p, 0, .) >= 0, so g(p) = 0 either way
    for p in ps:
        assert kernels.psi_min(p, 0.0)[0] >= -seams.FEAS_TOL, p
    scans = []
    seams.plant(monkeypatch, "psi_scan", lambda real: lambda *args: scans.append(args))
    assert [g_of_p(p) for p in ps] == [0.0] * len(ps)
    assert [kernels.g_scan(p) for p in ps] == [(0.0, 0.0)] * len(ps)
    assert scans == []


def test_g_builds_one_sample_grid_below_two(monkeypatch):
    seen = seams.record(monkeypatch, "psi_scan")
    # one scan per g(p) below 2, for its check at t = g, starting at the arc, and none from 2 on
    ps = [1.0, 1.5, 1.75, 1.999, 1.999999, 2.0 - 1e-9, math.nextafter(2.0, 0.0)]
    for p in ps:
        seen.clear()
        g = g_of_p(p)
        assert seen == [(p, g, _arc_first(p))], p
    seen.clear()
    assert g_of_p(1.5) == 0.19999999999999996
    assert [g_of_p(p) for p in (2.0, 2.5, 7.0)] == [0.0] * 3
    assert seen == [(1.5, 0.19999999999999996, 382)]


def _refines(calls, func, p, *rest):
    """The refinements among calls of func(p, *rest, .)."""
    return [f for f, _, _ in calls if f.func is func and f.args == (p, *rest)]


def test_g_is_one_search_and_one_refined_check(monkeypatch):
    # g(p) below 2 is one g_scan call, which reads its own tolerance: one golden-section search
    # of B/A, and a check of psi at t = g(p) whose value is refined
    calls = seams.record(monkeypatch, "g_scan")
    refinements = seams.record(monkeypatch, "golden")
    g = g_of_p(1.5)
    assert calls == [(1.5,)]
    assert len(_refines(refinements, seams.t_bound, 1.5)) == 1
    assert _refines(refinements, kernels.psi, 1.5, g) != []


def test_flat_scans_refine_one_cell_per_run(monkeypatch):
    # At p = 1, B/A is -1 on the whole arc and psi(1, 1, .) is 0 on the whole grid, so the
    # search finds -1 and the check at g = 1 is a flat run only, refined once.
    calls = seams.record(monkeypatch, "golden")
    assert kernels.g_scan(1.0) == (1.0, 0.0)
    assert len(_refines(calls, seams.t_bound, 1.0)) == 1
    assert 1 <= len(_refines(calls, kernels.psi, 1.0, 1.0)) <= 2
    calls.clear()
    assert kernels.psi_min(1.0, 1.0) == (0.0, 0.0)
    assert len(calls) <= 2


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
    # the section is read from index 0, so a table that starts elsewhere is refused
    with pytest.raises(ValueError):
        hankel_report(constellation_table(3, 5), 2)


def test_hankel_needs_no_determinant_without_breakdown(monkeypatch):
    # a section that does not break down is one elimination, with no shifted section
    calls = seams.record(monkeypatch, "pivots")
    assert hankel_report(catalan_table(30), 16).verdict == "positive_definite"
    assert hankel_report([F(1)] * 9, 5).verdict == "positive_semidefinite"
    moments = moment_series(Params.exact(2, F(7, 5)), 14)
    report = hankel_report([moments.coefficient(k) for k in range(15)], 8)
    assert report.minors[3] < 0 and report.verdict == "indefinite"
    assert [len(b) for b, in calls] == [16, 5, 8]


def _det(rows):
    # Gaussian elimination over Fractions with row swaps: a reference determinant
    # that shares no code with posdef's integer elimination
    n = len(rows)
    a = [list(r) for r in rows]
    det = F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        inv = a[col][col]
        det *= inv
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / inv
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def _leibniz_det(rows):
    # sum over permutations of sign * product, independent of posdef
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


# mixed denominators, so the integer elimination scales by a nontrivial lcm
_SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=12)
# moments of a discrete measure, so semidefinite sections of every rank occur
_ATOM = st.tuples(_SMALL, st.fractions(min_value=F(1, 2), max_value=2, max_denominator=12))
_MEASURE = st.lists(_ATOM, min_size=1, max_size=5)


@st.composite
def _sections(draw):
    size = draw(st.integers(1, 5))
    if draw(st.booleans()):
        values = draw(st.lists(_SMALL, min_size=2 * size - 1, max_size=2 * size - 1))
    else:
        atoms = draw(_MEASURE)
        values = [sum(w * x**k for x, w in atoms) for k in range(2 * size - 1)]
    return values, size


# two atoms: rank 2, so the third pivot is 0 and every later row vanishes
_TWO_ATOMS = [F(1, 3) * F(1, 2) ** k + F(2, 3) * F(-3, 2) ** k for k in range(11)]


@settings(max_examples=300)
@given(_sections())
@example(([F(1)] * 9, 5))  # rank one: positive semidefinite
@example((moment_series(Params.exact(1, F(1, 2)), 2).coeffs, 2))  # minors 1, -1/4: indefinite
@example(([F(0), F(1), F(0)], 2))  # [[0, 1], [1, 0]] has eigenvalues +-1
# the second pivot of [[1, 1, 1], [1, 1, 2], [1, 2, 5]] is 0 facing 1, yet the next leading
# minor does not vanish
@example(([F(1), F(1), F(1), F(2), F(5)], 3))
@example((_TWO_ATOMS, 6))  # minors 1, 8/9, then 0: positive semidefinite
# a zero row at index 1 of [[1, 1, 1], [1, 1, 1], [1, 1, v4]], then a pivot of the sign of v4 - 1
@example(([F(1), F(1), F(1), F(1), F(2)], 3))
@example(([F(1), F(1), F(1), F(1), F(0)], 3))
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


def _moments(p, t, size):
    jet = moment_series(Params.exact(p, t), 2 * size - 2)
    return [jet.coefficient(k) for k in range(2 * size - 1)]


@st.composite
def _geometric_sections(draw):
    # v_k = c_k r^k with r = u / s0: the denominators grow like s0^k, so
    # hankel_report rescales by s = d_2 // gcd(d_1, d_2) > 1 in most examples
    size = draw(st.integers(1, 5))
    r = F(draw(st.integers(1, 50)) * draw(st.sampled_from([1, -1])), draw(st.integers(2, 10**6)))
    if draw(st.booleans()):
        coeffs = draw(st.lists(_SMALL.filter(bool), min_size=2 * size - 1, max_size=2 * size - 1))
        values = [c * r**k for k, c in enumerate(coeffs)]
        if size > 1 and draw(st.integers(0, 3)) == 0:
            values[draw(st.sampled_from([1, 2]))] = F(0)  # s = d_2 at v_1 = 0, s = 1 at v_2 = 0
    else:
        atoms = draw(_MEASURE)
        values = [sum(w * (x * r) ** k for x, w in atoms) for k in range(2 * size - 1)]
    return values, size


@settings(max_examples=300)
@given(_geometric_sections())
def test_hankel_report_rescaled_sections_match_brute_force(section):
    # the brute-force minors and verdict rules of the test above, on these sections
    test_hankel_report_matches_brute_force.hypothesis.inner_test(section)


_NONZERO = _SMALL.filter(bool)


@st.composite
def _breakdown_sections(draw):
    # sections with a zero pivot facing a nonzero entry by construction, sizes 2..6
    # (a size-1 section cannot break down)
    case = draw(st.sampled_from(["v0", "after_block", "after_drop_out"]))
    if case == "v0":  # v_0 = 0 facing v_1 != 0
        size = draw(st.integers(2, 6))
        rest = draw(st.lists(_SMALL, min_size=2 * size - 3, max_size=2 * size - 3))
        return [F(0), draw(_NONZERO)] + rest, size
    # the moments of m distinct atoms with positive weights: the leading block of
    # order m is positive definite, and pivot m is 0 with the rest of its row
    atoms = draw(st.lists(_ATOM, min_size=1, max_size=3, unique_by=lambda atom: atom[0]))
    m = len(atoms)
    moments = [sum(w * x**k for x, w in atoms) for k in range(2 * m + 4)]
    if case == "after_block":
        # v_(2m+1) moved: pivot m faces it; the later values are free
        size = draw(st.integers(m + 2, 6))
        rest = draw(st.lists(_SMALL, min_size=2 * size - 3 - 2 * m, max_size=2 * size - 3 - 2 * m))
        return moments[: 2 * m + 1] + [moments[2 * m + 1] + draw(_NONZERO)] + rest, size
    # size m + 3 and v_(2m+3) moved: row m stays zero and drops out, then pivot m + 1
    # is 0 facing the moved entry, and every leading minor of order above m is 0
    return moments[: 2 * m + 3] + [moments[2 * m + 3] + draw(_NONZERO), draw(_SMALL)], m + 3


@settings(max_examples=200)
@given(_breakdown_sections())
def test_hankel_report_breakdown_sections_match_brute_force(section):
    # the brute-force minors and verdict rules above, where the elimination breaks down
    values, size = section
    scale = math.lcm(*(v.denominator for v in values))
    b = [[int(v * scale) for v in values[i : i + size]] for i in range(size)]
    assert None in [pivot for pivot, _ in seams.pivots(b)]
    test_hankel_report_matches_brute_force.hypothesis.inner_test(section)


def _leading_dets(values, size):
    return [_det([values[i : i + k + 1] for i in range(k + 1)]) for k in range(size)]


@pytest.mark.parametrize("p, t, size", [(2, F(1, 10**300), 5), (3, F(7, 10**300), 4)])
def test_infdiv_minors_stay_exact_at_tiny_t(p, t, size):
    # the cumulant denominators grow like 10^(300 k), so s is about 10^300
    cumulants = cumulants_from_moments(moment_series(Params.exact(p, t), 2 * size))
    shifted = [cumulants.cumulant(n) for n in range(2, 2 * size + 1)]
    report = infdiv_check(p, t, size)
    assert report.minors == _leading_dets(shifted, size)
    assert report.verdict == "indefinite"


def test_classify_minors_stay_exact_at_size_16():
    # a hankel-grid-like point: den(a_n) grows like 37^(n-1) n!
    p, t = F(97, 37), F(5, 12)
    report = classify_point(Params.exact(p, t), 16)["hankel"]
    assert report.minors == _leading_dets(_moments(p, t, 16), 16)
    assert report.verdict == "positive_definite"


@pytest.mark.parametrize("size", [12, 16])
def test_hankel_minors_are_the_leading_determinants(monkeypatch, size):
    # hankel-grid-like points: p over 8..48, t over 3..12; (3/2, 0) breaks down
    calls = seams.record(monkeypatch, "pivots")
    points = {
        (F(37, 24), F(5, 12)): "positive_definite",
        (F(11, 8), F(4, 5)): "positive_definite",
        (F(83, 48), F(7, 3)): "indefinite",
        (F(3, 2), F(0)): "indefinite",
    }
    for (p, t), verdict in points.items():
        calls.clear()
        values = _moments(p, t, size)
        report = hankel_report(values, size)
        assert report.minors == _leading_dets(values, size), (p, t)
        assert report.verdict == verdict, (p, t)
        # only the breakdown point runs the elimination on shifted sections
        assert (len(calls) > 1) == (t == 0), (p, t)


def test_hankel_refuses_floats():
    # a binary float would enter the exact analysis as its dyadic value: 1/3 as
    # 6004799503160661/18014398509481984, and the minor of order 2 as 1501199875790165/2^54;
    # it is refused as at every exact entry point, and its exact string is read
    for values in ([1.0, 0.5, 1 / 3], [F(1), F(1, 2), 1 / 3], ["1", "1/2", 0.3333]):
        with pytest.raises(TypeError, match="float"):
            hankel_report(values, 2)
    assert hankel_report(["1", "1/2", "1/3"], 2).minors == [F(1), F(1, 12)]


@pytest.mark.parametrize(
    "values, size",
    [
        ([F(1), F(1, 3), F(1, 3), F(-2, 9), F(5, 4)], 3),
        ([F(0), F(1), F(0)], 2),
        ([F(1), F(1), F(1), F(2), F(5)], 3),  # the breakdown branch, minors from shifts
        ([F(2), F(-6, 5), F(1), F(0), F(7, 2), F(3, 8), F(11, 6)], 4),
        (catalan_table(8).values, 4),  # a longer table than the section reads
        ([F(1), F(1), F(2)], 2),
    ],
)
def test_hankel_input_forms_give_one_report(values, size):
    # Fractions, ints (cleared by the lcm of the denominators), strings and a
    # SeqTable of the same values are all read as the same reduced pairs
    scale = math.lcm(*(v.denominator for v in values))
    report = hankel_report(values, size)
    assert report == hankel_report(SeqTable("x", 0, values), size)
    assert report == hankel_report([str(v) for v in values], size)
    assert report == hankel_report((v for v in values), size)
    scaled = hankel_report([int(v * scale) for v in values], size)
    assert isinstance(scaled, HankelVerdict) and scaled.verdict == report.verdict
    assert scaled.minors == [m * scale ** (k + 1) for k, m in enumerate(report.minors)]
    assert hankel_report([int(v) for v in values], size) == hankel_report(
        [F(int(v)) for v in values], size
    )


@settings(max_examples=150)
@given(
    st.integers(1, 48).flatmap(lambda b: st.tuples(st.integers(b, 4 * b), st.just(b))),
    st.integers(1, 12).flatmap(lambda v: st.tuples(st.integers(0, 3 * v - 1), st.just(v))),
    st.integers(1, 16),
)
@example((1, 1), (1, 1), 2)  # rank one: positive_semidefinite through a zero pivot
@example((3, 2), (0, 1), 3)  # a zero pivot facing a nonzero entry: indefinite, shifted minors
def test_classify_reads_the_moment_section_as_hankel_report_does(p, t, size):
    # classify_point's integer section against the Fraction moment jet, with t
    # on both sides of 2p/(p+1)
    params = Params.exact(F(*p), F(*t))
    values = moment_series(params, 2 * size - 2).coeffs
    assert classify_point(params, size)["hankel"] == hankel_report(values, size)


@settings(max_examples=150)
@given(
    st.integers(1, 48).flatmap(lambda b: st.tuples(st.integers(b, 4 * b), st.just(b))),
    st.sampled_from(("below", "inside", "above")),
    st.fractions(min_value=0, max_value=1, max_denominator=24),
    st.integers(1, 16),
)
@example((1, 1), "inside", F(1), 5)  # p = 1: a zero pivot and a vanishing row
@example((3, 2), "inside", F(0), 3)  # (3/2, 0): a zero pivot facing a nonzero entry
def test_classify_point_without_minors_gives_the_same_verdicts(p, side, u, size):
    # t below 0, in [0, 2p/(p+1)] or above it, by the fraction u of a unit step or of the span;
    # below 0 takes u in (0, 1], as u = 0 would put t at 0
    assume(side != "below" or u > 0)
    p = F(*p)
    top = 2 * p / (p + 1)
    t = {"below": -u, "inside": u * top, "above": top + u}[side]
    params = Params.exact(p, t)
    full = classify_point(params, size)
    bare = classify_point(params, size, minors=False)
    assert bare["theorem_verdict"] == full["theorem_verdict"]
    assert bare["hankel"] == HankelVerdict(size, [], full["hankel"].verdict)


# t landmarks of every row: negative t, 0, 1, 2, t near 10^-300 on both sides of 0
_ROW_LANDMARKS = (F(-1, 2), F(0), F(1), F(2), F(1, 10**300), F(-3, 10**300), F(7, 10**300 + 1))


@settings(max_examples=60)
@given(
    st.integers(1, 48).flatmap(lambda b: st.tuples(st.integers(b, 4 * b), st.just(b))),
    st.lists(st.fractions(min_value=-1, max_value=3, max_denominator=24), max_size=4),
    st.integers(1, 16),
)
@example((1, 1), [], 5)  # p = 1: every section is at best semidefinite
@example((3, 2), [], 3)  # (3/2, 0) has a zero pivot facing a nonzero entry
def test_classify_row_gives_each_cell_the_verdicts_of_classify_point(p, ts, size):
    p = F(*p)
    ts = [*ts, *_ROW_LANDMARKS, 2 * p / (p + 1)]
    row = list(classify_row(p, ts, size))
    points = [classify_point(Params.exact(p, t), size) for t in ts]
    assert row == [(point["theorem_verdict"], point["hankel"].verdict) for point in points]


def _count_pivot_reads(monkeypatch):
    reads = []

    def counted(real):
        def pivots(b):
            for item in real(b):
                reads.append(item)
                yield item

        return pivots

    seams.plant(monkeypatch, "pivots", counted)
    return reads


def test_classify_row_stops_an_indefinite_cell_at_its_verdict(monkeypatch):
    # at (2, -1) the leading minor of order 2 is already negative: the row path, which is
    # hankel_report with minors=False, reads pivots 0 and 1, one elimination step; with
    # minors hankel_report reads all 16
    reads = _count_pivot_reads(monkeypatch)
    assert list(classify_row(2, [F(-1)], 16)) == [(False, "indefinite")]
    assert [verdict for _, verdict in reads] == ["positive_definite", "indefinite"]
    reads.clear()
    assert classify_point(Params.exact(2, F(-1)), 16)["hankel"].minors[1] == -1
    assert len(reads) == 16
    reads.clear()
    moments = moment_series(Params.exact(2, F(-1)), 30).coeffs
    assert hankel_report(moments, 16, minors=False) == HankelVerdict(16, [], "indefinite")
    assert len(reads) == 2
    reads.clear()
    assert list(classify_row(2, [F(1)], 16)) == [(True, "positive_definite")]
    assert len(reads) == 16


def test_posdef_csv_stops_at_the_verdict_and_json_reads_every_pivot(monkeypatch, capsys):
    # at (2, -1) the leading minor of order 2 is -1: the CSV row reads pivots 0 and 1, the JSON
    # payload, which prints every minor, all 16
    reads = _count_pivot_reads(monkeypatch)
    point = ["posdef", "--p", "2", "--t=-1", "--hankel-size", "16"]
    assert main(point) == 0
    assert capsys.readouterr().out.endswith("2/1,-1/1,false,indefinite\n")
    assert [verdict for _, verdict in reads] == ["positive_definite", "indefinite"]
    reads.clear()
    assert main([*point, "--format", "json"]) == 0
    assert len(reads) == 16


def test_every_cell_path_reaches_hankel_report_by_its_module_name(monkeypatch):
    # a tracer rebinds posdef.hankel_report to time each cell's elimination as posdef work;
    # a cell path that read its section any other way would hide it
    calls = seams.record(monkeypatch, "hankel_report")

    def sizes():
        return [size for _, size, *_ in calls]

    assert classify_point(Params.exact(2, F(1)), 5)["hankel"].verdict == "positive_definite"
    assert sizes() == [5]
    calls.clear()
    assert len(list(classify_row(2, [F(-1), F(0), F(1)], 4))) == 3
    assert sizes() == [4] * 3
    calls.clear()
    assert main(["domain-grid", "--steps", "2", "--hankel-size", "3"]) == 0
    assert sizes() == [3] * 4


def test_classify_row_builds_the_raney_integers_once_per_row(monkeypatch):
    # two Raney numerators (r = 1, 2) at each n = 1..2m - 2, per p row, whatever the steps:
    # each a direct product or a step from n - b (at p = 2 from n = 5 on, at p = 3/2 at n = 6)
    calls = [seams.record(monkeypatch, name) for name in ("raney_num", "raney_step")]
    for steps in (1, 2, 5):
        for seen in calls:
            seen.clear()
        assert main(["domain-grid", "--steps", str(steps), "--hankel-size", "4"]) == 0
        assert sum(map(len, calls)) == steps * 2 * 6, steps


@pytest.mark.parametrize("n, size, code", [(3, 3, 3), (4, 3, 3), (3, 2, 0)])
def test_domain_grid_runs_the_bp_square_check_on_every_row(monkeypatch, capsys, n, size, code):
    # r = 2 off by one at n: caught while n <= 2 size - 2, the order the section reads
    seams.plant(
        monkeypatch, "raney_num", lambda real: lambda p, r, k: real(p, r, k) + (r == 2 and k == n)
    )
    argv = ["domain-grid", "--steps", "2", "--hankel-size", str(size)]
    assert main(argv) == code
    assert ("internal contradiction" in capsys.readouterr().err) == (code == 3)


def test_domain_grid_cross_checks_every_cell(monkeypatch, capsys):
    # a forced indefinite verdict contradicts t strictly inside [g(2), 4/3] = [0, 4/3], not above
    def indefinite(b):
        yield -1, "indefinite"

    seams.plant(monkeypatch, "pivots", lambda real: indefinite)
    with pytest.raises(InconsistencyError):
        list(classify_row(2, [F(1)], 6))
    grid = ["domain-grid", "--steps", "1", "--p-min", "2", "--t-max", "2"]
    assert main([*grid, "--t-min", "1"]) == 3
    assert "internal contradiction" in capsys.readouterr().err
    assert main([*grid, "--t-min", "2"]) == 0
    assert capsys.readouterr().out.endswith("2/1,2/1,false,indefinite\n")


_PD, _PSD, _IND = "positive_definite", "positive_semidefinite", "indefinite"


def test_classify_pins_read_the_same_through_classify_row():
    # (p, t, size, theorem verdict, Hankel verdict), then a grid at size 4 whose verdicts are
    # not pinned: each is one point's record, which classify_row gives again, and where the
    # theorem holds, positive definiteness forces the quadratic necessary condition
    rows = [
        (5, F(5, 3), 6, True, _PD),
        (F(3, 2), F(1, 5), 6, True, _PD),
        (2, F(4, 3), 6, True, _PD),
        (2, F(7, 5), 8, False, _IND),
        (F(3, 2), F(1, 10), 6, False, _IND),
        (1, F(1), 5, True, _PSD),  # a zero pivot and a vanishing row from order 2 on
        (F(3, 2), F(0), 3, False, _IND),  # the second pivot is 0 facing a nonzero entry
        # the upper edge 2p/(p+1) is exact: 1e-7 above it is outside, though the section of
        # size 6 is still positive definite
        (2, F(4, 3) + F(1, 10**7), 6, False, _PD),
        (F(5, 2), F(10, 7) + F(1, 10**7), 6, False, _PD),
    ]
    rows += [
        (p, t, 4, None, None)
        for p in (F(1), F(3, 2), F(2), F(3), F(4))
        for t in (F(-1, 2), F(0), F(1, 5), F(1, 2), F(1), F(4, 3), F(3, 2), F(2))
    ]
    for p, t, size, theorem, verdict in rows:
        record = classify_point(Params.exact(p, t), size)
        assert set(record) == {"theorem_verdict", "hankel"}
        got = (record["theorem_verdict"], record["hankel"].verdict)
        assert theorem is None or got == (theorem, verdict), (p, t, size, got)
        assert list(classify_row(p, [t], size)) == [got], (p, t, size)
        if got[0]:
            assert necessary_gap(Params.exact(p, t)) >= F(-1, 10**6), (p, t)


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


def test_infdiv_pins():
    # (p, t, size, verdict, minors or None): a small deformation fails, the free Poisson case
    # t = 0 is degenerate, and at size 5 the points inside the divisibility windows pass, those
    # outside fail
    rows = [
        (2, F(1, 2), 2, _IND, [F(5, 4), F(-21, 64)]),
        (2, F(0), 4, _PSD, [F(1), F(0), F(0), F(0)]),
        (2, F(7, 6), 5, _PD, None),
        (2, F(4, 3), 5, _PD, None),
        (3, F(1), 5, _PD, None),
        (3, F(3, 2), 5, _PD, None),
        (3, F(1, 2), 5, _PD, None),
        (2, F(1, 2), 5, _IND, None),
        (2, F(3, 4), 5, _IND, None),
        (3, F(2), 5, _IND, None),
        (2, F(3, 2), 5, _IND, None),
    ]
    for p, t, size, verdict, minors in rows:
        report = infdiv_check(p, t, size)
        assert report.verdict == verdict, (p, t, size)
        assert minors is None or report.minors == minors, (p, t, size)


def test_infdiv_checks_the_moment_route_against_the_closed_r(monkeypatch, capsys):
    # r_1..r_(2m) of the reverted moment jet must equal the closed R-transform jet
    def skewed(real):
        def r_series_closed(p, t, order):
            coeffs = list(real(p, t, order).coeffs)
            coeffs[5] += 1
            return TruncSeries(coeffs)

        return r_series_closed

    seams.plant(monkeypatch, "r_series_closed", skewed)
    with pytest.raises(InconsistencyError):
        infdiv_check(2, F(7, 6), 3)
    assert main(["infdiv", "--p", "3", "--t", "1/2"]) == 3
    assert "internal contradiction" in capsys.readouterr().err


def test_posdef_error_messages():
    half = Params.exact(F(1, 2), F(1))
    cases = [
        (lambda: psi_min(0.9, 1.0), "psi requires p >= 1"),
        (lambda: psi_min(2.0, math.inf), "t must be finite"),
        (lambda: psi_min(2.0, -math.inf), "t must be finite"),
        (lambda: psi_min(2.0, math.nan), "t must be finite"),
        (lambda: g_of_p(0.99), "g is defined for p >= 1"),
        (lambda: hankel_report([F(1)] * 4, 3), "need at least 5 sequence values, got 4"),
        (lambda: hankel_report([F(1)], 0), "size must be positive"),
        (lambda: classify_point(half, 4), "the classification covers p >= 1"),
        (lambda: infdiv_check(4, F(1), 3), "the divisibility check covers p in {2, 3}"),
        (lambda: infdiv_check(F(3, 2), F(1), 3), "the divisibility check covers p in {2, 3}"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_infdiv_default_size_is_the_cli_default():
    # infdiv_check(p, t) tests the same section as `fussdeform infdiv --p P --t T`.
    size = seams.build_parser().parse_args(["infdiv", "--p", "2", "--t", "7/6"]).hankel_size
    for f in (infdiv_check, classify_point):
        assert inspect.signature(f).parameters["size"].default == size == 6, f.__name__
