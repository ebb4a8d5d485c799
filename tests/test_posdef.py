"""Positivity layer: psi criterion, the boundary curve g, exact Hankel verdicts."""

import inspect
import math
import random
from fractions import Fraction as F
from itertools import combinations, permutations

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fussdeform import (
    InconsistencyError,
    Params,
    moment_series,
    necessary_gap,
    posdef,
)
from fussdeform._backend import kernels
from fussdeform.cli import _build_parser, main
from fussdeform import exact_seq
from fussdeform.exact_seq import SeqTable, catalan_table, constellation_table
from fussdeform import series
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
from fussdeform.series import cumulants_from_moments

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


def test_psi_domain_checks():
    with pytest.raises(ValueError, match="p >= 1"):
        psi_min(0.9, 1.0)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            psi_min(2.0, t)


def test_psi_min_landmarks():
    assert psi_min(1.0, 1.0)[0] == pytest.approx(0.0, abs=1e-14)
    assert psi_min(2.0, 0.0)[0] == pytest.approx(0.0, abs=1e-14)
    # the critical deformation at p = 3/2: the minimum just touches zero
    assert psi_min(1.5, 0.2)[0] == pytest.approx(0.0, abs=1e-9)
    assert kernels.psi(1.5, 0.2, PHI_STAR) == pytest.approx(0.0, abs=1e-12)


def test_psi_min_locates_the_critical_angle():
    # just below the critical deformation the minimum is negative, near phi*
    value, phi = psi_min(1.5, 0.19)
    assert value < -0.009
    assert abs(phi - PHI_STAR) < 0.05


def test_psi_min_flags_negative_regions():
    assert psi_min(1.5, 0.1)[0] < -0.01
    assert psi_min(1.0, 0.5)[0] == pytest.approx(-0.5, abs=1e-10)


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


def _scan_pointwise(f):
    """The kernels' grid scan of f over [0, pi], every grid point evaluated by f itself; +inf
    marks a point without a value."""
    grid = kernels._PSI_GRID
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
        xm, fm = kernels._golden(f, a, b)
        if fm < best_val:
            best_val, best_phi = fm, xm
    return best_val, best_phi


def _psi_min_pointwise(p, t):
    """kernels.psi_min with every grid point evaluated by psi itself."""
    return _scan_pointwise(lambda phi: kernels.psi(p, t, phi))


def _t_bound(p, phi):
    """B/A where A > 0, else inf, for psi = t A + B at phi."""
    b = 2.0 * math.sin(phi) * math.cos(phi / p)
    a = math.sin((1.0 - 1.0 / p) * phi) - b
    return b / a if a > 0.0 else math.inf


def _g_scan_pointwise(p, tol):
    """kernels.g_scan with every grid point evaluated by psi and _t_bound themselves."""
    step = math.pi / kernels._PSI_GRID
    if min(kernels.psi(p, 0.0, i * step) for i in range(kernels._PSI_GRID + 1)) >= -tol:
        value = _psi_min_pointwise(p, 0.0)[0]
        if value >= -tol:
            return 0.0, value
    g = min(1.0, max(0.0, -_scan_pointwise(lambda x: _t_bound(p, x))[0]))
    return g, _psi_min_pointwise(p, g)[0]


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
    grid_min = kernels._grid_min

    def low_sup(f, vals, first):
        # the sup of -B/A is the negated minimum of B/A: raising that minimum lowers the sup
        assert first == _arc_first(f.args[0])
        value, phi = grid_min(f, vals, first)
        return (value + 1e-6 if f.func is kernels._t_bound else value), phi

    monkeypatch.setattr(kernels, "_grid_min", low_sup)
    with pytest.raises(InconsistencyError):
        g_of_p(1.5)
    assert main(["gfun", "--p-min", "1.5", "--p-max", "1.5", "--steps", "1"]) == 3
    assert "internal contradiction" in capsys.readouterr().err


def _arc_first(p):
    """The first grid index of g_scan's scans at p: the arc where psi can go negative, two cells
    before p pi / 2 and capped at two cells before pi."""
    return math.floor(min(p, 2.0) * kernels._PSI_GRID / 2) - 2


_P_EDGES = [1.0, 1.5, math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0), 1e6]


@settings(max_examples=40, deadline=None)
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
    # p values, repeats included, must give the pointwise scans' floats.  g_scan scans only the
    # arc from _arc_first(p) on, which p >= 2 caps, and must still give the floats of the
    # full-grid reference.
    for i in order:
        p = ps[i % len(ps)]
        assert kernels.psi_min(p, t) == _psi_min_pointwise(p, t), (p, t)
        for tol in (0.0, 1e-12, 1e-3):
            assert kernels.g_scan(p, tol) == _g_scan_pointwise(p, tol), (p, tol)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(1.0, 2.0, exclude_max=True), u=st.floats(0.0, 1.0))
@example(p=1.0, u=0.5)
@example(p=1.5, u=0.5)
@example(p=math.nextafter(2.0, 0.0), u=0.5)
def test_psi_is_nonnegative_left_of_the_arc(p, u):
    # The lemma behind g_scan's arc, on floats: for t in [0, 1] every grid sample left of the
    # first index g_scan scans has psi >= 0, and B/A >= 0 or inf.
    built = kernels._psi_grid
    firsts = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_psi_grid", lambda p, i: firsts.append(i) or built(p, i))
        kernels.g_scan(p, posdef._FEAS_TOL)
    [first] = firsts
    assert first == _arc_first(p)
    step = math.pi / kernels._PSI_GRID
    for i in range(first):
        for t in (0.0, 1.0, u):
            assert kernels.psi(p, t, i * step) >= 0.0, (p, t, i)
        assert kernels._t_bound(p, i * step) >= 0.0, (p, i)


def test_g_needs_no_scan_from_two_on(monkeypatch):
    rng = random.Random(2718)
    ps = [2.0, math.nextafter(2.0, math.inf), 2.5, 3.0, 7.0, 1e6, 1e307]
    ps += [rng.uniform(2.0, 100.0) for _ in range(20)]
    # the scan the shortcut skips would find psi(p, 0, .) >= 0, so g(p) = 0 either way
    for p in ps:
        assert kernels.psi_min(p, 0.0)[0] >= -posdef._FEAS_TOL, p
    monkeypatch.setattr(posdef, "kernels", object())  # any kernel call raises AttributeError
    assert [g_of_p(p) for p in ps] == [0.0] * len(ps)


def test_g_builds_one_sample_grid_below_two(monkeypatch):
    built = kernels._psi_grid
    seen = []
    monkeypatch.setattr(kernels, "_psi_grid", lambda p, i: seen.append((p, i)) or built(p, i))
    # one grid per g(p) below 2, whichever way its t = 0 test goes, starting at the arc, and none
    # from 2 on
    ps = [1.0, 1.5, 1.75, 1.999, 1.999999, 2.0 - 1e-9, math.nextafter(2.0, 0.0)]
    for p in ps:
        seen.clear()
        g_of_p(p)
        assert seen == [(p, _arc_first(p))], p
    seen.clear()
    assert g_of_p(1.5) == 0.19999999999999998
    assert [g_of_p(p) for p in (2.0, 2.5, 7.0)] == [0.0] * 3
    assert seen == [(1.5, 382)]


def _golden_calls(monkeypatch):
    """The (f, a, b) of every golden-section refinement from here on, in order."""
    golden = kernels._golden
    calls = []
    monkeypatch.setattr(kernels, "_golden", lambda *args: calls.append(args) or golden(*args))
    return calls


def _refines(calls, func, p, *rest):
    """The refinements among calls of func(p, *rest, .)."""
    return [f for f, _, _ in calls if f.func is func and f.args == (p, *rest)]


@pytest.mark.parametrize(
    "p, refined",
    [(1.0, False), (1.25, False), (1.5, False), (1.75, False),
     (1.999, True), (1.999999, True), (2.0 - 1e-9, True)],
)
def test_psi_min_below_decides_as_the_full_scan(monkeypatch, p, refined):
    # g_scan reads only whether the minimum of psi(p, 0, .) is >= -1e-12, so a grid sample
    # strictly under that ends its t = 0 test unrefined.  From 1.999 on no grid sample is under
    # it (at 1.999999 the least is -6.2e-13), so the refinement must still run and give the full
    # scan's verdict: at 1.999 it finds -6.2e-7 between the last two samples.
    tol = posdef._FEAS_TOL
    full = kernels.psi_min(p, 0.0)
    assert full == _psi_min_pointwise(p, 0.0)
    step = math.pi / kernels._PSI_GRID
    low = min(kernels.psi(p, 0.0, i * step) for i in range(kernels._PSI_GRID + 1))
    assert (low < -tol) != refined
    calls = _golden_calls(monkeypatch)
    g, value = kernels.g_scan(p, tol)
    assert (g == 0.0) == (full[0] >= -tol)
    assert (_refines(calls, kernels.psi, p, 0.0) != []) == refined
    # the value is a full scan's: at t = 0 when it is feasible, else at t = g
    assert value == (full[0] if g == 0.0 else kernels.psi_min(p, g)[0])
    if not refined:
        # only a sample strictly under the tolerance ends the test: one at it is refined
        calls.clear()
        assert (kernels.g_scan(p, -low)[0] == 0.0) == (full[0] >= low)
        assert _refines(calls, kernels.psi, p, 0.0) != []


def test_g_passes_the_tolerance_to_its_t0_scan(monkeypatch):
    # g(p) below 2 is one g_scan call with its tolerance; at 1.5 the t = 0 test stops at a grid
    # sample, and the sup scan and the check at t = g(p), whose values are used, are refined
    calls = []
    real = kernels.g_scan
    monkeypatch.setattr(kernels, "g_scan", lambda *args: calls.append(args) or real(*args))
    refinements = _golden_calls(monkeypatch)
    g = g_of_p(1.5)
    assert calls == [(1.5, posdef._FEAS_TOL)]
    assert _refines(refinements, kernels.psi, 1.5, 0.0) == []
    assert _refines(refinements, kernels._t_bound, 1.5) != []
    assert _refines(refinements, kernels.psi, 1.5, g) != []


def test_flat_scans_refine_one_cell_per_run(monkeypatch):
    # At p = 1, B/A is -1 wherever A > 0 and psi(1, 1, .) is 0 on the whole grid, so the sup
    # scan and the check at g = 1 are flat runs only; each run is refined once.  (The t = 0
    # test stops at psi(1, 0, 3 pi / 4) = -1.)
    calls = _golden_calls(monkeypatch)
    assert kernels.g_scan(1.0, posdef._FEAS_TOL) == (1.0, 0.0)
    assert _refines(calls, kernels.psi, 1.0, 0.0) == []
    assert 1 <= len(_refines(calls, kernels._t_bound, 1.0)) <= 2
    assert 1 <= len(_refines(calls, kernels.psi, 1.0, 1.0)) <= 2
    calls.clear()
    assert kernels.psi_min(1.0, 1.0) == (0.0, 0.0)
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
    # the section is read from index 0, so a table that starts elsewhere is refused
    with pytest.raises(ValueError):
        hankel_report(constellation_table(3, 5), 2)


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


def _count_eliminations(monkeypatch):
    calls = []
    real = posdef._pivots
    monkeypatch.setattr(posdef, "_pivots", lambda b: calls.append(len(b)) or real(b))
    return calls


def test_hankel_needs_no_determinant_without_breakdown(monkeypatch):
    # a section that does not break down is one elimination, with no shifted section
    calls = _count_eliminations(monkeypatch)
    assert hankel_report(catalan_table(30), 16).verdict == "positive_definite"
    assert hankel_report([F(1)] * 9, 5).verdict == "positive_semidefinite"
    moments = moment_series(Params.exact(2, F(7, 5)), 14)
    report = hankel_report([moments.coefficient(k) for k in range(15)], 8)
    assert report.minors[3] < 0 and report.verdict == "indefinite"
    assert calls == [16, 5, 8]


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


@settings(max_examples=300, deadline=None)
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


@settings(max_examples=200, deadline=None)
@given(_breakdown_sections())
def test_hankel_report_breakdown_sections_match_brute_force(section):
    # the brute-force minors and verdict rules above, where the elimination breaks down
    values, size = section
    scale = math.lcm(*(v.denominator for v in values))
    b = [[int(v * scale) for v in values[i : i + size]] for i in range(size)]
    assert None in [pivot for pivot, _ in posdef._pivots(b)]
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
    calls = _count_eliminations(monkeypatch)
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


def test_hankel_zero_row_mid_section_keeps_the_elimination_exact():
    # two atoms: rank 2, so the third pivot is 0 and every later row vanishes
    atoms = [(F(1, 2), F(1, 3)), (F(-3, 2), F(2, 3))]
    values = [sum(w * x**k for x, w in atoms) for k in range(11)]
    report = hankel_report(values, 6)
    assert report.minors == [F(1), F(8, 9), F(0), F(0), F(0), F(0)]
    assert report.verdict == "positive_semidefinite"
    # [[1, 1, 1], [1, 1, 1], [1, 1, 2]]: a zero row at index 1, then a positive pivot
    assert hankel_report([F(1), F(1), F(1), F(1), F(2)], 3).verdict == "positive_semidefinite"
    # [[1, 1, 1], [1, 1, 1], [1, 1, 0]]: a zero row at index 1, then a negative pivot
    assert hankel_report([F(1), F(1), F(1), F(1), F(0)], 3).verdict == "indefinite"


def test_hankel_input_validation():
    with pytest.raises(ValueError):
        hankel_report([F(1)] * 4, 3)
    with pytest.raises(ValueError):
        hankel_report([F(1)], 0)


def test_hankel_accepts_table_or_plain_sequence():
    table = catalan_table(8)
    assert hankel_report(table, 4) == hankel_report(list(table.values), 4)
    assert isinstance(hankel_report([1, 1, 2], 2), HankelVerdict)


@pytest.mark.parametrize(
    "values, size",
    [
        ([F(1), F(1, 3), F(1, 3), F(-2, 9), F(5, 4)], 3),
        ([F(0), F(1), F(0)], 2),
        ([F(1), F(1), F(1), F(2), F(5)], 3),  # the breakdown branch, minors from shifts
        ([F(2), F(-6, 5), F(1), F(0), F(7, 2), F(3, 8), F(11, 6)], 4),
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
    assert scaled.verdict == report.verdict
    assert scaled.minors == [m * scale ** (k + 1) for k, m in enumerate(report.minors)]
    assert hankel_report([int(v) for v in values], size) == hankel_report(
        [F(int(v)) for v in values], size
    )


@settings(max_examples=150, deadline=None)
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


@settings(max_examples=150, deadline=None)
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


@settings(max_examples=60, deadline=None)
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


@pytest.mark.parametrize(
    "p, t, size, verdict",
    [
        (1, F(1), 5, "positive_semidefinite"),  # a zero pivot and a vanishing row from order 2 on
        (F(3, 2), F(0), 3, "indefinite"),  # the second pivot is 0 facing a nonzero entry
    ],
)
def test_classify_row_at_a_zero_pivot(p, t, size, verdict):
    point = classify_point(Params.exact(p, t), size)
    assert point["hankel"].verdict == verdict
    assert list(classify_row(p, [t], size)) == [(point["theorem_verdict"], verdict)]


def _count_pivot_reads(monkeypatch):
    reads = []
    real = posdef._pivots

    def counted(b):
        for item in real(b):
            reads.append(item)
            yield item

    monkeypatch.setattr(posdef, "_pivots", counted)
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
    calls = []
    real = posdef.hankel_report

    def counted(seq, size, minors=True):
        calls.append(size)
        return real(seq, size, minors)

    monkeypatch.setattr(posdef, "hankel_report", counted)
    assert classify_point(Params.exact(2, F(1)), 5)["hankel"].verdict == "positive_definite"
    assert calls == [5]
    calls.clear()
    assert len(list(classify_row(2, [F(-1), F(0), F(1)], 4))) == 3
    assert calls == [4] * 3
    calls.clear()
    assert main(["domain-grid", "--steps", "2", "--hankel-size", "3"]) == 0
    assert calls == [3] * 4


def test_classify_row_builds_the_raney_integers_once_per_row(monkeypatch):
    # two Raney numerators (r = 1, 2) at each n = 1..2m - 2, per p row, whatever the steps
    calls = []
    real = exact_seq._raney_num
    monkeypatch.setattr(exact_seq, "_raney_num", lambda p, r, n: calls.append(n) or real(p, r, n))
    for steps in (1, 2, 5):
        calls.clear()
        assert main(["domain-grid", "--steps", str(steps), "--hankel-size", "4"]) == 0
        assert len(calls) == steps * 2 * 6, steps


@pytest.mark.parametrize("n, size, code", [(3, 3, 3), (4, 3, 3), (3, 2, 0)])
def test_domain_grid_runs_the_bp_square_check_on_every_row(monkeypatch, capsys, n, size, code):
    # r = 2 off by one at n: caught while n <= 2 size - 2, the order the section reads
    real = exact_seq._raney_num

    def skewed(p, r, k):
        return real(p, r, k) + (r == 2 and k == n)

    monkeypatch.setattr(exact_seq, "_raney_num", skewed)
    argv = ["domain-grid", "--steps", "2", "--hankel-size", str(size)]
    assert main(argv) == code
    assert ("internal contradiction" in capsys.readouterr().err) == (code == 3)


def test_domain_grid_cross_checks_every_cell(monkeypatch, capsys):
    # a forced indefinite verdict contradicts t strictly inside [g(2), 4/3] = [0, 4/3], not above
    def indefinite(b):
        yield -1, "indefinite"

    monkeypatch.setattr(posdef, "_pivots", indefinite)
    with pytest.raises(InconsistencyError):
        list(classify_row(2, [F(1)], 6))
    grid = ["domain-grid", "--steps", "1", "--p-min", "2", "--t-max", "2"]
    assert main([*grid, "--t-min", "1"]) == 3
    assert "internal contradiction" in capsys.readouterr().err
    assert main([*grid, "--t-min", "2"]) == 0
    assert capsys.readouterr().out.endswith("2/1,2/1,false,indefinite\n")


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


def test_infdiv_checks_the_moment_route_against_the_closed_r(monkeypatch, capsys):
    # r_1..r_(2m) of the reverted moment jet must equal the closed R-transform jet
    real = series.r_series_closed

    def skewed(p, t, order):
        coeffs = list(real(p, t, order).coeffs)
        coeffs[5] += 1
        return series.TruncSeries(coeffs)

    monkeypatch.setattr(series, "r_series_closed", skewed)
    with pytest.raises(InconsistencyError):
        infdiv_check(2, F(7, 6), 3)
    assert main(["infdiv", "--p", "3", "--t", "1/2"]) == 3
    assert "internal contradiction" in capsys.readouterr().err


def test_infdiv_covers_only_the_closed_description():
    with pytest.raises(ValueError):
        infdiv_check(4, F(1), 3)
    with pytest.raises(ValueError):
        infdiv_check(F(3, 2), F(1), 3)


def test_infdiv_default_size_is_the_cli_default():
    # infdiv_check(p, t) tests the same section as `fussdeform infdiv --p P --t T`.
    size = _build_parser().parse_args(["infdiv", "--p", "2", "--t", "7/6"]).hankel_size
    for f in (infdiv_check, classify_point):
        assert inspect.signature(f).parameters["size"].default == size == 6, f.__name__
