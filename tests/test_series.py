"""Series engine and transform layer: jet algebra, reversion, closed forms."""

import random
from fractions import Fraction as F
from math import comb, isqrt, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seams
from fussdeform import (
    CumulantTable,
    InconsistencyError,
    Params,
    TruncSeries,
    bp_series,
    compose,
    cumulant_jet,
    cumulants_from_moments,
    gf_closed_expand,
    moment_series,
    moments_from_cumulants,
    pow1p,
    r_series_closed,
    raney,
    revert,
    s_series_closed,
    s_series_from_moments,
    sqrt1p,
)
from fussdeform import series
from fussdeform.cli import main
from test_exact_seq import _raney_loop

A220910_PREFIX = [1, 1, 3, 14, 83, 570, 4318, 35068, 299907, 2668994, 24513578]
EX1_PREFIX = [1, 2, 5, 16, 64, 304, 1632, 9552, 59520, 388720, 2632864]
A022558_PREFIX = [1, 1, 2, 6, 23, 103, 512, 2740, 15485, 91245, 555662]


def random_jet(rng, order, c0=None, c1=None):
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(order + 1)]
    if c0 is not None:
        coeffs[0] = F(c0)
    if c1 is not None:
        coeffs[1] = F(c1)
    return TruncSeries(tuple(coeffs))


# -- jet algebra --------------------------------------------------------------


def test_arithmetic_basics():
    f = TruncSeries.from_coeffs([1, 2, 3])
    g = TruncSeries.from_coeffs([0, 1, -1])
    assert (f + g).coeffs == (F(1), F(3), F(2))
    assert (f - g).coeffs == (F(1), F(1), F(4))
    assert (f * g).coeffs == (F(0), F(1), F(1))
    assert (2 * f).coeffs == (F(2), F(4), F(6))
    assert (f + 1).coeffs == (F(2), F(2), F(3))
    assert (1 - g).coeffs == (F(1), F(-1), F(1))


def test_operations_truncate_to_shorter_order():
    f = TruncSeries.from_coeffs([1, 1, 1, 1, 1])
    g = TruncSeries.from_coeffs([1, 2])
    assert (f + g).order == 1
    assert (f * g).order == 1
    assert (f / g).order == 1


def test_division_roundtrip_and_geometric():
    rng = random.Random(5)
    for _ in range(10):
        f = random_jet(rng, 8)
        g = random_jet(rng, 8, c0=rng.choice([1, 2, -3]))
        assert (f / g) * g == f
    geom = 1 / TruncSeries.from_coeffs([1, -1], 6)
    assert geom.coeffs == (F(1),) * 7


def test_division_rejects_zero_constant():
    f = TruncSeries.from_coeffs([1, 1])
    g = TruncSeries.from_coeffs([0, 1])
    with pytest.raises(ValueError):
        f / g


def test_deriv_shift_and_accessors():
    f = TruncSeries.from_coeffs([5, 1, 2, 3])
    assert f.deriv().coeffs == (F(1), F(4), F(9))
    assert f.shift_up(2).coeffs == (F(0), F(0), F(5), F(1), F(2), F(3))
    z2 = TruncSeries.from_coeffs([0, 0, 7, 9])
    assert z2.shift_down(2).coeffs == (F(7), F(9))
    with pytest.raises(ValueError):
        f.shift_down(1)
    assert f.coefficient(2) == 2
    with pytest.raises(IndexError):
        f.coefficient(4)
    assert f.truncate(1).coeffs == (F(5), F(1))
    assert f.truncate(5).coeffs == (F(5), F(1), F(2), F(3), F(0), F(0))


# -- compose / revert ---------------------------------------------------------


def brute_compose(f, g):
    """Reference composition by explicit powers of g."""
    n = min(f.order, g.order)
    acc = TruncSeries.constant(f.coeffs[0], n)
    gp = TruncSeries.constant(1, n)
    for k in range(1, n + 1):
        gp = gp * g.truncate(n)
        acc = acc + f.coeffs[k] * gp
    return acc


_SPLIT_ORDERS = sorted({*range(13), *(s * s + d for s in range(2, 9) for d in (-1, 0, 1))})


def _split_inner(n, shape):
    """An inner jet of order n: dense, g_2 = 0, valuation 2 or 3, or zero."""
    coeffs = [F(0)] + [F((-1) ** k * (k % 7 + 1), k % 3 + 2) for k in range(1, n + 1)]
    zeros = {"g2 = 0": (2,), "valuation 2": (1,), "valuation 3": (1, 2), "zero": range(n + 1)}
    for k in zeros.get(shape, ()):
        if k <= n:
            coeffs[k] = F(0)
    return TruncSeries(tuple(coeffs))


def _split_outer(n, shape):
    """An outer jet of order n: dense, zero, constant, or with block 1 or the top block zero."""
    coeffs = [F(k % 5 - 2, k % 4 + 1) or F(1, 3) for k in range(n + 1)]
    s = isqrt(n) or 1
    zeros = {
        "zero": range(n + 1),
        "constant": range(1, n + 1),
        "zero block 1": range(s, 2 * s),
        "zero top block": range(n // s * s, n + 1),
    }
    for k in zeros.get(shape, ()):
        if k <= n:
            coeffs[k] = F(0)
    return TruncSeries(tuple(coeffs))


@pytest.mark.parametrize("inner", ["dense", "g2 = 0", "valuation 2", "valuation 3", "zero"])
def test_compose_at_every_block_boundary(inner):
    # orders 0..12 and s^2 - 1, s^2, s^2 + 1 for s = 2..8: every way the
    # baby-step giant-step split of compose can end, up to the order 65 at
    # which transforms --series-order 64 checks its reversion
    for n in _SPLIT_ORDERS:
        g = _split_inner(n, inner)
        for outer in ("dense", "zero", "constant", "zero block 1", "zero top block"):
            f = _split_outer(n, outer)
            h = compose(f, g)
            assert h == brute_compose(f, g), (n, outer)
            assert all(type(c) is F for c in h.coeffs), (n, outer)


def test_compose_rejects_nonzero_inner_constant():
    f = TruncSeries.from_coeffs([1, 1])
    with pytest.raises(ValueError):
        compose(f, TruncSeries.from_coeffs([1, 1]))


def test_revert_known_forms():
    # revert(z/(1-z)) = z/(1+z)
    f = TruncSeries.from_coeffs([0] + [1] * 8)
    g = revert(f)
    assert g.coeffs == tuple(F((-1) ** (n + 1)) if n else F(0) for n in range(9))
    # revert(z (1+z)^(-p)) = z * B_p(z)^p  (Lambert)
    for p in (F(2), F(3), F(3, 2)):
        n = 10
        inner = TruncSeries.identity(n) * pow1p(TruncSeries.from_coeffs([1, 1], n), -p)
        expected = (TruncSeries.identity(n) * pow1p(bp_series(p, 1, n), p)).truncate(n)
        assert revert(inner) == expected


def test_revert_rejects_bad_jets():
    with pytest.raises(ValueError):
        revert(TruncSeries.from_coeffs([1, 1]))
    with pytest.raises(ValueError):
        revert(TruncSeries.from_coeffs([0, 0, 1]))


# -- sqrt1p / pow1p -----------------------------------------------------------


def test_sqrt1p_square_roundtrip_and_known_series():
    rng = random.Random(31)
    for _ in range(8):
        f = random_jet(rng, 9, c0=1)
        s = sqrt1p(f)
        assert s * s == f
    s = sqrt1p(TruncSeries.from_coeffs([1, -4], 6))
    assert s.coeffs == (F(1), F(-2), F(-2), F(-4), F(-10), F(-28), F(-84))
    with pytest.raises(ValueError):
        sqrt1p(TruncSeries.from_coeffs([4, 1]))


def test_pow1p_agrees_with_multiplication_and_inverse():
    rng = random.Random(41)
    for _ in range(6):
        f = random_jet(rng, 8, c0=1)
        assert pow1p(f, 2) == f * f
        assert pow1p(f, 3) == f * f * f
        a = F(rng.randint(-7, 7), rng.randint(1, 5))
        prod = pow1p(f, a) * pow1p(f, -a)
        assert prod == TruncSeries.constant(1, 8)
        assert pow1p(f, a) * pow1p(f, 1 - a) == f


def test_pow1p_binomial_series():
    f = pow1p(TruncSeries.from_coeffs([1, 1], 5), F(1, 2))
    assert f.coeffs == (F(1), F(1, 2), F(-1, 8), F(1, 16), F(-5, 128), F(7, 256))
    with pytest.raises(ValueError):
        pow1p(TruncSeries.from_coeffs([0, 1]), 2)


# -- Fuss generating functions -----------------------------------------------


def test_bp_functional_equation_order_16():
    z = TruncSeries.identity(16)
    for p in (F(2), F(3), F(3, 2), F(5, 2)):
        b = bp_series(p, 1, 16)
        assert b == 1 + z * pow1p(b, p)


def test_bp_compose_identity_order_16():
    # B_p(z (1+z)^(-p)) = 1 + z
    for p in (F(2), F(3), F(3, 2), F(5, 2)):
        n = 16
        inner = TruncSeries.identity(n) * pow1p(TruncSeries.from_coeffs([1, 1], n), -p)
        assert compose(bp_series(p, 1, n), inner) == TruncSeries.from_coeffs([1, 1], n)


def test_lambert_coefficients_are_raney():
    rng = random.Random(53)
    for _ in range(10):
        p = F(rng.randint(-8, 12), rng.randint(1, 5))
        r = F(rng.randint(-8, 12), rng.randint(1, 5))
        jet = pow1p(bp_series(p, 1, 9), r)
        for n in range(10):
            assert jet.coeffs[n] == raney(p, r, n)
    assert bp_series(1, 1, 5).coeffs == (F(1),) * 6


# -- moments and cumulants ----------------------------------------------------


def test_moment_series_known_values():
    m = moment_series(Params.exact(2, 1), 8)
    assert m.coeffs == tuple(raney(2, 1, n) for n in range(9))
    m = moment_series(Params.exact(2, F(4, 3)), 4)
    assert m.coeffs == (F(1), F(2, 3), F(1), F(2), F(14, 3))


def test_moment_series_matches_p2_closed_display():
    # (1 - t + 3 t z - 2 z - (1 - t + t z) sqrt(1 - 4 z)) / (2 z^2)
    for t in (F(0), F(1, 2), F(4, 3)):
        n = 10
        rad = sqrt1p(TruncSeries.from_coeffs([1, -4], n + 2))
        num = TruncSeries.from_coeffs([1 - t, 3 * t - 2], n + 2) - TruncSeries.from_coeffs([1 - t, t], n + 2) * rad
        display = num.shift_down(2) / 2
        assert display == moment_series(Params.exact(2, t), n)


def test_cumulants_from_moments_defining_relation():
    # 1 + R(z M(z)) = M(z)
    for p, t in ((F(2), F(1, 2)), (F(3), F(3, 2)), (F(3, 2), F(1, 5))):
        n = 10
        m = moment_series(Params.exact(p, t), n)
        table = cumulants_from_moments(m)
        r = cumulant_jet(table)
        zm = m.shift_up(1).truncate(n)
        assert 1 + compose(r, zm) == m


def test_catalan_cumulants_are_all_one():
    m = moment_series(Params.exact(2, 1), 10)
    table = cumulants_from_moments(m)
    assert table.values == (F(1),) * 10
    assert table.cumulant(3) == 1
    with pytest.raises(IndexError):
        table.cumulant(11)


def test_eta20_cumulant_sequence():
    # the (2, 0) family has cumulant sequence (2, 1, 0, 0, ...)
    table = cumulants_from_moments(moment_series(Params.exact(2, 0), 10))
    assert table.values == (F(2), F(1)) + (F(0),) * 8


# -- closed transforms ----------------------------------------------------------


def test_r_closed_p2_polynomials():
    for t in (F(0), F(1, 2), F(1), F(7, 6), F(4, 3)):
        r = r_series_closed(2, t, 4)
        assert r.coeffs[0] == 0
        assert r.coeffs[1] == 2 - t
        assert r.coeffs[2] == 1 + t - t * t
        assert r.coeffs[3] == 3 * t**2 - 2 * t**3
        assert r.coeffs[4] == -4 * t**2 + 10 * t**3 - 5 * t**4


def test_r_closed_p2_discriminant_identity():
    for t in (F(0), F(1, 2), F(1), F(7, 6), F(4, 3), F(-2, 3), F(5)):
        r = r_series_closed(2, t, 4)
        r2, r3, r4 = r.coeffs[2], r.coeffs[3], r.coeffs[4]
        assert r2 * r4 - r3 * r3 == t * t * (t - 1) * (t - 2) * (t * t - 2)


def test_r_closed_p2_t0_is_polynomial():
    r = r_series_closed(2, 0, 9)
    assert r.coeffs == (F(0), F(2), F(1)) + (F(0),) * 7


def test_r_closed_matches_moment_route():
    for p in (2, 3):
        for t in (F(0), F(1, 2), F(7, 6), F(4, 3), F(3, 2)):
            r = r_series_closed(p, t, 12)
            table = cumulants_from_moments(moment_series(Params.exact(p, t), 12))
            assert r == cumulant_jet(table), (p, t)


def test_r_closed_catalan_slice():
    assert r_series_closed(2, 1, 6).coeffs == (F(0),) + (F(1),) * 6


def test_r_closed_p3_t1_is_catalan():
    # the free cumulants of the Fuss-Catalan law pi(3) are the Catalan numbers
    for n in (1, 2, 8, 40):
        r = r_series_closed(3, 1, n)
        assert r.coeffs == (F(0),) + tuple(F(comb(2 * k, k) // (k + 1)) for k in range(1, n + 1))
        table = cumulants_from_moments(moment_series(Params.exact(3, 1), n))
        assert r == cumulant_jet(table), n


def test_r_closed_p3_t1_needs_no_moment_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("the closed R-transform took a second route")

    seams.plant(monkeypatch, "revert", lambda real: refuse)
    seams.plant(monkeypatch, "moment_series", lambda real: refuse)
    assert r_series_closed(3, 1, 12).coeffs[12] == 208012


def test_cli_closed_r_at_p3_t1_matches_moment_route(capsys):
    rows = {}
    for route in ("closed", "moments"):
        argv = ["transforms", "--route", route, "--p", "3", "--t", "1", "--series-order", "12"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        if route == "closed":
            assert err == ""
        rows[route] = [line for line in out.splitlines() if line.startswith("r,")]
    assert len(rows["closed"]) == 13
    assert rows["closed"] == rows["moments"]


def test_r_closed_rejects_other_p():
    with pytest.raises(ValueError):
        r_series_closed(4, F(1, 2), 6)
    with pytest.raises(ValueError):
        r_series_closed(F(3, 2), F(1, 5), 6)


def test_s_closed_matches_moment_route():
    for p, t in (
        (F(2), F(1, 2)),
        (F(2), F(1)),
        (F(2), F(4, 3)),
        (F(3), F(1)),
        (F(3), F(3, 2)),
        (F(3, 2), F(1, 5)),
    ):
        n = 12
        s_closed = s_series_closed(Params.exact(p, t), n - 1)
        s_moments = s_series_from_moments(moment_series(Params.exact(p, t), n))
        assert s_closed == s_moments, (p, t)
        assert s_closed.coeffs[0] == 1 / (2 - t)


def test_s_closed_rejects_t2():
    with pytest.raises(ValueError):
        s_series_closed(Params.exact(2, 2), 6)


def test_r_of_zs_is_identity():
    # R(z S(z)) = z ties the two transforms together
    for p, t in ((F(2), F(1, 2)), (F(3), F(3, 2)), (F(3, 2), F(1, 5))):
        n = 12
        m = moment_series(Params.exact(p, t), n)
        r = cumulant_jet(cumulants_from_moments(m))
        s = s_series_from_moments(m)
        zs = s.shift_up(1).truncate(n)
        assert compose(r, zs) == TruncSeries.identity(n), (p, t)


# -- closed generating functions ----------------------------------------------


def test_gf_closed_prefixes():
    assert [c for c in gf_closed_expand("ex1_gf", 10).coeffs] == EX1_PREFIX
    assert [c for c in gf_closed_expand("a220910_gf", 10).coeffs] == A220910_PREFIX
    assert [c for c in gf_closed_expand("a022558_gf", 10).coeffs] == A022558_PREFIX
    with pytest.raises(ValueError):
        gf_closed_expand("mystery_gf", 5)


def test_gf_scaled_cumulant_links():
    # ex1_gf = 1 + R_{(2,4/3)}(3z); a220910_gf = 1 + R_{(3,3/2)}(2z)
    n = 14
    r2 = r_series_closed(2, F(4, 3), n)
    scaled = TruncSeries(tuple(F(3) ** k * c for k, c in enumerate(r2.coeffs)))
    assert gf_closed_expand("ex1_gf", n) == scaled + 1
    r3 = r_series_closed(3, F(3, 2), n)
    scaled = TruncSeries(tuple(F(2) ** k * c for k, c in enumerate(r3.coeffs)))
    assert gf_closed_expand("a220910_gf", n) == scaled + 1


def test_radical_jets_at_truncating_orders():
    # orders 0..2 are shorter than the coefficient lists of the closed forms, which
    # are then cut to the order; each jet must be the prefix of the order-10 jet
    for name in series.GF_NAMES:
        full = gf_closed_expand(name, 10)
        for order in (0, 1, 2):
            assert gf_closed_expand(name, order) == full.truncate(order), (name, order)
    for t in (F(0), F(1, 2), F(4, 3), F(-2, 3), F(5)):
        full = r_series_closed(2, t, 10)
        for n in (1, 2):
            assert r_series_closed(2, t, n) == full.truncate(n), (t, n)


_ENTRY = st.builds(F, st.integers(-30, 30), st.sampled_from((1, 2, 3, 4, 7, 12)))


@st.composite
def _radical_case(draw):
    """(lead, cofactor, radicand, den, order, shift) of a radical jet: short rational lists with
    zero and negative entries, radicand[0] = 1, and den a number (one entry) or a list; with
    shift 2 den starts with z^2 and lead cancels the numerator's first two coefficients."""
    lists = st.lists(_ENTRY, min_size=1, max_size=4)
    lead, cofactor, radicand = draw(lists), draw(lists), [F(1), *draw(st.lists(_ENTRY, max_size=4))]
    den = [draw(_ENTRY.filter(bool))]
    shift = 0
    if draw(st.booleans()):
        den += draw(lists)
        shift = draw(st.sampled_from((0, 2)))
    if shift:
        c, q = cofactor + [0], radicand + [0]
        lead = [-c[0], -c[0] * q[1] / 2 - c[1], *lead[2:]]
        den = [0, 0, *den]
    return lead, cofactor, radicand, den, draw(st.integers(0, 60)), shift


class _Named(tuple):
    """A case shown by its name: the lists at t = 10^-3000 hold more digits than repr prints."""

    def __new__(cls, name, items):
        case = super().__new__(cls, items)
        case.name = name
        return case

    def __repr__(self):
        return self.name


_TINY = F(1, 10**3000)


def _radical_route(lead, cofactor, radicand, den, order, shift):
    """The same jet by the generic engine: sqrt1p, a jet product, and the jet quotient or the
    division by a number."""
    n = order + shift
    num = TruncSeries.from_coeffs(lead, n) + TruncSeries.from_coeffs(cofactor, n) * sqrt1p(
        TruncSeries.from_coeffs(radicand, n)
    )
    if len(den) == 1:
        return num / den[0]
    return num.shift_down(shift) / TruncSeries.from_coeffs(den, n).shift_down(shift)


@settings(max_examples=100)
@given(_radical_case())
@example((*seams.GF["ex1_gf"], 300, 0))
@example((*seams.GF["a220910_gf"], 300, 0))
@example((*seams.GF["a022558_gf"], 300, 0))
@example((*seams.r_lists(F(2), F(4, 3))[0], 300, 0))
@example((*seams.r_lists(F(3), F(3, 2))[0], 300, 0))
@example(_Named("R at (2, 1e-3000)", (*seams.r_lists(F(2), _TINY)[0], 12, 0)))
@example(_Named("R at (3, 1e-3000)", (*seams.r_lists(F(3), _TINY)[0], 12, 0)))
@example((*seams.r_lists(F(3), F(1))[0], 40, 2))
def test_radical_jet_matches_the_generic_route(case):
    # the one integer pass of the closed jets against sqrt1p, * and / of the jet engine
    assert seams.radical_jet(*case) == _radical_route(*case)


def test_r_closed_p2_divides_by_a_number(monkeypatch):
    # R at p = 2 is divided by the number 2 (t - 1): its radical is integers (no running sum
    # of pow1p), and the jet quotient's one running sum per coefficient has no term to add
    calls = seams.record(monkeypatch, "running_sum")
    r_series_closed(2, F(4, 3), 300)
    assert [len(fn) for _, _, _, _, fn, *_ in calls] == [1] * 301


def test_bp_trig_closed_forms_at_a_point():
    # For p = 3 and p = 3/2 the functional equation B = 1 + z B^p has solvable
    # trigonometric forms; evaluating the jet at z = 1/20 must reproduce them.
    from math import asin, cos, sin, sqrt

    z = 0.05

    def horner(jet):
        acc = 0.0
        for c in reversed(jet.coeffs):
            acc = acc * z + float(c)
        return acc

    alpha = asin(sqrt(27.0 * z / 4.0)) / 3.0
    b3 = 3.0 / (3.0 - 4.0 * sin(alpha) ** 2)
    assert abs(horner(bp_series(3, 1, 32)) - b3) <= 1e-9

    beta = asin(3.0 * sqrt(3.0) * z / 2.0) / 3.0
    b32 = 3.0 / (sqrt(3.0) * cos(beta) - sin(beta)) ** 2
    assert abs(horner(bp_series(F(3, 2), 1, 32)) - b32) <= 1e-9


# -- properties of the jet engine -------------------------------------------------

_COEFF = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
_NONZERO = _COEFF.filter(bool)


@st.composite
def _jets(draw, count, lowest=0):
    """``count`` jets of one random order in lowest..9."""
    order = draw(st.integers(lowest, 9))
    coeffs = st.lists(_COEFF, min_size=order + 1, max_size=order + 1)
    return [TruncSeries(tuple(draw(coeffs))) for _ in range(count)]


def _with(jet, index, value):
    coeffs = list(jet.coeffs)
    coeffs[index] = value
    return TruncSeries(tuple(coeffs))


@settings(max_examples=150)
@given(_jets(3), _NONZERO)
def test_jet_ring_identities(jets, g0):
    f, g, h = jets
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    g = _with(g, 0, g0)
    assert (f * g) / g == f


@settings(max_examples=100)
@given(_jets(1, lowest=1), _NONZERO)
def test_revert_is_a_two_sided_involution(jets, f1):
    f = _with(_with(jets[0], 0, F(0)), 1, f1)
    g = revert(f)
    z = TruncSeries.identity(f.order)
    assert compose(f, g) == z
    assert compose(g, f) == z
    assert revert(g) == f


@settings(max_examples=100)
@given(_jets(1, lowest=1))
def test_cumulant_moment_roundtrip(jets):
    # the jet's tail as cumulants r_1..r_N -> moments -> cumulants; a moment jet needs m_0 = 1
    values = jets[0].coeffs[1:]
    m = moments_from_cumulants(CumulantTable(values=values))
    assert m.coeffs[0] == 1
    assert cumulants_from_moments(m.truncate(len(values))).values == values
    with pytest.raises(ValueError):
        cumulants_from_moments(_with(m, 0, F(2)))


@settings(max_examples=100)
@given(_jets(1, lowest=1))
def test_cumulant_moment_roundtrip_property(jets):
    # moments -> cumulants -> moments
    m = _with(jets[0], 0, F(1))
    assert moments_from_cumulants(cumulants_from_moments(m)) == m


# -- products and quotients against a schoolbook reference ------------------------


def _schoolbook_mul(f, g):
    n = min(f.order, g.order)
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += f.coeffs[i] * g.coeffs[j]
    return tuple(out)


def _schoolbook_div(f, g):
    n = min(f.order, g.order)
    out = []
    for k in range(n + 1):
        acc = f.coeffs[k]
        for j in range(1, k + 1):
            acc -= g.coeffs[j] * out[k - j]
        out.append(acc / g.coeffs[0])
    return tuple(out)


@st.composite
def _wide_jet(draw):
    """A jet of order 0..10: small rationals, all zeros, z-divisible, short, or tiny-t shaped.

    The z-divisible shape starts with one or more zeros; the short shape is a
    polynomial of up to three terms padded with zeros, as the sparse factors
    of the closed R jets are.  The tiny-t shape has a j-th coefficient over
    about s^j, with s up to 10^300, as the moment jets of the family have at
    t near 10^-300.
    """
    order = draw(st.integers(0, 10))
    shape = draw(st.sampled_from(("small", "zero", "z-divisible", "short", "tiny")))
    if shape == "zero":
        return TruncSeries((F(0),) * (order + 1))
    if shape == "small":
        return TruncSeries(tuple(draw(st.lists(_COEFF, min_size=order + 1, max_size=order + 1))))
    if shape == "z-divisible":
        lead = draw(st.integers(1, order + 1))
        rest = draw(st.lists(_COEFF, min_size=order + 1 - lead, max_size=order + 1 - lead))
        return TruncSeries((F(0),) * lead + tuple(rest))
    if shape == "short":
        head = draw(st.lists(_COEFF, min_size=1, max_size=3))
        return TruncSeries.from_coeffs(head, order)
    s = draw(st.integers(2, 10**300))
    nums = st.integers(-(10**40), 10**40)
    return TruncSeries(
        tuple(F(draw(nums), s**j * draw(st.integers(1, 7))) for j in range(order + 1))
    )


@settings(max_examples=200)
@given(_wide_jet(), _wide_jet())
def test_product_matches_schoolbook(f, g):
    product = f * g
    assert product.coeffs == _schoolbook_mul(f, g)
    assert all(type(c) is F for c in product.coeffs)


_HUGE = st.integers(1, 10**300)


@settings(max_examples=200)
@given(_wide_jet(), _wide_jet(), _NONZERO | st.builds(F, _HUGE, _HUGE))
def test_quotient_matches_schoolbook(f, g, g0):
    g = _with(g, 0, g0)
    assert (f / g).coeffs == _schoolbook_div(f, g)


def _pow1p_loop(f, alpha):
    """Reference: n g_n = sum_j (j (alpha + 1) - n) f_j g_{n-j}, one Fraction at a time."""
    out = [F(1)]
    for n in range(1, f.order + 1):
        acc = F(0)
        for j in range(1, n + 1):
            acc += (j * (alpha + 1) - n) * f.coeffs[j] * out[n - j]
        out.append(acc / n)
    return tuple(out)


_ALPHA = st.builds(F, st.integers(-9, 9), st.integers(1, 8)) | st.builds(F, _HUGE, _HUGE)


@settings(max_examples=200)
@given(_wide_jet(), _ALPHA)
def test_pow1p_matches_fraction_recurrence(f, alpha):
    f = _with(f, 0, F(1))
    power = pow1p(f, alpha)
    assert power.coeffs == _pow1p_loop(f, alpha)
    assert all(type(c) is F for c in power.coeffs)


# -- compose and revert against one-Fraction-at-a-time references ------------------


@settings(max_examples=200)
@given(_wide_jet(), _wide_jet(), st.sampled_from(((), (1,), (2,), (1, 2))))
def test_compose_matches_brute_force(f, g, zeros):
    # g_1 = 0 leaves the inner jet unscaled; g_2 = 0 rescales it by den(g_3)
    for i in (0, *zeros):
        if i <= g.order:
            g = _with(g, i, F(0))
    h = compose(f, g)
    assert h == brute_compose(f, g)
    assert all(type(c) is F for c in h.coeffs)


def _lagrange_loop(f):
    """Reference: g_k = [w^(k-1)] (w / f(w))^k / k, by the schoolbook product.

    h = w / f(w) is built one Fraction at a time; its powers h^k are carried
    as integer numerators over the one denominator den^k.
    """
    n = f.order
    base = f.coeffs[1:]
    h = []
    for k in range(n):
        acc = F(int(k == 0))
        for j in range(1, k + 1):
            acc -= base[j] * h[k - j]
        h.append(acc / base[0])
    den = lcm(*(c.denominator for c in h))
    nums = [c.numerator * (den // c.denominator) for c in h]
    out = [F(0)]
    power, scale = nums, den
    for k in range(1, n + 1):
        out.append(F(power[k - 1], scale * k))
        power = [sum(power[i] * nums[j - i] for i in range(j + 1)) for j in range(n)]
        scale *= den
    return tuple(out)


@settings(max_examples=150)
@given(_wide_jet(), _NONZERO | st.builds(F, _HUGE, _HUGE))
def test_revert_matches_lagrange_reference(f, f1):
    f = _with(_with(f.truncate(max(f.order, 1)), 0, F(0)), 1, f1)
    g = revert(f)
    assert g.coeffs == _lagrange_loop(f)
    assert all(type(c) is F for c in g.coeffs)


@pytest.mark.parametrize(
    "coeffs, lam",
    [
        pytest.param([0, F(3, 2)], 1, id="n = 1"),
        pytest.param([0, 2, F(1, 3)], 6, id="n = 2"),
        pytest.param([0, 2, 0, F(1, 5), F(1, 7)], 5, id="c2 = 0"),
        pytest.param([0, 0, F(1, 3), F(1, 5), 2], 1, id="valuation 2"),
        pytest.param([0, 0, 0, F(1, 5), F(2, 7)], 1, id="valuation 3"),
        pytest.param([0, 1, F(1, 3), F(1, 10**50), 1, 2], 3 * 10**50, id="c3 = 1/10^50"),
        pytest.param([0, 1, F(2, 11), F(3, 11 * 37), F(5, 11 * 37**2)], 407, id="growth 37"),
        pytest.param([0, 1, F(1, 11), F(1, 121), F(1, 1331)], 11, id="growth 11"),
    ],
)
def test_rescale_takes_offset_and_growth(coeffs, lam):
    # den(c_2 / c_1) times the part of den(c_3) not in den(c_2); revert and
    # compose are exact for any lam, so each result equals its reference
    jet = TruncSeries.from_coeffs(coeffs)
    assert seams.rescale(jet.coeffs) == lam
    outer = TruncSeries.from_coeffs([F(k % 5 - 2, k % 4 + 1) for k in range(jet.order + 1)])
    assert compose(outer, jet) == brute_compose(outer, jet)
    if jet.coeffs[1]:
        assert revert(jet).coeffs == _lagrange_loop(jet)


def test_revert_of_z_m_rescales_to_an_integer_jet(monkeypatch):
    # at (61/37, 5/11) the moments' denominators are 11 * 37^(k - 1): lam = 407
    # clears them all, where den(f_2 / f_1) = 11 left F / z over 251 bits in the
    # reversion that transforms --series-order 48 makes
    dens = []

    def recorded(real):
        def scaled(coeffs, s):
            out = real(coeffs, s)
            dens.append(out[1])
            return out

        return scaled

    seams.plant(monkeypatch, "scaled", recorded)
    f = moment_series(Params.exact(F(61, 37), F(5, 11)), 48).shift_up(1)
    revert(f)
    assert dens[0] == 1  # F / z, the first rescaled jet; the self-check's follows


# -- the independent-route cross-checks still fire --------------------------------


def _off_by_one(jet, index):
    return _with(jet, index, jet.coeffs[index] + 1)


def test_revert_self_check_fires(monkeypatch, capsys):
    seams.plant(monkeypatch, "compose", lambda real: lambda f, g: _off_by_one(real(f, g), 2))
    with pytest.raises(InconsistencyError):
        revert(TruncSeries.from_coeffs([0, 1, 1, 1]))
    assert main(["transforms", "--p", "2", "--t", "1/2", "--series-order", "6"]) == 3
    assert "internal contradiction" in capsys.readouterr().err


def _skew_call(monkeypatch, seam, skew, call):
    """Make call number ``call`` of the jet helper behind ``seam`` return ``skew`` of its result."""
    calls = []

    def skewing(real):
        def skewed(*args):
            calls.append(args)
            out = real(*args)
            return skew(out) if len(calls) == call else out

        return skewed

    seams.plant(monkeypatch, seam, skewing)


def _bump(nums):
    return [nums[0], nums[1] + 1, *nums[2:]]


@pytest.mark.parametrize(
    "seam, skew, call",
    [
        # H^2, the first baby power (order 7: s = 2)
        pytest.param("conv", _bump, 1, id="_conv-_bump"),
        # H^4 = H^2 H^2, the first giant-step product
        pytest.param("conv", _bump, 2, id="_conv-_bump-giant"),
        # F / z, rescaled by lam = 10: den(f_2 / f_1) = 2 times den(f_3) = 5
        pytest.param("scaled", lambda jet: (_bump(jet[0]), jet[1]), 1, id="_scaled-<lambda>"),
    ],
)
def test_revert_self_check_sees_the_working_jets(monkeypatch, capsys, seam, skew, call):
    # the self-check composes the caller's f, so a wrong rescaled F cannot pass;
    # transforms at order 6 reverts z M(z) at order 7 first
    _skew_call(monkeypatch, seam, skew, call)
    with pytest.raises(InconsistencyError):
        revert(TruncSeries.from_coeffs([0, 2, 1, F(3, 5), -1, F(1, 2), 2, 1]))
    monkeypatch.undo()
    _skew_call(monkeypatch, seam, skew, call)
    assert main(["transforms", "--p", "2", "--t", "1/2", "--series-order", "6"]) == 3
    assert "internal contradiction" in capsys.readouterr().err


_BOUNDARY_ORDERS = [*range(1, 13), *(s * s + d for s in range(4, 9) for d in (-1, 0, 1))]


def _boundary_jet(n, shape):
    """A deterministic reversible jet of order n with small, f_2 = 0 or 10^300-scale coefficients."""
    coeffs = [F(0), F(3, 2)] + [F((-1) ** k * (k % 5 + 1), k % 4 + 1) for k in range(2, n + 1)]
    if shape == "f2 = 0" and n >= 2:
        coeffs[2] = F(0)
    if shape == "huge f1":
        coeffs[1] = F(10**300 + 7, 3)
    return TruncSeries(tuple(coeffs[: n + 1]))


def _count_convs(monkeypatch):
    """Record every call of the jet convolution, and the count at each entry to compose."""
    convs = seams.record(monkeypatch, "conv")
    starts = []

    def counted(real):
        def compose(f, g):
            starts.append(len(convs))
            return real(f, g)

        return compose

    seams.plant(monkeypatch, "compose", counted)
    return convs, starts


@pytest.mark.parametrize("shape, top", [("small", 65), ("f2 = 0", 37), ("huge f1", 10)])
def test_revert_at_every_block_boundary(monkeypatch, shape, top):
    # orders 1..12 and s^2 - 1, s^2, s^2 + 1 for s = 4..8: every way the
    # baby-step giant-step split can end, up to the order 65 that
    # transforms --series-order 64 reverts (the reference costs O(n^3)
    # products of growing integers, so the wider jets stop earlier)
    convs, seen = _count_convs(monkeypatch)
    for n in (n for n in _BOUNDARY_ORDERS if n <= top):
        f = _boundary_jet(n, shape)
        convs.clear()
        seen.clear()
        g = revert(f)
        assert g.coeffs == _lagrange_loop(f), n
        ceil_sqrt = isqrt(n - 1) + 1
        assert seen[0] <= 2 * ceil_sqrt + 1, n  # jet products before the self-check
        assert len(seen) == 1 and len(convs) <= 4 * isqrt(n) + 2, n  # and with it


@pytest.mark.parametrize("n", [16, 24, 48, 65])
def test_compose_makes_about_2_sqrt_n_jet_products(monkeypatch, n):
    # s - 1 baby powers and n // s giant steps, s = isqrt(n); Horner in G makes n
    convs, _ = _count_convs(monkeypatch)
    f = _boundary_jet(n, "small")
    g = _split_inner(n, "dense")
    compose(f, g)
    assert len(convs) <= isqrt(n - 1) + 1 + -(-n // isqrt(n))


def test_revert_self_check_sees_a_wrong_composition(monkeypatch, capsys):
    # at order 7 revert's own products are H^2, H^4 and H^6 (calls 1-3), and
    # compose's baby power G^2 is call 4; call 5 is compose's first giant step,
    # G^2 (f_6 + f_7 G) to order 3
    f = TruncSeries.from_coeffs([0, 2, 1, F(3, 5), -1, F(1, 2), 2, 1])
    convs, starts = _count_convs(monkeypatch)
    revert(f)
    assert starts == [3] and len(convs) == 7
    monkeypatch.undo()
    _skew_call(monkeypatch, "conv", _bump, 5)
    with pytest.raises(InconsistencyError):
        revert(f)
    monkeypatch.undo()
    _skew_call(monkeypatch, "conv", _bump, 5)
    assert main(["transforms", "--p", "2", "--t", "1/2", "--series-order", "6"]) == 3
    assert "internal contradiction" in capsys.readouterr().err


def test_bp_square_check_fires(monkeypatch, capsys):
    # r = 2 off by one at n = 3, then at n = 4, in the one Raney source: seq a meets it in the
    # affine vs closed check, transforms, posdef and domain-grid in the B_p^2 check.  The check
    # passes to order n - 1 and raises at order n; passing covers both halves of its sum, since
    # one without the doubled pairs (k, n - k) breaks at n = 1, one without the middle term at 2
    params = Params.exact(F(5, 2), F(1, 3))
    point = ["--p", "5/2", "--t", "1/3"]
    for skew_n in (3, 4):
        monkeypatch.undo()  # the skew at n = 4 replaces the one at n = 3
        seams.plant(
            monkeypatch,
            "raney_num",
            lambda real: lambda p, r, n: real(p, r, n) + (r == 2 and n == skew_n),
        )
        seams.fuss_parts(params.p, skew_n - 1)
        with pytest.raises(InconsistencyError):
            seams.fuss_parts(params.p, skew_n)
        moment_series(params, skew_n - 1)
        with pytest.raises(InconsistencyError):
            moment_series(params, 6)
        for argv in (["seq", "a", *point, "--n", "4"], ["transforms", *point],
                     ["posdef", *point], ["domain-grid", "--steps", "2"]):
            assert main(argv) == 3, (skew_n, argv)
            assert "internal contradiction" in capsys.readouterr().err


_P_OR_T = st.builds(F, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def _moment_params(draw):
    """(p, t, order): p of either sign or 0 or (k - 1)/k, (k - 2)/k; t likewise or tiny."""
    k = draw(st.integers(1, 40))
    p = draw(_P_OR_T | st.sampled_from((F(0), F(k - 1, k), F(k - 2, k))))
    t = draw(_P_OR_T | st.sampled_from((F(0), F(1), F(2), F(1, 10**300), F(-3, 10**299))))
    return p, t, draw(st.integers(0, 64))


@settings(max_examples=120)
@given(_moment_params())
def test_moment_series_matches_fraction_reference(args):
    p, t, order = args
    m = moment_series(Params.exact(p, t), order)
    assert m.coeffs == tuple(
        t * _raney_loop(p, 1, n) + (1 - t) * _raney_loop(p, 2, n) for n in range(order + 1)
    )
    assert all(type(c) is F for c in m.coeffs)
