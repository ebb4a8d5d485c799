"""Exact sequence layer: brute-force oracles, frozen prefixes, cross-checks."""

import random
from fractions import Fraction as F
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fussdeform import (
    InconsistencyError,
    Params,
    SeqTable,
    a022558_table,
    a220910,
    a220910_table,
    binomial_transform,
    catalan_table,
    constellation_count,
    constellation_table,
    deformed_fuss,
    deformed_table,
    ex1_table,
    necessary_gap,
    parse_rational,
    raney,
)
from fussdeform import exact_seq
from fussdeform.cli import main
from fussdeform.verify import run_criteria

A220910_PREFIX = [1, 1, 3, 14, 83, 570, 4318, 35068, 299907, 2668994, 24513578]
EX1_PREFIX = [1, 2, 5, 16, 64, 304, 1632, 9552, 59520, 388720, 2632864]
A022558_PREFIX = [1, 1, 2, 6, 23, 103, 512, 2740, 15485, 91245, 555662]


def brute_force_path_count(p, n):
    """Count length-np sequences over {1, 1-p} with nonnegative partial sums and total 0."""
    if n == 0:
        return 1
    total = 0
    for steps in product((1, 1 - p), repeat=n * p):
        if sum(steps) != 0:
            continue
        acc = 0
        ok = True
        for s in steps:
            acc += s
            if acc < 0:
                ok = False
                break
        if ok:
            total += 1
    return total


def test_raney_matches_lattice_path_oracle():
    for n in range(5):
        assert raney(2, 1, n) == brute_force_path_count(2, n)
    for n in range(4):
        assert raney(3, 1, n) == brute_force_path_count(3, n)


def test_raney_closed_binomial_form():
    # raney(p, r, n) = binom(np + r, n) * r / (np + r) for integer p, r
    for p in range(1, 6):
        for r in range(1, 5):
            for n in range(13):
                expected = F(r, n * p + r) * comb(n * p + r, n)
                assert raney(p, r, n) == expected


def test_raney_base_cases_and_small_values():
    assert raney(2, 1, 0) == 1
    assert [raney(2, 1, n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert [raney(2, 2, n) for n in range(5)] == [1, 2, 5, 14, 42]
    assert [raney(3, 1, n) for n in range(5)] == [1, 1, 3, 12, 55]
    assert [raney(1, 2, n) for n in range(6)] == [n + 1 for n in range(6)]


def test_raney_positive_integer_for_integer_p():
    for p in range(1, 9):
        for n in range(26):
            v = raney(p, 1, n)
            assert v.denominator == 1
            assert v > 0


def test_raney_reflection_identity():
    rng = random.Random(20260816)
    for _ in range(50):
        p = F(rng.randint(-40, 40), rng.randint(1, 12))
        r = F(rng.randint(-40, 40), rng.randint(1, 12))
        for n in range(8):
            assert raney(p, r, n) * (-1) ** n == raney(1 - p, -r, n)


def _raney_loop(p, r, n):
    """Reference: (r / n!) * prod_{i=1}^{n-1} (n p + r - i), one Fraction at a time."""
    acc = F(1) if n == 0 else r
    for i in range(1, n):
        acc *= n * p + r - i
    for k in range(2, n + 1):
        acc /= k
    return acc


_RATIONAL = st.builds(F, st.integers(-60, 60), st.integers(1, 40))


@settings(max_examples=300, deadline=None)
@given(_RATIONAL, _RATIONAL, st.integers(0, 40))
def test_raney_matches_fraction_loop(p, r, n):
    assert raney(p, r, n) == _raney_loop(p, r, n)


def _closed(p, t, n):
    return F(*exact_seq._deformed_closed_parts(p, t, n))


def test_affine_closed_check_fires(monkeypatch, capsys):
    real = exact_seq._raney_num

    def off_by_one(p, r, n):
        return real(p, r, n) + (n == 5)

    monkeypatch.setattr(exact_seq, "_raney_num", off_by_one)
    params = Params.exact(F(5, 2), F(1, 3))
    assert deformed_fuss(params, 4) == _closed(params.p, params.t, 4)
    with pytest.raises(InconsistencyError):
        deformed_fuss(params, 5)
    assert main(["seq", "a", "--p", "5/2", "--t", "1/3", "--n", "6"]) == 3
    assert "internal contradiction" in capsys.readouterr().err


def _deformed_closed_loop(p, t, n):
    """Reference: the closed form of a_n, one Fraction at a time."""
    if n == 0:
        return F(1)
    if n == 1:
        return 2 - t
    prod = F(1)
    for i in range(n - 2):
        prod *= n * p - i
    return prod * (n * (2 * p - t - p * t) + 2) / factorial(n)


@settings(max_examples=300, deadline=None)
@given(_RATIONAL, _RATIONAL, st.integers(0, 40))
def test_deformed_closed_matches_fraction_loop(p, t, n):
    assert _closed(p, t, n) == _deformed_closed_loop(p, t, n)


@pytest.mark.parametrize("n", range(2, 25))
def test_deformed_closed_where_the_textbook_denominator_vanishes(n):
    # n p - n + 1 = 0 at p = (n - 1)/n and n p - n + 2 = 0 at p = (n - 2)/n
    for p in (F(n - 1, n), F(n - 2, n)):
        for t in (F(0), F(1), F(-7, 3), F(5, 4)):
            closed = _closed(p, t, n)
            assert closed == _deformed_closed_loop(p, t, n)
            assert closed == deformed_fuss(Params(p, t), n)


def test_affine_closed_check_fires_on_the_closed_route(monkeypatch, capsys):
    real = exact_seq._deformed_closed_parts

    def one_factor_too_many(p, t, n):
        num, den = real(p, t, n)
        if n == 5:  # the factor n p - (n - 2) = (n a - (n - 2) b) / b
            num, den = num * (n * p.numerator - (n - 2) * p.denominator), den * p.denominator
        return num, den

    monkeypatch.setattr(exact_seq, "_deformed_closed_parts", one_factor_too_many)
    params = Params.exact(F(5, 2), F(1, 3))
    assert deformed_fuss(params, 4) == F(*real(params.p, params.t, 4))
    with pytest.raises(InconsistencyError):
        deformed_fuss(params, 5)
    assert main(["seq", "a", "--p", "5/2", "--t", "1/3", "--n", "6"]) == 3
    assert "internal contradiction" in capsys.readouterr().err


@st.composite
def _deformed_case(draw):
    """(p, t, n) with p and t of either sign or zero, and the p = (n - 1)/n and
    (n - 2)/n where a factor of the Raney and closed products vanishes."""
    n = draw(st.integers(0, 40))
    vanishing = [F(n - 1, n), F(n - 2, n)] if n else [F(0)]
    p = draw(_RATIONAL | st.sampled_from(vanishing))
    t = draw(_RATIONAL | st.sampled_from([F(0), F(1)]))
    return p, t, n


@settings(max_examples=400, deadline=None)
@given(_deformed_case())
def test_deformed_pairs_match_fraction_loops(case):
    p, t, n = case
    expected = t * _raney_loop(p, 1, n) + (1 - t) * _raney_loop(p, 2, n)
    value = deformed_fuss(Params(p, t), n)
    assert type(value) is F and value == expected
    assert deformed_table(Params(p, t), n).values[n] == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.integers(1, 60))
def test_constellation_pairs_match_fraction_loop(p, n):
    value = constellation_count(p, n)
    assert type(value) is F and value == _constellation_loop(p, n)


def test_raney_rejects_negative_index():
    with pytest.raises(ValueError):
        raney(2, 1, -1)


def test_deformed_is_affine_in_t():
    rng = random.Random(1729)
    for _ in range(20):
        p = F(rng.randint(1, 30), rng.randint(1, 10))
        t1 = F(rng.randint(-10, 20), rng.randint(1, 8))
        t2 = F(rng.randint(-10, 20), rng.randint(1, 8))
        lam = F(rng.randint(-6, 6), rng.randint(1, 6))
        tmix = lam * t1 + (1 - lam) * t2
        for n in range(7):
            mixed = deformed_fuss(Params.exact(p, tmix), n)
            a1 = deformed_fuss(Params.exact(p, t1), n)
            a2 = deformed_fuss(Params.exact(p, t2), n)
            assert mixed == lam * a1 + (1 - lam) * a2


def test_deformed_known_slices():
    # t = 1 at p = 2 gives the Catalan numbers; p = 1 gives n + 1 - n t.
    cat = catalan_table(8)
    for n in range(9):
        assert deformed_fuss(Params.exact(2, 1), n) == cat.values[n]
    for t in (F(0), F(1), F(1, 2), F(7, 5)):
        for n in range(9):
            assert deformed_fuss(Params.exact(1, t), n) == n + 1 - n * t
    assert deformed_fuss(Params.exact(2, F(1, 2)), 1) == F(3, 2)
    # a_1 = 2 - t always
    assert deformed_fuss(Params.exact(F(7, 3), F(4, 5)), 1) == F(6, 5)


def test_deformed_closed_form_survives_vanishing_denominator():
    # At rational p < 1 the textbook denominator (np-n+1)(np-n+2) can vanish;
    # the cancelled product form must still agree with the affine route.
    p = F(1, 2)  # n p - n + 1 = 0 at n = 2, n p - n + 2 = 0 at n = 4
    for t in (F(0), F(1), F(3, 4)):
        for n in range(8):
            deformed_fuss(Params.exact(p, t), n)  # no exception == both routes agree
    p = F(2, 3)
    for n in range(8):
        deformed_fuss(Params.exact(p, F(1, 3)), n)


def test_deformed_table_layout():
    table = deformed_table(Params.exact(2, F(4, 3)), 4)
    assert table.offset == 0
    # a_n(2, 4/3) = (4 C_n - C_{n+1}) / 3
    assert table.values == [1, F(2, 3), 1, 2, F(14, 3)]


def test_scaled_family_slices_are_integral():
    # Integer multiples of specific (p, t) slices are integer sequences.
    cases = [
        (2, F(1, 2), 2),
        (3, F(1, 2), 2),
        (2, F(4, 3), 3),
        (2, F(2, 3), 3),
        (3, F(3, 2), 2),
        (4, F(8, 5), 5),
        (5, F(5, 3), 3),
    ]
    for p, t, scale in cases:
        for n in range(21):
            v = scale * deformed_fuss(Params.exact(p, t), n)
            assert v.denominator == 1, (p, t, n)


def test_constellation_small_values_oracle():
    # Direct evaluation of the product formula for the first few counts.
    assert constellation_table(2, 4).values == [1, 3, 12, 56]
    assert constellation_count(3, 1) == 1
    assert constellation_count(3, 2) == comb(6, 2) * 4 * 3 // (5 * 6)


def test_constellation_positive_integer():
    for p in range(2, 6):
        for n in range(1, 16):
            v = constellation_count(p, n)
            assert v.denominator == 1
            assert v > 0


def _constellation_loop(p, n):
    """Reference: the direct constellation count, one Fraction at a time."""
    if n == 1:
        return F(1)
    prod = F(1)
    for i in range(n - 2):
        prod *= n * p - i
    return prod * (p + 1) * F(p) ** (n - 1) / factorial(n)


@pytest.mark.parametrize("p", range(2, 13))
def test_constellation_matches_fraction_loop(p):
    for n in range(1, 41):
        assert constellation_count(p, n) == _constellation_loop(p, n)


def test_constellation_cross_check_fires(monkeypatch):
    real = exact_seq._constellation_parts

    def off_by_one(p, n):
        num, den = real(p, n)
        return num + den * (n == 4), den

    monkeypatch.setattr(exact_seq, "_constellation_parts", off_by_one)
    assert constellation_count(3, 3) == F(*real(3, 3))
    with pytest.raises(InconsistencyError):
        constellation_count(3, 4)


def test_constellation_cross_check_fires_on_the_family_route(monkeypatch, capsys):
    # a_n enters the count through the deformed-family identity only; a fault
    # there passes the affine/closed check (it wraps it) and must meet the direct count.
    real = exact_seq._deformed_parts

    def off_by_one(p, t, ns):
        return [(num + den * (n == 4), den) for n, (num, den) in zip(ns, real(p, t, ns))]

    monkeypatch.setattr(exact_seq, "_deformed_parts", off_by_one)
    assert constellation_count(3, 3) == F(*exact_seq._constellation_parts(3, 3))
    with pytest.raises(InconsistencyError):
        constellation_count(3, 4)
    assert main(["seq", "constellation", "--p", "3", "--n", "5"]) == 3
    assert "internal contradiction" in capsys.readouterr().err


def test_constellation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        constellation_count(1, 3)
    with pytest.raises(ValueError):
        constellation_count(2, 0)
    with pytest.raises(ValueError):
        constellation_count(F(5, 2), 3)


def test_binomial_transform_definition_and_roundtrip():
    rng = random.Random(97)
    values = [F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(20)]
    seq = SeqTable(label="rand", offset=0, values=values)
    fwd = binomial_transform(seq, "forward")
    for n in range(20):
        expected = sum((-1) ** (n - k) * comb(n, k) * values[k] for k in range(n + 1))
        assert fwd.values[n] == expected
    back = binomial_transform(fwd, "inverse")
    assert back.values == values


def _binomial_loop(values, sign):
    """Reference: sum_k sign^(n-k) binom(n, k) a_k, one Fraction at a time."""
    out = []
    for n in range(len(values)):
        acc = F(0)
        for k in range(n + 1):
            acc += sign ** (n - k) * comb(n, k) * values[k]
        out.append(acc)
    return out


_WIDE_RATIONAL = st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**12))


@settings(max_examples=200, deadline=None)
@given(st.lists(_RATIONAL | _WIDE_RATIONAL, min_size=1, max_size=30))
def test_binomial_transform_matches_fraction_loop(values):
    seq = SeqTable(label="rand", offset=0, values=values)
    fwd = binomial_transform(seq, "forward")
    inv = binomial_transform(seq, "inverse")
    assert fwd.values == _binomial_loop(values, -1)
    assert inv.values == _binomial_loop(values, 1)
    assert all(type(v) is F for v in fwd.values + inv.values)
    assert binomial_transform(fwd, "inverse").values == values
    assert binomial_transform(inv, "forward").values == values


def test_binomial_transform_rejects_offset_and_empty():
    with pytest.raises(ValueError):
        binomial_transform(SeqTable(label="x", offset=1, values=[F(1)]), "forward")
    with pytest.raises(ValueError):
        binomial_transform(SeqTable(label="x", offset=0, values=[]), "forward")
    with pytest.raises(ValueError):
        binomial_transform(SeqTable(label="x", offset=0, values=[F(1)]), "sideways")


def test_a220910_golden_prefix_all_methods():
    for method in ("recurrence", "closed_a", "closed_b", "cumulant"):
        table = a220910_table(10, method)
        assert table.values == A220910_PREFIX, method


def test_a220910_methods_agree_to_50():
    ref = a220910_table(50, "recurrence").values
    for method in ("closed_a", "closed_b", "cumulant"):
        assert a220910_table(50, method).values == ref, method
    for v in ref:
        assert v.denominator == 1
        assert v > 0


def _closed_a_loop(n):
    """Reference: the first A220910 closed sum, one Fraction at a time."""
    if n == 0:
        return F(1)
    head = F(1 - 8 * n, 2) * F(-4) ** n
    total = F(0)
    falling = F(1)  # prod_{i=0}^{k-1} (n - i)
    halfprod = (n - F(1, 2)) * (n - F(3, 2))  # prod_{i=0}^{k+1} (n - i - 1/2)
    sign_pow = F(1)  # (-3)^k
    for k in range(n + 1):
        if k > 0:
            falling *= n - (k - 1)
            halfprod *= n - k - F(3, 2)
            sign_pow *= -3
        total += F(3) ** (n + 1) * (k + 1) * falling / (8 * sign_pow * halfprod)
    return head + comb(2 * n, n) * total


def _closed_b_loop(n):
    """Reference: the second A220910 closed sum for one n, one Fraction at a time."""
    if n == 0:
        return F(1)
    term = F(1)  # (-3)^k / k! * prod_{i=0}^{k-1} (i - 3/2)
    inner = term
    for k in range(1, n + 2):
        term *= F(-3) * (k - F(5, 2)) / k
        inner += term
    head = F(-4) ** n * F(1 - 8 * n, 16) * (8 - inner)
    return head + comb(2 * n, n) * F(3) ** (n + 3) / (32 * (n + 1))


def test_a220910_closed_sums_match_fraction_loops():
    closed_b = a220910_table(60, "closed_b").values
    for n in range(61):
        assert exact_seq._a220910_closed_a(n) == _closed_a_loop(n), n
        assert closed_b[n] == _closed_b_loop(n), n


def test_a220910_methods_agree_at_the_benchmark_tail():
    ref = a220910_table(300, "recurrence").values
    for method in ("closed_a", "closed_b", "cumulant"):
        assert a220910_table(300, method).values == ref, method


def test_a220910_term_is_the_table_entry():
    # closed_b carries its inner sum across n, so a single term must equal the
    # entry the long table passes through.
    for method in ("recurrence", "closed_a", "closed_b", "cumulant"):
        table = a220910_table(120, method).values
        for n in (0, 1, 2, 7, 33, 64, 120):
            assert a220910(n, method) == table[n], (method, n)


def _verify_c1():
    (result,) = run_criteria(only="c1")
    assert not result.passed
    return result.detail


def test_verify_a220910_check_fires_on_closed_a(monkeypatch):
    real = exact_seq._a220910_closed_a
    monkeypatch.setattr(exact_seq, "_a220910_closed_a", lambda n: real(n) + (n == 30))
    assert _verify_c1() == "method closed_a deviates before n = 50"


def test_verify_a220910_check_fires_on_closed_b(monkeypatch):
    real = exact_seq._a220910_closed_b

    def skewed(n_max):
        values = real(n_max)
        values[30] += 1
        return values

    monkeypatch.setattr(exact_seq, "_a220910_closed_b", skewed)
    assert _verify_c1() == "method closed_b deviates before n = 50"


def test_a220910_recurrence_checks_each_division(monkeypatch, capsys):
    real = exact_seq._a220910_step
    monkeypatch.setattr(
        exact_seq, "_a220910_step", lambda n, prev, prev2: real(n, prev, prev2) + (n == 7)
    )
    assert a220910_table(6).values == A220910_PREFIX[:7]
    with pytest.raises(InconsistencyError, match="n = 7"):
        a220910_table(7)
    assert main(["seq", "a220910", "--n", "10"]) == 3
    assert "internal contradiction" in capsys.readouterr().err


def test_a220910_scalar_and_errors():
    assert a220910(4) == 83
    assert a220910(6, "closed_b") == 4318
    with pytest.raises(ValueError):
        a220910(3, "magic")
    with pytest.raises(ValueError):
        a220910_table(-1)


def test_ex1_golden_prefix():
    assert ex1_table(10).values == EX1_PREFIX


def test_a022558_is_binomial_transform_of_ex1():
    assert a022558_table(10).values == A022558_PREFIX
    direct = binomial_transform(ex1_table(14), "forward").values
    assert a022558_table(14).values == direct


def test_necessary_gap_polynomial():
    assert necessary_gap(Params.exact(2, 0)) == 1
    assert necessary_gap(Params.exact(2, F(4, 3))) == F(5, 9)
    for t in (F(0), F(1, 2), F(1), F(2)):
        assert necessary_gap(Params.exact(1, t)) == -((t - 1) ** 2)


def test_seq_table_serialization():
    table = SeqTable(label="demo", offset=1, values=[F(1), F(3, 2)])
    obj = table.to_json_obj()
    assert obj == {"label": "demo", "offset": 1, "values": ["1/1", "3/2"]}
    assert table.values == [F(1), F(3, 2)]


def test_seq_table_rejects_bad_labels():
    with pytest.raises(ValueError):
        SeqTable(label="a,b", offset=0, values=[F(1)])
    with pytest.raises(ValueError):
        SeqTable(label="ok", offset=-1, values=[F(1)])


def test_parse_rational():
    assert parse_rational("4/3") == F(4, 3)
    assert parse_rational("-7/5") == F(-7, 5)
    assert parse_rational("1.25") == F(5, 4)
    assert parse_rational(3) == F(3)
    with pytest.raises(ValueError):
        parse_rational("three")
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(TypeError):
        parse_rational(1.5)
