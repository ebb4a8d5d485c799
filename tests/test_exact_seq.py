"""Exact sequence layer: brute-force oracles, frozen prefixes, cross-checks."""

import random
from fractions import Fraction as F
from itertools import product
from math import comb

import pytest

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
    assert table.to_csv() == (
        "label,offset,n,value\n"
        "demo,1,1,1/1\n"
        "demo,1,2,3/2\n"
    )
    obj = table.to_json_obj()
    assert obj == {"label": "demo", "offset": 1, "values": ["1/1", "3/2"]}
    assert table.term(2) == F(3, 2)
    with pytest.raises(IndexError):
        table.term(3)


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
