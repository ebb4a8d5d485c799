"""Exact integer/rational sequences built from Raney numbers.

Every value in this module is exact and returned as a ``fractions.Fraction``.
The products and sums behind them (Raney numbers, both routes of a_n,
constellation counts, the A220910 recurrence and closed sums, the binomial
transform) are accumulated in Python integers over one known denominator and
reduced once per value.  Two routes to one value are compared as unreduced
integer pairs (numerator, denominator), by one equality when the
denominators agree and by cross-multiplication otherwise, so the check costs
no gcd.  The central object is the two-parameter family

    a_n(p, t) = t * raney(p, 1, n) + (1 - t) * raney(p, 2, n),

an affine deformation between the Fuss numbers (t = 1) and their squared
generating-function counterparts (t = 0).  Quantities that admit two
independent formulas (a product closed form and the affine combination, a
constellation count and its a_n expression, ...) are evaluated both ways and
compared; a mismatch raises :class:`~fussdeform.errors.InconsistencyError`.

This module owns the integers of a_n.  _fuss_terms gives the two Raney
numerators of each n of a run over their common denominator b^(n-1) n!
(p = a/b), _fuss_parts the run 0..order with the B_p^2 product-vs-Raney
check at every n, and _affine is the one affine formula over the parts.
seq a and the constellation counts call it once per table,
series.moment_series once per jet, and posdef once per Hankel cell.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import add, mul
from typing import Iterable, NamedTuple, Union

from .errors import DigitLimitError, InconsistencyError

RationalLike = Union[Fraction, int, str]

__all__ = [
    "Params",
    "SeqTable",
    "parse_rational",
    "rational_str",
    "raney",
    "deformed_fuss",
    "deformed_table",
    "ex1_table",
    "constellation_count",
    "constellation_table",
    "binomial_transform",
    "a220910",
    "a220910_table",
    "a022558_table",
    "necessary_gap",
    "catalan_table",
]


def parse_rational(text: RationalLike) -> Fraction:
    """Parse ``num/den``, an integer literal, or a finite decimal into a Fraction.

    Accepts Fraction and int unchanged.  Floats are deliberately rejected, so
    binary-rounded values never enter exact code paths.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise TypeError("float is not accepted where an exact rational is required")
    s = str(text).strip()
    if not s:
        raise ValueError("empty rational literal")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational literal {text!r}") from exc


def _digit_limit() -> DigitLimitError:
    return DigitLimitError(
        f"an exact value has more than {sys.get_int_max_str_digits()} digits, "
        "too many for fussdeform to print"
    )


def rational_str(value: Fraction) -> str:
    """Canonical ``num/den`` rendering used by every serializer in the package."""
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # the only one str(int) raises: past the digit limit
        raise _digit_limit() from None


class Params(NamedTuple):
    """An exact (p, t) parameter pair.

    Build it with :meth:`exact`, which parses both values into Fractions.
    """

    p: Fraction
    t: Fraction

    @classmethod
    def exact(cls, p: RationalLike, t: RationalLike) -> "Params":
        return cls(parse_rational(p), parse_rational(t))

    def as_floats(self) -> tuple[float, float]:
        return float(self.p), float(self.t)


class SeqTable:
    """A labelled run of consecutive sequence values.

    ``values[i]`` is the term of index ``offset + i``.  The label must stay
    free of commas so the CSV rendering needs no quoting.
    """

    __slots__ = ("label", "offset", "values")

    def __init__(self, label: str, offset: int, values: Iterable[RationalLike] = ()) -> None:
        if "," in label or "\n" in label:
            raise ValueError("sequence label must not contain commas or newlines")
        if offset < 0:
            raise ValueError("offset must be nonnegative")
        self.label = label
        self.offset = offset
        self.values = [parse_rational(v) for v in values]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.label, self.offset, self.values) == (other.label, other.offset, other.values)

    def __repr__(self) -> str:
        return f"SeqTable(label={self.label!r}, offset={self.offset!r}, values={self.values!r})"

    def __len__(self) -> int:
        return len(self.values)

    def to_json_obj(self) -> dict:
        return {
            "label": self.label,
            "offset": self.offset,
            "values": [rational_str(v) for v in self.values],
        }


def _raney_num(p: Fraction | int, r: Fraction | int, n: int) -> int:
    # The numerator of raney(p, r, n) for n >= 1 over d (b d)^(n-1) n!, with
    # p = a/b and r = c/d: c * prod_{i=1}^{n-1} (n a d + c b - i b d).
    a, b = p.numerator, p.denominator
    c, d = r.numerator, r.denominator
    bd = b * d
    base = n * a * d + c * b
    return c * prod(range(base - bd, base - n * bd, -bd))


def _raney_parts(p: Fraction | int, r: Fraction | int, n: int) -> tuple[int, int]:
    # raney(p, r, n) as an unreduced integer pair (see _raney_num).
    if n == 0:
        return 1, 1
    b, d = p.denominator, r.denominator
    return _raney_num(p, r, n), d * (b * d) ** (n - 1) * factorial(n)


def raney(p: RationalLike, r: RationalLike, n: int) -> Fraction:
    """Raney number: 1 for n = 0, else (r / n!) * prod_{i=1}^{n-1} (n p + r - i).

    Defined for arbitrary rational p and r.  For integer p >= 1, r = 1 these
    are the Fuss numbers counting nonnegative lattice paths with steps in
    {1, 1 - p}; the reflection raney(p, r, n) * (-1)^n = raney(1-p, -r, n)
    holds identically in (p, r).

    With p = a/b and r = c/d the product is taken in integers, each factor
    n p + r - i scaled by b d, and reduced once:
    c * prod (n a d + c b - i b d) / (d (b d)^(n-1) n!).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Fraction(*_raney_parts(parse_rational(p), parse_rational(r), n))


def _same(num: int, den: int, other_num: int, other_den: int) -> bool:
    """Whether num/den == other_num/other_den, for unreduced pairs with positive denominators."""
    if den == other_den:
        return num == other_num
    return num * other_den == other_num * den


def _fuss_terms(p: Fraction | int, ns: range) -> list[tuple[int, int, int]]:
    """(R1, R2, D) for each n of the run ns (step 1): raney(p, 1, n) = R1 / D and
    raney(p, 2, n) = R2 / D over their common denominator D = b^(n-1) n!, p = a/b
    (see _raney_num, r an integer); (1, 1, 1) at n = 0.  D is carried along the run."""
    b = p.denominator
    parts = []
    den = 0  # D of the previous n, 0 before the first n >= 1
    for n in ns:
        if n == 0:
            parts.append((1, 1, 1))
            continue
        den = den * b * n if den else b ** (n - 1) * factorial(n)
        parts.append((_raney_num(p, 1, n), _raney_num(p, 2, n), den))
    return parts


def _fuss_parts(p: Fraction, order: int) -> list[tuple[int, int, int]]:
    """The part of a_n(p, t) that depends on p alone: _fuss_terms at n = 0..order, checked.

    With p = a/b, A_n = b R1 and E_n = b R2 (A_0 = 1) are raney(p, 1, n) and
    raney(p, 2, n) scaled by b^n n!, so B_p * B_p = B_p^2 is the integer
    identity sum_k C(n, k) A_k A_(n-k) = E_n, checked at every n: the
    product of the r = 1 jet against the Raney formula for r = 2.  Terms k
    and n - k are equal, so the sum is twice that over k < n/2, plus the
    middle term C(n, n/2) A_(n/2)^2 at even n: each product is taken once.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    b = p.denominator
    parts = _fuss_terms(p, range(order + 1))
    ones = [1]
    binom = [1]  # row n of Pascal's triangle
    for n, (one, two, _) in enumerate(parts[1:], 1):
        ones.append(b * one)
        binom = [1, *map(add, binom, binom[1:]), 1]
        half, odd = divmod(n, 2)
        # k = 0..ceil(n/2) - 1 against n - k; map stops at the shorter binomial slice
        total = 2 * sum(map(mul, map(mul, binom[: half + odd], ones), reversed(ones)))
        if not odd:
            total += binom[half] * ones[half] ** 2
        if total != b * two:
            raise InconsistencyError(
                f"B_{p}^2 jet disagrees between multiplication and the Raney formula"
            )
    return parts


def _affine(parts: list[tuple[int, int, int]], t: Fraction) -> list[tuple[int, int]]:
    """t raney(p, 1, n) + (1 - t) raney(p, 2, n) for each part (R1, R2, D) of _fuss_terms,
    as unreduced pairs: with t = u/v, (u R1 + (v - u) R2, v D); (v, v) at n = 0."""
    u, v = t.numerator, t.denominator
    w = v - u
    return [(u * one + w * two, v * den) for one, two, den in parts]


def _deformed_closed_parts(p: Fraction | int, t: Fraction, n: int) -> tuple[int, int]:
    # Single product form with the vanishing linear factors cancelled, so it
    # stays well defined when (n p - n + 1)(n p - n + 2) has a zero factor.
    # For p = a/b and t = u/v: prod_{i<n-2} (n a - i b) times the last factor
    # n (2p - t - pt) + 2 scaled by b v, over b^(n-1) v n!.
    u, v = t.numerator, t.denominator
    if n == 0:
        return 1, 1
    if n == 1:
        return 2 * v - u, v
    a, b = p.numerator, p.denominator
    na = n * a
    num = prod(range(na, na - (n - 2) * b, -b))
    last = n * (2 * a * v - u * b - a * u) + 2 * b * v
    return num * last, b ** (n - 1) * v * factorial(n)


def _deformed_parts(p: Fraction | int, t: Fraction, ns: range) -> list[tuple[int, int]]:
    """a_n(p, t) for n in ns as unreduced integer pairs, the affine route checked against
    the closed one at every n."""
    pairs = _affine(_fuss_terms(p, ns), t)
    for n, (num, den) in zip(ns, pairs):
        closed_num, closed_den = _deformed_closed_parts(p, t, n)
        if not _same(num, den, closed_num, closed_den):
            raise InconsistencyError(
                f"a_{n}({p},{t}): affine route {Fraction(num, den)} "
                f"!= closed form {Fraction(closed_num, closed_den)}"
            )
    return pairs


def deformed_fuss(params: Params, n: int) -> Fraction:
    """a_n(p, t), computed by two independent routes and cross-checked.

    Route one is the affine combination t*raney(p,1,n) + (1-t)*raney(p,2,n);
    route two is the single product closed form.  Both are exact integer
    pairs, compared without reduction; a mismatch raises InconsistencyError.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Fraction(*_deformed_parts(params.p, params.t, range(n, n + 1))[0])


def deformed_table(params: Params, n_max: int) -> SeqTable:
    """SeqTable of a_0(p,t) .. a_{n_max}(p,t)."""
    p, t = params.p, params.t
    values = [Fraction(num, den) for num, den in _deformed_parts(p, t, range(n_max + 1))]
    try:
        label = f"a(p={p};t={t})"
    except ValueError:  # str(Fraction) past the digit limit
        raise _digit_limit() from None
    return SeqTable(label=label, offset=0, values=values)


def _constellation_parts(p: int, n: int) -> tuple[int, int]:
    # binom(np, n) / ((np-n+1)(np-n+2)) cancels to prod_{i<n-2} (np - i) / n!
    if n == 1:
        return 1, 1
    top = n * p
    return (p + 1) * p ** (n - 1) * prod(range(top, top - (n - 2), -1)), factorial(n)


def _constellations(p: int, ns: range) -> list[Fraction]:
    """C_p(n) for n in ns, each direct count checked against the deformed-family route."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise ValueError("constellation counts require integer p >= 2")
    values = []
    for n, (a_num, a_den) in zip(ns, _deformed_parts(p, Fraction(2 * p, p + 1), ns)):
        num, den = _constellation_parts(p, n)
        via_num, via_den = (p + 1) * p ** (n - 1) * a_num, 2 * a_den
        if not _same(num, den, via_num, via_den):
            raise InconsistencyError(
                f"C_{p}({n}): direct {Fraction(num, den)} "
                f"!= deformed-family route {Fraction(via_num, via_den)}"
            )
        values.append(Fraction(num, den))
    return values


def constellation_count(p: int, n: int) -> Fraction:
    """Number of p-constellations with n polygons (p >= 2 integer, n >= 1).

    Evaluated directly from binom(np, n) * (p+1) * p^(n-1) / ((np-n+1)(np-n+2))
    as one integer product over n!, and cross-checked against the
    deformed-family identity C_p(n) = (p+1) p^n / (2p) * a_n(p, 2p/(p+1)).
    """
    if n < 1:
        raise ValueError("constellation counts start at n = 1")
    return _constellations(p, range(n, n + 1))[0]


def constellation_table(p: int, n_max: int) -> SeqTable:
    """SeqTable of C_p(1) .. C_p(n_max), checked as constellation_count checks each."""
    values = _constellations(p, range(1, n_max + 1))
    return SeqTable(label=f"constellation(p={p})", offset=1, values=values)


def binomial_transform(seq: SeqTable, direction: str = "forward") -> SeqTable:
    """Forward binomial transform b_n = sum_k (-1)^(n-k) binom(n,k) a_k, or its inverse.

    The transform acts on absolute indices, so the input table must start at
    offset 0.  forward followed by inverse is the identity.  The inputs are
    scaled once to the lcm of their denominators; b_n is then the head of the
    n-th row of a difference table whose rows follow c'_i = c_{i+1} - c_i
    (forward) or c'_i = c_{i+1} + c_i (inverse), in integer additions only.
    """
    if seq.offset != 0:
        raise ValueError("binomial transform is defined for offset-0 tables")
    if not seq.values:
        raise ValueError("binomial transform of an empty table")
    if direction == "forward":
        sign = -1
        label = f"binomial({seq.label})"
    elif direction == "inverse":
        sign = 1
        label = f"inv-binomial({seq.label})"
    else:
        raise ValueError("direction must be 'forward' or 'inverse'")
    den = lcm(*(v.denominator for v in seq.values))
    row = [v.numerator * (den // v.denominator) for v in seq.values]
    out = []
    while row:
        out.append(Fraction(row[0], den))
        row = [y + sign * x for x, y in zip(row, row[1:])]
    return SeqTable(label=label, offset=0, values=out)


_A220910_METHODS = ("recurrence", "closed_a", "closed_b", "cumulant")


def _a220910_step(n: int, prev: int, prev2: int) -> int:
    # n * a_n = (8n - 34) a_{n-1} + 24 (2n - 3) a_{n-2}
    return (8 * n - 34) * prev + 24 * (2 * n - 3) * prev2


def _a220910_recurrence(n_max: int) -> list[int]:
    # Seeds a_0 = a_1 = 1; every term is an integer, so a step that leaves a
    # remainder on division by n is a contradiction, not a fraction.
    vals = [1, 1]
    for n in range(2, n_max + 1):
        term, rem = divmod(_a220910_step(n, vals[n - 1], vals[n - 2]), n)
        if rem:
            raise InconsistencyError(f"A220910 recurrence: n = {n} does not divide the step")
        vals.append(term)
    return vals[: n_max + 1]


def _a220910_closed_a(n: int) -> Fraction:
    # (1 - 8n)/2 (-4)^n + binom(2n, n) sum_{k<=n} 3^(n+1) (k+1) n!/(n-k)! / (8 (-3)^k h_k)
    # with h_k = prod_{i<=k+1} (n - i - 1/2) = o_k / 2^(k+2), o_k a product of
    # odd integers.  Over the common denominator 2 o_n the k-th term carries
    # the cofactor 3^(n-k) o_n / o_k, folded in Horner fashion: step k
    # multiplies the partial sum by 3 o_k / o_{k-1} = 3 (2n - 2k - 3).
    acc = 0
    lead = 1  # (-2)^k n!/(n-k)!
    for k in range(n + 1):
        if k:
            lead *= -2 * (n - k + 1)
            acc *= 3 * (2 * n - 2 * k - 3)
        acc += (k + 1) * lead
    odd = 1
    for i in range(n + 2):
        odd *= 2 * n - 2 * i - 1
    return Fraction((1 - 8 * n) * (-4) ** n * odd + 3 * comb(2 * n, n) * acc, 2 * odd)


def _a220910_closed_b(n_max: int) -> list[Fraction]:
    # a_n = (-4)^n (1 - 8n)/16 (8 - s_{n+1}) + binom(2n, n) 3^(n+3) / (32 (n+1)),
    # s_K = sum_{k<=K} (-3)^k prod_{i<k} (2i - 3) / (2^k k!).  s_K is carried
    # across n as num / den with den = 2^K K!, so s_{K+1} costs one term.
    term = num = den = 1  # K = 0
    values = []
    for n in range(n_max + 1):
        k = n + 1
        term *= -3 * (2 * k - 5)
        num = num * 2 * k + term
        den *= 2 * k
        head = 2 * (-4) ** n * (1 - 8 * n) * (8 * den - num)
        tail = comb(2 * n, n) * 3 ** (n + 3) * (den // k)
        values.append(Fraction(head + tail, 32 * den))
    return values


def _scaled_cumulants(p: int, t: Fraction, s: int, n_max: int) -> list[Fraction]:
    # 1, then s^n r_n(p, t) for n = 1..n_max, with r_n the free cumulants of
    # the (p, t) family; the closed R expansion lives in the series module.
    from . import series

    values = [Fraction(1)]
    if n_max >= 1:
        r = series.r_series_closed(p, t, n_max)
        values += [Fraction(s) ** n * r.coeffs[n] for n in range(1, n_max + 1)]
    return values


def a220910_table(n_max: int, method: str = "recurrence") -> SeqTable:
    """A220910 prefix a_0..a_{n_max} by the requested method.

    Methods: ``recurrence`` (three-term, exact division by n), ``closed_a``
    and ``closed_b`` (two independent finite closed sums), ``cumulant``
    (2^n times the free cumulants of the (3, 3/2) family).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if method not in _A220910_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_A220910_METHODS}")
    if method == "recurrence":
        values = _a220910_recurrence(n_max)
    elif method == "closed_a":
        values = [_a220910_closed_a(n) for n in range(n_max + 1)]
    elif method == "closed_b":
        values = _a220910_closed_b(n_max)
    else:  # a_n = 2^n r_n(3, 3/2)
        values = _scaled_cumulants(3, Fraction(3, 2), 2, n_max)
    return SeqTable(label="A220910", offset=0, values=values)


def a220910(n: int, method: str = "recurrence") -> Fraction:
    """Single term of A220910 (1, 1, 3, 14, 83, 570, ...), read off the table to n."""
    return a220910_table(n, method).values[n]


def ex1_table(n_max: int) -> SeqTable:
    """The sequence 1, 2, 5, 16, 64, ...: a_0 = 1 and a_n = 3^n r_n(2, 4/3) for n >= 1."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return SeqTable(label="ex1", offset=0, values=_scaled_cumulants(2, Fraction(4, 3), 3, n_max))


def a022558_table(n_max: int) -> SeqTable:
    """A022558 prefix: the forward binomial transform of the ex1 sequence."""
    return SeqTable(
        label="A022558",
        offset=0,
        values=binomial_transform(ex1_table(n_max), "forward").values,
    )


def necessary_gap(params: Params) -> Fraction:
    """a_2 - a_1^2 for the deformed family, as the polynomial 2p - pt - t^2 + 3t - 3.

    Nonnegativity of this gap is necessary for the moment sequence to be
    positive definite.  The polynomial is cross-checked against the direct
    a_2 - a_1^2 evaluation.
    """
    p, t = params.p, params.t
    poly = 2 * p - p * t - t * t + 3 * t - 3
    direct = deformed_fuss(params, 2) - deformed_fuss(params, 1) ** 2
    if poly != direct:
        raise InconsistencyError(f"necessary_gap({p},{t}): {poly} != {direct}")
    return poly


def catalan_table(n_max: int) -> SeqTable:
    """Catalan numbers as a SeqTable (the t = 1, p = 2 slice of the family)."""
    values = [raney(2, 1, n) for n in range(n_max + 1)]
    return SeqTable(label="catalan", offset=0, values=values)
