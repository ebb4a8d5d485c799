"""Exact integer/rational sequences built from Raney numbers.

Every value in this module is exact and returned as a ``fractions.Fraction``.
The products and sums behind them (Raney numbers, both routes of a_n,
constellation counts, the A220910 recurrence and closed sums, the binomial
transform) are accumulated in Python integers over one known denominator and
reduced once per value; _cleared, which the binomial transform, series and
posdef share, brings a run over its least common denominator.  Two routes to
one value are compared as unreduced integer pairs (numerator, denominator), by
one equality when the denominators agree and by cross-multiplication
otherwise, so the check costs no gcd.  The central object is the two-parameter family

    a_n(p, t) = t * raney(p, 1, n) + (1 - t) * raney(p, 2, n),

an affine deformation between the Fuss numbers (t = 1) and their squared
generating-function counterparts (t = 0).  Quantities that admit two
independent formulas (a product closed form and the affine combination, a
constellation count and its a_n expression, ...) are evaluated both ways and
compared; a mismatch raises :class:`~fussdeform.errors.InconsistencyError`.

This module owns the integers of a_n.  _raney_pairs gives a Raney run over
its denominators d (b d)^(n-1) n! (p = a/b, r = c/d), written and carried there
alone; _fuss_terms pairs its runs at r = 1 and 2 (equal denominators, d = 1),
_fuss_parts the run 0..order with the B_p^2 product-vs-Raney check at every n,
and _affine is the one affine formula over the parts.
seq a and the constellation counts call it once per table,
series.moment_series once per jet, and posdef once per Hankel cell.

A table is one run.  The factors of a Raney numerator, of a_n's closed product
and of a constellation count move up from n - b to n (from n - 1 for the
constellations): a factors join at the top and a - b leave at the bottom, so a
value is the one b places back times a quotient of short products, and n! and
b^(n-1) are carried.  A direct product seeds each residue class mod b, and
stays in use where the step takes at least as many factors (2a - b >= n - 1 for
a Raney numerator), at p <= 1, and after a 0 (r <= 0 can give one).  The Raney
numerators (_raney_step) and the closed product (_closed_step) step by separate
code, so the affine vs closed check still compares two derivations.  The runs
are generators, so a printed table (deformed_table, raney_table,
constellation_table) stops at its first value of more digits than str()
prints (_printable) and builds none of the larger ones after it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul
from typing import Iterable, Iterator, NamedTuple, Union

from .errors import DigitLimitError, InconsistencyError

RationalLike = Union[Fraction, int, str]

__all__ = [
    "Params",
    "SeqTable",
    "parse_rational",
    "rational_str",
    "raney",
    "raney_table",
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


def _printable(values: Iterable[Fraction]) -> Iterator[Fraction]:
    """The values of a run as it makes them, up to the first whose reduced numerator or
    denominator has more digits than str() prints: that one raises the digit limit's error
    before the run builds a larger one."""
    limit = sys.get_int_max_str_digits() or float("inf")  # 0 sets no limit
    bits = 3 * limit  # 10^limit > 2^bits, so only a number of more bits can reach it
    for value in values:
        num, den = value.as_integer_ratio()
        if (num.bit_length() > bits or den.bit_length() > bits) and max(abs(num), den) >= 10**limit:
            raise _digit_limit()
        yield value


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
    # p = a/b and r = c/d: c * prod_{i=1}^{n-1} (n a d + c b - i b d), 0 at c = 0.
    a, b = p.numerator, p.denominator
    c, d = r.numerator, r.denominator
    bd = b * d
    base = n * a * d + c * b
    return c and c * prod(range(base - bd, base - n * bd, -bd))


def _raney_step(num: int, new: range, dropped: range) -> int:
    # the Raney numerator of n from that of n - b: times the a new top factors, over the
    # a - b dropped bottom factors (see _raney_nums)
    return num * prod(new) // prod(dropped)


def _raney_nums(p: Fraction | int, r: Fraction | int, ns: range) -> Iterator[int]:
    """_raney_num(p, r, n) for each n >= 1 of the run ns (step 1).  Where p = a/b > 1,
    2a - b < n - 1 and the run holds a nonzero numerator at n - b, the n - 1 factors of n are
    those of n - b moved up by b d: a new ones at the top, a - b dropped at the bottom
    (_raney_step).  Elsewhere the value is a direct product."""
    a, b = p.numerator, p.denominator
    bd = b * r.denominator
    nums = []
    for n in ns:  # nums[-b] is the numerator of n - b, if the run holds it
        if b < a and 2 * a - b < n - 1 and len(nums) >= b and nums[-b]:
            top = n * a * r.denominator + r.numerator * b - bd
            low = top - (n - 2) * bd  # the n - 1 factors run from top down to low
            dropped = range(low - (a - b) * bd, low, bd)
            num = _raney_step(nums[-b], range(top, top - a * bd, -bd), dropped)
        else:
            num = _raney_num(p, r, n)
        nums.append(num)
        yield num


def _raney_pairs(p: Fraction | int, r: Fraction | int, ns: range) -> Iterator[tuple[int, int]]:
    """raney(p, r, n) for n in ns (step 1) as unreduced pairs: _raney_nums over
    d (b d)^(n-1) n!, the denominator carried along the run; (1, 1) at n = 0."""
    bd = p.denominator * r.denominator
    run = range(max(ns.start, 1), ns.stop)
    if 0 in ns:
        yield 1, 1
    den = r.denominator * bd ** (run.start - 1) * factorial(run.start)
    for n, num in zip(run, _raney_nums(p, r, run)):
        yield num, den
        den *= bd * (n + 1)


def _raney_run(p: Fraction, r: Fraction, ns: range) -> Iterator[Fraction]:
    """raney(p, r, n) for n in ns (step 1), one Fraction per pair of _raney_pairs."""
    return (Fraction(num, den) for num, den in _raney_pairs(p, r, ns))


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
    return next(_raney_run(parse_rational(p), parse_rational(r), range(n, n + 1)))


def raney_table(p: RationalLike, r: RationalLike, n_max: int) -> SeqTable:
    """SeqTable of raney(p, r, 0) .. raney(p, r, n_max), one run, up to the first value past
    the digit limit."""
    p, r = parse_rational(p), parse_rational(r)
    label = f"raney(p={rational_str(p)};r={rational_str(r)})"
    return SeqTable(label, 0, _printable(_raney_run(p, r, range(n_max + 1))))


def _same(num: int, den: int, other_num: int, other_den: int) -> bool:
    """Whether num/den == other_num/other_den, for unreduced pairs with positive denominators."""
    if den == other_den:
        return num == other_num
    return num * other_den == other_num * den


def _cleared(pairs: Iterable[tuple[int, int]], s: int) -> tuple[list[int], int]:
    """The values v_k s^k of the reduced pairs v_k = (num, den > 0) over their least common
    denominator: the lcm of the dens of (num s^k, den), each reduced by gcd(s^k, den)."""
    reduced = []
    sk = 1  # s ** k
    for num, den in pairs:
        g = gcd(sk, den)
        reduced.append((num * (sk // g), den // g))
        sk *= s
    common = lcm(*(den for _, den in reduced))
    return [num * (common // den) for num, den in reduced], common


def _fuss_terms(p: Fraction | int, ns: range) -> Iterator[tuple[int, int, int]]:
    """(R1, R2, D) for each n of the run ns (step 1): raney(p, 1, n) = R1 / D and
    raney(p, 2, n) = R2 / D over their common denominator D = b^(n-1) n!, p = a/b: the
    _raney_pairs of r = 1 and r = 2, whose denominators agree at d = 1."""
    pairs = zip(_raney_pairs(p, 1, ns), _raney_pairs(p, 2, ns))
    return ((one, two, den) for (one, den), (two, _) in pairs)


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
    parts = list(_fuss_terms(p, range(order + 1)))
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


def _affine(parts: Iterable[tuple[int, int, int]], t: Fraction) -> Iterator[tuple[int, int]]:
    """t raney(p, 1, n) + (1 - t) raney(p, 2, n) for each part (R1, R2, D) of _fuss_terms,
    as unreduced pairs: with t = u/v, (u R1 + (v - u) R2, v D); (v, v) at n = 0."""
    u, v = t.numerator, t.denominator
    w = v - u
    return ((u * one + w * two, v * den) for one, two, den in parts)


def _closed_step(num: int, new: range, dropped: range) -> int:
    # the closed product of n from that of n - b, by its own code, so that the affine vs
    # closed check compares two derivations (see _deformed_closed_parts)
    return num * prod(new) // prod(dropped)


def _deformed_closed_parts(p: Fraction | int, t: Fraction, ns: range) -> Iterator[tuple[int, int]]:
    # a_n(p, t) for n in ns (step 1) by the single product form with the vanishing linear
    # factors cancelled, so it stays well defined when (n p - n + 1)(n p - n + 2) has a zero
    # factor.  For p = a/b and t = u/v: P_n = prod_{i<n-2} (n a - i b) times the last factor
    # n (2p - t - pt) + 2 scaled by b v, over b^(n-1) v n!.  With p > 1 and 2a - b < n - 2,
    # P_n is P_(n-b) with a factors added at the top and a - b dropped at the bottom.
    a, b = p.numerator, p.denominator
    u, v = t.numerator, t.denominator
    last = {}  # P_n of the last n of each residue class mod b
    den = 0  # the denominator of the previous n, 0 before the first n >= 2
    for n in ns:
        if n < 2:
            yield ((1, 1), (2 * v - u, v))[n]
            continue
        top, low = n * a, n * a - (n - 3) * b  # the n - 2 factors run from top down to low
        num = last.pop(n - b, 0)
        if num and b < a and 2 * a - b < n - 2:
            num = _closed_step(num, range(top, top - a * b, -b), range(low - (a - b) * b, low, b))
        else:
            num = prod(range(top, low - b, -b))
        last[n] = num
        den = den * b * n if den else b ** (n - 1) * v * factorial(n)
        yield num * (n * (2 * a * v - u * b - a * u) + 2 * b * v), den


def _deformed_parts(p: Fraction | int, t: Fraction, ns: range) -> Iterator[tuple[int, int]]:
    """a_n(p, t) for n in ns as unreduced integer pairs, the affine route checked against
    the closed one at every n."""
    closed = _deformed_closed_parts(p, t, ns)
    for n, (num, den), (closed_num, closed_den) in zip(ns, _affine(_fuss_terms(p, ns), t), closed):
        if not _same(num, den, closed_num, closed_den):
            raise InconsistencyError(
                f"a_{n}({p},{t}): affine route {Fraction(num, den)} "
                f"!= closed form {Fraction(closed_num, closed_den)}"
            )
        yield num, den


def deformed_fuss(params: Params, n: int) -> Fraction:
    """a_n(p, t), computed by two independent routes and cross-checked.

    Route one is the affine combination t*raney(p,1,n) + (1-t)*raney(p,2,n);
    route two is the single product closed form.  Both are exact integer
    pairs, compared without reduction; a mismatch raises InconsistencyError.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Fraction(*next(_deformed_parts(params.p, params.t, range(n, n + 1))))


def deformed_table(params: Params, n_max: int) -> SeqTable:
    """SeqTable of a_0(p,t) .. a_{n_max}(p,t), up to the first value past the digit limit."""
    p, t = params.p, params.t
    try:
        label = f"a(p={p};t={t})"
    except ValueError:  # str(Fraction) past the digit limit
        raise _digit_limit() from None
    pairs = _deformed_parts(p, t, range(n_max + 1))
    return SeqTable(label, 0, _printable(Fraction(num, den) for num, den in pairs))


def _constellation_parts(p: int, ns: range) -> Iterator[tuple[int, int]]:
    # C_p(n) for n in ns (step 1): binom(np, n) / ((np-n+1)(np-n+2)) cancels to
    # P_n / n!, P_n = prod_{i<n-2} (np - i), times (p + 1) p^(n-1).  When 2p - 1 < n - 2,
    # P_n is P_(n-1) with p factors added at the top and p - 1 dropped at the bottom.
    num = den = 0  # P_n and n! of the previous n, 0 before the first n >= 2
    for n in ns:
        if n == 1:
            yield 1, 1
            continue
        top, low = n * p, n * p - n + 3  # the n - 2 factors run from top down to low
        if num and 2 * p - 1 < n - 2:
            num = num * prod(range(top, top - p, -1)) // prod(range(low - p + 1, low))
        else:
            num = prod(range(top, low - 1, -1))
        den = den * n if den else factorial(n)
        yield (p + 1) * p ** (n - 1) * num, den


def _constellations(p: int, ns: range) -> Iterator[Fraction]:
    """C_p(n) for n in ns, each direct count checked against the deformed-family route."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise ValueError("constellation counts require integer p >= 2")
    family = _deformed_parts(p, Fraction(2 * p, p + 1), ns)
    for n, (num, den), (a_num, a_den) in zip(ns, _constellation_parts(p, ns), family):
        via_num, via_den = (p + 1) * p ** (n - 1) * a_num, 2 * a_den
        if not _same(num, den, via_num, via_den):
            raise InconsistencyError(
                f"C_{p}({n}): direct {Fraction(num, den)} "
                f"!= deformed-family route {Fraction(via_num, via_den)}"
            )
        yield Fraction(num, den)


def constellation_count(p: int, n: int) -> Fraction:
    """Number of p-constellations with n polygons (p >= 2 integer, n >= 1).

    Evaluated directly from binom(np, n) * (p+1) * p^(n-1) / ((np-n+1)(np-n+2))
    as one integer product over n!, and cross-checked against the
    deformed-family identity C_p(n) = (p+1) p^n / (2p) * a_n(p, 2p/(p+1)).
    """
    if n < 1:
        raise ValueError("constellation counts start at n = 1")
    return next(_constellations(p, range(n, n + 1)))


def constellation_table(p: int, n_max: int) -> SeqTable:
    """SeqTable of C_p(1) .. C_p(n_max), checked as constellation_count checks each, up to the
    first value past the digit limit."""
    values = _printable(_constellations(p, range(1, n_max + 1)))
    return SeqTable(label=f"constellation(p={p})", offset=1, values=values)


def binomial_transform(seq: SeqTable, direction: str = "forward") -> SeqTable:
    """Forward binomial transform b_n = sum_k (-1)^(n-k) binom(n,k) a_k, or its inverse.

    The transform acts on absolute indices, so the input table must start at
    offset 0.  forward followed by inverse is the identity.  The inputs are
    scaled once to the lcm of their denominators (_cleared); b_n is then the
    head of the n-th row of a difference table whose rows follow
    c'_i = c_{i+1} - c_i (forward) or c'_i = c_{i+1} + c_i (inverse), in
    integer additions only.
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
    row, den = _cleared(((v.numerator, v.denominator) for v in seq.values), 1)
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
    # 1, then s^n r_n(p, t) for n = 1..n_max, with r_n the free cumulants of the (p, t)
    # family: the closed jet of R(s z), which lives in the series module.
    from .series import _r_jet

    return [Fraction(1), *_r_jet(p, t, s, n_max).coeffs[1:]]


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
    values = _raney_run(Fraction(2), Fraction(1), range(n_max + 1))
    return SeqTable(label="catalan", offset=0, values=values)
