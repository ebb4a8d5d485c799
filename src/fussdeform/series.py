"""Truncated power series over exact rationals, and the transform layer.

A :class:`TruncSeries` is an eager, dense jet: a tuple of Fraction
coefficients c_0..c_N, frozen by the record base it shares with CumulantTable.
Binary operations truncate to the shorter order, so every identity in this
module is an identity of jets.  On top of the generic
engine (multiply, divide, compose, revert, and one power recurrence pow1p,
of which sqrt1p is the alpha = 1/2 case) sit the domain series: the Fuss
generating function B_p, the moment series of the deformed family, free
cumulants, and the S- and R-transforms with their closed forms.  The closed
R jets (p = 2, 3) and the named generating functions are each (A + B sqrt(C)) / D,
built by one routine (_radical_jet) from coefficient lists.

Everything here is exact; floats never enter.  Coefficients are stored as
Fractions, but every sum of products runs in integers.  A jet product
(``*``, each power and each giant step of compose and revert) is one integer
convolution over one common denominator, which exact_seq._cleared clears, as
it clears posdef's Hankel sections, with one normalisation per coefficient.
``*`` convolves only the nonzero span of the factor whose span is shorter, so
a short factor costs O(n span).  The quotient and pow1p are recurrences of one
shape, each coefficient summed by one helper (_running_sum) over one running
denominator that widens (one gcd) only when a term's denominator does not
divide it (on one common denominator perfbench seq-tables ran 1.6 to 1.8 times
slower); the sum stops at the last nonzero coefficient of the divisor or of
pow1p's base, so a short divisor or base costs O(n span), not O(n^2).  The
closed jets build their radical without pow1p: with w = 4 lam, lam the lcm of
C's denominators, the integers w^m c_m of sqrt(C) follow one exact recurrence
(_sqrt_ints), A and B join them over one denominator, and the jet quotient by
D takes the integer pairs as they are, one Fraction per coefficient.  Through
sqrt1p, a jet product and the quotient, each coefficient was normalised four
or five times: r_series_closed at order 300 took 4.6 to 4.9 ms where it takes
2.0 to 2.1 ms, and at t = 10^-3000, order 12, 0.48 s (p = 2) and 0.58 to 0.64 s
(p = 3) where it takes 0.14 and 0.32 s.  revert keeps its own recurrence for
w / F(w) (through the jet quotient perfbench jets ran 4% slower).  compose and
revert first rescale the variable, z -> lam z, by one rule: den(c_2 / c_1)
times the part of den(c_3) not in den(c_2), which takes the growth of the
denominators with the index as well as their offset, so that the shared
denominator does not carry it (with den(c_2 / c_1) alone the reversion of
z M(z) at p = 61/37, t = 5/11, order 49, kept 251 bits over F / z and took
11.4 ms where it takes 5.2 ms, its self-check aside).  Both share one
baby-step giant-step split, s = isqrt(n), and one chain of powers, so each
makes about 2 sqrt(n) jet products at order n: compose adds blocks of s
coefficients of f on the baby powers G^0..G^s by Horner's rule in G^s
(Paterson and Stockmeyer; Horner's rule in G, n products, made perfbench
jets 13% slower), and revert needs one coefficient of each Lagrange power
and reads it as one dot product of a baby-step and a giant-step power
(Brent and Kung).  The moment jet is one Fraction per moment, read off the
integers of a_n that exact_seq owns: the Raney parts of each n with their
B_p^2 check (exact_seq._fuss_parts) and the one affine formula over them
(exact_seq._affine).  The exact Hankel test of posdef reads the same
integer pairs without the Fractions.
Timings are from a 2-vCPU host.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import Optional, Sequence, Union

from .errors import InconsistencyError
from .exact_seq import (
    Params, RationalLike, _affine, _cleared, _fuss_parts, _raney_run, parse_rational,
)

__all__ = [
    "TruncSeries",
    "CumulantTable",
    "compose",
    "revert",
    "sqrt1p",
    "pow1p",
    "bp_series",
    "moment_series",
    "cumulants_from_moments",
    "moments_from_cumulants",
    "cumulant_jet",
    "s_series_from_moments",
    "s_series_closed",
    "r_series_closed",
    "gf_closed_expand",
    "GF_NAMES",
]


def _split(coeffs: Sequence[Fraction]) -> tuple[list[int], list[int]]:
    """Numerators and denominators of a run of coefficients, read once."""
    return [c.numerator for c in coeffs], [c.denominator for c in coeffs]


def _running_sum(
    num: int, den: int, slope: int, base: int,
    fn: list[int], fd: list[int], gn: list[int], gd: list[int], k: int,
) -> tuple[int, int]:
    """num/den plus the sum over j = 1..k of (slope j + base) (fn_j / fd_j) (gn_(k-j) / gd_(k-j)),
    over one running denominator that widens (one gcd) only when a term's does not divide it.
    fn ends at its last nonzero coefficient, so the sum stops there."""
    for j in range(1, min(k, len(fn) - 1) + 1):
        x = fn[j]
        if x and gn[k - j]:
            d = fd[j] * gd[k - j]
            q, r = divmod(den, d)
            if r:  # widen to lcm(den, d)
                g = gcd(den, d)
                m = d // g
                num, den, q = num * m, den * m, den // g
            num += (slope * j + base) * x * gn[k - j] * q
    return num, den


def _quotient(an: list[int], ad: list[int], bn: list[int], bd: list[int]) -> list[Fraction]:
    """The jet an/ad over bn/bd (numerators over denominators, bn[0] != 0) to the order of a,
    one Fraction per coefficient; the sum stops at the last nonzero coefficient of b."""
    bn = bn[: _span(bn)[1]]
    out: list[Fraction] = []
    on: list[int] = []
    od: list[int] = []
    for k in range(len(an)):
        num, den = _running_sum(an[k], ad[k], 0, -1, bn, bd, on, od, k)
        c = Fraction(num * bd[0], den * bn[0])
        out.append(c)
        on.append(c.numerator)
        od.append(c.denominator)
    return out


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """The jet nums/den with the common content of nums and den divided out."""
    g = gcd(den, *nums)
    return [x // g for x in nums], den // g


def _scaled(coeffs: Sequence[Fraction], s: int) -> tuple[list[int], int]:
    """The jet of c_k s^k as reduced integer numerators over one common denominator (_cleared)."""
    return _cleared(((c.numerator, c.denominator) for c in coeffs), s)


def _rescale(c: Sequence[Fraction]) -> int:
    """lam for the rescaling z -> lam z of the jet c_0..c_n with c_0 = 0: den(c_2 / c_1)
    times the part of den(c_3) not in den(c_2), which takes both the offset and the
    per-index growth of the denominators; 1 when n < 2 or c_1 = 0."""
    if len(c) < 3 or not c[1]:
        return 1
    lam = (c[2] / c[1]).denominator
    if len(c) < 4:
        return lam
    d2, d3 = c[2].denominator, c[3].denominator
    return lcm(lam, d3 // gcd(d2, d3))


def _span(a: list[int]) -> tuple[int, int]:
    """lo, hi with a[lo:hi] running from the first to the last nonzero of a; (0, 0) if none."""
    live = [i for i, x in enumerate(a) if x]
    return (live[0], live[-1] + 1) if live else (0, 0)


def _conv(a: list[int], b: list[int], n: int) -> list[int]:
    """Numerators 0..n of the product of integer jets a and b, b longer than n; each
    coefficient takes at most len(a) products, so a short a is cheap."""
    rb, m = b[::-1], len(b) - 1  # rb[m - k :] is b[k], b[k - 1], ..., b[0]
    return [sum(map(mul, a, rb[m - k : m - k + len(a)])) for k in range(n + 1)]


def _powers(nums: list[int], den: int, v: int, count: int, n: int) -> list[tuple[list[int], int]]:
    """The powers 0..count of the integer jet nums/den, which starts at z^v, to order n,
    each as reduced numerators over one denominator: count - 1 jet products, each
    past the leading zeros of its factors."""
    out = [([1] + [0] * n, 1), (nums, den)]
    for j in range(2, count + 1):
        pn, pd = out[-1]
        lo = min(v * j, n + 1)
        out.append(_reduced([0] * lo + _conv(pn[lo - v :], nums[v:], n - lo), pd * den))
    return out[: count + 1]


def _lincomb(terms: list[tuple[int, int, list[int], int]], n: int) -> tuple[list[int], int]:
    """Numerators 0..n, reduced over one denominator, of the sum of (cn / cd) (nums / den)
    over the terms (cn, cd, nums, den); each nums is longer than n."""
    common = lcm(*[cd * den for _, cd, _, den in terms])
    acc = [0] * (n + 1)
    for cn, cd, nums, den in terms:
        m = cn * (common // (cd * den))
        acc = [x + m * y for x, y in zip(acc, nums)]
    return _reduced(acc, common)


class _Frozen:
    """An immutable record of one tuple field, the one name in the subclass's __slots__,
    which the subclass's __init__ sets once through object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(
            f"cannot assign to field {name!r} of an immutable {type(self).__name__}"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def _field(self) -> tuple:
        return getattr(self, self.__slots__[0])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field() == other._field()

    def __hash__(self) -> int:
        return hash(self._field())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.__slots__[0]}={self._field()!r})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, as __setattr__ refuses
        return type(self), (self._field(),)


class TruncSeries(_Frozen):
    """Jet c_0 + c_1 z + ... + c_N z^N with exact rational coefficients.

    Immutable (the frozen base _Frozen): ``coeffs`` is set once, by the constructor.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[RationalLike]) -> None:
        if not coeffs:
            raise ValueError("a jet needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(parse_rational(c) for c in coeffs))

    # -- construction -------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[RationalLike], order: Optional[int] = None) -> "TruncSeries":
        cs = [parse_rational(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            cs = cs[: order + 1] + [Fraction(0)] * max(0, order + 1 - len(cs))
        return cls(tuple(cs))

    @classmethod
    def constant(cls, value: RationalLike, order: int) -> "TruncSeries":
        return cls.from_coeffs([value], order)

    @classmethod
    def identity(cls, order: int) -> "TruncSeries":
        """The jet of z itself."""
        if order < 1:
            raise ValueError("the identity jet needs order >= 1")
        return cls.from_coeffs([0, 1], order)

    # -- basic queries ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside jet of order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncSeries":
        if order < 0:
            raise ValueError("order must be nonnegative")
        if order >= self.order:
            return TruncSeries.from_coeffs(self.coeffs, order)
        return TruncSeries(self.coeffs[: order + 1])

    # -- ring operations (truncate to the shorter operand) ------------------

    @staticmethod
    def _coerce(other: Union["TruncSeries", RationalLike], order: int) -> "TruncSeries":
        if isinstance(other, TruncSeries):
            return other
        return TruncSeries.constant(parse_rational(other), order)

    def __add__(self, other: Union["TruncSeries", RationalLike]) -> "TruncSeries":
        o = self._coerce(other, self.order)
        n = min(self.order, o.order)
        return TruncSeries(tuple(self.coeffs[i] + o.coeffs[i] for i in range(n + 1)))

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Union["TruncSeries", RationalLike]) -> "TruncSeries":
        return self + (-self._coerce(other, self.order))

    def __rsub__(self, other: RationalLike) -> "TruncSeries":
        return self._coerce(other, self.order) + (-self)

    def __mul__(self, other: Union["TruncSeries", RationalLike]) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            c = parse_rational(other)
            return TruncSeries(tuple(ci * c for ci in self.coeffs))
        n = min(self.order, other.order)
        an, ad = _scaled(self.coeffs[: n + 1], 1)
        bn, bd = _scaled(other.coeffs[: n + 1], 1)
        (alo, ahi), (blo, bhi) = _span(an), _span(bn)
        if bhi - blo < ahi - alo:  # convolve the shorter nonzero span against the other jet
            an, bn, alo, ahi = bn, an, blo, bhi
        d = ad * bd
        nums = [0] * alo + _conv(an[alo:ahi], bn, n - alo)
        return TruncSeries(tuple(Fraction(x, d) for x in nums))

    __rmul__ = __mul__

    def __truediv__(self, other: Union["TruncSeries", RationalLike]) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            c = parse_rational(other)
            if c == 0:
                raise ZeroDivisionError("division of a jet by zero")
            return self * (Fraction(1) / c)
        if other.coeffs[0] == 0:
            raise ValueError(
                "jet division needs a nonzero constant term; strip z factors explicitly"
            )
        n = min(self.order, other.order)
        quotient = _quotient(*_split(self.coeffs[: n + 1]), *_split(other.coeffs[: n + 1]))
        return TruncSeries(tuple(quotient))

    def __rtruediv__(self, other: RationalLike) -> "TruncSeries":
        return TruncSeries.constant(other, self.order) / self

    # -- calculus and reindexing --------------------------------------------

    def deriv(self) -> "TruncSeries":
        if self.order == 0:
            return TruncSeries((Fraction(0),))
        return TruncSeries(tuple(k * self.coeffs[k] for k in range(1, self.order + 1)))

    def shift_down(self, k: int) -> "TruncSeries":
        """Divide by z^k; requires the low-order coefficients to vanish."""
        if k < 0 or k > self.order:
            raise ValueError("shift amount outside jet order")
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError(f"jet is not divisible by z^{k}")
        return TruncSeries(self.coeffs[k:])

    def shift_up(self, k: int) -> "TruncSeries":
        """Multiply by z^k, keeping all computed coefficients."""
        if k < 0:
            raise ValueError("shift amount must be nonnegative")
        return TruncSeries((Fraction(0),) * k + self.coeffs)


def compose(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """Jet of f(g(z)); requires g(0) = 0 so the composition is well defined.

    Evaluates f at the rescaled inner jet G(z) = g(mu z), mu = den(g_2 / g_1)
    times the part of den(g_3) not in den(g_2) (1 if g_1 vanishes), which
    gives f(g(mu z)); coefficient k is then divided by mu^k.  Baby-step
    giant-step (Paterson and Stockmeyer), on the split and the chain of
    powers of revert: with s = isqrt(n), the baby powers G^0..G^s are built
    to order n, each block P_i = sum_{j < s} f_(i s + j) G^j is one integer
    combination, and Horner's rule in G^s adds them, P_i + G^s (P_(i+1) + ...),
    in about 2 sqrt(n) jet products where Horner's rule in G takes n.  G^j
    starts at z^(v j), v the valuation of G, so its products skip the leading
    zeros, and block i is only needed to order n - i s.  Every jet is integer
    numerators over one common denominator.
    """
    if g.coeffs[0] != 0:
        raise ValueError("composition needs an inner jet with zero constant term")
    n = min(f.order, g.order)
    cs = g.coeffs[: n + 1]
    mu = _rescale(cs)
    gn, gd = _scaled(cs, mu)
    v = _span(gn)[0] or n + 1  # G starts at z^v; a zero G at z^(n + 1)
    s = isqrt(n) or 1
    baby = _powers(gn, gd, v, s, n)
    giant, giant_den = baby[s]
    top = n // s
    for i in range(top, -1, -1):
        # P_i and, above the top block, G^s times the running sum, to order n - i s
        m = n - i * s
        block = f.coeffs[i * s : min(i * s + s, n + 1)]
        terms = [(c.numerator, c.denominator, *baby[j]) for j, c in enumerate(block) if c]
        if i < top:
            lo = min(v * s, m + 1)
            terms.append((1, 1, [0] * lo + _conv(giant[lo:], acc, m - lo), giant_den * den))
        acc, den = _lincomb(terms, m)
    out = []
    for x in acc:
        out.append(Fraction(x, den))
        den *= mu
    return TruncSeries(tuple(out))


def revert(f: TruncSeries) -> TruncSeries:
    """Compositional inverse jet: g with f(g(z)) = z.  Needs c_0 = 0, c_1 != 0.

    Reverts F(z) = f(lam z) / lam, F_k = f_k lam^(k-1), with lam = den(f_2 / f_1)
    times the part of den(f_3) not in den(f_2), by the Lagrange inversion
    coefficients G_k = [w^{k-1}] H^k / k of H = w / F(w), and returns
    g_k = G_k / lam^(k-1).  With s = isqrt(n) and
    k = i s + j, 1 <= j <= s, [w^{k-1}] H^k is one dot product of the giant
    power H^(i s) with the baby power H^j: the powers H^1..H^s and H^(2s),
    H^(3s), ... are built to order n - 1, about 2 sqrt(n) jet products in
    place of n - 1.  Each is integer numerators over one common denominator,
    so a product is one integer convolution and one gcd.  The self-check
    composes the unscaled f with the returned g.
    """
    if f.coeffs[0] != 0:
        raise ValueError("reversion needs a jet with zero constant term")
    if f.order < 1 or f.coeffs[1] == 0:
        raise ValueError("reversion needs a nonzero linear coefficient")
    n = f.order
    lam = _rescale(f.coeffs)
    bn, bd = _scaled(f.coeffs[1:], lam)  # F / z
    # h = w / F(w) = bd / bn(w) to order n - 1, one coefficient at a time
    hn, hd = _reduced([bd], bn[0])
    for k in range(1, n):
        s = sum(map(mul, bn[1 : k + 1], hn[::-1]))
        hn, hd = _reduced([x * bn[0] for x in hn] + [-s], hd * bn[0])
    # G_k = [w^(k-1)] H^(i s) H^j for k = i s + j, 1 <= j <= s: baby powers
    # H^0..H^s, giant powers H^0, H^s, H^(2s), ..., one dot product per k
    s = isqrt(n)
    baby = _powers(hn, hd, 0, s, n - 1)
    giant = _powers(*baby[s], 0, (n - 1) // s, n - 1)
    out = [Fraction(0)]
    for k in range(1, n + 1):
        i, j = divmod(k - 1, s)
        gnums, gden = giant[i]
        bnums, bden = baby[j + 1]
        dot = sum(map(mul, gnums[:k], bnums[k - 1 :: -1]))
        out.append(Fraction(dot, gden * bden * k * lam ** (k - 1)))
    g = TruncSeries(tuple(out))
    check = compose(f, g)
    if check != TruncSeries.identity(n):
        raise InconsistencyError("reversion self-check failed: f(g(z)) != z")
    return g


def sqrt1p(f: TruncSeries) -> TruncSeries:
    """Square root of a jet with constant term 1 (principal branch)."""
    if f.coeffs[0] != 1:
        raise ValueError("sqrt1p needs constant term exactly 1")
    return pow1p(f, Fraction(1, 2))


def pow1p(f: TruncSeries, alpha: RationalLike) -> TruncSeries:
    """f^alpha for a jet with constant term 1 and exact rational alpha.

    Coefficient recurrence: n g_n = sum_{j=1}^{n} (j (alpha + 1) - n) f_j g_{n-j}.
    With alpha = u/v the sum is taken in integers, (j (u + v) - n v) f_j g_{n-j}
    over one running denominator as in the jet quotient, and divided by v n once.
    """
    if f.coeffs[0] != 1:
        raise ValueError("pow1p needs constant term exactly 1")
    a = parse_rational(alpha)
    u, v = a.numerator, a.denominator
    n = f.order
    fn, fd = _split(f.coeffs)
    fn = fn[: _span(fn)[1]]
    out = [Fraction(1)]
    on = [1]
    od = [1]
    for k in range(1, n + 1):
        num, den = _running_sum(0, 1, u + v, -k * v, fn, fd, on, od, k)
        c = Fraction(num, den * v * k)
        out.append(c)
        on.append(c.numerator)
        od.append(c.denominator)
    return TruncSeries(tuple(out))


class CumulantTable(_Frozen):
    """Free cumulants r_1..r_N.

    Immutable (the frozen base _Frozen): ``values`` is set once, by the constructor.
    """

    __slots__ = ("values",)

    def __init__(self, values: Sequence[RationalLike]) -> None:
        object.__setattr__(self, "values", tuple(parse_rational(v) for v in values))

    def __len__(self) -> int:
        return len(self.values)

    def cumulant(self, n: int) -> Fraction:
        if not 1 <= n <= len(self.values):
            raise IndexError(f"cumulant index {n} outside 1..{len(self.values)}")
        return self.values[n - 1]


def bp_series(p: RationalLike, r: RationalLike, order: int) -> TruncSeries:
    """Jet of B_p(z)^r, whose coefficients are the Raney numbers raney(p, r, n), read from
    one stepped run."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return TruncSeries(tuple(_raney_run(parse_rational(p), parse_rational(r), range(order + 1))))


def moment_series(params: Params, order: int) -> TruncSeries:
    """Moment jet of the deformed family: t B_p + (1 - t) B_p^2.

    One Fraction per integer pair of exact_seq's affine formula over the Raney
    parts of exact_seq._fuss_parts, whose B_p^2 check (the product of the r = 1
    Raney jet against the Raney formula for r = 2) runs at every n.  The one
    cell path of posdef (posdef._classify, under classify_point and
    classify_row) reads the same pairs, reduced by one gcd each, as its Hankel
    sections, builds no Fraction from them, and builds _fuss_parts once per p.
    """
    pairs = _affine(_fuss_parts(params.p, order), params.t)
    return TruncSeries(tuple(Fraction(num, den) for num, den in pairs))


def cumulants_from_moments(m: TruncSeries) -> CumulantTable:
    """Free cumulants r_1..r_N from a moment jet with m_0 = 1.

    Solves 1 + R(z M(z)) = M(z) for the jet of R with one reversion: the
    inverse v of u = z M(z) has v(w) M(v(w)) = w, so 1 + R(w) = M(v(w)) =
    w / v(w).  Reverting u at order N + 1 uses every moment up to m_N.
    """
    if m.coeffs[0] != 1:
        raise ValueError("cumulants_from_moments needs a moment jet with m_0 = 1")
    if m.order < 1:
        raise ValueError("need at least order 1 to extract a cumulant")
    inv = revert(m.shift_up(1))  # inverse of z * M(z), order N + 1
    one_plus_r = 1 / inv.shift_down(1)  # w / v(w), order N
    if one_plus_r.coeffs[0] != 1:
        raise InconsistencyError("cumulant jet has a constant term other than 1")
    return CumulantTable(values=one_plus_r.coeffs[1:])


def cumulant_jet(table: CumulantTable) -> TruncSeries:
    """The jet of R(z) = r_1 z + r_2 z^2 + ... from a cumulant table."""
    return TruncSeries((Fraction(0),) + table.values)


def moments_from_cumulants(table: CumulantTable) -> TruncSeries:
    """Moment jet m_0..m_N from cumulants r_1..r_N (inverse of cumulants_from_moments).

    Reverts v = z / (1 + R(z)) and reads the moments off the inverse jet of
    z M(z).
    """
    n = len(table.values)
    if n < 1:
        raise ValueError("need at least one cumulant")
    one_plus = cumulant_jet(table) + 1  # 1 + R(z), order n
    v = (1 / one_plus).shift_up(1)  # z / (1 + R(z)), order n + 1
    u = revert(v)  # jet of z M(z) to order n + 1
    m = TruncSeries(u.coeffs[1:])  # moments m_0..m_n
    if m.coeffs[0] != 1:
        raise InconsistencyError("moment jet reconstruction lost the normalization")
    return m


def s_series_from_moments(m: TruncSeries) -> TruncSeries:
    """S-transform jet from a moment jet: S(w) = (1 + w)/w * revert(M - 1).

    Needs m_0 = 1 and m_1 != 0.  The result has order one less than the input.
    """
    if m.coeffs[0] != 1:
        raise ValueError("s_series_from_moments needs m_0 = 1")
    if m.order < 1 or m.coeffs[1] == 0:
        raise ValueError("s_series_from_moments needs m_1 != 0 and order >= 1")
    chi = revert(TruncSeries((Fraction(0),) + m.coeffs[1:]))  # M - 1, as m_0 = 1
    ratio = chi.shift_down(1)  # chi / w, constant term 1/m_1
    one_plus_w = TruncSeries.from_coeffs([1, 1], ratio.order)
    return one_plus_w * ratio


def s_series_closed(params: Params, order: int) -> TruncSeries:
    """Closed-form S-transform jet of the deformed family.

    S(w) = (1+w)^(1-p) * h(w)^p / ((2 - t) d(w)) with
    q = sqrt(1 + 4 (1-t) w / (2-t)^2), h = 1 + (2-t)(q-1)/2, d = (q+1)/2.
    Undefined at t = 2 (the family loses its first moment there).
    """
    p, t = params.p, params.t
    if t == 2:
        raise ValueError("the closed S-transform is singular at t = 2")
    if order < 0:
        raise ValueError("order must be nonnegative")
    a = 4 * (1 - t) / (2 - t) ** 2
    q = sqrt1p(TruncSeries.from_coeffs([1, a], order))
    h = 1 + Fraction(2 - t, 2) * (q - 1)
    d = (q + 1) / 2
    one_plus_w = TruncSeries.from_coeffs([1, 1], order)
    s = pow1p(one_plus_w, 1 - p) * pow1p(h, p) / d / (2 - t)
    return s


def _sqrt_ints(qw: list[int], n: int) -> list[int]:
    """F_0..F_n of sqrt(1 + qw_1 z + qw_2 z^2 + ...), qw_0 = 1 and each other qw_j a multiple
    of 4, whose coefficients are then integers: pow1p's recurrence at alpha = 1/2,
    2 m F_m = sum_j (3 j - 2 m) qw_j F_(m-j), whose division by 2 m is exact (a remainder is a
    contradiction)."""
    f = [1]
    for m in range(1, n + 1):
        acc = sum((3 * j - 2 * m) * qw[j] * f[m - j] for j in range(1, min(m, len(qw) - 1) + 1))
        x, r = divmod(acc, 2 * m)
        if r:
            raise InconsistencyError(f"radical jet: {2 * m} does not divide step {m}")
        f.append(x)
    return f


def _radical_jet(lead, cofactor, radicand, den: list, order: int, shift: int = 0) -> TruncSeries:
    """(lead + cofactor sqrt(radicand)) / den to order, from rational coefficient lists,
    radicand[0] = 1 and den[shift] != 0 (den of one entry is a division by a number); with
    shift > 0 numerator and den are built shift orders higher and divided by z^shift first.

    With lam the lcm of the radicand's denominators and w = 4 lam, z -> w z makes the
    radicand 1 + 4 Y with Y an integer polynomial, whose square root has the integer
    coefficients F_m = w^m f_m (_sqrt_ints).  lead and cofactor join on those integers over
    their one common denominator d, so numerator coefficient k is N_k / (d w^k), and the jet
    quotient by den (_quotient) takes these pairs as they are: one Fraction per coefficient.
    """
    n = order + shift
    q = [parse_rational(x) for x in radicand[: n + 1]]
    w = 4 * lcm(*(x.denominator for x in q))
    f = _sqrt_ints([x.numerator * w**j // x.denominator for j, x in enumerate(q)], n)
    lc = [[parse_rational(x) for x in xs[: n + 1]] for xs in (lead, cofactor)]
    d = lcm(*(x.denominator for xs in lc for x in xs))
    nums, cof = ([x.numerator * (d // x.denominator) * w**j for j, x in enumerate(xs)] for xs in lc)
    nums += [0] * (n + 1 - len(nums))
    for i, x in enumerate(cof):
        if x:
            for k in range(i, n + 1):
                nums[k] += x * f[k - i]
    if any(nums[:shift]):
        raise ValueError(f"jet is not divisible by z^{shift}")
    dens = [d * w**shift]
    for _ in range(order):
        dens.append(dens[-1] * w)
    return TruncSeries(tuple(_quotient(nums[shift:], dens, *_split(den[shift : n + 1]))))


def r_series_closed(p: RationalLike, t: RationalLike, order: int) -> TruncSeries:
    """Closed-form R-transform jet for p = 2 or p = 3, one _radical_jet each.

    At p = 2 the denominator is the number 2(t - 1); t = 1 is the Catalan case
    R = z/(1-z), the lists z over 1 - z.  The p = 3 closed form has a denominator
    2(t - 1 + z)^2, which is 2 z^2 at t = 1; there the numerator z - 2 z^2 - z sqrt(1 - 4z)
    shares the factor z^2, so both are built two orders higher and divided by z^2 first,
    which leaves R = C(z) - 1 with C the Catalan generating function.  No t needs a second
    route.
    """
    p = parse_rational(p)
    t = parse_rational(t)
    if order < 1:
        raise ValueError("order must be at least 1")
    return _r_jet(p, t, 1, order)


def _r_lists(p: Fraction, t: Fraction) -> tuple[tuple[list, list, list, list], int]:
    """(lead, cofactor, radicand, den) of the closed R jet at p = 2 or 3, and its shift."""
    if p == 2:
        if t == 1:
            return ([0, 1], [0], [1], [1, -1]), 0
        return ([1 - t, 3 * t - 2, -1], [t - 1, -1], [1, 2 - 4 * t, 1], [2 * (t - 1)]), 0
    if p == 3:
        u = (t - 1) ** 2
        lead, den = [-u, 4 - 7 * t + 4 * t * t, -2], [2 * u, 4 * (t - 1), 2]
        return (lead, [u, -t], [1, -4 * t], den), 2 if t == 1 else 0
    raise ValueError("closed R-transform is implemented for p in {2, 3} only")


def _r_jet(p: Fraction, t: Fraction, s: int, order: int) -> TruncSeries:
    """The jet of R(s z): the lists of _r_lists with coefficient j scaled by s^j."""
    lists, shift = _r_lists(p, t)
    r = _radical_jet(*([x * s**j for j, x in enumerate(xs)] for xs in lists), order, shift)
    if r.coeffs[0] != 0:
        raise InconsistencyError("closed R jet has a nonzero constant term")
    return r


# (lead, cofactor, radicand, den) of each named generating function, expanded
_GF = {
    # (1 + 18 z - 27 z^2 + sqrt((1 - z)(1 - 9 z)^3)) / 2
    "ex1_gf": ([1, 18, -27], [1], [1, -28, 270, -972, 729], [2]),
    # (1 + 36 z + sqrt((1 - 12 z)^3)) / (2 (1 + 4 z)^2)
    "a220910_gf": ([1, 36], [1], [1, -36, 432, -1728], [2, 16, 32]),
    # (1 + 20 z - 8 z^2 + sqrt((1 - 8 z)^3)) / (2 (1 + z)^3)
    "a022558_gf": ([1, 20, -8], [1], [1, -24, 192, -512], [2, 6, 6, 2]),
}
GF_NAMES = tuple(_GF)


def gf_closed_expand(name: str, order: int) -> TruncSeries:
    """Expand one of the named algebraic generating functions (one _radical_jet) as a jet.

    ``ex1_gf``      -- ordinary GF of 3^n r_n(2, 4/3) (1, 2, 5, 16, 64, ...)
    ``a220910_gf``  -- ordinary GF of A220910 (1, 1, 3, 14, 83, ...)
    ``a022558_gf``  -- ordinary GF of A022558 (1, 1, 2, 6, 23, ...)
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if name in _GF:
        return _radical_jet(*_GF[name], order)
    raise ValueError(f"unknown generating function {name!r}; expected one of {GF_NAMES}")
