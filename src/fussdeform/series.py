"""Truncated power series over exact rationals, and the transform layer.

A :class:`TruncSeries` is an eager, dense jet: a tuple of Fraction
coefficients c_0..c_N.  Binary operations truncate to the shorter order, so
every identity in this module is an identity of jets.  On top of the generic
engine (multiply, divide, compose, revert, and one power recurrence pow1p,
of which sqrt1p is the alpha = 1/2 case) sit the domain series: the Fuss
generating function B_p, the moment series of the deformed family, free
cumulants, and the S- and R-transforms with their closed forms.

Everything here is exact; floats never enter.  Coefficients are stored as
Fractions, but a product or quotient of jets, and the pow1p recurrence, sum
each output coefficient in integers: numerators over one running
denominator, which widens (one gcd) only when a term's denominator does not
divide it, and one Fraction normalisation per coefficient at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence, Union

from .errors import InconsistencyError
from .exact_seq import Params, RationalLike, parse_rational, raney

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


def _widen(num: int, den: int, d: int) -> tuple[int, int, int]:
    """Rewrite num/den over lcm(den, d); also return the multiplier lcm // d."""
    g = gcd(den, d)
    m = d // g
    return num * m, den * m, den // g


@dataclass(frozen=True)
class TruncSeries:
    """Jet c_0 + c_1 z + ... + c_N z^N with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a jet needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(parse_rational(c) for c in self.coeffs))

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
        an, ad = _split(self.coeffs[: n + 1])
        bn, bd = _split(other.coeffs[: n + 1])
        live = [i for i in range(n + 1) if an[i]]  # skips the zeros of z-divisible jets
        out = []
        for k in range(n + 1):
            num, den = 0, 1
            for i in live:
                if i > k:
                    break
                y = bn[k - i]
                if y:
                    d = ad[i] * bd[k - i]
                    q, r = divmod(den, d)
                    if r:
                        num, den, q = _widen(num, den, d)
                    num += an[i] * y * q
            out.append(Fraction(num, den))
        return TruncSeries(tuple(out))

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
        an, ad = _split(self.coeffs[: n + 1])
        bn, bd = _split(other.coeffs[: n + 1])
        out: list[Fraction] = []
        on: list[int] = []
        od: list[int] = []
        for k in range(n + 1):
            num, den = an[k], ad[k]
            for j in range(1, k + 1):
                x = bn[j]
                if x and on[k - j]:
                    d = bd[j] * od[k - j]
                    q, r = divmod(den, d)
                    if r:
                        num, den, q = _widen(num, den, d)
                    num -= x * on[k - j] * q
            c = Fraction(num * bd[0], den * bn[0])
            out.append(c)
            on.append(c.numerator)
            od.append(c.denominator)
        return TruncSeries(tuple(out))

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
    """Jet of f(g(z)); requires g(0) = 0 so the composition is well defined."""
    if g.coeffs[0] != 0:
        raise ValueError("composition needs an inner jet with zero constant term")
    n = min(f.order, g.order)
    g = g.truncate(n)
    acc = TruncSeries.constant(f.coeffs[n], n)
    for k in range(n - 1, -1, -1):
        # acc * g has constant term 0 (g(0) = 0), so adding f_k sets it
        acc = TruncSeries((f.coeffs[k],) + (acc * g).coeffs[1:])
    return acc


def revert(f: TruncSeries) -> TruncSeries:
    """Compositional inverse jet: g with f(g(z)) = z.  Needs c_0 = 0, c_1 != 0.

    Uses the Lagrange inversion coefficients g_n = [w^{n-1}] (w / f(w))^n / n,
    with (w/f)^n accumulated by repeated jet multiplication.
    """
    if f.coeffs[0] != 0:
        raise ValueError("reversion needs a jet with zero constant term")
    if f.order < 1 or f.coeffs[1] == 0:
        raise ValueError("reversion needs a nonzero linear coefficient")
    n = f.order
    base = TruncSeries(f.coeffs[1:])  # f/z, constant term f_1 != 0
    h = TruncSeries.constant(1, n - 1) / base.truncate(n - 1)  # jet of w/f(w)
    out = [Fraction(0)] * (n + 1)
    power = h
    for k in range(1, n + 1):
        out[k] = power.coeffs[k - 1] / k
        if k < n:
            power = power * h
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
    over one running denominator as in the jet product, and divided by v n once.
    """
    if f.coeffs[0] != 1:
        raise ValueError("pow1p needs constant term exactly 1")
    a = parse_rational(alpha)
    u, v = a.numerator, a.denominator
    n = f.order
    fn, fd = _split(f.coeffs)
    out = [Fraction(1)]
    on = [1]
    od = [1]
    for k in range(1, n + 1):
        num, den = 0, 1
        for j in range(1, k + 1):
            x = fn[j]
            if x and on[k - j]:
                d = fd[j] * od[k - j]
                q, r = divmod(den, d)
                if r:
                    num, den, q = _widen(num, den, d)
                num += (j * (u + v) - k * v) * x * on[k - j] * q
        c = Fraction(num, den * v * k)
        out.append(c)
        on.append(c.numerator)
        od.append(c.denominator)
    return TruncSeries(tuple(out))


@dataclass(frozen=True)
class CumulantTable:
    """Free cumulants r_1..r_N."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(parse_rational(v) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)

    def cumulant(self, n: int) -> Fraction:
        if not 1 <= n <= len(self.values):
            raise IndexError(f"cumulant index {n} outside 1..{len(self.values)}")
        return self.values[n - 1]


def bp_series(p: RationalLike, r: RationalLike, order: int) -> TruncSeries:
    """Jet of B_p(z)^r, whose coefficients are the Raney numbers raney(p, r, n)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    p = parse_rational(p)
    r = parse_rational(r)
    return TruncSeries(tuple(raney(p, r, n) for n in range(order + 1)))


def moment_series(params: Params, order: int) -> TruncSeries:
    """Moment jet of the deformed family: t B_p + (1 - t) B_p^2.

    The affine combination of Raney jets is cross-checked coefficientwise
    against the product B_p * B_p computed by jet multiplication, which ties
    the series engine to the exact-sequence module.
    """
    p, t = params.p, params.t
    b1 = bp_series(p, 1, order)
    b2_product = b1 * b1
    b2_raney = bp_series(p, 2, order)
    if b2_product != b2_raney:
        raise InconsistencyError(
            f"B_{p}^2 jet disagrees between multiplication and the Raney formula"
        )
    return t * b1 + (1 - t) * b2_raney


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


def cumulant_jet(table: CumulantTable, order: Optional[int] = None) -> TruncSeries:
    """The jet of R(z) = r_1 z + r_2 z^2 + ... from a cumulant table."""
    n = len(table.values) if order is None else order
    if n > len(table.values):
        raise ValueError("requested order exceeds the stored cumulants")
    return TruncSeries((Fraction(0),) + table.values[:n])


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
    if m.order < 2 or m.coeffs[1] == 0:
        raise ValueError("s_series_from_moments needs m_1 != 0 and order >= 2")
    chi = revert(m - 1)
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


def r_series_closed(p: RationalLike, t: RationalLike, order: int) -> TruncSeries:
    """Closed-form R-transform jet for p = 2 or p = 3.

    p = 2, t = 1 is the Catalan case R = z/(1-z).  The p = 3 closed form has
    a denominator 2(t - 1 + z)^2, which is 2 z^2 at t = 1; there the numerator
    z - 2 z^2 - z sqrt(1 - 4z) shares the factor z^2, so both are built two
    orders higher and divided by z^2 first, which leaves R = C(z) - 1 with C
    the Catalan generating function.  No t needs a second route.
    """
    p = parse_rational(p)
    t = parse_rational(t)
    if order < 1:
        raise ValueError("order must be at least 1")
    if p == 2:
        if t == 1:
            return TruncSeries((Fraction(0),) + (Fraction(1),) * order)
        rad = sqrt1p(TruncSeries.from_coeffs([1, 2 - 4 * t, 1], order))
        front = TruncSeries.from_coeffs([t - 1, -1], order)
        num = TruncSeries.from_coeffs([1 - t, 3 * t - 2, -1], order) + front * rad
        r = num / (2 * (t - 1))
    elif p == 3:
        shift = 2 if t == 1 else 0
        n = order + shift
        rad = sqrt1p(TruncSeries.from_coeffs([1, -4 * t], n))
        num = (
            TruncSeries.from_coeffs([-((t - 1) ** 2), 4 - 7 * t + 4 * t * t, -2], n)
            + TruncSeries.from_coeffs([(1 - t) ** 2, -t], n) * rad
        )
        den = TruncSeries.from_coeffs([2 * (t - 1) ** 2, 4 * (t - 1), 2], n)
        r = num.shift_down(shift) / den.shift_down(shift)
    else:
        raise ValueError("closed R-transform is implemented for p in {2, 3} only")
    if r.coeffs[0] != 0:
        raise InconsistencyError("closed R jet has a nonzero constant term")
    return r


def _gf_ex1(order: int) -> TruncSeries:
    # (1 + 18 z - 27 z^2 + sqrt((1 - z)(1 - 9 z)^3)) / 2
    f = TruncSeries.from_coeffs([1, -9], order)
    rad = sqrt1p(TruncSeries.from_coeffs([1, -1], order) * f * f * f)
    return (TruncSeries.from_coeffs([1, 18, -27], order) + rad) / 2


def _gf_a220910(order: int) -> TruncSeries:
    # (1 + 36 z + sqrt((1 - 12 z)^3)) / (2 (1 + 4 z)^2)
    f = TruncSeries.from_coeffs([1, -12], order)
    rad = sqrt1p(f * f * f)
    num = TruncSeries.from_coeffs([1, 36], order) + rad
    g = TruncSeries.from_coeffs([1, 4], order)
    return num / (2 * g * g)


def _gf_a022558(order: int) -> TruncSeries:
    # (1 + 20 z - 8 z^2 + sqrt((1 - 8 z)^3)) / (2 (1 + z)^3)
    f = TruncSeries.from_coeffs([1, -8], order)
    rad = sqrt1p(f * f * f)
    num = TruncSeries.from_coeffs([1, 20, -8], order) + rad
    g = TruncSeries.from_coeffs([1, 1], order)
    return num / (2 * g * g * g)


GF_NAMES = ("ex1_gf", "a220910_gf", "a022558_gf")


def gf_closed_expand(name: str, order: int) -> TruncSeries:
    """Expand one of the named algebraic generating functions as a jet.

    ``ex1_gf``      -- ordinary GF of 3^n r_n(2, 4/3) (1, 2, 5, 16, 64, ...)
    ``a220910_gf``  -- ordinary GF of A220910 (1, 1, 3, 14, 83, ...)
    ``a022558_gf``  -- ordinary GF of A022558 (1, 1, 2, 6, 23, ...)
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if name == "ex1_gf":
        return _gf_ex1(order)
    if name == "a220910_gf":
        return _gf_a220910(order)
    if name == "a022558_gf":
        return _gf_a022558(order)
    raise ValueError(f"unknown generating function {name!r}; expected one of {GF_NAMES}")
