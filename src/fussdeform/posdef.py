"""Positivity classification: trigonometric criterion and exact Hankel analysis.

The density f_{p,t} is nonnegative exactly when the angle function

    psi_{p,t}(phi) = t sin((1 - 1/p) phi) + 2 (1 - t) sin(phi) cos(phi / p)

stays nonnegative on (0, pi).  For each p >= 1 the admissible deformations
form the closed interval [g(p), 2p/(p+1)].  On the curve B = r e^(i phi / p),
r = sin(phi) / sin((1 - 1/p) phi), of the roots of x (B - 1) = B^p,
psi_{p,t}(phi) = sin((1 - 1/p) phi) (t + 2 (1 - t) Re B) (derived, and checked
numerically by a test), so for p > 1 the interval is the set of t with
t + 2 (1 - t) Re B >= 0: its upper end comes from max Re B = p/(p-1), at
phi -> 0, its lower end from min Re B, negative only on the arc
(p pi / 2, pi), below p = 2.  g_of_p checks p and makes one kernel call,
kernels.g_scan, which owns the case p >= 2 (g(p) = 0, no search), the one
golden-section search below 2 (psi = t A + B, A > 0 on the arc), the
tolerance and the check (InconsistencyError): the minimum of psi at t = g(p)
from the grid samples of psi itself from two cells before p pi / 2 on, the
floats a scan of all of [0, pi] gives.  psi_min checks p and t and returns the
kernels' (value, phi) of the minimum of psi_{p,t} from the whole grid, as it
accepts any t; where that minimum leaves the float range (|t| near 1e308) the
kernels raise OverflowError.

Independently, the moment sequence a_n(p, t) is positive definite exactly
when every Hankel matrix (a_{i+j}) is positive semidefinite.  hankel_report
is exact and runs in Python integers: it reads the section as reduced integer
pairs (numerator, denominator).  It first rescales the section to s^(i+j)
a_{i+j}, which is D H D with D = diag(1, s, ..., s^(m-1)) and again a Hankel
section; the integer s = den(a_2) / gcd(den(a_1), den(a_2)) takes out the
geometric growth of the denominators.  It then clears the remaining
denominators by their lcm L, and one symmetric fraction-free (Bareiss)
elimination in natural order gives the leading principal minors (the pivots,
each divided once by a power of L and of s) and the verdict (the signs of the
pivots).  Every division in it is exact, because each intermediate entry is
itself a minor of the integer section.  The elimination is one generator of
pivots (_pivots), which also states the verdict rule; it makes each step only
when the next pivot is read.  It is the only elimination: where it breaks
down, the later minors come from its pivots on shifted sections
(_shifted_minors).  One cell path, _classify, classifies a row of cells at
one p: it builds the interval and the Raney integers of a_n that exact_seq
owns (the row exact_seq._fuss_parts, B_p^2 check included) once, takes each
cell's section straight from the affine formula exact_seq._affine, one gcd
per entry and no Fraction, runs both routes and refuses to return if they
genuinely disagree.  classify_point is its one-cell case and classify_row its
row case.  hankel_report with minors=False reads a section's pivots only
until its verdict is decided, so an indefinite section stops at its first
negative pivot and no minor is built.  classify_row reads every cell so, and
classify_point does when asked for no minors, as the CSV form of posdef asks.
Only infdiv_check needs the jet engine, so it alone imports series, when it
runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite, prod
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from ._backend import kernels
from .errors import InconsistencyError
from .exact_seq import (
    Params, RationalLike, SeqTable, _affine, _cleared, _fuss_parts, parse_rational,
)

__all__ = [
    "psi_min",
    "g_of_p",
    "HankelVerdict",
    "hankel_report",
    "classify_point",
    "classify_row",
    "infdiv_check",
    "theorem_interval",
]

_CLASSIFY_TOL = 1e-6


def psi_min(p: float, t: float) -> tuple[float, float]:
    """Global minimum of psi_{p,t} over [0, pi] (grid scan + golden refinement): (value, phi)."""
    p = float(p)
    t = float(t)
    if not (isfinite(p) and p >= 1.0):
        raise ValueError("psi requires p >= 1")
    if not isfinite(t):
        raise ValueError("t must be finite")
    return kernels.psi_min(p, t)


def g_of_p(p: float) -> float:
    """The least t in [0, 1] with psi_{p,t} >= 0 on (0, pi), once p >= 1 is checked: one
    kernels.g_scan call, which owns the p >= 2 case, the golden-section search below 2 and
    the check of psi at t = g(p) against its tolerance (see there)."""
    p = float(p)
    if not (isfinite(p) and p >= 1.0):
        raise ValueError("g is defined for p >= 1")
    return kernels.g_scan(p)[0]


def theorem_interval(p: Union[int, Fraction, float]) -> tuple[float, Fraction]:
    """The admissible deformation interval [g(p), 2p/(p+1)] at this p."""
    frac = Fraction(p)
    if frac < 1:
        raise ValueError("the classification covers p >= 1")
    return g_of_p(float(frac)), Fraction(2, 1) * frac / (frac + 1)


class HankelVerdict(NamedTuple):
    """Exact definiteness report for the leading m x m Hankel section."""

    size: int
    minors: list[Fraction]
    verdict: str  # positive_definite | positive_semidefinite | indefinite


class _IntSection(list):
    """A Hankel section as a list of reduced integer pairs (numerator, denominator > 0)."""

    __slots__ = ()


def _pivots(b: list[list[int]]) -> Iterator[tuple[Optional[int], str]]:
    """The symmetric fraction-free elimination of the integer Hankel section b, run lazily.

    Yields each pivot k of B (its leading minor of order k + 1 until a zero
    pivot drops out) with the verdict of the pivots so far, and makes step k
    of the elimination only when the next pivot is asked for, so a caller
    that stops reading at an indefinite verdict skips the rest.  A zero
    pivot facing a nonzero entry is yielded as None, indefinite, and ends
    the elimination (see hankel_report).
    """
    size = len(b)
    verdict = "positive_definite"
    prev = 1
    for k in range(size):
        row = b[k]
        pivot = row[k]
        if pivot == 0 and any(row[k + 1 :]):
            yield None, "indefinite"
            return
        if pivot < 0:
            verdict = "indefinite"
        elif pivot == 0 and verdict == "positive_definite":
            verdict = "positive_semidefinite"
        yield pivot, verdict
        if pivot == 0:
            continue
        for i in range(k + 1, size):
            r, f = b[i], row[i]
            for j in range(i, size):
                r[j] = (pivot * r[j] - f * row[j]) // prev
        prev = pivot


def _at_zero(points: list[tuple[int, int]]) -> Fraction:
    """Exact Lagrange interpolation: the value at 0 of the polynomial through the (x, y) points."""
    total = Fraction(0)
    for i, (x, y) in enumerate(points):
        others = [xm for m, (xm, _) in enumerate(points) if m != i]
        total += Fraction(y * prod(others), prod(xm - x for xm in others))
    return total


def _shifted_minors(h: list[int], size: int, first: int) -> list[Fraction]:
    """The leading minors of orders first..size of the integer Hankel section B = (h[i+j]).

    Minor j of B + eI is a monic integer polynomial of degree j in e, and pivot j - 1
    of B + eI where no pivot is 0 or None.  The first size + 1 such shifts e = 1, 2, ...
    are kept (the minors have at most size (size + 1) / 2 roots to skip), and minor j
    of B is the interpolation through the first j + 1 of them, read at e = 0.
    """
    kept = []
    e = 0
    while len(kept) <= size:
        e += 1
        b = [[h[i + j] + (e if i == j else 0) for j in range(size)] for i in range(size)]
        pivots = [pivot for pivot, _ in _pivots(b)]
        if all(pivots):
            kept.append((e, pivots))
    return [_at_zero([(e, piv[j - 1]) for e, piv in kept[: j + 1]]) for j in range(first, size + 1)]


def hankel_report(
    seq: Union[SeqTable, Sequence[Union[Fraction, int, str]]], size: int, minors: bool = True
) -> HankelVerdict:
    """Definiteness of H = (seq[i+j])_{0 <= i,j < size}, all arithmetic exact.

    The values are read as reduced integer pairs (numerator, denominator):
    those of a SeqTable (which must start at offset 0), of Fractions and
    ints, of any other value after one parse_rational (such as "1/3"; a
    float is refused with TypeError, as at every exact entry point), or the
    pairs that the cell path of classify_point and classify_row (_classify)
    takes straight from the Raney integers of exact_seq.
    With d_k the denominator of v_k = seq[k], s = d_2 // gcd(d_1, d_2) (s = 1
    at size 1) is the part of d_2 not in d_1: the ratio b for moment sections
    at p = a/b, the growth of den(t) for cumulant sections at tiny t.  The
    values w_k = s^k v_k form D H D, D = diag(1, s, ..., s^(size-1)), which
    is again a Hankel section, and its leading minor of order k + 1 is
    s^(k(k+1)) times that of H, a positive factor.  exact_seq._cleared scales
    D H D to the integer Hankel section B = L D H D, L the least common
    denominator of the w_k.  One symmetric fraction-free (Bareiss) elimination
    in natural order (_pivots) runs on the upper triangle of B.  Each update

        b[i][j] = (pivot * b[i][j] - b[k][i] * b[k][j]) // prev

    yields, by Sylvester's identity, the minor of B on the rows of the
    pivots so far plus i and their columns plus j.  That minor is an integer,
    so the division by the previous pivot is exact, and each pivot is a
    principal minor of B: pivot k is the leading minor of order k + 1, which
    is L^(k+1) s^(k(k+1)) times that of H, so each reported minor is one
    Fraction.  Any positive s gives the same minors and verdict.  The
    rational pivots are the ratios pivot / prev and give the inertia; the
    first negative one follows positive ones, so H is indefinite exactly when
    some integer pivot is negative.  A zero pivot whose remaining row
    vanishes drops out: the elimination goes on with the same previous
    pivot, which is Bareiss on the principal submatrix without that index,
    so the divisions stay exact; every later minor is 0 and H is at best
    semidefinite.  A zero pivot facing a nonzero entry b makes H indefinite
    (a 2x2 principal minor is -b^2); the later leading minors need not
    vanish there, so _shifted_minors reads them from the shifted sections B + eI.

    With minors=False no minor is built (minors is an empty list) and the
    pivots are read only until the verdict is decided: a negative pivot, or
    a zero pivot facing a nonzero entry, ends the elimination as indefinite;
    otherwise every pivot is read.  classify_row reads each cell so, and the
    CSV form of posdef reads its one section so.
    """
    pairs = seq
    if not isinstance(seq, _IntSection):
        if isinstance(seq, SeqTable):
            if seq.offset != 0:
                raise ValueError("a Hankel section is read from index 0: need an offset-0 table")
            seq = seq.values
        pairs = []
        for v in seq:
            if not isinstance(v, (int, Fraction)):
                v = parse_rational(v)
            pairs.append((v.numerator, v.denominator))
    if size < 1:
        raise ValueError("size must be positive")
    if len(pairs) < 2 * size - 1:
        raise ValueError(f"need at least {2 * size - 1} sequence values, got {len(pairs)}")
    pairs = pairs[: 2 * size - 1]
    d1, d2 = (pairs[1][1], pairs[2][1]) if size > 1 else (1, 1)
    s = d2 // gcd(d1, d2)
    h, scale = _cleared(pairs, s)
    b = [h[i : i + size] for i in range(size)]
    if not minors:
        for _, verdict in _pivots(b):
            if verdict == "indefinite":
                break
        return HankelVerdict(size=size, minors=[], verdict=verdict)
    found: list[Fraction] = []
    power = 1  # scale ** (k + 1) * s ** (k * (k + 1))
    singular = False
    for k, (pivot, verdict) in enumerate(_pivots(b)):
        power *= scale * s ** (2 * k)
        if pivot is None:
            for j, minor in enumerate(_shifted_minors(h, size, k + 1), k + 1):
                found.append(Fraction(minor, power))
                power *= scale * s ** (2 * j)
            break
        singular = singular or pivot == 0
        found.append(Fraction(0) if singular else Fraction(pivot, power))
    return HankelVerdict(size=size, minors=found, verdict=verdict)


def _classify(
    p: RationalLike, ts: Sequence[RationalLike], size: int, minors: bool
) -> Iterator[tuple[bool, HankelVerdict]]:
    """The theorem verdict and the Hankel report at (p, t) for each t in ts, in order.

    The interval and the p-only part of the moment section (exact_seq._fuss_parts,
    B_p^2 check included) are built once.  Each cell's section, the pairs of
    exact_seq._affine reduced by one gcd each, goes to hankel_report by its module
    name, so a tracer that rebinds that name sees each cell's elimination.  t is compared
    with the exact upper edge 2p/(p+1), and with the float g(p) within 1e-6 either side.
    A Hankel section that is indefinite while t lies in the interval (more than 1e-6
    above g(p)) is a contradiction and raises.  Cells are computed as they are read.
    """
    p = parse_rational(p)
    lower, upper = theorem_interval(p)
    parts = _fuss_parts(p, 2 * size - 2)
    for t in ts:
        t = parse_rational(t)
        tf = float(t)
        section = _IntSection()
        for num, den in _affine(parts, t):
            g = gcd(num, den)
            section.append((num // g, den // g))
        hankel = hankel_report(section, size, minors)
        if hankel.verdict == "indefinite" and lower + _CLASSIFY_TOL <= tf and t <= upper:
            raise InconsistencyError(
                f"Hankel section of size {size} is indefinite at (p={p}, t={t}) although "
                f"t lies inside the admissible interval [{lower}, {upper}]"
            )
        yield lower - _CLASSIFY_TOL <= tf and t <= upper, hankel


def classify_point(params: Params, size: int = 6, minors: bool = True) -> dict:
    """Classify (p, t): interval criterion vs exact Hankel section, cross-checked.

    The one-cell case of _classify.  The two routes are genuinely independent,
    and a genuine disagreement raises.  minors goes to hankel_report: with
    minors=False the report's minors are [] and the elimination stops at the
    verdict, which is the same either way.
    """
    theorem_verdict, hankel = next(_classify(params.p, [params.t], size, minors))
    return {"theorem_verdict": theorem_verdict, "hankel": hankel}


def classify_row(
    p: RationalLike, ts: Sequence[RationalLike], size: int = 6
) -> Iterator[tuple[bool, str]]:
    """classify_point's (theorem verdict, Hankel verdict) at (p, t) for each t in ts, in order.

    The row case of _classify, which builds the interval and the Raney integers once
    for the row, with minors=False: each cell's elimination is read only until its
    verdict is decided and no minor is built.  Cells are computed as they are read.
    """
    for theorem_verdict, hankel in _classify(p, ts, size, minors=False):
        yield theorem_verdict, hankel.verdict


def infdiv_check(p: Union[int, Fraction], t, size: int = 6) -> HankelVerdict:
    """Hankel test of the shifted free-cumulant sequence (r_2, r_3, ...).

    The distribution is freely infinitely divisible exactly when every such
    section is positive semidefinite; an indefinite section certifies the
    negative.  Cumulants r_1..r_(2 size) are derived from the moment jet and
    compared with the closed R-transform jet, so this covers p in {2, 3} where
    the family's closed descriptions apply; a mismatch raises
    InconsistencyError.
    """
    from .series import cumulants_from_moments, moment_series, r_series_closed

    frac = Fraction(p)
    if frac not in (2, 3):
        raise ValueError("the divisibility check covers p in {2, 3}")
    params = Params.exact(frac, t)
    order = 2 * size
    cumulants = cumulants_from_moments(moment_series(params, order)).values
    closed = r_series_closed(frac, params.t, order).coeffs[1:]
    for n, (r, c) in enumerate(zip(cumulants, closed), 1):
        if r != c:
            raise InconsistencyError(
                f"r_{n} at p = {frac}: the reverted moment jet and the closed R-transform disagree"
            )
    return hankel_report(cumulants[1:], size)
