"""Positivity classification: trigonometric criterion and exact Hankel analysis.

The density f_{p,t} is nonnegative exactly when the angle function

    psi_{p,t}(phi) = t sin((1 - 1/p) phi) + 2 (1 - t) sin(phi) cos(phi / p)

stays nonnegative on (0, pi).  For each p >= 1 the admissible deformations
form the closed interval [g(p), 2p/(p+1)].  psi is affine in t, so g(p) is
one maximisation over phi, which the minimum of psi at t = g(p) then checks.
For p >= 2, phi / p <= pi / 2 on [0, pi] makes psi_{p,0} >= 0, so g(p) = 0
with no scan.  Below 2, the minimum at t = 0, the maximisation and the check
read one set of grid samples of p, which the kernels compute once.  psi_min
checks p and t and returns the kernels' (value, phi) of that minimum.

Independently, the moment sequence a_n(p, t) is positive definite exactly when
every Hankel matrix (a_{i+j}) is positive semidefinite.  hankel_report is
exact and runs in Python integers: it reads the section as reduced integer
pairs (numerator, denominator).  It first rescales the section to
s^(i+j) a_{i+j}, which is D H D with D = diag(1, s, ..., s^(m-1)) and again a
Hankel section; the integer s = den(a_2) / gcd(den(a_1), den(a_2)) takes out
the geometric growth of the denominators.  It then clears the remaining
denominators by their lcm L, and one symmetric fraction-free (Bareiss)
elimination in natural order gives the leading principal minors (the pivots,
each divided once by a power of L and of s) and the verdict (the signs of the
pivots).  Every division in it is exact, because each intermediate entry is
itself a minor of the integer section.  The elimination is one generator of
pivots (_pivots), which also states the verdict rule; it makes each step
only when the next pivot is read.  classify_point takes a cell's section
straight from the Raney integers of a_n that exact_seq owns (the row
exact_seq._fuss_parts, B_p^2 check included, and the affine formula
exact_seq._affine), one gcd per entry and no Fraction, runs both routes and
refuses to return if they genuinely disagree.  classify_row does the same
for a row of cells at one p: it builds the interval and the Raney integers
once, and hankel_report with minors=False reads each cell's pivots only until
its verdict is decided, so an indefinite cell stops at its first negative
pivot and no minor is built.  Only infdiv_check needs the jet engine, so it
alone imports series, when it runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite, lcm
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from ._backend import kernels
from .errors import InconsistencyError
from .exact_seq import Params, RationalLike, SeqTable, _affine, _fuss_parts, parse_rational

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

_FEAS_TOL = 1e-12
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
    """The least t in [0, 1] with psi_{p,t} >= 0 on (0, pi): max(0, sup -B/A over A > 0)
    for psi = t A + B.  It is 0 with no scan for p >= 2.  Below 2 it is 0 where psi_min(p, 0)
    >= -1e-12; otherwise it is checked by psi_min(p, g(p)) >= -1e-12 (else InconsistencyError).
    Its three scans share one set of grid samples."""
    p = float(p)
    if not (isfinite(p) and p >= 1.0):
        raise ValueError("g is defined for p >= 1")
    # For p >= 2, phi / p <= pi / 2 on [0, pi], so psi_{p,0}(phi) = 2 sin(phi) cos(phi / p) >= 0
    # (in floats too, as float pi < pi) and g(p) = 0 needs no scan.
    if p >= 2.0 or kernels.psi_min(p, 0.0)[0] >= -_FEAS_TOL:
        return 0.0
    g = min(1.0, max(0.0, kernels.g_sup(p)[0]))
    value = kernels.psi_min(p, g)[0]
    if value < -_FEAS_TOL:
        raise InconsistencyError(f"g({p!r}) = {g!r}, yet the minimum of psi there is {value!r}")
    return g


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


def _det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    a = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
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


class _IntSection(list):
    """A Hankel section as a list of reduced integer pairs (numerator, denominator > 0)."""

    __slots__ = ()


def _cell_section(parts: list[tuple[int, int, int]], t: Fraction) -> _IntSection:
    """The moment section of one cell at t, from the p-only part of its row, as reduced pairs."""
    section = _IntSection()
    for num, den in _affine(parts, t):
        g = gcd(num, den)
        section.append((num // g, den // g))
    return section


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


def hankel_report(
    seq: Union[SeqTable, Sequence[Union[Fraction, int, str]]], size: int, minors: bool = True
) -> HankelVerdict:
    """Definiteness of H = (seq[i+j])_{0 <= i,j < size}, all arithmetic exact.

    The values are read as reduced integer pairs (numerator, denominator):
    those of a SeqTable (which must start at offset 0), of Fractions and
    ints, of anything else Fraction accepts (such as "1/3") after one
    conversion, or the pairs that classify_point and classify_row take
    straight from the Raney integers of exact_seq.
    With d_k the denominator of v_k = seq[k], s = d_2 // gcd(d_1, d_2) (s = 1
    at size 1) is the part of d_2 not in d_1: the ratio b for moment sections
    at p = a/b, the growth of den(t) for cumulant sections at tiny t.  The
    values w_k = s^k v_k form D H D, D = diag(1, s, ..., s^(size-1)), which
    is again a Hankel section, and its leading minor of order k + 1 is
    s^(k(k+1)) times that of H, a positive factor.  w_k is the reduced pair
    (n_k s^k / g, d_k / g), g = gcd(s^k, d_k).  D H D is scaled to the
    integer Hankel section B = L D H D, L the lcm of the denominators of the
    w_k, and one symmetric fraction-free (Bareiss) elimination in natural
    order (_pivots) runs on the upper triangle of B.  Each update

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
    vanish there, so they come from separate determinants.

    With minors=False no minor is built (minors is an empty list) and the
    pivots are read only until the verdict is decided: a negative pivot, or
    a zero pivot facing a nonzero entry, ends the elimination as indefinite;
    otherwise every pivot is read.  classify_row reads each cell so.
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
                v = Fraction(v)
            pairs.append((v.numerator, v.denominator))
    if size < 1:
        raise ValueError("size must be positive")
    if len(pairs) < 2 * size - 1:
        raise ValueError(f"need at least {2 * size - 1} sequence values, got {len(pairs)}")
    pairs = pairs[: 2 * size - 1]
    d1, d2 = (pairs[1][1], pairs[2][1]) if size > 1 else (1, 1)
    s = d2 // gcd(d1, d2)
    w = []
    sk = 1  # s ** k
    for num, den in pairs:
        g = gcd(sk, den)
        w.append((num * (sk // g), den // g))
        sk *= s
    scale = lcm(*(den for _, den in w))
    h = [num * (scale // den) for num, den in w]
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
            values = [Fraction(num, den) for num, den in pairs]
            found += [_det([values[i : i + m + 1] for i in range(m + 1)]) for m in range(k, size)]
            break
        singular = singular or pivot == 0
        found.append(Fraction(0) if singular else Fraction(pivot, power))
    return HankelVerdict(size=size, minors=found, verdict=verdict)


def _cross_checked(p: Fraction, t: Fraction, tf: float, interval, verdict: str, size: int) -> bool:
    """The interval criterion at t (tf = float(t)), within the 1e-6 boundary tolerance.
    Raises if the Hankel verdict is indefinite while t lies strictly inside the interval."""
    lower, upper = interval
    top = float(upper)
    if verdict == "indefinite" and lower + _CLASSIFY_TOL <= tf <= top - _CLASSIFY_TOL:
        raise InconsistencyError(
            f"Hankel section of size {size} is indefinite at (p={p}, t={t}) although "
            f"t lies inside the admissible interval [{lower}, {top}]"
        )
    return lower - _CLASSIFY_TOL <= tf <= top + _CLASSIFY_TOL


def classify_point(params: Params, size: int = 6) -> dict:
    """Classify (p, t): interval criterion vs exact Hankel section, cross-checked.

    The two routes are genuinely independent; a Hankel section that is
    indefinite while t sits strictly inside the admissible interval (beyond
    the 1e-6 boundary tolerance) is a contradiction and raises.
    """
    p, t = params.p, params.t
    if p < 1:
        raise ValueError("the classification covers p >= 1")
    interval = theorem_interval(p)
    tf = float(t)
    hankel = hankel_report(_cell_section(_fuss_parts(p, 2 * size - 2), t), size)
    theorem_verdict = _cross_checked(p, t, tf, interval, hankel.verdict, size)
    return {"theorem_verdict": theorem_verdict, "hankel": hankel}


def classify_row(
    p: RationalLike, ts: Sequence[RationalLike], size: int = 6
) -> Iterator[tuple[bool, str]]:
    """classify_point's (theorem verdict, Hankel verdict) at (p, t) for each t in ts, in order.

    The admissible interval and the p-only part of the moment section
    (exact_seq._fuss_parts, B_p^2 check included) are built once for the row.
    Each cell's section goes to hankel_report with minors=False, which reads
    the elimination only until the verdict is decided: a negative pivot, or
    a zero pivot facing a nonzero entry, ends the cell as indefinite;
    otherwise every pivot is read.  No minor is built.  The cross-check of
    classify_point raises here too.  Cells are computed as they are read.
    """
    p = parse_rational(p)
    if p < 1:
        raise ValueError("the classification covers p >= 1")
    interval = theorem_interval(p)
    parts = _fuss_parts(p, 2 * size - 2)
    for t in ts:
        t = parse_rational(t)
        tf = float(t)
        verdict = hankel_report(_cell_section(parts, t), size, minors=False).verdict
        yield _cross_checked(p, t, tf, interval, verdict, size), verdict


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
