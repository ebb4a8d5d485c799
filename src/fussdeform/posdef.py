"""Positivity classification: trigonometric criterion and exact Hankel analysis.

The density f_{p,t} is nonnegative exactly when the angle function

    psi_{p,t}(phi) = t sin((1 - 1/p) phi) + 2 (1 - t) sin(phi) cos(phi / p)

stays nonnegative on (0, pi).  For each p >= 1 the admissible deformations
form the closed interval [g(p), 2p/(p+1)]; g is computed here by bisection on
the numerically certified minimum of psi.

Independently, the moment sequence a_n(p, t) is positive definite exactly when
every Hankel matrix (a_{i+j}) is positive semidefinite.  hankel_report works in
exact rational arithmetic: one symmetric elimination in natural order gives
the leading principal minors (running products of the pivots) and the
verdict (the signs of the pivots).  classify_point runs both routes and
refuses to return if they genuinely disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isfinite, pi
from typing import Sequence, Union

from ._backend import kernels
from .errors import InconsistencyError
from .exact_seq import Params, SeqTable
from .series import cumulants_from_moments, moment_series

__all__ = [
    "PsiPoint",
    "psi",
    "psi_min",
    "g_of_p",
    "HankelVerdict",
    "hankel_report",
    "classify_point",
    "infdiv_check",
    "theorem_interval",
]

_FEAS_TOL = 1e-12
_BISECT_TOL = 1e-9
_CLASSIFY_TOL = 1e-6


@dataclass(frozen=True)
class PsiPoint:
    """One evaluation of psi: location, value, and spread of its three writings."""

    p: float
    t: float
    phi: float
    value: float
    form_spread: float


def _check_pt(p: float, t: float) -> tuple[float, float]:
    p = float(p)
    t = float(t)
    if not (isfinite(p) and p >= 1.0):
        raise ValueError("psi requires p >= 1")
    if not isfinite(t):
        raise ValueError("t must be finite")
    return p, t


def psi(p: float, t: float, phi: float) -> PsiPoint:
    """Evaluate psi_{p,t} at phi in [0, pi], recording the three-form spread."""
    p, t = _check_pt(p, t)
    phi = float(phi)
    if not (0.0 <= phi <= pi):
        raise ValueError("phi must lie in [0, pi]")
    a, b, c = kernels.psi_forms(p, t, phi)
    spread = max(abs(a - b), abs(a - c), abs(b - c))
    return PsiPoint(p=p, t=t, phi=phi, value=a, form_spread=spread)


def psi_min(p: float, t: float, grid: int = 512, tol: float = 1e-12) -> PsiPoint:
    """Global minimum of psi_{p,t} over [0, pi] (grid scan + golden refinement)."""
    p, t = _check_pt(p, t)
    value, arg = kernels.psi_min(p, t, grid, tol)
    a, b, c = kernels.psi_forms(p, t, arg)
    spread = max(abs(a - b), abs(a - c), abs(b - c))
    return PsiPoint(p=p, t=t, phi=arg, value=value, form_spread=spread)


@lru_cache(maxsize=1024)
def _g_cached(p: float) -> float:
    if kernels.psi_min(p, 0.0, 512, 1e-12)[0] >= -_FEAS_TOL:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if kernels.psi_min(p, mid, 512, 1e-12)[0] >= -_FEAS_TOL:
            hi = mid
        else:
            lo = mid
    return hi


def g_of_p(p: float) -> float:
    """The least t with psi_{p,t} >= 0 on (0, pi): bisection to 1e-9 in t."""
    p = float(p)
    if not (isfinite(p) and p >= 1.0):
        raise ValueError("g is defined for p >= 1")
    return _g_cached(p)


def theorem_interval(p: Union[int, Fraction, float]) -> tuple[float, Fraction]:
    """The admissible deformation interval [g(p), 2p/(p+1)] at this p."""
    frac = Fraction(p)
    if frac < 1:
        raise ValueError("the classification covers p >= 1")
    return g_of_p(float(frac)), Fraction(2, 1) * frac / (frac + 1)


@dataclass(frozen=True)
class HankelVerdict:
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


def hankel_report(seq: Union[SeqTable, Sequence[Fraction]], size: int) -> HankelVerdict:
    """Definiteness of H = (seq[i+j])_{0 <= i,j < size}, all arithmetic exact.

    One symmetric elimination in natural order yields both the leading
    principal minors and the verdict.  Row operations with earlier pivot rows
    keep every leading minor, so minor k is the product of pivots 0..k, and
    the pivot signs give the inertia.  A zero pivot whose remaining row
    vanishes drops out: every later minor is 0 and H is at best semidefinite.
    A zero pivot facing a nonzero entry b makes H indefinite (a 2x2 principal
    minor is -b^2); the later leading minors need not vanish there, so they
    come from separate determinants.
    """
    values = list(seq.values) if isinstance(seq, SeqTable) else [Fraction(v) for v in seq]
    if size < 1:
        raise ValueError("size must be positive")
    if len(values) < 2 * size - 1:
        raise ValueError(f"need at least {2 * size - 1} sequence values, got {len(values)}")
    a = [values[i : i + size] for i in range(size)]
    minors: list[Fraction] = []
    det = Fraction(1)
    verdict = "positive_definite"
    for k in range(size):
        pivot = a[k][k]
        if pivot == 0 and any(a[k][j] for j in range(k + 1, size)):
            minors += [_det([values[i : i + m + 1] for i in range(m + 1)]) for m in range(k, size)]
            return HankelVerdict(size=size, minors=minors, verdict="indefinite")
        det *= pivot
        minors.append(det)
        if pivot < 0:
            verdict = "indefinite"
        elif pivot == 0:
            if verdict == "positive_definite":
                verdict = "positive_semidefinite"
            continue
        for i in range(k + 1, size):
            if a[i][k]:
                f = a[i][k] / pivot
                for j in range(k + 1, size):
                    a[i][j] -= f * a[k][j]
    return HankelVerdict(size=size, minors=minors, verdict=verdict)


def classify_point(params: Params, size: int = 6) -> dict:
    """Classify (p, t): interval criterion vs exact Hankel section, cross-checked.

    The two routes are genuinely independent; a Hankel section that is
    indefinite while t sits strictly inside the admissible interval (beyond
    the 1e-6 boundary tolerance) is a contradiction and raises.
    """
    p, t = params.p, params.t
    if p < 1:
        raise ValueError("the classification covers p >= 1")
    lower, upper = theorem_interval(p)
    tf = float(t)
    theorem_verdict = (lower - _CLASSIFY_TOL <= tf) and (tf <= float(upper) + _CLASSIFY_TOL)
    moments = moment_series(params, 2 * size - 2)
    values = [moments.coefficient(k) for k in range(2 * size - 1)]
    hankel = hankel_report(values, size)
    if (
        hankel.verdict == "indefinite"
        and lower + _CLASSIFY_TOL <= tf
        and tf <= float(upper) - _CLASSIFY_TOL
    ):
        raise InconsistencyError(
            f"Hankel section of size {size} is indefinite at (p={p}, t={t}) although "
            f"t lies inside the admissible interval [{lower}, {float(upper)}]"
        )
    return {"theorem_verdict": theorem_verdict, "hankel": hankel}


def infdiv_check(p: Union[int, Fraction], t, size: int = 5) -> HankelVerdict:
    """Hankel test of the shifted free-cumulant sequence (r_2, r_3, ...).

    The distribution is freely infinitely divisible exactly when every such
    section is positive semidefinite; an indefinite section certifies the
    negative.  Cumulants are derived from the moment jet, so this covers
    p in {2, 3} where the family's closed descriptions apply.
    """
    frac = Fraction(p)
    if frac not in (2, 3):
        raise ValueError("the divisibility check covers p in {2, 3}")
    params = Params.exact(frac, t)
    cumulants = cumulants_from_moments(moment_series(params, 2 * size))
    shifted = [cumulants.cumulant(n) for n in range(2, 2 * size + 1)]
    return hankel_report(shifted, size)
