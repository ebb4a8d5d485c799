"""One-shot verification suite: every headline identity, one pass/fail line each.

Each criterion is an independent callable that asserts its claims and returns
a one-line detail string.  ``run_criteria`` executes them (optionally filtered
by tag), times them, converts assertion failures into failed results, and
enforces the per-criterion runtime budgets.  The command line front end renders
the result list; the acceptance test asserts every line passes.
"""

from __future__ import annotations

import time
from fractions import Fraction as F
from math import nextafter
from typing import NamedTuple

from .density import (
    cumulant_quadrature,
    density_grid,
    moment_quadrature_full,
    w_closed,
)
from .errors import InconsistencyError
from .exact_seq import (
    _A220910_METHODS,
    Params,
    a022558_table,
    a220910_table,
    binomial_transform,
    catalan_table,
    deformed_table,
    ex1_table,
    necessary_gap,
)
from .posdef import (
    classify_point,
    classify_row,
    g_of_p,
    hankel_report,
    infdiv_check,
)
from .series import (
    CumulantTable,
    TruncSeries,
    bp_series,
    compose,
    cumulants_from_moments,
    gf_closed_expand,
    moment_series,
    moments_from_cumulants,
    pow1p,
    r_series_closed,
    s_series_closed,
    s_series_from_moments,
)
from ._backend import kernels

__all__ = ["CriterionResult", "run_criteria", "format_report", "CRITERIA"]

_A220910 = (1, 1, 3, 14, 83, 570, 4318, 35068, 299907, 2668994, 24513578)
_EX1 = (1, 2, 5, 16, 64, 304, 1632, 9552, 59520, 388720, 2632864)
_A022558 = (1, 1, 2, 6, 23, 103, 512, 2740, 15485, 91245, 555662)


class CriterionResult(NamedTuple):
    ident: str
    label: str
    tags: tuple[str, ...]
    passed: bool
    detail: str
    seconds: float


def _assert(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _c01_integer_sequence(order: int) -> str:
    tables = {m: a220910_table(50, method=m) for m in _A220910_METHODS}
    base = tables["recurrence"]
    for m in _A220910_METHODS:
        _assert(
            tuple(tables[m].values[:11]) == _A220910,
            f"method {m} breaks the 11-term listing",
        )
        _assert(tables[m].values == base.values, f"method {m} deviates before n = 50")
    return "four methods agree to n = 50 and reproduce the 11-term listing"


def _c02_scaled_cumulants(order: int) -> str:
    params = Params.exact(2, F(4, 3))
    cum = cumulants_from_moments(moment_series(params, 10))
    via_moments = [F(1)] + [3**n * cum.cumulant(n) for n in range(1, 11)]
    closed = r_series_closed(2, F(4, 3), 10)
    via_closed = [F(1)] + [3**n * closed.coefficient(n) for n in range(1, 11)]
    gf = gf_closed_expand("ex1_gf", 10)
    via_gf = [gf.coefficient(n) for n in range(11)]
    expected = [F(v) for v in _EX1]
    _assert(via_moments == expected, "cumulants_from_moments route differs")
    _assert(via_closed == expected, "r_series_closed route differs")
    _assert(via_gf == expected, "generating-function route differs")
    return "three independent routes reproduce 1, 2, 5, 16, 64, ..."


def _c03_binomial_transform(order: int) -> str:
    transformed = binomial_transform(ex1_table(10))
    _assert(
        tuple(transformed.values) == _A022558,
        "binomial transform misses the 11-term listing",
    )
    gf = gf_closed_expand("a022558_gf", 10)
    _assert(
        [gf.coefficient(n) for n in range(11)] == list(transformed.values),
        "algebraic generating function disagrees with the transform",
    )
    return "transform and closed generating function agree with the listing"


def _c04_cumulant_polynomials(order: int) -> str:
    for t in (F(0), F(1, 2), F(1), F(7, 6), F(4, 3)):
        jet = r_series_closed(2, t, 4)
        r1, r2, r3, r4 = (jet.coefficient(n) for n in range(1, 5))
        _assert(r1 == 2 - t, f"r_1 at t = {t}")
        _assert(r2 == 1 + t - t * t, f"r_2 at t = {t}")
        _assert(r3 == 3 * t * t - 2 * t**3, f"r_3 at t = {t}")
        _assert(r4 == -4 * t * t + 10 * t**3 - 5 * t**4, f"r_4 at t = {t}")
        _assert(
            r2 * r4 - r3 * r3 == t * t * (t - 1) * (t - 2) * (t * t - 2),
            f"determinant identity at t = {t}",
        )
    return "r_1..r_4 and the 2x2 cumulant determinant match at all five t"


def _c05_generating_functions(order: int) -> str:
    n = max(16, order)
    one_plus_z = TruncSeries.from_coeffs([1, 1], n)
    for p in (F(2), F(3), F(3, 2), F(5, 2)):
        b = bp_series(p, 1, n)
        functional = TruncSeries.constant(1, n) + pow1p(b, p).shift_up(1).truncate(n)
        _assert(b == functional, f"B = 1 + z B^p fails at p = {p}")
        inner = (TruncSeries.identity(n) * pow1p(one_plus_z, -p)).truncate(n)
        _assert(
            compose(b, inner) == one_plus_z,
            f"B(z (1+z)^-p) = 1 + z fails at p = {p}",
        )
        for r in (2, 3):
            power = b
            for _ in range(r - 1):
                power = power * b
            _assert(
                power == bp_series(p, r, n),
                f"Lambert coefficients differ from the direct ones at p = {p}, r = {r}",
            )
    return f"functional equation, inverse relation, and powers agree to order {n}"


def _c06_transform_consistency(order: int) -> str:
    n = max(12, order)
    pairs = [
        (F(2), F(1, 2)),
        (F(2), F(1)),
        (F(2), F(4, 3)),
        (F(3), F(1)),
        (F(3), F(3, 2)),
        (F(3, 2), F(1, 5)),
    ]
    for p, t in pairs:
        params = Params.exact(p, t)
        moments = moment_series(params, n)
        s_closed = s_series_closed(params, n - 1)
        _assert(s_closed == s_series_from_moments(moments), f"S routes differ at ({p}, {t})")
        table = cumulants_from_moments(moments)
        r_jet = TruncSeries.from_coeffs([F(0)] + list(table.values), n)
        if p in (2, 3):
            closed = r_series_closed(p, t, n)
            _assert(closed == r_jet, f"R routes differ at ({p}, {t})")
            _assert(
                moments_from_cumulants(CumulantTable(closed.coeffs[1:])) == moments,
                f"the closed R does not give back the moments at ({p}, {t})",
            )
        z_s = s_closed.shift_up(1).truncate(n)
        _assert(
            compose(r_jet, z_s) == TruncSeries.identity(n),
            f"R(z S(z)) = z fails at ({p}, {t})",
        )
    return (
        f"S, R, and the coupling identity agree to order {n} at all six points; the closed R "
        "gives back the moments at the five with p in {2, 3}"
    )


def _c07_boundary_function(order: int) -> str:
    _assert(abs(g_of_p(1.5) - 0.2) <= 1e-12, "g(3/2) misses 1/5")
    _assert(g_of_p(2.0) == 0.0, "g(2) misses 0")
    _assert(abs(g_of_p(1.0) - 1.0) <= 1e-12, "g(1) misses 1")
    values = [g_of_p(1.0 + 0.05 * k) for k in range(1, 20)]
    _assert(
        all(a > b for a, b in zip(values, values[1:])),
        "g fails to decrease strictly across p = 1.05..1.95",
    )
    # g_scan checks psi at t = g on the arc where psi can go negative; the full scan must agree
    for p in (1.0, 1.25, 1.5, 1.75, nextafter(2.0, 0.0)):
        g, value = kernels.g_scan(p)
        _assert(value == kernels.psi_min(p, g)[0], f"g_scan's check at p={p!r} misses psi_min's")
    return (
        "g hits 1/5, 0, 1 at the landmarks and decreases strictly; its check of psi at g "
        "equals the full scan's at five p"
    )


def _c08_density_agreement(order: int) -> str:
    # W_{p,r} is f_{p,t} at t = 2 - r; the grid's 50 points are x = c(p) i/51
    for p in (F(2), F(3), F(3, 2)):
        for r in (1, 2):
            grid = density_grid(Params.exact(p, 2 - r), 50)
            worst = max(abs(s.value - w_closed(p, r, s.x)) for s in grid)
            _assert(worst <= 1e-10, f"routes deviate by {worst} at (p, r) = ({p}, {r})")
    _assert(w_closed(F(3, 2), 2, 0.3) < 0, "the (3/2, 2) component never goes negative")
    grid = density_grid(Params.exact(F(3, 2), F(1, 5)), 400)
    _assert(
        min(s.value for s in grid) >= -1e-12,
        "critical density dips below -1e-12",
    )
    return "six closed forms match within 1e-10; critical density stays nonnegative"


def _c09_quadrature(order: int) -> str:
    # (p, t, n_max): to n = 40 at p = 7/3, whose affine vs closed check runs past
    # n = 2a - b + 2 = 13, from where the closed product steps
    cells = ((2, F(1, 2), 10), (2, F(4, 3), 10), (3, F(1), 10), (F(3, 2), F(1, 5), 10),
             (F(7, 3), F(1, 5), 40))
    for p, t, n_max in cells:
        params = Params.exact(p, t)
        exact = deformed_table(params, n_max).values
        for n, (value, _) in enumerate(moment_quadrature_full(params, n_max)):
            miss = abs(value / float(exact[n]) - 1.0)
            _assert(miss <= 1e-8, f"moment {n} at ({p}, {t}) off by {miss}")
    # The cumulant-side measures: (case, t, exact moments 0..8, scale).  scale^n times moment n
    # is the exact value; p2 at t = 4/3 under x -> 3x is the measure of the ex1 sequence.
    cases = [
        ("p2", F(4, 3), ex1_table(8).values, 3),
        ("a220910", F(0), a220910_table(8).values, 1),
        ("a022558", F(0), a022558_table(8).values, 1),
    ]
    for p, t in ((2, F(7, 6)), (3, F(3, 5)), (3, F(1)), (3, F(3, 2))):
        r = r_series_closed(p, t, 8)
        cases.append((f"p{p}", t, [F(1)] + [r.coefficient(n) for n in range(1, 9)], 1))
    for case, t, exact, scale in cases:
        support, density = kernels.CUMULANT_MEASURES[case]
        lo, hi = support(float(t))
        for i in range(1, 64):
            x = lo + (hi - lo) * i / 64
            _assert(density(float(t), x) >= 0.0, f"{case} density negative at t = {t}, x = {x}")
        for n in range(9):
            value, err = cumulant_quadrature(case, float(t), n)
            miss = abs(scale**n * value - float(exact[n]))
            _assert(
                miss <= scale**n * err,
                f"{case} moment {n} at t = {t} off by {miss}, beyond its estimate {scale**n * err}",
            )
    return (
        "moments to n = 10, and to n = 40 at (7/3, 1/5), within 1e-8; the p2, p3, a220910 and "
        "a022558 densities are >= 0 at 63 points and match their moments to n = 8 within the "
        "error estimate (float evidence, not a proof)"
    )


def _c10_positivity(order: int) -> str:
    report = hankel_report(catalan_table(18), 10)
    _assert(report.minors == [F(1)] * 10, "Catalan minors are not all 1")
    ts = [F(2) * j / 19 for j in range(20)]
    for i in range(20):
        p = F(1) + F(2) * i / 19
        for t, (theorem, verdict) in zip(ts, classify_row(p, ts, 4)):
            if theorem and verdict == "indefinite":
                raise AssertionError(f"contradiction at (p, t) = ({p}, {t})")
    record = classify_point(Params.exact(2, F(7, 5)), 8)
    _assert(record["hankel"].verdict == "indefinite", "(2, 7/5) not flagged at size 8")
    # a_0 = 1, so the order-2 leading minor is a_2 - a_1^2: at (2, 7/5), an interior cell and a
    # breakdown cell it equals necessary_gap (11/25, 2 and 0)
    for p, t, size in ((2, F(7, 5), 8), (F(5, 2), F(1, 2), 6), (F(3, 2), F(0), 6)):
        params = Params.exact(p, t)
        minor = classify_point(params, size)["hankel"].minors[1]
        _assert(minor == necessary_gap(params), f"({p}, {t}): order-2 minor is not a_2 - a_1^2")
    _assert(infdiv_check(2, F(1, 2), 5).verdict == "indefinite", "(2, 1/2) divisibility")
    for p, t in ((2, F(0)), (2, F(7, 6)), (2, F(4, 3)), (3, F(1)), (3, F(3, 2))):
        _assert(
            infdiv_check(p, t, 5).verdict != "indefinite",
            f"({p}, {t}) wrongly flagged as not divisible",
        )
    return "Catalan minors, 400-cell grid, size-8 detection, order-2 minors, divisibility verdicts"


def _c11_recurrence_and_ode(order: int) -> str:
    values = a220910_table(50).values
    for n in range(2, 51):
        _assert(
            n * values[n] == (8 * n - 34) * values[n - 1] + 24 * (2 * n - 3) * values[n - 2],
            f"three-term recurrence fails at n = {n}",
        )
    m = gf_closed_expand("a220910_gf", 41)
    lhs = (
        TruncSeries.from_coeffs([1, -8, -48], 40) * m.deriv()
        + TruncSeries.from_coeffs([26, -24], 40) * m.truncate(40)
    )
    _assert(lhs == TruncSeries.constant(27, 40), "differential identity fails on the jet")
    return "recurrence exact for n = 2..50; differential identity exact to order 40"


_BUDGETS = {"c1": 1.0, "c7": 5.0, "c9": 30.0}

CRITERIA = (
    ("c1", "integer sequence, four routes", ("exact",), _c01_integer_sequence),
    ("c2", "scaled cumulant sequence, three routes", ("exact",), _c02_scaled_cumulants),
    ("c3", "binomial transform and its generating function", ("exact",), _c03_binomial_transform),
    ("c4", "cumulant polynomials and determinant identity", ("exact",), _c04_cumulant_polynomials),
    ("c5", "generating-function identities", ("exact",), _c05_generating_functions),
    ("c6", "transform consistency", ("exact",), _c06_transform_consistency),
    ("c7", "boundary function g", ("gfun",), _c07_boundary_function),
    ("c8", "density agreement", ("density",), _c08_density_agreement),
    ("c9", "moment and measure quadrature", ("quadrature",), _c09_quadrature),
    ("c10", "positivity classification", ("exact",), _c10_positivity),
    ("c11", "recurrence and differential identity", ("exact",), _c11_recurrence_and_ode),
)


def run_criteria(series_order: int = 16, only: str | None = None) -> list[CriterionResult]:
    """Run the (optionally tag-filtered) criteria and collect timed results."""
    results = []
    for ident, label, tags, func in CRITERIA:
        if only is not None and only not in tags and only != ident:
            continue
        start = time.perf_counter()
        try:
            detail = func(series_order)
            passed = True
        except AssertionError as exc:
            detail = str(exc)
            passed = False
        except InconsistencyError as exc:
            detail = f"internal contradiction: {exc}"
            passed = False
        seconds = time.perf_counter() - start
        budget = _BUDGETS.get(ident)
        if passed and budget is not None and seconds > budget:
            passed = False
            detail = f"exceeded the {budget:.0f} s budget ({seconds:.2f} s)"
        results.append(
            CriterionResult(
                ident=ident,
                label=label,
                tags=tags,
                passed=passed,
                detail=detail,
                seconds=seconds,
            )
        )
    return results


def format_report(results: list[CriterionResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.ident:<4} {r.label}: {r.detail} [{r.seconds:.2f}s]")
    failed = [r.ident for r in results if not r.passed]
    if failed:
        lines.append(f"{len(results) - len(failed)}/{len(results)} passed; failing: " + ", ".join(failed))
    else:
        lines.append(f"{len(results)}/{len(results)} passed")
    return "\n".join(lines)
