"""The one test module that reaches fussdeform's private mechanisms.

The tests plant faults in the helpers that the two sides of a cross-check share, count the
calls of kernels and helpers, override the kernels' settings and call a few helpers as units.
Each private name they need is reached from here, through a seam: a stable name that
``SEAMS`` maps to a module of the package and an attribute of it.  A seam resolves when it is
used, as ``seams.<seam>``, through ``plant``, ``record`` or ``override``, or through the
``kernels`` handle, so a rename under ``src/`` that the table misses fails
``test_every_seam_resolves`` and the tests that use that seam, and no test module's import.
Renaming a private helper is then one edit of the table.  Every other test module imports what
it needs from here, and a guard in ``test_repo`` fails on a private name it reaches itself.

To add a seam, add its row to ``SEAMS`` and use it as ``seams.<seam>``.  Public functions that
tests plant faults in or count have rows too, since ``plant`` and ``record`` take a seam.
"""

import cmath
import importlib
import inspect
import sys
from fractions import Fraction
from functools import partial

# the private modules of the package: one defines the float kernels, the other binds them under
# the name ``kernels`` in each module that calls them
KERNELS_MODULE = "_kernels_py"
BACKEND_MODULE = "_backend"

# seam: (module under fussdeform, attribute)
SEAMS = {
    # the float kernels: the handle the package calls them through, their private helpers and
    # settings, and the public kernels the tests plant faults in or count
    "kernels": (BACKEND_MODULE, "kernels"),
    "adaptive": (KERNELS_MODULE, "_adaptive"),
    "first_panels": (KERNELS_MODULE, "_first_panels"),
    "golden": (KERNELS_MODULE, "_golden"),
    "moment_panel": (KERNELS_MODULE, "_moment_panel"),
    "moment_sums": (KERNELS_MODULE, "_moment_sums"),
    "newton": (KERNELS_MODULE, "_newton"),
    "node": (KERNELS_MODULE, "_node"),
    "psi_scan": (KERNELS_MODULE, "_psi_scan"),
    "t_bound": (KERNELS_MODULE, "_t_bound"),
    "EPS": (KERNELS_MODULE, "_EPS"),
    "FEAS_TOL": (KERNELS_MODULE, "_FEAS_TOL"),
    "HALVINGS": (KERNELS_MODULE, "_HALVINGS"),
    "INIT_PANELS": (KERNELS_MODULE, "_INIT_PANELS"),
    "MAX_PANELS": (KERNELS_MODULE, "_MAX_PANELS"),
    "NEWTON_TOL": (KERNELS_MODULE, "_NEWTON_TOL"),
    "PSI_GRID": (KERNELS_MODULE, "_PSI_GRID"),
    "RESABS": (KERNELS_MODULE, "_RESABS"),
    "RETIRE": (KERNELS_MODULE, "_RETIRE"),
    "WG": (KERNELS_MODULE, "_WG"),
    "WGK": (KERNELS_MODULE, "_WGK"),
    "g_scan": (KERNELS_MODULE, "g_scan"),
    "mass": (KERNELS_MODULE, "mass"),
    "moment_quad": (KERNELS_MODULE, "moment_quad"),
    "psi": (KERNELS_MODULE, "psi"),
    "rho": (KERNELS_MODULE, "rho"),
    "rho_bisect": (KERNELS_MODULE, "rho_bisect"),
    # density
    "samples": ("density", "_samples"),
    "cumulant_quadrature": ("density", "cumulant_quadrature"),
    # exact_seq
    "A220910_METHODS": ("exact_seq", "_A220910_METHODS"),
    "a220910_closed_a": ("exact_seq", "_a220910_closed_a"),
    "a220910_closed_b": ("exact_seq", "_a220910_closed_b"),
    "a220910_step": ("exact_seq", "_a220910_step"),
    "affine": ("exact_seq", "_affine"),
    "cleared": ("exact_seq", "_cleared"),
    "closed_step": ("exact_seq", "_closed_step"),
    "constellation_parts": ("exact_seq", "_constellation_parts"),
    "deformed_closed_parts": ("exact_seq", "_deformed_closed_parts"),
    "deformed_parts": ("exact_seq", "_deformed_parts"),
    "fuss_parts": ("exact_seq", "_fuss_parts"),
    "fuss_terms": ("exact_seq", "_fuss_terms"),
    "raney_num": ("exact_seq", "_raney_num"),
    "raney_nums": ("exact_seq", "_raney_nums"),
    "raney_run": ("exact_seq", "_raney_run"),
    "raney_step": ("exact_seq", "_raney_step"),
    # series
    "conv": ("series", "_conv"),
    "GF": ("series", "_GF"),
    "radical_jet": ("series", "_radical_jet"),
    "r_lists": ("series", "_r_lists"),
    "rescale": ("series", "_rescale"),
    "running_sum": ("series", "_running_sum"),
    "scaled": ("series", "_scaled"),
    "sqrt_ints": ("series", "_sqrt_ints"),
    "compose": ("series", "compose"),
    "cumulants_from_moments": ("series", "cumulants_from_moments"),
    "moment_series": ("series", "moment_series"),
    "r_series_closed": ("series", "r_series_closed"),
    "revert": ("series", "revert"),
    "s_series_from_moments": ("series", "s_series_from_moments"),
    # posdef
    "pivots": ("posdef", "_pivots"),
    "hankel_report": ("posdef", "hankel_report"),
    # cli
    "build_parser": ("cli", "_build_parser"),
    "emit": ("cli", "_emit"),
    # verify
    "BUDGETS": ("verify", "_BUDGETS"),
}


def resolve(seam):
    """The object behind seam, looked up now."""
    module, attr = SEAMS[seam]
    name = f"fussdeform.{module}"
    return getattr(sys.modules.get(name) or importlib.import_module(name), attr)


def __getattr__(name):
    if name in SEAMS:
        return resolve(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Kernels:
    """The float kernels, as the package calls them, looked up on each attribute read."""

    def __getattr__(self, name):
        return getattr(resolve("kernels"), name)


kernels = _Kernels()


def plant(monkeypatch, seam, fault):
    """Replace the object behind seam by fault(real), in every fussdeform module that binds it,
    for the rest of the test; returns real."""
    _, attr = SEAMS[seam]
    real = resolve(seam)
    planted = fault(real)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fussdeform" and vars(module).get(attr) is real:
            monkeypatch.setattr(module, attr, planted)
    return real


def record(monkeypatch, seam):
    """The positional arguments of every call of the function behind seam from here on, in order;
    each call still runs the function."""
    calls = []
    plant(
        monkeypatch,
        seam,
        lambda real: lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs),
    )
    return calls


def override(monkeypatch, seam, value):
    """Set the constant behind seam to value for the rest of the test."""
    plant(monkeypatch, seam, lambda real: value)


def complex_powers(p, xs):
    """The roots of rho_bisect(p, xs) and the powers B^p it took, counted as the times a line of
    the Newton step or of rho_bisect that raises to the power p runs."""
    lines = {}
    for function in (resolve("newton"), kernels.rho_bisect):
        source, first = inspect.getsourcelines(function)
        lines[function.__code__] = {first + i for i, text in enumerate(source) if "**p" in text}
    powers = 0

    def in_kernel(frame, event, arg):
        nonlocal powers
        powers += event == "line" and frame.f_lineno in lines[frame.f_code]
        return in_kernel

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_kernel if frame.f_code in lines else None)
    try:
        roots = kernels.rho_bisect(p, xs)
    finally:
        sys.settrace(previous)
    return roots, powers


# -- the planted faults ------------------------------------------------------------------------


def _bumped(values, index):
    """values with 1 added to entry index, where there is one."""
    return [v + (i == index) for i, v in enumerate(values)]


def _cleared_with_numerator_7_bumped(real):
    def cleared(pairs, s):
        nums, den = real(pairs, s)
        return _bumped(nums, 7), den

    return cleared


def _top_factor_off_by_one(real):
    def step(num, new, dropped):
        return real(num, new, dropped) // new[0] * (new[0] + 1)

    return step


def _pivots_with_pivot_3_flipped(real):
    def pivots(b):
        for k, (pivot, verdict) in enumerate(real(b)):
            yield (-pivot if k == 3 and pivot else pivot), verdict

    return pivots


def _node_with_weight_scaled(real):
    def node(p, t, phi):
        x, weight = real(p, t, phi)
        return x, weight * (1.0 + 1e-7)

    return node


def _sums_with_value_scaled(real):
    def sums(row):
        real(row)
        row[0] *= 1.0 + 1e-7  # slot 0 of a panel's row is its value

    return sums


# (seam, the fault planted in it, the verify criteria that then fail, the FAULT_COMMANDS that
# then exit 3): one fault in each mechanism that two sides of a cross-check share, or that a
# float check reads
PLANTED_FAULTS = [
    # the closed R jets and the generating functions neither convolve nor clear (their radical
    # is _sqrt_ints, their quotient _quotient): c1 reads jets only through them, and c3 and c9
    # clear denominators elsewhere but convolve only there
    ("conv", lambda real: lambda a, b, n: _bumped(real(a, b, n), 9),
     "c2 c5 c6 c10 c11", "transforms infdiv-2 infdiv-3"),
    ("cleared", _cleared_with_numerator_7_bumped, "c2 c3 c5 c6 c9 c10 c11",
     "transforms infdiv-2 infdiv-3 domain-grid"),
    # the integer radical under every closed R jet and generating function, F_3 off by one
    ("sqrt_ints", lambda real: lambda qw, n: _bumped(real(qw, n), 3),
     "c1 c2 c3 c4 c6 c9 c10 c11", "infdiv-2 infdiv-3"),
    # n = 4 is a direct product at every p the commands use (p = 2 steps from n = 5 on), and
    # each later n of its residue class steps from it
    ("raney_num", lambda real: lambda p, r, n: real(p, r, n) + (n == 4),
     "c2 c5 c6 c9 c10", "transforms infdiv-2 infdiv-3 posdef domain-grid seq-a"),
    # the steps of a run, one new factor off by one (c5 reads each B_p^r jet as one run); among
    # the criteria only c9 reads a_n where the closed product steps (to n = 40 at p = 7/3), and
    # among the commands seq a
    ("raney_step", _top_factor_off_by_one, "c2 c5 c6 c9 c10",
     "transforms infdiv-2 infdiv-3 posdef domain-grid seq-a"),
    ("closed_step", _top_factor_off_by_one, "c9", "seq-a"),
    ("pivots", _pivots_with_pivot_3_flipped, "c10", ""),
    ("rho_bisect",
     lambda real: lambda p, xs: [(b * cmath.rect(1.0, 1e-9), phi + 1e-9) for b, phi in real(p, xs)],
     "c8", ""),
    ("mass", lambda real: lambda t, b: real(t, b) * (1.0 + 1e-8), "c8 c9", ""),
    ("node", _node_with_weight_scaled, "c9", ""),
    # the one panel sum of both quadratures; moments-check prints its moments without comparing
    # them with the exact a_n, so no command sees the fault
    ("moment_sums", _sums_with_value_scaled, "c9", ""),
]

# one command of each computing path, by label; without a fault each exits 0
FAULT_COMMANDS = {
    "transforms": "transforms --p 5/2 --t 1/3",
    "infdiv-2": "infdiv --p 2 --t 4/3",
    "infdiv-3": "infdiv --p 3 --t 1/2",
    "posdef": "posdef --p 3/2 --t 1/2",
    "domain-grid": "domain-grid --steps 3",
    "seq-a": "seq a --p 5/2 --t 1/3 --n 12",
    "density": "density --p 5/2 --t 1/2 --grid 5",
    "moments-check": "moments-check --p 5/2 --t 1/2 --n-max 4",
    "gfun": "gfun --steps 3",
}

# -- the cross-check ledger --------------------------------------------------------------------


def cross_check_sides():
    """Each independent-route cross-check: its label, the entry call of each side, and the
    ledger, the package functions that two of its sides may both reach (their comprehensions
    counted as the function).  Growing a ledger entry is a decision with a reason."""
    from fussdeform import exact_seq, posdef, series
    from fussdeform.exact_seq import Params

    def infdiv_side(route):
        # infdiv_check's two sides at p = 2 and 3, to order 8 (Hankel size 4)
        cases = [(Fraction(2), Fraction(4, 3)), (Fraction(3), Fraction(1, 2))]
        if route == "moments":
            return lambda: [
                series.cumulants_from_moments(series.moment_series(Params.exact(p, t), 8))
                for p, t in cases
            ]
        return lambda: [series.r_series_closed(p, t, 8) for p, t in cases]

    # n < 40 at p = 5/2: the Raney numerators step from n = 10 on, the closed product from 11
    p, t, ns = Fraction(5, 2), Fraction(1, 3), range(40)
    cell = Params.exact(Fraction(3, 2), Fraction(1, 2))
    c6 = [Params.exact(Fraction(*p), Fraction(*t)) for p, t in (
        ((2, 1), (1, 2)), ((2, 1), (1, 1)), ((2, 1), (4, 3)),
        ((3, 1), (1, 1)), ((3, 1), (3, 2)), ((3, 2), (1, 5)),
    )]
    jet = {"series._conv", "series._scaled", "series._span", "exact_seq._cleared",
           "exact_seq.parse_rational", "series.TruncSeries.__init__",
           "series.TruncSeries.from_coeffs", "series.TruncSeries.order"}
    return [
        ("a_n affine vs closed", [
            lambda: exact_seq._affine(exact_seq._fuss_terms(p, ns), t),
            lambda: exact_seq._deformed_closed_parts(p, t, ns),
        ], set()),
        # the direct count steps its product by its own code, b = 1
        ("C_p(n) direct vs deformed-family route", [
            lambda: exact_seq._constellation_parts(3, ns[1:]),
            lambda: exact_seq._deformed_parts(3, Fraction(3, 2), ns[1:]),
        ], set()),
        ("theorem interval vs hankel_report", [
            lambda: posdef.theorem_interval(cell.p),
            lambda: posdef.hankel_report(exact_seq.deformed_table(cell, 8), 5),
        ], set()),
        # the B_p^2 check is an identity on one set of Raney integers, not two routes
        ("B_p^2 product vs Raney formula", [
            lambda: exact_seq._raney_nums(p, 1, ns[1:]),
            lambda: exact_seq._raney_nums(p, 2, ns[1:]),
        ], {"exact_seq._raney_nums", "exact_seq._raney_num", "exact_seq._raney_step"}),
        # the jet quotient, the moment side's w / v(w) and the closed side's division by its
        # denominator: a Lagrange route to the cumulants would share none of it
        ("infdiv reverted moments vs closed R", [infdiv_side("moments"), infdiv_side("closed")],
         {"series._quotient", "series._running_sum", "series._span", "series._split",
          "exact_seq.parse_rational", "series.TruncSeries.__init__"}),
        # the jet product; M - 1 is read off m's coefficients, not built by jet subtraction
        ("verify c6 S from moments vs closed S", [
            lambda: [series.s_series_from_moments(series.moment_series(q, 16)) for q in c6],
            lambda: [series.s_series_closed(q, 15) for q in c6],
        ], jet | {"series.TruncSeries.__mul__"}),
        # the table plumbing only
        ("A220910 routes",
         [partial(exact_seq.a220910_table, 20, method) for method in exact_seq._A220910_METHODS],
         {"exact_seq.a220910_table", "exact_seq.SeqTable.__init__", "exact_seq.parse_rational"}),
    ]


# The public functions no command or cross-check reaches, each with the reason it stays.  The
# benchmark's layer tracer wraps every one by name, so each goes only once the tracer's table no
# longer names it.
UNREACHED = {
    "kernels.psi_forms": "the three writings of psi, whose agreement is a float check",
    "posdef.psi_min": "the range-checked minimum of psi that the landmark tests read",
    "density.moment_quadrature": "one moment, entry n of moment_quadrature_full",
    "exact_seq.raney": "a single-value library convenience over the stepped run bp_series reads",
    "exact_seq.constellation_count": "a single-value library convenience over constellation_table",
    "exact_seq.a220910": "a single-value library convenience over a220910_table",
}
