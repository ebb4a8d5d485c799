"""The ``fussdeform`` command line tool.

Subcommands map one-to-one onto the library layers: ``seq`` prints exact
sequence tables, ``transforms`` prints jets of M, R, and S, ``density`` and
``moments-check`` drive the float layer, ``gfun``/``posdef``/``infdiv``/
``domain-grid`` expose the positivity analysis, and ``verify`` runs the
one-shot verification suite.

Every subcommand takes ``--format`` and ``--out``.  The flags of one object
of the paper go only to the subcommands that read them: the jet order
``--series-order`` to ``transforms`` and ``verify``, the Hankel section size
``--hankel-size`` to ``posdef``, ``infdiv`` and ``domain-grid``, and the
moment quadrature's tolerance ``--tol`` to ``moments-check``.  Any other
subcommand rejects them as unknown flags.

Only ``errors`` and ``exact_seq``, which every subcommand uses, load with
this module.  Each handler imports the other layers it calls (``series``,
``density``, ``posdef``, ``verify``), so a command loads only those.

Exit codes: 0 success, 1 verification failure, 2 usage error or a float
limit (a value left the float range: an overflow, or an underflow to zero
that a division then met; a quadrature did not converge), 3 internal
contradiction (a cross-check that genuinely failed).  Identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from math import isfinite
from typing import Optional

from .errors import DigitLimitError, FussDeformError, InconsistencyError
from .exact_seq import (
    Params,
    _A220910_METHODS,
    a022558_table,
    a220910_table,
    constellation_table,
    deformed_table,
    parse_rational,
    raney_table,
    rational_str,
)

__all__ = ["main"]

_CELL_HEADER = "p,t,theorem,hankel_verdict"


class _JsonOnlyDigitLimit(DigitLimitError):
    """The JSON payload passed the digit limit in a value its CSV rows leave out."""


def _emit(args: argparse.Namespace, header: str, rows: list[str], payload) -> None:
    """Write ``payload`` as JSON or ``header`` and ``rows`` as CSV, to ``--out`` or stdout.

    Only JSON renders the Fractions left in ``payload`` (the Hankel minors).
    """
    if args.format == "json":
        import json  # loaded on first use: a CSV run never needs it

        try:
            text = json.dumps(payload, indent=2, default=rational_str, allow_nan=False) + "\n"
        except DigitLimitError as exc:  # the CSV rows are rendered already, so CSV would print
            raise _JsonOnlyDigitLimit(exc) from None
        except ValueError:  # JSON has no NaN or infinity
            raise OverflowError("a non-finite value has no JSON form") from None
    else:
        text = "\n".join([header, *rows]) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None


def _cell_row(p: str, t: str, theorem: bool, hankel_verdict: str) -> str:
    """A ``posdef``/``domain-grid`` cell as a CSV row, its theorem verdict spelt as in JSON."""
    return ",".join((p, t, "true" if theorem else "false", hankel_verdict))


def _axis(lo, hi, steps: int) -> list:
    """``steps`` evenly spaced values from ``lo`` to ``hi`` (just ``lo`` for one step)."""
    return [lo if steps == 1 else lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _cmd_seq(args: argparse.Namespace) -> int:
    n = args.n
    if n < 0:
        raise ValueError("--n must be nonnegative")
    # the tables of a, raney and constellation stop at the first value past the digit limit,
    # before the larger ones after it are built
    if args.subject == "a":
        if args.p is None or args.t is None:
            raise ValueError("seq a needs --p and --t")
        table = deformed_table(Params.exact(args.p, args.t), n)
    elif args.subject == "raney":
        if args.p is None or args.r is None:
            raise ValueError("seq raney needs --p and --r")
        table = raney_table(args.p, args.r, n)
    elif args.subject == "constellation":
        if args.p is None:
            raise ValueError("seq constellation needs --p")
        p = parse_rational(args.p)
        if p.denominator != 1:
            raise ValueError("constellations need an integer p")
        if n < 1:
            raise ValueError("constellations start at n = 1")
        table = constellation_table(int(p), n)
    elif args.subject == "a220910":
        table = a220910_table(n, method=args.method)
    else:
        table = a022558_table(n)
    payload = table.to_json_obj()
    rows = [
        f"{table.label},{table.offset},{table.offset + i},{value}"
        for i, value in enumerate(payload["values"])
    ]
    _emit(args, "label,offset,n,value", rows, payload)
    return 0


def _rendered(jet) -> list[str]:
    """The coefficients of the ``TruncSeries`` ``jet`` as text: a jet past the
    digit limit stops the command before the next, larger jet is built."""
    return [rational_str(c) for c in jet.coeffs]


def _cmd_transforms(args: argparse.Namespace) -> int:
    from .series import (
        cumulant_jet,
        cumulants_from_moments,
        moment_series,
        r_series_closed,
        s_series_closed,
        s_series_from_moments,
    )

    params = Params.exact(args.p, args.t)
    p, t = params.p, params.t
    order = args.series_order
    moments = moment_series(params, order)
    jets = {"m": _rendered(moments)}
    if args.route == "closed":
        jets["r"] = _rendered(r_series_closed(p, t, order))
        jets["s"] = _rendered(s_series_closed(params, order - 1))
    else:
        jets["r"] = _rendered(cumulant_jet(cumulants_from_moments(moments)))
        jets["s"] = _rendered(s_series_from_moments(moments))
    rows = [f"{name},{k},{c}" for name, coeffs in jets.items() for k, c in enumerate(coeffs)]
    payload = {
        "p": rational_str(p),
        "t": rational_str(t),
        "order": order,
        "route": args.route,
        **jets,
    }
    _emit(args, "transform,n,value", rows, payload)
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    from .density import density_grid

    params = Params.exact(args.p, args.t)
    if args.grid < 1:
        raise ValueError("--grid must be positive")
    samples = density_grid(params, args.grid, route=args.route)
    if args.format == "json":
        rows, records = [], [{"x": x, "phi": phi, "f": f} for x, phi, f in samples]
    else:
        rows = [f"{x!r},{'' if phi is None else repr(phi)},{f!r}" for x, phi, f in samples]
        records = None
    _emit(args, "x,phi,f", rows, records)
    return 0


def _cmd_moments_check(args: argparse.Namespace) -> int:
    from .density import moment_quadrature_full

    params = Params.exact(args.p, args.t)
    p, t = rational_str(params.p), rational_str(params.t)
    if args.n_max < 0:
        raise ValueError("--n-max must be nonnegative")
    table = moment_quadrature_full(params, args.n_max, tol=args.tol)
    if args.format == "json":
        rows, records = [], [
            {"p": p, "t": t, "n": n, "value": value, "est_error": err}
            for n, (value, err) in enumerate(table)
        ]
    else:
        rows = [f"{p},{t},{n},{value!r},{err!r}" for n, (value, err) in enumerate(table)]
        records = None
    _emit(args, "p,t,n,value,est_error", rows, records)
    return 0


def _cmd_gfun(args: argparse.Namespace) -> int:
    from .posdef import g_of_p

    if args.steps < 1:
        raise ValueError("--steps must be positive")
    if not isfinite(args.p_min):
        raise ValueError("--p-min must be finite")
    if not isfinite(args.p_max):
        raise ValueError("--p-max must be finite")
    if args.p_min < 1:
        raise ValueError("g is defined for p >= 1")
    if args.p_max < args.p_min:
        raise ValueError("--p-max must not be below --p-min")
    axis = _axis(args.p_min, args.p_max, args.steps)
    if not all(map(isfinite, axis)):
        raise OverflowError("the p axis leaves the float range")
    records = [{"p": p, "g": g_of_p(p)} for p in axis]
    _emit(args, "p,g", [f"{r['p']!r},{r['g']!r}" for r in records], records)
    return 0


def _cmd_posdef(args: argparse.Namespace) -> int:
    from .posdef import classify_point

    size = args.hankel_size
    params = Params.exact(args.p, args.t)
    # a CSV row prints no minor, so its elimination stops at the verdict
    record = classify_point(params, size, minors=args.format == "json")
    hankel = record["hankel"]
    payload = {
        "p": rational_str(params.p),
        "t": rational_str(params.t),
        "theorem_verdict": record["theorem_verdict"],
        "hankel": {"size": size, "minors": hankel.minors, "verdict": hankel.verdict},
    }
    row = _cell_row(payload["p"], payload["t"], payload["theorem_verdict"], hankel.verdict)
    _emit(args, _CELL_HEADER, [row], payload)
    return 0


def _cmd_infdiv(args: argparse.Namespace) -> int:
    from .posdef import infdiv_check

    p = parse_rational(args.p)
    t = parse_rational(args.t)
    report = infdiv_check(p, t, args.hankel_size)
    payload = {
        "p": rational_str(p),
        "t": rational_str(t),
        "size": report.size,
        "minors": report.minors,
        "verdict": report.verdict,
    }
    _emit(args, "p,t,verdict", [f"{payload['p']},{payload['t']},{report.verdict}"], payload)
    return 0


def _cmd_domain_grid(args: argparse.Namespace) -> int:
    from .posdef import classify_row

    p_min = parse_rational(args.p_min)
    p_max = parse_rational(args.p_max)
    t_min = parse_rational(args.t_min)
    t_max = parse_rational(args.t_max)
    steps = args.steps
    if steps < 1:
        raise ValueError("--steps must be positive")
    if p_min < 1:
        raise ValueError("the classification covers p >= 1")
    if p_max < p_min or t_max < t_min:
        raise ValueError("ranges must be nondecreasing")
    ts = _axis(t_min, t_max, steps)
    cells = []
    for p in _axis(p_min, p_max, steps):
        # one row of cells at p: its interval and Raney integers are built once
        for t, (theorem, verdict) in zip(ts, classify_row(p, ts, args.hankel_size)):
            cells.append({
                "p": rational_str(p),
                "t": rational_str(t),
                "theorem": theorem,
                "hankel_verdict": verdict,
            })
    _emit(args, _CELL_HEADER, [_cell_row(**c) for c in cells], cells)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import format_report, run_criteria

    results = run_criteria(series_order=args.series_order, only=args.only)
    if not results:
        raise ValueError(f"--only {args.only!r} matches no criterion")
    # the text report is printed whole, as the CSV header with no rows
    _emit(args, format_report(results), [], [r._asdict() for r in results])
    return 0 if all(r.passed for r in results) else 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Each subcommand lists --p/--t first, then its own flags, then the
    # flags every subcommand takes (--format, --out); argparse keeps that
    # order in usage lines and --help.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("csv", "json"), default="csv")
    shared.add_argument("--out", metavar="PATH", default=None)

    commands = {
        "seq": (_cmd_seq, "exact sequence tables"),
        "transforms": (_cmd_transforms, "jets of M, R, and S"),
        "density": (_cmd_density, "density samples on the support"),
        "moments-check": (_cmd_moments_check, "adaptive quadrature of moments"),
        "gfun": (_cmd_gfun, "table of the boundary function g"),
        "posdef": (_cmd_posdef, "classify one (p, t) point"),
        "infdiv": (_cmd_infdiv, "free infinite-divisibility check"),
        "domain-grid": (_cmd_domain_grid, "classification over a (p, t) grid"),
        "verify": (_cmd_verify, "run the verification suite"),
    }
    own = {name: argparse.ArgumentParser(add_help=False) for name in commands}
    for name in ("transforms", "density", "moments-check", "posdef", "infdiv"):
        own[name].add_argument("--p", required=True)
        own[name].add_argument("--t", required=True)

    seq = own["seq"]
    seq.add_argument("subject", choices=("a", "raney", "constellation", "a220910", "a022558"))
    seq.add_argument("--p", default=None)
    seq.add_argument("--t", default=None)
    seq.add_argument("--r", default=None)
    seq.add_argument("--n", type=int, default=10, help="last index to print")
    seq.add_argument("--method", choices=_A220910_METHODS, default="recurrence")
    own["transforms"].add_argument("--route", choices=("closed", "moments"), default="moments")
    own["density"].add_argument("--grid", type=int, default=400)
    own["density"].add_argument("--route", choices=("parametric", "closed"), default="parametric")
    own["moments-check"].add_argument("--n-max", type=int, default=10)
    gfun = own["gfun"]
    gfun.add_argument("--p-min", type=float, default=1.0)
    gfun.add_argument("--p-max", type=float, default=3.0)
    gfun.add_argument("--steps", type=int, default=21)
    grid = own["domain-grid"]
    grid.add_argument("--p-min", default="1")
    grid.add_argument("--p-max", default="3")
    grid.add_argument("--t-min", default="0")
    grid.add_argument("--t-max", default="2")
    grid.add_argument("--steps", type=int, default=20)
    own["verify"].add_argument("--only", default=None, help="tag or identifier filter")
    for name in ("transforms", "verify"):
        own[name].add_argument("--series-order", type=int, default=16, metavar="N")
    for name in ("posdef", "infdiv", "domain-grid"):
        own[name].add_argument("--hankel-size", type=int, default=6, metavar="M")
    own["moments-check"].add_argument("--tol", type=float, default=1e-10, metavar="X")

    parser = argparse.ArgumentParser(
        prog="fussdeform",
        description="Deformed Fuss sequences, free-probability transforms, "
        "densities, and positivity classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in commands.items():
        sub.add_parser(name, help=help_text, parents=[own[name], shared]).set_defaults(func=func)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a subcommand's namespace holds only the flags it takes
        if "series_order" in args and not 1 <= args.series_order <= 64:
            raise ValueError("--series-order must lie in 1..64")
        if "hankel_size" in args and not 1 <= args.hankel_size <= 16:
            raise ValueError("--hankel-size must lie in 1..16")
        if "tol" in args and not args.tol > 0:
            raise ValueError("--tol must be positive")
        return args.func(args)
    except InconsistencyError as exc:
        print(f"fussdeform: internal contradiction: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, ZeroDivisionError):
        # exact paths check pivots, jet constant terms and t = 2 before they
        # divide, so a division by zero here is a float that underflowed to 0
        print("fussdeform: error: a value left the float range", file=sys.stderr)
        return 2
    except DigitLimitError as exc:
        csv = "--format csv or " if isinstance(exc, _JsonOnlyDigitLimit) else ""
        print(f"fussdeform: error: {exc}; try {csv}a smaller input", file=sys.stderr)
        return 2
    except (ValueError, TypeError, IndexError, FussDeformError) as exc:
        print(f"fussdeform: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
