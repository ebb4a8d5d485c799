"""The ``fussdeform`` command line tool.

Subcommands map one-to-one onto the library layers: ``seq`` prints exact
sequence tables, ``transforms`` prints jets of M, R, and S, ``density`` and
``moments-check`` drive the float layer, ``gfun``/``posdef``/``infdiv``/
``domain-grid`` expose the positivity analysis, and ``verify`` runs the
one-shot verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage error or a float
limit (a value left the float range: an overflow, or an underflow to zero
that a division then met; a quadrature did not converge), 3 internal
contradiction (a cross-check that genuinely failed).  Identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache
from fractions import Fraction
from typing import Optional

from .density import density_grid, moment_quadrature_full
from .errors import DigitLimitError, FussDeformError, InconsistencyError
from .exact_seq import (
    Params,
    SeqTable,
    _A220910_METHODS,
    a022558_table,
    a220910_table,
    constellation_table,
    deformed_table,
    parse_rational,
    raney,
    rational_str,
)
from .posdef import classify_point, g_of_p, infdiv_check
from .series import (
    cumulant_jet,
    cumulants_from_moments,
    moment_series,
    r_series_closed,
    s_series_closed,
    s_series_from_moments,
)
from .verify import format_report, run_criteria

__all__ = ["main"]

_CELL_HEADER = "p,t,theorem,hankel_verdict"


def _emit(args: argparse.Namespace, header: str, rows: list[str], payload) -> None:
    """Write ``payload`` as JSON or ``header`` and ``rows`` as CSV, to ``--out`` or stdout.

    Only JSON renders the Fractions left in ``payload`` (the Hankel minors).
    """
    if args.format == "json":
        text = json.dumps(payload, indent=2, default=rational_str) + "\n"
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


def _row(record: dict) -> str:
    """A flat record as a CSV row: text as is, booleans as in JSON, None empty, numbers by repr."""
    cells = []
    for value in record.values():
        if isinstance(value, bool):
            value = "true" if value else "false"
        cells.append(value if isinstance(value, str) else "" if value is None else repr(value))
    return ",".join(cells)


def _axis(lo, hi, steps: int) -> list:
    """``steps`` evenly spaced values from ``lo`` to ``hi`` (just ``lo`` for one step)."""
    return [lo if steps == 1 else lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _classify(p: Fraction, t: Fraction, size: int):
    """The ``posdef``/``domain-grid`` record of one (p, t) cell, and its Hankel report."""
    record = classify_point(Params.exact(p, t), size)
    cell = {
        "p": rational_str(p),
        "t": rational_str(t),
        "theorem": record["theorem_verdict"],
        "hankel_verdict": record["hankel"].verdict,
    }
    return cell, record["hankel"]


def _cmd_seq(args: argparse.Namespace) -> int:
    n = args.n
    if n < 0:
        raise ValueError("--n must be nonnegative")
    if args.subject == "a":
        if args.p is None or args.t is None:
            raise ValueError("seq a needs --p and --t")
        table = deformed_table(Params.exact(args.p, args.t), n)
    elif args.subject == "raney":
        if args.p is None or args.r is None:
            raise ValueError("seq raney needs --p and --r")
        p = parse_rational(args.p)
        r = parse_rational(args.r)
        table = SeqTable(
            label=f"raney(p={rational_str(p)};r={rational_str(r)})",
            offset=0,
            values=[raney(p, r, k) for k in range(n + 1)],
        )
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


def _cmd_transforms(args: argparse.Namespace) -> int:
    params = Params.exact(args.p, args.t)
    p, t = params.p, params.t
    order = args.series_order
    moments = moment_series(params, order)
    if args.route == "closed":
        r_jet = r_series_closed(p, t, order)
        s_jet = s_series_closed(params, order - 1)
    else:
        r_jet = cumulant_jet(cumulants_from_moments(moments))
        s_jet = s_series_from_moments(moments)
    jets = {
        name: [rational_str(c) for c in jet.coeffs]
        for name, jet in (("m", moments), ("r", r_jet), ("s", s_jet))
    }
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
    params = Params.exact(args.p, args.t)
    if args.grid < 1:
        raise ValueError("--grid must be positive")
    samples = density_grid(params, args.grid, route=args.route)
    records = [{"x": s.x, "phi": s.phi, "f": s.value} for s in samples]
    _emit(args, "x,phi,f", [_row(r) for r in records], records)
    return 0


def _cmd_moments_check(args: argparse.Namespace) -> int:
    params = Params.exact(args.p, args.t)
    p, t = rational_str(params.p), rational_str(params.t)
    if args.n_max < 0:
        raise ValueError("--n-max must be nonnegative")
    records = []
    for n in range(args.n_max + 1):
        value, err = moment_quadrature_full(params, n, tol=args.tol)
        records.append({"p": p, "t": t, "n": n, "value": value, "est_error": err})
    _emit(args, "p,t,n,value,est_error", [_row(r) for r in records], records)
    return 0


def _cmd_gfun(args: argparse.Namespace) -> int:
    if args.steps < 1:
        raise ValueError("--steps must be positive")
    if args.p_min < 1:
        raise ValueError("g is defined for p >= 1")
    if args.p_max < args.p_min:
        raise ValueError("--p-max must not be below --p-min")
    records = [{"p": p, "g": g_of_p(p)} for p in _axis(args.p_min, args.p_max, args.steps)]
    _emit(args, "p,g", [_row(r) for r in records], records)
    return 0


def _cmd_posdef(args: argparse.Namespace) -> int:
    size = args.hankel_size
    cell, hankel = _classify(parse_rational(args.p), parse_rational(args.t), size)
    payload = {
        "p": cell["p"],
        "t": cell["t"],
        "theorem_verdict": cell["theorem"],
        "hankel": {"size": size, "minors": hankel.minors, "verdict": hankel.verdict},
    }
    _emit(args, _CELL_HEADER, [_row(cell)], payload)
    return 0


def _cmd_infdiv(args: argparse.Namespace) -> int:
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
    cells = [
        _classify(p, t, args.hankel_size)[0]
        for p in _axis(p_min, p_max, steps)
        for t in _axis(t_min, t_max, steps)
    ]
    _emit(args, _CELL_HEADER, [_row(c) for c in cells], cells)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_criteria(series_order=args.series_order, only=args.only)
    if not results:
        raise ValueError(f"--only {args.only!r} matches no criterion")
    # the text report is printed whole, as the CSV header with no rows
    _emit(args, format_report(results), [], [asdict(r) for r in results])
    return 0 if all(r.passed for r in results) else 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Each subcommand lists --p/--t first, then its own flags, then the
    # shared flags; argparse keeps that order in usage lines and --help.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("csv", "json"), default="csv")
    shared.add_argument("--out", metavar="PATH", default=None)
    shared.add_argument("--series-order", type=int, default=16, metavar="N")
    shared.add_argument("--hankel-size", type=int, default=6, metavar="M")
    shared.add_argument("--tol", type=float, default=1e-10, metavar="X")

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
        if not args.tol > 0:
            raise ValueError("--tol must be positive")
        if not 1 <= args.series_order <= 64:
            raise ValueError("--series-order must lie in 1..64")
        if not 1 <= args.hankel_size <= 16:
            raise ValueError("--hankel-size must lie in 1..16")
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
        print(f"fussdeform: error: {exc}; try --format csv or a smaller input", file=sys.stderr)
        return 2
    except (ValueError, TypeError, IndexError, FussDeformError) as exc:
        print(f"fussdeform: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
