"""The ``fussdeform`` command line tool.

Subcommands map one-to-one onto the library layers: ``seq`` prints exact
sequence tables, ``transforms`` prints jets of M, R, and S, ``density`` and
``moments-check`` drive the float layer, ``gfun``/``posdef``/``infdiv``/
``domain-grid`` expose the positivity analysis, and ``verify`` runs the
one-shot verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage error or a float
limit (a value left the float range, a quadrature did not converge), 3
internal contradiction (a cross-check that genuinely failed).  Identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .density import density_grid, moment_quadrature_full
from .errors import FussDeformError, InconsistencyError
from .exact_seq import (
    Params,
    SeqTable,
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

__all__ = ["main", "RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """Validated global options shared by every subcommand."""

    precision: float = 1e-10
    series_order: int = 16
    hankel_size: int = 6
    output_format: str = "csv"
    output_path: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.precision > 0:
            raise ValueError("--tol must be positive")
        if not 1 <= self.series_order <= 64:
            raise ValueError("--series-order must lie in 1..64")
        if not 1 <= self.hankel_size <= 16:
            raise ValueError("--hankel-size must lie in 1..16")
        if self.output_format not in ("csv", "json"):
            raise ValueError("--format must be csv or json")


def _global_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", metavar="PATH", default=None)
    parser.add_argument("--series-order", type=int, default=16, metavar="N")
    parser.add_argument("--hankel-size", type=int, default=6, metavar="M")
    parser.add_argument("--tol", type=float, default=1e-10, metavar="X")


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        precision=args.tol,
        series_order=args.series_order,
        hankel_size=args.hankel_size,
        output_format=args.format,
        output_path=args.out,
    )


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output_path is None:
        sys.stdout.write(text)
    else:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(header: str, rows: list[str]) -> str:
    return "\n".join([header] + rows) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


def _jet_strings(series) -> list[str]:
    return [rational_str(series.coefficient(k)) for k in range(series.order + 1)]


def _cmd_seq(args: argparse.Namespace, cfg: RunConfig) -> int:
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
    _emit(cfg, table.to_csv() if cfg.output_format == "csv" else table.to_json())
    return 0


def _cmd_transforms(args: argparse.Namespace, cfg: RunConfig) -> int:
    params = Params.exact(args.p, args.t)
    p, t = params.p, params.t
    order = cfg.series_order
    moments = moment_series(params, order)
    if args.route == "closed":
        r_jet = r_series_closed(p, t, order)
        s_jet = s_series_closed(params, order - 1)
    else:
        r_jet = cumulant_jet(cumulants_from_moments(moments))
        s_jet = s_series_from_moments(moments)
    if cfg.output_format == "json":
        _emit(
            cfg,
            _json_text(
                {
                    "p": rational_str(p),
                    "t": rational_str(t),
                    "order": order,
                    "route": args.route,
                    "m": _jet_strings(moments),
                    "r": _jet_strings(r_jet),
                    "s": _jet_strings(s_jet),
                }
            ),
        )
    else:
        rows = []
        for name, jet in (("m", moments), ("r", r_jet), ("s", s_jet)):
            for k in range(jet.order + 1):
                rows.append(f"{name},{k},{rational_str(jet.coefficient(k))}")
        _emit(cfg, _csv("transform,n,value", rows))
    return 0


def _cmd_density(args: argparse.Namespace, cfg: RunConfig) -> int:
    params = Params.exact(args.p, args.t)
    if args.grid < 1:
        raise ValueError("--grid must be positive")
    samples = density_grid(params, args.grid, route=args.route)
    if cfg.output_format == "json":
        payload = [
            {"x": s.x, "phi": s.phi, "f": s.value} for s in samples
        ]
        _emit(cfg, _json_text(payload))
    else:
        rows = [
            f"{s.x!r},{'' if s.phi is None else repr(s.phi)},{s.value!r}"
            for s in samples
        ]
        _emit(cfg, _csv("x,phi,f", rows))
    return 0


def _cmd_moments_check(args: argparse.Namespace, cfg: RunConfig) -> int:
    params = Params.exact(args.p, args.t)
    p_str = rational_str(params.p)
    t_str = rational_str(params.t)
    if args.n_max < 0:
        raise ValueError("--n-max must be nonnegative")
    entries = []
    for n in range(args.n_max + 1):
        value, err = moment_quadrature_full(params, n, tol=cfg.precision)
        entries.append({"p": p_str, "t": t_str, "n": n, "value": value, "est_error": err})
    if cfg.output_format == "json":
        _emit(cfg, _json_text(entries))
    else:
        rows = [
            f"{e['p']},{e['t']},{e['n']},{e['value']!r},{e['est_error']!r}"
            for e in entries
        ]
        _emit(cfg, _csv("p,t,n,value,est_error", rows))
    return 0


def _cmd_gfun(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.steps < 1:
        raise ValueError("--steps must be positive")
    if args.p_min < 1:
        raise ValueError("g is defined for p >= 1")
    if args.p_max < args.p_min:
        raise ValueError("--p-max must not be below --p-min")
    points = []
    for i in range(args.steps):
        if args.steps == 1:
            p = args.p_min
        else:
            p = args.p_min + (args.p_max - args.p_min) * i / (args.steps - 1)
        points.append((p, g_of_p(p)))
    if cfg.output_format == "json":
        _emit(cfg, _json_text([{"p": p, "g": g} for p, g in points]))
    else:
        _emit(cfg, _csv("p,g", [f"{p!r},{g!r}" for p, g in points]))
    return 0


def _classify_cell(p: Fraction, t: Fraction, size: int) -> dict:
    record = classify_point(Params.exact(p, t), size)
    return {
        "p": rational_str(p),
        "t": rational_str(t),
        "theorem": record["theorem_verdict"],
        "hankel_verdict": record["hankel"].verdict,
        "minors": [rational_str(m) for m in record["hankel"].minors],
    }


def _cmd_posdef(args: argparse.Namespace, cfg: RunConfig) -> int:
    cell = _classify_cell(parse_rational(args.p), parse_rational(args.t), cfg.hankel_size)
    if cfg.output_format == "json":
        _emit(
            cfg,
            _json_text(
                {
                    "p": cell["p"],
                    "t": cell["t"],
                    "theorem_verdict": cell["theorem"],
                    "hankel": {
                        "size": cfg.hankel_size,
                        "minors": cell["minors"],
                        "verdict": cell["hankel_verdict"],
                    },
                }
            ),
        )
    else:
        row = f"{cell['p']},{cell['t']},{_bool_str(cell['theorem'])},{cell['hankel_verdict']}"
        _emit(cfg, _csv("p,t,theorem,hankel_verdict", [row]))
    return 0


def _cmd_infdiv(args: argparse.Namespace, cfg: RunConfig) -> int:
    p = parse_rational(args.p)
    t = parse_rational(args.t)
    report = infdiv_check(p, t, cfg.hankel_size)
    if cfg.output_format == "json":
        _emit(
            cfg,
            _json_text(
                {
                    "p": rational_str(p),
                    "t": rational_str(t),
                    "size": report.size,
                    "minors": [rational_str(m) for m in report.minors],
                    "verdict": report.verdict,
                }
            ),
        )
    else:
        row = f"{rational_str(p)},{rational_str(t)},{report.verdict}"
        _emit(cfg, _csv("p,t,verdict", [row]))
    return 0


def _cmd_domain_grid(args: argparse.Namespace, cfg: RunConfig) -> int:
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
    records = []
    for i in range(steps):
        p = p_min if steps == 1 else p_min + (p_max - p_min) * i / (steps - 1)
        for j in range(steps):
            t = t_min if steps == 1 else t_min + (t_max - t_min) * j / (steps - 1)
            records.append(_classify_cell(p, t, cfg.hankel_size))
    if cfg.output_format == "json":
        payload = [
            {
                "p": c["p"],
                "t": c["t"],
                "theorem": c["theorem"],
                "hankel_verdict": c["hankel_verdict"],
            }
            for c in records
        ]
        _emit(cfg, _json_text(payload))
    else:
        rows = [
            f"{c['p']},{c['t']},{_bool_str(c['theorem'])},{c['hankel_verdict']}"
            for c in records
        ]
        _emit(cfg, _csv("p,t,theorem,hankel_verdict", rows))
    return 0


def _cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    results = run_criteria(series_order=cfg.series_order, only=args.only)
    if not results:
        raise ValueError(f"--only {args.only!r} matches no criterion")
    if cfg.output_format == "json":
        _emit(cfg, _json_text([asdict(r) for r in results]))
    else:
        _emit(cfg, format_report(results) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fussdeform",
        description="Deformed Fuss sequences, free-probability transforms, "
        "densities, and positivity classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="exact sequence tables")
    seq.add_argument("subject", choices=("a", "raney", "constellation", "a220910", "a022558"))
    seq.add_argument("--p", default=None)
    seq.add_argument("--t", default=None)
    seq.add_argument("--r", default=None)
    seq.add_argument("--n", type=int, default=10, help="last index to print")
    seq.add_argument(
        "--method",
        choices=("recurrence", "closed_a", "closed_b", "cumulant"),
        default="recurrence",
    )
    _global_flags(seq)
    seq.set_defaults(func=_cmd_seq)

    transforms = sub.add_parser("transforms", help="jets of M, R, and S")
    transforms.add_argument("--p", required=True)
    transforms.add_argument("--t", required=True)
    transforms.add_argument("--route", choices=("closed", "moments"), default="moments")
    _global_flags(transforms)
    transforms.set_defaults(func=_cmd_transforms)

    density = sub.add_parser("density", help="density samples on the support")
    density.add_argument("--p", required=True)
    density.add_argument("--t", required=True)
    density.add_argument("--grid", type=int, default=400)
    density.add_argument("--route", choices=("parametric", "closed"), default="parametric")
    _global_flags(density)
    density.set_defaults(func=_cmd_density)

    moments = sub.add_parser("moments-check", help="adaptive quadrature of moments")
    moments.add_argument("--p", required=True)
    moments.add_argument("--t", required=True)
    moments.add_argument("--n-max", type=int, default=10)
    _global_flags(moments)
    moments.set_defaults(func=_cmd_moments_check)

    gfun = sub.add_parser("gfun", help="table of the boundary function g")
    gfun.add_argument("--p-min", type=float, default=1.0)
    gfun.add_argument("--p-max", type=float, default=3.0)
    gfun.add_argument("--steps", type=int, default=21)
    _global_flags(gfun)
    gfun.set_defaults(func=_cmd_gfun)

    posdef = sub.add_parser("posdef", help="classify one (p, t) point")
    posdef.add_argument("--p", required=True)
    posdef.add_argument("--t", required=True)
    _global_flags(posdef)
    posdef.set_defaults(func=_cmd_posdef)

    infdiv = sub.add_parser("infdiv", help="free infinite-divisibility check")
    infdiv.add_argument("--p", required=True)
    infdiv.add_argument("--t", required=True)
    _global_flags(infdiv)
    infdiv.set_defaults(func=_cmd_infdiv)

    grid = sub.add_parser("domain-grid", help="classification over a (p, t) grid")
    grid.add_argument("--p-min", default="1")
    grid.add_argument("--p-max", default="3")
    grid.add_argument("--t-min", default="0")
    grid.add_argument("--t-max", default="2")
    grid.add_argument("--steps", type=int, default=20)
    _global_flags(grid)
    grid.set_defaults(func=_cmd_domain_grid)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--only", default=None, help="tag or identifier filter")
    _global_flags(verify)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config(args)
        return args.func(args, cfg)
    except InconsistencyError as exc:
        print(f"fussdeform: internal contradiction: {exc}", file=sys.stderr)
        return 3
    except OverflowError:
        print("fussdeform: error: a value left the float range", file=sys.stderr)
        return 2
    except (ValueError, TypeError, IndexError, FussDeformError) as exc:
        print(f"fussdeform: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
