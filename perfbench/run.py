"""fussdeform benchmark: seeded CLI command streams, end to end and per layer.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload jets --seed 1 --seconds 30 --trace 0

Each workload is a closed loop of ``fussdeform`` commands run in-process
through ``fussdeform.cli.main``: one client, one process, no threads, each
command starting when the previous one has returned.  Commands come in blocks
of 100 (see ``streams.py``); a run executes blocks until their timed regions
have spent ``--seconds``, at least one.  Every command is checked after the
timed region.

``--trace 0`` reports the end-to-end metrics.  Their times are scaled to a
reference speed of the host (``refclock.py``): on a shared host the same work
can run 15-25% slower for tens of seconds, which would swamp any real change.  The
raw times are in the full record.  ``--trace 1`` runs one block
untraced and the next one traced, and reports the per-layer metrics of the
traced block (``layertrace.py``) plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
(``result: {...}``) carries the full record: run metadata, every metric with
its unit, failure counts and the sha256 of each block's concatenated output.
``--out FILE`` merges that record into a JSON file keyed by workload;

    python3 perfbench/run.py --compare BASE.json NEW.json

prints every metric of every workload in both files with the ratio NEW/BASE.

Seeds: 1 is the default; 9173 is held out -- do not tune against it, so a
claim made on seed 1 can be rechecked on inputs nobody has looked at.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from layertrace import LAYERS, LayerTracer
from refclock import NOMINAL_S, reference_time
from streams import KNOWN_DEFECTS, WORKLOADS, Checker, make_block

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1  # 9173 is the held-out seed (see the module docstring)
MAX_BLOCKS = 8  # bounds the pool of distinct p values one run may need
SETUP_REPEATS = 7

END_TO_END = {
    "wall_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Reported in the full record.  fail_frac is 0 on every workload, so it is not
# a bounded end-to-end metric (the contract line carries attempted/failed).
# raw_* are the unscaled times behind the end-to-end metrics, ref_ms the
# median time of the reference task (refclock.py).
EXTRA = {
    "fail_frac": "ratio", "cmd_samples": "count", "raw_wall_s": "s", "raw_cmd_p50_ms": "ms",
    "raw_cmd_p90_ms": "ms", "raw_setup_s": "s", "ref_ms": "ms",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS if layer != "cli"},
    "series.mul_calls": "count", "series.mul_s": "s",
    "series.revert_calls": "count", "series.revert_s": "s",
    "series.compose_calls": "count", "series.compose_s": "s",
    "series.pow_calls": "count", "series.max_order": "count", "series.max_coeff_bits": "bits",
    "posdef.hankel_calls": "count", "posdef.hankel_s": "s", "posdef.max_hankel_size": "count",
    "posdef.g_calls": "count", "posdef.g_s": "s", "posdef.g_hit_ratio": "ratio",
    "exact_seq.terms": "count", "exact_seq.max_term_bits": "bits",
    "density.points": "count", "density.quad_calls": "count", "density.rho_scan_hit_ratio": "ratio",
    "kernels.psi_min_calls": "count", "kernels.psi_min_s": "s",
    "kernels.rho_bisect_calls": "count", "kernels.rho_bisect_s": "s",
    "kernels.quad_calls": "count", "kernels.quad_s": "s",
    "cli.out_bytes": "bytes",
    "trace.wall_s": "s", "trace.overhead_frac": "ratio",
}


class HarnessError(Exception):
    """The benchmark cannot run here (no program, wrong environment)."""


def load_program():
    """Import fussdeform and its CLI from ``src/`` of this checkout, nowhere else."""
    if os.environ.get("FUSS_DEFORM_THREADS"):
        raise HarnessError("FUSS_DEFORM_THREADS must be unset: the benchmark is one closed-loop client")
    sys.path.insert(0, str(SRC))
    import fussdeform
    import fussdeform.cli

    if SRC not in Path(fussdeform.__file__).resolve().parents:
        raise HarnessError(f"imported fussdeform from {fussdeform.__file__}, not from {SRC}")
    return fussdeform


def measure_setup() -> tuple[float, float]:
    """Median time to import fussdeform and fussdeform.cli in a fresh interpreter.

    Returns (scaled, raw).  Each interpreter also times the reference task
    after the import, and scales its import time by it.
    """
    code = (
        "import statistics, sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "t = time.perf_counter()\n"
        "import fussdeform, fussdeform.cli\n"
        "took = time.perf_counter() - t\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "from refclock import reference_time\n"
        "print(took, statistics.median(reference_time() for _ in range(5)))\n"
    )
    raw, scaled = [], []
    for i in range(SETUP_REPEATS + 1):  # the first one warms the bytecode cache
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise HarnessError(f"import in a fresh interpreter failed: {done.stderr.strip()}")
        if i:
            took, ref = map(float, done.stdout.split())
            raw.append(took)
            scaled.append(took * NOMINAL_S / ref)
    return statistics.median(scaled), statistics.median(raw)


def git_sha():
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_block(cmds, cli_main, checker, tracer=None) -> dict:
    """Run one block closed-loop, then check every output outside the timed region.

    The reference task runs before the first command and after each one.  A
    command's scaled latency uses the mean reference time of the ten samples
    around it: the host slows down in bursts shorter than that window, and a
    median would skip the bursts the command itself met.
    """
    latencies, results = [], []
    timed_from = perf_counter()
    refs = [reference_time()]
    if tracer is not None:
        tracer.active = True
    for cmd in cmds:
        out, err = io.StringIO(), io.StringIO()
        began = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(cmd.argv)
        except (Exception, SystemExit) as exc:  # a traceback is a failed command, not a harness error
            code = type(exc).__name__
        latencies.append(perf_counter() - began)
        results.append((cmd, code, out.getvalue()))
        refs.append(reference_time())
    if tracer is not None:
        tracer.active = False
    timed = perf_counter() - timed_from
    scaled = [
        lat * NOMINAL_S / statistics.fmean(refs[max(0, i - 4): i + 6]) for i, lat in enumerate(latencies)
    ]

    checked = perf_counter()
    digest = hashlib.sha256()
    outcomes: Counter = Counter()
    bad_checks = []
    out_bytes = 0
    for cmd, code, text in results:
        data = text.encode()
        digest.update(data)
        out_bytes += len(data)
        if code != 0:
            outcomes[f"{cmd.kind}:exit {code}"] += 1
            continue
        try:
            checker(cmd, text)
        except (ValueError, ArithmeticError) as exc:
            outcomes[f"{cmd.kind}:check"] += 1
            bad_checks.append(f"{' '.join(cmd.argv)}: {exc}")
            continue
        outcomes[f"{cmd.kind}:ok"] += 1
    return {
        "wall": sum(scaled),
        "raw_wall": sum(latencies),
        "timed": timed,
        "ref": statistics.median(refs),
        "check_s": perf_counter() - checked,
        "latencies": scaled,
        "raw_latencies": latencies,
        "failed": sum(v for k, v in outcomes.items() if not k.endswith(":ok")),
        "outcomes": outcomes,
        "bad_checks": bad_checks,
        "sha256": digest.hexdigest(),
        "out_bytes": out_bytes,
    }


def probe_known_defects(workload: str, cli_main) -> dict:
    """Run the workload's ``KNOWN_DEFECTS`` commands once, untimed; map each name to its outcome."""
    outcomes = {}
    for name, argv in KNOWN_DEFECTS.get(workload, {}).items():
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(argv)
        except (Exception, SystemExit) as exc:
            code = type(exc).__name__
        outcomes[name] = {"argv": " ".join(argv), "outcome": "ok" if code == 0 else f"exit {code}"}
    return outcomes


def _cache_counts(module, name: str) -> tuple[int, int]:
    """(hits, misses) of a memo cache of the program; (0, 0) once it has none."""
    cached = getattr(module, name, None)
    if not hasattr(cached, "cache_info"):
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses


def _hit_ratio(before, after) -> float:
    hits, misses = after[0] - before[0], after[1] - before[1]
    return hits / (hits + misses) if hits + misses else 0.0


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(blocks, setup_s: float, prefix: str = "", key: str = "") -> dict:
    """The end-to-end metrics from scaled times, or from raw ones with ``key="raw_"``."""
    latencies = [x for b in blocks for x in b[f"{key}latencies"]]
    return {
        f"{prefix}wall_s": statistics.median(b[f"{key}wall"] for b in blocks),
        f"{prefix}cmd_p50_ms": 1000 * statistics.median(latencies),
        f"{prefix}cmd_p90_ms": 1000 * nearest_rank(latencies, 0.9),
        f"{prefix}setup_s": setup_s,
    }


def per_layer(tracer: LayerTracer, block: dict, untraced_wall: float, g_ratio, scan_ratio) -> dict:
    """Per-layer metrics of the traced block; its times are scaled by the block's mean factor."""
    scale = block["wall"] / block["raw_wall"]
    m = {f"{layer}.self_s": scale * tracer.self_s[layer] for layer in LAYERS}
    m.update({f"{layer}.calls": tracer.calls[layer] for layer in LAYERS if layer != "cli"})
    for name, (layer, op) in {
        "series.mul": ("series", "mul"), "series.revert": ("series", "revert"),
        "series.compose": ("series", "compose"), "posdef.hankel": ("posdef", "hankel"),
        "posdef.g": ("posdef", "g"), "kernels.psi_min": ("kernels", "psi_min"),
        "kernels.rho_bisect": ("kernels", "rho_bisect"), "kernels.quad": ("kernels", "quad"),
    }.items():
        calls, seconds = tracer.op(layer, op)
        m[f"{name}_calls"], m[f"{name}_s"] = calls, scale * seconds
    m["series.pow_calls"] = tracer.op("series", "pow")[0]
    m["density.quad_calls"] = tracer.op("density", "quad")[0]
    for name in ("series.max_order", "series.max_coeff_bits", "posdef.max_hankel_size",
                 "exact_seq.terms", "exact_seq.max_term_bits", "density.points"):
        m[name] = tracer.sizes[name]
    m["posdef.g_hit_ratio"] = g_ratio
    m["density.rho_scan_hit_ratio"] = scan_ratio
    m["cli.out_bytes"] = block["out_bytes"]
    m["trace.wall_s"] = block["wall"]
    m["trace.overhead_frac"] = block["wall"] / untraced_wall - 1
    return m


def run(args) -> dict:
    if not (SRC / "fussdeform" / "__init__.py").is_file():
        raise HarnessError(f"no fussdeform package under {SRC}")
    setup_s, raw_setup_s = measure_setup() if args.trace == 0 else (None, None)
    fd = load_program()
    cli_main = fd.cli.main
    checker = Checker(fd)
    used: set = set()
    blocks = []
    if args.trace == 0:
        while True:
            cmds = make_block(args.workload, args.seed, len(blocks), used, args.commands)
            blocks.append(run_block(cmds, cli_main, checker))
            spent = sum(b["timed"] for b in blocks)
            if len(blocks) >= MAX_BLOCKS or spent * (len(blocks) + 1) / len(blocks) > args.seconds:
                break
        metrics = end_to_end(blocks, setup_s)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        known_defects = probe_known_defects(args.workload, cli_main)
    else:
        known_defects = None
        untraced = run_block(make_block(args.workload, args.seed, 0, used, args.commands), cli_main, checker)
        blocks.append(untraced)
        tracer = LayerTracer()
        tracer.install(fd)
        traced_main = tracer.wrap("cli", "main", cli_main)
        g_before, scan_before = _cache_counts(fd.posdef, "_g_cached"), _cache_counts(fd.density, "_rho_scan")
        try:
            cmds = make_block(args.workload, args.seed, 1, used, args.commands)
            traced = run_block(cmds, traced_main, checker, tracer)
        finally:
            tracer.uninstall()
        blocks.append(traced)
        metrics = per_layer(
            tracer, traced, untraced["wall"],
            _hit_ratio(g_before, _cache_counts(fd.posdef, "_g_cached")),
            _hit_ratio(scan_before, _cache_counts(fd.density, "_rho_scan")),
        )

    attempted = sum(len(b["latencies"]) for b in blocks)
    failed = sum(b["failed"] for b in blocks)
    units = {**END_TO_END, **PER_LAYER, **EXTRA}
    extra = {"fail_frac": failed / attempted, "cmd_samples": attempted}
    if args.trace == 0:
        extra.update(end_to_end(blocks, raw_setup_s, prefix="raw_", key="raw_"))
    extra["ref_ms"] = 1000 * statistics.median(b["ref"] for b in blocks)
    outcomes = sum((b["outcomes"] for b in blocks), Counter())
    return {
        "workload": args.workload,
        "trace": args.trace,
        "meta": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "backend": fd.backend_name,
            "nproc": os.cpu_count(),
            "threads": os.environ.get("FUSS_DEFORM_THREADS") or "unset",
            "seed": args.seed,
            "seconds": args.seconds,
            "commands_per_block": args.commands,
        },
        "correct": not any(b["bad_checks"] for b in blocks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": {k: {"value": v, "unit": units[k]} for k, v in extra.items()},
        "blocks": [
            {"wall_s": b["wall"], "raw_wall_s": b["raw_wall"], "check_s": b["check_s"],
             "commands": len(b["latencies"]), "sha256": b["sha256"]}
            for b in blocks
        ],
        "outcomes": dict(sorted(outcomes.items())),
        "bad_checks": [msg for b in blocks for msg in b["bad_checks"]][:20],
        "est_error_exceeded": checker.est_error_exceeded,
        "known_defects": known_defects,
    }


def merge_into(path: Path, record: dict) -> None:
    """Add a run's metrics to a result file holding one entry per workload."""
    data = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    entry = data["workloads"].setdefault(record["workload"], {"metrics": {}})
    entry["metrics"].update(record["metrics"])
    entry["metrics"].update(record["extra"])
    entry[f"trace{record['trace']}"] = {k: v for k, v in record.items() if k not in ("metrics", "extra")}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _cell(value, width: int, spec: str) -> str:
    return f"{'-':>{width}}" if value is None else f"{value:{width}{spec}}"


def compare(base_path: str, new_path: str) -> None:
    base = json.loads(Path(base_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    print(f"ratio = NEW / BASE; BASE = {base_path}, NEW = {new_path}")
    print(f"{'workload':<12} {'metric':<28} {'unit':<6} {'BASE':>14} {'NEW':>14} {'ratio':>8}")
    for workload in WORKLOADS:
        b = base.get(workload, {}).get("metrics", {})
        n = new.get(workload, {}).get("metrics", {})
        for name in sorted(set(b) | set(n)):
            bv = b.get(name, {}).get("value")
            nv = n.get(name, {}).get("value")
            unit = (b.get(name) or n.get(name))["unit"]
            ratio = nv / bv if bv and nv is not None else None
            print(f"{workload:<12} {name:<28} {unit:<6} {_cell(bv, 14, '.6g')} {_cell(nv, 14, '.6g')} {_cell(ratio, 8, '.3f')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--commands", type=int, default=100, help="commands per block (100 for real runs)")
    parser.add_argument("--out", type=Path, default=None, help="merge the full record into this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1 or args.commands < 1:
        parser.error("--seconds and --commands must be positive")
    try:
        record = run(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        merge_into(args.out, record)
    width = max(map(len, record["metrics"]))
    for name, m in {**record["metrics"], **record["extra"]}.items():
        print(f"{record['workload']:<12} {name:<{width}} {m['value']:>14.6g} {m['unit']}")
    for name, probe in (record["known_defects"] or {}).items():
        print(f"known defect {name}: {probe['argv']} -> {probe['outcome']}")
    print("result: " + json.dumps(record, sort_keys=True))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
