"""Smoke test of the benchmark harness at a tiny size.

    python3 perfbench/smoke.py

Runs every workload with 20-command blocks, untraced and traced, and checks
that the contract line is well formed, that no command fails, that every
metric is reported with its unit, that the result file merges both runs, that
compare mode reads it, and that the traced run ranks the intended layer
first.  Exits non-zero on the first failure.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, EXTRA, PER_LAYER  # noqa: E402
from streams import WORKLOADS  # noqa: E402

# The layer (or layers) expected to hold the largest self time in each workload.
INTENDED = {
    "jets": {"series"},
    "hankel-grid": {"posdef"},
    "seq-tables": {"exact_seq"},
    "float-sweep": {"kernels", "density"},
}


def bench(*args: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout.splitlines()


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAIL: {message}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "result.json"
        for workload in WORKLOADS:
            for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
                lines = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace), "--commands", "20", "--out", str(out))
                last = json.loads(lines[-1])
                check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: contract keys")
                check(last["correct"] is True, f"{workload}: outputs failed their checks")
                check(last["failed"] == 0, f"{workload}: {last['failed']} commands failed")
                check(last["attempted"] >= 20, f"{workload}: too few commands")
                check(set(last["metrics"]) == set(expected), f"{workload}/trace {trace}: metric names")
                for name, m in last["metrics"].items():
                    check(m["unit"] == expected[name], f"{workload}: unit of {name}")
                    check(isinstance(m["value"], (int, float)), f"{workload}: value of {name}")
            merged = json.loads(out.read_text())["workloads"][workload]["metrics"]
            check(set(merged) == set(END_TO_END) | set(PER_LAYER) | set(EXTRA), f"{workload}: merged record")
            selfs = {k.split(".")[0]: v["value"] for k, v in merged.items() if k.endswith(".self_s")}
            top = max(selfs, key=selfs.get)
            check(top in INTENDED[workload], f"{workload}: traced run ranks {top} first ({selfs})")
            print(f"smoke: {workload}: ok, largest self time in {top}")
        table = bench("--compare", str(out), str(out))
        check(any(line.startswith("jets") and "wall_s" in line for line in table), "compare output")
    print("smoke: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
