"""Benchmark entry point for lossprio.

    python3 perfbench/run.py --workload small_select --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The workload runs in a child process
(perfbench/worker.py) with every BLAS thread pool pinned to one thread, so
numbers do not depend on the library's default threading.

Output: one line per metric with its unit and sample count (timings also with
their uncalibrated wall-clock median, see refclock.py), a failed_frac line,
one JSON line with the environment, failures, determinism hashes and notes,
and, last, one JSON result line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the result's metrics are the end-to-end ones; best_test_error
and failed_frac are printed above it but not gated.  With --trace 1 they are
the per-layer ones from span probes on each lossprio module.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lossprio" / "__init__.py").is_file():
        print(f"perfbench: no lossprio sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, **{name: "1" for name in PINNED_THREADS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        child = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = child.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if child.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print(f"perfbench: workload exited with code {child.returncode} and no result",
              file=sys.stderr)
        return 1
    result["env"]["git_commit"] = git_commit()

    failed = len(result["failures"])
    attempted = result["attempted"]
    for name, (value, unit, samples, wall) in {**result["metrics"], **result["reported"]}.items():
        how = f"per pass, {samples} passes" if args.trace else f"{samples} samples"
        if wall is not None:
            how += f"; uncalibrated {wall:.6g}"
        print(f"{name:<36} {value:>14.6g} {unit:<11} ({how})")
    print(f"{'failed_frac':<36} {failed / max(attempted, 1):>14.6g} {'ratio':<11} "
          f"({failed} failed of {attempted} operations)")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": result["env"], "failures": result["failures"],
        "determinism": result["determinism"], "notes": result["notes"],
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
