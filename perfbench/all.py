"""Run every workload of ``BENCHMARK.json`` in turn, with one command.

Usage (from the repository root)::

    python3 perfbench/all.py --seed 0 --trace 0

Prints each workload's metric table (every metric with its unit and
sample count, and ``error_rate``), then one JSON object mapping each
workload to its result.  Exits non-zero if any workload's run failed or
found a wrong cell.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    results = {}
    for workload in (w["name"] for w in manifest["workloads"]):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds",
             str(manifest["run_seconds"]), "--trace", str(args.trace)],
            cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n", flush=True)
        results[workload] = (
            json.loads(lines[-1]) if done.returncode == 0 and lines else None
        )
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
