"""Self-test of the benchmark at minimal sizes (one draw, two cells).

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks that

- every end-to-end metric of ``BENCHMARK.json`` prints, in the table
  and in the JSON result, with its unit, and ``error_rate`` prints too;
- a deliberately corrupted reference fingerprint counts as a failure;
- a traced run reports exactly the per-layer metrics of
  ``BENCHMARK.json``, with their units.

Exits non-zero on the first check that fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MINIMAL = ["--seed", "0", "--seconds", "1", "--cells", "2", "--groups", "1"]


def bench(workload: str, *extra: str) -> tuple[str, dict]:
    """Run the benchmark; (its standard output, its JSON result)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         *MINIMAL, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def main() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    for key, trace in (("end_to_end", "0"), ("per_layer", "1")):
        units = {m["name"]: m["unit"] for m in manifest[key]}
        for workload in names:
            table, result = bench(workload, "--trace", trace)
            printed: dict[str, str] = {}
            for line in table.splitlines()[:-1]:
                fields = line.split()  # name, median, unit, n, ...
                if len(fields) >= 4:
                    printed.setdefault(fields[0], fields[2])
            expect(
                result["correct"] and result["failed"] == 0,
                f"{workload} trace={trace}: every cell matches its reference",
            )
            expect(
                {n: m["unit"] for n, m in result["metrics"].items()} == units,
                f"{workload} trace={trace}: JSON metrics match "
                f"BENCHMARK.json {key} names and units",
            )
            expect(
                all(printed.get(n) == u for n, u in units.items())
                and printed.get("error_rate") == "ratio",
                f"{workload} trace={trace}: the table prints every metric "
                "with its unit, and error_rate",
            )

    reference = json.loads((HERE / "reference.json").read_text())
    workload = "catalog-pooled"
    cell = "svt-av1:desktop:60:8@0"  # the first cell of the minimal grid
    digest = reference["workloads"][workload][cell]
    reference["workloads"][workload][cell] = digest[::-1]
    corrupted = ROOT / ".perfbench" / "selftest-reference.json"
    corrupted.parent.mkdir(exist_ok=True)
    corrupted.write_text(json.dumps(reference))
    try:
        table, result = bench(workload, "--trace", "0",
                              "--reference", str(corrupted))
    finally:
        corrupted.unlink()
    expect(
        not result["correct"] and result["failed"] >= 1
        and cell in table,
        f"a corrupted fingerprint for {cell} counts as a failure",
    )
    print("selftest passed")


if __name__ == "__main__":
    main()
