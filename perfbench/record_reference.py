"""Record the reference fingerprints the benchmark checks cells against.

Usage (from the repository root)::

    python3 perfbench/record_reference.py --seeds 0-13

Runs every workload's grid serially, in this process, for each seed,
and writes ``perfbench/reference.json``: one digest of the simulated
statistics (see ``workloads.fingerprint``) per cell and content seed.
Record only at a commit whose simulated statistics are meant to be the
reference; a change that only speeds the program up must keep every
digest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def record(name: str, seed: int) -> dict:
    """Cell id -> fingerprint of one serial run of workload ``name``."""
    spec = dataclasses.replace(workloads.grid(name), pooled=False)
    with tempfile.TemporaryDirectory(dir=HERE.parent / ".perfbench") as work:
        bench = workloads.Pass(spec, seed, work)
        bench.setup()
        results = bench.run()
        bench.close()
    failed = [cid for cid, r in results.items() if isinstance(r, Exception)]
    if failed:
        raise SystemExit(f"{name} seed {seed}: cells failed: {failed}")
    return {cid: workloads.fingerprint(r) for cid, r in results.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-13",
                        help="inclusive range FIRST-LAST")
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))
    (HERE.parent / ".perfbench").mkdir(exist_ok=True)
    digests: dict[str, dict[str, str]] = {}
    fields: list[str] = []
    for name in workloads.WORKLOADS:
        digests[name] = {}
        for seed in range(first, last + 1):
            for cid, fingerprint in record(name, seed).items():
                digests[name][cid] = workloads.digest_of(fingerprint)
                fields = sorted(fingerprint)
            print(f"{name} seed {seed}: {len(digests[name])} cells", flush=True)
    (HERE / "reference.json").write_text(json.dumps({
        "seeds": args.seeds,
        "fields": fields,
        "workloads": digests,
    }, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
