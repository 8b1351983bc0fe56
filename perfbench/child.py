"""One benchmark process: set up, run one cold pass, check, report.

``run.py`` starts this file once per pass, so every pass pays the
program's real set-up (interpreter, ``import repro``, video synthesis,
session and cache) and starts with nothing warm.  The result goes to
``--out`` as JSON.

Modes:

- ``probe``: set up and stop (one more ``setup_s`` sample);
- ``pass``: set up, run the timed pass, re-read it, fingerprint it;
- ``trace``: as ``pass``, with every layer's entry points wrapped;
- ``serial``: run the grid serially, untimed, for its fingerprints.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import resource
import time
from contextlib import nullcontext

import tracing
import workloads
from repro.obs.runstatus import load_run_status
from repro.obs.telemetry import LEDGER_FILE


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def _ledger_ok(run_dir: str) -> tuple[int, float]:
    """(records, summed ``elapsed_seconds`` of completed cells)."""
    records, elapsed = 0, 0.0
    with open(os.path.join(run_dir, LEDGER_FILE), encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            records += 1
            if record["status"] == "ok":
                elapsed += record["elapsed_seconds"]
    return records, elapsed


def _peak_rss_kib(bench: workloads.Pass) -> float:
    """Peak RSS of this process plus its pool workers' telemetry peaks."""
    peak = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if bench.run_dir is not None:
        peak += sum(
            view.peak_rss_kib or 0.0
            for view in load_run_status(bench.run_dir).workers
            if view.role == "worker"
        )
    return peak


def layer_metrics(
    recorder: tracing.Recorder, bench: workloads.Pass, reports: list
) -> tuple[dict[str, float], dict, list[dict]]:
    """Per-layer metrics of one traced pass, its self-time tables and spans."""
    records = recorder.records()
    workers: list[dict] = []
    counts = dict(recorder.counts)
    if bench.run_dir is not None:
        workers, worker_counts = tracing.read_worker_spans(recorder.flush_dir)
        for key, value in worker_counts.items():
            counts[key] = counts.get(key, 0.0) + value
    phases = tracing.phase_of(records)
    in_phase = lambda name: [  # noqa: E731
        r for r in records if phases[(r["pid"], r["id"])] == name
    ]
    tables = {
        "pass": tracing.self_times(in_phase("pass")),
        "workers": tracing.self_times(workers),
        "reread": tracing.self_times(in_phase("reread")),
        "all": tracing.self_times(records + workers),
    }
    main, both = tables["pass"], tracing.self_times(in_phase("pass") + workers)

    def self_s(table, name, key="self_s"):
        return table.get(name, {}).get(key, 0.0)

    metrics = {
        "codecs.encode_s": self_s(both, "codecs.encode", "incl_s"),
        "codecs.search_self_s": self_s(both, "codecs.encode"),
    }
    for layer in tracing.KERNEL_LAYERS:
        metrics[f"{layer}_s"] = self_s(both, layer)
    metrics["codecs.kernel_calls"] = sum(
        self_s(both, layer, "calls") for layer in tracing.KERNEL_LAYERS
    )
    accesses = counts.get("uarch.cache.accesses", 0.0)
    metrics.update({
        "uarch.cache_s": self_s(both, "uarch.cache"),
        "uarch.cache.ns_per_access": (
            self_s(both, "uarch.cache") / accesses * 1e9 if accesses else 0.0
        ),
        "uarch.cache.accesses": accesses,
        "uarch.cache.llc_misses": counts.get("uarch.cache.llc_misses", 0.0),
        "trace.extract_s": self_s(both, "trace.extract"),
        "uarch.branch_s": self_s(both, "uarch.branch"),
        "uarch.core_s": self_s(both, "uarch.core"),
        "uarch.collect_self_s": self_s(both, "uarch.collect"),
        "trace.sim_minst": sum(r.proxy_instructions for r in reports) / 1e6,
        "trace.decision_branches": sum(
            r.branch.decision_branches for r in reports
        ),
        "uarch.branch.events": counts.get("uarch.branch.events", 0.0),
        "video.generate_s": self_s(tables["all"], "video.generate"),
        "core.characterize_self_s": self_s(both, "core.characterize"),
        "core.serialize_s": self_s(both, "core.serialize"),
        "cache.put_s": self_s(both, "cache.put"),
        "cache.get_s": self_s(both, "cache.get")
        + self_s(tables["reread"], "cache.get"),
        "cache.bytes": float(_dir_bytes(bench.cache_dir)),
        "parallel.execute_cells_s": self_s(
            main, "parallel.execute_cells", "incl_s"
        ),
        "parallel.shm_publish_s": self_s(main, "parallel.shm_publish"),
        "resilience.ledger_append_s": self_s(
            main, "resilience.ledger_append"
        ),
        "obs.telemetry_flush_s": self_s(tables["all"], "obs.telemetry_flush"),
        "unattributed_s": self_s(main, "pass"),
    })
    worker_cell_s = ledger_records = payload_bytes = 0.0
    if bench.run_dir is not None:
        ledger_records, worker_cell_s = _ledger_ok(bench.run_dir)
        payload_bytes = bench.obs.metrics.snapshot()["counters"].get(
            "pool.payload_bytes", 0.0
        )
    metrics.update({
        "parallel.worker_cell_s": worker_cell_s,
        "parallel.dispatch_overhead_s": (
            metrics["parallel.execute_cells_s"] - worker_cell_s / bench.workers
            if bench.run_dir is not None
            else 0.0
        ),
        "parallel.payload_bytes": float(payload_bytes),
        "resilience.ledger_records": float(ledger_records),
    })
    return metrics, tables, records + workers


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("probe", "pass", "trace", "serial"))
    parser.add_argument("--cells", type=int, default=None)
    parser.add_argument("--groups", type=int, default=None)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    recorder = None
    span = lambda name: nullcontext()  # noqa: E731
    if args.mode == "trace":
        flush_dir = os.path.join(args.work, "worker-spans")
        os.makedirs(flush_dir)
        recorder = tracing.Recorder(flush_dir)
        tracing.install(recorder)
        span = recorder.span
    spec = workloads.grid(args.workload, args.cells, args.groups)
    if args.mode == "serial":
        spec = dataclasses.replace(spec, pooled=False)
    bench = workloads.Pass(
        spec, args.seed, args.work,
        on_cell=recorder and (lambda cid: setattr(recorder, "cell", cid)),
    )
    with span("setup"):
        bench.setup()
    out: dict = {
        "setup_s": time.monotonic() - args.launched_at,
        "cell_ids": [
            workloads.cell_id(cell, content_seed)
            for content_seed, cells in zip(bench.content_seeds, spec.groups)
            for cell in cells
        ],
    }
    try:
        if args.mode != "probe":
            start = time.perf_counter()
            with span("pass"):
                results = bench.run()
            out["wall_s"] = time.perf_counter() - start
    finally:
        bench.close()
        for worker in multiprocessing.active_children():
            worker.join()
    if args.mode != "probe":
        with span("reread"):
            reread = bench.reread()
        reports = [r for r in results.values() if not isinstance(r, Exception)]
        out.update({
            "cells": {
                cid: {
                    "digest": None if isinstance(r, Exception)
                    else workloads.digest(r),
                    "error": f"{type(r).__name__}: {r}"
                    if isinstance(r, Exception) else None,
                    "reread_equal": not isinstance(r, Exception)
                    and reread.get(cid) == r,
                }
                for cid, r in results.items()
            },
            "sim_minst": sum(r.proxy_instructions for r in reports) / 1e6,
            "peak_rss_kib": _peak_rss_kib(bench),
        })
        if recorder is not None:
            out["layers"], out["layer_tables"], spans = layer_metrics(
                recorder, bench, reports
            )
            with open(os.path.join(args.work, "spans.jsonl"), "w") as handle:
                for record in spans:
                    handle.write(json.dumps(record) + "\n")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main()
