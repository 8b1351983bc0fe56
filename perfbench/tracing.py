"""Per-layer spans recorded from outside the program.

:func:`install` replaces each layer's entry points with a timing
wrapper.  The pipeline binds its kernels with ``from ... import``, so a
kernel is wrapped in the namespace it is looked up from (for example
``repro.codecs.pipeline.satd_batch``), and a method on its class.
Nothing under ``src/`` changes.

Each span records a name, start, end, parent span and cell id, and is
kept in memory.  Forked pool workers inherit the wrappers; a worker
appends its spans to ``<flush_dir>/<pid>.jsonl`` after every cell,
since its memory does not come home.  A layer's self time is its
span's duration minus that of its child spans.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from itertools import count
from time import perf_counter

#: (module, attribute, layer).  A dotted attribute names a method.
TARGETS = (
    ("repro.core.session", "characterize", "core.characterize"),
    ("repro.core.session", "to_jsonable", "core.serialize"),
    ("repro.core.session", "from_jsonable", "core.serialize"),
    ("repro.parallel.pool", "to_jsonable", "core.serialize"),
    ("repro.parallel.pool", "from_jsonable", "core.serialize"),
    ("repro.cache.store", "ResultCache.get", "cache.get"),
    ("repro.cache.store", "ResultCache.put", "cache.put"),
    ("repro.codecs.pipeline", "PipelineEncoder.encode", "codecs.encode"),
    ("repro.codecs.pipeline", "diamond_search", "codecs.motion"),
    ("repro.codecs.pipeline", "full_search", "codecs.motion"),
    ("repro.codecs.pipeline", "subpel_refine", "codecs.motion"),
    ("repro.codecs.pipeline", "interpolate", "codecs.motion"),
    ("repro.codecs.pipeline", "mv_bits", "codecs.motion"),
    ("repro.codecs.pipeline", "forward_tx_batch", "codecs.transform"),
    ("repro.codecs.pipeline", "forward_tx_stack", "codecs.transform"),
    ("repro.codecs.pipeline", "inverse_tx_batch", "codecs.transform"),
    ("repro.codecs.pipeline", "inverse_tx_stack", "codecs.transform"),
    ("repro.codecs.pipeline", "satd", "codecs.transform"),
    ("repro.codecs.pipeline", "satd_batch", "codecs.transform"),
    ("repro.codecs.pipeline", "tile_block", "codecs.transform"),
    ("repro.codecs.pipeline", "untile_block", "codecs.transform"),
    ("repro.codecs.pipeline", "predict", "codecs.predict"),
    ("repro.codecs.pipeline", "extend_neighbours", "codecs.predict"),
    ("repro.codecs.pipeline", "fast_rate_estimate_batch", "codecs.entropy"),
    ("repro.codecs.pipeline", "fast_rate_estimate_groups", "codecs.entropy"),
    ("repro.codecs.pipeline", "signed_exp_golomb_bits", "codecs.entropy"),
    ("repro.codecs.entropy.coefcode", "CoefficientCoder.code_block",
     "codecs.entropy"),
    ("repro.codecs.entropy.arithmetic", "BoolEncoder.encode_literal",
     "codecs.entropy"),
    ("repro.codecs.entropy.arithmetic", "BoolEncoder.finish", "codecs.entropy"),
    ("repro.codecs.quant", "Quantizer.quantize", "codecs.quant"),
    ("repro.codecs.quant", "Quantizer.dequantize", "codecs.quant"),
    ("repro.core.characterize", "collect", "uarch.collect"),
    ("repro.uarch.perfcounters", "simulate_encode_traffic", "uarch.cache"),
    ("repro.trace.sampling", "extract_midpoint_window", "trace.extract"),
    ("repro.uarch.perfcounters", "run_trace", "uarch.branch"),
    ("repro.uarch.perfcounters", "model_loops", "uarch.branch"),
    ("repro.uarch.perfcounters", "run_core_model", "uarch.core"),
    ("repro.video.synthetic", "generate", "video.generate"),
    ("repro.parallel.pool", "execute_cells", "parallel.execute_cells"),
    ("repro.parallel.pool", "run_spec", "parallel.run_spec"),
    ("repro.parallel.shm", "ShmDataPlane.publish", "parallel.shm_publish"),
    ("repro.resilience.ledger", "RunLedger.append",
     "resilience.ledger_append"),
    ("repro.obs.telemetry", "TelemetrySink.flush", "obs.telemetry_flush"),
    ("repro.obs.telemetry", "TelemetrySink.stop", "obs.telemetry_flush"),
)

KERNEL_LAYERS = (
    "codecs.motion",
    "codecs.transform",
    "codecs.predict",
    "codecs.entropy",
    "codecs.quant",
)


def _count_cache(recorder: "Recorder", result, args) -> None:
    hierarchy, _ = result
    recorder.counts["uarch.cache.accesses"] += hierarchy.l1d.accesses
    recorder.counts["uarch.cache.llc_misses"] += hierarchy.llc.misses


def _count_branches(recorder: "Recorder", result, args) -> None:
    recorder.counts["uarch.branch.events"] += result.branches


def _flush_after(recorder: "Recorder", result, args) -> None:
    recorder.flush_child()


def _cell_of_spec(recorder: "Recorder", args) -> None:
    recorder.cell = str(args[1])  # run_spec(session, spec)


#: Run before the wrapped call: a pool worker learns its cell id.
BEFORE = {"run_spec": _cell_of_spec}

#: Work counted at a layer boundary, from the wrapped call's result.
AFTER = {
    "simulate_encode_traffic": _count_cache,
    "run_trace": _count_branches,
    "run_spec": _flush_after,
    "TelemetrySink.stop": _flush_after,
}


class Recorder:
    """In-memory spans of one process (and its forked workers)."""

    def __init__(self, flush_dir: str | None = None) -> None:
        self.flush_dir = flush_dir
        #: The process that created the recorder; others are workers.
        self.owner = os.getpid()
        self.pid = self.owner
        self.thread = threading.get_ident()
        #: Open-span ids of the main thread, innermost last.
        self.stack: list[int] = []
        #: [id, name, start, end, parent, cell]
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.cell: str | None = None
        self._ids = count(1)
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self.stack.clear()
        self.spans.clear()
        self.counts.clear()
        self.cell = None

    def open(self, name: str) -> list:
        parent = None
        on_main = threading.get_ident() == self.thread
        if on_main and self.stack:
            parent = self.stack[-1]
        record = [next(self._ids), name, perf_counter(), None, parent, self.cell]
        self.spans.append(record)
        if on_main:
            self.stack.append(record[0])
        return record

    def close(self, record: list) -> None:
        record[3] = perf_counter()
        if self.stack and self.stack[-1] == record[0]:
            self.stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)

    def records(self) -> list[dict]:
        return [
            {
                "pid": self.pid,
                "id": sid,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "cell": cell,
            }
            for sid, name, start, end, parent, cell in self.spans
            if end is not None
        ]

    def flush_child(self) -> None:
        """In a forked worker: append finished spans to the flush dir."""
        if self.flush_dir is None or self.pid == self.owner:
            return
        path = os.path.join(self.flush_dir, f"{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")
            handle.write(json.dumps({"pid": self.pid, "counts": self.counts}))
            handle.write("\n")
        self.spans[:] = [span for span in self.spans if span[3] is None]
        self.counts.clear()


def _wrap(fn, recorder: Recorder, name: str, before=None, after=None):
    def wrapper(*args, **kwargs):
        if before is not None:
            before(recorder, args)
        record = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(record)
        if after is not None:
            after(recorder, result, args)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every target; call before the traced work, once per process."""
    for module_name, attribute, layer in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf] if path else getattr(owner, leaf)
        setattr(owner, leaf, _wrap(
            original, recorder, layer, BEFORE.get(attribute), AFTER.get(attribute)
        ))


def read_worker_spans(flush_dir: str) -> tuple[list[dict], dict[str, float]]:
    """Spans and counts the forked workers appended under ``flush_dir``."""
    records: list[dict] = []
    counts: defaultdict[str, float] = defaultdict(float)
    for entry in sorted(os.listdir(flush_dir)):
        with open(os.path.join(flush_dir, entry), encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "counts" in record:
                    for key, value in record["counts"].items():
                        counts[key] += value
                else:
                    records.append(record)
    return records, dict(counts)


def phase_of(records: list[dict]) -> dict[tuple[int, int], str]:
    """Each span's outermost ancestor name, keyed by ``(pid, id)``."""
    by_key = {(r["pid"], r["id"]): r for r in records}
    phases = {}
    for key, record in by_key.items():
        root = record
        while root["parent"] is not None and (root["pid"], root["parent"]) in by_key:
            root = by_key[(root["pid"], root["parent"])]
        phases[key] = root["name"]
    return phases


def self_times(records: list[dict]) -> dict[str, dict[str, float]]:
    """Per layer name: calls, inclusive seconds and self seconds."""
    child_time: defaultdict[tuple[int, int], float] = defaultdict(float)
    for record in records:
        if record["parent"] is not None:
            child_time[(record["pid"], record["parent"])] += (
                record["end"] - record["start"]
            )
    table: dict[str, dict[str, float]] = {}
    for record in records:
        duration = record["end"] - record["start"]
        row = table.setdefault(
            record["name"], {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["incl_s"] += duration
        row["self_s"] += duration - child_time[(record["pid"], record["id"])]
    return table
