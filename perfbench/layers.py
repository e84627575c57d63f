"""Layer map, span recorder and profile attribution for the benchmark.

A *layer* is a group of ``repro`` source files. The profiled pass
groups every profiler entry by the file its function is defined in, so
a layer's numbers survive refactors that move code between files of the
same layer. Files outside the map (``repro.common``, package
``__init__`` glue, the benchmark itself) and interpreter internals fall
into ``other``, which is printed but is not a layer metric.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

LAYERS = (
    "engine", "cores", "isa", "memory", "capture", "lifeguard_core",
    "accel", "enforce", "lifeguards", "diff", "trace", "replay",
    "platform", "workloads",
)

#: (path under ``src/repro``, layer). The first matching prefix wins, so
#: single files are listed before the directory that holds them.
MODULE_MAP = (
    ("cpu/engine.py", "engine"),
    ("cpu/cores.py", "cores"),
    ("cpu/os_model.py", "cores"),
    ("cpu/lifeguard_core.py", "lifeguard_core"),
    ("isa/", "isa"),
    ("memory/", "memory"),
    ("capture/", "capture"),
    ("accel/", "accel"),
    ("enforce/", "enforce"),
    ("lifeguards/oracle.py", "diff"),
    ("lifeguards/", "lifeguards"),
    ("trace/diff.py", "diff"),
    ("trace/writer.py", "trace"),
    ("trace/tail.py", "trace"),
    ("replay/", "replay"),
    ("platform/", "platform"),
    ("workloads/", "workloads"),
)

OTHER = "other"

#: Every per-layer metric of the traced run: name -> (unit, better).
LAYER_METRICS = {
    f"{layer}.{name}": unit for layer in LAYERS for name, unit
    in (("self_s", ("s", "lower")), ("calls_per_kinst", ("calls/kinst",
                                                          "lower")))
}
LAYER_METRICS.update({
    "engine.events_per_kinst": ("events/kinst", "lower"),
    "cores.wait_log_frac": ("ratio", "lower"),
    "memory.accesses_per_kinst": ("accesses/kinst", "lower"),
    "memory.calls_per_access": ("calls/access", "lower"),
    "memory.l1_hit_ratio": ("ratio", "higher"),
    "memory.l2_misses_per_kinst": ("misses/kinst", "lower"),
    "capture.records_per_kinst": ("records/kinst", "lower"),
    "capture.log_bytes_per_kinst": ("B/kinst", "lower"),
    "capture.arc_reduction_ratio": ("ratio", "higher"),
    "capture.ca_broadcasts": ("count", "lower"),
    "lifeguard_core.events_delivered_per_kinst": ("events/kinst", "lower"),
    "lifeguard_core.dependence_stalls": ("count", "lower"),
    "lifeguard_core.wait_dependence_frac": ("ratio", "lower"),
    "lifeguard_core.wait_application_frac": ("ratio", "lower"),
    "accel.it_absorbed_ratio": ("ratio", "higher"),
    "accel.if_hit_ratio": ("ratio", "higher"),
    "accel.mtlb_hit_ratio": ("ratio", "higher"),
    "lifeguards.shadow_chunk_allocs": ("count", "lower"),
    "lifeguards.shadow_chunks_peak": ("count", "lower"),
    "diff.oracle_s": ("s", "lower"),
    "trace.events_per_kinst": ("events/kinst", "lower"),
    "trace.bytes_per_kinst": ("B/kinst", "lower"),
    "trace.read_s": ("s", "lower"),
    "replay.archive_bytes_per_kinst": ("B/kinst", "lower"),
    "replay.write_s": ("s", "lower"),
    "replay.open_s": ("s", "lower"),
    "platform.wiring_ms_per_op": ("ms", "lower"),
    "workloads.gen_s": ("s", "lower"),
})

#: The run-scheme entry points whose profiled time, minus the
#: ``Engine.run`` they call, is the platform's wiring cost.
_RUN_ENTRY_POINTS = frozenset({
    "run_parallel_monitoring", "run_no_monitoring",
    "run_timesliced_monitoring",
})


class LayerMap:
    """Maps source file names to layers, relative to one ``repro`` tree."""

    def __init__(self, repro_dir: str):
        self.repro_dir = os.path.realpath(repro_dir) + os.sep
        self._cache: Dict[str, str] = {}

    def layer_of(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            layer = OTHER
            path = os.path.realpath(filename) if filename[:1] != "~" else ""
            if path.startswith(self.repro_dir):
                rel = path[len(self.repro_dir):].replace(os.sep, "/")
                for prefix, name in MODULE_MAP:
                    if rel.startswith(prefix):
                        layer = name
                        break
            self._cache[filename] = layer
        return layer


def profile_call(fn: Callable[[], object]):
    """Run ``fn`` under cProfile; returns ``(value, pstats raw dict)``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        value = fn()
    finally:
        profiler.disable()
    return value, pstats.Stats(profiler).stats


def attribute(stats: dict, layers: LayerMap) -> Dict[str, Dict[str, float]]:
    """Group a raw profile by layer.

    ``calls`` counts calls of Python functions defined in the layer's
    files (generator resumptions included); it repeats exactly for the
    same code and inputs. ``self_s`` is the profiled self time of those
    functions plus the self time of the built-in functions they call
    directly, split per caller. ``wiring_s``/``runs`` give the run-scheme
    entry points' time outside ``Engine.run``.
    """
    table = {name: {"calls": 0, "self_s": 0.0}
             for name in LAYERS + (OTHER,)}
    wiring_s, runs = 0.0, 0
    for (filename, _line, func), (_cc, ncalls, tottime, cumtime, callers) \
            in stats.items():
        layer = layers.layer_of(filename)
        if filename == "~":
            # A built-in: charge its self time to the layers calling it.
            for caller, caller_stats in callers.items():
                table[layers.layer_of(caller[0])]["self_s"] += caller_stats[2]
            continue
        table[layer]["calls"] += ncalls
        table[layer]["self_s"] += tottime
        if layer == "platform" and func in _RUN_ENTRY_POINTS:
            wiring_s += cumtime
            runs += ncalls
        elif layer == "engine" and func == "run":
            for caller, caller_stats in callers.items():
                if caller[2] in _RUN_ENTRY_POINTS:
                    wiring_s -= caller_stats[3]
    return {"layers": table, "wiring_s": wiring_s, "runs": runs}


def cumulative_s(stats: dict, layers: LayerMap, layer: str,
                 func: str) -> float:
    """Profiled cumulative time of function ``func`` in ``layer``."""
    return sum((entry[3] for (filename, _line, name), entry in stats.items()
               if name == func and layers.layer_of(filename) == layer), 0.0)


class Spans:
    """Spans around the public entry points the benchmark calls.

    A span is (id, name, op, parent, start, end) in host seconds. When
    disabled, :meth:`call` is a plain call, so the timed passes carry no
    tracing. Spans are kept in memory and written out by :meth:`dump`.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.records: List[dict] = []
        self._stack: List[int] = []
        self.op: Optional[str] = None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = {"id": len(self.records), "name": name, "op": self.op,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.records.append(span)
        self._stack.append(span["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    def total_s(self, *names: str) -> float:
        return sum((span["end"] - span["start"] for span in self.records
                    if span["name"] in names and span["end"] is not None),
                   0.0)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.records:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def merge_counts(into: Dict[str, float], counts: Dict[str, float]) -> None:
    """Add simulated counters; ``*_peak`` keys keep their maximum."""
    for key, value in counts.items():
        if key.endswith("_peak"):
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when the base is zero."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(profile: dict, counts: Dict[str, float], kinst: float,
                  spans: Spans, extra: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metric table of one traced run, by metric name."""
    c = defaultdict(float, counts)
    table = profile["layers"]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = table[layer]["self_s"]
        metrics[f"{layer}.calls_per_kinst"] = ratio(table[layer]["calls"],
                                                    kinst)
    accesses = c["l1_hits"] + c["l1_misses"]
    metrics.update({
        "engine.events_per_kinst": ratio(c["events_popped"], kinst),
        "cores.wait_log_frac": ratio(c["app_wait_log"], c["app_cycles"]),
        "memory.accesses_per_kinst": ratio(accesses, kinst),
        "memory.calls_per_access": ratio(table["memory"]["calls"], accesses),
        "memory.l1_hit_ratio": ratio(c["l1_hits"], accesses),
        "memory.l2_misses_per_kinst": ratio(c["l2_misses"], kinst),
        "capture.records_per_kinst": ratio(c["log_records"], kinst),
        "capture.log_bytes_per_kinst": ratio(c["log_bytes"], kinst),
        "capture.arc_reduction_ratio": ratio(
            c["arcs_reduced"], c["arcs_reduced"] + c["arcs_recorded"]),
        "capture.ca_broadcasts": c["ca_broadcasts"],
        "lifeguard_core.events_delivered_per_kinst": ratio(
            c["events_delivered"], kinst),
        "lifeguard_core.dependence_stalls": c["dependence_stalls"],
        "lifeguard_core.wait_dependence_frac": ratio(
            c["lg_wait_dependence"], c["lg_cycles"]),
        "lifeguard_core.wait_application_frac": ratio(
            c["lg_wait_application"], c["lg_cycles"]),
        "accel.it_absorbed_ratio": ratio(
            c["it_absorbed"], c["it_absorbed"] + c["events_delivered"]),
        "accel.if_hit_ratio": ratio(
            c["if_hits"], c["if_hits"] + c["if_misses"]),
        "accel.mtlb_hit_ratio": ratio(
            c["mtlb_hits"], c["mtlb_hits"] + c["mtlb_misses"]),
        "lifeguards.shadow_chunk_allocs": c["shadow_chunk_allocs"],
        "lifeguards.shadow_chunks_peak": c["shadow_chunks_peak"],
        "trace.events_per_kinst": ratio(c["trace_events"], kinst),
        "trace.bytes_per_kinst": ratio(c["trace_bytes"], kinst),
        "trace.read_s": spans.total_s("read_trace", "trace_hash"),
        "replay.archive_bytes_per_kinst": ratio(c["archive_bytes"], kinst),
        "replay.write_s": spans.total_s("write_archive"),
        "replay.open_s": spans.total_s("TraceReader"),
        "platform.wiring_ms_per_op": 1000.0 * ratio(profile["wiring_s"],
                                                    profile["runs"]),
    })
    metrics.update(extra)
    return metrics
