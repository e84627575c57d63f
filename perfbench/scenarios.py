"""The benchmark's four workloads: input generation, timed steps, checks.

Every workload is a closed loop with one client: :mod:`run` executes the
steps of a pass one at a time, in one process. Each step calls public
``repro`` entry points only and returns an :class:`Outcome` holding its
simulated work, its simulated results (for the digest), its simulated
counters (for the per-layer table) and any correctness failures.

Every simulation step builds a fresh machine, so simulated caches start
empty in every operation.
"""

from __future__ import annotations

import enum
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import (
    AddrCheck,
    MemoryModel,
    ScalePreset,
    SimulationConfig,
    TaintCheck,
    TraceWriter,
    build_workload,
    read_trace,
    run_no_monitoring,
    run_parallel_monitoring,
    trace_hash,
)
from repro.cpu.os_model import AddressLayout
from repro.lifeguards.oracle import fingerprints_match, replay as oracle_replay
from repro.replay import TraceReader, replay_archive, write_archive
from repro.trace.diff import differential_check, lifeguard_factory, \
    verdict_projection

THREADS = 4
SCALE = ScalePreset.SMALL
#: The Table-1 kernels' data seed, the one the repository's figures use.
#: Their length depends on it (barnes retires 10.5k to 19.8k instructions
#: across data seeds 1 to 3), so the benchmark seed does not choose it:
#: pass times would then differ by seed.
KERNEL_SEED = 1
ALL_LIFEGUARDS = ("addrcheck", "lockset", "memcheck", "taintcheck")
_HEAP_RANGE = AddressLayout.heap_range()

#: RunResult.stats keys summed into the per-layer counters as they are.
_STAT_COUNTERS = (
    "log_records", "log_bytes", "arcs_recorded", "arcs_reduced",
    "ca_broadcasts", "events_delivered", "dependence_stalls",
    "it_absorbed", "if_hits", "if_misses", "mtlb_hits", "mtlb_misses",
)


@dataclass
class Outcome:
    """What one step produced."""

    #: Simulated application instructions (records replayed in replay_fanout).
    work: int = 0
    #: Simulated results, hashed into the workload's digest.
    sim: object = None
    #: Simulated counters for the per-layer table (see layers.merge_counts).
    counts: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


@dataclass
class Step:
    """One timed step of a pass; ``is_op`` steps count as operations."""

    name: str
    fn: Callable[..., Outcome]
    is_op: bool = True


def canonical(value):
    """A JSON-encodable, order-independent view of simulated results."""
    if isinstance(value, dict):
        return [[canonical(key), canonical(item)] for key, item
                in sorted(value.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(item) for item in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, enum.Enum):
        return value.name
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _violations(violations) -> list:
    return [(v.kind, v.tid, v.rid, v.detail) for v in violations]


def run_sim(result) -> dict:
    """Every simulated statistic of one RunResult."""
    return {
        "cycles": result.total_cycles,
        "instructions": result.instructions,
        "app_buckets": result.app_buckets,
        "lifeguard_buckets": result.lifeguard_buckets,
        "stats": result.stats,
        "violations": _violations(result.violations),
    }


def run_counts(result) -> Dict[str, float]:
    """The per-layer counters of one RunResult."""
    stats = result.stats
    coherence = stats.get("coherence", {})
    perf = stats.get("perf", {})
    counts = {
        "sim_cycles": result.total_cycles,
        "l1_hits": sum(coherence.get("l1_hits", ())),
        "l1_misses": sum(coherence.get("l1_misses", ())),
        "l2_misses": sum(coherence.get("l2_misses", ())),
        "events_popped": perf.get("events_popped", 0),
        "shadow_chunk_allocs": perf.get("shadow_chunk_allocs", 0),
        "shadow_chunks_peak": perf.get("shadow_chunks_peak", 0),
        "app_cycles": 0, "app_wait_log": 0,
        "lg_cycles": 0, "lg_wait_dependence": 0, "lg_wait_application": 0,
    }
    for key in _STAT_COUNTERS:
        counts[key] = stats.get(key, 0)
    for buckets in result.app_buckets.values():
        counts["app_cycles"] += sum(buckets.values())
        counts["app_wait_log"] += buckets.get("wait_log", 0)
    for buckets in result.lifeguard_buckets.values():
        counts["lg_cycles"] += sum(buckets.values())
        counts["lg_wait_dependence"] += buckets.get("wait_dependence", 0)
        counts["lg_wait_application"] += buckets.get("wait_application", 0)
    return counts


class Scenario:
    """A workload: inputs from the seed, steps of one pass, checks."""

    name = ""
    why = ""
    #: What ``Outcome.work`` counts.
    work_unit = "instructions"
    #: Untimed passes run before timing starts.
    warmup_passes = 1

    def __init__(self, seed: int, workdir: Optional[str] = None,
                 scale: ScalePreset = SCALE):
        self.seed = seed
        self.workdir = workdir
        self.scale = scale

    def generate(self, spans) -> None:
        """Build the inputs; part of set-up."""

    def verify(self, spans) -> List[List[str]]:
        """Untimed checks before timing: one failure list per check."""
        return []

    def steps(self) -> List[Step]:
        raise NotImplementedError

    def summary(self, outcomes: Dict[str, Outcome]) -> Dict[str, float]:
        """Extra end-to-end figures from one pass's outcomes."""
        return {}

    def _kernel(self, spans, kernel: str):
        return spans.call("build_workload", build_workload, kernel, THREADS,
                          scale=self.scale, seed=KERNEL_SEED)


_SC = SimulationConfig.for_threads(THREADS)
_TSO = SimulationConfig.for_threads(THREADS, memory_model=MemoryModel.TSO)
_LIFEGUARD_CLASSES = {"taintcheck": TaintCheck, "addrcheck": AddrCheck}


class PaperSmall(Scenario):
    name = "paper_small"
    why = ("Table-1 kernels at small scale drive the whole monitored CMP "
           "pipeline under TaintCheck and AddrCheck")
    #: The oracle verification pass runs the monitored cells untimed
    #: first, so it is the warm-up.
    warmup_passes = 0
    #: Table 1's lu and radiosity are left out: their cells take about
    #: 8 s and 3 s a pass, and with them fewer than three passes fit in
    #: one run, so the pass-time median would not be steady.
    KERNELS = ("barnes", "ocean", "swaptions")

    def __init__(self, seed: int, workdir=None, scale: ScalePreset = SCALE,
                 kernels=KERNELS):
        super().__init__(seed, workdir, scale)
        # (kernel, lifeguard or None for no monitoring, memory model)
        cells = [(kernel, lifeguard, "sc") for kernel in kernels
                 for lifeguard in ("taintcheck", "addrcheck", None)]
        cells.append((kernels[0], "taintcheck", "tso"))
        random.Random(seed).shuffle(cells)
        self.cells = cells

    @staticmethod
    def _cell_name(kernel, lifeguard, model) -> str:
        return f"{kernel}/{lifeguard or 'none'}/{model}"

    def verify(self, spans) -> List[List[str]]:
        checks = []
        for kernel, lifeguard, model in self.cells:
            if lifeguard is None:
                continue
            name = self._cell_name(kernel, lifeguard, model)
            factory = lifeguard_factory(lifeguard)
            result = spans.call(
                "run_parallel_monitoring", run_parallel_monitoring,
                self._kernel(spans, kernel), factory,
                _TSO if model == "tso" else _SC, keep_trace=True)
            oracle = spans.call(
                "oracle.replay", oracle_replay, result.trace,
                lambda: factory(heap_range=_HEAP_RANGE))
            checks.append([] if fingerprints_match(result.lifeguard_obj,
                                                   oracle)
                          else [f"{name}: metadata differs from the "
                                f"sequential oracle's"])
        return checks

    def steps(self) -> List[Step]:
        return [Step(self._cell_name(*cell), self._make_step(*cell))
                for cell in self.cells]

    def _make_step(self, kernel, lifeguard, model):
        config = _TSO if model == "tso" else _SC

        def step(spans, state) -> Outcome:
            workload = self._kernel(spans, kernel)
            if lifeguard is None:
                result = spans.call("run_no_monitoring", run_no_monitoring,
                                    workload, config)
            else:
                result = spans.call(
                    "run_parallel_monitoring", run_parallel_monitoring,
                    workload, _LIFEGUARD_CLASSES[lifeguard], config)
            return Outcome(result.instructions, run_sim(result),
                           run_counts(result))
        return step

    def summary(self, outcomes: Dict[str, Outcome]) -> Dict[str, float]:
        """``sim_slowdown``: geometric mean over the SC monitored cells of
        monitored over unmonitored simulated cycles."""
        logs = []
        for kernel, lifeguard, model in self.cells:
            if lifeguard is None or model != "sc":
                continue
            base = outcomes.get(self._cell_name(kernel, None, "sc"))
            cell = outcomes.get(self._cell_name(kernel, lifeguard, model))
            if base is None or cell is None or not base.counts \
                    or not cell.counts:
                continue
            logs.append(math.log(cell.counts["sim_cycles"]
                                 / base.counts["sim_cycles"]))
        return {"sim_slowdown": math.exp(sum(logs) / len(logs))} if logs \
            else {}


class DiffSweep(Scenario):
    name = "diff_sweep"
    why = ("100 small differential cells: fixed per-run costs, all four "
           "lifeguards and the timesliced scheme")
    SEEDS_PER_PASS = 25

    def __init__(self, seed: int, workdir=None, scale: ScalePreset = SCALE):
        super().__init__(seed, workdir, scale)
        first = seed * self.SEEDS_PER_PASS
        self.cells = [(cell_seed, lifeguard) for cell_seed
                      in range(first, first + self.SEEDS_PER_PASS)
                      for lifeguard in ALL_LIFEGUARDS]

    def steps(self) -> List[Step]:
        return [Step(f"{cell_seed}/{lifeguard}",
                     self._make_step(cell_seed, lifeguard))
                for cell_seed, lifeguard in self.cells]

    @staticmethod
    def _make_step(cell_seed, lifeguard):
        def step(spans, state) -> Outcome:
            report = spans.call("differential_check", differential_check,
                                cell_seed, lifeguard)
            perf = report.perf.values()
            counts = {
                "events_popped": sum(p.get("events_popped", 0) for p in perf),
                "shadow_chunk_allocs": sum(p.get("shadow_chunk_allocs", 0)
                                           for p in perf),
                "shadow_chunks_peak": max((p.get("shadow_chunks_peak", 0)
                                           for p in perf), default=0),
            }
            sim = {"verdicts": report.verdicts,
                   "instructions": report.instructions,
                   "perf": report.perf, "failures": report.failures}
            failures = [f"seed {cell_seed}/{lifeguard}: {failure}"
                        for failure in report.failures]
            return Outcome(sum(report.instructions.values()), sim, counts,
                           failures)
        return step


class ReplayFanout(Scenario):
    name = "replay_fanout"
    why = ("archive encode, open and decode, then replay through all four "
           "lifeguards: bypasses the simulated CMP")
    work_unit = "records"
    KERNELS = ("barnes", "ocean", "swaptions")
    CAPTURE_LIFEGUARD = "taintcheck"

    def __init__(self, seed: int, workdir=None, scale: ScalePreset = SCALE,
                 kernels=KERNELS):
        super().__init__(seed, workdir, scale)
        self.kernels = list(kernels)
        random.Random(seed).shuffle(self.kernels)
        self.captures = {}
        self.references = {}

    def generate(self, spans) -> None:
        factory = lifeguard_factory(self.CAPTURE_LIFEGUARD)
        for kernel in self.kernels:
            self.captures[kernel] = spans.call(
                "run_parallel_monitoring", run_parallel_monitoring,
                self._kernel(spans, kernel), factory, _SC, keep_trace=True)

    def verify(self, spans) -> List[List[str]]:
        """Reference verdicts and fingerprints for every (kernel,
        lifeguard) cell: the live run's own lifeguard for the capture
        lifeguard, the sequential oracle over the in-memory live trace
        for the other three."""
        for kernel, live in self.captures.items():
            for lifeguard in ALL_LIFEGUARDS:
                if lifeguard == self.CAPTURE_LIFEGUARD:
                    populated = live.lifeguard_obj
                else:
                    factory = lifeguard_factory(lifeguard)
                    populated = spans.call(
                        "oracle.replay", oracle_replay, live.trace,
                        lambda: factory(heap_range=_HEAP_RANGE))
                self.references[kernel, lifeguard] = (
                    verdict_projection(populated.violations, lifeguard),
                    populated.metadata_fingerprint())
        return []

    def steps(self) -> List[Step]:
        steps = []
        for kernel in self.kernels:
            steps.append(Step(f"write/{kernel}", self._write(kernel),
                              is_op=False))
            steps.append(Step(f"open/{kernel}", self._open(kernel),
                              is_op=False))
            steps.extend(Step(f"replay/{kernel}/{lifeguard}",
                              self._replay(kernel, lifeguard))
                         for lifeguard in ALL_LIFEGUARDS)
        return steps

    def _path(self, kernel: str) -> str:
        return os.path.join(self.workdir, f"{kernel}.plog")

    def _write(self, kernel):
        live = self.captures[kernel]

        def step(spans, state) -> Outcome:
            manifest = spans.call(
                "write_archive", write_archive, self._path(kernel),
                live.trace, nthreads=THREADS, config=_SC,
                meta={"workload": kernel, "seed": KERNEL_SEED,
                      "lifeguard": self.CAPTURE_LIFEGUARD,
                      "instructions": live.instructions})
            return Outcome(0, manifest, {
                "archive_bytes": os.path.getsize(self._path(kernel))})
        return step

    def _open(self, kernel):
        def open_and_decode(path):
            reader = TraceReader(path)
            reader.all_records()
            return reader

        def step(spans, state) -> Outcome:
            reader = spans.call("TraceReader", open_and_decode,
                                self._path(kernel))
            state[kernel] = reader
            return Outcome(0, reader.manifest)
        return step

    def _replay(self, kernel, lifeguard):
        def step(spans, state) -> Outcome:
            result = spans.call("replay_archive", replay_archive,
                                state[kernel], lifeguard)
            verdicts, fingerprint = self.references[kernel, lifeguard]
            failures = []
            if result.verdicts != verdicts:
                failures.append(f"{kernel}/{lifeguard}: replayed verdicts "
                                f"differ from the live capture's")
            if result.fingerprint != fingerprint:
                failures.append(f"{kernel}/{lifeguard}: replayed metadata "
                                f"differs from the live capture's")
            sim = {"verdicts": result.verdicts,
                   "fingerprint": result.fingerprint,
                   "violations": result.violations,
                   "records": result.records}
            return Outcome(result.records, sim, {}, failures)
        return step


class TracedStream(Scenario):
    name = "traced_stream"
    why = ("flight recorder streams every category to JSONL, read back "
           "and hashed: the only workload loading the trace layer")
    KERNELS = ("barnes", "swaptions")

    def __init__(self, seed: int, workdir=None, scale: ScalePreset = SCALE,
                 kernels=KERNELS):
        super().__init__(seed, workdir, scale)
        self.kernels = list(kernels)
        random.Random(seed).shuffle(self.kernels)
        self.hashes: Dict[str, str] = {}

    def steps(self) -> List[Step]:
        return [Step(f"traced/{kernel}", self._make_step(kernel))
                for kernel in self.kernels]

    def _make_step(self, kernel):
        path = os.path.join(self.workdir, f"{kernel}.jsonl")

        def step(spans, state) -> Outcome:
            workload = self._kernel(spans, kernel)
            writer = TraceWriter.to_path(path)
            try:
                result = spans.call(
                    "run_parallel_monitoring", run_parallel_monitoring,
                    workload, TaintCheck, _SC, tracer=writer)
            finally:
                writer.close()
            events = spans.call("read_trace", read_trace, path)
            digest = spans.call("trace_hash", trace_hash, events)
            failures = []
            if len(events) != writer.emitted:
                failures.append(f"{kernel}: read back {len(events)} events,"
                                f" the recorder emitted {writer.emitted}")
            expected = self.hashes.setdefault(kernel, digest)
            if digest != expected:
                failures.append(f"{kernel}: trace hash {digest[:16]} "
                                f"differs from the first pass's "
                                f"{expected[:16]}")
            counts = run_counts(result)
            counts["trace_events"] = writer.emitted
            counts["trace_bytes"] = os.path.getsize(path)
            sim = dict(run_sim(result), trace_hash=digest)
            return Outcome(result.instructions, sim, counts, failures)
        return step


SCENARIOS = {cls.name: cls
             for cls in (PaperSmall, DiffSweep, ReplayFanout, TracedStream)}
