"""Golden digests of the simulator's exact output.

Each cell below is a deterministic simulation; its digest is a sha256
over *everything* it simulated — total cycles, instructions, both
time-bucket maps, every ``RunResult.stats`` entry (``perf.events_popped``
included) and the full violation list. A hot-path refactor that must
leave the event schedule and every simulated statistic bit-identical is
checked against these digests.

``tests/data/sim_golden.json`` was generated from the code before the
per-record hot path was collapsed; the ``schemes``, ``sweep`` and
``archive`` keys were added from the code before the ``repro.perf``
counter gate they replace was deleted. Regenerate it only for a change that
*intends* to move simulated results, and say so in the change log::

    PYTHONPATH=src python -m tests.test_sim_golden --regenerate
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import sys

import pytest

from repro import (
    AddrCheck,
    MemoryModel,
    ScalePreset,
    SimulationConfig,
    TaintCheck,
    TraceWriter,
    build_workload,
    run_no_monitoring,
    run_parallel_monitoring,
    trace_hash,
)
from repro.isa.registers import R0, R1
from repro.platform import run_timesliced_monitoring
from repro.replay import capture_archive
from repro.trace.diff import (
    differential_check,
    differential_sweep,
    report_payload,
)
from repro.workloads import CustomWorkload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "sim_golden.json")

THREADS = 4
KERNELS = ("barnes", "ocean", "swaptions")
LIFEGUARDS = {"taintcheck": TaintCheck, "addrcheck": AddrCheck, "none": None}
DIFF_SEEDS = (3, 17)
DIFF_LIFEGUARDS = ("addrcheck", "lockset", "memcheck", "taintcheck")

#: cell name -> (kernel, lifeguard name, memory model, scheme)
RUN_CELLS = {
    f"{kernel}/{lifeguard}/sc": (kernel, lifeguard, "sc", "parallel")
    for kernel in KERNELS for lifeguard in LIFEGUARDS
}
RUN_CELLS["barnes/taintcheck/tso"] = ("barnes", "taintcheck", "tso",
                                      "parallel")
RUN_CELLS["swaptions/taintcheck/timesliced"] = ("swaptions", "taintcheck",
                                                "sc", "timesliced")


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


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(canonical(value)).encode()).hexdigest()


def _config(model: str) -> SimulationConfig:
    if model == "tso":
        return SimulationConfig.for_threads(THREADS,
                                            memory_model=MemoryModel.TSO)
    return SimulationConfig.for_threads(THREADS)


def run_output(result) -> dict:
    """Every simulated figure of one run."""
    return {
        "cycles": result.total_cycles,
        "instructions": result.instructions,
        "app_buckets": result.app_buckets,
        "lifeguard_buckets": result.lifeguard_buckets,
        "stats": result.stats,
        "violations": [(v.kind, v.tid, v.rid, v.detail)
                       for v in result.violations],
    }


SCHEMES = ("parallel", "timesliced", "none")
SWEEP_SEEDS = range(5)
ARCHIVE_SEEDS = range(5)
ARCHIVE_TOTALS = ("stream_bytes", "arc_bytes", "naive_arc_bytes")


def _figure5_workload():
    """The paper's Figure 5 TSO walkthrough: each thread stores to its
    own word, then loads the other's and stores what it read."""
    a, b = 0x1000_0000, 0x1000_1000

    def thread0(api, workload):
        yield from api.loadi(R0)
        yield from api.store(a, R0, value=1)
        yield from api.load(R1, b)
        yield from api.store(a + 64, R1, value=0)

    def thread1(api, workload):
        yield from api.loadi(R0)
        yield from api.store(b, R0, value=1)
        yield from api.load(R1, a)
        yield from api.store(b + 64, R1, value=0)

    return CustomWorkload([thread0, thread1], name="figure5")


def _tainted_factory(costs=None, heap_range=None):
    """TaintCheck with thread 0's first word tainted from the start."""
    lifeguard = TaintCheck(costs=costs, heap_range=heap_range)
    lifeguard.metadata.set_access(0x1000_0000, 4, 1)
    return lifeguard


#: Workloads run under every scheme: name -> () -> (config, factory,
#: workload).
SCHEME_WORKLOADS = {
    "figure5": lambda: (
        SimulationConfig.for_threads(2, memory_model=MemoryModel.TSO),
        _tainted_factory, _figure5_workload()),
    "taint_pipeline": lambda: (
        SimulationConfig.for_threads(3), TaintCheck,
        build_workload("taint_pipeline", 3, scale=ScalePreset.TINY, seed=1)),
}


def scheme_cell(name: str) -> dict:
    """One ``workload/scheme`` cell of :data:`SCHEME_WORKLOADS`."""
    workload_name, scheme = name.split("/")
    config, factory, workload = SCHEME_WORKLOADS[workload_name]()
    if scheme == "none":
        return run_output(run_no_monitoring(workload, config))
    runner = (run_timesliced_monitoring if scheme == "timesliced"
              else run_parallel_monitoring)
    return run_output(runner(workload, factory, config))


SCHEME_CELLS = tuple(f"{workload}/{scheme}" for workload in SCHEME_WORKLOADS
                     for scheme in SCHEMES)


def sweep_output() -> list:
    """Report payloads of the five-seed, four-lifeguard sweep."""
    return [report_payload(report)
            for report in differential_sweep(SWEEP_SEEDS)]


def archive_totals(directory: str) -> dict:
    """Exact archive sizes of the seeded captures, per seed."""
    totals = {}
    for seed in ARCHIVE_SEEDS:
        _result, manifest = capture_archive(
            os.path.join(directory, f"seed{seed}.plog"), seed)
        totals[str(seed)] = {key: manifest["totals"][key]
                             for key in ARCHIVE_TOTALS}
    return totals


def run_cell(name: str) -> dict:
    kernel, lifeguard, model, scheme = RUN_CELLS[name]
    workload = build_workload(kernel, THREADS, scale=ScalePreset.TINY, seed=1)
    config = _config(model)
    cls = LIFEGUARDS[lifeguard]
    if cls is None:
        return run_output(run_no_monitoring(workload, config))
    runner = (run_timesliced_monitoring if scheme == "timesliced"
              else run_parallel_monitoring)
    return run_output(runner(workload, cls, config))


def flight_recorder_hash() -> str:
    """trace_hash of a parallel TaintCheck run with every category on."""
    tracer = TraceWriter(keep=True)
    run_parallel_monitoring(
        build_workload("swaptions", 2, scale=ScalePreset.TINY, seed=1),
        TaintCheck, SimulationConfig.for_threads(2), tracer=tracer)
    tracer.close()
    return trace_hash(tracer.events)


def diff_output(seed: int, lifeguard: str) -> dict:
    report = differential_check(seed, lifeguard)
    return {"verdicts": report.verdicts, "instructions": report.instructions,
            "perf": report.perf, "failures": report.failures}


def generate() -> dict:
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        archives = archive_totals(directory)
    return {
        "runs": {name: digest(run_cell(name)) for name in RUN_CELLS},
        "schemes": {name: digest(scheme_cell(name))
                    for name in SCHEME_CELLS},
        "sweep": digest(sweep_output()),
        "archive": archives,
        "flight_recorder": flight_recorder_hash(),
        "differential": {
            f"{seed}/{lifeguard}": digest(diff_output(seed, lifeguard))
            for seed in DIFF_SEEDS for lifeguard in DIFF_LIFEGUARDS
        },
    }


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(RUN_CELLS))
def test_run_cell_matches_golden(name):
    assert digest(run_cell(name)) == _golden()["runs"][name]


@pytest.mark.parametrize("name", SCHEME_CELLS)
def test_scheme_cell_matches_golden(name):
    assert digest(scheme_cell(name)) == _golden()["schemes"][name]


def test_sweep_payloads_match_golden():
    output = sweep_output()
    assert not any(payload["failures"] for payload in output)
    assert digest(output) == _golden()["sweep"]


def test_archive_sizes_match_golden(tmp_path):
    totals = archive_totals(str(tmp_path))
    assert totals == _golden()["archive"]
    # the transitive-reduction arc codec must beat the naive full-arc one
    assert (sum(seed["arc_bytes"] for seed in totals.values())
            < sum(seed["naive_arc_bytes"] for seed in totals.values()))


def test_flight_recorder_trace_hash_matches_golden():
    assert flight_recorder_hash() == _golden()["flight_recorder"]


@pytest.mark.parametrize("seed", DIFF_SEEDS)
@pytest.mark.parametrize("lifeguard", DIFF_LIFEGUARDS)
def test_differential_verdicts_match_golden(seed, lifeguard):
    output = diff_output(seed, lifeguard)
    assert not output["failures"]
    assert digest(output) == _golden()["differential"][f"{seed}/{lifeguard}"]


def test_golden_covers_every_cell():
    golden = _golden()
    assert set(golden["runs"]) == set(RUN_CELLS)
    assert set(golden["schemes"]) == set(SCHEME_CELLS)
    assert set(golden["archive"]) == {str(seed) for seed in ARCHIVE_SEEDS}
    assert set(golden["differential"]) == {
        f"{seed}/{lifeguard}" for seed in DIFF_SEEDS
        for lifeguard in DIFF_LIFEGUARDS}


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python -m tests.test_sim_golden --regenerate")
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(generate(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
