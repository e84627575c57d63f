"""Golden digests of the simulator's exact output.

Each cell below is a deterministic simulation; its digest is a sha256
over *everything* it simulated — total cycles, instructions, both
time-bucket maps, every ``RunResult.stats`` entry (``perf.events_popped``
included) and the full violation list. A hot-path refactor that must
leave the event schedule and every simulated statistic bit-identical is
checked against these digests.

``tests/data/sim_golden.json`` was generated from the code before the
per-record hot path was collapsed. Regenerate it only for a change that
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
from repro.platform import run_timesliced_monitoring
from repro.trace.diff import differential_check

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
    return {
        "runs": {name: digest(run_cell(name)) for name in RUN_CELLS},
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
