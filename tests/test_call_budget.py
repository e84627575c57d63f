"""A deterministic budget on Python calls per simulated instruction.

Wall-clock gates cannot see a small regression on a shared host, but
cProfile call counts are bit-reproducible: the same cell makes the same
calls on every run. This test profiles one fixed cell — ``tiny`` barnes,
4 threads, parallel TaintCheck, SC — counts the calls to functions
defined under ``src/repro`` (generator resumptions included; builtins
and the standard library excluded) and divides by the instructions the
cell retires.

The ceiling is the count after the per-record hot path was collapsed to
one hop per stage, plus 5% headroom: measured on CPython 3.11 at 36.97
calls per instruction (the path before the collapse made 66.45). This
cell makes one record per instruction, so two extra calls per record
already exceed the headroom; a change that adds hops on purpose must
raise the ceiling and say why. Interpreters that inline comprehensions
(3.12+) count fewer calls, never more.
"""

from __future__ import annotations

import cProfile
import os
import pstats

import repro
from repro import (
    ScalePreset,
    SimulationConfig,
    TaintCheck,
    build_workload,
    run_parallel_monitoring,
)

#: Measured calls per instruction (CPython 3.11) plus 5% headroom.
MEASURED_CALLS_PER_INSTRUCTION = 36.97
CEILING = MEASURED_CALLS_PER_INSTRUCTION * 1.05

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def repro_calls_per_instruction() -> float:
    workload = build_workload("barnes", 4, scale=ScalePreset.TINY, seed=1)
    config = SimulationConfig.for_threads(4)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_parallel_monitoring(workload, TaintCheck, config)
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    calls = sum(ncalls for (filename, _line, _name), (_cc, ncalls, *_rest)
                in stats.items()
                if os.path.abspath(filename).startswith(_REPRO_DIR))
    return calls / result.instructions


def test_calls_per_instruction_within_budget():
    measured = repro_calls_per_instruction()
    assert measured <= CEILING, (
        f"{measured:.2f} repro calls per simulated instruction exceeds the "
        f"budget of {CEILING:.2f}: a hop was added to the per-record path")
