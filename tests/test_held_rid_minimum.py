"""The accelerators' held-RID minimum is exact after every step.

Delayed advertising publishes ``min(RIDs held by IT/IF) - 1``. Both
accelerators keep that minimum incrementally instead of scanning their
rows and entries per record; these properties recompute it by brute
force after every step and require equality:

* directly, over random record streams and flushes (Hypothesis);
* inside whole simulations — RacyProgram seeds under every lifeguard in
  both monitored schemes, and the paper kernels at ``tiny`` — after
  every record a lifeguard core processes.

The sequence of progress values those minima publish is pinned
separately by the flight-recorder hash in ``tests/test_sim_golden.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    MemCheck,
    ScalePreset,
    SimulationConfig,
    TaintCheck,
    build_workload,
    run_parallel_monitoring,
)
from repro.accel.idempotent import IdempotentFilter
from repro.accel.inheritance import InheritanceTracking
from repro.capture.events import Record
from repro.cpu.lifeguard_core import LifeguardCore
from repro.isa.instructions import (
    alu,
    critical_use,
    load,
    loadi,
    movrr,
    rmw,
    store,
    thread_exit,
)
from repro.platform import run_timesliced_monitoring
from repro.trace.diff import RacyProgram, lifeguard_factory


def it_brute_min(it: InheritanceTracking, tid: int):
    held = [row.rid for (row_tid, _reg), row in it._rows.items()
            if row_tid == tid and row.rid is not None]
    return min(held) if held else None


def if_brute_min(iff: IdempotentFilter):
    if not iff.track_rids or not iff._cache:
        return None
    return min(iff._cache.values())


def assert_exact(it: InheritanceTracking, iff: IdempotentFilter) -> None:
    tids = {tid for tid, _reg in it._rows} | set(it.held)
    for tid in tids:
        assert it.min_held_rid(tid) == it_brute_min(it, tid), tid
    assert iff.min_held_rid() == if_brute_min(iff)


# -- direct properties ------------------------------------------------------------

_REG = st.integers(0, 5)
_ADDR = st.sampled_from([0x100, 0x104, 0x140, 0x200])

_OPS = st.one_of(
    st.builds(load, _REG, _ADDR),
    st.builds(store, _ADDR, _REG),
    st.builds(rmw, _REG, _ADDR, st.just(1)),
    st.builds(movrr, _REG, _REG),
    st.builds(alu, _REG, _REG),
    st.builds(alu, _REG, _REG, _REG),
    st.builds(loadi, _REG),
    st.builds(critical_use, _REG),
)

#: One step: feed a record of thread 0 or 1, or run one of the flushes
#: the lifeguard core issues.
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("op"), st.integers(0, 1), _OPS),
    st.tuples(st.just("exit"), st.integers(0, 1), st.none()),
    st.tuples(st.just("stale"), st.integers(0, 1), st.integers(0, 40)),
    st.tuples(st.just("rid_holding"), st.none(), st.none()),
    st.tuples(st.just("all"), st.none(), st.none()),
), max_size=60)


@settings(max_examples=200, deadline=None)
@given(_STEPS)
def test_it_minimum_is_exact_over_random_streams(steps):
    it = InheritanceTracking()
    rids = {0: 0, 1: 0}
    for action, tid, arg in steps:
        if action == "op" or action == "exit":
            rids[tid] += 1
            op = arg if action == "op" else thread_exit()
            it.process(Record.from_op(tid, rids[tid], op))
        elif action == "stale":
            it.flush_stale(tid, arg)
        elif action == "rid_holding":
            it.flush_rid_holding()
        else:
            it.flush_all()
        for check_tid in (0, 1):
            assert it.min_held_rid(check_tid) == it_brute_min(it, check_tid)
            counts = {}
            for (row_tid, _reg), row in it._rows.items():
                if row_tid == check_tid and row.rid is not None:
                    counts[row.rid] = counts.get(row.rid, 0) + 1
            assert it.held.get(check_tid, {}) == counts


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("check"), st.integers(0, 12), st.integers(1, 30)),
    st.tuples(st.just("overlap"), st.integers(0, 12), st.integers(1, 8)),
    st.tuples(st.just("all"), st.none(), st.none()),
), max_size=80), st.integers(1, 6))
def test_if_minimum_is_exact_over_random_checks(steps, entries):
    # RIDs are drawn out of order, as a time-sliced consumer interleaving
    # several threads presents them.
    iff = IdempotentFilter(entries=entries, track_rids=True)
    for action, a, b in steps:
        if action == "check":
            iff.check((a * 4, 4), b)
        elif action == "overlap":
            iff.invalidate_overlapping(a * 4, b)
        else:
            iff.invalidate_all()
        assert iff.min_held_rid() == if_brute_min(iff)


# -- inside whole simulations ------------------------------------------------------


@pytest.fixture
def checked_cores(monkeypatch):
    """Check both minima after every record any lifeguard core processes."""
    original = LifeguardCore._process_record
    seen = []

    def process_and_check(self, record):
        cycles = original(self, record)
        assert_exact(self.it, self.iff)
        seen.append(record)
        return cycles

    monkeypatch.setattr(LifeguardCore, "_process_record", process_and_check)
    return seen


@pytest.mark.parametrize("seed", [1, 5, 9, 23])
@pytest.mark.parametrize("lifeguard", ["addrcheck", "lockset", "memcheck",
                                       "taintcheck"])
@pytest.mark.parametrize("runner", [run_parallel_monitoring,
                                    run_timesliced_monitoring])
def test_minimum_is_exact_in_racy_programs(checked_cores, seed, lifeguard,
                                           runner):
    program = RacyProgram.generate(seed, nthreads=3, length=24)
    runner(program.workload(), lifeguard_factory(lifeguard),
           SimulationConfig.for_threads(3))
    assert checked_cores


@pytest.mark.parametrize("kernel", ["barnes", "ocean", "swaptions"])
@pytest.mark.parametrize("lifeguard", [TaintCheck, MemCheck])
def test_minimum_is_exact_in_paper_kernels(checked_cores, kernel, lifeguard):
    run_parallel_monitoring(
        build_workload(kernel, 2, scale=ScalePreset.TINY, seed=1),
        lifeguard, SimulationConfig.for_threads(2))
    assert checked_cores
