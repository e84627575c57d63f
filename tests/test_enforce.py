"""Unit tests for order-enforcement primitives: progress table, version
store, syscall range table, and the ConflictAlert hub."""

import pytest

from repro.capture.conflict_alert import CAHub
from repro.capture.events import RecordKind
from repro.capture.log_buffer import LogBuffer
from repro.capture.order_capture import OrderCapture
from repro.common.config import LogBufferConfig, SimulationConfig
from repro.common.errors import SimulationError
from repro.cpu.engine import Engine
from repro.enforce.progress import ProgressTable
from repro.enforce.range_table import SyscallRangeTable
from repro.enforce.versions import VersionStore
from repro.isa.instructions import HLEventKind


class TestProgressTable:
    def test_initial_progress_is_zero(self):
        table = ProgressTable(Engine(), [0, 1])
        assert table.get(0) == 0

    def test_publish_is_monotone(self):
        engine = Engine()
        table = ProgressTable(engine, [0])
        table.publish(0, 10)
        table.publish(0, 5)  # stale publish ignored
        assert table.get(0) == 10
        assert table.publishes == 1

    def test_satisfied_and_first_unmet(self):
        table = ProgressTable(Engine(), [0, 1])
        table.publish(1, 7)
        assert table.satisfied(1, 7)
        assert not table.satisfied(1, 8)
        assert table.first_unmet([(1, 5), (1, 9)]) == (1, 9)
        assert table.first_unmet([(1, 5)]) is None

    def test_unknown_thread_raises(self):
        table = ProgressTable(Engine(), [0])
        with pytest.raises(SimulationError):
            table.satisfied(7, 1)

    def test_publish_to_unknown_thread_raises_simulation_error(self):
        table = ProgressTable(Engine(), [0])
        with pytest.raises(SimulationError, match="unknown thread 7"):
            table.publish(7, 1)
        assert table.snapshot() == {0: 0}
        assert table.publishes == 0

    def test_publish_notifies_waiters(self):
        engine = Engine()
        table = ProgressTable(engine, [0])
        woken = []
        class FakeActor:
            def wake(self):
                woken.append(True)
        table.condition(0).add_waiter(FakeActor())
        table.publish(0, 3)
        engine.run()
        assert woken

    def test_snapshot(self):
        table = ProgressTable(Engine(), [0, 1])
        table.publish(0, 2)
        assert table.snapshot() == {0: 2, 1: 0}


class TestVersionStore:
    def test_produce_then_consume(self):
        store = VersionStore(Engine())
        store.produce(1, 0x100, 64, [0] * 64)
        assert store.available(1)
        addr, length, snapshot = store.consume(1)
        assert (addr, length) == (0x100, 64)

    def test_consume_before_produce_raises(self):
        with pytest.raises(SimulationError):
            VersionStore(Engine()).consume(1)

    def test_double_produce_raises(self):
        store = VersionStore(Engine())
        store.produce(1, 0x100, 64, [])
        with pytest.raises(SimulationError):
            store.produce(1, 0x100, 64, [])

    def test_version_survives_for_multiple_consumers(self):
        store = VersionStore(Engine())
        store.produce(1, 0x100, 64, [])
        store.consume(1)
        store.consume(1)
        assert store.consumed == 2

    def test_produce_notifies_waiters(self):
        engine = Engine()
        store = VersionStore(engine)
        woken = []
        class FakeActor:
            def wake(self):
                woken.append(True)
        store.condition(5).add_waiter(FakeActor())
        store.produce(5, 0x100, 64, [])
        engine.run()
        assert woken


class TestRangeTable:
    def test_racing_access_detected(self):
        table = SyscallRangeTable()
        table.insert(1, issuer_tid=0, ranges=[(0x100, 32)])
        assert table.racing_access(1, 0x110, 4) == (0, 1)

    def test_issuer_does_not_race_itself(self):
        table = SyscallRangeTable()
        table.insert(1, issuer_tid=0, ranges=[(0x100, 32)])
        assert table.racing_access(0, 0x110, 4) is None

    def test_disjoint_access_is_clean(self):
        table = SyscallRangeTable()
        table.insert(1, issuer_tid=0, ranges=[(0x100, 32)])
        assert table.racing_access(1, 0x200, 4) is None

    def test_remove_clears_entry(self):
        table = SyscallRangeTable()
        table.insert(1, issuer_tid=0, ranges=[(0x100, 32)])
        table.remove(1)
        assert table.racing_access(1, 0x110, 4) is None
        assert len(table) == 0

    def test_boundary_overlap(self):
        table = SyscallRangeTable()
        table.insert(1, issuer_tid=0, ranges=[(0x100, 32)])
        assert table.racing_access(1, 0x11F, 1) is not None
        assert table.racing_access(1, 0x120, 1) is None


def make_hub(nthreads=3):
    engine = Engine()
    hub = CAHub(engine)
    config = SimulationConfig()
    captures = {}
    for tid in range(nthreads):
        log = LogBuffer(engine, LogBufferConfig(), f"log{tid}")
        capture = OrderCapture(tid, config, log, {}, {})
        hub.register(tid, capture)
        captures[tid] = capture
    return engine, hub, captures


class TestCAHub:
    def test_broadcast_inserts_marks_into_other_streams(self):
        _, hub, captures = make_hub()
        ca_id = hub.broadcast(0, HLEventKind.FREE, RecordKind.HL_BEGIN,
                              ((0x100, 64),))
        assert hub.marks_inserted == 2
        for tid in (1, 2):
            captures[tid].flush()
            record = captures[tid].log.pop()
            assert record.kind == RecordKind.CA_MARK
            assert record.ca_id == ca_id
        captures[0].flush()
        assert len(captures[0].log) == 0  # issuer gets no mark

    def test_barrier_completes_after_all_arrive(self):
        _, hub, _ = make_hub()
        ca_id = hub.broadcast(0, HLEventKind.MALLOC, RecordKind.HL_END, ())
        state = hub.state(ca_id)
        assert not state.all_arrived
        hub.lifeguard_arrive(ca_id, 1)
        assert not state.all_arrived
        hub.lifeguard_arrive(ca_id, 2)
        assert state.all_arrived
        hub.mark_complete(ca_id)
        assert state.complete
        assert hub.pending_barriers() == 0

    def test_exited_threads_get_no_mark_but_still_gate_the_barrier(self):
        # A thread whose *application* side exited receives no CA_MARK,
        # but its lifeguard may still be draining records that are
        # coherence-ordered before the broadcast — so it stays a
        # participant until the lifeguard exits (which grants arrival).
        _, hub, _ = make_hub()
        hub.thread_exited(2)
        ca_id = hub.broadcast(0, HLEventKind.FREE, RecordKind.HL_BEGIN, ())
        state = hub.state(ca_id)
        assert state.participants == {1, 2}
        assert state.marks_sent == {1}
        assert hub.marks_inserted == 1
        hub.lifeguard_arrive(ca_id, 1)
        assert not state.all_arrived
        hub.lifeguard_exited(2)
        assert state.all_arrived

    def test_lost_mark_is_diagnosed_at_lifeguard_exit(self):
        # A mark that was sent but never arrived at by the time the
        # victim's lifeguard exits means the broadcast was lost — the
        # hub must raise rather than silently dissolve the barrier.
        _, hub, _ = make_hub()
        ca_id = hub.broadcast(0, HLEventKind.FREE, RecordKind.HL_BEGIN, ())
        assert 2 in hub.state(ca_id).marks_sent
        with pytest.raises(SimulationError, match="CA#.*lost"):
            hub.lifeguard_exited(2)

    def test_lifeguard_exited_counts_as_arrival(self):
        # Exit grants arrival only for markless participants (the mark
        # was never sent because the app side exited first); a sent mark
        # must actually be reached — see the lost-mark test above.
        _, hub, _ = make_hub()
        hub.thread_exited(2)
        ca_id = hub.broadcast(0, HLEventKind.FREE, RecordKind.HL_BEGIN, ())
        hub.lifeguard_arrive(ca_id, 1)
        hub.lifeguard_exited(2)
        assert hub.state(ca_id).all_arrived

    def test_ca_ids_are_unique_and_ordered(self):
        _, hub, _ = make_hub()
        first = hub.broadcast(0, HLEventKind.FREE, RecordKind.HL_BEGIN, ())
        second = hub.broadcast(1, HLEventKind.FREE, RecordKind.HL_BEGIN, ())
        assert second > first
