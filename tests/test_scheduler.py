"""Calendar-queue scheduler tests: FIFO invariants, overflow promotion,
and budget/watchdog trips across ring-wrap boundaries."""

import pytest

from repro.common.errors import DeadlockError, SimulationError, \
    SimulationTimeout
from repro.cpu.engine import _RING_SIZE, CoreActor, Engine, Watchdog


class UncomparableCallback:
    """A callback that refuses to be ordered: if the scheduler ever
    compares two entries down to the callback field, this blows up
    instead of silently producing an arbitrary order."""

    def __init__(self, tag, order):
        self.tag = tag
        self.order = order

    def __call__(self):
        self.order.append(self.tag)

    def _no_ordering(self, other):
        raise AssertionError("scheduler compared callback objects")

    __lt__ = __le__ = __gt__ = __ge__ = _no_ordering


class TestBucketFifo:
    def test_uncomparable_callbacks_same_cycle_fifo(self):
        engine = Engine()
        order = []
        for tag in range(10):
            engine.schedule(5, UncomparableCallback(tag, order))
        engine.run()
        assert order == list(range(10))

    def test_uncomparable_callbacks_same_cycle_fifo_overflow(self):
        # Far-future entries ride the overflow heap; its (cycle, seq)
        # prefix must always break ties before the callback is reached.
        engine = Engine()
        order = []
        for tag in range(10):
            engine.schedule(_RING_SIZE + 7, UncomparableCallback(tag, order))
        engine.run()
        assert engine.now == _RING_SIZE + 7
        assert order == list(range(10))

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1, lambda: None)

    def test_promoted_event_precedes_same_cycle_late_schedule(self):
        # An event scheduled at t=0 for cycle 2000 (via the overflow
        # heap) was scheduled *earlier* than one scheduled at t=1990 for
        # the same cycle 2000 — promotion must preserve that FIFO order.
        engine = Engine()
        order = []
        engine.schedule(2000, lambda: order.append("far"))
        engine.schedule(1990, lambda: engine.schedule(
            10, lambda: order.append("late")))
        engine.run()
        assert engine.now == 2000
        assert order == ["far", "late"]


class TestOverflowPromotion:
    def test_empty_ring_fast_forwards_to_overflow_head(self):
        engine = Engine()
        fired = []
        engine.schedule(4 * _RING_SIZE, lambda: fired.append(engine.now))
        assert engine.pending_events == 1
        engine.run()
        assert fired == [4 * _RING_SIZE]
        assert engine.events_popped == 1

    def test_far_future_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(5000, lambda: fired.append(("b", engine.now)))
        engine.schedule(1500, lambda: fired.append(("a", engine.now)))
        engine.schedule(3, lambda: fired.append(("near", engine.now)))
        engine.run()
        assert fired == [("near", 3), ("a", 1500), ("b", 5000)]

    def test_pending_events_counts_ring_and_overflow(self):
        engine = Engine()
        engine.schedule(1, lambda: None)
        engine.schedule(_RING_SIZE + 1, lambda: None)
        assert engine.pending_events == 2
        engine.run()
        assert engine.pending_events == 0


class Forever(CoreActor):
    """Delays forever in fixed strides (budget-tripping workhorse)."""

    def __init__(self, engine, name, stride):
        self.stride = stride
        super().__init__(engine, name)

    def step(self):
        return ("delay", self.stride, "x")


class SpinnerNoRetire(CoreActor):
    """Keeps the queue busy but never retires (livelock workhorse)."""

    def step(self):
        return ("delay", 10, "x")


class TestBudgetAndWatchdogTrips:
    """Budgets and watchdogs trip on an exact cycle, with exact
    crash-report contents, including across ring-wrap boundaries. The
    expected values are the ones the global ``(cycle, seq)`` heap
    scheduler produced before the calendar queue replaced it."""

    # (stride, budget) straddling the ring-wrap boundary at 1024, then
    # (trip cycle, events popped before the trip).
    CASES = [(7, 100, 105, 15),
             (7, 1023, 1029, 147),
             (7, 1024, 1029, 147),
             (7, 1025, 1029, 147),
             (13, 2 * _RING_SIZE + 5, 2054, 158),
             (_RING_SIZE + 3, 3 * _RING_SIZE, 3081, 3)]

    @pytest.mark.parametrize("stride,budget,cycle,popped", CASES)
    def test_budget_trip(self, stride, budget, cycle, popped):
        engine = Engine()
        Forever(engine, "f", stride).start()
        with pytest.raises(SimulationTimeout) as exc:
            engine.run(max_cycles=budget)
        assert exc.value.cycle == cycle
        assert exc.value.pending_events == 1 == engine.pending_events
        assert str(exc.value) == (
            f"simulation exceeded max_cycles={budget} at cycle {cycle} "
            f"with 1 pending events")
        assert engine.now == cycle
        assert engine.events_popped == popped

    def test_budget_retrip_on_resume(self):
        # Resuming with a still-exceeded budget must re-trip on the same
        # already-committed cycle, not silently execute the event.
        engine = Engine()
        Forever(engine, "f", 7).start()
        for _ in range(2):
            with pytest.raises(SimulationTimeout) as exc:
                engine.run(max_cycles=100)
            assert exc.value.cycle == 105
            assert exc.value.pending_events == 1 == engine.pending_events
            assert engine.now == 105
            assert engine.events_popped == 15

    def test_livelock_trip(self):
        engine = Engine(watchdog=Watchdog(window=50))
        SpinnerNoRetire(engine, "spin").start()
        with pytest.raises(DeadlockError) as exc:
            engine.run()
        assert exc.value.kind == "livelock"
        assert exc.value.waiting == {"spin": "not waiting (busy)"}
        assert str(exc.value) == (
            "livelock: no actor retired anything for 60 cycles (window=50) "
            "while events kept firing | waiting: spin: not waiting (busy)")
        assert engine.now == 60
        assert engine.events_popped == 7
