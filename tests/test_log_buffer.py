"""Unit tests for the event-log buffer and record sizing."""

import pytest

from repro.capture.events import Record, RecordKind, record_size_bytes
from repro.capture.log_buffer import LogBuffer
from repro.common.config import LogBufferConfig
from repro.cpu.engine import Engine


def make_record(rid=1, kind=RecordKind.LOAD, arcs=0):
    record = Record(0, rid, kind)
    for index in range(arcs):
        record.add_arc(1, index + 1)
    return record


class TestRecordSizes:
    def test_plain_record_is_one_byte(self):
        assert record_size_bytes(make_record()) == 1

    def test_each_arc_adds_four_bytes(self):
        assert record_size_bytes(make_record(arcs=2)) == 9

    def test_highlevel_records_are_bigger(self):
        assert record_size_bytes(make_record(kind=RecordKind.HL_BEGIN)) == 16
        assert record_size_bytes(make_record(kind=RecordKind.CA_MARK)) == 16

    def test_version_annotations_add_bytes(self):
        record = make_record()
        record.consume_version = (1, 0x100, 64)
        assert record_size_bytes(record) == 9
        record.produce_versions = [(2, 0x100, 64)]
        assert record_size_bytes(record) == 17


class TestLogBuffer:
    def make_log(self, size_bytes=8):
        engine = Engine()
        return engine, LogBuffer(
            engine, LogBufferConfig(size_bytes=size_bytes), "log")

    def test_fifo_order(self):
        _, log = self.make_log()
        first, second = make_record(1), make_record(2)
        assert log.try_append(first)
        assert log.try_append(second)
        assert log.pop() is first
        assert log.pop() is second

    def test_append_fails_when_full(self):
        _, log = self.make_log(size_bytes=2)
        assert log.try_append(make_record(1))
        assert log.try_append(make_record(2))
        assert not log.try_append(make_record(3))
        assert len(log) == 2

    def test_pop_frees_space(self):
        _, log = self.make_log(size_bytes=1)
        log.try_append(make_record(1))
        assert not log.try_append(make_record(2))
        log.pop()
        assert log.try_append(make_record(2))

    def test_occupancy_counts_bytes_not_records(self):
        _, log = self.make_log(size_bytes=32)
        log.try_append(make_record(1, kind=RecordKind.HL_BEGIN))  # 16 bytes
        assert log.occupied_bytes == 16
        assert not log.try_append(make_record(2, arcs=4))  # 17 bytes

    def test_peek_does_not_consume(self):
        _, log = self.make_log()
        record = make_record(1)
        log.try_append(record)
        assert log.peek() is record
        assert len(log) == 1

    def test_peek_empty_returns_none(self):
        _, log = self.make_log()
        assert log.peek() is None

    def test_close_and_drained(self):
        _, log = self.make_log()
        log.try_append(make_record(1))
        log.close()
        assert log.closed and not log.drained
        log.pop()
        assert log.drained

    def test_statistics(self):
        _, log = self.make_log(size_bytes=64)
        log.try_append(make_record(1))
        log.try_append(make_record(2, arcs=1))
        assert log.total_records == 2
        assert log.total_bytes == 6
        assert log.peak_bytes == 6
        log.pop()
        assert log.peak_bytes == 6  # peak is sticky

    def test_append_notifies_not_empty_waiters(self):
        engine, log = self.make_log()
        fired = []
        class FakeActor:
            def wake(self):
                fired.append(True)
        log.not_empty.add_waiter(FakeActor())
        log.try_append(make_record(1))
        engine.run()
        assert fired

    def test_pop_notifies_not_full_waiters(self):
        engine, log = self.make_log(size_bytes=1)
        log.try_append(make_record(1))
        fired = []
        class FakeActor:
            def wake(self):
                fired.append(True)
        log.not_full.add_waiter(FakeActor())
        log.pop()
        engine.run()
        assert fired


class TestCodecAppend:
    """With ``use_codec=True`` the log sizes records by encoding them;
    a refused append must leave the encoder exactly as it was."""

    def test_refused_appends_leave_encoder_statistics_untouched(self):
        engine = Engine()
        log = LogBuffer(engine, LogBufferConfig(size_bytes=12,
                                                use_codec=True), "log")
        outcomes = [log.try_append(make_record(rid, kind=RecordKind.MOVRR,
                                               arcs=1))
                    for rid in range(1, 6)]
        assert outcomes == [True, False, False, False, False]
        encoder = log._encoder
        assert encoder.records == 1
        assert encoder.arcs == 1
        assert encoder.arc_bytes == 4
        assert encoder.bytes == log.total_bytes == log.occupied_bytes

    def test_refused_append_does_not_advance_delta_contexts(self):
        engine = Engine()
        log = LogBuffer(engine, LogBufferConfig(size_bytes=12,
                                                use_codec=True), "log")
        first = Record(0, 1, RecordKind.LOAD)
        first.addr, first.size, first.rd = 0x100, 4, 0
        assert log.try_append(first)
        before = log._encoder.checkpoint()
        far = Record(0, 2, RecordKind.LOAD)
        far.addr, far.size, far.rd = 0x9000_0000, 4, 0
        far.add_arc(1, 1)
        far.add_arc(2, 1)
        assert not log.try_append(far)
        assert log._encoder.checkpoint() == before
