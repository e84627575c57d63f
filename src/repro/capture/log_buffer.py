"""The per-thread circular event-log buffer.

Models LBA's log buffer in the shared L2: a fixed byte budget (64 KB by
default, ~1 byte per compressed record). The producing application core
stalls when a record does not fit; the consuming lifeguard core stalls
when the log is empty. Both directions are exposed as engine conditions
(``not_full`` / ``not_empty``) so stalled cores sleep instead of
polling.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.capture.events import (
    ARC_BYTES,
    KIND_BYTES,
    VERSION_ANNOTATION_BYTES,
    Record,
)
from repro.common.config import LogBufferConfig
from repro.cpu.engine import Condition, Engine


class LogBuffer:
    """Bounded FIFO of event records with byte-occupancy accounting."""

    __slots__ = ("engine", "capacity_bytes", "name", "faults", "records_lost",
                 "entries", "_occupied_bytes", "_encoder", "not_full",
                 "not_empty", "closed", "total_records", "total_bytes",
                 "peak_bytes")

    def __init__(self, engine: Engine, config: LogBufferConfig, name: str,
                 faults=None):
        self.engine = engine
        self.capacity_bytes = config.size_bytes
        self.name = name
        #: Optional :class:`~repro.faults.FaultPlan` armed at the
        #: ``log_append`` site (forced overflow / record loss).
        self.faults = faults
        #: Records silently lost to an injected ``log_append:drop`` fault.
        self.records_lost = 0
        #: ``(record, size)`` in log order. The consumer reads the head
        #: in place (``entries[0][0]``); only :meth:`pop` removes it.
        self.entries = deque()
        self._occupied_bytes = 0
        self._encoder = None
        if config.use_codec:
            from repro.capture.compression import RecordEncoder
            self._encoder = RecordEncoder()
        self.not_full = Condition(f"{name}.not_full")
        self.not_empty = Condition(f"{name}.not_empty")
        #: Set by the producing side when the thread exits, so a consumer
        #: finding the log empty can distinguish "stall" from "finished".
        self.closed = False
        # Lifetime statistics.
        self.total_records = 0
        self.total_bytes = 0
        self.peak_bytes = 0

    # -- producer side -------------------------------------------------------

    def try_append(self, record: Record) -> bool:
        """Append if it fits; returns False (and changes nothing) if full."""
        if self.faults is not None:
            fault = self.faults.fire(
                "log_append", tid=record.tid, name=self.name,
                context=f"{self.name} <- t{record.tid}#{record.rid}")
            if fault is not None:
                if fault.action == "overflow":
                    return False  # pretend the buffer is full
                # "drop": accept the record but lose it — trace loss.
                self.records_lost += 1
                return True
        if self._encoder is not None:
            # Encode tentatively: a failed append must not advance the
            # encoder's delta contexts or any of its statistics.
            saved = self._encoder.checkpoint()
            size = len(self._encoder.encode(record))
            if self._occupied_bytes + size > self.capacity_bytes:
                self._encoder.rollback(saved)
                return False
        else:
            # record_size_bytes(record), summed inline: one hop fewer
            # per record.
            size = KIND_BYTES[record.kind]
            if record.arcs:
                size += ARC_BYTES * len(record.arcs)
            if record.consume_version is not None:
                size += VERSION_ANNOTATION_BYTES
            if record.produce_versions:
                size += VERSION_ANNOTATION_BYTES * len(record.produce_versions)
            if self._occupied_bytes + size > self.capacity_bytes:
                return False
        self.entries.append((record, size))
        self._occupied_bytes += size
        self.total_records += 1
        self.total_bytes += size
        if self._occupied_bytes > self.peak_bytes:
            self.peak_bytes = self._occupied_bytes
        if self.not_empty.waiters:
            self.not_empty.notify_all(self.engine)
        return True

    def close(self) -> None:
        """Producer signals no more records will ever arrive."""
        self.closed = True
        self.not_empty.notify_all(self.engine)

    # -- consumer side -------------------------------------------------------

    def peek(self) -> Optional[Record]:
        if not self.entries:
            return None
        return self.entries[0][0]

    def pop(self) -> Record:
        record, size = self.entries.popleft()
        self._occupied_bytes -= size
        if self.not_full.waiters:
            self.not_full.notify_all(self.engine)
        return record

    # -- introspection -------------------------------------------------------

    @property
    def occupied_bytes(self) -> int:
        return self._occupied_bytes

    def __len__(self):
        return len(self.entries)

    @property
    def drained(self) -> bool:
        """True once the producer closed the log and everything was consumed."""
        return self.closed and not self.entries
