"""Inheritance Tracking (IT).

IT shadows the application's registers in hardware: a load into ``r``
records "``r`` inherits from address A" *without* delivering the event;
register movement and computation propagate and merge rows; a store of
an inheriting register delivers one condensed ``mem_inherit`` event
instead of the whole chain (Figure 3 of the paper).

A row describes the pending metadata of one register as an OR over

* up to :data:`MAX_SOURCES` *inherits-from addresses* (whose metadata
  will be read when the row is materialized), and
* up to :data:`MAX_REG_TERMS` *live registers* (whose lifeguard register
  metadata is current and will be read at materialization).

An empty row is an immediate (metadata-clear). Live-register terms stay
valid because any write to a register first flushes every row that
references it; address terms stay valid through:

* local conflicts — a store/RMW overlapping a recorded inherits-from
  address flushes the row (as in the sequential design, Section 4.1);
* remote conflicts — **delayed advertising** (Section 4.2): every row
  keeps the record id (RID) of the oldest load it depends on, and the
  thread's advertised progress is held at ``min(held RIDs) - 1``, so a
  remote writer's dependent event cannot be delivered until the row is
  gone;
* high-level conflicts — ConflictAlert records flush the whole table
  (Section 4.3).

Delivered events are plain tuples; the vocabulary is documented in
:mod:`repro.lifeguards.base`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.capture.events import Record, RecordKind
from repro.memory.address import ranges_overlap

#: Maximum inherits-from addresses one register row can hold.
MAX_SOURCES = 2
#: Maximum live-register OR-terms one register row can hold.
MAX_REG_TERMS = 2

_LOAD = RecordKind.LOAD
_STORE = RecordKind.STORE
_RMW = RecordKind.RMW
_MOVRR = RecordKind.MOVRR
_ALU = RecordKind.ALU
_LOADI = RecordKind.LOADI
_CRITICAL_USE = RecordKind.CRITICAL_USE
_HL_KINDS = (RecordKind.HL_BEGIN, RecordKind.HL_END)
_THREAD_EXIT = RecordKind.THREAD_EXIT

#: The event tag each record kind delivers when nothing is absorbed:
#: Inheritance Tracking disabled, and the sequential oracle. A load
#: with a ``consume_version`` (TSO) delivers ``load_versioned``
#: instead; kinds not listed (NOP, THREAD_EXIT, CA_MARK) deliver
#: nothing. Every plain ``(tag, record)`` event comes from this table.
PASSTHROUGH_TAG = {
    _LOAD: "load",
    _STORE: "store",
    _RMW: "rmw",
    _MOVRR: "movrr",
    _ALU: "alu",
    _LOADI: "loadi",
    _CRITICAL_USE: "critical",
    RecordKind.HL_BEGIN: "hl",
    RecordKind.HL_END: "hl",
}

#: What an absorbed record delivers: nothing. One shared instance —
#: callers iterate the events :meth:`InheritanceTracking.process`
#: returns and never mutate them.
_NO_EVENTS: List[tuple] = []


class _Row:
    """One IT table row; see the module docstring."""

    __slots__ = ("sources", "regs", "rid")

    def __init__(self, sources: Tuple, regs: Tuple, rid: Optional[int]):
        self.sources = sources  # tuple of (addr, size)
        self.regs = regs  # tuple of live register ids
        self.rid = rid  # oldest source RID (None if no address terms)


#: The row of a register loaded with an immediate (rows are immutable).
_IMMEDIATE = _Row((), (), None)


def _merge_rids(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class InheritanceTracking:
    """The IT table for one lifeguard hardware context.

    Rows are keyed by ``(tid, reg)`` so the same structure serves both a
    dedicated per-thread lifeguard core (parallel monitoring, single tid)
    and the sequential time-sliced lifeguard, which interleaves records
    of many application threads through one core.
    """

    def __init__(self, enabled: bool = True, tracer=None, owner: str = ""):
        self.enabled = enabled
        self._rows: Dict[Tuple[int, int], _Row] = {}
        #: Delayed advertising, kept incrementally: tid -> {rid: number
        #: of rows holding it}; the lifeguard core reads it directly. A row's RID is either its thread's
        #: newest record (a load, processed in RID order) or a copy of
        #: a RID some row already holds, and a copy is counted before
        #: the row it replaces is released. So every key enters its
        #: dict as the largest one, the dict stays in ascending order,
        #: and its first key is the thread's smallest held RID.
        self.held: Dict[int, Dict[int, int]] = {}
        #: Optional :class:`~repro.trace.TraceWriter` (``accel`` events);
        #: ``owner`` names the lifeguard core this table belongs to.
        self.tracer = tracer
        self.owner = owner
        # Statistics
        self.absorbed_events = 0
        self.delivered_condensed = 0
        self.row_flushes = 0
        self.full_flushes = 0

    # -- main entry -----------------------------------------------------------

    def process(self, record: Record) -> List[tuple]:
        """Feed one record through IT; returns the delivered events.

        Loads, moves, unary computation and immediates are absorbed
        right here, in one hop; every other record takes
        :meth:`_process_other`.
        """
        if not self.enabled:
            return self._passthrough(record)
        kind = record.kind
        tid = record.tid
        if kind == _LOAD and record.consume_version is None:
            # Absorbing never touches the lifeguard's register value,
            # so rows referencing rd stay valid (they refer to the
            # stored metadata, which only handler execution changes).
            rid = record.rid
            held = self.held.get(tid)
            if held is None:
                held = self.held[tid] = {}
            held[rid] = held.get(rid, 0) + 1
            key = (tid, record.rd)
            rows = self._rows
            old = rows.get(key)
            rows[key] = _Row(((record.addr, record.size),), (), rid)
            if old is not None and old.rid is not None:
                self._release(tid, old.rid)
            self.absorbed_events += 1
            if self.tracer is not None:
                self.tracer.emit("accel", "it_absorb", owner=self.owner,
                                 tid=tid, rid=rid)
            # The *check* half of the load is still delivered: check
            # lifeguards (MemCheck, AddrCheck) must inspect every
            # access even when its propagation is deferred; pure
            # propagation lifeguards (TaintCheck) decline the event
            # and it costs nothing. The Idempotent Filter is the
            # accelerator that absorbs these.
            return [("load_check", record)]
        if kind == _MOVRR or (kind == _ALU and record.rs2 is None):
            # rd <- rs for moves and unary computation (always
            # absorbable). rd == rs, a unary in-place update, keeps the
            # existing row (or live metadata) semantically unchanged for
            # OR-propagation. Rows are immutable, so a copy shares its
            # source's row; a RID is counted before the row it replaces
            # is released.
            rd = record.rd
            rs = record.rs1
            if rd != rs:
                rows = self._rows
                key = (tid, rd)
                old = rows.get(key)
                src = rows.get((tid, rs))
                if src is None:
                    # rs is live: defer by referencing its current metadata.
                    rows[key] = _Row((), (rs,), None)
                else:
                    if src.rid is not None:
                        self.held[tid][src.rid] += 1
                    rows[key] = src
                if old is not None and old.rid is not None:
                    self._release(tid, old.rid)
            self.absorbed_events += 1
        elif kind == _LOADI:
            self._put((tid, record.rd), _IMMEDIATE)
            self.absorbed_events += 1
        elif kind == _ALU:
            out = self._process_alu(record)
            if out is not _NO_EVENTS:
                return out  # delivered: nothing was absorbed
        else:
            return self._process_other(record)
        if self.tracer is not None:
            self.tracer.emit("accel", "it_absorb", owner=self.owner,
                             tid=tid, rid=record.rid)
        return _NO_EVENTS

    def _process_other(self, record: Record) -> List[tuple]:
        tracer = self.tracer
        if tracer is None:
            return self._deliver(record)
        absorbed_mark = self.absorbed_events
        condensed_mark = self.delivered_condensed
        out = self._deliver(record)
        # One trace event per record that was absorbed into (or
        # condensed out of) the table, stamped with its identity.
        if self.absorbed_events > absorbed_mark:
            tracer.emit("accel", "it_absorb", owner=self.owner,
                        tid=record.tid, rid=record.rid)
        if self.delivered_condensed > condensed_mark:
            tracer.emit("accel", "it_condense", owner=self.owner,
                        tid=record.tid, rid=record.rid)
        return out

    def _deliver(self, record: Record) -> List[tuple]:
        """Records that (may) deliver events: everything but the
        absorbed kinds :meth:`process` handles itself."""
        kind = record.kind
        tid = record.tid

        if kind == _LOAD:
            # TSO: versioned loads are always delivered, along with any
            # pending state that inherits from the same address.
            out = self.flush_overlapping(record.addr, record.size)
            out.extend(self._flush_referencing(tid, record.rd))
            out.append(("load_versioned", record))
            self._pop((tid, record.rd))
            return out
        if kind == _STORE:
            return self._process_store(record)
        if kind == _RMW:
            out = self.flush_overlapping(record.addr, record.size)
            out.extend(self._flush_referencing(tid, record.rd))
            self._pop((tid, record.rd))
            out.append(("rmw", record))
            return out
        if kind == _CRITICAL_USE:
            out = self._flush_row((tid, record.rs1))
            out.append(("critical", record))
            return out
        if kind in _HL_KINDS:
            return [("hl", record)]
        if kind == _THREAD_EXIT:
            return self.flush_thread(tid)
        # NOP and CA_MARK records deliver nothing through IT; CA-triggered
        # flushes are driven by the consumer pipeline via flush_all().
        return _NO_EVENTS

    # -- row bookkeeping ----------------------------------------------------------

    def _put(self, key: Tuple[int, int], row: _Row) -> None:
        """Install ``row`` at ``key``, keeping the held RIDs exact."""
        if row.rid is not None:
            held = self.held.get(key[0])
            if held is None:
                held = self.held[key[0]] = {}
            held[row.rid] = held.get(row.rid, 0) + 1
        old = self._rows.get(key)
        self._rows[key] = row
        if old is not None and old.rid is not None:
            self._release(key[0], old.rid)

    def _pop(self, key: Tuple[int, int]) -> Optional[_Row]:
        row = self._rows.pop(key, None)
        if row is not None and row.rid is not None:
            self._release(key[0], row.rid)
        return row

    def _release(self, tid: int, rid: int) -> None:
        held = self.held[tid]
        left = held[rid] - 1
        if left:
            held[rid] = left
        else:
            del held[rid]

    # -- absorption helpers ------------------------------------------------------

    def _process_alu(self, record: Record) -> List[tuple]:
        """A binary computation (unary ones are absorbed by process)."""
        tid = record.tid
        rd = record.rd
        rs1 = record.rs1
        rs2 = record.rs2
        # Each operand is its row, or (no row) a live-register term.
        row1 = self._rows.get((tid, rs1))
        row2 = self._rows.get((tid, rs2))
        if row1 is None:
            sources, regs, rid1 = [], [rs1], None
        else:
            sources, regs, rid1 = list(row1.sources), list(row1.regs), row1.rid
        if row2 is None:
            if rs2 not in regs:
                regs.append(rs2)
            rid2 = None
        else:
            for source in row2.sources:
                if source not in sources:
                    sources.append(source)
            for reg in row2.regs:
                if reg not in regs:
                    regs.append(reg)
            rid2 = row2.rid
        if len(sources) <= MAX_SOURCES and len(regs) <= MAX_REG_TERMS:
            # A self-reference (rd in regs, the accumulator pattern) is
            # sound: it denotes rd's *stored* metadata, which stays
            # untouched until this row itself materializes.
            self._put((tid, rd), _Row(
                tuple(sources), tuple(regs), _merge_rids(rid1, rid2)))
            self.absorbed_events += 1
            return _NO_EVENTS
        # Cannot track the merge: materialize the source rows so their
        # register metadata is live, then deliver the computation.
        out = self._flush_row((tid, record.rs1))
        if record.rs2 != record.rs1:
            out.extend(self._flush_row((tid, record.rs2)))
        out.extend(self._flush_referencing(tid, rd))
        self._pop((tid, rd))
        out.append(("alu", record))
        return out

    def _process_store(self, record: Record) -> List[tuple]:
        tid = record.tid
        target = (record.addr, record.size)
        # The consuming register's row performs its deferred reads inside
        # the mem_inherit handler, *before* the write — so it need not be
        # pre-flushed, unless a source only partially overlaps the target
        # (the row would go stale after the write).
        skip = None
        row = self._rows.get((tid, record.rs1))
        if row is not None and all(
                source == target
                for source in row.sources
                if ranges_overlap(source[0], source[1], record.addr, record.size)):
            skip = (tid, record.rs1)
        out = self.flush_overlapping(record.addr, record.size, skip=skip)
        row = self._rows.get((tid, record.rs1))
        if row is None:
            out.append(("store", record))
        else:
            out.append(("mem_inherit", record.addr, record.size,
                        row.sources, row.regs, record))
            self.delivered_condensed += 1
        return out

    def _passthrough(self, record: Record) -> List[tuple]:
        """IT disabled: every record becomes a plain delivered event
        (see :data:`PASSTHROUGH_TAG`)."""
        tag = PASSTHROUGH_TAG.get(record.kind)
        if tag is None:
            return []
        if tag == "load" and record.consume_version is not None:
            tag = "load_versioned"
        return [(tag, record)]

    # -- flushing --------------------------------------------------------------

    def _flush_row(self, key: Tuple[int, int]) -> List[tuple]:
        row = self._pop(key)
        if row is None:
            return []
        self.row_flushes += 1
        tid, reg = key
        # Materializing this row *writes* reg's stored metadata, so rows
        # that reference reg's current value must materialize first (the
        # recursion terminates: each row is popped exactly once, and this
        # row is already out of the table).
        out = self._flush_referencing(tid, reg)
        out.append(("reg_inherit", tid, reg, row.sources, row.regs))
        return out

    def _flush_referencing(self, tid: int, reg: int) -> List[tuple]:
        """Flush rows whose live-register terms reference ``reg``.

        Must run before any delivered handler writes ``reg``'s stored
        metadata — the referencing rows' deferred reads need the old
        value.
        """
        out: List[tuple] = []
        victims = [
            key
            for key, row in self._rows.items()
            if key[0] == tid and reg in row.regs
        ]
        for key in victims:
            out.extend(self._flush_row(key))
        return out

    def flush_overlapping(self, addr: int, size: int, skip=None) -> List[tuple]:
        """Flush every row with an inherits-from range overlapping a write.

        ``skip`` names a row key whose flush is unnecessary because its
        deferred reads are delivered (and thus performed) by the very
        event doing the overwrite — the store that consumes it.
        """
        out: List[tuple] = []
        victims = [
            key
            for key, row in self._rows.items()
            if key != skip
            and any(ranges_overlap(src_addr, src_size, addr, size)
                    for src_addr, src_size in row.sources)
        ]
        for key in victims:
            out.extend(self._flush_row(key))
        return out

    def flush_all(self) -> List[tuple]:
        """Flush the whole table (dependence stall, CA record, threshold)."""
        out: List[tuple] = []
        if self._rows:
            self.full_flushes += 1
            # Rows referencing live registers must materialize before rows
            # *of* those registers would be replaced — but materialization
            # never changes register metadata, so any order is safe.
            for key in list(self._rows):
                out.extend(self._flush_row(key))
        return out

    def flush_rid_holding(self) -> List[tuple]:
        """Flush every row that pins a record id.

        This is the dependence-stall flush: it lets the thread publish
        fully accurate progress (deadlock freedom, Section 4.2) while
        preserving rows that cannot suffer remote conflicts — immediates
        and pure live-register rows reference no memory, so no remote
        event can invalidate them.
        """
        out: List[tuple] = []
        victims = [key for key, row in self._rows.items() if row.rid is not None]
        if victims:
            self.full_flushes += 1
        for key in victims:
            out.extend(self._flush_row(key))
        return out

    def flush_stale(self, tid: int, rid_floor: int) -> List[tuple]:
        """Flush rows of ``tid`` holding RIDs below ``rid_floor``.

        The Section 4.2 threshold: long-lived rows (a loop-invariant
        register inheriting from memory) must not hold the advertised
        progress arbitrarily far behind.
        """
        out: List[tuple] = []
        victims = [
            key
            for key, row in self._rows.items()
            if key[0] == tid and row.rid is not None and row.rid < rid_floor
        ]
        for key in victims:
            out.extend(self._flush_row(key))
        return out

    def flush_thread(self, tid: int) -> List[tuple]:
        out: List[tuple] = []
        for key in [k for k in self._rows if k[0] == tid]:
            out.extend(self._flush_row(key))
        return out

    # -- delayed advertising ----------------------------------------------------

    def min_held_rid(self, tid: int) -> Optional[int]:
        """The smallest RID still cached for ``tid`` (None when nothing is).

        The thread's advertised progress must stay below this value —
        the delayed-advertising rule of Section 4.2. Kept incrementally
        (see ``held``), so this reads one key instead of scanning rows.
        """
        held = self.held.get(tid)
        if held:
            return next(iter(held))
        return None

    @property
    def row_count(self) -> int:
        return len(self._rows)
