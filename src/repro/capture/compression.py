"""Byte-level event-record codec.

The paper relies on LBA's result that compression brings the average
event record under one byte; the log-occupancy *model* in
:mod:`repro.capture.events` simply charges that budget. This module is
the real thing: a lossless encoder/decoder for record streams, so the
claim can be measured on our own traces (``benchmarks/bench_compression.py``).

The format mirrors the structure hardware compressors exploit:

* one header byte per record — 4 bits of record kind, a 2-bit size code
  and two flags (has-extras, address-is-delta-encoded);
* memory addresses are delta-encoded against the thread's previous
  access and zigzag-varint packed, so strided streams cost one address
  byte (a sequential stream of loads costs 3 bytes per record: header +
  delta + register);
* register fields pack into one byte (two 4-bit indices);
* arcs, high-level payloads and version annotations ride in an extras
  block, each a varint sequence.

Dependence arcs support three codecs (:data:`ARC_CODECS`), selected per
encoder/decoder pair and recorded in archive manifests:

* ``rid_delta`` (default, the original format) — each arc stores the
  source thread id and the zigzag delta against the *consuming*
  record's own RID;
* ``last_recv`` — the transitive-reduction-aware codec: the delta is
  taken against the stream's last-received RID *from that source
  thread* (the same per-source vector RTR reduces against), so the arcs
  that survive reduction form a monotone sequence of tiny deltas;
* ``absolute`` — the naive full-arc encoding (source thread id and the
  full source RID), the baseline the compression claims are measured
  against.

Decoding reconstructs records exactly (asserted by roundtrip tests), so
the measured byte counts are honest. Truncated or corrupt input raises
:class:`~repro.common.errors.TraceFormatError` rather than an
``IndexError`` from deep inside the bit-twiddling.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.capture.events import Record, RecordKind
from repro.common.errors import SimulationError, TraceFormatError
from repro.isa.instructions import HLEventKind

_SIZE_CODES = {1: 0, 2: 1, 4: 2, 8: 3}
#: Access size by its 2-bit size code.
_SIZE_FROM_CODE = (1, 2, 4, 8)

#: Supported dependence-arc codecs (see the module docstring).
ARC_CODECS = ("rid_delta", "last_recv", "absolute")

#: A varint longer than this many payload bits is corrupt, not data:
#: every value the codec writes fits comfortably in 64 bits of zigzag.
_MAX_VARINT_SHIFT = 70

_FLAG_EXTRAS = 0x40
_FLAG_DELTA = 0x80

# Extras tags
_X_ARCS = 1
_X_HL = 2
_X_CONSUME = 3
_X_PRODUCE = 4
_X_CRITICAL = 5
_X_CA = 6

_STORE = RecordKind.STORE
_MOVRR = RecordKind.MOVRR
_ALU = RecordKind.ALU
_LOADI = RecordKind.LOADI
_CRITICAL_USE = RecordKind.CRITICAL_USE

# What follows the header byte, by record kind.
_BARE = 0        # nothing
_MEM = 1         # zigzag-varint address delta, then one register byte
_RD = 2          # one byte: rd
_RS1 = 3         # one byte: rs1
_RD_RS = 4       # one byte: rd | rs1 << 4
_RD_RS_RS2 = 5   # that byte, then rs2 (0xFF: none)

#: The operand layout of every encodable record kind.
_OPERANDS = {
    RecordKind.LOAD: _MEM, RecordKind.STORE: _MEM, RecordKind.RMW: _MEM,
    RecordKind.MOVRR: _RD_RS, RecordKind.ALU: _RD_RS_RS2,
    RecordKind.LOADI: _RD, RecordKind.CRITICAL_USE: _RS1,
    RecordKind.NOP: _BARE, RecordKind.HL_BEGIN: _BARE,
    RecordKind.HL_END: _BARE, RecordKind.THREAD_EXIT: _BARE,
    RecordKind.CA_MARK: _BARE,
}

#: The record kind of each value of a header's 4 kind bits. 0x0F
#: stands for a kind of 16 or more (CA_MARK, the only one), whose full
#: value rides in the extras; None marks an unassigned value.
_KIND_OF_BITS = tuple(
    {int(kind): kind for kind in RecordKind}.get(bits)
    for bits in range(0x0F)) + (RecordKind.CA_MARK,)


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) if (value & 1) == 0 else -((value + 1) >> 1)


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise SimulationError("varints are unsigned; zigzag first")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _varint_size(value: int) -> int:
    """Bytes :func:`_write_varint` spends on ``value``."""
    return (value.bit_length() + 6) // 7 or 1


def _read_byte(data: bytes, offset: int) -> Tuple[int, int]:
    if offset >= len(data):
        raise TraceFormatError(
            f"truncated record stream: need a byte at offset {offset}, "
            f"have {len(data)}")
    return data[offset], offset + 1


def _read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise TraceFormatError(
                f"truncated varint at offset {offset} "
                f"(stream ends mid-value)")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > _MAX_VARINT_SHIFT:
            raise TraceFormatError(
                f"malformed varint at offset {offset}: more than "
                f"{_MAX_VARINT_SHIFT} payload bits")


class RecordEncoder:
    """Stateful per-thread encoder (keeps the address-delta context).

    ``arc_codec`` selects the dependence-arc encoding (one of
    :data:`ARC_CODECS`). The naive pre-reduction baseline is priced
    from the records' arc fields by :func:`naive_arc_cost`, not by a
    second encode.
    """

    def __init__(self, arc_codec: str = "rid_delta"):
        if arc_codec not in ARC_CODECS:
            raise SimulationError(
                f"unknown arc codec {arc_codec!r}; valid: {ARC_CODECS}")
        self.arc_codec = arc_codec
        self._last_addr = 0
        self._last_recv = {}
        self.records = 0
        self.bytes = 0
        #: Bytes spent on the arcs extras section (tag + count + arcs).
        self.arc_bytes = 0
        #: Dependence arcs encoded.
        self.arcs = 0

    def checkpoint(self) -> tuple:
        """The encoder's whole mutable state, for :meth:`rollback`."""
        return (self._last_addr, dict(self._last_recv), self.records,
                self.bytes, self.arcs, self.arc_bytes)

    def rollback(self, state: tuple) -> None:
        """Undo every :meth:`encode` since ``state`` was checkpointed:
        delta contexts and statistics alike. ``state`` stays valid, so
        the same checkpoint can be rolled back to again."""
        (self._last_addr, last_recv, self.records, self.bytes,
         self.arcs, self.arc_bytes) = state
        self._last_recv = dict(last_recv)

    def encode(self, record: Record) -> bytes:
        kind = record.kind
        operands = _OPERANDS.get(kind)
        if operands is None:
            raise SimulationError(f"unencodable record kind {kind}")
        # Kinds of 16 and up (CA_MARK) put 0x0F in the header and their
        # full kind in the extras.
        header = ((kind if kind < 16 else 0x0F)
                  | (_SIZE_CODES.get(record.size or 4, 2) << 4))
        out = bytearray(1)  # the header byte, patched below
        if operands == _MEM:
            header |= _FLAG_DELTA
            addr = record.addr
            _write_varint(out, _zigzag(addr - self._last_addr))
            self._last_addr = addr
            # One register per memory op: rd for loads/RMW, rs1 for stores.
            reg = record.rs1 if kind == _STORE else record.rd
            out.append((reg or 0) & 0x0F)
        elif operands == _RD:
            out.append((record.rd or 0) & 0x0F)
        elif operands == _RS1:
            out.append((record.rs1 or 0) & 0x0F)
        elif operands != _BARE:  # _RD_RS and _RD_RS_RS2
            out.append(((record.rd or 0) & 0x0F)
                       | (((record.rs1 or 0) & 0x0F) << 4))
            if operands == _RD_RS_RS2:
                out.append(0xFF if record.rs2 is None
                           else (record.rs2 & 0x0F))

        # Most records carry no extras: test the fields here instead of
        # building an empty block. Each clause is one section of
        # _encode_extras, so a true test always yields a non-empty block.
        if (record.arcs or kind >= 16 or record.ca_id is not None
                or record.hl_kind is not None or record.ranges
                or record.consume_version is not None
                or record.produce_versions
                or record.critical_kind is not None):
            extras = self._encode_extras(record)
            header |= _FLAG_EXTRAS
            _write_varint(out, len(extras))
            out += extras
        out[0] = header

        encoded = bytes(out)
        self.records += 1
        self.bytes += len(encoded)
        return encoded

    def _encode_extras(self, record: Record) -> bytearray:
        extras = bytearray()
        if int(record.kind) >= 16 or record.ca_id is not None:
            extras.append(_X_CA)
            _write_varint(extras, int(record.kind))
            _write_varint(extras, record.ca_id or 0)
            extras.append(1 if record.ca_issuer else 0)
        arcs = record.arcs
        if arcs:
            extras.append(_X_ARCS)
            section_start = len(extras) - 1
            _write_varint(extras, len(arcs))
            for src_tid, src_rid in arcs:
                _write_varint(extras, src_tid)
                if self.arc_codec == "rid_delta":
                    _write_varint(extras, _zigzag(record.rid - src_rid))
                elif self.arc_codec == "last_recv":
                    previous = self._last_recv.get(src_tid, 0)
                    _write_varint(extras, _zigzag(src_rid - previous))
                    self._last_recv[src_tid] = src_rid
                else:  # absolute: the naive full-arc baseline
                    _write_varint(extras, src_rid)
            self.arc_bytes += len(extras) - section_start
            self.arcs += len(arcs)
        if record.hl_kind is not None or record.ranges:
            extras.append(_X_HL)
            _write_varint(extras, int(record.hl_kind) if record.hl_kind else 0)
            _write_varint(extras, len(record.ranges))
            for start, length in record.ranges:
                _write_varint(extras, start)
                _write_varint(extras, length)
        if record.consume_version is not None:
            extras.append(_X_CONSUME)
            version_id, base, length = record.consume_version
            for value in (version_id, base, length):
                _write_varint(extras, value)
        if record.produce_versions:
            extras.append(_X_PRODUCE)
            _write_varint(extras, len(record.produce_versions))
            for version_id, base, length in record.produce_versions:
                for value in (version_id, base, length):
                    _write_varint(extras, value)
        if record.critical_kind is not None:
            payload = record.critical_kind.encode()
            extras.append(_X_CRITICAL)
            _write_varint(extras, len(payload))
            extras.extend(payload)
        return extras

    @property
    def average_bytes_per_record(self) -> float:
        """Mean encoded size; 0.0 for an empty stream (no division)."""
        return self.bytes / self.records if self.records else 0.0


def naive_arc_cost(records: Iterable[Record]) -> Tuple[int, int]:
    """``(arcs, bytes)`` of one stream's naive full-arc baseline.

    Every arc capture recorded before transitive reduction (``arcs``
    plus ``reduced_arcs``), priced as the ``absolute`` codec's arcs
    section: a tag byte, the arc-count varint, then each arc's source
    tid and source RID varints. It equals the ``arcs``/``arc_bytes`` an
    ``absolute`` encoder reports for the records with their reduced
    arcs restored, without encoding anything.
    """
    count = size = 0
    for record in records:
        arcs = record.arcs
        if record.reduced_arcs:
            arcs = (arcs or []) + record.reduced_arcs
        if arcs:
            count += len(arcs)
            size += 1 + _varint_size(len(arcs))
            for src_tid, src_rid in arcs:
                size += _varint_size(src_tid) + _varint_size(src_rid)
    return count, size


class RecordDecoder:
    """Inverse of :class:`RecordEncoder` for one thread's stream.

    ``arc_codec`` must match the encoder's (archives record theirs in
    the manifest); a mismatch decodes to silently wrong arcs, which is
    why the archive reader treats an unknown codec as a format error.
    """

    def __init__(self, tid: int, arc_codec: str = "rid_delta"):
        if arc_codec not in ARC_CODECS:
            raise TraceFormatError(
                f"unknown arc codec {arc_codec!r}; valid: {ARC_CODECS}")
        self.tid = tid
        self.arc_codec = arc_codec
        self._last_addr = 0
        self._last_recv = {}
        self._rid = 0

    def decode(self, data: bytes, offset: int) -> Tuple[Record, int]:
        """Decode the record starting at ``offset`` of ``data``; returns
        ``(record, offset just past it)``.

        ``data`` is read in place; only an extras block is sliced out,
        so decoding a whole stream copies at most its length.
        """
        start = offset
        try:
            header = data[offset]
            offset += 1
            kind = _KIND_OF_BITS[header & 0x0F]
            if kind is None:
                raise TraceFormatError(
                    f"unassigned record kind {header & 0x0F} in header "
                    f"byte {header:#04x}")
            self._rid += 1
            record = Record(self.tid, self._rid, kind)

            if header & _FLAG_DELTA:
                raw = data[offset]
                if raw & 0x80:
                    raw, offset = _read_varint(data, offset)
                else:
                    offset += 1
                self._last_addr += _unzigzag(raw)
                record.addr = self._last_addr
                record.size = _SIZE_FROM_CODE[(header >> 4) & 0x03]
                reg = data[offset] & 0x0F
                offset += 1
                if kind is _STORE:
                    record.rs1 = reg
                else:
                    record.rd = reg
            elif kind is _MOVRR or kind is _ALU:
                regs = data[offset]
                offset += 1
                record.rd = regs & 0x0F
                record.rs1 = (regs >> 4) & 0x0F
                if kind is _ALU:
                    rs2 = data[offset]
                    offset += 1
                    record.rs2 = None if rs2 == 0xFF else rs2
            elif kind is _LOADI:
                record.rd = data[offset] & 0x0F
                offset += 1
            elif kind is _CRITICAL_USE:
                record.rs1 = data[offset] & 0x0F
                offset += 1

            if header & _FLAG_EXTRAS:
                length, offset = _read_varint(data, offset)
                if offset + length > len(data):
                    raise TraceFormatError(
                        f"truncated extras block: {length} bytes declared, "
                        f"{len(data) - offset} available")
                self._decode_extras(record, data[offset:offset + length])
                offset += length
        except IndexError:
            raise TraceFormatError(
                f"truncated record stream: the record at offset {start} "
                f"runs past the end ({len(data)} bytes)") from None
        return record, offset

    def _decode_extras(self, record: Record, extras: bytes) -> None:
        offset = 0
        while offset < len(extras):
            tag = extras[offset]
            offset += 1
            if tag == _X_CA:
                raw_kind, offset = _read_varint(extras, offset)
                record.kind = RecordKind(raw_kind)
                ca_id, offset = _read_varint(extras, offset)
                record.ca_id = ca_id or None
                issuer, offset = _read_byte(extras, offset)
                record.ca_issuer = bool(issuer)
            elif tag == _X_ARCS:
                count, offset = _read_varint(extras, offset)
                for _ in range(count):
                    src_tid, offset = _read_varint(extras, offset)
                    raw, offset = _read_varint(extras, offset)
                    if self.arc_codec == "rid_delta":
                        src_rid = record.rid - _unzigzag(raw)
                    elif self.arc_codec == "last_recv":
                        src_rid = (self._last_recv.get(src_tid, 0)
                                   + _unzigzag(raw))
                        self._last_recv[src_tid] = src_rid
                    else:  # absolute
                        src_rid = raw
                    record.add_arc(src_tid, src_rid)
            elif tag == _X_HL:
                raw_hl, offset = _read_varint(extras, offset)
                record.hl_kind = HLEventKind(raw_hl) if raw_hl else None
                count, offset = _read_varint(extras, offset)
                ranges = []
                for _ in range(count):
                    start, offset = _read_varint(extras, offset)
                    length, offset = _read_varint(extras, offset)
                    ranges.append((start, length))
                record.ranges = tuple(ranges)
            elif tag == _X_CONSUME:
                version_id, offset = _read_varint(extras, offset)
                base, offset = _read_varint(extras, offset)
                length, offset = _read_varint(extras, offset)
                record.consume_version = (version_id, base, length)
            elif tag == _X_PRODUCE:
                count, offset = _read_varint(extras, offset)
                produced = []
                for _ in range(count):
                    version_id, offset = _read_varint(extras, offset)
                    base, offset = _read_varint(extras, offset)
                    length, offset = _read_varint(extras, offset)
                    produced.append((version_id, base, length))
                record.produce_versions = produced
            elif tag == _X_CRITICAL:
                length, offset = _read_varint(extras, offset)
                if offset + length > len(extras):
                    raise TraceFormatError(
                        f"truncated critical-kind payload: {length} bytes "
                        f"declared, {len(extras) - offset} available")
                record.critical_kind = extras[offset:offset + length].decode()
                offset += length
            else:
                raise TraceFormatError(f"unknown extras tag {tag}")


def encode_stream(records: Iterable[Record],
                  arc_codec: str = "rid_delta") -> bytes:
    """Encode one thread's record stream into a single buffer."""
    encode = RecordEncoder(arc_codec=arc_codec).encode
    return b"".join([encode(record) for record in records])


def decode_stream(data: bytes, tid: int,
                  arc_codec: str = "rid_delta") -> List[Record]:
    """Decode a whole encoded stream back into records.

    This is the one decode loop: the archive reader uses it too. It
    walks ``data`` by offset, so decoding costs time linear in the
    stream. Any corruption — a stream cut mid-record, an over-long
    varint, an extras block announcing more bytes than remain, an
    invalid record kind — raises
    :class:`~repro.common.errors.TraceFormatError` with the record
    number and stream offset, never a bare ``IndexError`` or
    ``ValueError``.
    """
    decode = RecordDecoder(tid, arc_codec=arc_codec).decode
    records: List[Record] = []
    offset = 0
    end = len(data)
    try:
        while offset < end:
            record, offset = decode(data, offset)
            records.append(record)
    except TraceFormatError as exc:
        raise TraceFormatError(
            f"record #{len(records) + 1} at stream offset {offset}: "
            f"{exc}") from None
    except (IndexError, ValueError, UnicodeDecodeError) as exc:
        raise TraceFormatError(
            f"corrupt record #{len(records) + 1} at stream offset "
            f"{offset}: {exc}") from exc
    return records


def measure_stream(records: Iterable[Record],
                   arc_codec: str = "rid_delta") -> Tuple[int, int, float]:
    """(records, bytes, average bytes/record) for one stream.

    An empty stream measures as ``(0, 0, 0.0)`` — never a
    ``ZeroDivisionError``.
    """
    encoder = RecordEncoder(arc_codec=arc_codec)
    for record in records:
        encoder.encode(record)
    return (encoder.records, encoder.bytes,
            encoder.average_bytes_per_record)
