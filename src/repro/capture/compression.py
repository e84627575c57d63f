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

from typing import Iterable, List, Optional, Tuple

from repro.capture.events import Record, RecordKind
from repro.common.errors import SimulationError, TraceFormatError

_SIZE_CODES = {1: 0, 2: 1, 4: 2, 8: 3}
_SIZE_FROM_CODE = {code: size for size, code in _SIZE_CODES.items()}

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
    :data:`ARC_CODECS`); ``include_reduced_arcs=True`` additionally
    encodes any :attr:`~repro.capture.events.Record.reduced_arcs` the
    capture retained, reconstructing the naive pre-reduction arc set —
    the honest baseline for compression-ratio measurements.
    """

    def __init__(self, arc_codec: str = "rid_delta",
                 include_reduced_arcs: bool = False):
        if arc_codec not in ARC_CODECS:
            raise SimulationError(
                f"unknown arc codec {arc_codec!r}; valid: {ARC_CODECS}")
        self.arc_codec = arc_codec
        self.include_reduced_arcs = include_reduced_arcs
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
        out = bytearray()
        kind = int(record.kind)
        if not 0 < kind < 32:
            raise SimulationError(f"unencodable record kind {record.kind}")
        size_code = _SIZE_CODES.get(record.size or 4, 2)
        header_index = len(out)
        out.append(0)  # patched below

        header = (kind & 0x0F) | (size_code << 4)
        if kind >= 16:  # CA_MARK: kind 20 -> stash high bit in extras
            header = (0x0F) | (size_code << 4)

        if record.is_memory:
            delta = record.addr - self._last_addr
            header |= _FLAG_DELTA
            _write_varint(out, _zigzag(delta))
            self._last_addr = record.addr
            # One register per memory op: rd for loads/RMW, rs1 for stores.
            reg = record.rs1 if record.kind == RecordKind.STORE else record.rd
            out.append((reg or 0) & 0x0F)
        elif record.kind in (RecordKind.MOVRR, RecordKind.ALU):
            out.append(((record.rd or 0) & 0x0F)
                       | (((record.rs1 or 0) & 0x0F) << 4))
            if record.kind == RecordKind.ALU:
                out.append(0xFF if record.rs2 is None
                           else (record.rs2 & 0x0F))
        elif record.kind == RecordKind.LOADI:
            out.append((record.rd or 0) & 0x0F)
        elif record.kind == RecordKind.CRITICAL_USE:
            out.append((record.rs1 or 0) & 0x0F)

        extras = self._encode_extras(record)
        if extras:
            header |= _FLAG_EXTRAS
            _write_varint(out, len(extras))
            out.extend(extras)
        out[header_index] = header

        encoded = bytes(out)
        self.records += 1
        self.bytes += len(encoded)
        return encoded

    def _encode_extras(self, record: Record) -> bytes:
        extras = bytearray()
        if int(record.kind) >= 16 or record.ca_id is not None:
            extras.append(_X_CA)
            _write_varint(extras, int(record.kind))
            _write_varint(extras, record.ca_id or 0)
            extras.append(1 if record.ca_issuer else 0)
        arcs = list(record.arcs or ())
        if self.include_reduced_arcs and record.reduced_arcs:
            arcs.extend(record.reduced_arcs)
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
        return bytes(extras)

    @property
    def average_bytes_per_record(self) -> float:
        """Mean encoded size; 0.0 for an empty stream (no division)."""
        return self.bytes / self.records if self.records else 0.0


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

    def decode(self, data: bytes) -> Tuple[Record, int]:
        """Decode one record; returns (record, bytes consumed)."""
        offset = 0
        header, offset = _read_byte(data, offset)
        kind_bits = header & 0x0F
        size = _SIZE_FROM_CODE[(header >> 4) & 0x03]

        self._rid += 1
        kind = RecordKind(kind_bits) if kind_bits != 0x0F else None
        record = Record(self.tid, self._rid,
                        kind if kind is not None else RecordKind.CA_MARK)

        if header & _FLAG_DELTA:
            raw, offset = _read_varint(data, offset)
            self._last_addr += _unzigzag(raw)
            record.addr = self._last_addr
            record.size = size
            reg, offset = _read_byte(data, offset)
            if kind == RecordKind.STORE:
                record.rs1 = reg & 0x0F
            else:
                record.rd = reg & 0x0F
        elif kind in (RecordKind.MOVRR, RecordKind.ALU):
            regs, offset = _read_byte(data, offset)
            record.rd = regs & 0x0F
            record.rs1 = (regs >> 4) & 0x0F
            if kind == RecordKind.ALU:
                rs2, offset = _read_byte(data, offset)
                record.rs2 = None if rs2 == 0xFF else rs2
        elif kind == RecordKind.LOADI:
            reg, offset = _read_byte(data, offset)
            record.rd = reg & 0x0F
        elif kind == RecordKind.CRITICAL_USE:
            reg, offset = _read_byte(data, offset)
            record.rs1 = reg & 0x0F

        if header & _FLAG_EXTRAS:
            length, offset = _read_varint(data, offset)
            if offset + length > len(data):
                raise TraceFormatError(
                    f"truncated extras block: {length} bytes declared, "
                    f"{len(data) - offset} available")
            self._decode_extras(record, data[offset:offset + length])
            offset += length
        return record, offset

    def _decode_extras(self, record: Record, extras: bytes) -> None:
        offset = 0
        from repro.isa.instructions import HLEventKind
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
    encoder = RecordEncoder(arc_codec=arc_codec)
    return b"".join(encoder.encode(record) for record in records)


def decode_stream(data: bytes, tid: int,
                  arc_codec: str = "rid_delta") -> List[Record]:
    """Decode a whole encoded stream back into records.

    Any corruption — a stream cut mid-record, an over-long varint, an
    extras block announcing more bytes than remain, an invalid record
    kind — raises :class:`~repro.common.errors.TraceFormatError` with
    the stream offset, never a bare ``IndexError``.
    """
    decoder = RecordDecoder(tid, arc_codec=arc_codec)
    records = []
    offset = 0
    while offset < len(data):
        try:
            record, consumed = decoder.decode(data[offset:])
        except TraceFormatError as exc:
            raise TraceFormatError(
                f"record #{len(records) + 1} at stream offset {offset}: "
                f"{exc}") from None
        except (IndexError, ValueError, UnicodeDecodeError) as exc:
            raise TraceFormatError(
                f"corrupt record #{len(records) + 1} at stream offset "
                f"{offset}: {exc}") from exc
        offset += consumed
        records.append(record)
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
