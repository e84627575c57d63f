"""Tests for the persistent trace-archive format (repro.replay.format).

Covers byte-determinism, full-fidelity round trips, every rejection
path (magic, versions, digests, truncation, trailing bytes), and the
transitive-reduction-vs-naive arc accounting the manifest reports.
"""

import copy
import hashlib
import json

import pytest

from repro import (
    MemoryModel,
    ScalePreset,
    TaintCheck,
    build_workload,
    run_parallel_monitoring,
)
from repro.capture.compression import (
    RecordEncoder,
    decode_stream,
    encode_stream,
)
from repro.capture.events import Record, RecordKind
from repro.common.config import SimulationConfig
from repro.common.errors import TraceFormatError
from repro.replay import (
    ARCHIVE_ARC_CODEC,
    FORMAT_VERSION,
    MAGIC,
    TraceReader,
    capture_archive,
    config_digest,
    replay_archive,
    write_archive,
)
from repro.replay.format import _write_varint


def _mem(tid, rid, kind, addr, reg, commit_time):
    record = Record(tid, rid, kind)
    record.addr = addr
    record.size = 4
    if kind == RecordKind.STORE:
        record.rs1 = reg
    else:
        record.rd = reg
    record.commit_time = commit_time
    return record


def synthetic_trace():
    """A small two-thread trace exercising the whole record vocabulary:
    arcs, reduced arcs, a CA mark, TSO versions, critical kinds — with
    deliberately process-flavored (large) commit times."""
    base = 7_001  # as if many runs preceded this one in the process
    t0 = [
        _mem(0, 1, RecordKind.STORE, 0x1000_0000, 1, base + 0),
        _mem(0, 2, RecordKind.LOAD, 0x1000_0004, 2, base + 2),
        _mem(0, 3, RecordKind.STORE, 0x1000_0000, 3, base + 5),
    ]
    t0[1].consume_version = (4, 0x1000_0000, 64)
    t0[2].produce_versions = [(5, 0x1000_0000, 64)]
    t1 = [
        _mem(1, 1, RecordKind.LOAD, 0x1000_0000, 1, base + 1),
        Record(1, 2, RecordKind.CA_MARK),
        _mem(1, 3, RecordKind.LOAD, 0x1000_0000, 2, base + 6),
    ]
    t1[0].add_arc(0, 1)
    t1[1].ca_id = 3
    t1[1].commit_time = base + 4
    t1[1].critical_kind = "begin"
    t1[2].add_arc(0, 3)
    t1[2].add_reduced_arc(0, 1)  # what RTR dropped, for the baseline
    return t0 + t1


def fields(record):
    return (record.tid, record.rid, record.kind, record.addr, record.size,
            record.rd, record.rs1, record.rs2, record.hl_kind,
            tuple(record.ranges), record.critical_kind,
            tuple(record.arcs or ()), record.ca_id, record.ca_issuer,
            record.consume_version, tuple(record.produce_versions or ()))


class TestWriteRead:
    def test_roundtrip_preserves_every_field(self, tmp_path):
        path = tmp_path / "t.plog"
        write_archive(path, synthetic_trace(), nthreads=2)
        reader = TraceReader(path)
        assert reader.tids() == [0, 1]
        by_tid = {0: [], 1: []}
        for record in synthetic_trace():
            by_tid[record.tid].append(record)
        for tid in (0, 1):
            assert ([fields(r) for r in reader.records(tid)]
                    == [fields(r) for r in by_tid[tid]])

    def test_commit_times_rebased_but_order_preserved(self, tmp_path):
        path = tmp_path / "t.plog"
        write_archive(path, synthetic_trace(), nthreads=2)
        reader = TraceReader(path)
        linear = reader.linearized()
        # Rooted at 1, same interleaving as the original +7001 times.
        assert min(r.commit_time for r in linear) == 1
        assert [(r.tid, r.rid) for r in linear] == [
            (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3)]

    def test_archive_bytes_are_process_independent(self, tmp_path):
        # The same captured order, stamped by a process at two different
        # points in its global commit counter, archives byte-identically.
        early, late = synthetic_trace(), synthetic_trace()
        for record in late:
            record.commit_time += 123_456
        write_archive(tmp_path / "a.plog", early, nthreads=2)
        write_archive(tmp_path / "b.plog", late, nthreads=2)
        assert ((tmp_path / "a.plog").read_bytes()
                == (tmp_path / "b.plog").read_bytes())

    def test_manifest_shape(self, tmp_path):
        config = SimulationConfig.for_threads(2)
        manifest = write_archive(tmp_path / "t.plog", synthetic_trace(),
                                 nthreads=2, meta={"seed": 9},
                                 config=config)
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["arc_codec"] == ARCHIVE_ARC_CODEC
        assert manifest["nthreads"] == 2
        assert manifest["meta"] == {"seed": 9}
        assert manifest["config_digest"] == config_digest(config)
        assert {e["tid"] for e in manifest["streams"]} == {0, 1}
        for entry in manifest["streams"]:
            for key in ("records", "record_bytes", "record_sha256",
                        "commit_bytes", "commit_sha256", "arcs",
                        "arc_bytes", "naive_arcs", "naive_arc_bytes"):
                assert key in entry, key
        assert manifest["totals"]["records"] == 6

    def test_empty_trace_roundtrips(self, tmp_path):
        path = tmp_path / "empty.plog"
        manifest = write_archive(path, [], nthreads=2)
        assert manifest["totals"] == {"records": 0, "stream_bytes": 0,
                                      "arc_bytes": 0,
                                      "naive_arc_bytes": 0}
        reader = TraceReader(path)
        assert reader.all_records() == []
        assert reader.bytes_per_instruction() == 0.0

    def test_reduced_arcs_price_the_naive_baseline(self, tmp_path):
        manifest = write_archive(tmp_path / "t.plog", synthetic_trace(),
                                 nthreads=2)
        t1 = next(e for e in manifest["streams"] if e["tid"] == 1)
        assert t1["arcs"] == 2       # what survived reduction
        assert t1["naive_arcs"] == 3  # plus the RTR-dropped arc
        assert t1["naive_arc_bytes"] > t1["arc_bytes"]

    def test_captured_run_tr_encoding_beats_naive(self, tmp_path):
        _result, manifest = capture_archive(tmp_path / "s.plog", 3)
        totals = manifest["totals"]
        assert totals["arc_bytes"] < totals["naive_arc_bytes"]

    def test_missing_commit_time_rejected(self, tmp_path):
        trace = synthetic_trace()
        trace[2].commit_time = None
        with pytest.raises(TraceFormatError, match="commit_time"):
            write_archive(tmp_path / "t.plog", trace, nthreads=2)

    def test_sparse_stream_rejected(self, tmp_path):
        trace = [r for r in synthetic_trace()
                 if not (r.tid == 0 and r.rid == 2)]
        with pytest.raises(TraceFormatError, match="not dense"):
            write_archive(tmp_path / "t.plog", trace, nthreads=2)


def _archive_bytes(tmp_path):
    path = tmp_path / "t.plog"
    write_archive(path, synthetic_trace(), nthreads=2)
    return path, bytearray(path.read_bytes())


class TestRejection:
    def test_bad_magic(self, tmp_path):
        path, data = _archive_bytes(tmp_path)
        data[0] ^= 0xFF
        path.write_bytes(data)
        with pytest.raises(TraceFormatError, match="bad magic"):
            TraceReader(path)

    def test_future_version_rejected_with_upgrade_hint(self, tmp_path):
        path, data = _archive_bytes(tmp_path)
        data[len(MAGIC)] = FORMAT_VERSION + 1
        path.write_bytes(data)
        with pytest.raises(TraceFormatError,
                           match="newer than the supported"):
            TraceReader(path)

    def test_version_zero_rejected(self, tmp_path):
        path, data = _archive_bytes(tmp_path)
        data[len(MAGIC)] = 0
        path.write_bytes(data)
        with pytest.raises(TraceFormatError, match="version 0"):
            TraceReader(path)

    def test_corrupt_stream_blob_fails_sha256(self, tmp_path):
        path, data = _archive_bytes(tmp_path)
        data[-1] ^= 0x01  # last byte of the last stream blob
        path.write_bytes(data)
        with pytest.raises(TraceFormatError, match="sha256"):
            TraceReader(path)

    def test_truncated_archive(self, tmp_path):
        path, data = _archive_bytes(tmp_path)
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(TraceFormatError, match="truncated"):
            TraceReader(path)

    def test_trailing_bytes(self, tmp_path):
        path, data = _archive_bytes(tmp_path)
        path.write_bytes(bytes(data) + b"junk")
        with pytest.raises(TraceFormatError, match="trailing bytes"):
            TraceReader(path)

    def test_header_manifest_version_disagreement(self, tmp_path):
        manifest = {"format_version": FORMAT_VERSION + 1,
                    "arc_codec": ARCHIVE_ARC_CODEC, "nthreads": 0,
                    "streams": [], "totals": {}}
        blob = json.dumps(manifest).encode()
        out = bytearray(MAGIC)
        out.append(FORMAT_VERSION)
        _write_varint(out, len(blob))
        out.extend(blob)
        path = tmp_path / "t.plog"
        path.write_bytes(out)
        with pytest.raises(TraceFormatError, match="header version"):
            TraceReader(path)

    def test_manifest_not_json(self, tmp_path):
        out = bytearray(MAGIC)
        out.append(FORMAT_VERSION)
        _write_varint(out, 4)
        out.extend(b"!!!!")
        path = tmp_path / "t.plog"
        path.write_bytes(out)
        with pytest.raises(TraceFormatError, match="not valid JSON"):
            TraceReader(path)

    def test_unknown_tid_rejected(self, tmp_path):
        path, _data = _archive_bytes(tmp_path)
        with pytest.raises(TraceFormatError, match="no stream for tid"):
            TraceReader(path).records(7)


def _absolute_arc_cost(records):
    """The naive baseline priced the long way: encode every record with
    its RTR-dropped arcs restored, under the ``absolute`` codec."""
    encoder = RecordEncoder(arc_codec="absolute")
    for record in records:
        full = copy.copy(record)
        full.arcs = list(record.arcs or ()) + list(record.reduced_arcs or ())
        encoder.encode(full)
    return encoder.arcs, encoder.arc_bytes


def _assert_naive_baseline_is_a_full_absolute_encode(trace, nthreads, path):
    manifest = write_archive(path, trace, nthreads=nthreads)
    streams = {tid: [] for tid in range(nthreads)}
    for record in trace:
        streams[record.tid].append(record)
    for entry in manifest["streams"]:
        records = sorted(streams[entry["tid"]], key=lambda r: r.rid)
        assert (entry["naive_arcs"], entry["naive_arc_bytes"]) \
            == _absolute_arc_cost(records), entry["tid"]
    assert manifest["totals"]["naive_arc_bytes"] == sum(
        entry["naive_arc_bytes"] for entry in manifest["streams"])
    return manifest


class TestNaiveBaseline:
    """The manifest prices the naive baseline from the arc fields; it
    must equal what a full ``absolute`` encode of ``arcs`` plus
    ``reduced_arcs`` spends."""

    def test_synthetic_trace(self, tmp_path):
        _assert_naive_baseline_is_a_full_absolute_encode(
            synthetic_trace(), 2, tmp_path / "t.plog")

    @pytest.mark.parametrize("seed", range(5))
    def test_racy_captures(self, tmp_path, seed):
        result, _manifest = capture_archive(tmp_path / "r.plog", seed)
        _assert_naive_baseline_is_a_full_absolute_encode(
            result.trace, 2, tmp_path / "again.plog")

    def test_barnes_capture(self, tmp_path):
        result = run_parallel_monitoring(
            build_workload("barnes", 2, scale=ScalePreset.TINY),
            TaintCheck, SimulationConfig.for_threads(2), keep_trace=True)
        _assert_naive_baseline_is_a_full_absolute_encode(
            result.trace, 2, tmp_path / "b.plog")

    def test_tso_capture_with_reduced_arcs(self, tmp_path):
        config = SimulationConfig.for_threads(
            2, memory_model=MemoryModel.TSO)
        result, _manifest = capture_archive(tmp_path / "t.plog", 0,
                                            config=config)
        assert any(record.reduced_arcs for record in result.trace)
        manifest = _assert_naive_baseline_is_a_full_absolute_encode(
            result.trace, 2, tmp_path / "again.plog")
        assert (manifest["totals"]["naive_arc_bytes"]
                > manifest["totals"]["arc_bytes"])

    def test_wide_values_take_multibyte_varints(self, tmp_path):
        trace = synthetic_trace()
        trace[3].arcs = [(0, 1), (300, 2 ** 20), (0, 127), (1, 128)]
        trace[5].reduced_arcs = [(0, 2), (2 ** 14, 2 ** 35)]
        _assert_naive_baseline_is_a_full_absolute_encode(
            trace, 2, tmp_path / "t.plog")


def _forged_archive(path, record_blob, records):
    """A one-thread archive around a hand-built record blob, with every
    length and digest valid, so only decoding can find the fault."""
    commit_blob = bytes([2]) * records  # commit times 1, 2, 3, ...
    manifest = {
        "format_version": FORMAT_VERSION,
        "arc_codec": ARCHIVE_ARC_CODEC,
        "nthreads": 1,
        "config_digest": None,
        "meta": {},
        "streams": [{
            "tid": 0,
            "records": records,
            "record_bytes": len(record_blob),
            "record_sha256": hashlib.sha256(record_blob).hexdigest(),
            "commit_bytes": len(commit_blob),
            "commit_sha256": hashlib.sha256(commit_blob).hexdigest(),
        }],
        "totals": {},
    }
    blob = json.dumps(manifest).encode()
    out = bytearray(MAGIC)
    out.append(FORMAT_VERSION)
    _write_varint(out, len(blob))
    out.extend(blob)
    out.extend(record_blob)
    out.extend(commit_blob)
    path.write_bytes(bytes(out))
    return str(path)


class TestBadRecordsInValidArchives:
    """A stream whose digest is valid can still hold records that do
    not decode; the reader must say where, as a TraceFormatError."""

    # Two good records (a LOADI and a NOP), then the bad one at offset 3.
    PREFIX = bytes([0x26, 0x01, 0x27])

    @pytest.mark.parametrize("kind_bits", [0, 12, 13, 14])
    def test_unassigned_header_kind(self, tmp_path, kind_bits):
        path = _forged_archive(tmp_path / "k.plog",
                               self.PREFIX + bytes([kind_bits]), 3)
        reader = TraceReader(path)
        with pytest.raises(TraceFormatError) as info:
            reader.records(0)
        message = str(info.value)
        assert message.startswith(f"{path}: t0 record #3 at stream "
                                  f"offset 3: ")
        assert f"unassigned record kind {kind_bits}" in message

    def test_unassigned_kind_fails_the_replay_too(self, tmp_path):
        path = _forged_archive(tmp_path / "k.plog",
                               self.PREFIX + bytes([12]), 3)
        with pytest.raises(TraceFormatError, match="record #3"):
            replay_archive(path, "taintcheck")

    def test_unassigned_ca_kind_in_extras(self, tmp_path):
        # A CA header (kind bits 0x0F) whose extras name kind 12.
        blob = self.PREFIX + bytes([0x4F, 4, 6, 12, 1, 0])
        path = _forged_archive(tmp_path / "ca.plog", blob, 3)
        with pytest.raises(TraceFormatError,
                           match=r"t0 corrupt record #3 at stream offset 3"):
            TraceReader(path).records(0)

    def test_truncated_extras_block(self, tmp_path):
        # Extras flag set, 9 bytes declared, 2 present.
        blob = self.PREFIX + bytes([0x66, 0x01, 9, 1, 0])
        path = _forged_archive(tmp_path / "x.plog", blob, 3)
        with pytest.raises(TraceFormatError) as info:
            TraceReader(path).records(0)
        message = str(info.value)
        assert message.startswith(f"{path}: t0 record #3 at stream "
                                  f"offset 3: ")
        assert "truncated extras block: 9 bytes declared" in message

    def test_record_cut_mid_operands(self, tmp_path):
        # A LOAD header whose address delta and register never come.
        path = _forged_archive(tmp_path / "c.plog",
                               self.PREFIX + bytes([0xA1]), 3)
        with pytest.raises(TraceFormatError,
                           match=r"t0 record #3 at stream offset 3: "
                                 r"truncated"):
            TraceReader(path).records(0)


class _CountingBytes(bytes):
    """bytes that count how many bytes their slices copy out."""

    sliced = 0

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if isinstance(key, slice):
            self.sliced += len(value)
        return value


def _long_stream(count=3000):
    records = []
    for rid in range(1, count + 1):
        kind = (RecordKind.LOAD, RecordKind.STORE, RecordKind.LOADI,
                RecordKind.CRITICAL_USE)[rid % 4]
        record = Record(0, rid, kind)
        if kind in (RecordKind.LOAD, RecordKind.STORE):
            record.addr = 0x1000_0000 + 4096 * (rid % 7)
            record.size = 4
        if kind in (RecordKind.STORE, RecordKind.CRITICAL_USE):
            record.rs1 = rid % 8
        else:
            record.rd = rid % 8
        if rid % 5 == 0:
            record.add_arc(1, rid // 5)
        if kind == RecordKind.CRITICAL_USE:
            record.critical_kind = "jump"
        record.commit_time = rid
        records.append(record)
    return records


class TestLinearDecode:
    """Decoding walks the stream by offset: the bytes it copies out of
    the stream (extras blocks only) stay within a constant factor of
    the stream's length, however long the stream is."""

    def test_decode_stream(self):
        records = _long_stream()
        blob = _CountingBytes(encode_stream(records,
                                            arc_codec=ARCHIVE_ARC_CODEC))
        decoded = decode_stream(blob, 0, arc_codec=ARCHIVE_ARC_CODEC)
        assert len(decoded) == len(records)
        assert blob.sliced <= 2 * len(blob)

    def test_trace_reader_records(self, tmp_path):
        records = _long_stream()
        path = tmp_path / "long.plog"
        write_archive(path, records, nthreads=1)
        reader = TraceReader(path)
        record_blob, commit_blob = reader._blobs[0]
        counted = _CountingBytes(record_blob)
        reader._blobs[0] = (counted, commit_blob)
        decoded = reader.records(0)
        assert [fields(r) for r in decoded] == [fields(r) for r in records]
        assert counted.sliced <= 2 * len(counted)
