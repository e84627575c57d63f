"""The flight recorder's codec: the cached encoder and the shared line
decoder. Encodings, hashes and error messages must equal those of the
plain ``json`` calls they replace, byte for byte."""

import enum
import hashlib
import io
import json
import math
import warnings

import pytest

from repro import (
    ScalePreset,
    SimulationConfig,
    TaintCheck,
    TraceWriter,
    build_workload,
    run_parallel_monitoring,
)
from repro.trace import TraceTail, read_trace, trace_hash
from repro.trace.writer import encode_event


def _dumps(payload):
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


class Color(enum.Enum):
    RED = 1


class Level(enum.IntEnum):
    HIGH = 2


#: Field values covering every branch of the encoder and of ``_sanitize``.
EDGE_FIELDS = {
    "true": True,
    "one": 1,
    "zero": 0,
    "negative": -12345678901234567890,
    "float": 0.1,
    "negative_zero": -0.0,
    "huge": 1e300,
    "nan": float("nan"),
    "inf": float("inf"),
    "ninf": float("-inf"),
    "none": None,
    "non_ascii": "é漢😀",
    "control": "\x00\x1f\t\n\r\"\\\x7f",
    "brace": "{not an object}",
    "nested": [[1, [2, "a"]], [], [True, None, -1.5]],
    "tuple": (3, "b"),
    "enum": Color.RED,
    "int_enum": Level.HIGH,
    "set": {3, 1, 2},
    "frozenset": frozenset({"b", "a"}),
    "enum_list": [Color.RED, Level.HIGH],
}


def _traced_barnes(tmp_path):
    """A tiny barnes/TaintCheck run streamed to a file and kept in memory."""
    path = str(tmp_path / "barnes.jsonl")
    writer = TraceWriter.to_path(path, keep=True)
    try:
        run_parallel_monitoring(
            build_workload("barnes", 2, ScalePreset.TINY, 1), TaintCheck,
            SimulationConfig.for_threads(2), tracer=writer)
    finally:
        writer.close()
    return path, writer.events


class TestEncoderInvariants:
    def test_every_event_of_a_run_encodes_like_json_dumps(self, tmp_path):
        _path, events = _traced_barnes(tmp_path)
        assert len(events) > 1000
        for payload in events:
            assert encode_event(payload) == _dumps(payload)

    @pytest.mark.parametrize("name", sorted(EDGE_FIELDS))
    def test_edge_field_encodes_like_json_dumps(self, name):
        writer = TraceWriter(keep=True)
        writer.emit("meta", "edge", **{name: EDGE_FIELDS[name]})
        payload = writer.events[0]
        assert encode_event(payload) == _dumps(payload)

    def test_true_and_one_encode_differently(self):
        assert encode_event({"f": True}) == '{"f":true}'
        assert encode_event({"f": 1}) == '{"f":1}'

    def test_non_finite_floats_and_escapes(self):
        line = encode_event({"a": float("nan"), "b": float("-inf"),
                             "c": "é\x00"})
        assert line == '{"a":NaN,"b":-Infinity,"c":"\\u00e9\\u0000"}'

    def test_a_failed_encode_leaves_no_stale_state(self):
        payload = {"cycle": 1, "cat": "engine", "event": "x",
                   "bad": object()}
        for _ in range(2):  # a stale marker would turn this into ValueError
            with pytest.raises(TypeError, match="not JSON serializable"):
                encode_event(payload)
        circular = {"cycle": 1, "cat": "engine", "event": "x"}
        circular["self"] = [circular]
        with pytest.raises(ValueError, match="Circular reference"):
            trace_hash([circular])
        assert encode_event({"x": [1]}) == '{"x":[1]}'


class TestHashInvariants:
    def test_streamed_bytes_hash_equals_read_and_kept_hash(self, tmp_path):
        path, events = _traced_barnes(tmp_path)
        with open(path, "rb") as handle:
            raw = hashlib.sha256(handle.read()).hexdigest()
        read = read_trace(path)
        assert read == events
        assert raw == trace_hash(read) == trace_hash(events)

    def test_edge_payloads_round_trip_through_a_stream(self, tmp_path):
        path = str(tmp_path / "edge.jsonl")
        writer = TraceWriter.to_path(path, keep=True)
        for name, value in sorted(EDGE_FIELDS.items()):
            writer.emit("meta", "edge", **{name: value})
        writer.close()
        with open(path, "rb") as handle:
            raw = hashlib.sha256(handle.read()).hexdigest()
        read = read_trace(path)
        assert raw == trace_hash(read) == trace_hash(writer.events)
        assert math.isnan(next(event["nan"] for event in read
                               if "nan" in event))

    def test_hash_spans_chunk_boundaries(self):
        events = [{"cycle": index, "cat": "engine", "event": "e"}
                  for index in range(10_000)]
        expected = hashlib.sha256(
            "".join(_dumps(event) + "\n" for event in events)
            .encode("utf-8")).hexdigest()
        assert trace_hash(events) == expected
        assert trace_hash(iter(events)) == expected
        assert trace_hash([]) == hashlib.sha256(b"").hexdigest()

    def test_stream_writes_one_flushed_line_per_event(self):
        class Recorder(io.StringIO):
            def __init__(self):
                super().__init__()
                self.flushed = []

            def flush(self):
                self.flushed.append(self.getvalue())

        stream = Recorder()
        writer = TraceWriter(stream=stream)
        writer.emit("arc", "publish", rid=1)
        writer.emit("ca", "mark", tid=0)
        assert stream.flushed == [
            '{"cat":"arc","cycle":0,"event":"publish","rid":1}\n',
            '{"cat":"arc","cycle":0,"event":"publish","rid":1}\n'
            '{"cat":"ca","cycle":0,"event":"mark","tid":0}\n',
        ]


GOOD = '{"cat":"engine","cycle":1,"event":"x"}'

#: (malformed line, its error) pinned from the historical per-line
#: ``json.loads`` + ``validate_event`` reader. ``{where}`` is the
#: ``path:lineno`` or ``path`` prefix of a JSON error.
MALFORMED = {
    "trailing_data": (
        GOOD + " junk",
        "not JSON: Extra data: line 1 column 40 (char 39)"),
    "trailing_object": (
        GOOD + '{"a":1}',
        "not JSON: Extra data: line 1 column 39 (char 38)"),
    "truncated": (
        '{"cat":"engine","cycle":1,"ev',
        "not JSON: Unterminated string starting at: line 1 column 27 "
        "(char 26)"),
    "bad_escape": (
        '{"cat":"engine","cycle":1,"event":"x\\q"}',
        "not JSON: Invalid \\escape: line 1 column 37 (char 36)"),
    "top_array": ("[1,2,3]", "event is not an object: [1, 2, 3]"),
    "top_number": ("42", "event is not an object: 42"),
    "bool_cycle": (
        '{"cat":"engine","cycle":true,"event":"x"}',
        "bad cycle stamp: {'cat': 'engine', 'cycle': True, 'event': 'x'}"),
    "negative_cycle": (
        '{"cat":"engine","cycle":-1,"event":"x"}',
        "bad cycle stamp: {'cat': 'engine', 'cycle': -1, 'event': 'x'}"),
    "float_cycle": (
        '{"cat":"engine","cycle":1.0,"event":"x"}',
        "bad cycle stamp: {'cat': 'engine', 'cycle': 1.0, 'event': 'x'}"),
    "missing_cat": (
        '{"cycle":1,"event":"x"}',
        "event missing 'cat': {'cycle': 1, 'event': 'x'}"),
    "unknown_cat": (
        '{"cat":"bogus","cycle":1,"event":"x"}',
        "unknown category 'bogus': "
        "{'cat': 'bogus', 'cycle': 1, 'event': 'x'}"),
    "non_string_cat": (
        '{"cat":3,"cycle":1,"event":"x"}',
        "unknown category 3: {'cat': 3, 'cycle': 1, 'event': 'x'}"),
    "empty_event": (
        '{"cat":"engine","cycle":1,"event":""}',
        "bad event name: {'cat': 'engine', 'cycle': 1, 'event': ''}"),
    "dict_field": (
        '{"cat":"engine","cycle":1,"event":"x","f":{"a":1}}',
        "non-scalar field f={'a': 1}"),
    "list_holding_dict": (
        '{"cat":"engine","cycle":1,"event":"x","f":[1,{"a":1}]}',
        "non-scalar field f=[1, {'a': 1}]"),
    "deep_list_holding_dict": (
        '{"cat":"engine","cycle":1,"event":"x","f":[[{"a":1}]]}',
        "non-scalar field f=[[{'a': 1}]]"),
}


def _write_lines(tmp_path, lines):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(line + "\n" for line in lines),
                    encoding="utf-8")
    return str(path)


def _expected(message, where):
    return f"{where}: {message}" if message.startswith("not JSON") \
        else message


class TestDiagnosticsUnchanged:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    @pytest.mark.parametrize("tolerant", (False, True))
    def test_interior_bad_line_raises_the_same_text(self, tmp_path, name,
                                                    tolerant):
        line, message = MALFORMED[name]
        path = _write_lines(tmp_path, [GOOD, line, GOOD])
        with pytest.raises(ValueError) as info:
            read_trace(path, tolerant_tail=tolerant)
        assert str(info.value) == _expected(message, f"{path}:2")

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_final_bad_line_strict_raises(self, tmp_path, name):
        line, message = MALFORMED[name]
        path = _write_lines(tmp_path, [GOOD, GOOD, line])
        with pytest.raises(ValueError) as info:
            read_trace(path)
        assert str(info.value) == _expected(message, f"{path}:3")

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_tolerant_tail_skips_only_the_final_line(self, tmp_path, name):
        line, message = MALFORMED[name]
        path = _write_lines(tmp_path, [GOOD, GOOD, line])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            events = read_trace(path, tolerant_tail=True)
        assert events == [json.loads(GOOD)] * 2
        kind = ("torn" if message.startswith("not JSON")
                else "schema-invalid")
        assert [str(warning.message) for warning in caught] == [
            f"{path}:3: skipped {kind} final trace line "
            f"(live stream mid-write?)"]

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_tail_poll_raises_the_same_text(self, tmp_path, name):
        line, message = MALFORMED[name]
        path = _write_lines(tmp_path, [GOOD, line, GOOD])
        offset = len(GOOD) + 1
        with TraceTail(path) as tail, pytest.raises(ValueError) as info:
            tail.poll()
        where = f"{path}: corrupt complete trace line at byte offset {offset}"
        expected = (f"{where}: {message[len('not JSON: '):]}"
                    if message.startswith("not JSON") else message)
        assert str(info.value) == expected

    def test_blank_lines_and_braces_in_strings_are_accepted(self, tmp_path):
        brace = '{"cat":"engine","cycle":2,"event":"x","f":"{y}"}'
        path = _write_lines(tmp_path, ["", GOOD, "   ", brace, ""])
        expected = [json.loads(GOOD), json.loads(brace)]
        assert read_trace(path) == expected
        with TraceTail(path) as tail:
            assert tail.poll() == [(GOOD, expected[0]),
                                   (brace, expected[1])]
            assert tail.events_seen == 2
