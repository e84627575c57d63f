"""The flight recorder: a cycle-stamped, append-only JSONL event trace.

Every instrumented component (engine actors, order capture, the
ConflictAlert hub, the progress table, the accelerators, the lifeguard
cores) emits structured events into one :class:`TraceWriter`. The writer
is deliberately dumb — it stamps, filters, encodes and stores — so that
the cost of *disabled* tracing is a single ``tracer is None`` check at
each emit site (the same contract the fault-injection hooks follow).

Three storage modes, freely combinable:

* **stream** — each event is written immediately as one compact JSON
  line and flushed, so ``tail -f trace.jsonl | jq .`` works while the
  simulation runs.
* **ring** — a bounded ``deque`` keeps only the last N events; crash
  reports embed :meth:`snapshot` so a post-mortem shows what the
  machine was doing right before it died.
* **keep** — every event is retained in :attr:`events` for in-process
  inspection (tests, the differential checker, golden traces).

Event schema: every event is a flat JSON object with at least

* ``cycle`` — the engine's simulated time at emission (0 before a
  simulation engine is attached),
* ``cat`` — one of :data:`CATEGORIES`,
* ``event`` — a short event name within the category,

plus event-specific scalar fields. Deliberately *not* recorded:
``commit_time`` stamps (they come from a process-global counter and
would make otherwise identical runs hash differently) and wall-clock
times. Two runs of the same seeded configuration therefore produce
bit-identical traces — :func:`trace_hash` turns that into a testable
invariant.
"""

from __future__ import annotations

import enum
import hashlib
import json
import warnings
from collections import deque
from itertools import islice
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.common.errors import ConfigurationError

#: Event categories, used for ``--trace-filter`` and ``wants()``.
#:
#: ======== ======================================================
#: engine   actor stall/wake/done, lifeguard record retirement
#: arc      dependence arc publish/reduce/stall, TSO versions
#: ca       ConflictAlert broadcast/mark/arrive/complete
#: advert   progress publishes, delayed-advertising holds/flushes
#: accel    IT absorb/condense, IF hit/miss, M-TLB hit/miss
#: meta     lifeguard metadata writes
#: jobs     parallel sweep executor: job start/done/retry/resume,
#:          leases (lease_expired/timeout), workers (worker_spawned/
#:          worker_lost), backend degradation, corrupt results
#: ======== ======================================================
CATEGORIES = ("engine", "arc", "ca", "advert", "accel", "meta", "jobs")

_CATEGORY_SET = frozenset(CATEGORIES)

#: Default ring capacity when a bounded buffer is requested without a size.
DEFAULT_RING_EVENTS = 256


def parse_trace_filter(spec: str) -> FrozenSet[str]:
    """Parse a ``--trace-filter`` value: comma-separated category names.

    ``"all"`` (or an empty string) selects every category. Unknown names
    raise :class:`~repro.common.errors.ConfigurationError` listing the
    valid set.
    """
    names = [part.strip() for part in spec.split(",") if part.strip()]
    if not names or "all" in names:
        return _CATEGORY_SET
    unknown = sorted(set(names) - _CATEGORY_SET)
    if unknown:
        raise ConfigurationError(
            f"unknown trace categories {unknown}; "
            f"valid: {', '.join(CATEGORIES)} (or 'all')")
    return frozenset(names)


#: Exact types that pass through :func:`_sanitize` unchanged. Exact-type
#: membership (not isinstance) is deliberate: an IntEnum *is* an int but
#: must still be sanitized to its name.
_PASSTHROUGH_TYPES = frozenset((int, float, str, bool, type(None)))


def _sanitize(value):
    """Coerce one field value to a JSON-stable scalar (or list thereof)."""
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_sanitize(item) for item in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=repr)
        return items
    return repr(value)


class TraceWriter:
    """Collects flight-recorder events; see the module docstring.

    ``categories=None`` records everything; otherwise only the named
    categories are kept and every other emit is a cheap set-miss.
    The simulation engine is attached by the platform wiring
    (:meth:`attach_engine`) so event ``cycle`` stamps follow simulated
    time; a writer used before/without an engine stamps cycle 0.
    """

    __slots__ = ("categories", "events", "_engine", "_ring", "_stream",
                 "_owns_stream", "emitted")

    def __init__(self, *, stream=None, categories: Optional[Iterable[str]] = None,
                 ring: int = 0, keep: bool = False):
        if categories is not None:
            categories = frozenset(categories)
            unknown = sorted(categories - _CATEGORY_SET)
            if unknown:
                raise ConfigurationError(
                    f"unknown trace categories {unknown}; "
                    f"valid: {', '.join(CATEGORIES)}")
        self.categories = categories
        if ring < 0:
            raise ConfigurationError("trace ring size must be >= 0")
        self._ring = deque(maxlen=ring) if ring else None
        self._stream = stream
        self._owns_stream = False
        self.events: Optional[List[dict]] = [] if keep else None
        self._engine = None
        #: Total events recorded (post-filter), for tests and stats.
        self.emitted = 0

    @classmethod
    def to_path(cls, path: str, *, categories=None, ring: int = 0,
                keep: bool = False) -> "TraceWriter":
        """Open ``path`` for writing and stream events into it.

        The constructor runs (and validates its arguments) *before* the
        file is opened, so a bad category or ring size never leaks an
        open handle or leaves a stray empty trace file behind. The file
        is always UTF-8, regardless of platform locale, so a trace
        written on one machine and served from another is byte-identical.
        """
        writer = cls(stream=None, categories=categories, ring=ring,
                     keep=keep)
        writer._stream = open(path, "w", encoding="utf-8")
        writer._owns_stream = True
        return writer

    # -- wiring ---------------------------------------------------------------

    def attach_engine(self, engine) -> None:
        """Bind the simulated clock; done by the platform wiring."""
        self._engine = engine

    def wants(self, cat: str) -> bool:
        """Would an event in ``cat`` be recorded? (Lets callers skip
        building expensive field payloads for filtered categories.)"""
        return self.categories is None or cat in self.categories

    # -- the hot path ---------------------------------------------------------

    def emit(self, cat: str, event: str, **fields) -> None:
        """Record one event (dropped silently if ``cat`` is filtered).

        Zero-allocation contract: the kwargs dict that the call itself
        creates *is* the stored payload — no second dict is built and no
        per-event encoder is constructed. In stream mode the event is
        encoded once, written as one line and flushed, so a reader
        following the file never sees a torn event. Field order in the
        payload is irrelevant: every encoder downstream
        (:func:`encode_event`, :func:`trace_hash`) sorts keys.
        """
        if self.categories is not None and cat not in self.categories:
            return
        payload: Dict[str, object] = fields
        passthrough = _PASSTHROUGH_TYPES
        for key, value in payload.items():
            if type(value) not in passthrough:
                payload[key] = _sanitize(value)
        # Explicit caller-supplied stamps win, matching the historical
        # build-then-override order.
        if "cycle" not in payload:
            payload["cycle"] = self._engine.now if self._engine is not None else 0
        if "cat" not in payload:
            payload["cat"] = cat
        if "event" not in payload:
            payload["event"] = event
        self.emitted += 1
        if self.events is not None:
            self.events.append(payload)
        if self._ring is not None:
            self._ring.append(payload)
        stream = self._stream
        if stream is not None:
            # A sanitized payload always encodes, so _MARKERS stays clean.
            stream.write("".join(_c_encode(payload, 0)) + "\n")
            stream.flush()  # safe for tail -f mid-simulation

    # -- retrieval ------------------------------------------------------------

    def snapshot(self) -> List[dict]:
        """The last-N events for crash reports (ring if bounded, else
        the kept tail, else empty)."""
        if self._ring is not None:
            return list(self._ring)
        if self.events is not None:
            return self.events[-DEFAULT_RING_EVENTS:]
        return []

    def close(self) -> None:
        """Close the stream if this writer opened it. A borrowed stream
        is left open (every line was flushed when it was written)."""
        if self._owns_stream and self._stream is not None:
            self._stream.close()
            self._stream = None
            self._owns_stream = False


# -- encoding / verification helpers -----------------------------------------


#: One shared compact encoder. ``json.dumps`` with non-default options
#: builds a fresh ``JSONEncoder`` on every call; caching one keeps the
#: per-line cost to the encode itself. Output is byte-identical to
#: ``json.dumps(payload, separators=(",", ":"), sort_keys=True)``.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)

#: Circular-reference markers of :data:`_c_encode`. The C encoder empties
#: them after every successful encode; an encode that raises half way
#: leaves stale entries, which its callers clear.
_MARKERS: dict = {}

#: The C encoder ``_ENCODER.encode`` builds afresh on *every* call (in
#: ``iterencode(_one_shot=True)``), built once with exactly the same
#: arguments, so its output is ``_ENCODER``'s by construction.
#: ``_c_encode(payload, 0)`` returns a list of chunks to ``"".join``.
_c_encode = c_make_encoder(
    _MARKERS, _ENCODER.default, encode_basestring_ascii, _ENCODER.indent,
    _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
    _ENCODER.skipkeys, _ENCODER.allow_nan)

#: ``trace_hash`` encodes and hashes this many events per sha256 update,
#: few enough that one chunk's joined text (~70 kB) adds no peak memory.
_HASH_CHUNK = 512

#: The C scanner behind ``json.loads``: ``_scan_once(line, 0)`` decodes
#: the value at the start of ``line`` as ``(value, end)``.
_scan_once = json.JSONDecoder().scan_once


def encode_event(payload: dict) -> str:
    """One event as a compact, key-sorted JSON line (no newline)."""
    try:
        return "".join(_c_encode(payload, 0))
    except BaseException:
        _MARKERS.clear()
        raise


def validate_event(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a schema-valid event."""
    if not isinstance(payload, dict):
        raise ValueError(f"event is not an object: {payload!r}")
    for required in ("cycle", "cat", "event"):
        if required not in payload:
            raise ValueError(f"event missing {required!r}: {payload!r}")
    # bool is an int subclass, but cycle=True must not validate: it
    # encodes as "true" where an equal run stamps 1, poisoning
    # trace_hash comparisons with a schema-invalid event.
    if (isinstance(payload["cycle"], bool)
            or not isinstance(payload["cycle"], int)
            or payload["cycle"] < 0):
        raise ValueError(f"bad cycle stamp: {payload!r}")
    if payload["cat"] not in _CATEGORY_SET:
        raise ValueError(f"unknown category {payload['cat']!r}: {payload!r}")
    if not isinstance(payload["event"], str) or not payload["event"]:
        raise ValueError(f"bad event name: {payload!r}")
    for key, value in payload.items():
        if not isinstance(key, str):
            raise ValueError(f"non-string field name {key!r}: {payload!r}")
        if not _json_scalar(value):
            raise ValueError(f"non-scalar field {key}={value!r}")


def _json_scalar(value) -> bool:
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, list):
        return all(_json_scalar(item) for item in value)
    return False


def trace_hash(events: Iterable[dict]) -> str:
    """SHA-256 over the canonical encoding of an event sequence.

    Two runs of the same seeded configuration must produce equal hashes
    (the determinism test); any hidden nondeterminism — dict-order
    iteration, id()-keyed structures, global counters leaking into
    events — shows up as a hash mismatch long before it poisons a
    benchmark comparison.
    """
    digest = hashlib.sha256()
    events = iter(events)
    join = "".join
    try:
        while True:
            lines = [join(_c_encode(payload, 0))
                     for payload in islice(events, _HASH_CHUNK)]
            if not lines:
                return digest.hexdigest()
            lines.append("")  # the last line's newline
            digest.update("\n".join(lines).encode("utf-8"))
    except BaseException:
        _MARKERS.clear()
        raise


def read_trace(path: str, *, tolerant_tail: bool = False) -> List[dict]:
    """Load a JSONL trace file (validating every line).

    ``tolerant_tail=False`` (the default, for completed traces) raises
    ``ValueError`` on any malformed line. ``tolerant_tail=True`` is for
    readers following a *live* ``stream``-mode trace: the writer flushes
    after every line, but a reader can still observe a torn final line —
    a partially flushed write, or a line cut short by a killed worker.
    Matching :func:`repro.jobs.checkpoint.load_checkpoint`'s torn-tail
    handling, such a final line is skipped, counted and warned about
    (``UserWarning``) instead of crashing the reader; a malformed line
    anywhere *before* the tail is corruption either way and still raises.
    """
    with open(path, encoding="utf-8") as handle:
        lines = list(map(str.strip, handle.read().splitlines()))
    events, bad = _decode_lines(lines)
    if bad == len(lines):
        return events
    # The first bad line's error text comes from json.loads or
    # validate_event, re-run on it alone.
    lineno = bad + 1
    final = tolerant_tail and lineno == len(lines)
    try:
        payload = json.loads(lines[bad])
    except json.JSONDecodeError as exc:
        if not final:
            raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
        warnings.warn(
            f"{path}:{lineno}: skipped torn final trace line "
            f"(live stream mid-write?)", UserWarning, stacklevel=2)
        return events
    try:
        validate_event(payload)
    except ValueError:
        if not final:
            raise
        warnings.warn(
            f"{path}:{lineno}: skipped schema-invalid final trace "
            f"line (live stream mid-write?)", UserWarning, stacklevel=2)
    return events


def _decode_lines(lines: List[str]) -> Tuple[List[dict], int]:
    """Decode stripped JSONL lines up to the first one that is not an event.

    Returns ``(events, bad)``: the events of the non-blank lines before
    ``lines[bad]``, the first line on which ``json.loads`` or
    :func:`validate_event` raises (``bad == len(lines)`` if none does).
    Shared by :func:`read_trace` and :class:`repro.trace.TraceTail`,
    which re-parse ``lines[bad]`` with those two to raise their errors.

    Each line costs one C-level scan (what ``json.loads`` runs on a
    stripped line) and one inline check that accepts a subset of what
    :func:`validate_event` accepts. Of the field values JSON can
    produce, :func:`validate_event` rejects only objects, alone or in
    lists, and a line whose only ``{`` is the leading one has none. A
    line failing the inline check gets the full :func:`validate_event`.
    """
    events: List[dict] = []
    append = events.append
    scan = _scan_once
    categories = _CATEGORY_SET
    for index, line in enumerate(lines):
        if not line:
            continue
        try:
            payload, end = scan(line, 0)
        except (StopIteration, ValueError):
            return events, index
        if end != len(line):  # extra data after the value
            return events, index
        if type(payload) is dict:
            cycle = payload.get("cycle")
            cat = payload.get("cat")
            event = payload.get("event")
            if (type(cycle) is int and cycle >= 0
                    and type(cat) is str and cat in categories
                    and type(event) is str and event
                    and line.find("{", 1) < 0):
                append(payload)
                continue
        try:
            validate_event(payload)
        except ValueError:
            return events, index
        append(payload)
    return events, len(lines)
