"""Sequential oracle for lifeguard correctness tests.

Replays a captured event trace in its global linearization order
(records are stamped with a monotone ``commit_time`` at the point they
become coherence-ordered) through a *fresh* lifeguard instance using
plain, unaccelerated event delivery. Under SC this order is a legal
sequential execution of the monitored program, so the parallel
monitoring platform — arcs, delayed advertising, CA barriers,
accelerators and all — must end with exactly the same metadata.

This is the testing backbone of the reproduction: any ordering bug
(a lost arc, a mis-flushed IT row, a CA barrier that releases too early)
shows up as a fingerprint mismatch.
"""

from __future__ import annotations

from typing import Callable, Iterable, List

from repro.accel.inheritance import InheritanceTracking
from repro.capture.events import Record, RecordKind
from repro.lifeguards.base import Lifeguard


def linearize(trace: Iterable[Record]) -> List[Record]:
    """Sort a trace into its global coherence order."""
    records = [r for r in trace if r.commit_time is not None]
    records.sort(key=lambda r: (r.commit_time, r.tid, r.rid))
    return records


def replay(trace: Iterable[Record],
           lifeguard_factory: Callable[[], Lifeguard]) -> Lifeguard:
    """Replay a trace sequentially; returns the populated lifeguard."""
    lifeguard = lifeguard_factory()
    passthrough = InheritanceTracking(enabled=False)
    for record in linearize(trace):
        if record.kind == RecordKind.CA_MARK:
            continue  # CA marks carry no lifeguard semantics of their own
        for event in passthrough.process(record):
            if not lifeguard.wants(event):
                continue  # mirror the delivery hardware's event filtering
            if event[0] == "load_versioned":
                # The oracle replays in true coherence order, so the
                # "current" metadata *is* the version the load must see.
                rec = event[1]
                snapshot = lifeguard.metadata.snapshot_range(rec.addr, rec.size)
                event = ("load_versioned", rec, (rec.addr, rec.size, snapshot))
            lifeguard.handle(event)
    return lifeguard


def fingerprints_match(lhs: Lifeguard, rhs: Lifeguard) -> bool:
    """Are two lifeguards' semantic states identical?"""
    return lhs.metadata_fingerprint() == rhs.metadata_fingerprint()
