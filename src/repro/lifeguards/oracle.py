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

from repro.accel.inheritance import PASSTHROUGH_TAG
from repro.capture.events import Record, coherence_order
from repro.lifeguards.base import Lifeguard


def linearize(trace: Iterable[Record]) -> List[Record]:
    """Sort a trace into its global coherence order."""
    records = [r for r in trace if r.commit_time is not None]
    records.sort(key=coherence_order)
    return records


def replay(trace: Iterable[Record],
           lifeguard_factory: Callable[[], Lifeguard]) -> Lifeguard:
    """Replay a trace sequentially; returns the populated lifeguard."""
    return replay_linearized(linearize(trace), lifeguard_factory)


def replay_linearized(records: Iterable[Record],
                      lifeguard_factory: Callable[[], Lifeguard]
                      ) -> Lifeguard:
    """Replay records already in coherence order through a fresh
    lifeguard; returns it populated.

    Each record is translated to its event with the disabled-IT table
    (:data:`~repro.accel.inheritance.PASSTHROUGH_TAG`): no accelerator
    runs, and ``records`` is only read, so one linearized archive can
    feed any number of lifeguards.
    """
    lifeguard = lifeguard_factory()
    wants = lifeguard.wants
    handle = lifeguard.handle
    for record in records:
        tag = PASSTHROUGH_TAG.get(record.kind)
        if tag is None:
            continue  # NOP, THREAD_EXIT and CA marks deliver nothing
        if tag == "load" and record.consume_version is not None:
            event = ("load_versioned", record)
            if not wants(event):
                continue  # mirror the delivery hardware's event filtering
            # The oracle replays in true coherence order, so the
            # "current" metadata *is* the version the load must see.
            snapshot = lifeguard.metadata.snapshot_range(record.addr,
                                                         record.size)
            event = ("load_versioned", record,
                     (record.addr, record.size, snapshot))
        else:
            event = (tag, record)
            if not wants(event):
                continue
        handle(event)
    return lifeguard


def fingerprints_match(lhs: Lifeguard, rhs: Lifeguard) -> bool:
    """Are two lifeguards' semantic states identical?"""
    return lhs.metadata_fingerprint() == rhs.metadata_fingerprint()
