"""Parallel sweep executor: deterministic fan-out over local workers.

See :mod:`repro.jobs.runner` for the execution model (where cells run,
deterministic merge order, hard per-attempt deadlines, bounded retries
with deterministic backoff, the inline fallback),
:mod:`repro.jobs.executors` for the two backends (``inline`` and
``pool``), :mod:`repro.jobs.checkpoint` for the JSONL checkpoint/resume
format and :mod:`repro.jobs.shards` for the Taurus-style per-worker
result shards. The sweep surfaces that use it — ``repro.trace.diff``
seed sweeps, ``repro.replay`` fan-outs, the ``repro.eval.experiments``
figure loops — all expose it as ``--jobs N`` (default 1: the
historical serial path, bit-identical output).
"""

from repro.jobs.backoff import BackoffPolicy
from repro.jobs.checkpoint import CheckpointWriter, load_checkpoint
from repro.jobs.executors import Executor, ExecutorError, ExecutorEvent
from repro.jobs.model import (
    EXIT_CRASHED,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_TIMEOUT,
    Job,
    JobResult,
    TERMINAL_STATUSES,
    normalize_value,
    result_digest,
)
from repro.jobs.runner import JobRunner, run_jobs
from repro.jobs.shards import ShardWriter, load_shards

__all__ = [
    "BackoffPolicy",
    "CheckpointWriter",
    "EXIT_CRASHED",
    "EXIT_ERROR",
    "EXIT_OK",
    "EXIT_TIMEOUT",
    "Executor",
    "ExecutorError",
    "ExecutorEvent",
    "Job",
    "JobResult",
    "JobRunner",
    "ShardWriter",
    "TERMINAL_STATUSES",
    "load_checkpoint",
    "load_shards",
    "normalize_value",
    "result_digest",
    "run_jobs",
]
