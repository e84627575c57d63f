"""Worker-side harness of the process-pool backend.

Everything in this module runs *inside worker processes*. It has three
jobs:

1. **Execute** the user's module-level worker callable on a payload,
   JSON-normalize the value and stamp it with an integrity digest
   (:func:`repro.jobs.model.result_digest`) so the scheduler can detect
   corruption in flight.
2. **Carry out chaos faults.** The pool's :class:`~repro.faults.FaultPlan`
   decides at dispatch whether an attempt is faulted and ships the
   ``worker`` :class:`~repro.faults.Fault` with it: ``kill`` hard-exits
   the process, ``hang`` sleeps inside the job (so only the hard
   deadline can reap it), and ``corrupt_result`` mangles the value
   *after* the digest was computed.
3. **Shard logging.** When a shard directory is configured, each worker
   appends every successful result to its own JSONL shard
   (:mod:`repro.jobs.shards`) before reporting it — the Taurus-style
   per-worker parallel log that survives a dead coordinator.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional

from repro.faults import EXIT_ABNORMAL, Fault
from repro.jobs.model import normalize_value, result_digest
from repro.jobs.shards import ShardWriter

#: Default sleep for ``worker:hang`` when the fault spec has no param.
HANG_SECONDS = 3600


def execute_job(worker_fn: Callable, payload, job_id: str,
                fault: Optional[Fault]) -> dict:
    """Run one job, carrying out its ``worker`` chaos fault if any.

    Returns ``{"value": <normalized>, "digest": <hex>}``. The digest is
    always computed over the *true* value; ``corrupt_result`` then
    swaps the value out, so the scheduler's integrity check catches it.
    """
    if fault is not None and fault.action == "kill":
        os._exit(EXIT_ABNORMAL)
    if fault is not None and fault.action == "hang":
        time.sleep(fault.param or HANG_SECONDS)
    value = normalize_value(worker_fn(payload))
    digest = result_digest(value)
    if fault is not None and fault.action == "corrupt_result":
        value = {"__corrupted__": job_id}
    return {"value": value, "digest": digest}


#: This worker process's shard log (armed once by the initializer).
_POOL_STATE = {"shard": None}


def arm_pool_worker(shard_dir: Optional[str]) -> None:
    """``ProcessPoolExecutor`` initializer: open this worker process's
    shard log, named after its pid."""
    _POOL_STATE["shard"] = (ShardWriter(shard_dir, f"pool-{os.getpid()}")
                            if shard_dir else None)


def pool_shim(worker_fn: Callable, payload, job_id: str,
              fault: Optional[Fault]) -> dict:
    """The callable actually submitted to pool workers: harness + shard."""
    out = execute_job(worker_fn, payload, job_id, fault)
    shard = _POOL_STATE["shard"]
    if shard is not None:
        shard.append({"job_id": job_id, "status": "ok",
                      "value": out["value"], "digest": out["digest"]})
    return out
