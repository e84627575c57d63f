"""The parallel sweep executor facade.

Every sweep in the repo — differential seed sweeps, replay fan-outs,
the figure regeneration loops — is a list of *independent* cells (seed
× scheme × lifeguard, benchmark × thread count, ...). :class:`JobRunner`
runs such a list on one host while keeping the output
*indistinguishable from the serial run*:

* **Where cells run is derived, not chosen.** A sweep runs on the
  process pool (:mod:`repro.jobs.executors`) when it needs more than
  one worker or anything only a separate process can give — a hard
  per-cell ``timeout``, worker chaos faults, per-worker result shards.
  Otherwise it runs inline, bit-identical to the historical serial
  loop. A pool that cannot start, or breaks beyond repair, falls back
  inline with outstanding attempts re-queued uncharged (traced as
  ``degrade``).
* **Deterministic sharding and merge.** The caller enumerates jobs in a
  canonical order and each job gets a stable string id. Workers
  complete in whatever order the OS schedules them — or die, hang and
  get retried — but results are merged back in canonical job order, so
  the merged output is byte-identical to the serial run (the simulator
  itself is deterministic per seed; no wall-clock values are allowed
  into job values).
* **Deadlines and bounded retries.** A hard per-attempt ``timeout``
  bounds every pool attempt; an overrun kills the worker and charges
  the attempt. All retries wait out a deterministic capped exponential
  backoff (:mod:`repro.jobs.backoff`) instead of hammering immediately.
* **Checkpoint/resume and shards.** Every terminal result is appended
  to a JSONL checkpoint; an interrupted sweep restarted with
  ``resume=True`` skips exactly the recovered job ids. When a shard
  directory is configured, per-worker JSONL result shards
  (:mod:`repro.jobs.shards`) are unioned in on resume, so even results
  whose checkpoint line never landed (a dead coordinator) are not
  recomputed. A ``KeyboardInterrupt`` mid-sweep flushes and fsyncs the
  checkpoint before propagating, and the CLI exits with the documented
  abnormal code (:data:`repro.faults.EXIT_ABNORMAL`).

The ``worker`` callable must be a **module-level function** (it is
pickled by reference into worker processes) taking the job's JSON
payload and returning a JSON-serializable value.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

from repro.faults import Fault
from repro.jobs.backoff import BackoffPolicy
from repro.jobs.checkpoint import CheckpointWriter, load_checkpoint
from repro.jobs.model import (  # noqa: F401 — re-exported for compat
    EXIT_CRASHED,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_TIMEOUT,
    Job,
    JobResult,
    TERMINAL_STATUSES,
)
from repro.jobs.scheduler import JobScheduler
from repro.jobs.shards import load_shards


class JobRunner:
    """Runs a canonical job list; see the module docstring.

    :attr:`use_pool` is the one placement decision: the process pool
    when ``nworkers > 1``, a ``timeout`` is set, ``worker_faults`` are
    given or a ``shard_dir`` is set; inline otherwise (fully serial, no
    pickling, bit-identical to the historical loops).
    """

    def __init__(self, worker: Callable, *, nworkers: int = 1,
                 timeout: Optional[float] = None, retries: int = 1,
                 checkpoint_path: Optional[str] = None, resume: bool = False,
                 backoff: Optional[BackoffPolicy] = None,
                 worker_faults: Sequence[Fault] = (), fault_seed: int = 0,
                 shard_dir: Optional[str] = None, tracer=None):
        if nworkers < 1:
            raise ValueError("nworkers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and not (math.isfinite(timeout)
                                        and timeout > 0):
            raise ValueError(f"timeout must be a finite number of seconds "
                             f"> 0, got {timeout!r}")
        if resume and not checkpoint_path:
            raise ValueError("resume=True requires a checkpoint_path")
        self.worker = worker
        self.nworkers = nworkers
        self.timeout = timeout
        self.retries = retries
        self.checkpoint_path = checkpoint_path
        self.resume = resume
        self.backoff = backoff
        self.worker_faults = tuple(worker_faults or ())
        self.fault_seed = fault_seed
        self.shard_dir = shard_dir
        self.tracer = tracer
        self.use_pool = (nworkers > 1 or timeout is not None
                         or bool(self.worker_faults) or bool(shard_dir))

    # -- tracing ---------------------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        if self.tracer is not None:
            self.tracer.emit("jobs", event, **fields)

    # -- resume sources --------------------------------------------------------

    def _recovered(self) -> Dict[str, JobResult]:
        """Union the two recovery logs: the coordinator's checkpoint
        (any terminal status) and the workers' shards (successful
        results that may never have reached a checkpoint line)."""
        results: Dict[str, JobResult] = {}
        if not self.resume:
            return results
        for job_id, payload in load_checkpoint(self.checkpoint_path,
                                               tracer=self.tracer).items():
            results[job_id] = JobResult.from_json(payload, resumed=True)
        from_shards = 0
        if self.shard_dir:
            records, skipped = load_shards(self.shard_dir)
            for job_id, record in records.items():
                if job_id not in results:
                    results[job_id] = JobResult(job_id, "ok",
                                                value=record["value"],
                                                resumed=True)
                    from_shards += 1
            if skipped:
                self._emit("shard_skipped", lines=skipped)
        self._emit("resume", skipped=len(results), from_shards=from_shards)
        return results

    # -- public API ------------------------------------------------------------

    def run(self, jobs: List[Job]) -> List[JobResult]:
        """Run every job; returns results in canonical (input) order."""
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids in sweep")

        results = self._recovered()
        todo = [job for job in jobs if job.job_id not in results]
        checkpoint = (CheckpointWriter(self.checkpoint_path)
                      if self.checkpoint_path else None)

        def record(result: JobResult) -> None:
            results[result.job_id] = result
            if checkpoint is not None:
                checkpoint.append(result.to_json())
            self._emit("done", job=result.job_id, status=result.status,
                       attempts=result.attempts)

        scheduler = JobScheduler(
            self.worker, use_pool=self.use_pool, nworkers=self.nworkers,
            record=record, timeout=self.timeout, retries=self.retries,
            backoff=self.backoff,
            worker_faults=self.worker_faults, fault_seed=self.fault_seed,
            shard_dir=self.shard_dir, tracer=self.tracer)
        try:
            scheduler.run(todo)
        except KeyboardInterrupt:
            # Satellite guarantee: an interrupt never loses a completed
            # result — sync the checkpoint before propagating so the CLI
            # can exit with the documented abnormal code.
            if checkpoint is not None:
                checkpoint.sync()
            self._emit("interrupted", completed=len(results),
                       remaining=len(jobs) - len(results))
            raise
        finally:
            if checkpoint is not None:
                checkpoint.close()
        self._emit("sweep_done", total=len(jobs),
                   failed=sum(1 for r in results.values() if not r.ok))
        return [results[job_id] for job_id in ids]


def run_jobs(jobs: List[Job], worker: Callable, *, nworkers: int = 1,
             timeout: Optional[float] = None, retries: int = 1,
             checkpoint_path: Optional[str] = None, resume: bool = False,
             backoff: Optional[BackoffPolicy] = None,
             worker_faults: Sequence[Fault] = (), fault_seed: int = 0,
             shard_dir: Optional[str] = None, tracer=None) -> List[JobResult]:
    """Convenience wrapper: build a :class:`JobRunner` and run it."""
    runner = JobRunner(worker, nworkers=nworkers, timeout=timeout,
                       retries=retries, checkpoint_path=checkpoint_path,
                       resume=resume, backoff=backoff,
                       worker_faults=worker_faults,
                       fault_seed=fault_seed, shard_dir=shard_dir,
                       tracer=tracer)
    return runner.run(jobs)
