"""Unit tests for the sweep executor's building blocks.

Covers the pieces under :mod:`repro.jobs` that the behavioral tests in
``test_jobs.py`` / ``test_jobs_chaos.py`` exercise only end-to-end: the
deterministic backoff policy, the hard per-attempt deadlines, the
per-worker result shards, the buffered-but-synced checkpoint writer,
where cells run (pool or inline), and backend parity and the fallback
to inline.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.faults import parse_fault_spec
from repro.jobs import (
    BackoffPolicy,
    CheckpointWriter,
    Job,
    JobRunner,
    ShardWriter,
    load_checkpoint,
    load_shards,
    result_digest,
    run_jobs,
)
from repro.jobs.scheduler import POLL_CAP, JobScheduler
from repro.trace.writer import TraceWriter
from tests.test_jobs import _jobs, misbehaving_worker, square_worker


# -- backoff ------------------------------------------------------------------

class TestBackoffPolicy:
    def test_capped_exponential_shape(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, cap=0.5, jitter=0.0)
        assert policy.delay("j", 1) == pytest.approx(0.1)
        assert policy.delay("j", 2) == pytest.approx(0.2)
        assert policy.delay("j", 3) == pytest.approx(0.4)
        assert policy.delay("j", 4) == pytest.approx(0.5)  # capped
        assert policy.delay("j", 10) == pytest.approx(0.5)

    def test_jitter_is_deterministic_and_seeded(self):
        policy = BackoffPolicy(seed=7)
        assert policy.delay("a", 1) == policy.delay("a", 1)
        # different jobs / attempts / seeds decorrelate
        assert policy.delay("a", 1) != policy.delay("b", 1)
        assert policy.delay("a", 1) != policy.delay("a", 2)
        assert policy.delay("a", 1) != BackoffPolicy(seed=8).delay("a", 1)

    def test_jitter_never_exceeds_cap(self):
        policy = BackoffPolicy(base=4.0, cap=5.0, jitter=1.0)
        assert all(policy.delay(f"j{i}", 1) <= 5.0 for i in range(50))

    def test_none_policy_is_immediate(self):
        policy = BackoffPolicy.none()
        assert policy.delay("j", 1) == 0.0
        assert policy.delay("j", 99) == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)


# -- deadlines ----------------------------------------------------------------

class TestDeadlines:
    """Each in-flight pool attempt carries one hard deadline."""

    def _scheduler(self, **kwargs):
        return JobScheduler(square_worker, use_pool=False, nworkers=1,
                            record=lambda result: None, **kwargs)

    def test_wait_never_sleeps_past_the_next_deadline(self):
        scheduler = self._scheduler(timeout=5.0)
        assert scheduler._wait_time(100.0) == POLL_CAP  # nothing in flight
        scheduler._deadlines.update({1: 103.0, 2: 100.25})
        assert scheduler._wait_time(100.0) == pytest.approx(0.25)
        assert scheduler._wait_time(101.0) == 0.0  # overdue: poll, no sleep
        del scheduler._deadlines[2]
        assert scheduler._wait_time(100.0) == POLL_CAP  # 3 s away: capped

    def test_inline_fallback_sets_no_deadlines(self, monkeypatch):
        """The inline loop cannot kill a cell, so after the pool fails
        to start a slow cell completes instead of being charged a
        timeout it was never reaped for."""
        from repro.jobs import executors as ex

        def refuse_start(self):
            raise ex.ExecutorError("unavailable in this test")

        monkeypatch.setattr(ex.PoolExecutor, "start", refuse_start)
        tracer = TraceWriter(categories=("jobs",), keep=True)
        results = run_jobs(_jobs(2, j0={"sleep": 0.2}), misbehaving_worker,
                           timeout=0.05, retries=0, tracer=tracer)
        assert [r.status for r in results] == ["ok", "ok"]
        assert not [e for e in tracer.events if e["event"] == "timeout"]


# -- shards -------------------------------------------------------------------

class TestShards:
    def _record(self, job_id, value):
        return {"job_id": job_id, "status": "ok", "value": value,
                "digest": result_digest(value)}

    def test_round_trip_and_union(self, tmp_path):
        shard_dir = str(tmp_path)
        for name, ids in (("worker-0", ["a", "b"]), ("worker-1", ["c"])):
            writer = ShardWriter(shard_dir, name)
            for job_id in ids:
                writer.append(self._record(job_id, {"v": job_id}))
            writer.close()
        records, skipped = load_shards(shard_dir)
        assert sorted(records) == ["a", "b", "c"]
        assert records["c"]["value"] == {"v": "c"}
        assert skipped == 0

    def test_corrupt_and_mismatched_lines_skipped(self, tmp_path):
        shard_dir = str(tmp_path)
        good = self._record("good", 42)
        forged = dict(self._record("forged", 1), value=2)  # wrong digest
        (tmp_path / "worker-0.jsonl").write_text(
            json.dumps(good) + "\n"
            + "torn-line{{{\n"
            + json.dumps(forged) + "\n"
            + json.dumps({"value": 1, "digest": "x"}) + "\n")  # no job_id
        records, skipped = load_shards(shard_dir)
        assert sorted(records) == ["good"]
        assert skipped == 3

    def test_missing_dir_is_empty(self, tmp_path):
        records, skipped = load_shards(str(tmp_path / "nope"))
        assert records == {} and skipped == 0

    def test_resume_unions_shards_with_checkpoint(self, tmp_path):
        """A result that reached a worker shard but never the
        coordinator checkpoint (dead coordinator) is not recomputed."""
        shard_dir = str(tmp_path / "shards")
        cp = str(tmp_path / "cp.jsonl")
        writer = ShardWriter(shard_dir, "worker-0")
        writer.append(self._record("j1", {"square": 1}))
        writer.close()
        open(cp, "w").close()  # empty checkpoint: coordinator died early

        tracer = TraceWriter(categories=("jobs",), keep=True)
        results = run_jobs(_jobs(3), square_worker, checkpoint_path=cp,
                           resume=True, shard_dir=shard_dir, tracer=tracer)
        started = [e["job"] for e in tracer.events if e["event"] == "start"]
        assert started == ["j0", "j2"]  # j1 recovered from the shard
        assert [r.value["square"] for r in results] == [0, 1, 4]
        assert results[1].resumed


# -- checkpoint durability ----------------------------------------------------

class TestCheckpointWriter:
    def test_sync_flushes_buffered_lines(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        writer = CheckpointWriter(path, fsync_every=1000)
        writer.append({"job_id": "a", "status": "ok"})
        writer.sync()
        assert sorted(load_checkpoint(path)) == ["a"]
        writer.close()

    def test_periodic_fsync_counter(self, tmp_path):
        writer = CheckpointWriter(str(tmp_path / "cp.jsonl"), fsync_every=2)
        writer.append({"job_id": "a", "status": "ok"})
        assert writer._unsynced == 1
        writer.append({"job_id": "b", "status": "ok"})
        assert writer._unsynced == 0  # hit fsync_every -> synced
        writer.close()

    def test_invalid_fsync_every_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointWriter(str(tmp_path / "cp.jsonl"), fsync_every=0)

    def test_interrupt_syncs_checkpoint_and_exits_abnormally(self, tmp_path):
        """Satellite guarantee, end to end: SIGINT mid-sweep leaves a
        loadable checkpoint and the CLI exits with the documented
        abnormal code (3)."""
        cp = tmp_path / "cp.jsonl"
        cells = 8
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "diff", "--seeds", str(cells),
             "--lifeguards", "addrcheck", "--jobs", "2",
             "--checkpoint", str(cp)],
            env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        # let a cell land, then interrupt the sweep
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if cp.exists() and len(cp.read_text().splitlines()) >= 1:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        _out, err = proc.communicate(timeout=60)
        if proc.returncode == 0:
            pytest.skip("sweep finished before the interrupt landed")
        if (proc.returncode == -signal.SIGINT
                and len(load_checkpoint(str(cp))) == cells):
            # Every cell was checkpointed: the interrupt raced process
            # exit and hit interpreter finalization, where CPython has
            # already restored SIGINT to its default disposition.
            pytest.skip("interrupt landed during interpreter teardown")
        assert proc.returncode == 3, err
        assert "resume" in err
        recovered = load_checkpoint(str(cp))
        assert recovered  # the synced lines parse and key resume


# -- placement / backends ----------------------------------------------------

class TestPlacement:
    """Where cells run is derived from the sweep's inputs."""

    @pytest.mark.parametrize("kwargs,use_pool", [
        (dict(), False),
        (dict(retries=3, checkpoint_path="cp.jsonl"), False),
        (dict(nworkers=2), True),
        (dict(timeout=5.0), True),
        (dict(worker_faults=(parse_fault_spec("worker:kill"),)), True),
        (dict(shard_dir="shards"), True),
    ], ids=["serial", "checkpointed", "nworkers", "timeout", "faults",
            "shards"])
    def test_pool_only_when_the_inputs_need_one(self, kwargs, use_pool):
        assert JobRunner(square_worker, **kwargs).use_pool is use_pool

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan"),
                                         float("inf")])
    def test_bad_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            JobRunner(square_worker, timeout=timeout)


class TestBackendParity:
    """Both backends produce the byte-identical canonical merge."""

    @pytest.mark.parametrize("kwargs", [
        dict(),
        dict(nworkers=2),
    ], ids=["inline", "pool"])
    def test_merge_identical_to_serial(self, kwargs):
        jobs = _jobs(6)
        serial = [r.to_json() for r in run_jobs(jobs, square_worker)]
        assert [r.to_json()
                for r in run_jobs(jobs, square_worker, **kwargs)] == serial

    def test_unstartable_pool_falls_back_inline(self, monkeypatch):
        """With the pool unable to start, the sweep completes inline —
        and the fallback is traced."""
        from repro.jobs import executors as ex

        def refuse_start(self):
            raise ex.ExecutorError("unavailable in this test")

        monkeypatch.setattr(ex.PoolExecutor, "start", refuse_start)
        tracer = TraceWriter(categories=("jobs",), keep=True)
        results = run_jobs(_jobs(3), square_worker, nworkers=2,
                           tracer=tracer)
        assert all(r.ok for r in results)
        rungs = [(e["from_executor"], e["to_executor"])
                 for e in tracer.events if e["event"] == "degrade"]
        assert rungs == [("pool", "inline")]

    def test_one_worker_pool_isolates_failures(self, tmp_path):
        """A shard directory puts a one-worker sweep on the pool, so a
        cell that hard-exits is charged as a crash instead of taking the
        coordinator down, with the same attempt accounting as at two
        workers."""
        jobs = _jobs(4, j1={"raise": "boom"}, j2={"exit": 7})
        results = run_jobs(jobs, misbehaving_worker, nworkers=1, retries=1,
                           backoff=BackoffPolicy.none(),
                           shard_dir=str(tmp_path))
        by_id = {r.job_id: r for r in results}
        assert by_id["j1"].status == "error"
        assert by_id["j1"].attempts == 2
        assert "boom" in by_id["j1"].error
        assert by_id["j2"].status == "crashed"
        assert by_id["j2"].attempts == 2
        for sibling in ("j0", "j3"):
            assert by_id[sibling].status == "ok"

    def test_one_worker_hard_timeout_reaps_hung_worker(self):
        """A timeout alone puts a one-worker sweep on the pool, whose
        hard deadline reaps the hung cell; the rest still complete."""
        jobs = _jobs(3, j0={"sleep": 60})
        results = run_jobs(jobs, misbehaving_worker, nworkers=1,
                           timeout=1.0, retries=0)
        assert results[0].status == "timeout"
        assert results[1].status == "ok" and results[2].status == "ok"

    def test_retry_backoff_is_traced_with_delay(self):
        tracer = TraceWriter(categories=("jobs",), keep=True)
        run_jobs(_jobs(1, j0={"raise": "x"}), misbehaving_worker, retries=1,
                 backoff=BackoffPolicy(base=0.01, cap=0.02), tracer=tracer)
        retries = [e for e in tracer.events if e["event"] == "retry"]
        assert retries and retries[0]["delay"] > 0

    @pytest.mark.parametrize("nworkers", [1, 2])
    def test_pool_jobs_log_to_shards(self, tmp_path, nworkers):
        shard_dir = str(tmp_path)
        run_jobs(_jobs(4), square_worker, nworkers=nworkers,
                 shard_dir=shard_dir)
        records, skipped = load_shards(shard_dir)
        assert sorted(records) == ["j0", "j1", "j2", "j3"]
        assert skipped == 0
        assert Job("j0").payload is None  # Job defaults stay lean
