"""Per-worker JSONL result shards (Taurus-style parallel logs).

Taurus shows that parallel recovery gets cheap when every worker keeps
its *own* append-only log plus lightweight sequencing metadata, instead
of funneling everything through one coordinator-side file. Here each
pool worker appends every successful result to a private shard
(``pool-<pid>.jsonl``) in the shard directory *before* the result
travels back to the coordinator. The coordinator's
checkpoint stays the primary resume source; the shards are the recovery
log for the case the checkpoint cannot cover — the coordinator itself
dying (or losing checkpoint lines) while workers had already finished
cells. On ``resume=True`` the runner unions checkpointed results with
digest-verified shard records, and the canonical-order merge makes the
recovered sweep byte-identical to an uninterrupted serial run.

Shard records carry the result's integrity digest; a torn or corrupted
shard line (workers get killed mid-write by design) is skipped, counted
and reported — never trusted.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Tuple

from repro.jobs.model import result_digest


class ShardWriter:
    """Append-only JSONL log of one worker's successful results."""

    def __init__(self, shard_dir: str, worker_name: str):
        os.makedirs(shard_dir, exist_ok=True)
        self.path = os.path.join(shard_dir, f"{worker_name}.jsonl")
        self._stream = open(self.path, "a")

    def append(self, payload: dict) -> None:
        """Write one result record and flush it to the OS."""
        self._stream.write(json.dumps(payload, separators=(",", ":"),
                                      sort_keys=True))
        self._stream.write("\n")
        self._stream.flush()

    def close(self) -> None:
        """Close the shard file."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None


def load_shards(shard_dir: str) -> Tuple[Dict[str, dict], int]:
    """Union every shard in ``shard_dir`` into ``{job_id: record}``.

    Only records that parse, carry a ``job_id``/``value``/``digest`` and
    whose value *matches* its digest are kept (a record corrupted by the
    ``worker:corrupt_result`` chaos fault self-identifies here and is
    dropped). Returns the merged records plus the number of skipped
    lines. Duplicate job ids across shards are harmless: workers are
    deterministic per job, so every surviving copy carries the same
    value.
    """
    records: Dict[str, dict] = {}
    skipped = 0
    if not os.path.isdir(shard_dir):
        return records, skipped
    for name in sorted(os.listdir(shard_dir)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(shard_dir, name)) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    skipped += 1
                    continue
                if (not isinstance(payload, dict)
                        or not isinstance(payload.get("job_id"), str)
                        or "value" not in payload
                        or "digest" not in payload):
                    skipped += 1
                    continue
                if result_digest(payload["value"]) != payload["digest"]:
                    skipped += 1
                    continue
                records[payload["job_id"]] = payload
    return records, skipped
