"""Interleaved A/B of the benchmark's throughput: parent vs this checkout.

Usage::

    python3 .github/perf_ab.py PARENT_CHECKOUT

``PARENT_CHECKOUT`` is a checkout of the commit to compare against (CI
makes it with ``git worktree add``). For each workload below, the
script runs ``perfbench/run.py --seed 1 --seconds 3 --trace 0`` in both
checkouts, pair after pair, alternating which side runs first, and
prints one table row per pair. It fails when any run is incorrect or
has a failed operation, or when a workload's median change/parent
``kinst_per_s`` ratio falls below ``1 - bound``, the bound
``BENCHMARK.json`` sets for that metric. Both sides run on the same
host in alternation, so host speed cancels out of the ratio.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

CHANGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("diff_sweep", "paper_small", "replay_fanout")
PAIRS = 5
SECONDS = 3
METRIC = "kinst_per_s"


def kinst_bound() -> float:
    """The allowed relative regression of :data:`METRIC`."""
    with open(os.path.join(CHANGE, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    (bound,) = [metric["bound"] for metric in spec["end_to_end"]
                if metric["name"] == METRIC]
    return bound


def run_once(checkout: str, workload: str) -> dict:
    """One benchmark run; returns its final JSON line."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"{workload} in {checkout}: no result "
                         f"(exit {completed.returncode})")
    return json.loads(lines[-1])


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    sides = {"parent": os.path.abspath(argv[0]), "change": CHANGE}
    floor = 1 - kinst_bound()
    failures = []
    print(f"{'workload':<14} {'pair':>4} {'first':<7} {'parent':>10} "
          f"{'change':>10} {'ratio':>7}")
    for workload in WORKLOADS:
        ratios = []
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            results = {side: run_once(sides[side], workload)
                       for side in order}
            for side, result in results.items():
                if result["correct"] is not True or result["failed"] != 0:
                    failures.append(
                        f"{workload} pair {pair + 1}: {side} run correct="
                        f"{result['correct']} failed={result['failed']}")
            parent = results["parent"]["metrics"][METRIC]["value"]
            change = results["change"]["metrics"][METRIC]["value"]
            ratios.append(change / parent)
            print(f"{workload:<14} {pair + 1:>4} {order[0]:<7} "
                  f"{parent:>10.2f} {change:>10.2f} {ratios[-1]:>7.3f}",
                  flush=True)
        median = statistics.median(ratios)
        print(f"{workload:<14} median change/parent {METRIC} ratio "
              f"{median:.3f} (floor {floor:.2f})", flush=True)
        if median < floor:
            failures.append(f"{workload}: median {METRIC} ratio "
                            f"{median:.3f} < {floor:.2f}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
