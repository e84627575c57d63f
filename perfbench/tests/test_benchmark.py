"""Tests of the benchmark itself: its contract file, its failure
accounting, and the per-layer attribution it reports.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root. The traced-run test starts two benchmark processes and takes
about half a minute; the rest use scaled-down inputs in-process.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from layers import (LAYERS, LAYER_METRICS, LayerMap, Spans, attribute,
                    profile_call)
from repro import ScalePreset
from repro.memory import address
from repro.memory.coherence import CoherentMemorySystem
from scenarios import SCENARIOS, Outcome, PaperSmall, ReplayFanout, Step

ROOT = run.ROOT
RUN = os.path.join(run.HERE, "run.py")
TINY = ScalePreset.TINY


def layer_calls(scenario):
    """Python calls per layer of one profiled pass, plus the raw profile
    and the pass."""
    import repro

    layer_map = LayerMap(os.path.dirname(repro.__file__))
    result, stats = profile_call(
        lambda: run.run_pass(scenario, Spans(), "profiled"))
    table = attribute(stats, layer_map)["layers"]
    return {layer: table[layer]["calls"] for layer in LAYERS}, stats, \
        result


def test_contract_file_names_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        contract = json.load(f)
    assert contract["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in contract["workloads"]] == list(SCENARIOS)
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in contract["per_layer"]} == LAYER_METRICS


def test_a_raising_step_is_counted_and_the_pass_goes_on():
    class Broken:
        def steps(self):
            def boom(spans, state):
                raise RuntimeError("planted")
            return [Step("boom", boom), Step("fine", lambda s, t: Outcome(7))]

    result = run.run_pass(Broken(), Spans(), "pass")
    assert result.attempted == 2 and result.failed == 1
    assert result.work == 7 and len(result.latencies) == 2
    assert result.failures == ["boom: RuntimeError: planted"]


def test_two_traced_runs_give_identical_calls_per_kinst():
    """Calls per simulated kilo-instruction repeat exactly across
    processes, even when the runs time a different number of passes."""
    calls = []
    for seconds in ("0", "3"):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "diff_sweep", "--seed", "2",
             "--seconds", seconds, "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
            check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        calls.append({name: metric["value"]
                      for name, metric in result["metrics"].items()
                      if name.endswith(".calls_per_kinst")})
    assert len(calls[0]) == len(LAYERS)
    assert calls[0] == calls[1]
    for layer in ("engine", "cores", "memory", "lifeguards", "diff",
                  "trace", "platform", "workloads"):
        assert calls[0][f"{layer}.calls_per_kinst"] > 0, layer


def test_replay_fanout_bypasses_the_simulated_cmp(tmp_path):
    scenario = ReplayFanout(1, workdir=str(tmp_path), scale=TINY,
                            kernels=("swaptions",))
    scenario.generate(Spans())
    scenario.verify(Spans())
    calls, stats, result = layer_calls(scenario)
    assert not result.failures
    for layer in ("engine", "cores", "memory", "lifeguard_core", "enforce",
                  "platform"):
        assert calls[layer] == 0, layer
    for layer in ("capture", "lifeguards", "diff", "replay"):
        assert calls[layer] > 0, layer
    # The oracle turns records into lifeguard events through a disabled
    # Inheritance Tracking unit; no accelerator mechanism runs.
    accel = {func for (filename, _line, func) in stats
             if os.sep + "accel" + os.sep in filename}
    assert accel <= {"__init__", "process", "_passthrough"}


def test_a_planted_memory_call_shows_in_the_memory_layer_only(
        tmp_path, monkeypatch):
    scenario = PaperSmall(1, workdir=str(tmp_path), scale=TINY,
                          kernels=("swaptions",))
    run.run_pass(scenario, Spans(), "warmup")
    before, _, clean = layer_calls(scenario)

    access = CoherentMemorySystem.access

    def planted(self, core, addr, *args, **kwargs):
        address.line_index(addr, 64)
        return access(self, core, addr, *args, **kwargs)

    monkeypatch.setattr(CoherentMemorySystem, "access", planted)
    after, stats, dirty = layer_calls(scenario)
    assert dirty.digest() == clean.digest()
    # One more memory-layer call per access, and nothing else moves.
    wrapped = sum(entry[1] for (_file, _line, func), entry in stats.items()
                  if func == "planted")
    assert wrapped > 0
    assert after["memory"] - before["memory"] == wrapped
    assert {layer: n for layer, n in after.items() if layer != "memory"} \
        == {layer: n for layer, n in before.items() if layer != "memory"}
    accesses = sum(outcome.counts["l1_hits"] + outcome.counts["l1_misses"]
                   for outcome in dirty.outcomes.values())
    assert after["memory"] / accesses > before["memory"] / accesses


@pytest.mark.parametrize("trace", ["0", "1"])
def test_without_the_program_the_benchmark_fails_without_a_result(
        tmp_path, trace):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diff_sweep",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
