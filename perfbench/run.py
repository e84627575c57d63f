"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload diff_sweep --seed 1 --seconds 15 \\
        --trace 0

The run is a closed loop with one client: one process executes the
workload's operations one at a time. It sets the workload up from the
seed, runs the untimed verification and warm-up passes, then timed
passes until ``--seconds`` of timed body have elapsed, then two more
set-ups in fresh interpreters for the ``setup_s`` median. ``--trace 1``
adds one pass with spans around every ``repro`` entry point and one
profiled pass, and reports the per-layer table. The last line of
standard output is the JSON result; a full report is written to
``.bench_out/``. See ``perfbench/README.md`` for every metric.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Dict, List  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

#: Set-ups per run: this process's own plus fresh interpreters.
SETUP_SAMPLES = 3
#: A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

#: The end-to-end metrics every workload reports: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "kinst_per_s": "kinst/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (no ``repro`` source, bad input)."""


def import_repro():
    """Import ``repro`` from this checkout's ``src``, and only from there."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        raise BenchError(f"cannot import repro from {SRC}: {exc}") from exc
    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"repro was imported from {where}, not from {SRC}")
    return repro


@dataclass
class PassResult:
    """One pass over a workload's steps."""

    wall_s: float
    #: Host seconds of every operation step, by step name.
    latencies: Dict[str, float]
    outcomes: Dict[str, object]
    attempted: int
    failures: List[str] = field(default_factory=list)

    @property
    def work(self) -> int:
        return sum(outcome.work for outcome in self.outcomes.values())

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes.values()
                   if outcome.failures)

    def digest(self) -> str:
        """sha256 over every simulated statistic the pass produced."""
        from scenarios import canonical

        sim = {name: outcome.sim for name, outcome in self.outcomes.items()}
        blob = json.dumps(canonical(sim), separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def run_pass(scenario, spans, label: str) -> PassResult:
    """Execute one pass, one step at a time; a step that raises counts
    as failed and the pass goes on."""
    from scenarios import Outcome

    outcomes, latencies, state = {}, {}, {}
    start = time.perf_counter()
    for step in scenario.steps():
        spans.op = f"{label}/{step.name}"
        began = time.perf_counter()
        try:
            outcome = step.fn(spans, state)
        except Exception as exc:  # counted in failed_frac, run goes on
            outcome = Outcome(failures=[f"{step.name}: "
                                        f"{type(exc).__name__}: {exc}"])
        if step.is_op:
            latencies[step.name] = time.perf_counter() - began
        outcomes[step.name] = outcome
    wall = time.perf_counter() - start
    failures = [failure for outcome in outcomes.values()
                for failure in outcome.failures]
    return PassResult(wall, latencies, outcomes, len(outcomes), failures)


def p90_ms(samples: List[float]):
    """The 90th percentile in ms, or None when fewer than
    :data:`TAIL_SAMPLES` samples lie beyond it."""
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=10)[8]
    if sum(1 for sample in samples if sample > value) < TAIL_SAMPLES:
        return None
    return 1000.0 * value


def setup_sample(workload: str, seed: int) -> float:
    """``setup_s`` of a fresh interpreter running only the set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise BenchError(f"set-up in a fresh interpreter failed "
                         f"(exit {proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def host_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "commit": commit_id()}


def commit_id() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"),
                      encoding="utf-8") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def traced_layers(scenario, untraced_wall_s: float):
    """One spans pass and one profiled pass: the per-layer table."""
    import repro
    from layers import (LayerMap, Spans, attribute, cumulative_s,
                        layer_metrics, merge_counts, profile_call)

    spans = Spans(enabled=True)
    spans_pass = run_pass(scenario, spans, "traced")
    profiled, stats = profile_call(
        lambda: run_pass(scenario, Spans(), "profiled"))
    layer_map = LayerMap(os.path.dirname(repro.__file__))
    profile = attribute(stats, layer_map)
    counts: Dict[str, float] = {}
    for outcome in profiled.outcomes.values():
        merge_counts(counts, outcome.counts)
    extra = {"diff.oracle_s": cumulative_s(stats, layer_map, "diff",
                                           "replay"),
             "workloads.gen_s": spans.total_s("build_workload")}
    metrics = layer_metrics(profile, counts, profiled.work / 1000.0, spans,
                            extra)
    info = {"spans_pass_s": spans_pass.wall_s,
            "profiled_pass_s": profiled.wall_s,
            "tracing_overhead_s": spans_pass.wall_s - untraced_wall_s,
            "other.self_s": profile["layers"]["other"]["self_s"],
            "other.calls": profile["layers"]["other"]["calls"],
            "spans": len(spans.records)}
    return metrics, info, spans, [spans_pass, profiled]


def parse_args(argv):
    from scenarios import SCENARIOS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed body per run (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds the spans and profiled passes and "
                             "reports the per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print setup_s and exit (used for the "
                             "set-up samples)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        import_repro()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    args = parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return run(args, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    from layers import Spans
    from scenarios import SCENARIOS

    scenario = SCENARIOS[args.workload](args.seed, workdir=workdir)
    off = Spans()
    scenario.generate(off)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    verify_start = time.perf_counter()
    checks = scenario.verify(off)
    verify_s = time.perf_counter() - verify_start
    warmup = [run_pass(scenario, off, f"warmup{i}")
              for i in range(scenario.warmup_passes)]
    timed: List[PassResult] = []
    timed_start = time.perf_counter()
    while not timed or time.perf_counter() - timed_start < args.seconds:
        timed.append(run_pass(scenario, off, f"pass{len(timed)}"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [setup_sample(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]

    walls = [p.wall_s for p in timed]
    latencies = [x for p in timed for x in p.latencies.values()]
    wall_s = statistics.median(walls)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "kinst_per_s": statistics.median(p.work / 1000.0 / p.wall_s
                                         for p in timed),
        # Operations differ in size, so the pooled median would sit on
        # the boundary between two operations' latencies; the median
        # over operations of each one's median across passes does not.
        "op_p50_ms": 1000.0 * statistics.median(
            statistics.median(p.latencies[name] for p in timed)
            for name in timed[0].latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    extras = dict(scenario.summary(timed[0].outcomes))
    p90 = p90_ms(latencies)

    passes = warmup + timed
    if args.trace:
        per_layer, traced, spans, traced_passes = traced_layers(scenario,
                                                                wall_s)
        passes += traced_passes
    failures = [failure for check in checks for failure in check]
    for p in passes:
        failures.extend(p.failures)
    digests = [p.digest() for p in passes]
    digest = digests[0]
    nondeterministic = sum(1 for d in digests if d != digest)
    if nondeterministic:
        failures.append(f"{nondeterministic} of {len(digests)} passes "
                        f"produced other simulated statistics than the "
                        f"first")
    attempted = len(checks) + sum(p.attempted for p in passes)
    failed = (sum(1 for check in checks if check)
              + sum(p.failed for p in passes) + nondeterministic)
    failed_frac = failed / attempted

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "why": scenario.why, "host": host_facts(),
        "plan": {"clients": 1, "seconds": args.seconds,
                 "warmup_passes_dropped": scenario.warmup_passes,
                 "verification_s": verify_s,
                 "verification_checks": len(checks),
                 "timed_passes": len(timed),
                 "ops_per_pass": len(timed[0].latencies),
                 "steps_per_pass": timed[0].attempted,
                 "setup_samples": len(setups),
                 "work_unit": scenario.work_unit},
        "end_to_end": e2e, "setup_samples_s": setups,
        "pass_wall_s": walls,
        "warmup_pass_wall_s": [p.wall_s for p in warmup],
        "op_samples": len(latencies), "op_p90_ms": p90,
        "failed_frac": failed_frac, "extra": extras,
        "sim_digest": digest, "failures": failures,
    }
    if args.trace:
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        spans.dump(spans_path)
        traced["spans_file"] = os.path.relpath(spans_path, ROOT)
        report.update(per_layer=per_layer, traced=traced)
    report_path = os.path.join(
        OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    print_report(report)
    if args.trace:
        from layers import LAYER_METRICS
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, (unit, _better) in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_report(report: dict) -> None:
    plan, host = report["plan"], report["host"]
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"trace={report['trace']}: {report['why']}")
    print(f"host: nproc={host['nproc']} python={host['python']} "
          f"cpu={host['cpu']!r} commit={host['commit']}")
    print(f"plan: 1 client, closed loop; {plan['verification_checks']} "
          f"verification checks ({plan['verification_s']:.2f} s, untimed); "
          f"{plan['warmup_passes_dropped']} warm-up passes dropped; "
          f"{plan['timed_passes']} timed passes of {plan['ops_per_pass']} "
          f"ops ({plan['steps_per_pass']} steps) for >= {plan['seconds']} s;"
          f" {plan['setup_samples']} set-ups")
    e2e, ops = report["end_to_end"], report["op_samples"]
    notes = {
        "setup_s": f"median of {plan['setup_samples']} set-ups",
        "wall_s": f"median of {plan['timed_passes']} passes",
        "kinst_per_s": f"thousand {plan['work_unit']} per host second, "
                       f"median of {plan['timed_passes']} passes",
        "op_p50_ms": f"median over {plan['ops_per_pass']} ops of each "
                     f"op's median over passes; n={ops}",
        "peak_rss_mb": "whole process",
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {e2e[name]:>12.4f} {unit:<8} ({notes[name]})")
    p90 = report["op_p90_ms"]
    print(f"  {'op_p90_ms':<14} "
          + (f"{p90:>12.4f} ms       (n={ops})" if p90 is not None else
             f"{'n/a':>12} ms       (n={ops}: fewer than {TAIL_SAMPLES} "
             f"samples beyond it)"))
    print(f"  {'failed_frac':<14} {report['failed_frac']:>12.4f} ratio")
    for name, value in report["extra"].items():
        print(f"  {name:<14} {value:>12.4f} ratio    (simulated)")
    print(f"sim digest: {report['sim_digest']}")
    for failure in report["failures"]:
        print(f"FAIL: {failure}")
    if "per_layer" in report:
        print_layers(report["per_layer"], report["traced"])


def print_layers(metrics: dict, info: dict) -> None:
    from layers import LAYERS, LAYER_METRICS

    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) \
        + info["other.self_s"]
    print(f"traced: spans pass {info['spans_pass_s']:.3f} s "
          f"(tracing overhead {info['tracing_overhead_s']:+.3f} s, "
          f"{info['spans']} spans), profiled pass "
          f"{info['profiled_pass_s']:.3f} s")
    print(f"  {'layer':<15} {'self_s':>9} {'share':>6} {'calls/kinst':>12}")
    for layer in LAYERS:
        self_s = metrics[f"{layer}.self_s"]
        share = 100.0 * self_s / total if total else 0.0
        print(f"  {layer:<15} {self_s:>9.3f} {share:>5.1f}% "
              f"{metrics[f'{layer}.calls_per_kinst']:>12.2f}")
    share = 100.0 * info["other.self_s"] / total if total else 0.0
    print(f"  {'(other)':<15} {info['other.self_s']:>9.3f} {share:>5.1f}%")
    for name, (unit, _better) in LAYER_METRICS.items():
        if not name.endswith((".self_s", ".calls_per_kinst")):
            print(f"  {name:<44} {metrics[name]:>14.4f} {unit}")


if __name__ == "__main__":
    sys.exit(main())
