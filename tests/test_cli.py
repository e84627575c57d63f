"""Tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "lu"])
        assert args.workload == "lu"
        assert args.threads == 2
        assert args.scheme == "parallel"
        assert args.lifeguard == "taintcheck"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope"])


class TestIntegerOptions:
    """A bad integer option is argparse's usage error (exit 2), never a
    traceback from inside the simulator or a run that silently does
    nothing."""

    @pytest.mark.parametrize("argv", [
        ["run", "swaptions", "--threads", "0"],
        ["table1", "--threads", "0"],
        ["swaptions", "--threads", "-1"],
        ["diff", "--threads", "0"],
        ["archive", "run.plog", "--threads", "0"],
        ["figure7", "--max-threads", "0", "--benchmarks", "swaptions"],
        ["figure6", "--thread-counts", "2", "0"],
        ["diff", "--seeds", "2", "--jobs", "0"],
        ["figure8", "--jobs", "-3"],
        ["replay", "run.plog", "--jobs", "0"],
        ["diff", "--seeds", "-2"],
        ["diff", "--seeds", "0"],
        ["diff", "--length", "0"],
        ["archive", "run.plog", "--length", "-1"],
        ["run", "swaptions", "--max-cycles", "-1"],
        ["run", "swaptions", "--watchdog", "-5"],
        ["diff", "--retries", "-1"],
        ["run", "swaptions", "--trace-ring", "-1"],
        ["run", "swaptions", "--threads", "two"],
    ])
    def test_bad_value_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_boundary_values_accepted(self):
        args = build_parser().parse_args(
            ["run", "lu", "--threads", "1", "--max-cycles", "0",
             "--watchdog", "0", "--trace-ring", "0"])
        assert (args.threads, args.max_cycles, args.watchdog,
                args.trace_ring) == (1, 0, 0, 0)
        args = build_parser().parse_args(
            ["diff", "--seeds", "1", "--jobs", "1", "--length", "1",
             "--retries", "0"])
        assert (args.seeds, args.jobs, args.length, args.retries) == \
            (1, 1, 1, 0)


def test_cold_start_does_not_import_numpy():
    """``import repro.cli`` in a fresh interpreter must not pull numpy
    in, even where it is installed: it would dominate CLI start-up."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert completed.stdout.strip() == "False"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "swaptions" in out and "taintcheck" in out

    def test_table1(self, capsys):
        assert main(["table1", "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "8 (=4 app + 4 lifeguard)" in out

    def test_run_parallel(self, capsys):
        assert main(["run", "racy_counters", "--threads", "2"]) == 0
        out = capsys.readouterr().out
        assert "parallel/racy_counters/taintcheck" in out
        assert "arcs_recorded" in out

    def test_run_reports_violations(self, capsys):
        assert main(["run", "tainted_jump", "--lifeguard", "taintcheck"]) == 0
        assert "tainted-critical-use" in capsys.readouterr().out

    def test_run_no_monitoring(self, capsys):
        assert main(["run", "lu", "--scheme", "none"]) == 0
        assert "no_monitoring/lu" in capsys.readouterr().out

    def test_run_timesliced(self, capsys):
        assert main(["run", "lu", "--scheme", "timesliced"]) == 0
        assert "timesliced/lu" in capsys.readouterr().out

    def test_run_tso_without_accel(self, capsys):
        assert main(["run", "dekker", "--memory-model", "tso",
                     "--no-accel"]) == 0
        assert "parallel/dekker" in capsys.readouterr().out

    def test_diff_trace_streams_jobs_events(self, tmp_path, capsys):
        import json
        trace = tmp_path / "sweep.jsonl"
        assert main(["diff", "--seeds", "2", "--lifeguards", "addrcheck",
                     "--jobs", "2", "--trace", str(trace)]) == 0
        events = [json.loads(line)["event"]
                  for line in trace.read_text().splitlines()]
        assert "start" in events and "done" in events
        assert events[-1] == "sweep_done"
        assert "2 cells, 0 failed" in capsys.readouterr().out

    def test_run_trace_to_stdout_is_the_trace_file(self, tmp_path):
        """``--trace -`` keeps stdout pure JSONL: the summary goes to
        stderr, and stdout is byte-identical to ``--trace PATH``."""
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "repro", "run", "barnes",
                "--scale", "tiny", "--lifeguard", "taintcheck", "--trace"]
        path = tmp_path / "t.jsonl"
        to_file = subprocess.run(argv + [str(path)], capture_output=True,
                                 env=env, check=True)
        to_stdout = subprocess.run(argv + ["-"], capture_output=True,
                                   env=env, check=True)
        assert to_stdout.stdout == path.read_bytes()
        assert to_stdout.stderr == to_file.stdout
        assert b"parallel/barnes/taintcheck" in to_stdout.stderr

    def test_diff_trace_to_stdout_is_pure_jsonl(self, capsys):
        from repro.trace import validate_event
        assert main(["diff", "--seeds", "2", "--lifeguards", "addrcheck",
                     "--jobs", "2", "--trace", "-"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines
        for line in lines:
            validate_event(json.loads(line))
        assert json.loads(lines[-1])["event"] == "sweep_done"
        assert "2 cells, 0 failed" in captured.err

    def test_diff_bad_trace_filter_rejected(self, capsys):
        assert main(["diff", "--seeds", "1", "--trace", "-",
                     "--trace-filter", "bogus"]) == 2
        assert "unknown trace categories" in capsys.readouterr().err

    def test_figure6_subset(self, capsys):
        assert main(["figure6", "--benchmarks", "lu",
                     "--thread-counts", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "lu" in out

    def test_figure7_subset(self, capsys):
        assert main(["figure7", "--benchmarks", "swaptions",
                     "--thread-counts", "2",
                     "--lifeguard", "addrcheck"]) == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_figure8_subset(self, capsys):
        assert main(["figure8", "--benchmarks", "lu",
                     "--max-threads", "2"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_headline_subset(self, capsys):
        assert main(["headline", "--benchmarks", "lu",
                     "--max-threads", "2"]) == 0
        assert "timesliced_speedup_max" in capsys.readouterr().out

    def test_swaptions_analysis(self, capsys):
        assert main(["swaptions", "--threads", "2"]) == 0
        assert "alloc_free_pairs" in capsys.readouterr().out


class TestArchiveReplay:
    def test_archive_then_replay_all(self, tmp_path, capsys):
        archive = tmp_path / "run.plog"
        assert main(["archive", str(archive), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "archived seed 3" in out
        assert "bytes/instruction" in out
        assert archive.exists()
        assert (tmp_path / "run.plog.manifest.json").exists()

        assert main(["replay", str(archive), "--lifeguards", "all",
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        for lifeguard in ("addrcheck", "lockset", "memcheck", "taintcheck"):
            assert lifeguard in out

    def test_replay_verify_live(self, tmp_path, capsys):
        archive = tmp_path / "run.plog"
        assert main(["archive", str(archive), "--seed", "5"]) == 0
        capsys.readouterr()
        assert main(["replay", str(archive), "--verify-live"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_replay_writes_payload_json(self, tmp_path, capsys):
        import json

        archive = tmp_path / "run.plog"
        assert main(["archive", str(archive)]) == 0
        payload_path = tmp_path / "payloads.json"
        assert main(["replay", str(archive), "--lifeguards", "taintcheck",
                     "--output", str(payload_path)]) == 0
        payloads = json.loads(payload_path.read_text())
        assert set(payloads) == {"taintcheck"}
        assert payloads["taintcheck"]["records"] > 0

    def test_replay_missing_archive_exits_2(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "nope.plog")]) == 2
        assert "error" in capsys.readouterr().err

    def test_replay_corrupt_archive_exits_2(self, tmp_path, capsys):
        archive = tmp_path / "run.plog"
        assert main(["archive", str(archive)]) == 0
        data = bytearray(archive.read_bytes())
        data[-1] ^= 0x01
        archive.write_bytes(data)
        assert main(["replay", str(archive)]) == 2
        assert "sha256" in capsys.readouterr().err
