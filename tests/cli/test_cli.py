"""Tests for the command-line interface."""

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.cli import build_parser, main
from repro.obs.telemetry import telemetry_supported
from repro.runner.record import SCHEMA, RunRecord

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fmi" in out and "nn-variant" in out
        assert out.count("\n") >= 14

    def test_run_single_kernel(self, capsys):
        assert main(["run", "grm", "--size", "small", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "grm" in out and "total work" in out

    def test_run_rejects_unknown_kernel(self):
        with pytest.raises(KeyError, match="valid kernels"):
            main(["run", "nope"])

    def test_run_parallel_jobs(self, capsys):
        assert main(["run", "grm", "--jobs", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out and "speedup" in out

    @pytest.mark.parametrize("flags", [[], ["--no-baseline"], ["--baseline"]])
    def test_run_serial_baseline_is_opt_in(self, flags, capsys):
        args = ["run", "grm", "--jobs", "2", "--no-cache", "--format", "json", *flags]
        assert main(args) == 0
        serial = json.loads(capsys.readouterr().out)["data"]["serial_seconds"]
        if flags == ["--baseline"]:
            assert serial > 0
        else:
            assert serial is None

    def test_run_json_format_emits_schema_stable_record(self, capsys):
        assert main(["run", "grm", "--no-cache", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        record = RunRecord.from_dict(doc["data"])
        assert record.schema == SCHEMA
        assert record.kernel == "grm"
        assert record.n_tasks == len(record.task_work) > 0

    def test_run_out_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "run.json"
        assert main(
            ["run", "grm", "--no-cache", "--format", "json", "--out", str(out_file)]
        ) == 0
        assert capsys.readouterr().out == ""  # only the stderr note, no stdout
        record = RunRecord.from_dict(json.loads(out_file.read_text())["data"])
        assert record.kernel == "grm"

    def test_run_uses_workload_cache(self, tmp_path, capsys):
        args = ["run", "grm", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cached" in out  # second invocation reports a cache hit

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "genome_len" in out
        assert out.count("small") >= 12 and out.count("large") >= 12

    def test_characterize_choices(self):
        with pytest.raises(SystemExit):
            main(["characterize", "fig1"])

    def test_characterize_fig4(self, capsys):
        assert main(["characterize", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "max/mean" in out

    def test_datasets_export(self, capsys, tmp_path):
        assert main(["datasets", "grm", "--export", str(tmp_path)]) == 0
        assert (tmp_path / "grm" / "small" / "genotypes.tsv").exists()

    def test_run_trace_writes_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(
            ["run", "grm", "--jobs", "2", "--no-cache", "--trace", str(trace)]
        ) == 0
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "engine.prepare" in names and "engine.execute" in names
        assert any(n.startswith("chunk[") for n in names)
        assert any(e.get("cat") == "kernel" for e in doc["traceEvents"])

    def test_run_metrics_writes_registry(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert main(["run", "grm", "--no-cache", "--metrics", str(metrics)]) == 0
        doc = json.loads(metrics.read_text())
        assert doc["grm"]["gauges"]["run.execute_seconds"] > 0
        # --metrics enables op-count instrumentation on the serial path
        assert doc["grm"]["counters"]["ops.fp"] > 0


class TestFaultTolerance:
    def test_injected_kill_recovers_and_exits_zero(self, capsys):
        assert main(
            ["run", "grm", "--jobs", "2", "--no-cache", "--no-baseline",
             "--retries", "2", "--inject-faults", "kill@1", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        record = RunRecord.from_dict(doc["data"])
        assert record.schema == SCHEMA
        assert record.retries >= 1
        assert record.complete
        assert any(f.kind == "worker-died" for f in record.failures)

    def test_quarantine_reports_and_exits_nonzero(self, capsys):
        assert main(
            ["run", "grm", "--jobs", "2", "--no-cache", "--no-baseline",
             "--on-failure", "quarantine", "--inject-faults", "raise@0x9"]
        ) == 1
        captured = capsys.readouterr()
        assert "quarantined" in captured.out
        assert "quarantined" in captured.err

    def test_exhausted_retries_fail_by_default(self):
        with pytest.raises(Exception, match=r"chunk \[0:"):
            main(
                ["run", "grm", "--jobs", "2", "--no-cache", "--no-baseline",
                 "--inject-faults", "raise@0x9"]
            )

    def test_bad_fault_plan_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "grm", "--inject-faults", "explode@0"])
        assert "fault" in capsys.readouterr().err

    def test_resume_without_cache_warns(self, capsys):
        assert main(["run", "grm", "--no-cache", "--no-baseline", "--resume"]) == 0
        assert "--resume" in capsys.readouterr().err

    def test_healthy_run_reports_ok_health(self, capsys):
        assert main(["run", "grm", "--no-cache", "--no-baseline"]) == 0
        assert "ok" in capsys.readouterr().out


def _repeat_entry(history, n):
    """Make a one-entry history ``n`` copies of that live entry.

    Live ~7 ms grm runs vary by more than the gate's 20% (on a busy
    box, by more than 2x), so histories of several live runs flake;
    copies keep the gate's inputs fixed.
    """
    doc = json.loads(history.read_text())
    (entry,) = doc["entries"]
    doc["entries"] = [entry] * n
    history.write_text(json.dumps(doc))


class TestBench:
    def test_record_appends_history(self, tmp_path, capsys):
        history = tmp_path / "BENCH_ci.json"
        args = ["bench", "record", "grm", "--no-cache", "--history", str(history)]
        assert main(args) == 0
        assert main(args) == 0
        doc = json.loads(history.read_text())
        assert doc["schema"] == "genomicsbench.bench-history/1"
        assert len(doc["entries"]) == 2
        assert "work/s" in capsys.readouterr().out

    def test_check_passes_without_regression(self, tmp_path, capsys):
        history = tmp_path / "BENCH_ci.json"
        main(["bench", "record", "grm", "--no-cache", "--history", str(history)])
        _repeat_entry(history, 3)
        assert main(["bench", "check", "--baseline", str(history)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_fails_on_injected_slowdown(self, tmp_path, capsys):
        history = tmp_path / "BENCH_ci.json"
        main(["bench", "record", "grm", "--no-cache", "--history", str(history)])
        _repeat_entry(history, 3)
        doc = json.loads(history.read_text())
        slow = json.loads(json.dumps(doc["entries"][-1]))
        slow["execute_seconds"] *= 2  # inject a 2x slowdown
        doc["entries"].append(slow)
        history.write_text(json.dumps(doc))
        assert main(["bench", "check", "--baseline", str(history)]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        # --warn-only reports but never fails (CI bring-up mode)
        assert main(
            ["bench", "check", "--baseline", str(history), "--warn-only"]
        ) == 0

    def test_check_with_no_history_is_a_noop(self, tmp_path):
        missing = tmp_path / "BENCH_none.json"
        assert main(["bench", "check", "--baseline", str(missing)]) == 0

    @pytest.mark.skipif(not telemetry_supported(), reason="no procfs")
    def test_record_telemetry_lands_in_history(self, tmp_path, capsys):
        history = tmp_path / "BENCH_ci.json"
        assert main(
            ["bench", "record", "grm", "--no-cache", "--telemetry",
             "--history", str(history)]
        ) == 0
        (entry,) = json.loads(history.read_text())["entries"]
        assert entry["telemetry"]["supported"]
        assert entry["telemetry"]["peak_rss_bytes"] > 0

    @pytest.mark.skipif(not telemetry_supported(), reason="no procfs")
    def test_check_rss_threshold_gates_memory_growth(self, tmp_path, capsys):
        history = tmp_path / "BENCH_ci.json"
        main(["bench", "record", "grm", "--no-cache", "--telemetry",
              "--history", str(history)])
        _repeat_entry(history, 3)
        doc = json.loads(history.read_text())
        fat = json.loads(json.dumps(doc["entries"][-1]))
        fat["telemetry"]["peak_rss_bytes"] *= 10  # inject a 10x RSS blow-up
        doc["entries"].append(fat)
        history.write_text(json.dumps(doc))
        # without the flag the RSS gate stays off
        assert main(["bench", "check", "--baseline", str(history)]) == 0
        capsys.readouterr()
        assert main(
            ["bench", "check", "--baseline", str(history),
             "--rss-threshold", "20"]
        ) == 1
        captured = capsys.readouterr()
        assert "RSS GREW" in captured.out
        assert "(rss)" in captured.err
        # --warn-only keeps its report-but-pass semantics for the RSS gate
        assert main(
            ["bench", "check", "--baseline", str(history),
             "--rss-threshold", "20", "--warn-only"]
        ) == 0


class TestObs:
    def _json_run(self, path, *extra):
        args = ["run", "grm", "--no-cache", "--no-baseline", "--profile",
                "--profile-hz", "997", "--telemetry",
                "--format", "json", "--out", str(path), *extra]
        assert main(args) == 0
        return path

    def test_run_profile_telemetry_lands_in_record(self, tmp_path):
        out = self._json_run(tmp_path / "run.json")
        record = RunRecord.from_dict(json.loads(out.read_text())["data"])
        assert record.schema == SCHEMA == "genomicsbench.run/5"
        assert record.profile is not None
        assert record.profile["hz"] == 997.0
        assert set(record.profile) >= {"hz", "samples", "phases", "hotspots"}
        assert record.telemetry is not None
        if telemetry_supported():
            assert record.peak_rss_bytes > 0

    def test_obs_report_writes_self_contained_html(self, tmp_path, capsys):
        run = self._json_run(tmp_path / "run.json")
        out = tmp_path / "report.html"
        assert main(["obs", "report", str(run), "--out", str(out)]) == 0
        assert "wrote run report" in capsys.readouterr().err
        html = out.read_text()
        assert "<!doctype html>" in html.lower()
        assert "grm" in html
        # self-contained: no external scripts, styles or images
        assert "<script src" not in html and "<link" not in html

    def test_obs_diff_reports_quantities(self, tmp_path, capsys):
        a = self._json_run(tmp_path / "a.json")
        b = self._json_run(tmp_path / "b.json")
        assert main(["obs", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "execute seconds" in out

    def test_obs_export_all_formats(self, tmp_path, capsys):
        run = self._json_run(tmp_path / "run.json")
        folded = tmp_path / "p.folded"
        speedscope = tmp_path / "p.speedscope.json"
        om = tmp_path / "m.om"
        assert main(
            ["obs", "export", str(run), "--folded", str(folded),
             "--speedscope", str(speedscope), "--openmetrics", str(om)]
        ) == 0
        assert folded.exists()
        ss = json.loads(speedscope.read_text())
        assert "shared" in ss and "profiles" in ss
        text = om.read_text()
        assert text.endswith("# EOF\n")
        assert "genomicsbench_" in text

    def test_obs_export_without_profile_errors(self, tmp_path, capsys):
        out = tmp_path / "plain.json"
        assert main(
            ["run", "grm", "--no-cache", "--no-baseline",
             "--format", "json", "--out", str(out)]
        ) == 0
        with pytest.raises(SystemExit, match="--profile"):
            main(["obs", "export", str(out), "--folded", str(tmp_path / "p")])

    def test_obs_export_requires_a_target(self, tmp_path):
        run = self._json_run(tmp_path / "run.json")
        with pytest.raises(SystemExit, match="nothing to export"):
            main(["obs", "export", str(run)])


class TestLiveObservability:
    def _run_args(self, *extra):
        return ["run", "grm", "--no-cache", "--no-baseline", *extra]

    def test_run_events_writes_a_jsonl_sink(self, tmp_path, capsys):
        sink = tmp_path / "events.jsonl"
        assert main(self._run_args("--events", str(sink))) == 0
        captured = capsys.readouterr()
        assert "wrote event log" in captured.err
        from repro.obs.events import parse_jsonl

        docs = parse_jsonl(sink.read_text())
        names = [d["name"] for d in docs]
        assert names[0] == "run_started"
        assert names[-1] == "run_finished"
        assert "chunk_completed" in names
        seqs = [d["seq"] for d in docs]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_run_live_port_serves_and_tears_down(self, capsys):
        assert main(self._run_args("--live-port", "0")) == 0
        assert "live status on http://127.0.0.1:" in capsys.readouterr().err

    def test_record_out_is_schema_v5_with_events(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(
            self._run_args("--format", "json", "--out", str(out))
        ) == 0
        record = RunRecord.from_dict(json.loads(out.read_text())["data"])
        assert record.schema == SCHEMA
        assert record.events
        assert record.events[0]["name"] == "run_started"

    def test_obs_tail_replays_a_jsonl_log(self, tmp_path, capsys):
        sink = tmp_path / "events.jsonl"
        assert main(self._run_args("--events", str(sink))) == 0
        capsys.readouterr()
        assert main(["obs", "tail", str(sink)]) == 0
        out = capsys.readouterr().out
        assert "run_started" in out
        assert "run_finished" in out
        # severity floor drops the routine narration
        assert main(["obs", "tail", str(sink), "--level", "error"]) == 0
        assert "run_started" not in capsys.readouterr().out

    def test_obs_tail_reads_a_run_record(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(
            self._run_args("--format", "json", "--out", str(out))
        ) == 0
        capsys.readouterr()
        assert main(["obs", "tail", str(out)]) == 0
        tailed = capsys.readouterr().out
        assert "run_started" in tailed and "run_finished" in tailed

    def test_obs_tail_since_skips_replayed_events(self, tmp_path, capsys):
        sink = tmp_path / "events.jsonl"
        assert main(self._run_args("--events", str(sink))) == 0
        capsys.readouterr()
        from repro.obs.events import parse_jsonl

        last = parse_jsonl(sink.read_text())[-1]["seq"]
        assert main(["obs", "tail", str(sink), "--since", str(last)]) == 0
        assert capsys.readouterr().out == ""

    def test_obs_tail_missing_file_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["obs", "tail", str(tmp_path / "nope.jsonl")])

    def test_runner_executors_lists_capabilities(self, capsys):
        assert main(["runner", "executors"]) == 0
        out = capsys.readouterr().out
        assert "timeouts" in out and "remote" in out
        # every backend forwards worker events, so no per-backend column
        assert "live events" not in out

    def test_runner_executors_lists_the_registered_name(self, monkeypatch, capsys):
        from repro.runner import executors

        class Aliased(executors.LocalExecutor):
            """A pool registered under a second name."""

        monkeypatch.setitem(executors._REGISTRY, "alias-pool", Aliased)
        assert main(["runner", "executors", "--format", "json"]) == 0
        listed = {d["name"]: d for d in json.loads(capsys.readouterr().out)["data"]}
        # the name --executor accepts, not the inherited "local"
        assert listed["alias-pool"]["summary"] == "A pool registered under a second name."
        assert listed["local"]["summary"].startswith("Supervised multiprocess pool")


@pytest.fixture
def prepare_calls(monkeypatch):
    """Every ``Benchmark.prepare`` call of the grm adapter, in order."""
    from repro.core.benchmark import load_benchmark

    adapter = type(load_benchmark("grm"))
    calls = []
    real = adapter.prepare

    def spy(self, size):
        calls.append(size)
        return real(self, size)

    monkeypatch.setattr(adapter, "prepare", spy)
    return calls


class TestEngineValues:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "grm", "--jobs", "0"], "run: jobs must be at least 1, got 0"),
            (["run", "grm", "--executor", "warp-drive"], "run: executor must be one of"),
            (["run", "grm", "--executor", "distributed"], "run: executor 'distributed'"),
            (
                ["run", "grm", "--jobs", "2", "--timeout", "nan"],
                "run: timeout must be finite and > 0, got nan",
            ),
            (["bench", "record", "grm", "--jobs", "0"], "bench record: jobs must be at least 1"),
        ],
    )
    def test_bad_values_exit_before_any_kernel_is_prepared(
        self, argv, message, prepare_calls, tmp_path
    ):
        history = ["--history", str(tmp_path / "B.json")] if argv[0] == "bench" else []
        with pytest.raises(SystemExit) as info:
            main([*argv, "--no-cache", *history])
        assert str(info.value.code).startswith(message)
        assert prepare_calls == []
        assert not (tmp_path / "B.json").exists()


def _free_port_pair():
    """A port ``p`` such that ``p`` and ``p + 1`` are both free to bind."""
    for _ in range(50):
        with socket.socket() as first, socket.socket() as second:
            first.bind(("127.0.0.1", 0))
            port = first.getsockname()[1]
            try:
                second.bind(("127.0.0.1", port + 1))
            except (OSError, OverflowError):
                continue
        return port
    raise RuntimeError("no two consecutive free ports")


def _accepts(port):
    try:
        socket.create_connection(("127.0.0.1", port), timeout=0.5).close()
    except OSError:
        return False
    return True


class TestServeWorkers:
    def test_sigterm_stops_the_daemons(self):
        port = _free_port_pair()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-workers", "2", "--base-port", str(port)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not (_accepts(port) and _accepts(port + 1)):
                assert proc.poll() is None, "serve-workers exited before listening"
                assert time.monotonic() < deadline, "daemons never listened"
                time.sleep(0.1)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5
            while _accepts(port) or _accepts(port + 1):
                assert time.monotonic() < deadline, "a daemon outlived its parent"
                time.sleep(0.1)
            assert proc.returncode == 0
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
