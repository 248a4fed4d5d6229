"""Tests for the HTML run report, run diffing and OpenMetrics export."""

import json

import pytest

from repro.obs.history import HISTORY_SCHEMA
from repro.obs.report import (
    diff_records,
    load_run_records,
    render_report,
    to_openmetrics,
    write_openmetrics,
    write_report,
)
from repro.runner.record import ChunkTrace, RunRecord, WorkerStats


def _record(kernel="grm", jobs=2, work=1_000, seconds=2.0, **extra):
    fields = dict(
        kernel=kernel,
        size="small",
        jobs=jobs,
        chunk_size=2,
        n_tasks=4,
        total_work=work,
        task_work=[work // 4] * 4,
        prepare_seconds=0.1,
        prepare_cached=False,
        execute_seconds=seconds,
        serial_seconds=3.0,
        chunks=[
            ChunkTrace(worker=0, start=0, stop=2, begin=0.0, end=1.0),
            ChunkTrace(worker=1, start=2, stop=4, begin=0.1, end=1.9),
        ],
        workers=[
            WorkerStats(worker=0, pid=10, chunks=1, tasks=2, busy_seconds=1.0),
            WorkerStats(worker=1, pid=11, chunks=1, tasks=2, busy_seconds=1.8),
        ],
        metrics={
            "counters": {"engine.tasks": 4},
            "gauges": {"run.execute_seconds": seconds, "unset.gauge": None},
            "histograms": {
                "task.work": {
                    "boundaries": [10.0, 100.0],
                    "counts": [1, 2, 1],
                    "sum": 250.0,
                    "count": 4,
                }
            },
        },
    )
    fields.update(extra)
    return RunRecord(**fields)


def _profiled(**extra):
    profile = {
        "hz": 99.0,
        "samples": 10,
        "duration_seconds": 2.0,
        "phases": {
            "execute": {
                "hz": 99.0,
                "samples": 10,
                "duration_seconds": 2.0,
                "folded": {"repro/x.py:main;repro/x.py:hot": 9, "repro/x.py:main": 1},
            }
        },
        "hotspots": [
            {"frame": "repro/x.py:hot", "self_samples": 9, "total_samples": 9,
             "self_pct": 90.0, "total_pct": 90.0},
            {"frame": "repro/x.py:main", "self_samples": 1, "total_samples": 10,
             "self_pct": 10.0, "total_pct": 100.0},
        ],
    }
    telemetry = {
        "interval": 0.05,
        "supported": True,
        "peak_rss_bytes": 2048.0,
        "mean_cpu_percent": 80.0,
        "workers": [
            {
                "worker": 0, "pid": 10, "supported": True, "n_samples": 3,
                "peak_rss_bytes": 2048, "mean_rss_bytes": 1536.0,
                "cpu_seconds": 0.8, "mean_cpu_percent": 80.0, "ctx_switches": 2,
                "series": [[0.0, 0.0, 1024], [0.5, 70.0, 1536], [1.0, 90.0, 2048]],
            }
        ],
    }
    return _record(profile=profile, telemetry=telemetry, **extra)


class TestLoadRunRecords:
    def test_raw_record(self, tmp_path):
        path = tmp_path / "rec.json"
        path.write_text(_record().to_json())
        (rec,) = load_run_records(path)
        assert rec.kernel == "grm"

    def test_cli_wrapper_single_and_list(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text(json.dumps({"title": "t", "data": _record().to_dict()}))
        assert len(load_run_records(single)) == 1
        multi = tmp_path / "many.json"
        multi.write_text(
            json.dumps(
                {"title": "t", "data": [_record(kernel="grm").to_dict(),
                                        _record(kernel="bsw").to_dict()]}
            )
        )
        assert [r.kernel for r in load_run_records(multi)] == ["grm", "bsw"]

    def test_bench_history(self, tmp_path):
        path = tmp_path / "BENCH_h.json"
        path.write_text(
            json.dumps(
                {"schema": HISTORY_SCHEMA,
                 "entries": [_record().to_dict(), _record().to_dict()]}
            )
        )
        assert len(load_run_records(path)) == 2

    def test_empty_or_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="no run records"):
            load_run_records(path)


class TestRenderReport:
    def test_self_contained_html_with_all_sections(self):
        html = render_report(_profiled())
        assert html.startswith("<!doctype html>")
        for needle in (
            "chunk timeline", "hotspots", "worker telemetry", "metrics",
            "repro/x.py:hot", "90.0%", "<svg", "<polyline", "grm / small / jobs=2",
        ):
            assert needle in html
        # self-contained: no external scripts, stylesheets or images
        assert "<script src" not in html
        assert "<link" not in html
        assert "<img" not in html
        # both color modes are selected, not flipped
        assert "prefers-color-scheme: dark" in html
        assert 'data-theme="dark"' in html

    def test_unprofiled_record_says_how_to_profile(self):
        html = render_report(_record())
        assert "--profile" in html
        assert "--telemetry" in html

    def test_unsupported_telemetry_renders_not_available(self):
        rec = _record(
            telemetry={"interval": 0.05, "supported": False, "workers": [],
                       "peak_rss_bytes": None, "mean_cpu_percent": None}
        )
        assert "not available" in render_report(rec)

    def test_chunk_tooltips_and_worker_tracks(self):
        html = render_report(_record())
        assert "chunk [0:2) on worker 0" in html
        assert "worker 1" in html

    def test_resumed_chunks_have_no_track(self):
        # restored from a checkpoint: no worker, no WorkerStats
        restored = ChunkTrace(worker=None, start=4, stop=6, begin=0.0, end=0.0)
        rec = _record(n_tasks=6, resumed_chunks=1)
        rec.chunks.append(restored)
        html = render_report(rec)
        assert "chunk [0:2) on worker 0" in html
        assert "chunk [4:6)" not in html and "worker 2" not in html
        rec.chunks, rec.workers = [restored], []
        assert "no chunk trace recorded" in render_report(rec)

    def test_history_trend_needs_two_matching_runs(self):
        rec = _record()
        html = render_report(rec, history=[rec])
        assert "no trend" in html
        html = render_report(rec, history=[_record(seconds=2.2), _record(seconds=2.0)])
        assert "throughput history" in html and "2 runs" in html

    def test_escapes_untrusted_strings(self):
        rec = _record(kernel="<script>alert(1)</script>")
        html = render_report(rec)
        assert "<script>alert" not in html
        assert "&lt;script&gt;" in html

    def test_write_report_creates_parents(self, tmp_path):
        path = write_report(tmp_path / "deep" / "r.html", _profiled())
        assert path.read_text().startswith("<!doctype html>")

    def test_event_lane_marks_timeline_and_lists_warnings(self):
        rec = _record(
            events=[
                {"seq": 0, "t": -0.5, "name": "run_started", "level": "info",
                 "run_id": "r1", "data": {"kernel": "grm"}},
                {"seq": 1, "t": 0.5, "name": "chunk_retried",
                 "level": "warning", "chunk": [0, 2], "worker": 0,
                 "data": {"kind": "timeout"}},
                {"seq": 2, "t": 1.9, "name": "run_finished", "level": "info"},
            ]
        )
        html = render_report(rec)
        assert "run events" in html
        assert "<circle" in html  # markers in the timeline lane
        assert "3 events recorded" in html
        assert "chunk_retried" in html
        assert "kind=timeout" in html

    def test_record_without_events_renders_pre_v5_note(self):
        html = render_report(_record())
        assert "no event log" in html

    def test_degenerate_record_renders_stub_not_traceback(self):
        """An empty-but-valid v5 record must still produce a report."""
        empty = RunRecord(
            kernel="fmi", size="small", jobs=0, chunk_size=0, n_tasks=0,
            total_work=0, task_work=[], prepare_seconds=0.0,
            prepare_cached=False, execute_seconds=0.0,
        )
        html = render_report(empty, history=[])
        assert html.startswith("<!doctype html>")
        assert "no chunk trace recorded" in html
        assert "no metrics recorded" in html
        assert "no event log" in html

    def test_degenerate_record_with_workers_but_zero_jobs(self):
        # a hand-built record can have worker rows with jobs=0; the
        # efficiency tile must degrade to "-", not divide by zero
        rec = RunRecord(
            kernel="fmi", size="small", jobs=0, chunk_size=0, n_tasks=0,
            total_work=0, task_work=[], prepare_seconds=0.0,
            prepare_cached=False, execute_seconds=1.0,
            workers=[WorkerStats(worker=0, pid=1, chunks=0, tasks=0,
                                 busy_seconds=0.0)],
        )
        assert rec.scheduling_efficiency is None
        assert render_report(rec).startswith("<!doctype html>")


class TestDiff:
    def test_quantities_and_deltas(self):
        diff = diff_records(_record(seconds=2.0), _record(seconds=1.0))
        rows = {r.quantity: r for r in diff.rows}
        tp = rows["throughput work/s"]
        assert tp.a == 500.0 and tp.b == 1000.0
        assert tp.delta_pct == 100.0
        assert rows["execute seconds"].delta_pct == -50.0
        assert rows["peak RSS bytes"].a is None
        assert rows["peak RSS bytes"].delta_pct is None

    def test_hotspot_shift_ranked_by_magnitude(self):
        a, b = _profiled(), _profiled()
        b.profile = json.loads(json.dumps(b.profile))
        b.profile["hotspots"][0]["self_pct"] = 50.0  # hot dropped 40pp
        diff = diff_records(a, b)
        frame, pa, pb = diff.hotspot_rows[0]
        assert frame == "repro/x.py:hot"
        assert (pa, pb) == (90.0, 50.0)

    def test_report_renders_and_serializes(self):
        report = diff_records(_profiled(), _profiled()).report()
        assert "run diff" in report.title
        json.dumps(report.payload())
        assert report.payload()["quantities"][0]["quantity"] == "throughput work/s"

    def test_unprofiled_records_diff_without_hotspots(self):
        diff = diff_records(_record(), _record())
        assert diff.hotspot_rows == []


class TestOpenMetrics:
    def test_format_counters_gauges_histograms(self):
        text = to_openmetrics(_record())
        lines = text.strip().splitlines()
        assert lines[-1] == "# EOF"
        assert (
            'genomicsbench_engine_tasks_total{kernel="grm",size="small",jobs="2"} 4'
            in lines
        )
        assert any(
            line.startswith("genomicsbench_run_execute_seconds{") for line in lines
        )
        # unset gauges are skipped, not emitted as null
        assert not any("unset_gauge" in line for line in lines)
        # histogram buckets are cumulative and end at +Inf
        buckets = [line for line in lines if "task_work_bucket" in line]
        assert 'le="+Inf"' in buckets[-1]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)
        assert counts[-1] == 4
        assert "genomicsbench_task_work_sum" in text
        assert 'genomicsbench_task_work_count{kernel="grm",size="small",jobs="2"} 4' in text

    def test_type_comment_per_metric(self):
        text = to_openmetrics(_record())
        assert "# TYPE genomicsbench_engine_tasks counter" in text
        assert "# TYPE genomicsbench_run_execute_seconds gauge" in text
        assert "# TYPE genomicsbench_task_work histogram" in text

    def test_metric_names_sanitized(self):
        rec = _record(metrics={"counters": {"weird-name.1": 2},
                               "gauges": {}, "histograms": {}})
        assert "genomicsbench_weird_name_1_total" in to_openmetrics(rec)

    def test_record_without_metrics_is_just_eof(self, tmp_path):
        rec = _record(metrics=None)
        path = write_openmetrics(tmp_path / "m.om", rec)
        assert path.read_text() == "# EOF\n"

    def test_shared_encoder_takes_any_registry_snapshot(self):
        from repro.obs.report import encode_openmetrics

        text = encode_openmetrics(
            {"counters": {"live.chunks_done": 3},
             "gauges": {"live.eta_seconds": None}},
            {"kernel": "fmi", "jobs": 2},
        )
        assert 'genomicsbench_live_chunks_done_total{kernel="fmi",jobs="2"} 3' in text
        assert "eta_seconds" not in text  # None gauges skipped
        assert text.endswith("# EOF\n")

    def test_empty_histogram_encodes_without_raising(self):
        from repro.obs.report import encode_openmetrics

        text = encode_openmetrics(
            {"histograms": {"h": {"boundaries": [], "counts": [],
                                  "sum": 0.0, "count": 0}}},
            {"kernel": "x"},
        )
        assert 'genomicsbench_h_bucket{kernel="x",le="+Inf"} 0' in text

    def test_label_values_escaped(self):
        from repro.obs.report import encode_openmetrics

        text = encode_openmetrics(
            {"counters": {"c": 1}},
            {"path": 'C:\\state\\"dir"', "note": "line one\nline two"},
        )
        line = next(
            ln for ln in text.splitlines() if ln.startswith("genomicsbench_c_total")
        )
        # backslash, quote and newline each escaped per the OpenMetrics ABNF
        assert 'path="C:\\\\state\\\\\\"dir\\""' in line
        assert 'note="line one\\nline two"' in line
        # a raw newline inside a label would split the sample line
        assert "\n" not in line

    def test_benign_label_values_untouched(self):
        from repro.obs.report import encode_openmetrics

        text = encode_openmetrics(
            {"counters": {"c": 2}}, {"kernel": "grm", "size": "small"}
        )
        assert 'genomicsbench_c_total{kernel="grm",size="small"} 2' in text
