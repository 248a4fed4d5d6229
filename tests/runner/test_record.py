"""Tests for the structured run-record schema."""

import json

import pytest

from repro.runner.record import (
    SCHEMA,
    SCHEMA_V1,
    SCHEMA_V2,
    SCHEMA_V3,
    SCHEMA_V4,
    ChunkTrace,
    FailureEvent,
    RunRecord,
    WorkerStats,
)
import repro.api as api


def _record(**overrides) -> RunRecord:
    base = dict(
        kernel="grm",
        size="small",
        jobs=2,
        chunk_size=4,
        n_tasks=8,
        total_work=100,
        task_work=[10, 20, 30, 40],
        prepare_seconds=0.5,
        prepare_cached=False,
        execute_seconds=2.0,
        serial_seconds=3.0,
        chunks=[ChunkTrace(worker=0, start=0, stop=4, begin=0.0, end=2.0)],
        workers=[WorkerStats(worker=0, pid=123, chunks=1, tasks=4, busy_seconds=2.0)],
    )
    base.update(overrides)
    return RunRecord(**base)


def test_json_round_trip():
    rec = _record()
    clone = RunRecord.from_json(rec.to_json())
    assert clone == rec
    assert clone.chunks[0].seconds == pytest.approx(2.0)


def test_round_trip_through_plain_json_loads():
    doc = json.loads(_record().to_json())
    assert doc["schema"] == SCHEMA
    assert doc["kernel"] == "grm"
    assert doc["task_work"] == [10, 20, 30, 40]
    assert doc["speedup_vs_serial"] == pytest.approx(1.5)
    assert doc["scheduling_efficiency"] == pytest.approx(0.5)


def test_unknown_schema_rejected():
    doc = json.loads(_record().to_json())
    doc["schema"] = "genomicsbench.run/999"
    with pytest.raises(ValueError, match="schema"):
        RunRecord.from_dict(doc)


def test_v1_record_loads_as_current():
    """Records written before the observability fields still load."""
    doc = json.loads(_record().to_json())
    doc["schema"] = SCHEMA_V1
    for newer_field in (
        "metrics", "host", "created_unix",
        "failures", "retries", "quarantined", "resumed_chunks",
        "degraded", "fault_tolerance",
    ):
        doc.pop(newer_field, None)
    rec = RunRecord.from_dict(doc)
    assert rec.schema == SCHEMA  # upgraded in memory
    assert rec.metrics is None
    assert rec.host is None
    assert rec.created_unix is None
    assert rec.kernel == "grm" and rec.task_work == [10, 20, 30, 40]
    # and re-serializes as a current-schema document
    assert json.loads(rec.to_json())["schema"] == SCHEMA


def test_v2_record_migrates_to_v3():
    """A pre-fault-tolerance v2 document loads with empty fault fields."""
    doc = json.loads(_record().to_json())
    doc["schema"] = SCHEMA_V2
    for v3_field in (
        "failures", "retries", "quarantined", "resumed_chunks",
        "degraded", "fault_tolerance",
    ):
        doc.pop(v3_field, None)
    rec = RunRecord.from_dict(doc)
    assert rec.schema == SCHEMA
    assert rec.failures == [] and rec.retries == 0
    assert rec.quarantined == [] and rec.resumed_chunks == 0
    assert rec.degraded is False and rec.fault_tolerance is None
    assert rec.complete
    # v2 observability fields survive the migration untouched
    assert rec.kernel == "grm" and rec.serial_seconds == 3.0
    assert json.loads(rec.to_json())["schema"] == SCHEMA


def test_v3_record_migrates_to_v4():
    """A pre-profiling v3 document loads with empty profile/telemetry."""
    doc = json.loads(_record().to_json())
    doc["schema"] = SCHEMA_V3
    doc.pop("profile", None)
    doc.pop("telemetry", None)
    rec = RunRecord.from_dict(doc)
    assert rec.schema == SCHEMA
    assert rec.profile is None
    assert rec.telemetry is None
    assert rec.peak_rss_bytes is None
    # v3 fault-tolerance fields survive the migration untouched
    assert rec.kernel == "grm" and rec.complete
    assert json.loads(rec.to_json())["schema"] == SCHEMA


def test_v4_profile_and_telemetry_round_trip():
    rec = _record(
        profile={
            "hz": 99.0,
            "samples": 5,
            "duration_seconds": 1.0,
            "phases": {"execute": {"hz": 99.0, "samples": 5,
                                   "duration_seconds": 1.0,
                                   "folded": {"main;hot": 5}}},
            "hotspots": [{"frame": "hot", "self_samples": 5, "total_samples": 5,
                          "self_pct": 100.0, "total_pct": 100.0}],
        },
        telemetry={"interval": 0.05, "supported": True, "workers": [],
                   "peak_rss_bytes": 4096.0, "mean_cpu_percent": 50.0},
    )
    clone = RunRecord.from_json(rec.to_json())
    assert clone == rec
    assert clone.peak_rss_bytes == 4096.0


def test_v4_record_migrates_to_v5():
    """A pre-event-log v4 document loads with an empty event list."""
    doc = json.loads(_record().to_json())
    doc["schema"] = SCHEMA_V4
    doc.pop("events", None)
    rec = RunRecord.from_dict(doc)
    assert rec.schema == SCHEMA
    assert rec.events == []
    # v4 observability fields survive the migration untouched
    assert rec.kernel == "grm" and rec.complete
    assert json.loads(rec.to_json())["schema"] == SCHEMA


def test_v5_events_round_trip():
    events = [
        {"seq": 0, "t": -0.5, "name": "run_started", "level": "info",
         "run_id": "abc123", "data": {"kernel": "grm"}},
        {"seq": 1, "t": 1.0, "name": "chunk_completed", "level": "info",
         "chunk": [0, 4], "worker": 0, "data": {"tasks": 4}},
        {"seq": 2, "t": 2.0, "name": "run_finished", "level": "info"},
    ]
    rec = _record(events=events)
    clone = RunRecord.from_json(rec.to_json())
    assert clone.events == events
    assert clone == rec


def test_every_legacy_schema_version_loads():
    base = json.loads(_record().to_json())
    for legacy in (SCHEMA_V1, SCHEMA_V2, SCHEMA_V3, SCHEMA_V4):
        doc = dict(base, schema=legacy)
        rec = RunRecord.from_dict(doc)
        assert rec.schema == SCHEMA
        assert rec.events == [] or rec.events == base.get("events")


def test_peak_rss_falls_back_to_metrics_gauge():
    rec = _record(
        metrics={"counters": {}, "histograms": {},
                 "gauges": {"telemetry.peak_rss_bytes": 1234.0}}
    )
    assert rec.peak_rss_bytes == 1234.0
    assert _record().peak_rss_bytes is None


def test_v3_fault_fields_round_trip():
    rec = _record(
        failures=[
            FailureEvent(
                kind="worker-died", start=0, stop=4, attempt=0, action="retry",
                worker=1, pid=4242, error="worker exited with code 87",
                exitcode=87, at_seconds=0.5,
            ),
            FailureEvent(
                kind="timeout", start=4, stop=8, attempt=1, action="quarantine",
                error="chunk exceeded 2.0s wall-clock budget",
            ),
        ],
        retries=1,
        quarantined=[(4, 8)],
        resumed_chunks=2,
        degraded=False,
        fault_tolerance={"timeout": 2.0, "retries": 1, "on_failure": "quarantine",
                         "resume": False, "fault_plan": None},
    )
    clone = RunRecord.from_json(rec.to_json())
    assert clone == rec
    assert clone.failures[0].exitcode == 87
    assert clone.quarantined_tasks == 4
    assert not clone.complete
    doc = json.loads(rec.to_json())
    assert doc["quarantined_tasks"] == 4
    assert doc["complete"] is False


def test_v2_fields_round_trip():
    rec = _record(
        metrics={"counters": {"cache.hits": 1}, "gauges": {}, "histograms": {}},
        host="nodeA",
        created_unix=1700000000.0,
    )
    clone = RunRecord.from_json(rec.to_json())
    assert clone == rec
    assert clone.metrics["counters"]["cache.hits"] == 1


def test_derived_metrics_none_without_baseline():
    rec = _record(serial_seconds=None)
    assert rec.speedup_vs_serial is None
    doc = json.loads(rec.to_json())
    assert doc["serial_seconds"] is None
    assert doc["speedup_vs_serial"] is None


def test_engine_record_serializes_for_every_field(tmp_path):
    """A real engine record (numpy ints and all) must be valid JSON."""
    run = api.run("grm", "small", jobs=2)
    text = run.record.to_json()
    doc = json.loads(text)
    assert doc["schema"] == SCHEMA
    assert doc["n_tasks"] == len(doc["task_work"])
    clone = RunRecord.from_json(text)
    assert clone.kernel == "grm"
    assert clone.n_tasks == run.record.n_tasks
