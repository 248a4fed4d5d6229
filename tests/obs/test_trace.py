"""Tests for the span tracer and its Chrome trace-event export."""

import json
import threading

import pytest

from repro.obs.trace import (
    Span,
    Tracer,
    activated,
    chrome_events_from_record,
    current_tracer,
    export_record_trace,
    kernel_instant,
    kernel_span,
)
from repro.runner.record import ChunkTrace, RunRecord, WorkerStats


def test_span_records_duration_and_args():
    tracer = Tracer()
    with tracer.span("work", cat="engine", items=3):
        pass
    (span,) = tracer.spans
    assert span.name == "work"
    assert span.cat == "engine"
    assert span.args == {"items": 3}
    assert span.end >= span.begin
    assert span.seconds >= 0


def test_nested_spans_round_trip_containment():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (inner,) = tracer.find("inner")
    (outer,) = tracer.find("outer")
    assert outer.encloses(inner)
    assert not inner.encloses(outer)
    # nesting survives the Chrome round trip: the exported inner event
    # lies within [ts, ts+dur] of the outer event on the same track
    events = {e["name"]: e for e in tracer.to_chrome()["traceEvents"]}
    o, i = events["outer"], events["inner"]
    assert o["pid"] == i["pid"] and o["tid"] == i["tid"]
    assert o["ts"] <= i["ts"]
    assert i["ts"] + i["dur"] <= o["ts"] + o["dur"]


def test_encloses_requires_same_track():
    a = Span(name="a", cat="x", begin=0.0, end=10.0, pid=1, tid=1)
    b = Span(name="b", cat="x", begin=1.0, end=2.0, pid=2, tid=1)
    assert not a.encloses(b)


def test_span_recorded_even_when_block_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("doomed"):
            raise RuntimeError("boom")
    assert len(tracer.find("doomed")) == 1


def test_chrome_export_schema():
    tracer = Tracer()
    with tracer.span("phase", cat="engine", k=1):
        pass
    tracer.instant("marker", cat="engine")
    tracer.counter("active", 2)
    tracer.name_track(123, 0, "worker 0")
    doc = tracer.to_chrome()
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    by_ph = {e["ph"]: e for e in events}
    assert set(by_ph) == {"M", "X", "i", "C"}
    x = by_ph["X"]
    assert x["ts"] >= 0 and x["dur"] >= 0
    assert isinstance(x["pid"], int) and isinstance(x["tid"], int)
    assert by_ph["i"]["s"] == "t"
    assert by_ph["C"]["args"] == {"value": 2}
    assert by_ph["M"] == {
        "name": "thread_name",
        "ph": "M",
        "pid": 123,
        "tid": 0,
        "args": {"name": "worker 0"},
    }
    json.dumps(doc)  # the document must be pure-JSON serializable


def test_export_writes_valid_json(tmp_path):
    tracer = Tracer()
    with tracer.span("s"):
        pass
    path = tracer.export(tmp_path / "trace.json")
    doc = json.loads(path.read_text())
    assert doc["traceEvents"][0]["name"] == "s"


def test_extend_merges_foreign_spans():
    tracer = Tracer()
    foreign = [Span(name="w", cat="kernel", begin=1.0, end=2.0, pid=99, tid=0)]
    tracer.extend(foreign)
    assert tracer.find("w") == foreign


def test_kernel_span_noop_without_active_tracer():
    assert current_tracer() is None
    with kernel_span("ignored"):
        pass
    kernel_instant("also-ignored")
    # two disabled calls return the same shared null context: no allocation
    assert kernel_span("a") is kernel_span("b")


def test_kernel_span_records_into_activated_tracer():
    tracer = Tracer()
    with activated(tracer):
        assert current_tracer() is tracer
        with kernel_span("k", items=1):
            pass
    assert current_tracer() is None
    (span,) = tracer.find("k")
    assert span.cat == "kernel"


def test_tracer_is_thread_safe():
    tracer = Tracer()

    def record():
        for _ in range(100):
            with tracer.span("t"):
                pass

    threads = [threading.Thread(target=record) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(tracer.find("t")) == 400


def _record_with_chunks(resumed=False):
    workers = [
        WorkerStats(worker=0, pid=100, chunks=1, tasks=2, busy_seconds=0.1),
        WorkerStats(worker=1, pid=101, chunks=1, tasks=2, busy_seconds=0.1),
    ]
    chunks = [
        ChunkTrace(start=0, stop=2, worker=0, begin=0.0, end=0.1),
        ChunkTrace(start=2, stop=4, worker=1, begin=0.05, end=0.2),
    ]
    if resumed:
        # restored from a checkpoint: fold_run lands it zero-width at 0.0
        # with no worker and no WorkerStats
        chunks.append(ChunkTrace(start=4, stop=6, worker=None, begin=0.0, end=0.0))
    n_tasks = 2 * len(chunks)
    return RunRecord(
        kernel="fmi",
        size="small",
        jobs=2,
        chunk_size=2,
        n_tasks=n_tasks,
        total_work=10 * n_tasks,
        task_work=[10] * n_tasks,
        prepare_seconds=0.1,
        prepare_cached=False,
        execute_seconds=0.2,
        serial_seconds=None,
        workers=workers,
        chunks=chunks,
        resumed_chunks=int(resumed),
    )


def test_chunk_timeline_rendering_from_record():
    for record in (_record_with_chunks(), _record_with_chunks(resumed=True)):
        events = chrome_events_from_record(record)
        x = [e for e in events if e["ph"] == "X"]
        # a resumed chunk ran in an earlier run: it is not drawn
        assert {e["name"] for e in x} == {"chunk[0:2)", "chunk[2:4)"}
        assert {e["pid"] for e in x} == {w.pid for w in record.workers}  # per-worker tracks
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} == {f"worker {w.worker}" for w in record.workers}
        # the counter series peaks at 2 while both chunks overlap, never
        # dips below 0 (a resumed chunk has no window), ends at 0
        counter_values = [e["args"]["value"] for e in events if e["ph"] == "C"]
        assert max(counter_values) == 2
        assert min(counter_values) >= 0
        assert counter_values[-1] == 0


def test_degraded_record_names_no_worker_track():
    # the coordinator reran the whole workload as one chunk on its own track
    record = _record_with_chunks()
    record.degraded = True
    record.workers = [WorkerStats(worker=0, pid=99, chunks=1, tasks=4, busy_seconds=0.2)]
    record.chunks = [ChunkTrace(start=0, stop=4, worker=0, begin=0.0, end=0.2)]
    events = chrome_events_from_record(record)
    assert [(e["name"], e["pid"]) for e in events if e["ph"] == "X"] == [("chunk[0:4)", 99)]
    assert not [e for e in events if e["ph"] == "M"]
    assert [e["args"]["value"] for e in events if e["ph"] == "C"] == [1, 0]


def test_export_record_trace(tmp_path):
    path = export_record_trace(_record_with_chunks(), tmp_path / "rec.json")
    doc = json.loads(path.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])
