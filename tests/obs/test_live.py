"""Tests for the live HTTP status plane (/status, /metrics, /events)."""

import json
import urllib.error
import urllib.request
import warnings

import pytest

from repro.obs import events as ev
from repro.obs.events import Event, EventLog
from repro.obs.live import LiveServer, status_from_events, status_metrics


def _mk(seq, ts, name, **kwargs):
    data = kwargs.pop("data", None)
    return Event(seq=seq, ts=ts, name=name, data=data, **kwargs)


def _narrative():
    """A small but complete run narrative, on an absolute clock."""
    return [
        _mk(0, 10.0, ev.RUN_STARTED, run_id="r1",
            data={"kernel": "fmi", "size": "small", "jobs": 2, "executor": "local"}),
        _mk(1, 10.1, ev.EXECUTE_STARTED,
            data={"executor": "local", "chunks": 4, "tasks": 100, "jobs": 2}),
        _mk(2, 10.2, ev.CHUNK_DISPATCHED, chunk=(0, 25)),
        _mk(3, 10.3, ev.CHUNK_STARTED, level="debug", chunk=(0, 25), worker=0),
        _mk(4, 10.9, ev.CHUNK_COMPLETED, chunk=(0, 25), worker=0,
            data={"tasks": 25}),
        _mk(5, 11.0, ev.CHUNK_RETRIED, level="warning", chunk=(25, 50),
            worker=1, data={"kind": "exception"}),
        _mk(6, 11.5, ev.CHUNK_COMPLETED, chunk=(25, 50), worker=1,
            data={"tasks": 25}),
    ]


class TestStatusFold:
    def test_empty_log_is_idle(self):
        status = status_from_events([], now=0.0)
        assert status["state"] == "idle"
        assert status["chunks"]["done"] == 0
        assert status["events"]["count"] == 0

    def test_running_fold_counts_progress_and_estimates_eta(self):
        status = status_from_events(_narrative(), now=12.0)
        assert status["state"] == "running"
        assert status["run_id"] == "r1"
        assert status["kernel"] == "fmi"
        assert status["chunks"] == {
            "total": 4, "done": 2, "retried": 1, "quarantined": 0, "stolen": 0,
        }
        assert status["tasks"] == {"total": 100, "done": 50}
        assert status["retries"] == 1
        # 50 tasks in 1.9s of execute time, 50 remaining
        assert status["throughput_tasks_per_second"] == pytest.approx(
            50 / 1.9, rel=1e-3
        )
        assert status["eta_seconds"] == pytest.approx(1.9, rel=1e-3)
        assert status["workers"]["0"]["chunks"] == 1
        assert status["workers"]["1"]["state"] == "idle"

    def test_finished_run_has_no_eta(self):
        events = _narrative() + [
            _mk(7, 12.0, ev.RUN_FINISHED, data={"seconds": 1.9}),
        ]
        status = status_from_events(events, now=50.0)
        assert status["state"] == "finished"
        assert status["eta_seconds"] is None
        assert status["elapsed_seconds"] == 1.9

    def test_fold_restarts_at_latest_run_started(self):
        events = _narrative() + [
            _mk(7, 12.0, ev.RUN_FINISHED, data={"seconds": 1.9}),
            _mk(8, 20.0, ev.RUN_STARTED, run_id="r2",
                data={"kernel": "bsw", "size": "small", "jobs": 2,
                      "executor": "local"}),
        ]
        status = status_from_events(events, now=21.0)
        assert status["run_id"] == "r2"
        assert status["state"] == "preparing"
        assert status["chunks"]["done"] == 0
        # the cumulative event counter survives the reset
        assert status["events"]["count"] == 9
        assert status["events"]["last_seq"] == 8

    def test_failure_narrative_reaches_the_fold(self):
        events = [
            _mk(0, 0.0, ev.RUN_STARTED, data={"kernel": "fmi"}),
            _mk(1, 0.1, ev.EXECUTE_STARTED, data={"chunks": 2, "tasks": 50}),
            _mk(2, 0.2, ev.WORKER_DIED, level="error", worker=0),
            _mk(3, 0.3, ev.WORKER_RESPAWNED, level="warning", worker=1),
            _mk(4, 0.4, ev.CHUNK_QUARANTINED, level="error", chunk=(0, 25)),
            _mk(5, 0.5, ev.HOST_CONNECTED, host="h:1"),
            _mk(6, 0.6, ev.HOST_LOST, level="error", host="h:1"),
            _mk(7, 0.7, ev.FALLBACK_SERIAL, level="warning", chunk=(25, 50)),
            _mk(8, 0.8, ev.RUN_DEGRADED, level="error"),
        ]
        status = status_from_events(events, now=1.0)
        assert status["state"] == "degraded"
        assert status["degraded"] is True
        assert status["chunks"]["quarantined"] == 1
        assert status["chunks"]["done"] == 1  # the serial fallback completed it
        assert status["tasks"]["done"] == 25
        assert status["hosts"]["h:1"]["state"] == "lost"
        assert status["workers"]["0"]["state"] == "dead"

    def test_degrade_restarts_progress_in_the_one_chunk_geometry(self):
        # the pool finished one chunk of four before it was lost
        events = [
            _mk(0, 0.0, ev.RUN_STARTED, data={"kernel": "toy"}),
            _mk(1, 0.1, ev.EXECUTE_STARTED, data={"chunks": 4, "tasks": 8}),
            _mk(2, 0.2, ev.CHUNK_COMPLETED, chunk=(0, 2), worker=0,
                data={"tasks": 2}),
            _mk(3, 0.3, ev.RUN_DEGRADED, level="error",
                data={"chunks": 1, "tasks": 8, "chunk_size": 8}),
            _mk(4, 0.4, ev.CHUNK_COMPLETED, chunk=(0, 8), worker=0,
                data={"tasks": 8}),
            _mk(5, 0.5, ev.RUN_FINISHED, data={"seconds": 0.4}),
        ]
        status = status_from_events(events, now=1.0)
        assert status["state"] == "finished" and status["degraded"]
        assert (status["chunks"]["done"], status["chunks"]["total"]) == (1, 1)
        assert status["tasks"] == {"total": 8, "done": 8}

    def test_degraded_engine_run_folds_to_complete_progress(self, monkeypatch):
        from repro.core.datasets import DatasetSize
        from repro.runner import ParallelRunner
        from repro.runner.executors import LocalExecutor
        from tests.runner.test_events_flow import ToyBench

        def lost(*args, **kwargs):
            raise OSError("every pool worker lost")

        monkeypatch.setattr(LocalExecutor, "collect", lost)
        bench = ToyBench(n_tasks=8)
        log = EventLog()
        runner = ParallelRunner(
            jobs=2, chunk_size=2, measure_serial=False, events=log
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = runner.execute(
                bench, bench.prepare(DatasetSize.SMALL), DatasetSize.SMALL
            )
        assert run.record.degraded
        status = status_from_events(log.events)
        assert status["state"] == "finished"
        assert (status["chunks"]["done"], status["chunks"]["total"]) == (1, 1)
        assert status["tasks"] == {"total": 8, "done": 8}

    def test_status_metrics_is_valid_openmetrics(self):
        text = status_metrics(status_from_events(_narrative(), now=12.0))
        assert text.endswith("# EOF\n")
        assert 'genomicsbench_live_chunks_done_total{kernel="fmi"' in text
        assert "genomicsbench_live_state_running" in text


class TestLiveServer:
    @pytest.fixture()
    def served(self):
        log = EventLog(run_id="r1")
        with LiveServer(log, port=0) as server:
            yield log, server

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.headers.get("Content-Type"), resp.read().decode()

    def test_status_endpoint_serves_the_fold(self, served):
        log, server = served
        log.emit(ev.RUN_STARTED, kernel="fmi", size="small", jobs=2, executor="local")
        log.emit(ev.EXECUTE_STARTED, executor="local", chunks=2, tasks=10, jobs=2)
        log.emit(ev.CHUNK_COMPLETED, chunk=(0, 5), worker=0, tasks=5)
        code, ctype, body = self._get(server.url + "/status")
        assert code == 200 and ctype == "application/json"
        doc = json.loads(body)
        assert doc["state"] == "running"
        assert doc["chunks"]["done"] == 1
        assert doc["tasks"] == {"total": 10, "done": 5}

    def test_metrics_endpoint_serves_openmetrics(self, served):
        log, server = served
        log.emit(ev.RUN_STARTED, kernel="fmi", size="small", jobs=1, executor="serial")
        code, ctype, body = self._get(server.url + "/metrics")
        assert code == 200
        assert "openmetrics-text" in ctype
        assert body.endswith("# EOF\n")
        assert "genomicsbench_live_events_total" in body

    def test_events_endpoint_pages_incrementally(self, served):
        log, server = served
        log.emit("a")
        log.emit("b")
        code, _, body = self._get(server.url + "/events?since=-1")
        doc = json.loads(body)
        assert code == 200
        assert [e["name"] for e in doc["events"]] == ["a", "b"]
        assert doc["next"] == 1
        log.emit("c")
        _, _, body = self._get(server.url + f"/events?since={doc['next']}")
        doc = json.loads(body)
        assert [e["name"] for e in doc["events"]] == ["c"]
        _, _, body = self._get(server.url + f"/events?since={doc['next']}")
        doc = json.loads(body)
        assert doc["events"] == [] and doc["next"] == 2

    def test_events_endpoint_filters_by_level(self, served):
        log, server = served
        log.emit("fine", level="debug")
        log.emit("bad", level="error")
        _, _, body = self._get(server.url + "/events?since=-1&level=warning")
        doc = json.loads(body)
        assert [e["name"] for e in doc["events"]] == ["bad"]

    def test_events_endpoint_rejects_bad_since(self, served):
        _, server = served
        try:
            self._get(server.url + "/events?since=banana")
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400

    def test_unknown_route_is_404_and_index_lists_endpoints(self, served):
        _, server = served
        code, _, body = self._get(server.url + "/")
        assert code == 200 and "/status" in body
        try:
            self._get(server.url + "/nope")
            raise AssertionError("expected HTTP 404")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404

    def test_ephemeral_port_is_resolved_and_stop_is_idempotent(self):
        log = EventLog()
        server = LiveServer(log, port=0).start()
        assert server.port > 0
        server.stop()
        server.stop()  # second stop is a no-op
