"""In-run HTTP status plane over the structured event log.

``repro run --live-port N`` starts a :class:`LiveServer` next to the
engine: a stdlib-only (``http.server``) daemon thread that answers
while chunks execute --

* ``GET /status`` -- JSON progress: run state, chunks done/total/
  retried/quarantined, task counts, per-worker/per-host state, a
  throughput estimate and an ETA;
* ``GET /metrics`` -- the same progress as an OpenMetrics textfile
  (through the shared :func:`repro.obs.report.encode_openmetrics`
  encoder ``obs export`` uses), scrapeable mid-run;
* ``GET /events?since=SEQ[&level=L]`` -- the incremental event tail:
  pass the highest ``seq`` you have seen and get exactly the newer
  events, plus ``next`` to pass back on the following poll.

Everything served is a **pure fold over the event log**
(:func:`status_from_events`): the server holds no state of its own and
never touches engine internals, so any component that publishes events
is automatically observable -- the same fold powers status for a local
pool and a multi-host TCP run, whose remote events arrive already
clock-rebased.  This is the load-bearing interface for the ROADMAP's
``repro serve`` daemon: submit/poll/fetch needs exactly this view.
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs import events as ev
from repro.obs.events import Event, EventLog
from repro.obs.httpd import (
    DEFAULT_HOST,
    OPENMETRICS,
    HttpError,
    HttpServer,
    Reply,
    Request,
)


def status_from_events(
    events: list[Event], now: float | None = None
) -> dict[str, Any]:
    """Fold an event sequence into a live run-status document.

    ``now`` is an absolute ``perf_counter`` reading used for the
    elapsed/throughput/ETA estimates (defaults to the current time).
    The fold restarts at the latest ``run_started``, so a shared log
    driving several sequential runs (the CLI's multi-kernel loop)
    always reports the run in progress.
    """
    now = time.perf_counter() if now is None else now
    status: dict[str, Any] = {
        "state": "idle",
        "run_id": None,
        "kernel": None,
        "size": None,
        "executor": None,
        "jobs": None,
        "chunks": {
            "total": 0, "done": 0, "retried": 0, "quarantined": 0, "stolen": 0,
        },
        "tasks": {"total": 0, "done": 0},
        "workers": {},
        "hosts": {},
        "events": {"count": 0, "last_seq": -1},
        "elapsed_seconds": None,
        "throughput_tasks_per_second": None,
        "eta_seconds": None,
        "degraded": False,
        "retries": 0,
    }
    execute_ts: float | None = None
    finished_ts: float | None = None

    def worker_slot(key: Any) -> dict[str, Any]:
        slot = status["workers"].setdefault(
            str(key), {"state": "idle", "chunks": 0, "tasks": 0, "host": None}
        )
        return slot

    for event in events:
        status["events"]["count"] += 1
        status["events"]["last_seq"] = event.seq
        data = event.data or {}
        if event.name == ev.RUN_STARTED:
            # a fresh run on a shared log: report it, not its ancestors
            fresh = status_from_events([], now)
            fresh["events"] = status["events"]
            status = fresh
            execute_ts = finished_ts = None
            status["state"] = "preparing"
            status["run_id"] = event.run_id
            status["kernel"] = data.get("kernel")
            status["size"] = data.get("size")
            status["jobs"] = data.get("jobs")
            status["executor"] = data.get("executor")
        elif event.name == ev.EXECUTE_STARTED:
            status["state"] = "running"
            status["executor"] = data.get("executor", status["executor"])
            status["jobs"] = data.get("jobs", status["jobs"])
            status["chunks"]["total"] = data.get("chunks", 0)
            status["tasks"]["total"] = data.get("tasks", 0)
            execute_ts = event.ts
        elif event.name == ev.CHUNK_DISPATCHED:
            pass  # in-flight state is tracked per worker below
        elif event.name == ev.CHUNK_STARTED:
            key = event.worker if event.worker is not None else event.host
            if key is not None:  # None: the coordinator's serial fallback
                slot = worker_slot(key)
                slot["state"] = "busy"
                slot["host"] = event.host
        elif event.name == ev.CHUNK_COMPLETED:
            status["chunks"]["done"] += 1
            status["tasks"]["done"] += data.get(
                "tasks", (event.chunk[1] - event.chunk[0]) if event.chunk else 0
            )
            if event.worker is not None:
                slot = worker_slot(event.worker)
                slot["state"] = "idle"
                slot["chunks"] += 1
                slot["tasks"] += data.get("tasks", 0)
                slot["host"] = event.host or slot["host"]
        elif event.name == ev.CHUNK_RETRIED:
            status["chunks"]["retried"] += 1
            status["retries"] += 1
        elif event.name == ev.CHUNK_QUARANTINED:
            status["chunks"]["quarantined"] += 1
        elif event.name == ev.CHUNK_STOLEN:
            status["chunks"]["stolen"] += 1
        elif event.name == ev.FALLBACK_SERIAL:
            # the parent re-executes the chunk; it completes via the
            # supervisor's results map without a chunk_completed event
            status["chunks"]["done"] += 1
            if event.chunk is not None:
                status["tasks"]["done"] += event.chunk[1] - event.chunk[0]
        elif event.name in (ev.WORKER_SPAWNED, ev.WORKER_RESPAWNED):
            worker_slot(event.worker)["state"] = "idle"
        elif event.name == ev.WORKER_DIED:
            worker_slot(event.worker)["state"] = "dead"
        elif event.name == ev.HOST_CONNECTED:
            status["hosts"][event.host] = {"state": "connected"}
        elif event.name == ev.HOST_UNAVAILABLE:
            status["hosts"][event.host] = {"state": "unavailable"}
        elif event.name == ev.HOST_LOST:
            status["hosts"][event.host] = {"state": "lost"}
            if event.host is not None and str(event.host) in status["workers"]:
                status["workers"][str(event.host)]["state"] = "dead"
        elif event.name == ev.RUN_DEGRADED:
            status["degraded"] = True
            status["state"] = "degraded"
            if "chunks" in data:
                # the whole workload reruns in-process as one chunk:
                # progress restarts in that geometry, not the lost pool's
                status["chunks"].update(total=data["chunks"], done=0)
                status["tasks"] = {"total": data["tasks"], "done": 0}
        elif event.name == ev.RUN_FINISHED:
            status["state"] = "finished"
            finished_ts = event.ts
            status["elapsed_seconds"] = data.get("seconds")

    if execute_ts is not None:
        end = finished_ts if finished_ts is not None else now
        elapsed = max(0.0, end - execute_ts)
        if status["elapsed_seconds"] is None:
            status["elapsed_seconds"] = round(elapsed, 6)
        done = status["tasks"]["done"]
        if elapsed > 0 and done > 0:
            rate = done / elapsed
            status["throughput_tasks_per_second"] = round(rate, 3)
            remaining = max(0, status["tasks"]["total"] - done)
            if status["state"] == "running" and rate > 0:
                status["eta_seconds"] = round(remaining / rate, 3)
    return status


def status_metrics(status: dict[str, Any]) -> str:
    """The status fold as an OpenMetrics textfile (``GET /metrics``)."""
    from repro.obs.report import encode_openmetrics

    state_gauges = {
        f"live.state.{name}": 1.0 if status["state"] == name else 0.0
        for name in ("preparing", "running", "degraded", "finished")
    }
    doc = {
        "counters": {
            "live.chunks_done": status["chunks"]["done"],
            "live.chunks_retried": status["chunks"]["retried"],
            "live.chunks_quarantined": status["chunks"]["quarantined"],
            "live.chunks_stolen": status["chunks"]["stolen"],
            "live.tasks_done": status["tasks"]["done"],
            "live.events": status["events"]["count"],
        },
        "gauges": {
            "live.chunks_total": status["chunks"]["total"],
            "live.tasks_total": status["tasks"]["total"],
            "live.workers": len(status["workers"]),
            "live.hosts_connected": sum(
                1 for h in status["hosts"].values() if h["state"] == "connected"
            ),
            "live.elapsed_seconds": status["elapsed_seconds"],
            "live.throughput_tasks_per_second": (
                status["throughput_tasks_per_second"]
            ),
            "live.eta_seconds": status["eta_seconds"],
            **state_gauges,
        },
    }
    labels = {
        "kernel": status["kernel"] or "",
        "size": status["size"] or "",
        "jobs": status["jobs"] if status["jobs"] is not None else "",
    }
    return encode_openmetrics(doc, labels)


class LiveServer(HttpServer):
    """A live status server bound to one :class:`EventLog`; its daemon
    thread never outlives or blocks the run."""

    server_version = "repro-live/1"

    def __init__(self, events: EventLog, port: int = 0, host: str = DEFAULT_HOST) -> None:
        super().__init__(port, host)
        self.events = events

    def _index(self, req: Request) -> dict[str, Any]:
        return {"service": "repro live observability", "endpoints": self.endpoints()}

    def _metrics(self, req: Request) -> Reply:
        return Reply(status_metrics(status_from_events(self.events.events)), 200, OPENMETRICS)

    def _events(self, req: Request) -> dict[str, Any]:
        try:
            since = int(req.arg("since", "-1"))
        except ValueError:
            raise HttpError(400, "since must be an integer") from None
        level = req.arg("level")
        if level is not None and level not in ev.LEVELS:
            raise HttpError(400, f"unknown level {level!r}; valid: {', '.join(ev.LEVELS)}")
        tail = self.events.tail(since=since, level=level)
        return {
            "events": [e.as_dict(epoch=self.events.epoch) for e in tail],
            "next": tail[-1].seq if tail else max(since, -1),
        }

    routes = (
        {"method": "GET", "path": "/", "description": "this index", "handler": _index},
        {
            "method": "GET",
            "path": "/status",
            "description": "run progress folded from the event log",
            "handler": lambda self, req: status_from_events(self.events.events),
        },
        {
            "method": "GET",
            "path": "/metrics",
            "description": "the same progress as OpenMetrics",
            "handler": _metrics,
        },
        {
            "method": "GET",
            "path": "/events?since=SEQ&level=LEVEL",
            "description": "events after SEQ at or above LEVEL",
            "handler": _events,
        },
    )
