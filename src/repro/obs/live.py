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

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.obs import events as ev
from repro.obs.events import Event, EventLog

#: Default bind address; the live plane is a loopback diagnostic port,
#: not a public service.
DEFAULT_HOST = "127.0.0.1"


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


class _LiveHandler(BaseHTTPRequestHandler):
    """Routes ``/status``, ``/metrics`` and ``/events`` over one log."""

    #: Set by :class:`LiveServer` on the handler subclass it serves with.
    events: EventLog

    server_version = "repro-live/1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # a diagnostics port must not spam the run's stderr

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        if route == "/status":
            self._send_json(status_from_events(self.events.events))
        elif route == "/metrics":
            body = status_metrics(status_from_events(self.events.events))
            self._send(200, body, "application/openmetrics-text; version=1.0.0")
        elif route == "/events":
            query = parse_qs(parsed.query)
            try:
                since = int(query.get("since", ["-1"])[0])
            except ValueError:
                self._send_json({"error": "since must be an integer"}, code=400)
                return
            level = query.get("level", [None])[0]
            tail = self.events.tail(since=since, level=level)
            self._send_json(
                {
                    "events": [e.as_dict(epoch=self.events.epoch) for e in tail],
                    "next": tail[-1].seq if tail else max(since, -1),
                }
            )
        elif route == "/":
            self._send_json(
                {
                    "service": "repro live observability",
                    "endpoints": ["/status", "/metrics", "/events?since=SEQ"],
                }
            )
        else:
            self._send_json({"error": f"no such endpoint {route!r}"}, code=404)

    def _send_json(self, doc: dict[str, Any], code: int = 200) -> None:
        self._send(code, json.dumps(doc, indent=2) + "\n", "application/json")

    def _send(self, code: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        try:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-reply; nothing to clean up


class LiveServer:
    """A live status server bound to one :class:`EventLog`.

    Serves on a daemon thread so it never outlives or blocks the run;
    ``port=0`` binds an ephemeral port (tests).  Use as a context
    manager or call :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(
        self,
        events: EventLog,
        port: int = 0,
        host: str = DEFAULT_HOST,
    ) -> None:
        self.events = events
        self.host = host
        self._requested_port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0``)."""
        if self._server is None:
            return self._requested_port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "LiveServer":
        if self._server is not None:
            return self
        handler = type("BoundLiveHandler", (_LiveHandler,), {"events": self.events})
        self._server = ThreadingHTTPServer(
            (self.host, self._requested_port), handler
        )
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"repro-live-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(2.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "LiveServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
