"""Append-only structured event log: the run's live narrative.

Traces, metrics, profiles and telemetry (the rest of :mod:`repro.obs`)
all materialize *after* a run finishes.  This module is the plane that
makes a run observable **while it executes**: every layer of the engine
-- the engine itself, the :class:`~repro.runner.supervisor.ChunkSupervisor`,
the executor backends and the fault machinery -- publishes typed,
severity-leveled events into one :class:`EventLog`, and everything
downstream (the ``run --live-port`` HTTP status server in
:mod:`repro.obs.live`, the ``obs tail`` CLI, the HTML report's event
lane, the schema-v5 :class:`~repro.runner.record.RunRecord`, whose
chunk trace and failure report are
:func:`~repro.runner.record.fold_run` over the run's slice) is a pure
fold over that log.

Design rules
------------

* **Append-only with a monotonic ``seq``.**  Every event gets the next
  sequence number under one lock; consumers poll incrementally with
  :meth:`EventLog.tail` (``GET /events?since=SEQ`` is exactly that).
* **Correlation IDs, not prose.**  Events carry the run id, the chunk
  bounds, the worker index (or remote host label) and the attempt
  number as structured fields; free-form detail goes in ``data``.
* **Worker events ride the chunk payload.**  Every chunk buffers its
  ``chunk_started``/``chunk_finished`` events in the executing process
  and ships them back inside its
  :class:`~repro.runner.worker.ChunkPayload`; a remote payload is
  moved onto the coordinator's clock by
  :meth:`~repro.runner.worker.ChunkPayload.rebased` together with its
  spans and telemetry, and the
  :class:`~repro.runner.supervisor.ChunkSupervisor` re-sequences the
  buffer into the coordinator's log with :meth:`EventLog.absorb` as
  the payload lands -- so one log tells the whole multi-host story on
  one clock.
* **Optional JSONL sink.**  With a ``logfile`` the log appends one JSON
  line per event as it happens (``run --events FILE``), which is what
  ``obs tail --follow`` and the CI artifact consume.

Timestamps are absolute ``time.perf_counter()`` readings (the same
system-wide clock the tracer uses); serialization rebases them to
run-relative seconds against an explicit epoch.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

# -- severity ----------------------------------------------------------

#: Severity levels, least to most severe.
LEVELS = ("debug", "info", "warning", "error")

_LEVEL_RANK = {name: rank for rank, name in enumerate(LEVELS)}


def level_rank(level: str) -> int:
    """Numeric rank of a severity level (unknown levels rank as info)."""
    return _LEVEL_RANK.get(level, _LEVEL_RANK["info"])


# -- event names -------------------------------------------------------
# One constant per event type so emitters and consumers share a
# vocabulary; the log itself accepts any name (third-party backends
# can add their own).

RUN_STARTED = "run_started"
PREPARE_STARTED = "prepare_started"
PREPARE_FINISHED = "prepare_finished"
EXECUTE_STARTED = "execute_started"
CHUNK_DISPATCHED = "chunk_dispatched"
CHUNK_STARTED = "chunk_started"  # worker-side
CHUNK_FINISHED = "chunk_finished"  # worker-side
CHUNK_COMPLETED = "chunk_completed"  # supervisor-side (result accepted)
CHUNK_RETRIED = "chunk_retried"
CHUNK_FAILED = "chunk_failed"
CHUNK_QUARANTINED = "chunk_quarantined"
CHUNK_STOLEN = "chunk_stolen"
FALLBACK_SERIAL = "fallback_serial"
WORKER_SPAWNED = "worker_spawned"
WORKER_DIED = "worker_died"
WORKER_RESPAWNED = "worker_respawned"
HOST_CONNECTED = "host_connected"
HOST_UNAVAILABLE = "host_unavailable"
HOST_LOST = "host_lost"
RUN_RESUMED = "run_resumed"
RUN_DEGRADED = "run_degraded"
RUN_FINISHED = "run_finished"
SWEEP_STARTED = "sweep_started"
SWEEP_FINISHED = "sweep_finished"
CELL_STARTED = "cell_started"
CELL_FINISHED = "cell_finished"
CELL_SKIPPED = "cell_skipped"  # resume found a finished cell record
CELL_FAILED = "cell_failed"
# service plane (``repro serve``; see repro.service.server)
SERVICE_STARTED = "service_started"
SERVICE_STOPPING = "service_stopping"
SERVICE_STOPPED = "service_stopped"
JOB_SUBMITTED = "job_submitted"
JOB_DEDUPED = "job_deduped"  # answered from the result store
JOB_REJECTED = "job_rejected"  # admission control said no (429)
JOB_STARTED = "job_started"
JOB_FINISHED = "job_finished"
JOB_FAILED = "job_failed"
# SLO engine (repro.obs.slo, evaluated over the service series)
SLO_BREACHED = "slo_breached"  # every burn-rate window over threshold
SLO_RECOVERED = "slo_recovered"  # a breached objective back within budget


@dataclass
class Event:
    """One thing that happened during a run.

    ``ts`` is an absolute ``perf_counter`` reading on the coordinator's
    clock (remote events are rebased before they land here); ``seq`` is
    the position in the owning log.  ``chunk`` is the half-open task
    range the event concerns, ``worker`` a pool worker index or remote
    host label, ``host`` the remote endpoint for distributed events.
    """

    seq: int
    ts: float
    name: str
    level: str = "info"
    run_id: str | None = None
    chunk: tuple[int, int] | None = None
    worker: int | str | None = None
    host: str | None = None
    attempt: int | None = None
    pid: int | None = None
    data: dict[str, Any] | None = None

    def as_dict(self, epoch: float = 0.0) -> dict[str, Any]:
        """JSON-ready form; ``t`` is seconds relative to ``epoch``."""
        doc: dict[str, Any] = {
            "seq": self.seq,
            "t": round(self.ts - epoch, 6),
            "name": self.name,
            "level": self.level,
        }
        if self.run_id is not None:
            doc["run_id"] = self.run_id
        if self.chunk is not None:
            doc["chunk"] = list(self.chunk)
        if self.worker is not None:
            doc["worker"] = self.worker
        if self.host is not None:
            doc["host"] = self.host
        if self.attempt is not None:
            doc["attempt"] = self.attempt
        if self.pid is not None:
            doc["pid"] = self.pid
        if self.data:
            doc["data"] = self.data
        return doc

    @classmethod
    def from_dict(cls, d: dict[str, Any], epoch: float = 0.0) -> "Event":
        chunk = d.get("chunk")
        return cls(
            seq=int(d.get("seq", 0)),
            ts=float(d.get("t", 0.0)) + epoch,
            name=d.get("name", "event"),
            level=d.get("level", "info"),
            run_id=d.get("run_id"),
            chunk=tuple(chunk) if chunk is not None else None,
            worker=d.get("worker"),
            host=d.get("host"),
            attempt=d.get("attempt"),
            pid=d.get("pid"),
            data=d.get("data"),
        )


def format_event(doc: dict[str, Any]) -> str:
    """One human-readable line for an event dict (``obs tail`` output)."""
    t = doc.get("t", 0.0)
    parts = [f"[{t:+9.3f}s]", f"{doc.get('level', 'info').upper():<7}", doc.get("name", "event")]
    chunk = doc.get("chunk")
    if chunk is not None:
        parts.append(f"[{chunk[0]}:{chunk[1]})")
    for key in ("worker", "host", "attempt"):
        if doc.get(key) is not None:
            parts.append(f"{key}={doc[key]}")
    for key, value in (doc.get("data") or {}).items():
        parts.append(f"{key}={value}")
    return " ".join(str(p) for p in parts)


def new_run_id() -> str:
    """A short unique id correlating every event of one run."""
    return uuid.uuid4().hex[:12]


class EventLog:
    """Thread-safe append-only event log with an optional JSONL sink.

    Parameters
    ----------
    run_id:
        Default correlation id stamped on emitted events (individual
        emits may override).  ``None`` leaves events unstamped until
        the engine assigns one with :meth:`set_run_id`.
    logfile:
        Path of a JSONL file to append every event to as it lands
        (created eagerly, parent directories included).  Lines carry
        ``t`` relative to the log's creation time.
    """

    def __init__(
        self,
        run_id: str | None = None,
        logfile: "Path | str | None" = None,
    ) -> None:
        self.epoch = time.perf_counter()
        self.run_id = run_id
        self._lock = threading.Lock()
        self._events: list[Event] = []
        self._next_seq = 0
        self._logfile: Path | None = None
        self._sink: Any = None
        self._listeners: list[Callable[[Event], None]] = []
        if logfile is not None:
            self._logfile = Path(logfile)
            self._logfile.parent.mkdir(parents=True, exist_ok=True)
            self._sink = self._logfile.open("a", encoding="utf-8")

    # -- recording -----------------------------------------------------

    def set_run_id(self, run_id: str) -> None:
        with self._lock:
            self.run_id = run_id

    @property
    def next_seq(self) -> int:
        """The seq the next appended event will get."""
        with self._lock:
            return self._next_seq

    def emit(
        self,
        name: str,
        level: str = "info",
        *,
        chunk: tuple[int, int] | None = None,
        worker: int | str | None = None,
        host: str | None = None,
        attempt: int | None = None,
        ts: float | None = None,
        **data: Any,
    ) -> Event:
        """Append one event at the current time (or explicit ``ts``);
        ``pid`` defaults to this process, and ``pid=None`` marks it unknown."""
        event = Event(
            seq=-1,
            ts=time.perf_counter() if ts is None else ts,
            name=name,
            level=level if level in _LEVEL_RANK else "info",
            run_id=self.run_id,
            chunk=chunk,
            worker=worker,
            host=host,
            attempt=attempt,
            pid=data.pop("pid", os.getpid()),
            data=data or None,
        )
        self._append(event)
        return event

    def absorb(
        self,
        events: Iterable[Event],
        host: str | None = None,
        worker: int | str | None = None,
    ) -> int:
        """Merge events recorded elsewhere (a worker buffer).

        Each event is re-sequenced into this log (its remote ``seq`` is
        discarded -- sequence numbers are a property of the owning log)
        and, when ``host``/``worker`` are given, stamped with the
        producing host and worker.  Timestamps must already be on this
        log's clock.  Returns how many events landed.
        """
        fallback_worker = worker if worker is not None else host
        count = 0
        for event in events:
            self._append(
                Event(
                    seq=-1,
                    ts=event.ts,
                    name=event.name,
                    level=event.level,
                    run_id=event.run_id or self.run_id,
                    chunk=event.chunk,
                    worker=event.worker if event.worker is not None else fallback_worker,
                    host=host or event.host,
                    attempt=event.attempt,
                    pid=event.pid,
                    data=event.data,
                )
            )
            count += 1
        return count

    def _append(self, event: Event) -> None:
        with self._lock:
            event.seq = self._next_seq
            self._next_seq += 1
            if event.run_id is None:
                event.run_id = self.run_id
            self._events.append(event)
            sink = self._sink
            listeners = list(self._listeners)
            if sink is not None:
                try:
                    sink.write(json.dumps(event.as_dict(epoch=self.epoch)) + "\n")
                    sink.flush()
                except (OSError, ValueError):  # sink closed or disk gone
                    self._sink = None
        for listener in listeners:
            listener(event)

    def subscribe(self, listener: Callable[[Event], None]) -> None:
        """Call ``listener(event)`` for every future append."""
        with self._lock:
            self._listeners.append(listener)

    def close(self) -> None:
        """Close the JSONL sink (the log itself stays readable)."""
        with self._lock:
            if self._sink is not None:
                try:
                    self._sink.close()
                except OSError:  # pragma: no cover - close race
                    pass
                self._sink = None

    # -- reading -------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def events(self) -> list[Event]:
        with self._lock:
            return list(self._events)

    def tail(
        self, since: int = -1, level: str | None = None, name: str | None = None
    ) -> list[Event]:
        """Events with ``seq > since``, optionally filtered.

        ``level`` keeps events at or above that severity; ``name``
        keeps only that event type.  The incremental-poll contract:
        pass the highest ``seq`` you have seen and you get exactly the
        events you have not.
        """
        floor = level_rank(level) if level is not None else None
        with self._lock:
            out = self._events[since + 1 :] if since >= -1 else list(self._events)
        if floor is not None:
            out = [e for e in out if level_rank(e.level) >= floor]
        if name is not None:
            out = [e for e in out if e.name == name]
        return out

    def find(self, name: str) -> list[Event]:
        """All events of one type, in seq order."""
        return self.tail(name=name)

    def as_dicts(self, since: int = -1, epoch: float | None = None) -> list[dict[str, Any]]:
        """JSON-ready event list (``epoch`` defaults to log creation)."""
        epoch = self.epoch if epoch is None else epoch
        return [e.as_dict(epoch=epoch) for e in self.tail(since)]


# -- JSONL / record loading -------------------------------------------


def load_events(path: "Path | str") -> list[dict[str, Any]]:
    """Event dicts from anything the suite writes events into.

    Accepts a JSONL event-log file (one event per line, as written by
    ``EventLog(logfile=...)``) or any run-record JSON the suite emits
    (a raw record, ``run --format json`` output or a bench history) --
    the loader takes the last record's ``events``.
    """
    path = Path(path)
    text = path.read_text()
    stripped = text.lstrip()
    if not stripped:
        return []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) or isinstance(doc, list):
        from repro.obs.report import _records_from

        records = _records_from(doc)
        if records:
            return list(records[-1].events)
        if isinstance(doc, dict) and "events" in doc:
            return list(doc["events"])
        raise ValueError(f"{path}: no run records or events found")
    return parse_jsonl(text)


def parse_jsonl(text: str) -> list[dict[str, Any]]:
    """Event dicts from JSONL text, skipping malformed lines."""
    out: list[dict[str, Any]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict):
            out.append(doc)
    return out
