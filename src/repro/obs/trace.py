"""Span tracing with Chrome trace-event export.

The paper's measurement story is phase-level: VTune and per-phase
wall-clock show *where* time goes inside a run.  This module is the
reproduction's equivalent -- a lightweight span tracer the engine and
the kernel adapters emit into, exported as Chrome trace-event JSON that
loads directly in ``chrome://tracing`` or `Perfetto <https://ui.perfetto.dev>`_.

Three layers:

* :class:`Tracer` -- records :class:`Span` duration events, instant
  events and counter samples.  Thread-safe (one lock around the append;
  nesting is reconstructed from timestamps per ``(pid, tid)`` track,
  which is exactly how the Chrome viewer renders it).
* *activation* -- :func:`activated` installs a tracer as the current
  one for the calling thread (a :class:`contextvars.ContextVar`, so
  concurrent runs in one process never record into each other's
  tracer); :func:`kernel_span` / :func:`kernel_instant` are the
  no-overhead hooks kernel adapters call without threading a tracer
  argument through the Benchmark protocol.  With no active tracer they
  return a shared ``nullcontext`` / return immediately, so tracing
  disabled costs one context-variable read per shard.
* export -- :meth:`Tracer.to_chrome` / :meth:`Tracer.export` emit the
  trace-event format, and :func:`chrome_events_from_record` renders a
  stored :class:`~repro.runner.record.RunRecord` chunk timeline
  (duration events per chunk plus a ``workers.active`` counter series)
  without needing a live tracer.

Process-safety: every chunk records into its own fresh tracer (see
:func:`repro.runner.worker.execute_chunk`) and ships the span buffer
back with the shard result; the engine merges them with
:meth:`Tracer.extend` at shard boundaries.  Timestamps are absolute
``time.perf_counter()`` readings -- comparable across forked (and, on
mainstream platforms, spawned) processes because the clock is
system-wide -- and are made relative to the tracer's epoch only at
export time.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.serialize import write_json

_NULL_CONTEXT = nullcontext()

#: The current thread's active tracer (``None`` = tracing disabled).
_ACTIVE: "ContextVar[Tracer | None]" = ContextVar("repro_tracer", default=None)


@dataclass
class Span:
    """One completed duration event (absolute ``perf_counter`` bounds)."""

    name: str
    cat: str
    begin: float
    end: float
    pid: int
    tid: int
    args: dict[str, Any] | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.begin

    def encloses(self, other: "Span") -> bool:
        """True when ``other`` nests inside this span on the same track."""
        return (
            self.pid == other.pid
            and self.tid == other.tid
            and self.begin <= other.begin
            and other.end <= self.end
        )


@dataclass
class CounterSample:
    """One sample of a named counter series."""

    name: str
    value: float
    ts: float
    pid: int


@dataclass
class InstantEvent:
    """A zero-duration marker (Chrome ``ph: "i"``)."""

    name: str
    cat: str
    ts: float
    pid: int
    tid: int
    args: dict[str, Any] | None = None


class Tracer:
    """Collects spans, instants and counter samples for one run."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._instants: list[InstantEvent] = []
        self._counters: list[CounterSample] = []
        self._track_names: dict[tuple[int, int], str] = {}

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str, cat: str = "engine", **args: Any):
        """Record a duration event around the managed block."""
        begin = time.perf_counter()
        try:
            yield self
        finally:
            end = time.perf_counter()
            self.add_span(
                Span(
                    name=name,
                    cat=cat,
                    begin=begin,
                    end=end,
                    pid=os.getpid(),
                    tid=threading.get_ident(),
                    args=args or None,
                )
            )

    def add_span(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def extend(self, spans: list[Span]) -> None:
        """Merge spans recorded elsewhere (another thread or worker)."""
        with self._lock:
            self._spans.extend(spans)

    def instant(self, name: str, cat: str = "engine", **args: Any) -> None:
        """Record a zero-duration marker at the current time."""
        with self._lock:
            self._instants.append(
                InstantEvent(
                    name=name,
                    cat=cat,
                    ts=time.perf_counter(),
                    pid=os.getpid(),
                    tid=threading.get_ident(),
                    args=args or None,
                )
            )

    def counter(self, name: str, value: float, ts: float | None = None, pid: int | None = None) -> None:
        """Record one sample of counter series ``name``."""
        with self._lock:
            self._counters.append(
                CounterSample(
                    name=name,
                    value=value,
                    ts=time.perf_counter() if ts is None else ts,
                    pid=os.getpid() if pid is None else pid,
                )
            )

    def name_track(self, pid: int, tid: int, name: str) -> None:
        """Attach a human-readable name to a ``(pid, tid)`` track."""
        with self._lock:
            self._track_names[(pid, tid)] = name

    # -- inspection ----------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    @property
    def counters(self) -> list[CounterSample]:
        with self._lock:
            return list(self._counters)

    @property
    def instants(self) -> list[InstantEvent]:
        with self._lock:
            return list(self._instants)

    def find(self, name: str) -> list[Span]:
        """All spans called ``name``."""
        return [s for s in self.spans if s.name == name]

    def find_instants(self, name: str) -> list[InstantEvent]:
        """All instant markers called ``name``."""
        return [i for i in self.instants if i.name == name]

    # -- export --------------------------------------------------------

    def _us(self, t: float) -> float:
        """Microseconds since the tracer epoch (clamped at zero)."""
        return max(0.0, (t - self.epoch) * 1e6)

    def to_chrome(self) -> dict[str, Any]:
        """The Chrome trace-event document for everything recorded."""
        with self._lock:
            spans = list(self._spans)
            instants = list(self._instants)
            counters = list(self._counters)
            track_names = dict(self._track_names)
        events: list[dict[str, Any]] = []
        for (pid, tid), name in sorted(track_names.items()):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        for s in sorted(spans, key=lambda s: s.begin):
            ev: dict[str, Any] = {
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": self._us(s.begin),
                "dur": max(0.0, (s.end - s.begin) * 1e6),
                "pid": s.pid,
                "tid": s.tid,
            }
            if s.args:
                ev["args"] = s.args
            events.append(ev)
        for i in sorted(instants, key=lambda i: i.ts):
            ev = {
                "name": i.name,
                "cat": i.cat,
                "ph": "i",
                "s": "t",
                "ts": self._us(i.ts),
                "pid": i.pid,
                "tid": i.tid,
            }
            if i.args:
                ev["args"] = i.args
            events.append(ev)
        for c in sorted(counters, key=lambda c: c.ts):
            events.append(
                {
                    "name": c.name,
                    "ph": "C",
                    "ts": self._us(c.ts),
                    "pid": c.pid,
                    "args": {"value": c.value},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export(self, path: Path | str) -> Path:
        """Write the Chrome trace-event JSON to ``path``."""
        return write_json(path, self.to_chrome())


# -- module-level activation ------------------------------------------


def current_tracer() -> Tracer | None:
    """This thread's active tracer, or ``None`` when disabled."""
    return _ACTIVE.get()


@contextmanager
def activated(tracer: Tracer):
    """Install ``tracer`` as this thread's current one for the block."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


def kernel_span(name: str, cat: str = "kernel", **args: Any):
    """Span hook for kernel adapters; free when tracing is disabled."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return _NULL_CONTEXT
    return tracer.span(name, cat=cat, **args)


def kernel_instant(name: str, cat: str = "kernel", **args: Any) -> None:
    """Instant-event hook for kernel adapters; free when disabled."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.instant(name, cat=cat, **args)


# -- RunRecord chunk-timeline rendering -------------------------------


def chrome_events_from_record(record: Any) -> list[dict[str, Any]]:
    """Render a :class:`~repro.runner.record.RunRecord` chunk timeline.

    Produces one ``ph: "X"`` duration event per scheduled chunk (on a
    per-worker track, named from the record's worker table) plus a
    ``workers.active`` counter series sampled at every chunk boundary --
    the same worker-timeline view the engine records live, but built
    purely from a stored record, so any archived run can be opened in
    Perfetto.  Timestamps are relative to the engine dispatch start,
    already the convention of :class:`~repro.runner.record.ChunkTrace`.
    """
    pid_of = {w.worker: w.pid for w in record.workers}
    events: list[dict[str, Any]] = []
    for worker in sorted(pid_of):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid_of[worker],
                "tid": 0,
                "args": {"name": f"worker {worker}"},
            }
        )
    boundaries: list[tuple[float, int]] = []
    for chunk in record.chunks:
        events.append(
            {
                "name": f"chunk[{chunk.start}:{chunk.stop})",
                "cat": "chunk",
                "ph": "X",
                "ts": chunk.begin * 1e6,
                "dur": max(0.0, (chunk.end - chunk.begin) * 1e6),
                "pid": pid_of.get(chunk.worker, chunk.worker),
                "tid": 0,
                "args": {"worker": chunk.worker, "tasks": chunk.stop - chunk.start},
            }
        )
        boundaries.append((chunk.begin, +1))
        boundaries.append((chunk.end, -1))
    active = 0
    pid = next(iter(pid_of.values()), 0)
    for ts, delta in sorted(boundaries):
        active += delta
        events.append(
            {
                "name": "workers.active",
                "ph": "C",
                "ts": ts * 1e6,
                "pid": pid,
                "args": {"value": active},
            }
        )
    return events


def export_record_trace(record: Any, path: Path | str) -> Path:
    """Write a stored record's chunk timeline as a Chrome trace file."""
    return write_json(
        path,
        {"traceEvents": chrome_events_from_record(record), "displayTimeUnit": "ms"},
    )
