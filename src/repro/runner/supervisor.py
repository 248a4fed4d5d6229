"""Backend-agnostic chunk supervision: retries, backoff, quarantine.

``multiprocessing.Pool`` assumes a perfect world -- a hung worker stalls
``get()`` forever and an abruptly dead one can wedge the whole pool.
Long-running data-parallel benchmark runs need the opposite guarantees,
so this module implements the engine's *supervised* execution model --
now over any pluggable :class:`~repro.runner.executors.Executor`
backend rather than a baked-in process pool:

* the supervisor keeps one pending queue and hands the next chunk to
  whichever backend slot goes idle first (dynamic scheduling -- and,
  across distributed hosts, shard-level work stealing -- fall out for
  free);
* a chunk that fails -- by raised exception, by per-chunk wall-clock
  timeout, or by its worker dying or its host being lost -- is retried
  up to a bounded budget with exponential backoff
  (:class:`~repro.runner.retry.BackoffPolicy`); the *backend* owns
  detection and healing (kill + respawn locally, connection teardown
  remotely) and reports each detection as a
  :class:`~repro.runner.executors.ChunkEvent`;
* a chunk that exhausts its budget is *poisoned*: depending on the
  ``on_failure`` policy the run fails fast, quarantines the chunk (the
  run completes with a structured gap report), or re-executes the chunk
  serially in the parent process;
* every failed attempt becomes a
  :class:`~repro.runner.record.FailureEvent` in the run record, so the
  recovery story is part of the run's machine-readable provenance.

Capability flags gate what the supervisor asks of a backend: deadlines
are only set when ``capabilities.timeouts`` holds, so a serial backend
is never blamed for budgets it cannot enforce.

Fault injection (:mod:`repro.runner.faults`) hooks in at the top of
each worker-side chunk attempt, which is how the chaos tests drive
every one of these paths deterministically.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable

from repro.core.benchmark import ExecutionResult
from repro.obs import events as ev
from repro.obs.events import EventLog
from repro.obs.trace import Tracer
from repro.runner.executors import ChunkEvent, Executor
from repro.runner.record import FailureEvent
from repro.runner.retry import BackoffPolicy
from repro.runner.worker import ChunkPayload

#: Seconds the supervisor blocks on the backend per loop iteration.
POLL_SECONDS = 0.02

#: ``on_failure`` policies for chunks that exhaust their retry budget.
ON_FAILURE_CHOICES = ("fail", "quarantine", "serial")


class ChunkFailedError(RuntimeError):
    """A chunk exhausted its retry budget under ``on_failure="fail"``."""

    def __init__(self, start: int, stop: int, failures: list[FailureEvent]) -> None:
        last = failures[-1] if failures else None
        detail = f": {last.error}" if last is not None and last.error else ""
        super().__init__(
            f"chunk [{start}:{stop}) failed after "
            f"{sum(1 for f in failures if (f.start, f.stop) == (start, stop))} "
            f"attempt(s){detail}"
        )
        self.start = start
        self.stop = stop
        self.failures = failures


@dataclass
class SupervisedExecution:
    """Everything one supervised dispatch produced."""

    payloads: list[ChunkPayload]
    failures: list[FailureEvent] = field(default_factory=list)
    quarantined: list[tuple[int, int]] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    respawns: int = 0
    attempts_by_chunk: dict[tuple[int, int], int] = field(default_factory=dict)


class ChunkSupervisor:
    """Dispatch chunks through an executor with bounded recovery.

    Parameters
    ----------
    executor:
        An opened :class:`~repro.runner.executors.Executor` to dispatch
        through (the engine owns its lifecycle).
    timeout:
        Per-chunk wall-clock budget in seconds, enforced only when the
        backend's ``capabilities.timeouts`` holds.  ``None`` disables.
    retries:
        Failed-chunk re-dispatch budget (per chunk).
    backoff:
        Delay policy between retries of the same chunk.
    on_failure:
        What to do with a chunk that exhausts its budget: ``"fail"``
        raises :class:`ChunkFailedError`, ``"quarantine"`` records the
        gap and continues, ``"serial"`` re-executes the chunk in the
        parent process.
    serial_fallback:
        Parent-side executor for the ``"serial"`` policy (and only
        then); maps ``(start, stop)`` to a :data:`ChunkPayload`.
    tracer:
        Optional tracer for retry/quarantine instants.
    on_chunk_done:
        Optional callback ``(start, stop, result)`` invoked as each
        chunk completes -- the checkpoint hook.
    events:
        Optional :class:`~repro.obs.events.EventLog` receiving the
        chunk-lifecycle narrative (dispatched/completed/retried/
        quarantined/failed/fallback-serial) as it happens.
    """

    def __init__(
        self,
        executor: Executor,
        timeout: float | None = None,
        retries: int = 0,
        backoff: BackoffPolicy | None = None,
        on_failure: str = "fail",
        serial_fallback: Callable[[int, int], ChunkPayload] | None = None,
        tracer: Tracer | None = None,
        on_chunk_done: Callable[[int, int, ExecutionResult], None] | None = None,
        events: EventLog | None = None,
    ) -> None:
        if on_failure not in ON_FAILURE_CHOICES:
            raise ValueError(
                f"on_failure must be one of {ON_FAILURE_CHOICES}, got {on_failure!r}"
            )
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive seconds")
        self.executor = executor
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff or BackoffPolicy()
        self.on_failure = on_failure
        self.serial_fallback = serial_fallback
        self.tracer = tracer
        self.on_chunk_done = on_chunk_done
        self.events = events
        self._seq = 0

    def _emit(self, name: str, level: str = "info", **kwargs) -> None:
        if self.events is not None:
            self.events.emit(name, level, **kwargs)

    # -- supervision loop ---------------------------------------------

    def run(
        self,
        bounds: list[tuple[int, int]],
        preloaded: dict[tuple[int, int], ChunkPayload] | None = None,
    ) -> SupervisedExecution:
        """Execute every chunk in ``bounds`` (minus ``preloaded`` ones)."""
        ordinals = {chunk: i for i, chunk in enumerate(bounds)}
        results: dict[tuple[int, int], ChunkPayload] = dict(preloaded or {})
        quarantined: set[tuple[int, int]] = set()
        attempts: dict[tuple[int, int], int] = {}
        out = SupervisedExecution(payloads=[])
        pending: deque[tuple[int, int]] = deque(
            chunk for chunk in bounds if chunk not in results
        )
        delayed: list[tuple[float, int, tuple[int, int]]] = []
        epoch = time.perf_counter()
        use_deadline = self.timeout is not None and self.executor.capabilities.timeouts

        while len(results) + len(quarantined) < len(bounds):
            now = time.perf_counter()
            while delayed and delayed[0][0] <= now:
                _, _, chunk = heappop(delayed)
                pending.append(chunk)
            while pending and self.executor.has_capacity():
                chunk = pending.popleft()
                if chunk in results or chunk in quarantined:
                    continue
                deadline = now + self.timeout if use_deadline else None
                self._emit(
                    ev.CHUNK_DISPATCHED, "debug", chunk=chunk,
                    attempt=attempts.get(chunk, 0),
                )
                self.executor.submit(
                    *chunk, ordinals[chunk], attempts.get(chunk, 0), deadline
                )
            for event in self.executor.collect(POLL_SECONDS):
                self._handle_event(
                    event, results, quarantined, attempts, delayed, epoch, out
                )

        out.payloads = [results[chunk] for chunk in bounds if chunk in results]
        out.quarantined = sorted(quarantined)
        out.respawns = self.executor.respawns
        out.attempts_by_chunk = {
            chunk: attempts.get(chunk, 0) + 1
            for chunk in bounds
            if chunk in results or chunk in quarantined
        }
        return out

    # -- event handling -----------------------------------------------

    def _handle_event(
        self,
        event: ChunkEvent,
        results: dict,
        quarantined: set,
        attempts: dict,
        delayed: list,
        epoch: float,
        out: SupervisedExecution,
    ) -> None:
        chunk = event.chunk
        if event.kind == "ok":
            if chunk not in results and chunk not in quarantined:
                results[chunk] = event.payload
                self._emit(
                    ev.CHUNK_COMPLETED, "info", chunk=chunk,
                    attempt=event.attempt, worker=event.worker,
                    pid=event.pid, tasks=chunk[1] - chunk[0],
                )
                if self.on_chunk_done is not None:
                    self.on_chunk_done(chunk[0], chunk[1], event.payload.result)
            return
        if chunk in results or chunk in quarantined:
            # a stale failure (e.g. a speculative copy's host was lost
            # after the primary already completed): nothing to recover
            return
        if event.kind == "timeout":
            out.timeouts += 1
        elif event.kind == "worker-died":
            out.worker_deaths += 1
        self._chunk_failed(
            event, results, quarantined, attempts, delayed, epoch, out
        )

    def _chunk_failed(
        self,
        event: ChunkEvent,
        results: dict,
        quarantined: set,
        attempts: dict,
        delayed: list,
        epoch: float,
        out: SupervisedExecution,
    ) -> None:
        """Record one failed attempt and decide retry vs poison."""
        chunk = event.chunk
        start, stop = chunk
        attempt = attempts.get(chunk, 0)
        attempts[chunk] = attempt + 1
        will_retry = attempt + 1 <= self.retries
        action = "retry" if will_retry else self.on_failure
        out.failures.append(
            FailureEvent(
                kind=event.kind,
                start=start,
                stop=stop,
                attempt=attempt,
                action=action,
                worker=event.worker,
                pid=event.pid,
                error=event.error,
                exitcode=event.exitcode,
                at_seconds=time.perf_counter() - epoch,
            )
        )
        if will_retry:
            out.retries += 1
            delay = self.backoff.delay(attempt + 1)
            self._seq += 1
            heappush(delayed, (time.perf_counter() + delay, self._seq, chunk))
            self._emit(
                ev.CHUNK_RETRIED, "warning", chunk=chunk, attempt=attempt + 1,
                worker=event.worker, pid=event.pid,
                kind=event.kind, error=event.error, delay=round(delay, 6),
            )
            if self.tracer is not None:
                self.tracer.instant(
                    "chunk.retry", cat="engine", start=start, stop=stop,
                    attempt=attempt + 1, kind=event.kind, delay=delay,
                )
            return
        # retry budget exhausted: the chunk is poisoned
        if self.on_failure == "fail":
            self._emit(
                ev.CHUNK_FAILED, "error", chunk=chunk, attempt=attempt,
                worker=event.worker, kind=event.kind, error=event.error,
            )
            raise ChunkFailedError(start, stop, out.failures)
        if self.on_failure == "serial" and self.serial_fallback is not None:
            self._emit(
                ev.FALLBACK_SERIAL, "warning", chunk=chunk, attempt=attempt,
                kind=event.kind, error=event.error,
            )
            if self.tracer is not None:
                self.tracer.instant(
                    "chunk.serial_fallback", cat="engine", start=start, stop=stop
                )
            payload = self.serial_fallback(start, stop)
            results[chunk] = payload
            if self.on_chunk_done is not None:
                self.on_chunk_done(start, stop, payload.result)
            return
        quarantined.add(chunk)
        self._emit(
            ev.CHUNK_QUARANTINED, "error", chunk=chunk, attempt=attempt,
            worker=event.worker, kind=event.kind, error=event.error,
        )
        if self.tracer is not None:
            self.tracer.instant(
                "chunk.quarantined", cat="engine", start=start, stop=stop,
                kind=event.kind,
            )
