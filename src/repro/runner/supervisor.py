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
* every failed attempt is narrated by one failure event
  (``chunk_retried``, ``chunk_quarantined``, ``fallback_serial`` or
  ``chunk_failed``) and every merged chunk by one ``chunk_completed``,
  each carrying what the run record needs:
  :func:`~repro.runner.record.fold_run` turns them into the record's
  failure report and chunk trace, so the supervisor keeps no tally of
  its own beyond the state that drives dispatch;
* the supervisor is the one place worker-side events enter the run's
  :class:`~repro.obs.events.EventLog`: it absorbs the buffer of every
  landed payload -- stale speculative copies and the serial fallback's
  included -- as it collects them, so the live plane sees chunk
  progress on every backend.

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
from typing import Any, Callable

from repro.core.benchmark import ExecutionResult
from repro.obs import events as ev
from repro.obs.events import EventLog
from repro.runner.config import RunConfig
from repro.runner.executors import ChunkEvent, Executor
from repro.runner.record import FailureEvent, fold_run
from repro.runner.retry import BackoffPolicy
from repro.runner.worker import ChunkPayload

#: Seconds the supervisor blocks on the backend per loop iteration.
POLL_SECONDS = 0.02


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


class ChunkSupervisor:
    """Dispatch chunks through an executor with bounded recovery.

    Parameters
    ----------
    executor:
        An opened :class:`~repro.runner.executors.Executor` to dispatch
        through (the engine owns its lifecycle).
    config:
        The run's :class:`~repro.runner.config.RunConfig` (default: no
        timeout, no retries, fail fast).  The supervisor reads its
        ``timeout`` (enforced only when the backend's
        ``capabilities.timeouts`` holds), its per-chunk ``retries``
        budget and its ``on_failure`` policy.  Retries of one chunk are
        spaced by the default :class:`~repro.runner.retry.BackoffPolicy`.
    serial_fallback:
        Parent-side executor for the ``"serial"`` policy (and only
        then); maps ``(start, stop)`` to a :data:`ChunkPayload`.
    on_chunk_done:
        Optional callback ``(start, stop, result)`` invoked as each
        chunk completes -- the checkpoint hook.
    events:
        The :class:`~repro.obs.events.EventLog` receiving the
        chunk-lifecycle narrative (dispatched/completed/retried/
        quarantined/failed/fallback-serial) and every landed payload's
        worker-side events as they happen; ``None`` creates a private
        log.
    """

    def __init__(
        self,
        executor: Executor,
        config: RunConfig | None = None,
        serial_fallback: Callable[[int, int], ChunkPayload] | None = None,
        on_chunk_done: Callable[[int, int, ExecutionResult], None] | None = None,
        events: EventLog | None = None,
    ) -> None:
        self.executor = executor
        self.config = config or RunConfig()
        self.backoff = BackoffPolicy()
        self.serial_fallback = serial_fallback
        self.on_chunk_done = on_chunk_done
        self.events = events if events is not None else EventLog()
        self._seq = 0
        #: Seq before this dispatch's first event, and its start time.
        self._since = -1
        self._epoch = 0.0

    def _failures(self) -> list[FailureEvent]:
        """This dispatch's failed attempts, folded from its own events."""
        return fold_run(self.events.tail(self._since), self._epoch)["failures"]

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
        pending: deque[tuple[int, int]] = deque(
            chunk for chunk in bounds if chunk not in results
        )
        delayed: list[tuple[float, int, tuple[int, int]]] = []
        self._since = self.events.next_seq - 1
        self._epoch = time.perf_counter()
        use_deadline = self.config.timeout is not None and self.executor.capabilities.timeouts

        while len(results) + len(quarantined) < len(bounds):
            now = time.perf_counter()
            while delayed and delayed[0][0] <= now:
                _, _, chunk = heappop(delayed)
                pending.append(chunk)
            while pending and self.executor.has_capacity():
                chunk = pending.popleft()
                if chunk in results or chunk in quarantined:
                    continue
                deadline = now + self.config.timeout if use_deadline else None
                self.events.emit(
                    ev.CHUNK_DISPATCHED, "debug", chunk=chunk, attempt=attempts.get(chunk, 0)
                )
                self.executor.submit(
                    *chunk, ordinals[chunk], attempts.get(chunk, 0), deadline
                )
            for event in self.executor.collect(POLL_SECONDS):
                self._handle_event(event, results, quarantined, attempts, delayed)

        return SupervisedExecution(
            payloads=[results[chunk] for chunk in bounds if chunk in results],
            failures=self._failures(),
            quarantined=sorted(quarantined),
        )

    # -- event handling -----------------------------------------------

    def _handle_event(
        self,
        event: ChunkEvent,
        results: dict,
        quarantined: set,
        attempts: dict,
        delayed: list,
    ) -> None:
        chunk = event.chunk
        if event.kind == "ok":
            self.events.absorb(event.payload.events, worker=event.worker, host=event.payload.host)
            if chunk not in results and chunk not in quarantined:
                self._merge(results, event)
            return
        if chunk in results or chunk in quarantined:
            # a stale failure (e.g. a speculative copy's host was lost
            # after the primary already completed): nothing to recover
            return
        self._chunk_failed(event, results, quarantined, attempts, delayed)

    def _merge(self, results: dict, event: ChunkEvent) -> None:
        """Accept the attempt's payload as its chunk's result, narrated by
        the one ``chunk_completed`` the record's chunk trace is folded from."""
        payload = event.payload
        results[event.chunk] = payload
        self.events.emit(
            ev.CHUNK_COMPLETED,
            "info",
            chunk=event.chunk,
            attempt=event.attempt,
            worker=event.worker,
            host=payload.host,
            pid=payload.pid,
            ts=payload.end,
            tasks=payload.stop - payload.start,
            seconds=round(payload.end - payload.begin, 6),
        )
        if self.on_chunk_done is not None:
            self.on_chunk_done(payload.start, payload.stop, payload.result)

    def _chunk_failed(
        self,
        event: ChunkEvent,
        results: dict,
        quarantined: set,
        attempts: dict,
        delayed: list,
    ) -> None:
        """Narrate one failed attempt and decide retry vs poison."""
        chunk = event.chunk
        attempt = attempts.get(chunk, 0)
        attempts[chunk] = attempt + 1
        if attempt < self.config.retries:
            delay = self.backoff.delay(attempt + 1)
            self._seq += 1
            heappush(delayed, (time.perf_counter() + delay, self._seq, chunk))
            self._narrate(ev.CHUNK_RETRIED, "warning", event, attempt + 1, delay=round(delay, 6))
            return
        # retry budget exhausted: the chunk is poisoned
        if self.config.on_failure == "fail":
            self._narrate(ev.CHUNK_FAILED, "error", event, attempt)
            raise ChunkFailedError(*chunk, self._failures())
        if self.config.on_failure == "serial" and self.serial_fallback is not None:
            self._narrate(ev.FALLBACK_SERIAL, "warning", event, attempt)
            payload = self.serial_fallback(*chunk)
            # runs in this process: no backend worker slot to attribute
            self.events.absorb(payload.events)
            self._merge(results, ChunkEvent("ok", chunk, payload=payload))
            return
        quarantined.add(chunk)
        self._narrate(ev.CHUNK_QUARANTINED, "error", event, attempt)

    def _narrate(self, name: str, level: str, event: ChunkEvent, attempt: int, **data: Any) -> None:
        """One failure event, carrying what its :class:`FailureEvent` needs
        (``pid`` stays unknown when the backend could not tell it)."""
        self.events.emit(
            name,
            level,
            chunk=event.chunk,
            attempt=attempt,
            worker=event.worker,
            pid=event.pid,
            kind=event.kind,
            error=event.error,
            exitcode=event.exitcode,
            **data,
        )
