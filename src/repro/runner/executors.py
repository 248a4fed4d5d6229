"""Pluggable execution backends for the engine's chunk dispatch.

The engine used to bake ``multiprocessing`` into its dispatch loop;
this module makes the backend a value instead.  An :class:`Executor`
owns *where* chunks run -- the supervision policy (retries, backoff,
quarantine, checkpointing) stays in
:class:`~repro.runner.supervisor.ChunkSupervisor`, which drives any
backend through the same four calls:

* :meth:`Executor.open` -- install the run's
  :class:`~repro.runner.worker.WorkerState` and the event log the
  backend narrates its own lifecycle into;
* :meth:`Executor.submit` -- dispatch one chunk attempt;
* :meth:`Executor.collect` -- poll for :class:`ChunkEvent` completions
  and failures, including backend self-healing (deadline kills, dead
  worker respawn, lost-host detection);
* :meth:`Executor.shutdown` -- release workers/connections.

Backends declare what they can enforce through
:class:`ExecutorCapabilities`: whether per-chunk wall-clock deadlines
are honored (``timeouts``), whether a misbehaving worker can be killed
(``kill``), and whether chunks leave the coordinator machine
(``remote``).  The supervisor consults the flags instead of assuming --
a serial backend cannot interrupt a hung chunk, a TCP backend cannot
terminate a remote process, and both still plug into the same retry and
quarantine machinery.  Chunk payloads come back through
:meth:`Executor.collect` untouched apart from a remote backend's clock
rebase; the supervisor merges their worker-side events into the run's
log.

Backends register by name so the choice is data, not code: ``run
--executor local|serial|distributed`` on the CLI and
``repro.api.run(..., executor=...)`` in the library resolve through
:func:`get` / :func:`available`.  Third-party backends call
:func:`register` with their own subclass.
"""

from __future__ import annotations

import abc
import importlib
import multiprocessing
import os
import queue as queue_mod
import time
from dataclasses import dataclass, replace
from typing import Any, ClassVar

from repro.obs import events as ev
from repro.obs.events import EventLog
from repro.runner.faults import FaultPlan, InjectedFault
from repro.runner.worker import ChunkPayload, WorkerState, execute_chunk, worker_main

#: Grace period for joins during shutdown/termination, seconds.
JOIN_SECONDS = 1.0


@dataclass(frozen=True)
class ExecutorCapabilities:
    """What an execution backend can enforce, as data.

    ``timeouts`` -- per-chunk wall-clock deadlines are honored (the
    backend abandons or kills overrunning work and reports a
    ``"timeout"`` event).  ``kill`` -- a misbehaving worker process can
    be terminated outright.  ``remote`` -- chunks execute off the
    coordinator machine, so payloads carry host provenance and clocks
    need rebasing.
    """

    timeouts: bool = False
    kill: bool = False
    remote: bool = False

    def as_dict(self) -> dict[str, bool]:
        return {"timeouts": self.timeouts, "kill": self.kill, "remote": self.remote}


@dataclass
class ChunkEvent:
    """One thing a backend observed: a completed or failed chunk attempt.

    ``kind`` is ``"ok"`` (with ``payload``) or a failure detection path
    the supervisor folds into its retry machinery: ``"exception"``,
    ``"timeout"`` or ``"worker-died"`` (which covers lost distributed
    hosts too).
    """

    kind: str
    chunk: tuple[int, int]
    attempt: int = 0
    payload: ChunkPayload | None = None
    worker: int | str | None = None
    pid: int | None = None
    exitcode: int | None = None
    error: str | None = None


class Executor(abc.ABC):
    """One execution backend the supervisor can dispatch chunks through."""

    #: Registry name of the backend.
    name: ClassVar[str] = "abstract"
    #: What this backend can enforce.
    capabilities: ClassVar[ExecutorCapabilities] = ExecutorCapabilities()

    @classmethod
    def from_options(
        cls,
        *,
        jobs: int = 1,
        hosts: list[str] | None = None,
        **_: Any,
    ) -> "Executor":
        """Build an instance from the engine's normalized run options."""
        return cls()

    @property
    def parallelism(self) -> int:
        """Chunks this backend can usefully run at once (chunk sizing)."""
        return 1

    @abc.abstractmethod
    def open(self, state: WorkerState, events: EventLog | None = None) -> None:
        """Install the run's state; raise ``OSError`` if the backend
        cannot start at all (the engine then degrades to in-process
        serial).  ``events`` receives the backend's own lifecycle
        events (spawns, deaths, lost hosts)."""

    @abc.abstractmethod
    def has_capacity(self) -> bool:
        """True when :meth:`submit` would not queue behind running work."""

    @abc.abstractmethod
    def submit(
        self, start: int, stop: int, ordinal: int, attempt: int,
        deadline: float | None = None,
    ) -> None:
        """Dispatch one chunk attempt (``deadline`` is an absolute
        ``perf_counter`` reading; only honored when
        ``capabilities.timeouts``)."""

    @abc.abstractmethod
    def collect(self, timeout: float) -> list[ChunkEvent]:
        """Events since the last call, blocking up to ``timeout`` seconds
        for the first one.  Includes the backend's self-healing pass."""

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Release every worker/connection; idempotent."""

    @classmethod
    def describe(cls) -> dict[str, Any]:
        """Introspection document for the registry CLI."""
        doc = (cls.__doc__ or "").strip().splitlines()
        return {
            "name": cls.name,
            "capabilities": cls.capabilities.as_dict(),
            "summary": doc[0] if doc else "",
        }


# -- registry ---------------------------------------------------------

#: Name -> Executor subclass, or ``"module:attr"`` for lazy entries.
_REGISTRY: dict[str, "type[Executor] | str"] = {}


def register(cls: type[Executor], name: str | None = None) -> type[Executor]:
    """Register an executor class under its ``name`` (usable as a decorator)."""
    _REGISTRY[name or cls.name] = cls
    return cls


def register_lazy(name: str, target: str) -> None:
    """Register ``"module:attr"`` to import only when first requested."""
    _REGISTRY[name] = target


def names() -> list[str]:
    """Registered backend names, without resolving lazy entries."""
    return sorted(_REGISTRY)


def get(name: str) -> type[Executor]:
    """The executor class registered under ``name`` (with a helpful error)."""
    try:
        entry = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; available executors: {', '.join(names())}"
        ) from None
    if isinstance(entry, str):
        module, _, attr = entry.partition(":")
        entry = getattr(importlib.import_module(module), attr)
        _REGISTRY[name] = entry
    return entry


def available() -> dict[str, type[Executor]]:
    """Every registered backend, lazy entries resolved."""
    return {name: get(name) for name in names()}


def make_executor(
    spec: "str | Executor | None",
    *,
    jobs: int = 1,
    hosts: list[str] | None = None,
) -> Executor:
    """Resolve an executor choice (name, instance or ``None`` = local)."""
    if isinstance(spec, Executor):
        return spec
    cls = get(spec or "local")
    return cls.from_options(jobs=jobs, hosts=hosts)


# -- serial backend ---------------------------------------------------

@register
class SerialExecutor(Executor):
    """Chunked execution in the coordinator process, one chunk at a time.

    The same supervision machinery (retries, backoff, quarantine,
    checkpoints) over plain in-process calls to
    :func:`~repro.runner.worker.execute_chunk`: no pool, no IPC, the
    workload passed by reference, chunks executing synchronously inside
    :meth:`submit`.  The engine's ``jobs=1`` fast path and its degrade
    path are this backend over one chunk ``[0, n)``.  Because nothing can
    interrupt the coordinator's own frame, ``timeouts``/``kill`` are off
    -- and injected ``hang``/``kill`` faults are translated into raised
    :class:`~repro.runner.faults.InjectedFault` so chaos plans stay
    runnable without hanging or killing the parent.
    """

    name: ClassVar[str] = "serial"
    capabilities: ClassVar[ExecutorCapabilities] = ExecutorCapabilities(
        timeouts=False, kill=False, remote=False
    )

    def __init__(self) -> None:
        self._state: WorkerState | None = None
        self._fault_plan: FaultPlan | None = None
        self._events: list[ChunkEvent] = []

    def open(self, state: WorkerState, events: EventLog | None = None) -> None:
        # faults fire translated in submit(), never inside the chunk
        self._fault_plan = state.fault_plan
        self._state = (
            state if state.fault_plan is None else replace(state, fault_plan=None)
        )

    def has_capacity(self) -> bool:
        return True

    def submit(
        self, start: int, stop: int, ordinal: int, attempt: int,
        deadline: float | None = None,
    ) -> None:
        assert self._state is not None, "executor not opened"
        chunk = (start, stop)
        try:
            self._fire_translated(self._fault_plan, ordinal, attempt)
            payload = execute_chunk(self._state, start, stop, ordinal, attempt)
        except Exception as exc:  # noqa: BLE001 - reported as a chunk event
            self._events.append(
                ChunkEvent(
                    kind="exception", chunk=chunk, attempt=attempt,
                    worker=0, pid=os.getpid(),
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            return
        self._events.append(
            ChunkEvent(
                kind="ok", chunk=chunk, attempt=attempt, payload=payload,
                worker=0, pid=payload.pid,
            )
        )

    @staticmethod
    def _fire_translated(plan: FaultPlan | None, ordinal: int, attempt: int) -> None:
        """Injected faults, with hang/kill downgraded to raises.

        A hang would stall the whole run (nothing supervises this
        frame) and a kill would take the coordinator down with it, so
        both surface as exceptions -- the retry path still exercises.
        """
        if plan is None:
            return
        spec = plan.match(ordinal, attempt)
        if spec is None:
            return
        raise InjectedFault(
            f"injected {spec.kind} at chunk {ordinal} attempt {attempt}"
            + ("" if spec.kind == "raise" else " (translated to raise by serial executor)")
        )

    def collect(self, timeout: float) -> list[ChunkEvent]:
        events, self._events = self._events, []
        if not events and timeout > 0:
            # nothing in flight can complete asynchronously; yield only
            # when the supervisor is draining retry backoff delays
            time.sleep(min(timeout, 0.005))
        return events

    def shutdown(self) -> None:
        self._state = None
        self._events = []


# -- local multiprocess backend ---------------------------------------

@dataclass
class _PoolWorker:
    """Parent-side handle on one supervised pool process."""

    worker_id: int
    process: Any
    inbox: Any
    current: tuple[int, int] | None = None  # chunk bounds in flight
    attempt: int = 0
    deadline: float | None = None

    @property
    def idle(self) -> bool:
        return self.current is None

    def assign(
        self, start: int, stop: int, ordinal: int, attempt: int, deadline: float | None
    ) -> None:
        self.current = (start, stop)
        self.attempt = attempt
        self.deadline = deadline
        self.inbox.put((start, stop, ordinal, attempt))

    def release(self) -> None:
        self.current = None
        self.attempt = 0
        self.deadline = None


@register
class LocalExecutor(Executor):
    """Supervised multiprocess pool on the coordinator machine (default).

    Dedicated worker processes the parent fully controls: each owns an
    inbox queue and shares one outbox, exactly one chunk is in flight
    per worker (so a silent death or deadline overrun is attributable),
    workers are forked after the workload is prepared so they inherit
    it copy-on-write (spawn platforms ship the state once per worker),
    and dead or hung workers are terminated and respawned.
    """

    name: ClassVar[str] = "local"
    capabilities: ClassVar[ExecutorCapabilities] = ExecutorCapabilities(
        timeouts=True, kill=True, remote=False
    )

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self._ctx: Any = None
        self._outbox: Any = None
        self._workers: dict[int, _PoolWorker] = {}
        self._next_worker_id = 0
        self._state: WorkerState | None = None
        self._events: EventLog | None = None

    @classmethod
    def from_options(cls, *, jobs: int = 1, **_: Any) -> "LocalExecutor":
        return cls(jobs=jobs)

    @property
    def parallelism(self) -> int:
        return self.jobs

    # -- lifecycle ----------------------------------------------------

    def open(self, state: WorkerState, events: EventLog | None = None) -> None:
        self._events = events
        use_fork = "fork" in multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if use_fork else "spawn")
        self._state = state
        self._outbox = self._ctx.Queue()
        self._workers = {}

    def _spawn(self) -> _PoolWorker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        inbox = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            # a fork child inherits its arguments unpickled, so the
            # workload stays copy-on-write; spawn pickles it once here
            args=(worker_id, inbox, self._outbox, self._state),
            daemon=True,
        )
        process.start()
        worker = _PoolWorker(worker_id=worker_id, process=process, inbox=inbox)
        self._workers[worker_id] = worker
        if self._events is not None:
            self._events.emit(
                ev.WORKER_SPAWNED, "debug", worker=worker_id, pid=process.pid
            )
        return worker

    def _terminate(self, worker: _PoolWorker) -> None:
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(JOIN_SECONDS)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(JOIN_SECONDS)

    def shutdown(self) -> None:
        for worker in self._workers.values():
            if worker.process.is_alive():
                try:
                    worker.inbox.put(None)
                except (OSError, ValueError):
                    pass
        for worker in self._workers.values():
            worker.process.join(JOIN_SECONDS)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(JOIN_SECONDS)
        for worker in self._workers.values():
            worker.inbox.close()
        self._workers = {}
        if self._outbox is not None:
            self._outbox.close()
            self._outbox = None
        self._state = None

    # -- dispatch -----------------------------------------------------

    def _idle_worker(self) -> _PoolWorker | None:
        for worker in self._workers.values():
            if worker.idle and worker.process.is_alive():
                return worker
        return None

    def has_capacity(self) -> bool:
        return self._idle_worker() is not None or len(self._workers) < self.jobs

    def submit(
        self, start: int, stop: int, ordinal: int, attempt: int,
        deadline: float | None = None,
    ) -> None:
        worker = self._idle_worker()
        if worker is None:
            worker = self._spawn()
        worker.assign(start, stop, ordinal, attempt, deadline)

    def collect(self, timeout: float) -> list[ChunkEvent]:
        events: list[ChunkEvent] = []
        try:
            msg = self._outbox.get(timeout=timeout)
        except queue_mod.Empty:
            msg = None
        while msg is not None:
            events.append(self._event_from(msg))
            try:
                msg = self._outbox.get_nowait()
            except queue_mod.Empty:
                msg = None
        events.extend(self._heal())
        return events

    def _event_from(self, msg: tuple) -> ChunkEvent:
        if msg[0] == "ok":
            _, worker_id, payload = msg
            chunk = (payload.start, payload.stop)
            worker = self._workers.get(worker_id)
            attempt = worker.attempt if worker is not None else 0
            if worker is not None and worker.current == chunk:
                worker.release()
            return ChunkEvent(
                kind="ok", chunk=chunk, attempt=attempt, payload=payload,
                worker=worker_id, pid=payload.pid,
            )
        _, worker_id, start, stop, attempt, error = msg
        worker = self._workers.get(worker_id)
        pid = worker.process.pid if worker is not None else None
        if worker is not None and worker.current == (start, stop):
            worker.release()
        return ChunkEvent(
            kind="exception", chunk=(start, stop), attempt=attempt,
            worker=worker_id, pid=pid, error=error,
        )

    def _heal(self) -> list[ChunkEvent]:
        """Deadline and liveness pass: kill overruns, respawn the dead."""
        events: list[ChunkEvent] = []
        now = time.perf_counter()
        for worker_id in list(self._workers):
            worker = self._workers[worker_id]
            alive = worker.process.is_alive()
            if alive and worker.current is None:
                continue
            if not alive:
                chunk = worker.current
                exitcode = worker.process.exitcode
                if self._events is not None:
                    self._events.emit(
                        ev.WORKER_DIED, "error", chunk=chunk, worker=worker_id,
                        pid=worker.process.pid, attempt=worker.attempt,
                        exitcode=exitcode,
                    )
                if chunk is not None:
                    events.append(
                        ChunkEvent(
                            kind="worker-died", chunk=chunk, attempt=worker.attempt,
                            worker=worker_id, pid=worker.process.pid,
                            exitcode=exitcode,
                            error=f"worker exited with code {exitcode}",
                        )
                    )
                self._respawn(worker_id, exited=worker_id, exitcode=exitcode)
            elif worker.deadline is not None and now > worker.deadline:
                chunk = worker.current
                self._terminate(worker)
                self._respawn(worker_id, exited=worker_id, reason="timeout")
                if chunk is not None:
                    events.append(
                        ChunkEvent(
                            kind="timeout", chunk=chunk, attempt=worker.attempt,
                            worker=worker_id, pid=worker.process.pid,
                            error="chunk exceeded its wall-clock budget",
                        )
                    )
        return events

    def _respawn(self, worker_id: int, **data: Any) -> None:
        del self._workers[worker_id]
        replacement = self._spawn()
        if self._events is not None:
            self._events.emit(
                ev.WORKER_RESPAWNED, "warning", worker=replacement.worker_id,
                pid=replacement.process.pid, replaced=worker_id, **data,
            )


register_lazy("distributed", "repro.runner.distributed:DistributedExecutor")
