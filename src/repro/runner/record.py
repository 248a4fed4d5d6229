"""Structured, JSON-serializable records of engine runs.

Every ``genomicsbench run`` invocation produces one :class:`RunRecord`
per kernel.  The record is the machine-readable execution contract of
the suite: per-task work, the dynamic-scheduling chunk trace, per-worker
busy times, cache provenance of the workload, the serialized metrics
registry of the run, and the measured speedup over the serial path.
``--format json`` emits exactly this structure, and downstream tooling
(the ``bench`` regression tracker, scaling plots) consumes it through
:func:`RunRecord.from_json` -- so the schema carries an explicit
version and only grows, never mutates.

The chunk trace, the per-worker stats, the failure report and the
retry, quarantine, resume, degrade and host fields of an engine run
are one fold of that run's event log (:func:`fold_run`), so a record
agrees with its own ``events`` by construction.

Schema history
--------------

* ``genomicsbench.run/1`` -- the original engine record.
* ``genomicsbench.run/2`` -- adds ``metrics`` (the serialized
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot), ``host`` and
  ``created_unix`` (provenance for the per-host bench history).
* ``genomicsbench.run/3`` -- adds the fault-tolerance report:
  ``failures`` (one :class:`FailureEvent` per failed chunk attempt),
  ``retries`` (total successful-or-not re-dispatches), ``quarantined``
  (task ranges abandoned after the retry budget), ``resumed_chunks``
  (chunks restored from a checkpoint instead of executed), ``degraded``
  (the run fell back to in-process serial execution because no worker
  pool could be created) and ``fault_tolerance`` (the engine's
  timeout/retry/on-failure configuration for the run).
* ``genomicsbench.run/4`` -- adds the profiling substrate: ``profile``
  (per-phase folded stacks from the sampling profiler plus the
  merged top-N ``hotspots`` table, see :mod:`repro.obs.profile`) and
  ``telemetry`` (per-worker CPU/RSS/context-switch series and
  peak/mean summaries, see :mod:`repro.obs.telemetry`).  Both are
  ``None`` unless the run enabled ``--profile`` / ``--telemetry``.
  Later additions to v4 (additions are free): ``executor`` (the
  backend that dispatched chunks), ``hosts`` (remote worker endpoints
  that contributed results) and a per-worker ``host`` label on
  :class:`WorkerStats` -- a distributed run merges into *one* record
  with every chunk, span and telemetry series attributable to the
  machine that produced it.
* ``genomicsbench.run/5`` -- adds ``events``: the run's append-only
  structured event log (see :mod:`repro.obs.events`) as a list of
  JSON event dicts in ``seq`` order, timestamps relative to the
  execute-phase start (pre-execute events carry negative ``t``).
  Remote workers' events arrive clock-rebased onto the coordinator's
  timeline, so one list narrates a whole distributed run.
  Later additions to v5 (additions are free): ``sweep`` -- provenance
  of the sweep cell that produced this record (``sweep_id``,
  ``cell_id`` and the cell's engine ``config``, see
  :mod:`repro.sweep`); ``None`` for standalone runs.

:func:`RunRecord.from_dict` accepts all five; older documents load
with the newer fields at their empty defaults and are upgraded in
memory, so re-serializing an old record yields a valid v5 document.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable

from repro.core.serialize import json_default  # noqa: F401  (re-exported)
from repro.core.serialize import dumps
from repro.obs import events as ev

#: Schema identifier embedded in every serialized record.  Bump the
#: trailing version only for incompatible changes; additions are free.
SCHEMA = "genomicsbench.run/5"

#: Previous schema versions, still accepted by :func:`RunRecord.from_dict`.
SCHEMA_V4 = "genomicsbench.run/4"
SCHEMA_V3 = "genomicsbench.run/3"
SCHEMA_V2 = "genomicsbench.run/2"
SCHEMA_V1 = "genomicsbench.run/1"


@dataclass
class ChunkTrace:
    """One dynamically scheduled chunk of tasks, as a worker ran it.

    ``start``/``stop`` delimit the half-open task-index range; ``begin``
    and ``end`` are wall-clock offsets (seconds) from the moment the
    engine started dispatching, comparable across workers.  A chunk
    restored from a ``run --resume`` checkpoint ran in an earlier run:
    its ``worker`` is ``None`` and it lands zero-width at 0.0.
    """

    worker: int | None
    start: int
    stop: int
    begin: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.begin


@dataclass
class WorkerStats:
    """Aggregate view of one worker process.

    ``host`` is ``None`` for workers on the coordinator machine;
    distributed runs label each worker with its daemon endpoint
    (``"host:port"``), so pids stay unambiguous across machines.
    """

    worker: int
    pid: int
    chunks: int
    tasks: int
    busy_seconds: float
    host: str | None = None


@dataclass
class FailureEvent:
    """One failed attempt of one chunk, as the supervisor saw it.

    ``kind`` is the detection path: ``"exception"`` (the worker
    reported a raised error), ``"timeout"`` (the per-chunk deadline
    elapsed and the worker was terminated) or ``"worker-died"`` (the
    worker process exited without reporting).  ``attempt`` is 0-based;
    ``action`` records what the supervisor did next (``"retry"``,
    ``"quarantine"``, ``"serial"`` or ``"fail"``).  ``at_seconds`` is
    the offset from the execute-phase start, the chunk trace's clock.
    """

    kind: str
    start: int
    stop: int
    attempt: int
    action: str
    #: Pool worker index, or the remote host label for distributed runs.
    worker: int | str | None = None
    pid: int | None = None
    error: str | None = None
    exitcode: int | None = None
    at_seconds: float | None = None


#: The failure events, each folded into one :class:`FailureEvent` with
#: this ``action``.
FAILURE_ACTIONS = {
    ev.CHUNK_RETRIED: "retry",
    ev.CHUNK_QUARANTINED: "quarantine",
    ev.FALLBACK_SERIAL: "serial",
    ev.CHUNK_FAILED: "fail",
}


def fold_run(events: Iterable[ev.Event], epoch: float) -> dict[str, Any]:
    """The :class:`RunRecord` fields one run's slice of its event log
    determines; ``epoch`` is the execute-phase start (``perf_counter``).

    Each failure event (:data:`FAILURE_ACTIONS`) is one
    :class:`FailureEvent`; ``chunk_retried`` names the *next* attempt.
    Each merged chunk has one ``chunk_completed``, stamped at the merged
    copy's end with its ``pid``, ``host`` and busy ``seconds``; workers
    are numbered by the first appearance of their ``(host, pid)`` in
    chunk-start order.  A chunk restored from a checkpoint (``resumed``)
    was executed by no process of this run: it counts in ``chunks`` and
    ``resumed_chunks`` with ``worker`` ``None`` and no
    :class:`WorkerStats`, zero-width at 0.0.  Failures
    count across the slice; chunks, workers, gaps and resumed chunks
    restart at a ``run_degraded``, whose one-chunk rerun replaces them.
    """
    failures: list[FailureEvent] = []
    merged: list[ev.Event] = []
    quarantined: list[tuple[int, int]] = []
    degraded = False
    for e in events:
        action = FAILURE_ACTIONS.get(e.name)
        if action is not None:
            failures.append(
                FailureEvent(
                    kind=e.data["kind"],
                    start=e.chunk[0],
                    stop=e.chunk[1],
                    attempt=e.attempt - 1 if action == "retry" else e.attempt,
                    action=action,
                    worker=e.worker,
                    pid=e.pid,
                    error=e.data.get("error"),
                    exitcode=e.data.get("exitcode"),
                    at_seconds=e.ts - epoch,
                )
            )
            if action == "quarantine":
                quarantined.append(e.chunk)
        elif e.name == ev.CHUNK_COMPLETED:
            merged.append(e)
        elif e.name == ev.RUN_DEGRADED:
            degraded = True
            merged, quarantined = [], []
    chunks: list[ChunkTrace] = []
    workers: dict[tuple[str | None, int | None], WorkerStats] = {}
    for e in sorted(merged, key=lambda e: e.chunk):
        (start, stop), seconds = e.chunk, e.data["seconds"]
        if e.data.get("resumed"):
            chunks.append(ChunkTrace(None, start, stop, 0.0, 0.0))
            continue
        stats = workers.get((e.host, e.pid))
        if stats is None:
            stats = workers[(e.host, e.pid)] = WorkerStats(
                worker=len(workers), pid=e.pid, chunks=0, tasks=0, busy_seconds=0.0, host=e.host
            )
        end = max(0.0, e.ts - epoch)
        begin = max(0.0, end - seconds)
        chunks.append(ChunkTrace(stats.worker, start, stop, begin, end))
        stats.chunks += 1
        stats.tasks += stop - start
        stats.busy_seconds += seconds
    return {
        "chunks": chunks,
        "workers": list(workers.values()),
        "failures": failures,
        "retries": sum(f.action == "retry" for f in failures),
        "quarantined": sorted(quarantined),
        "resumed_chunks": sum(c.worker is None for c in chunks),
        "degraded": degraded,
        "hosts": sorted({w.host for w in workers.values() if w.host}),
    }


@dataclass
class RunRecord:
    """Everything one engine run measured, ready for JSON."""

    kernel: str
    size: str
    jobs: int
    chunk_size: int
    n_tasks: int
    total_work: int
    task_work: list[int]
    prepare_seconds: float
    prepare_cached: bool
    execute_seconds: float
    serial_seconds: float | None = None
    task_meta: list[dict[str, Any]] | None = None
    chunks: list[ChunkTrace] = field(default_factory=list)
    workers: list[WorkerStats] = field(default_factory=list)
    metrics: dict[str, Any] | None = None
    host: str | None = None
    created_unix: float | None = None
    failures: list[FailureEvent] = field(default_factory=list)
    retries: int = 0
    quarantined: list[tuple[int, int]] = field(default_factory=list)
    resumed_chunks: int = 0
    degraded: bool = False
    executor: str | None = None
    hosts: list[str] = field(default_factory=list)
    fault_tolerance: dict[str, Any] | None = None
    profile: dict[str, Any] | None = None
    telemetry: dict[str, Any] | None = None
    events: list[dict[str, Any]] = field(default_factory=list)
    sweep: dict[str, Any] | None = None
    schema: str = SCHEMA

    @property
    def speedup_vs_serial(self) -> float | None:
        """Measured parallel speedup (``None`` without a serial baseline)."""
        if self.serial_seconds is None or self.execute_seconds <= 0:
            return None
        return self.serial_seconds / self.execute_seconds

    @property
    def scheduling_efficiency(self) -> float | None:
        """Busy time across workers divided by ``jobs * makespan``.

        1.0 means no worker ever idled -- the quantity OpenMP dynamic
        scheduling maximizes and Fig. 7's imbalance degrades.
        """
        if not self.workers or self.jobs <= 0 or self.execute_seconds <= 0:
            return None
        busy = sum(w.busy_seconds for w in self.workers)
        return busy / (self.jobs * self.execute_seconds)

    @property
    def quarantined_tasks(self) -> int:
        """How many tasks were abandoned to quarantined chunks."""
        return sum(stop - start for start, stop in self.quarantined)

    @property
    def complete(self) -> bool:
        """True when no task range was quarantined (full output)."""
        return not self.quarantined

    @property
    def peak_rss_bytes(self) -> float | None:
        """Peak worker RSS from telemetry (``None`` when not sampled)."""
        if self.telemetry and self.telemetry.get("peak_rss_bytes"):
            return float(self.telemetry["peak_rss_bytes"])
        gauges = (self.metrics or {}).get("gauges") or {}
        value = gauges.get("telemetry.peak_rss_bytes")
        return float(value) if value is not None else None

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form with derived metrics materialized."""
        d = asdict(self)
        d["speedup_vs_serial"] = self.speedup_vs_serial
        d["scheduling_efficiency"] = self.scheduling_efficiency
        d["quarantined_tasks"] = self.quarantined_tasks
        d["complete"] = self.complete
        return d

    def to_json(self, indent: int | None = 2) -> str:
        return dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunRecord":
        schema = d.get("schema", SCHEMA)
        if schema not in (SCHEMA, SCHEMA_V4, SCHEMA_V3, SCHEMA_V2, SCHEMA_V1):
            raise ValueError(f"unsupported run-record schema {schema!r}")
        return cls(
            kernel=d["kernel"],
            size=d["size"],
            jobs=d["jobs"],
            chunk_size=d["chunk_size"],
            n_tasks=d["n_tasks"],
            total_work=d["total_work"],
            task_work=list(d["task_work"]),
            prepare_seconds=d["prepare_seconds"],
            prepare_cached=d["prepare_cached"],
            execute_seconds=d["execute_seconds"],
            serial_seconds=d.get("serial_seconds"),
            task_meta=d.get("task_meta"),
            chunks=[ChunkTrace(**c) for c in d.get("chunks", [])],
            workers=[WorkerStats(**w) for w in d.get("workers", [])],
            metrics=d.get("metrics"),
            host=d.get("host"),
            created_unix=d.get("created_unix"),
            failures=[FailureEvent(**f) for f in d.get("failures", [])],
            retries=d.get("retries", 0),
            quarantined=[tuple(q) for q in d.get("quarantined", [])],
            resumed_chunks=d.get("resumed_chunks", 0),
            degraded=d.get("degraded", False),
            executor=d.get("executor"),
            hosts=list(d.get("hosts", [])),
            fault_tolerance=d.get("fault_tolerance"),
            profile=d.get("profile"),
            telemetry=d.get("telemetry"),
            events=list(d.get("events", [])),
            sweep=d.get("sweep"),
            # older documents upgrade in memory: the loaded object
            # carries every newer field (empty defaults), so it
            # re-serializes as the current schema.
            schema=SCHEMA,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls.from_dict(json.loads(text))
