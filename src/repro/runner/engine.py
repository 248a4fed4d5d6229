"""Multiprocess execution engine with dynamic chunk scheduling.

The paper's thread-scaling experiment (Fig. 7) runs every kernel's
independent tasks under OpenMP ``schedule(dynamic)``.  This engine is
that execution model made real for the reproduction: the task index
space ``[0, n)`` is cut into contiguous chunks, a pool of worker
processes pulls the next chunk the moment it goes idle (greedy list
scheduling -- exactly what ``schedule(dynamic)`` approximates and what
:func:`repro.perf.scaling.dynamic_makespan` simulates), and the shard
results are merged back in task order through
:meth:`Benchmark.merge_shards`, so parallel output is bit-identical to
the serial path.

Every task range runs through one function,
:func:`repro.runner.worker.execute_chunk`, driven by one supervised
dispatch loop over an :class:`~repro.runner.executors.Executor`.  With
the default backend at ``jobs=1``, and for any workload of at most one
task, the engine runs the whole workload in this process as one chunk
``[0, n)`` through :class:`~repro.runner.executors.SerialExecutor`:
no pool, no IPC, the workload passed by reference.  Pool workers get
the workload as a process argument -- inherited copy-on-write under
``fork``, pickled once per worker under ``spawn``.  Every run produces
a :class:`~repro.runner.record.RunRecord` with the chunk trace,
per-worker busy times and (optionally) the measured speedup over an
in-process serial execution of the same prepared workload.

Fault tolerance
---------------

Parallel dispatch goes through the supervised pool in
:mod:`repro.runner.supervisor`: per-chunk wall-clock ``timeout``,
bounded ``retries`` with exponential backoff
(:class:`~repro.runner.retry.BackoffPolicy`), dead-worker detection
and respawn, and an ``on_failure`` policy for chunks that exhaust
their budget (fail fast, quarantine with a structured gap report, or
re-execute serially in the parent).  When no worker pool can be
created, or every worker is lost, the engine *degrades* to the
in-process one-chunk run instead of failing, and marks the run record
accordingly.  With a cache attached, ``resume=True`` checkpoints every
completed chunk result so an interrupted run restarts only the
unfinished shards.
Deterministic chaos for all of these paths comes from
:class:`~repro.runner.faults.FaultPlan` injectors.

Observability
-------------

The engine is the root publisher of the :mod:`repro.obs` layer:

* With a :class:`~repro.obs.trace.Tracer` attached it emits nested
  spans for every phase (``engine.prepare`` with cache lookup/generate/
  store children, ``engine.serial_baseline``, ``engine.execute``,
  ``engine.merge``), one ``chunk[a:b)`` span per scheduled chunk on the
  owning worker's track, and a ``workers.active`` counter series.
  Every chunk records kernel adapters'
  :func:`~repro.obs.trace.kernel_span` regions into its own buffer and
  ships it back with the chunk result, where the engine merges it at
  the shard boundary.  The tracer keeps no copy of the run's
  narrative: exporting the trace with the run's event log draws each
  event (retries, quarantines, respawns, ...) as an instant marker.
* Every run fills a :class:`~repro.obs.metrics.MetricsRegistry`
  (prepare/execute seconds, cache hits, tasks and work per second,
  per-task-work and per-worker histograms).  In-process runs also
  collect the kernels' own counters and, with ``instrument=True``, the
  per-category dynamic op counts; the registry snapshot lands in the
  run record (schema v2).
* With ``profile=True`` a statistical sampling profiler
  (:mod:`repro.obs.profile`) runs around the ``prepare``, ``execute``
  and ``merge`` phases -- inside each worker process on the parallel
  path, with per-chunk profiles shipped back and merged at shard
  boundaries exactly like span buffers -- and the per-phase folded
  stacks plus a top-N hotspot table land in the schema-v4 record.
  The serial-baseline phase is deliberately *not* profiled so the
  measured speedup stays clean.
* With ``telemetry=True`` each worker samples its own ``/proc/self``
  CPU/RSS/context-switch series during chunk execution
  (:mod:`repro.obs.telemetry`); the engine merges series per worker,
  embeds them in the record and publishes ``telemetry.*`` gauges.

Tracing, profiling and telemetry are off by default and cost nothing
beyond a few ``None`` checks per chunk.
"""

from __future__ import annotations

import os
import platform
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.benchmark import (
    Benchmark,
    ExecutionResult,
    as_execution_result,
    load_benchmark,
)
from repro.core.datasets import DatasetSize, coerce_size
from repro.core.instrument import Instrumentation, OpCounts
from repro.obs import events as ev
from repro.obs.events import EventLog
from repro.obs.metrics import (
    ATTEMPT_BUCKETS,
    SECONDS_BUCKETS,
    WORK_BUCKETS,
    MetricsRegistry,
    activated_metrics,
)
from repro.obs.profile import (
    DEFAULT_TOP_N,
    SamplingProfiler,
    StackProfile,
    merge_profiles,
)
from repro.obs.telemetry import (
    TelemetrySeries,
    publish_telemetry,
    telemetry_payload,
)
from repro.obs.trace import Span, Tracer, activated
from repro.runner.cache import ShardCheckpoint, WorkloadCache
from repro.runner.config import RunConfig
from repro.runner.executors import Executor, SerialExecutor, make_executor
from repro.runner.record import ChunkTrace, RunRecord, WorkerStats
from repro.runner.supervisor import ChunkSupervisor, SupervisedExecution
from repro.runner.worker import ChunkPayload, WorkerState, execute_chunk

#: Chunks handed out per worker on average; OpenMP's dynamic default is
#: chunk=1, but per-chunk IPC in Python argues for coarser grains while
#: still leaving several steals per worker to absorb task-size skew.
CHUNKS_PER_WORKER = 8

#: Hard ceiling on worker oversubscription: ``jobs`` beyond this many
#: times the CPU count is clamped (with a warning).  Moderate
#: oversubscription is deliberate -- the measured Fig. 7 scaling curves
#: exist to show hardware sensitivity -- but unbounded ``jobs`` only
#: buys scheduler thrash and memory.
MAX_OVERSUBSCRIPTION = 8

#: Exceptions that mean "no worker pool can be created here"; the
#: engine degrades to in-process serial execution instead of failing.
POOL_UNAVAILABLE_ERRORS = (OSError, NotImplementedError, ImportError)


def default_chunk_size(n_tasks: int, jobs: int) -> int:
    """Chunk size leaving ~:data:`CHUNKS_PER_WORKER` pulls per worker."""
    if n_tasks <= 0:
        return 1
    return max(1, -(-n_tasks // (jobs * CHUNKS_PER_WORKER)))


@dataclass
class EngineRun:
    """An engine execution: the JSON-ready record plus live objects."""

    record: RunRecord
    output: Any
    result: ExecutionResult


@dataclass
class ObsCapture:
    """Profiling/telemetry merged from one execution's chunk payloads.

    ``profiles`` maps phase name to its sampled stacks; ``telemetry``
    maps worker index to that process's resource series; ``epoch`` is
    the absolute ``perf_counter`` reading telemetry timestamps are
    rebased against (the execute-phase start).
    """

    profiles: dict[str, StackProfile] = field(default_factory=dict)
    telemetry: dict[int, TelemetrySeries] = field(default_factory=dict)
    epoch: float = 0.0


class ParallelRunner:
    """Shards a kernel's tasks across worker processes.

    ``knobs`` are :class:`~repro.runner.config.RunConfig` fields (the
    worker count, backend, chunk grain, fault-tolerance policy and
    capture switches), checked there and kept as :attr:`config`.  The
    live objects stay parameters:

    cache:
        A :class:`WorkloadCache` (or ``None`` to always prepare).
    tracer:
        A :class:`~repro.obs.trace.Tracer` to record engine, chunk and
        kernel spans into (``None`` disables tracing).
    events:
        An :class:`~repro.obs.events.EventLog` to publish the run's
        structured event narrative into.  ``None`` (the default)
        creates a private in-memory log -- events are always captured
        and land in the run record; pass a shared log to watch them
        live (the ``run --live-port`` server does exactly that).
    """

    def __init__(
        self,
        *,
        cache: WorkloadCache | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
        **knobs: Any,
    ) -> None:
        self.config = RunConfig(**knobs)
        self.cache = cache
        self.tracer = tracer
        self.events = events if events is not None else EventLog()
        #: Phase profile captured by :meth:`prepare`, consumed by the
        #: next :meth:`execute` (one run at a time per runner).
        self._prepare_profile: StackProfile | None = None
        #: Seq of this run's ``run_started`` event, set by :meth:`run`
        #: so :meth:`execute` can slice the shared log per run.
        self._run_start_seq: int | None = None

    def _span(self, name: str, **args: Any):
        """An engine-phase span, or a no-op when tracing is off."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, cat="engine", **args)

    # -- workload acquisition -----------------------------------------

    def prepare(self, bench: Benchmark, size: DatasetSize) -> tuple[Any, float, bool]:
        """(workload, prepare_seconds, cache_hit) honoring the cache."""
        self._prepare_profile = None
        profiler = SamplingProfiler(self.config.profile_hz) if self.config.profile else None
        profiler_ctx = profiler if profiler is not None else nullcontext()
        tracer_ctx = activated(self.tracer) if self.tracer is not None else nullcontext()
        try:
            with tracer_ctx, profiler_ctx, self._span(
                "engine.prepare", kernel=bench.name, size=size.value
            ):
                if self.cache is not None:
                    t0 = time.perf_counter()
                    with self._span("engine.cache_lookup"):
                        workload = self.cache.load(bench.name, size)
                    if workload is not None:
                        return workload, time.perf_counter() - t0, True
                t0 = time.perf_counter()
                with self._span("engine.generate"):
                    workload = bench.prepare(size)
                prepare_seconds = time.perf_counter() - t0
                if self.cache is not None:
                    with self._span("engine.cache_store"):
                        self.cache.store(bench.name, size, workload)
            return workload, prepare_seconds, False
        finally:
            if profiler is not None:
                self._prepare_profile = profiler.profile

    # -- execution ----------------------------------------------------

    def run(self, kernel: str, size: DatasetSize | str = DatasetSize.SMALL) -> EngineRun:
        """Prepare (or load) the workload for ``kernel`` and execute it."""
        size = coerce_size(size)
        bench = load_benchmark(kernel)
        self._run_start_seq = self.events.next_seq
        self.events.set_run_id(ev.new_run_id())
        self.events.emit(
            ev.RUN_STARTED, kernel=kernel, size=size.value,
            jobs=self.config.jobs, executor=self.config.executor or "local",
        )
        self.events.emit(ev.PREPARE_STARTED, "debug", kernel=kernel)
        workload, prepare_seconds, cached = self.prepare(bench, size)
        self.events.emit(
            ev.PREPARE_FINISHED, "debug", kernel=kernel,
            seconds=round(prepare_seconds, 6), cached=cached,
        )
        return self.execute(
            bench, workload, size, prepare_seconds=prepare_seconds, prepare_cached=cached
        )

    def execute(
        self,
        bench: Benchmark,
        workload: Any,
        size: DatasetSize,
        prepare_seconds: float = 0.0,
        prepare_cached: bool = False,
    ) -> EngineRun:
        """Execute a prepared workload, sharded through the executor."""
        metrics = MetricsRegistry()
        n_tasks = bench.task_count(workload)
        if n_tasks is None:
            raise TypeError(
                f"benchmark {bench.name!r} does not shard its tasks; the engine "
                "runs kernels through task_count() and execute_shard()"
            )
        cfg = self.config
        jobs = self._effective_jobs()
        executor_name = cfg.executor or "local"
        start_seq = self._run_start_seq
        self._run_start_seq = None
        if start_seq is None:
            # execute() called directly (no run()): open the narrative
            # here so the log still has a well-formed run envelope
            start_seq = self.events.next_seq
            self.events.set_run_id(ev.new_run_id())
            self.events.emit(
                ev.RUN_STARTED, kernel=bench.name, size=size.value,
                jobs=cfg.jobs, executor=executor_name,
            )
        # the in-process fast path: workloads of at most one task always,
        # and the default backend at jobs=1 -- one chunk, no pool, no IPC
        in_process = n_tasks <= 1 or (executor_name == "local" and jobs == 1)
        if in_process:
            executor: Executor = SerialExecutor()
            slots = 1
            chunk_size = max(1, n_tasks)
        else:
            executor = make_executor(cfg.executor, jobs=jobs, hosts=cfg.hosts)
            slots = max(1, executor.parallelism)
            chunk_size = self._effective_chunk_size(n_tasks, slots)
        serial_seconds = None
        measure = cfg.measure_serial if cfg.measure_serial is not None else slots > 1
        if measure:
            with self._span("engine.serial_baseline", kernel=bench.name):
                t0 = time.perf_counter()
                as_execution_result(bench.execute(workload), bench.name)
                serial_seconds = time.perf_counter() - t0

        phase_profiles: dict[str, StackProfile] = {}
        if self._prepare_profile is not None and self._prepare_profile.samples:
            phase_profiles["prepare"] = self._prepare_profile
        self._prepare_profile = None

        self.events.emit(
            ev.EXECUTE_STARTED, kernel=bench.name, executor=executor.name,
            chunks=max(1, -(-n_tasks // chunk_size)), tasks=n_tasks,
            chunk_size=chunk_size, jobs=slots,
        )
        degraded = False
        hosts_seen: list[str] = []
        try:
            result, chunks, workers, elapsed, supervised, resumed_chunks, obs = (
                self._execute(
                    bench, workload, size, n_tasks, chunk_size, executor,
                    in_process, metrics,
                )
            )
        except POOL_UNAVAILABLE_ERRORS as exc:
            if in_process:
                raise
            # backend cannot start (or lost every worker): a complete
            # serial run beats no run at all -- degrade gracefully
            warnings.warn(
                f"{executor.name} executor unavailable "
                f"({type(exc).__name__}: {exc}); "
                "degrading to in-process serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            degraded = True
            slots = 1
            chunk_size = max(1, n_tasks)
            # the rerun's geometry: the live fold restarts progress here
            self.events.emit(
                ev.RUN_DEGRADED, "error", executor=executor.name,
                error=f"{type(exc).__name__}: {exc}",
                chunks=1, tasks=n_tasks, chunk_size=chunk_size,
            )
            result, chunks, workers, elapsed, supervised, resumed_chunks, obs = (
                self._execute(
                    bench, workload, size, n_tasks, chunk_size, SerialExecutor(),
                    True, metrics,
                )
            )
        else:
            hosts_seen = sorted({w.host for w in workers if w.host})
        phase_profiles.update(obs.profiles)
        if cfg.telemetry:
            publish_telemetry(metrics, obs.telemetry)
        profile_doc = self._profile_payload(phase_profiles)
        if profile_doc is not None:
            metrics.counter("profile.samples").inc(profile_doc["samples"])

        self._publish_metrics(
            metrics,
            result=result,
            workers=workers,
            chunks=chunks,
            prepare_seconds=prepare_seconds,
            prepare_cached=prepare_cached,
            execute_seconds=elapsed,
            serial_seconds=serial_seconds,
            jobs=slots,
            supervised=supervised,
            resumed_chunks=resumed_chunks,
            degraded=degraded,
        )
        self.events.emit(
            ev.RUN_FINISHED, kernel=bench.name,
            seconds=round(elapsed, 6), tasks=result.n_tasks,
            chunks=len(chunks), retries=supervised.retries,
            quarantined=len(supervised.quarantined), degraded=degraded,
        )
        record = RunRecord(
            kernel=bench.name,
            size=size.value,
            jobs=slots,
            chunk_size=chunk_size,
            n_tasks=result.n_tasks,
            total_work=result.total_work,
            task_work=list(result.task_work),
            prepare_seconds=prepare_seconds,
            prepare_cached=prepare_cached,
            execute_seconds=elapsed,
            serial_seconds=serial_seconds,
            task_meta=result.task_meta,
            chunks=chunks,
            workers=workers,
            metrics=metrics.as_dict(),
            host=platform.node() or None,
            created_unix=time.time(),
            failures=list(supervised.failures),
            retries=supervised.retries,
            quarantined=list(supervised.quarantined),
            resumed_chunks=resumed_chunks,
            degraded=degraded,
            executor=executor_name,
            hosts=hosts_seen,
            fault_tolerance=cfg.fault_tolerance(),
            profile=profile_doc,
            telemetry=(
                telemetry_payload(obs.telemetry, cfg.telemetry_interval, obs.epoch)
                if cfg.telemetry
                else None
            ),
            # this run's slice of the (possibly shared) event log, with
            # timestamps rebased to the execute-phase start (pre-execute
            # events land at negative t)
            events=self.events.as_dicts(since=start_seq - 1, epoch=obs.epoch),
        )
        return EngineRun(record=record, output=result.output, result=result)

    def _effective_jobs(self) -> int:
        """``jobs`` clamped against runaway oversubscription.

        Moderate oversubscription (up to :data:`MAX_OVERSUBSCRIPTION`
        per CPU) is allowed with a warning -- measured scaling curves
        rely on it -- but beyond that workers only thrash, so the
        request is clamped instead of silently over-provisioning.
        """
        cpus = os.cpu_count() or 1
        ceiling = cpus * MAX_OVERSUBSCRIPTION
        jobs = self.config.jobs
        if jobs > ceiling:
            warnings.warn(
                f"jobs={jobs} exceeds {MAX_OVERSUBSCRIPTION}x the "
                f"{cpus} available CPU(s); clamping to {ceiling}",
                RuntimeWarning,
                stacklevel=3,
            )
            return ceiling
        if jobs > cpus:
            warnings.warn(
                f"jobs={jobs} exceeds the {cpus} available CPU(s); "
                "workers will time-share cores",
                RuntimeWarning,
                stacklevel=3,
            )
        return jobs

    def _effective_chunk_size(self, n_tasks: int, jobs: int) -> int:
        """The configured (or default) chunk size, clamped to the workload."""
        chunk_size = self.config.chunk_size or default_chunk_size(n_tasks, jobs)
        if chunk_size > n_tasks:
            warnings.warn(
                f"chunk_size={chunk_size} exceeds the workload's "
                f"{n_tasks} task(s); clamping to {n_tasks}",
                RuntimeWarning,
                stacklevel=3,
            )
            chunk_size = n_tasks
        return chunk_size

    def _profile_payload(
        self, phases: dict[str, StackProfile]
    ) -> dict[str, Any] | None:
        """The ``RunRecord.profile`` document (``None`` with profiling off)."""
        if not self.config.profile:
            return None
        merged = merge_profiles(list(phases.values()), hz=self.config.profile_hz)
        return {
            "hz": self.config.profile_hz,
            "samples": merged.samples,
            "duration_seconds": merged.duration_seconds,
            "phases": {
                name: prof.as_dict()
                for name, prof in sorted(phases.items())
                if prof.samples
            },
            "hotspots": [h.as_dict() for h in merged.hotspots(DEFAULT_TOP_N)],
        }

    def _publish_metrics(
        self,
        metrics: MetricsRegistry,
        result: ExecutionResult,
        workers: list[WorkerStats],
        chunks: list[ChunkTrace],
        prepare_seconds: float,
        prepare_cached: bool,
        execute_seconds: float,
        serial_seconds: float | None,
        supervised: SupervisedExecution,
        jobs: int | None = None,
        resumed_chunks: int = 0,
        degraded: bool = False,
    ) -> None:
        """Fill the run's registry from what the engine measured."""
        jobs = jobs if jobs is not None else self.config.jobs
        metrics.counter("cache.hits").inc(1 if prepare_cached else 0)
        metrics.counter("cache.misses").inc(0 if prepare_cached else 1)
        metrics.gauge("cache.hit_ratio").set(1.0 if prepare_cached else 0.0)
        metrics.gauge("run.prepare_seconds").set(prepare_seconds)
        metrics.gauge("run.execute_seconds").set(execute_seconds)
        if serial_seconds is not None:
            metrics.gauge("run.serial_seconds").set(serial_seconds)
            if execute_seconds > 0:
                metrics.gauge("run.speedup_vs_serial").set(
                    serial_seconds / execute_seconds
                )
        metrics.counter("engine.tasks").inc(result.n_tasks)
        metrics.counter("engine.chunks").inc(len(chunks))
        metrics.counter("engine.workers").inc(len(workers))
        if execute_seconds > 0:
            metrics.gauge("run.tasks_per_second").set(result.n_tasks / execute_seconds)
            metrics.gauge("run.work_per_second").set(
                result.total_work / execute_seconds
            )
            busy = sum(w.busy_seconds for w in workers)
            if workers:
                metrics.gauge("run.scheduling_efficiency").set(
                    busy / (jobs * execute_seconds)
                )
        metrics.gauge("engine.degraded").set(1.0 if degraded else 0.0)
        metrics.counter("engine.resumed_chunks").inc(resumed_chunks)
        metrics.counter("engine.retries").inc(supervised.retries)
        metrics.counter("engine.timeouts").inc(supervised.timeouts)
        metrics.counter("engine.worker_deaths").inc(supervised.worker_deaths)
        metrics.counter("engine.respawns").inc(supervised.respawns)
        metrics.counter("engine.quarantined_chunks").inc(len(supervised.quarantined))
        attempts_hist = metrics.histogram("chunk.attempts", ATTEMPT_BUCKETS)
        for n_attempts in supervised.attempts_by_chunk.values():
            attempts_hist.observe(n_attempts)
        work_hist = metrics.histogram("task.work", WORK_BUCKETS)
        for work in result.task_work:
            work_hist.observe(work)
        tasks_hist = metrics.histogram(
            "worker.tasks", (1.0, 10.0, 100.0, 1_000.0, 10_000.0)
        )
        busy_hist = metrics.histogram("worker.busy_seconds", SECONDS_BUCKETS)
        for worker in workers:
            tasks_hist.observe(worker.tasks)
            busy_hist.observe(worker.busy_seconds)

    def _checkpoint_for(
        self, bench: Benchmark, size: DatasetSize, n_tasks: int, chunk_size: int
    ) -> ShardCheckpoint | None:
        if not self.config.resume or self.cache is None:
            return None
        return self.cache.checkpoint(bench.name, size, n_tasks, chunk_size)

    def _execute(
        self,
        bench: Benchmark,
        workload: Any,
        size: DatasetSize,
        n_tasks: int,
        chunk_size: int,
        executor: Executor,
        in_process: bool,
        metrics: MetricsRegistry,
    ) -> tuple[
        ExecutionResult,
        list[ChunkTrace],
        list[WorkerStats],
        float,
        SupervisedExecution,
        int,
        ObsCapture,
    ]:
        """Run every chunk through ``executor`` and merge the results.

        ``in_process`` marks the runs the engine chose to keep in this
        process (the fast path and the degrade path): one chunk, no
        injected faults, no checkpoint, and kernel counters and op
        counts published into the run's registry.
        """
        cfg = self.config
        if in_process:
            bounds = [(0, n_tasks)]  # one chunk, even of zero tasks
        else:
            bounds = [
                (lo, min(lo + chunk_size, n_tasks))
                for lo in range(0, n_tasks, chunk_size)
            ]
        instr = (
            Instrumentation(counts=OpCounts())
            if cfg.instrument and in_process
            else None
        )
        state = WorkerState(
            bench=bench,
            workload=workload,
            trace_enabled=self.tracer is not None,
            fault_plan=None if in_process else cfg.fault_plan or None,
            profile_hz=cfg.profile_hz if cfg.profile else None,
            telemetry_interval=cfg.telemetry_interval if cfg.telemetry else None,
            instr=instr,
        )
        checkpoint = (
            None if in_process
            else self._checkpoint_for(bench, size, n_tasks, chunk_size)
        )
        preloaded: dict[tuple[int, int], ChunkPayload] = {}
        if checkpoint is not None:
            wanted = set(bounds)
            pid = os.getpid()
            for chunk, result in checkpoint.load_all().items():
                if chunk in wanted:
                    # zero-width placeholder timings: the work happened
                    # in an earlier, interrupted run
                    preloaded[chunk] = ChunkPayload(
                        *chunk, result=result, pid=pid, begin=0.0, end=0.0
                    )
            if preloaded:
                self.events.emit(ev.RUN_RESUMED, chunks=len(preloaded))
                for chunk in sorted(preloaded):
                    # checkpointed shards count as completed in the live
                    # status fold without ever being dispatched
                    self.events.emit(
                        ev.CHUNK_COMPLETED, "debug", chunk=chunk,
                        tasks=chunk[1] - chunk[0], resumed=True,
                    )
        resumed_chunks = len(preloaded)

        # the on_failure="serial" fallback runs in this process, unfaulted
        fallback_state = replace(state, fault_plan=None)
        supervisor = ChunkSupervisor(
            executor,
            cfg,
            serial_fallback=lambda start, stop: execute_chunk(
                fallback_state, start, stop, 0, 0
            ),
            on_chunk_done=checkpoint.store if checkpoint is not None else None,
            events=self.events,
        )
        # kernel counters land in this run's registry only when the
        # kernels run in this thread; pool and remote workers keep theirs
        metrics_ctx = activated_metrics(metrics) if in_process else nullcontext()
        t0 = time.perf_counter()
        try:
            # open() raising OSError (no pool, no reachable host) rides
            # the same degrade path as a supervisor-detected total loss
            executor.open(state, self.events)
            with metrics_ctx, self._span(
                "engine.execute",
                kernel=bench.name,
                executor=executor.name,
                jobs=executor.parallelism,
                chunks=len(bounds),
            ):
                supervised = supervisor.run(bounds, preloaded)
        finally:
            executor.shutdown()
        elapsed = time.perf_counter() - t0
        if instr is not None:
            metrics.publish_op_counts(instr.counts)

        payloads = sorted(supervised.payloads, key=lambda p: p.start)
        # worker identity is (host, pid): pids are only unique per host
        keys: dict[tuple[str | None, int], int] = {}
        chunks: list[ChunkTrace] = []
        per_worker: dict[int, WorkerStats] = {}
        obs = ObsCapture(epoch=t0)
        execute_profile = StackProfile(hz=cfg.profile_hz)
        for p in payloads:
            worker = keys.setdefault((p.host, p.pid), len(keys))
            chunks.append(
                ChunkTrace(
                    worker=worker,
                    start=p.start,
                    stop=p.stop,
                    begin=max(0.0, p.begin - t0),
                    end=max(0.0, p.end - t0),
                )
            )
            stats = per_worker.setdefault(
                worker,
                WorkerStats(
                    worker=worker, pid=p.pid, chunks=0, tasks=0,
                    busy_seconds=0.0, host=p.host,
                ),
            )
            stats.chunks += 1
            stats.tasks += p.stop - p.start
            stats.busy_seconds += p.end - p.begin
            # per-worker profiles and telemetry merge at the shard
            # boundary, the same model as the span buffers below
            if p.profile is not None:
                execute_profile.merge(p.profile)
            if p.telemetry is not None:
                if worker in obs.telemetry:
                    obs.telemetry[worker].extend(p.telemetry)
                else:
                    obs.telemetry[worker] = p.telemetry
            if self.tracer is not None:
                # merge the worker's span buffer at the shard boundary,
                # and give the chunk itself a span on the worker's track
                if p.spans:
                    self.tracer.extend(p.spans)
                self.tracer.add_span(
                    Span(
                        name=f"chunk[{p.start}:{p.stop})",
                        cat="chunk",
                        begin=p.begin,
                        end=p.end,
                        pid=p.pid,
                        tid=0,
                        args={"worker": worker, "tasks": p.stop - p.start},
                    )
                )
        if self.tracer is not None and not in_process:
            # name the worker tracks and chart their activity; an
            # in-process run's one chunk sits on the coordinator's track
            for (host, pid), worker in keys.items():
                label = f"worker {worker}" + (f" @ {host}" if host else "")
                self.tracer.name_track(pid, 0, label)
            self._emit_worker_counter(payloads)
        merge_profiler = SamplingProfiler(cfg.profile_hz) if cfg.profile else None
        merge_ctx = merge_profiler if merge_profiler is not None else nullcontext()
        with merge_ctx, self._span(
            "engine.merge", kernel=bench.name, shards=len(payloads)
        ):
            if payloads:
                result = bench.merge_shards([p.result for p in payloads])
            else:
                # every chunk quarantined: an empty result with the gap
                # report in the record beats crashing a reducer on []
                result = ExecutionResult.empty()
        if execute_profile.samples:
            obs.profiles["execute"] = execute_profile
        if merge_profiler is not None and merge_profiler.profile.samples:
            obs.profiles["merge"] = merge_profiler.profile
        workers = [per_worker[w] for w in sorted(per_worker)]
        if checkpoint is not None and not supervised.quarantined:
            checkpoint.clear()
        return result, chunks, workers, elapsed, supervised, resumed_chunks, obs

    def _emit_worker_counter(self, payloads: list[ChunkPayload]) -> None:
        """``workers.active`` counter series from the chunk timings."""
        assert self.tracer is not None
        boundaries: list[tuple[float, int]] = []
        for p in payloads:
            if p.end <= p.begin:
                continue  # resumed placeholder, no live execution window
            boundaries.append((p.begin, +1))
            boundaries.append((p.end, -1))
        active = 0
        pid = os.getpid()
        for ts, delta in sorted(boundaries):
            active += delta
            self.tracer.counter("workers.active", active, ts=ts, pid=pid)
