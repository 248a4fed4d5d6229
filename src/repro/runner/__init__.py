"""Parallel execution engine for the benchmark suite.

``repro.runner`` turns the task inventories every kernel adapter
exposes (:meth:`Benchmark.task_count` / :meth:`Benchmark.execute_shard`)
into real multiprocess execution with OpenMP-style dynamic chunk
scheduling, an on-disk workload cache, structured JSON run records --
and production-grade fault tolerance:

* :class:`ParallelRunner` -- the engine (per-chunk timeouts, bounded
  retries with backoff, dead-worker respawn, quarantine/serial
  policies, resume from checkpoints, graceful degradation to serial
  execution); prefer the :mod:`repro.api` facade for one-call runs
* :class:`Executor` and the executor registry (:func:`register` /
  :func:`get_executor` / :func:`available_executors`) -- pluggable
  dispatch backends: :class:`LocalExecutor` (supervised multiprocess
  pool, the default), :class:`SerialExecutor` (supervised in-process),
  and :class:`DistributedExecutor` (multi-host TCP coordinator for
  ``repro worker`` daemons, see :mod:`repro.runner.distributed`)
* :class:`WorkloadCache` -- ``(kernel, size, seed)``-keyed prepare
  cache; :class:`ShardCheckpoint` -- per-chunk partial results for
  ``--resume``
* :class:`RunRecord` -- schema-versioned machine-readable results,
  including the structured failure report (:class:`FailureEvent`)
* :class:`FaultPlan` -- deterministic fault injection (raise/hang/kill
  at chosen chunks) for chaos testing every recovery path
* :class:`BackoffPolicy` -- the retry delay schedule
"""

from repro.runner.cache import (
    ShardCheckpoint,
    WorkloadCache,
    cache_key,
    config_digest,
    default_cache_dir,
)
from repro.runner.engine import (
    MAX_OVERSUBSCRIPTION,
    EngineRun,
    ParallelRunner,
    default_chunk_size,
)
from repro.runner.executors import (
    ChunkEvent,
    ExecutionContext,
    Executor,
    ExecutorCapabilities,
    LocalExecutor,
    SerialExecutor,
    available as available_executors,
    get as get_executor,
    make_executor,
    register,
    register_lazy,
)
from repro.runner.faults import FaultPlan, FaultSpec, InjectedFault
from repro.runner.record import (
    SCHEMA,
    SCHEMA_V1,
    SCHEMA_V2,
    ChunkTrace,
    FailureEvent,
    RunRecord,
    WorkerStats,
)
from repro.runner.retry import BackoffPolicy
from repro.runner.supervisor import (
    ON_FAILURE_CHOICES,
    ChunkFailedError,
    ChunkSupervisor,
)

__all__ = [
    "MAX_OVERSUBSCRIPTION",
    "ON_FAILURE_CHOICES",
    "SCHEMA",
    "SCHEMA_V1",
    "SCHEMA_V2",
    "BackoffPolicy",
    "ChunkEvent",
    "ChunkFailedError",
    "ChunkSupervisor",
    "ChunkTrace",
    "DistributedExecutor",
    "EngineRun",
    "ExecutionContext",
    "Executor",
    "ExecutorCapabilities",
    "FailureEvent",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "LocalExecutor",
    "ParallelRunner",
    "RunRecord",
    "SerialExecutor",
    "ShardCheckpoint",
    "WorkerStats",
    "WorkloadCache",
    "available_executors",
    "cache_key",
    "config_digest",
    "default_cache_dir",
    "default_chunk_size",
    "get_executor",
    "make_executor",
    "register",
    "register_lazy",
]


def __getattr__(name: str):
    # DistributedExecutor stays lazily imported (it is heavier and only
    # needed for multi-host runs), mirroring the registry's lazy entry.
    if name == "DistributedExecutor":
        from repro.runner.distributed import DistributedExecutor

        return DistributedExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
