"""Benchmark protocol and adapter factory.

Every kernel subpackage ships a ``benchmark`` module with one class
implementing :class:`Benchmark`.  The adapter knows how to

* generate the kernel's synthetic workload at a registered
  :class:`~repro.core.datasets.DatasetSize`,
* split that workload into its independent data-parallel tasks and run
  any contiguous shard of them (optionally instrumented), and
* report per-task work in the kernel's natural unit (cell updates,
  Occ-table lookups, ...) for the parallelism characterization.

The characterization harness in :mod:`repro.perf`, the parallel
execution engine in :mod:`repro.runner` and the table/figure benchmarks
drive kernels exclusively through this protocol.

Execution contract
------------------

:meth:`Benchmark.execute` returns an :class:`ExecutionResult` -- the
kernel's real output, the per-task work list, and optional per-task
metadata.  Adapters implement the task-sharding pair

* :meth:`Benchmark.task_count` -- how many independent tasks the
  prepared workload contains, and
* :meth:`Benchmark.execute_shard` -- run a subset of those tasks,
  identified by index, returning an :class:`ExecutionResult` for just
  that shard;

the default :meth:`Benchmark.execute` runs the single shard covering
every task and merges it through :meth:`Benchmark.merge_shards`, so the
serial path and the sharded path are the *same code*.  Kernels whose
output is not a per-task list (grm's accumulated matrix, kmer-cnt's
shared hash table) override :meth:`merge_shards` with an
order-preserving reduction so parallel and serial results stay
bit-identical.

Adapters must return an :class:`ExecutionResult`; the one-release
``(output, task_work)`` tuple compatibility window has closed, and
:func:`as_execution_result` now rejects tuples with a :class:`TypeError`.
"""

from __future__ import annotations

import abc
import importlib
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.datasets import DatasetSize
from repro.core.instrument import Instrumentation
from repro.core.registry import get_kernel


@dataclass
class ExecutionResult:
    """Outcome of executing a kernel (or one shard of its tasks).

    ``output`` is the kernel's real result (alignments, counts, graphs,
    consensus sequences, ...); for shardable kernels it is a list
    parallel to ``task_work`` unless the adapter documents otherwise.
    ``task_work`` holds the data-parallel work of each task in the
    kernel's natural unit -- the quantity Fig. 4 plots.  ``task_meta``
    optionally carries one small, JSON-serializable dict per task
    (seed counts, band widths, region coordinates, ...).
    """

    output: Any
    task_work: list[int]
    task_meta: list[dict[str, Any]] | None = None

    @property
    def n_tasks(self) -> int:
        """Number of independent data-parallel tasks executed."""
        return len(self.task_work)

    @property
    def total_work(self) -> int:
        """Total data-parallel work across all tasks."""
        return sum(self.task_work)

    @classmethod
    def empty(cls) -> "ExecutionResult":
        """The zero-task result -- what merging no shards produces.

        The fault-tolerant engine returns this when *every* chunk of a
        run was quarantined; the run record's failure report, not an
        exception from a reducer handed an empty list, tells the story.
        """
        return cls(output=[], task_work=[])


def as_execution_result(value: Any, kernel: str = "<unknown>") -> ExecutionResult:
    """Validate an ``execute``/``execute_shard`` return as :class:`ExecutionResult`.

    The legacy ``(output, task_work)`` tuple contract was retired after
    its one-release deprecation window; anything that is not an
    :class:`ExecutionResult` -- tuples included -- is rejected loudly so
    stale adapters fail at the call site rather than deep in the engine.
    """
    if isinstance(value, ExecutionResult):
        return value
    raise TypeError(
        f"benchmark {kernel!r} returned {type(value).__name__}; expected an "
        "ExecutionResult (the legacy (output, task_work) tuple contract "
        "was removed)"
    )


@dataclass
class RunResult:
    """Outcome of one end-to-end benchmark run (prepare + execute).

    ``output`` is the kernel's real result, kept so tests can assert
    correctness of the benchmarked path.  ``task_work`` holds the
    data-parallel work of each task in the kernel's natural unit.
    """

    kernel: str
    size: DatasetSize
    output: Any
    task_work: list[int]
    wall_seconds: float
    instr: Instrumentation | None = None
    task_meta: list[dict[str, Any]] | None = None
    prepare_seconds: float = 0.0
    prepare_cached: bool = False
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def n_tasks(self) -> int:
        """Number of independent data-parallel tasks executed."""
        return len(self.task_work)

    @property
    def total_work(self) -> int:
        """Total data-parallel work across all tasks."""
        return sum(self.task_work)


class Benchmark(abc.ABC):
    """Uniform driver interface over one GenomicsBench kernel."""

    #: Registry name of the kernel this adapter drives (e.g. ``"fmi"``).
    name: str

    @abc.abstractmethod
    def prepare(self, size: DatasetSize) -> Any:
        """Generate (deterministically) the synthetic workload for ``size``."""

    # -- task sharding --------------------------------------------------

    def task_count(self, workload: Any) -> int | None:
        """Number of independent tasks in ``workload``.

        ``None`` means the adapter does not expose task sharding; the
        engine rejects such an adapter with a :class:`TypeError`.
        """
        return None

    def execute_shard(
        self,
        workload: Any,
        indices: Sequence[int],
        instr: Instrumentation | None = None,
    ) -> ExecutionResult:
        """Run the tasks named by ``indices`` (ascending, in-range).

        Shards must be independent: running ``[0..k)`` and ``[k..n)``
        separately and merging through :meth:`merge_shards` must equal
        running ``[0..n)`` in one call.
        """
        raise NotImplementedError(
            f"benchmark {self.name!r} does not implement task sharding"
        )

    def merge_shards(self, shards: Sequence[ExecutionResult]) -> ExecutionResult:
        """Combine shard results (already in ascending task order).

        The default concatenates per-task output lists, work lists and
        metadata.  Kernels with an aggregate output (a summed matrix, a
        shared counting table) override this with an order-preserving
        reduction so parallel output is bit-identical to serial.

        Shards need not be contiguous: under the engine's
        ``on_failure="quarantine"`` policy the quarantined chunks are
        simply absent, and the merged result covers the completed task
        ranges only (the run record carries the gap report).
        """
        if not shards:
            return ExecutionResult.empty()
        output: list[Any] = []
        task_work: list[int] = []
        metas: list[dict[str, Any]] = []
        have_meta = any(s.task_meta is not None for s in shards)
        for shard in shards:
            output.extend(shard.output)
            task_work.extend(shard.task_work)
            if have_meta:
                metas.extend(shard.task_meta or [{} for _ in shard.task_work])
        return ExecutionResult(
            output=output,
            task_work=task_work,
            task_meta=metas if have_meta else None,
        )

    # -- execution ------------------------------------------------------

    def execute(
        self, workload: Any, instr: Instrumentation | None = None
    ) -> ExecutionResult:
        """Run the kernel over the whole ``workload`` serially.

        The default implementation executes the single shard covering
        every task, so serial runs exercise exactly the code path the
        parallel engine shards.  Adapters without task sharding override
        this directly.
        """
        n = self.task_count(workload)
        if n is None:
            raise NotImplementedError(
                f"benchmark {self.name!r} must implement either execute() or "
                "the task_count()/execute_shard() pair"
            )
        shard = as_execution_result(
            self.execute_shard(workload, range(n), instr=instr), self.name
        )
        return self.merge_shards([shard])

    def run(self, size: DatasetSize | str, instr: Instrumentation | None = None) -> RunResult:
        """Prepare the workload and execute it, timing the kernel only."""
        if isinstance(size, str):
            size = DatasetSize(size)
        t0 = time.perf_counter()
        workload = self.prepare(size)
        prepare_seconds = time.perf_counter() - t0
        start = time.perf_counter()
        result = as_execution_result(self.execute(workload, instr=instr), self.name)
        elapsed = time.perf_counter() - start
        return RunResult(
            kernel=self.name,
            size=size,
            output=result.output,
            task_work=result.task_work,
            wall_seconds=elapsed,
            instr=instr,
            task_meta=result.task_meta,
            prepare_seconds=prepare_seconds,
        )


def load_benchmark(name: str) -> Benchmark:
    """Instantiate the adapter for kernel ``name``.

    Adapters live at ``<kernel package>.benchmark`` and are looked up via
    the kernel registry, so adding a kernel means registering it once and
    dropping a ``benchmark`` module in its package.
    """
    info = get_kernel(name)
    module = importlib.import_module(f"{info.package}.benchmark")
    for attr in vars(module).values():
        if (
            isinstance(attr, type)
            and issubclass(attr, Benchmark)
            and attr is not Benchmark
            and getattr(attr, "name", None) == name
        ):
            return attr()
    raise ImportError(
        f"{info.package}.benchmark defines no Benchmark subclass named {name!r}"
    )
