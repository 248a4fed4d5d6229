"""Thread-scaling simulation (paper Fig. 7).

The paper measures OpenMP dynamic scheduling on an 8-thread Xeon.  With
tasks and their measured costs in hand, the same experiment is a
discrete-event simulation: tasks are handed to the next free worker in
order (OpenMP ``schedule(dynamic)``), giving the makespan; a
bandwidth-contention term then stretches memory-bound execution when
the threads' combined DRAM demand exceeds the machine's, which is what
flattens kmer-cnt in the paper while compute-bound kernels scale
linearly.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.benchmark import load_benchmark
from repro.core.datasets import DatasetSize
from repro.perf.characterize import run_instrumented

#: BPKI at which one thread saturates the machine's *random-access*
#: DRAM bandwidth.  Expressed on *our* BPKI scale (which runs ~5-7x the
#: paper's absolute values, see EXPERIMENTS.md): kmer-cnt sits at ~0.7
#: of saturation, matching the paper's "close to peak random-access
#: bandwidth", while fmi's latency-bound stream leaves headroom.
SATURATION_BPKI = 3500.0

#: Kernels plotted in Fig. 7 (the multithreaded irregular CPU set).
SCALING_KERNELS = (
    "fmi",
    "bsw",
    "dbg",
    "phmm",
    "chain",
    "poa",
    "kmer-cnt",
    "pileup",
)


def dynamic_makespan(task_costs: list[float], n_threads: int) -> float:
    """Makespan of OpenMP-style dynamic scheduling.

    Tasks are dispatched in order to whichever worker frees up first --
    the greedy list-scheduling that ``schedule(dynamic)`` approximates.
    """
    if n_threads < 1:
        raise ValueError("need at least one thread")
    if not task_costs:
        return 0.0
    workers = [0.0] * min(n_threads, len(task_costs))
    heapq.heapify(workers)
    for cost in task_costs:
        free_at = heapq.heappop(workers)
        heapq.heappush(workers, free_at + cost)
    return max(workers)


@dataclass
class ScalingCurve:
    """Simulated speedups of one kernel for 1..max_threads threads."""

    kernel: str
    threads: list[int]
    speedups: list[float]
    bandwidth_fraction: float  # one thread's share of random-access BW

    def speedup_at(self, t: int) -> float:
        return self.speedups[self.threads.index(t)]


def scaling_curve(
    kernel: str,
    max_threads: int = 8,
    size: DatasetSize = DatasetSize.SMALL,
) -> ScalingCurve:
    """Simulate the Fig. 7 scaling curve for one kernel.

    Task costs are the measured per-task work units; the bandwidth
    fraction comes from the kernel's simulated BPKI.
    """
    run = run_instrumented(kernel, size, trace=True)
    assert run.memstats is not None
    bw_fraction = min(1.0, run.memstats.bpki() / SATURATION_BPKI)
    # Task costs come from the large dataset: the paper's task counts
    # are in the thousands-to-millions, so makespan imbalance at 8
    # threads reflects task-size variance, not a tiny task count.
    big = load_benchmark(kernel).run(DatasetSize.LARGE)
    costs = [float(w) for w in big.task_work]
    serial = sum(costs)
    threads = list(range(1, max_threads + 1))
    speedups = []
    for t in threads:
        makespan = dynamic_makespan(costs, t)
        contention = max(1.0, t * bw_fraction)
        speedups.append(serial / (makespan * contention))
    return ScalingCurve(
        kernel=kernel,
        threads=threads,
        speedups=speedups,
        bandwidth_fraction=bw_fraction,
    )


def figure7(
    max_threads: int = 8, size: DatasetSize = DatasetSize.SMALL
) -> list[ScalingCurve]:
    """Fig. 7 data: scaling curves for the multithreaded CPU kernels."""
    return [scaling_curve(name, max_threads, size) for name in SCALING_KERNELS]


def measured_scaling_curve(
    kernel: str,
    threads: Sequence[int] = (1, 2, 4, 8),
    size: DatasetSize = DatasetSize.SMALL,
) -> ScalingCurve:
    """*Measured* scaling curve via the multiprocess execution engine.

    Where :func:`scaling_curve` simulates OpenMP dynamic scheduling from
    task inventories, this prepares the workload once and actually runs
    it under :class:`repro.runner.ParallelRunner` at each worker count;
    speedups are wall-clock ratios against the in-process serial path.
    Real speedup is bounded by the machine's core count (on a single
    -core host every multiprocess point pays IPC overhead for nothing),
    which is precisely the hardware sensitivity Fig. 7 exists to show.
    """
    from repro.runner.engine import ParallelRunner

    bench = load_benchmark(kernel)
    workload = bench.prepare(size)
    serial = ParallelRunner(jobs=1).execute(bench, workload, size)
    speedups = []
    for t in threads:
        if t == 1:
            speedups.append(1.0)
            continue
        run = ParallelRunner(jobs=t).execute(bench, workload, size)
        speedups.append(serial.record.execute_seconds / run.record.execute_seconds)
    return ScalingCurve(
        kernel=kernel,
        threads=list(threads),
        speedups=speedups,
        bandwidth_fraction=0.0,
    )


@dataclass
class ScalingComparison:
    """Simulated and measured Fig. 7 curves for one kernel, side by side."""

    kernel: str
    simulated: ScalingCurve
    measured: ScalingCurve


def figure7_comparison(
    kernels: Sequence[str] = SCALING_KERNELS,
    threads: Sequence[int] = (1, 2, 4, 8),
    size: DatasetSize = DatasetSize.SMALL,
) -> list[ScalingComparison]:
    """Measured-vs-simulated Fig. 7: one comparison per kernel."""
    out = []
    for name in kernels:
        out.append(
            ScalingComparison(
                kernel=name,
                simulated=scaling_curve(name, max(threads), size),
                measured=measured_scaling_curve(name, threads, size),
            )
        )
    return out
