"""Concurrent runs in one process must not see each other's state.

``repro serve --workers N`` executes several jobs at once in one
process.  Each test runs two engines side by side in threads, holds
both at a barrier once their state is installed, and checks that each
run still gets back its own output, counters and spans.
"""

import threading

from repro.core.benchmark import Benchmark, ExecutionResult
from repro.core.datasets import DatasetSize
from repro.obs import events as ev
from repro.obs.events import EventLog
from repro.obs.metrics import current_metrics, kernel_counter
from repro.obs.trace import Tracer, current_tracer, kernel_span
from repro.runner import ParallelRunner

BASES = {"a": 100, "b": 200}


class OffsetBench(Benchmark):
    """Task ``i`` returns workload value ``i``: distinct workloads, distinct outputs."""

    name = "offset-toy"

    def __init__(self, base: int, n_tasks: int = 6):
        self.base = base
        self.n_tasks = n_tasks

    def prepare(self, size):
        return list(range(self.base, self.base + self.n_tasks))

    def task_count(self, workload):
        return len(workload)

    def execute_shard(self, workload, indices, instr=None):
        indices = list(indices)
        return ExecutionResult(
            output=[workload[i] for i in indices], task_work=[1] * len(indices)
        )


class CountingBench(OffsetBench):
    """Publishes a per-run counter and span while both runs are inside a kernel."""

    def __init__(self, key: str, barrier: threading.Barrier):
        super().__init__(BASES[key])
        self.name = f"count-{key}"
        self.barrier = barrier

    def execute_shard(self, workload, indices, instr=None):
        self.barrier.wait()  # both runs have activated their tracer and registry
        kernel_counter(f"{self.name}.tasks", len(indices))
        with kernel_span(f"{self.name}.shard"):
            result = super().execute_shard(workload, indices, instr)
        self.barrier.wait()  # neither deactivates before both have published
        return result


def _in_threads(run_one):
    """Run ``run_one(key, barrier)`` for both keys at once; their results."""
    barrier = threading.Barrier(2, timeout=60)
    results, errors = {}, []

    def target(key):
        try:
            results[key] = run_one(key, barrier)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=target, args=(key,)) for key in BASES]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
        assert not thread.is_alive(), "a run did not finish"
    if errors:
        raise errors[0]
    return results


def test_concurrent_pooled_runs_keep_their_own_workloads():
    def run_one(key, barrier):
        bench = OffsetBench(BASES[key])
        log = EventLog()
        held = []

        def hold(event):
            # both pools are open before either run dispatches a chunk
            if event.name == ev.CHUNK_DISPATCHED and not held:
                held.append(event)
                barrier.wait()

        log.subscribe(hold)
        runner = ParallelRunner(
            jobs=2, executor="local", chunk_size=2, measure_serial=False, events=log
        )
        return runner.execute(bench, bench.prepare(DatasetSize.SMALL), DatasetSize.SMALL)

    runs = _in_threads(run_one)
    for key, base in BASES.items():
        assert runs[key].output == list(range(base, base + 6)), key
        assert runs[key].record.complete


def test_concurrent_in_process_runs_keep_their_own_counters_and_spans():
    tracers = {key: Tracer() for key in BASES}

    def run_one(key, barrier):
        bench = CountingBench(key, barrier)
        runner = ParallelRunner(jobs=1, tracer=tracers[key])
        return runner.execute(bench, bench.prepare(DatasetSize.SMALL), DatasetSize.SMALL)

    runs = _in_threads(run_one)
    for key, other in (("a", "b"), ("b", "a")):
        counters = runs[key].record.metrics["counters"]
        assert counters.get(f"count-{key}.tasks") == 6, key
        assert f"count-{other}.tasks" not in counters, key
        assert len(tracers[key].find(f"count-{key}.shard")) == 1, key
        assert not tracers[key].find(f"count-{other}.shard"), key
    # no run left its tracer or registry active behind it
    assert current_tracer() is None
    assert current_metrics() is None
