"""Tests for the multiprocess execution engine."""

import dataclasses

import numpy as np
import pytest

import repro.api as api
from repro.core.benchmark import Benchmark, load_benchmark
from repro.core.datasets import DatasetSize
from repro.core.registry import kernel_names
from repro.kmer.table import HashTable
from repro.runner.engine import ParallelRunner, default_chunk_size


def canon(x):
    """Canonical, comparable form of any kernel output."""
    if isinstance(x, HashTable):
        return tuple(sorted(x.items()))
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return tuple(
            (f.name, canon(getattr(x, f.name))) for f in dataclasses.fields(x)
        )
    if isinstance(x, np.ndarray):
        return (x.shape, x.dtype.str, x.tobytes())
    if isinstance(x, (list, tuple)):
        return tuple(canon(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, canon(v)) for k, v in x.items()))
    if isinstance(x, np.generic):
        return x.item()
    return x


@pytest.mark.parametrize("name", kernel_names())
def test_parallel_output_bit_identical_to_serial(name):
    """Sharded execution across workers must not change any result."""
    bench = load_benchmark(name)
    workload = bench.prepare(DatasetSize.SMALL)
    serial = ParallelRunner(jobs=1).execute(bench, workload, DatasetSize.SMALL)
    parallel = ParallelRunner(jobs=3, measure_serial=False).execute(
        bench, workload, DatasetSize.SMALL
    )
    assert parallel.record.task_work == serial.record.task_work
    assert canon(parallel.output) == canon(serial.output)


def test_jobs_1_is_the_serial_path():
    bench = load_benchmark("grm")
    workload = bench.prepare(DatasetSize.SMALL)
    run = ParallelRunner(jobs=1).execute(bench, workload, DatasetSize.SMALL)
    direct = bench.execute(workload)
    assert np.array_equal(run.output, direct.output)
    assert run.record.jobs == 1
    # a single in-process chunk covering every task, one worker
    assert len(run.record.chunks) == 1
    assert (run.record.chunks[0].start, run.record.chunks[0].stop) == (
        0,
        run.record.n_tasks,
    )
    assert len(run.record.workers) == 1


def test_chunk_trace_covers_every_task_exactly_once():
    bench = load_benchmark("chain")
    workload = bench.prepare(DatasetSize.SMALL)
    run = ParallelRunner(jobs=4, chunk_size=7, measure_serial=False).execute(
        bench, workload, DatasetSize.SMALL
    )
    n = run.record.n_tasks
    covered = sorted(
        i for c in run.record.chunks for i in range(c.start, c.stop)
    )
    assert covered == list(range(n))
    assert run.record.chunk_size == 7
    # worker aggregates agree with the chunk trace
    assert sum(w.tasks for w in run.record.workers) == n
    assert sum(w.chunks for w in run.record.workers) == len(run.record.chunks)
    for c in run.record.chunks:
        assert c.end >= c.begin >= 0.0


def test_measured_speedup_recorded_when_parallel():
    run = api.run("grm", "small", jobs=2)
    assert run.record.serial_seconds is not None
    assert run.record.speedup_vs_serial is not None
    assert run.record.speedup_vs_serial > 0.0
    assert run.record.scheduling_efficiency is not None


def test_serial_run_skips_baseline_by_default():
    run = api.run("grm", "small", jobs=1)
    assert run.record.serial_seconds is None
    assert run.record.speedup_vs_serial is None


def test_default_chunk_size_bounds():
    assert default_chunk_size(0, 4) == 1
    assert default_chunk_size(1, 4) == 1
    assert default_chunk_size(1000, 4) == 32  # 1000 / (4*8) rounded up
    assert default_chunk_size(7, 64) == 1


def test_rejects_nonpositive_jobs():
    with pytest.raises(ValueError):
        ParallelRunner(jobs=0)


def test_rejects_nonpositive_chunk_size():
    with pytest.raises(ValueError, match="chunk_size"):
        ParallelRunner(jobs=2, chunk_size=0)
    with pytest.raises(ValueError, match="chunk_size"):
        ParallelRunner(jobs=2, chunk_size=-5)


def test_rejects_adapter_without_task_sharding():
    class Unsharded(Benchmark):
        name = "unsharded"

        def prepare(self, size):
            return [1, 2, 3]

    with pytest.raises(TypeError, match=r"task_count\(\) and execute_shard\(\)"):
        ParallelRunner().execute(Unsharded(), [1, 2, 3], DatasetSize.SMALL)


def test_run_accepts_string_size():
    run = api.run("grm", "small", jobs=1)
    assert run.record.size == "small"
    assert run.record.kernel == "grm"
