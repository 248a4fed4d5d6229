"""Tests for the benchmark protocol and adapter factory."""

import pytest

from repro.core.benchmark import (
    Benchmark,
    ExecutionResult,
    RunResult,
    as_execution_result,
    load_benchmark,
)
from repro.core.datasets import DatasetSize
from repro.core.registry import kernel_names


def test_every_kernel_has_an_adapter():
    for name in kernel_names():
        bench = load_benchmark(name)
        assert isinstance(bench, Benchmark)
        assert bench.name == name


def test_unknown_kernel_rejected():
    with pytest.raises(KeyError):
        load_benchmark("bogus")


def test_run_result_properties():
    result = RunResult(
        kernel="x",
        size=DatasetSize.SMALL,
        output=None,
        task_work=[1, 2, 3],
        wall_seconds=0.5,
    )
    assert result.n_tasks == 3
    assert result.total_work == 6


def test_run_produces_consistent_result():
    bench = load_benchmark("grm")  # the fastest kernel
    result = bench.run(DatasetSize.SMALL)
    assert result.kernel == "grm"
    assert result.size is DatasetSize.SMALL
    assert result.n_tasks > 0
    assert result.wall_seconds > 0
    assert all(w > 0 for w in result.task_work)


def test_run_accepts_string_size():
    bench = load_benchmark("grm")
    result = bench.run("small")
    assert result.size is DatasetSize.SMALL


def test_prepare_is_deterministic():
    bench = load_benchmark("bsw")
    w1 = bench.prepare(DatasetSize.SMALL)
    w2 = bench.prepare(DatasetSize.SMALL)
    assert w1.pairs == w2.pairs


def test_execution_result_task_totals():
    result = ExecutionResult(output=["a", "b"], task_work=[1, 2])
    assert result.n_tasks == 2 and result.total_work == 3


def test_as_execution_result_passes_through():
    result = ExecutionResult(output=[], task_work=[])
    assert as_execution_result(result, "x") is result


def test_as_execution_result_rejects_legacy_tuple():
    with pytest.raises(TypeError, match="legacy .* tuple contract"):
        as_execution_result((["out"], [7]), "legacy-kernel")


def test_as_execution_result_rejects_garbage():
    with pytest.raises(TypeError, match="expected an ExecutionResult"):
        as_execution_result("nonsense", "x")


def test_legacy_tuple_adapter_fails_loudly():
    """An unmigrated tuple-returning adapter now errors through Benchmark.run."""

    class LegacyBenchmark(Benchmark):
        name = "legacy"

        def prepare(self, size):
            return [1, 2, 3]

        def execute(self, workload, instr=None):
            return list(workload), [w * 10 for w in workload]

    with pytest.raises(TypeError, match="expected an ExecutionResult"):
        LegacyBenchmark().run(DatasetSize.SMALL)


def test_every_kernel_exposes_task_sharding():
    for name in kernel_names():
        bench = load_benchmark(name)
        workload = bench.prepare(DatasetSize.SMALL)
        n = bench.task_count(workload)
        assert n is not None and n > 0, name


def test_execute_shard_subset_matches_full_run():
    bench = load_benchmark("chain")
    workload = bench.prepare(DatasetSize.SMALL)
    full = bench.execute(workload)
    n = bench.task_count(workload)
    merged = bench.merge_shards(
        [
            bench.execute_shard(workload, range(0, n // 2)),
            bench.execute_shard(workload, range(n // 2, n)),
        ]
    )
    assert merged.task_work == full.task_work
    assert merged.output == full.output


def test_default_merge_shards_concatenates_in_order():
    bench = load_benchmark("chain")  # uses the default merge
    a = ExecutionResult(output=["x"], task_work=[1], task_meta=[{"i": 0}])
    b = ExecutionResult(output=["y", "z"], task_work=[2, 3], task_meta=[{"i": 1}, {"i": 2}])
    merged = bench.merge_shards([a, b])
    assert merged.output == ["x", "y", "z"]
    assert merged.task_work == [1, 2, 3]
    assert merged.task_meta == [{"i": 0}, {"i": 1}, {"i": 2}]
    assert bench.merge_shards([]).n_tasks == 0


def test_run_records_prepare_timing():
    result = load_benchmark("grm").run(DatasetSize.SMALL)
    assert result.prepare_seconds > 0
    assert result.prepare_cached is False
