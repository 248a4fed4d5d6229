"""Tests of the benchmark's helpers: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import measure as m  # noqa: E402
import run  # noqa: E402


# -- percentiles ----------------------------------------------------------


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for p in (0, 10, 25, 50, 90, 95, 100):
        assert m.percentile(values, p) == pytest.approx(np.percentile(values, p))
    assert m.median(values) == statistics.median(values)


def test_ten_samples_beyond_rule():
    assert m.min_samples_for(50) == 20
    assert m.min_samples_for(95) == 200
    assert m.min_samples_for(99) == 1000
    assert m.samples_beyond(200, 95) == 10
    assert m.samples_beyond(199, 95) == 9


def test_tail_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError, match="needs 200 samples"):
        m.tail_percentile(list(range(199)), 95)
    values = list(range(200))
    assert m.tail_percentile(values, 95) == m.percentile(values, 95)
    assert sum(v > m.tail_percentile(values, 95) for v in values) >= m.TAIL_SAMPLES


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        m.percentile([], 50)
    with pytest.raises(ValueError):
        m.percentile([1.0], 101)


# -- geometric mean ---------------------------------------------------------


def test_geomean():
    assert m.geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert m.geomean([2.0, 8.0, 4.0]) == pytest.approx(4.0)
    assert m.geomean([1e-9, 1e9]) == pytest.approx(1.0)


@pytest.mark.parametrize("values", [[], [1.0, 0.0], [2.0, -1.0]])
def test_geomean_needs_positive_values(values):
    with pytest.raises(ValueError):
        m.geomean(values)


# -- canonical digests ------------------------------------------------------


@dataclass
class Point:
    x: float
    tags: list


class Table:
    """A stand-in hash table: same items, different slot layout."""

    def __init__(self, pairs, capacity):
        self.slots = [None] * capacity
        self.probes = 0
        for key, count in pairs:
            slot = key % capacity
            while self.slots[slot] is not None:
                slot = (slot + 1) % capacity
                self.probes += 1
            self.slots[slot] = (key, count)

    def items(self):
        return iter(s for s in self.slots if s is not None)


def test_digest_ignores_insertion_order_and_sharing():
    shared = [1, 2]
    assert m.digest_of({"a": 1, "b": 2}) == m.digest_of({"b": 2, "a": 1})
    assert m.digest_of({3, 1, 2}) == m.digest_of({2, 3, 1})
    assert m.digest_of([shared, shared]) == m.digest_of([[1, 2], [1, 2]])
    assert m.digest_of(Table([(1, 5), (9, 2)], 8)) == m.digest_of(Table([(9, 2), (1, 5)], 8))


def test_digest_distinguishes_types_and_bits():
    assert m.digest_of([1, 2]) != m.digest_of((1, 2))
    assert m.digest_of(1) != m.digest_of(1.0)
    assert m.digest_of(0.0) != m.digest_of(-0.0)
    assert m.digest_of(0.1 + 0.2) != m.digest_of(0.3)
    assert m.digest_of("1") != m.digest_of(1)
    assert m.digest_of(["ab", "c"]) != m.digest_of(["a", "bc"])
    assert m.digest_of({1: 2}) != m.digest_of({2: 1})
    assert m.digest_of(Point(1.0, [])) != m.digest_of(Point(1.0, [0]))


def test_digest_of_arrays_is_layout_free():
    a = np.arange(12, dtype=np.int64).reshape(3, 4)
    assert m.digest_of(a, np) == m.digest_of(np.asfortranarray(a), np)
    assert m.digest_of(a.T, np) == m.digest_of(a.T.copy(), np)
    assert m.digest_of(a, np) != m.digest_of(a.astype(np.int32), np)
    assert m.digest_of(a, np) != m.digest_of(a.reshape(4, 3), np)
    assert m.digest_of(np.float64(1.5), np) == m.digest_of(np.float64(1.5), np)


def test_digest_mixed_key_mapping_is_order_free():
    assert m.digest_of({1: "a", "x": 2}) == m.digest_of({"x": 2, 1: "a"})


def test_digest_rejects_unknown_types():
    with pytest.raises(TypeError):
        m.digest_of(object())


# -- span self time ---------------------------------------------------------


def test_covered_merges_and_clips():
    assert m.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert m.covered([(-1, 2), (8, 12)], 0, 10) == 4
    assert m.covered([], 0, 10) == 0
    assert m.covered([(11, 12)], 0, 10) == 0


def make(recorder: m.SpanRecorder, name, begin, end, parent=None):
    recorder.spans.append(m.Span(name, begin, end, op=1, parent=parent))
    return len(recorder.spans) - 1


def test_self_time_subtracts_the_union_of_children():
    rec = m.SpanRecorder()
    root = make(rec, "pass", 0.0, 10.0)
    op = make(rec, "op", 1.0, 7.0, root)
    make(rec, "a", 1.0, 4.0, op)
    make(rec, "b", 3.0, 5.0, op)  # overlaps a: counted once
    make(rec, "late", 6.0, 9.0, op)  # runs past its parent: clipped
    own = dict(zip((s.name for s in rec.spans), rec.self_seconds()))
    assert own["pass"] == pytest.approx(4.0)
    assert own["op"] == pytest.approx(6.0 - 4.0 - 1.0)
    assert own["a"] == pytest.approx(3.0)


def test_self_times_of_a_nested_tree_add_up_to_the_root():
    rec = m.SpanRecorder()
    root = make(rec, "pass", 0.0, 10.0)
    for i in range(3):
        op = make(rec, "op", 3.0 * i, 3.0 * i + 2.5, root)
        rec.reported(op, [("prepare", 0.5), ("execute", 1.5)])
    assert sum(rec.self_seconds()) == pytest.approx(10.0)
    by_name = rec.self_by_name()
    assert by_name["prepare"] == pytest.approx(1.5)
    assert by_name["execute"] == pytest.approx(4.5)
    assert by_name["op"] == pytest.approx(1.5)
    assert by_name["pass"] == pytest.approx(2.5)


def test_reported_phases_are_laid_end_to_end_and_clipped():
    rec = m.SpanRecorder()
    op = make(rec, "op", 0.0, 1.0)
    rec.reported(op, [("q", 0.25), ("skip", None), ("p", 0.5), ("e", 0.5)])
    spans = [(s.name, s.begin, s.end, s.reported) for s in rec.spans[1:]]
    assert spans == [("q", 0.0, 0.25, True), ("p", 0.25, 0.75, True), ("e", 0.75, 1.0, True)]


def test_disabled_recorder_records_nothing():
    rec = m.SpanRecorder(enabled=False)
    span = rec.open("pass", rec.new_op())
    rec.close(span)
    rec.reported(span, [("x", 1.0)])
    assert span is None and rec.spans == []


# -- BENCHMARK.json ---------------------------------------------------------


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {d["name"]: (d["unit"], d["better"]) for d in doc["end_to_end"]}
    layers = {d["name"]: (d["unit"], d["better"]) for d in doc["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == ["suite-serial", "suite-pool", "service-jobs"]
    setup = next(d for d in doc["end_to_end"] if d["name"] == "setup_s")
    assert setup["bound"] == max(d["bound"] for d in doc["end_to_end"])
