"""Tests for inter-sequence (SIMD-model) batched Smith-Waterman."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.batched import BatchedSW, BatchStats
from repro.align.benchmark import BswBenchmark, make_extension_pairs
from repro.align.pairwise import sw_scalar
from repro.align.scoring import ScoringScheme
from repro.core.datasets import DatasetSize
from repro.core.instrument import Instrumentation

dna = st.text(alphabet="ACGT", min_size=2, max_size=40)

#: Schemes that stress the E prefix scan: a free gap open (E extends
#: and opens at the same cost) and free mismatches (many ties).
schemes = st.sampled_from(
    [
        ScoringScheme(),
        ScoringScheme(gap_open=0),
        ScoringScheme(mismatch=0),
        ScoringScheme(match=2, mismatch=0, gap_open=0, gap_extend=3),
        ScoringScheme(match=3, mismatch=1, gap_open=2, gap_extend=1),
    ]
)


def scalar_fields(q, t, scheme, band):
    ref = sw_scalar(q, t, scheme=scheme, band=band)
    return ref.score, ref.query_end, ref.target_end, ref.cells


class TestCorrectness:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(dna, dna), min_size=1, max_size=12))
    def test_scores_match_scalar(self, pairs):
        engine = BatchedSW(band=None, lanes=4)
        results, _ = engine.align_batch(pairs)
        for (q, t), r in zip(pairs, results):
            assert r.score == sw_scalar(q, t).score

    def test_banded_scores_match_scalar(self):
        pairs = make_extension_pairs(25, 60, 15, seed=3)
        engine = BatchedSW(band=12)
        results, _ = engine.align_batch(pairs)
        for (q, t), r in zip(pairs, results):
            assert r.score == sw_scalar(q, t, band=12).score

    def test_results_in_input_order(self):
        pairs = [("A" * 10, "A" * 10), ("ACGT", "ACGT"), ("A" * 30, "A" * 30)]
        results, _ = BatchedSW(lanes=2).align_batch(pairs)
        assert [r.score for r in results] == [10, 4, 30]

    def test_empty_batch(self):
        results, stats = BatchedSW().align_batch([])
        assert results == [] and stats.simd_cells == 0


class TestScalarEquivalence:
    """The whole-row lockstep engine against the cell-by-cell scalar one."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(dna, dna), min_size=1, max_size=12),
        st.sampled_from([None, 1, 3, 12, 44]),
        schemes,
    )
    def test_every_field_matches_scalar(self, pairs, band, scheme):
        results, stats = BatchedSW(scheme=scheme, band=band, lanes=4).align_batch(pairs)
        for (q, t), r in zip(pairs, results):
            got = (r.score, r.query_end, r.target_end, r.cells)
            assert got == scalar_fields(q, t, scheme, band)
        assert stats.useful_cells == sum(r.cells for r in results)

    @pytest.mark.parametrize("band", [None, 1, 3, 12, 44])
    def test_extension_pairs_match_scalar(self, band):
        # benchmark-shaped pairs: longer than the band, shared seeds
        pairs = make_extension_pairs(24, 120, 30, seed=11)
        scheme = ScoringScheme(gap_open=0) if band == 12 else ScoringScheme()
        results, _ = BatchedSW(scheme=scheme, band=band).align_batch(pairs)
        for (q, t), r in zip(pairs, results):
            got = (r.score, r.query_end, r.target_end, r.cells)
            assert got == scalar_fields(q, t, scheme, band)

    def test_chunked_batch_equals_whole_batch(self):
        # a pooled run shards the benchmark's batch into 63-pair chunks
        workload = BswBenchmark().prepare(DatasetSize.SMALL)
        engine = BatchedSW(scheme=workload.scheme, band=workload.band)
        whole, _ = engine.align_batch(workload.pairs)
        chunked = []
        for k in range(0, len(workload.pairs), 63):
            chunked += engine.align_batch(workload.pairs[k : k + 63])[0]
        assert len(whole) == 1000
        assert chunked == whole


class TestStats:
    def test_overhead_at_least_one(self):
        pairs = make_extension_pairs(40, 80, 25, seed=5)
        _, stats = BatchedSW(band=20).align_batch(pairs)
        assert stats.overhead >= 1.0
        assert stats.lane_groups == (40 + 15) // 16

    def test_uniform_lengths_minimal_padding(self):
        pairs = [("ACGTACGTAC", "ACGTACGTAC")] * 16
        _, stats = BatchedSW().align_batch(pairs)
        assert stats.overhead == pytest.approx(1.0)

    def test_varied_lengths_increase_overhead(self):
        uniform = [("A" * 50, "A" * 50)] * 16
        varied = [("A" * (10 + 5 * i), "A" * (10 + 5 * i)) for i in range(16)]
        _, s_uniform = BatchedSW().align_batch(uniform)
        _, s_varied = BatchedSW().align_batch(varied)
        assert s_varied.overhead > s_uniform.overhead

    def test_partial_group_counts_full_lanes(self):
        # 3 pairs still occupy a full 16-lane vector
        pairs = [("ACGT" * 5, "ACGT" * 5)] * 3
        _, stats = BatchedSW().align_batch(pairs)
        assert stats.simd_cells == 16 * 20 * 20
        assert stats.useful_cells == 3 * 20 * 20

    def test_nan_overhead_on_empty_work(self):
        stats = BatchStats(useful_cells=0, simd_cells=0, lane_groups=0)
        assert np.isnan(stats.overhead)


class TestInstrumentation:
    def test_counts_vector_dominant(self):
        pairs = make_extension_pairs(20, 50, 10, seed=7)
        instr = Instrumentation()
        BatchedSW(band=10).align_batch(pairs, instr=instr)
        fr = instr.counts.fractions()
        assert fr["vector"] > 0.4  # bsw is a vector-heavy kernel (Fig. 5)

    def test_trace_region_bounded_by_lane_group(self):
        pairs = make_extension_pairs(20, 50, 10, seed=8)
        instr = Instrumentation.with_trace()
        BatchedSW(band=10, lanes=16).align_batch(pairs, instr=instr)
        region = instr.trace.region("bsw.rows")
        # the modelled working set is the 16-lane engine's, a few KB
        assert region.size < 64 * 1024


class TestValidation:
    def test_bad_lanes(self):
        with pytest.raises(ValueError):
            BatchedSW(lanes=0)

    def test_bad_band(self):
        with pytest.raises(ValueError):
            BatchedSW(band=0)
