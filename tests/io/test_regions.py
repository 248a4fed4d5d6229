"""Tests for genomic region arithmetic."""

import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.io.regions import GenomicRegion, partition_genome


class TestGenomicRegion:
    def test_basics(self):
        r = GenomicRegion("chr1", 10, 20)
        assert len(r) == 10
        assert str(r) == "chr1:10-20"

    def test_validation(self):
        with pytest.raises(ValueError):
            GenomicRegion("c", -1, 5)
        with pytest.raises(ValueError):
            GenomicRegion("c", 5, 5)

    def test_contains_half_open(self):
        r = GenomicRegion("c", 10, 20)
        assert r.contains(10) and r.contains(19)
        assert not r.contains(20) and not r.contains(9)

    def test_overlaps(self):
        a = GenomicRegion("c", 0, 10)
        assert a.overlaps(GenomicRegion("c", 9, 15))
        assert not a.overlaps(GenomicRegion("c", 10, 15))  # half-open abut
        assert not a.overlaps(GenomicRegion("other", 0, 10))

    def test_intersect(self):
        a = GenomicRegion("c", 0, 10)
        b = GenomicRegion("c", 5, 15)
        assert a.intersect(b) == GenomicRegion("c", 5, 10)
        assert a.intersect(GenomicRegion("c", 20, 30)) is None

    def test_frozen(self):
        r = GenomicRegion("c", 0, 10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.start = 5

    def test_pickle_state_is_the_field_dict(self):
        # cached workloads hold pickled regions; the state keeps the form
        # a dict-backed instance had, so older cache entries still load
        r = GenomicRegion("chr1", 10, 20)
        assert r.__reduce_ex__(pickle.DEFAULT_PROTOCOL)[2] == {
            "contig": "chr1",
            "start": 10,
            "end": 20,
        }
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(r, protocol=protocol)) == r


class TestPartition:
    def test_exact_division(self):
        parts = partition_genome("c", 100, 25)
        assert len(parts) == 4
        assert parts[0] == GenomicRegion("c", 0, 25)
        assert parts[-1] == GenomicRegion("c", 75, 100)

    def test_remainder_absorbed(self):
        parts = partition_genome("c", 105, 25)
        assert parts[-1].end == 105

    def test_tiles_equal_checked_regions(self):
        parts = partition_genome("c", 10, 4)
        checked = [GenomicRegion("c", 0, 4), GenomicRegion("c", 4, 8), GenomicRegion("c", 8, 10)]
        assert parts == checked
        assert [hash(p) for p in parts] == [hash(r) for r in checked]
        assert pickle.loads(pickle.dumps(parts)) == parts

    def test_invalid(self):
        with pytest.raises(ValueError):
            partition_genome("c", 0, 10)
        with pytest.raises(ValueError):
            partition_genome("c", 10, 0)

    @given(st.integers(1, 100_000), st.integers(1, 10_000))
    def test_partition_covers_exactly(self, length, size):
        parts = partition_genome("c", length, size)
        assert parts[0].start == 0
        assert parts[-1].end == length
        for a, b in zip(parts, parts[1:]):
            assert a.end == b.start
        assert sum(len(p) for p in parts) == length
