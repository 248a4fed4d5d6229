"""``count_region``'s per-region scatter against an op-by-op CIGAR walk.

:func:`count_region_per_op` is the reference: it walks every CIGAR op in
Python and bumps the count matrices one op at a time.  The kernel must
fill exactly the same matrices.
"""

import numpy as np
import pytest

from repro.core.instrument import Instrumentation, OpCounts
from repro.io.cigar import Cigar, CigarOp
from repro.io.regions import GenomicRegion
from repro.io.sam import FLAG_REVERSE, FLAG_UNMAPPED, AlignmentRecord, simulate_alignments
from repro.pileup.counts import PileupCounts, _account_record, count_region
from repro.pileup.regions import reads_by_region
from repro.sequence.alphabet import encode
from repro.sequence.simulate import LongReadSimulator, random_genome


def count_region_per_op(records, region):
    """Reference pileup: one Python step per CIGAR op."""
    pile = PileupCounts(region=region)
    for rec in records:
        if rec.is_unmapped or not rec.overlaps(region):
            continue
        pile.n_records += 1
        strand = 1 if rec.is_reverse else 0
        codes = encode(rec.seq, allow_n=True)
        for op, length, ref_pos, q_pos in rec.cigar.walk(rec.pos):
            if op in (CigarOp.MATCH, CigarOp.EQUAL, CigarOp.DIFF):
                lo = max(ref_pos, region.start)
                hi = min(ref_pos + length, region.end)
                if hi > lo:
                    rel = np.arange(lo - region.start, hi - region.start)
                    seg = codes[q_pos + (lo - ref_pos) : q_pos + (hi - ref_pos)]
                    ok = seg < 4
                    np.add.at(pile.bases, (rel[ok], seg[ok], strand), 1)
            elif op is CigarOp.DEL:
                lo = max(ref_pos, region.start)
                hi = min(ref_pos + length, region.end)
                if hi > lo:
                    pile.deletions[lo - region.start : hi - region.start, strand] += 1
            elif op is CigarOp.INS:
                anchor = ref_pos - 1
                if region.contains(anchor):
                    pile.insertions[anchor - region.start, strand] += 1
    return pile


def assert_same_pileup(got, want):
    assert got.n_records == want.n_records
    for name in ("bases", "deletions", "insertions"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def record(pos, cigar, seq, flag=0, contig="c", name="r"):
    return AlignmentRecord(
        qname=name,
        flag=flag,
        rname=contig,
        pos=pos,
        mapq=60,
        cigar=Cigar.parse(cigar),
        seq=seq,
        quals=np.full(len(seq), 30),
    )


REGION = GenomicRegion("c", 10, 30)

#: Hand-built records around ``REGION`` = [10, 30).
HAND_BUILT = [
    # every op code: S M I D M N = X P H, crossing the region's start
    record(6, "3S5M1I2D4M1N2=1X1P2H", "GGGACGTAAACGTACG"),
    # N read bases are skipped, on a record crossing both edges
    record(0, "40M", "ACGTN" * 8),
    # insertion anchored at region.start - 1 (not counted) ...
    record(5, "5M1I4M", "ACGTAGCCGT"),
    # ... and at region.end - 1 (counted)
    record(20, "10M2I3M", "ACGTACGTACTTGCA"),
    # deletions crossing the start and the end edge
    record(5, "3M10D2M", "ACGTA"),
    record(25, "2M10D3M", "ACGTA", flag=FLAG_REVERSE),
    # reference skip across the region
    record(8, "2M15N3M", "ACGTA", flag=FLAG_REVERSE),
    # reverse strand, leading insertion, inside the region
    record(12, "1I6=2X1D3M2S", "TACGTACGTAGGTT", flag=FLAG_REVERSE),
    # leading and trailing deletions and a pad between them
    record(27, "2D1P2M3D", "AC"),
    # ignored: unmapped, another contig, fully outside
    record(12, "4M", "ACGT", flag=FLAG_UNMAPPED),
    record(12, "4M", "ACGT", contig="other"),
    record(40, "4M", "ACGT"),
    record(0, "10M", "ACGTACGTAC"),
    # ignored at the half-open edges: ends exactly at region.start (a
    # trailing deletion included), starts exactly at region.end
    record(4, "2M4D", "AC"),
    record(30, "3M2I1M", "ACGTAC"),
    # ignored although they span the region: another contig, unmapped
    record(5, "2S20M", "GG" + "ACGTA" * 4, contig="other"),
    record(5, "20M", "ACGTA" * 4, flag=FLAG_UNMAPPED | FLAG_REVERSE),
    # counted: one base past either edge
    record(7, "4M", "ACGT"),
    record(29, "1M3D2M", "ACG", flag=FLAG_REVERSE),
]


class TestHandBuilt:
    def test_matches_per_op_walk(self):
        assert_same_pileup(
            count_region(HAND_BUILT, REGION), count_region_per_op(HAND_BUILT, REGION)
        )

    @pytest.mark.parametrize("k", range(len(HAND_BUILT)))
    def test_each_record_alone(self, k):
        recs = [HAND_BUILT[k]]
        assert_same_pileup(count_region(recs, REGION), count_region_per_op(recs, REGION))

    def test_edge_anchored_insertions(self):
        pile = count_region(HAND_BUILT[2:4], REGION)
        assert pile.insertions.sum() == 1
        assert pile.insertions[len(REGION) - 1, 0] == 1

    def test_no_records(self):
        assert_same_pileup(count_region([], REGION), count_region_per_op([], REGION))

    def test_records_outside_the_region_are_not_fetched(self):
        # the overlap test runs before a record is counted or accounted
        outside = HAND_BUILT[9:-2]
        instr = Instrumentation(counts=OpCounts())
        pile = count_region(outside, REGION, instr=instr)
        assert pile.n_records == 0
        assert instr.counts.total == 0
        assert count_region(HAND_BUILT[-2:], REGION).n_records == 2

    @pytest.mark.parametrize("cigar", ["4S", "4I", "2S2I"])
    def test_record_spanning_no_reference_raises(self, cigar):
        # a mapped record needs a reference span, inside the region or not
        for pos in (12, 40):
            bad = record(pos, cigar, "ACGT")
            with pytest.raises(ValueError):
                count_region_per_op([bad], REGION)
            with pytest.raises(ValueError, match="spans no reference"):
                count_region([bad], REGION)

    def test_op_counts_match_per_record_accounting(self):
        instr, want = Instrumentation(counts=OpCounts()), Instrumentation(counts=OpCounts())
        count_region(HAND_BUILT, REGION, instr=instr)
        for rec in HAND_BUILT:
            if not rec.is_unmapped and rec.overlaps(REGION):
                _account_record(want, rec)
        assert instr.counts == want.counts


class TestSimulated:
    @pytest.fixture(scope="class")
    def records(self):
        genome = random_genome(12_000, seed=5)
        sim = LongReadSimulator(mean_len=2_000, error_rate=0.1)
        return simulate_alignments(genome, "chr1", 8.0, seed=6, simulator=sim)

    def test_tiled_regions_match_per_op_walk(self, records):
        for region, hits in reads_by_region(records, "chr1", 12_000, 2_500):
            assert hits
            assert_same_pileup(count_region(hits, region), count_region_per_op(hits, region))

    def test_unaligned_region_match_per_op_walk(self, records):
        region = GenomicRegion("chr1", 3_333, 7_777)
        assert_same_pileup(count_region(records, region), count_region_per_op(records, region))

    def test_reads_by_region_matches_per_region_overlap(self, records):
        for region, hits in reads_by_region(records, "chr1", 12_000, 1_000):
            assert hits == [r for r in records if r.overlaps(region)]
