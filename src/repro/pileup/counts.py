"""Per-position pileup count matrices.

``PileupCounts`` stores, for each reference position of a region:

* ``bases[pos, code, strand]`` -- aligned base counts split by strand,
* ``deletions[pos, strand]``  -- reads deleting this position,
* ``insertions[pos, strand]`` -- reads inserting after this position.

:func:`count_region` fills them by walking alignment CIGARs, the
random-access record parsing the paper identifies as this kernel's
bottleneck.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.instrument import Instrumentation
from repro.io.cigar import CigarOp
from repro.io.regions import GenomicRegion
from repro.io.sam import AlignmentRecord
from repro.sequence.alphabet import encode


@dataclass
class PileupCounts:
    """Count matrices for one region (positions are region-relative)."""

    region: GenomicRegion
    bases: np.ndarray = field(init=False)
    deletions: np.ndarray = field(init=False)
    insertions: np.ndarray = field(init=False)
    n_records: int = 0

    def __post_init__(self) -> None:
        length = len(self.region)
        self.bases = np.zeros((length, 4, 2), dtype=np.int32)
        self.deletions = np.zeros((length, 2), dtype=np.int32)
        self.insertions = np.zeros((length, 2), dtype=np.int32)

    def depth(self) -> np.ndarray:
        """Aligned-base depth per position (both strands)."""
        return self.bases.sum(axis=(1, 2)) + self.deletions.sum(axis=1)

    def consensus(self) -> str:
        """Majority base per position ('N' where nothing aligns)."""
        totals = self.bases.sum(axis=2)
        best = np.argmax(totals, axis=1)
        covered = totals.sum(axis=1) > 0
        out = np.where(covered, best, 4)
        return "".join("ACGTN"[int(c)] for c in out)


def count_region(
    records: list[AlignmentRecord],
    region: GenomicRegion,
    instr: Instrumentation | None = None,
) -> PileupCounts:
    """Count the pileup of ``records`` over ``region``.

    Records extending past the region are clipped to it; reads on the
    reverse strand contribute to strand column 1.
    """
    pile = PileupCounts(region=region)
    for rec in records:
        if rec.is_unmapped or not rec.overlaps(region):
            continue
        pile.n_records += 1
        strand = 1 if rec.is_reverse else 0
        codes = encode(rec.seq, allow_n=True)
        if instr is not None:
            _account_record(instr, rec)
        for op, length, ref_pos, q_pos in rec.cigar.walk(rec.pos):
            if op in (CigarOp.MATCH, CigarOp.EQUAL, CigarOp.DIFF):
                lo = max(ref_pos, region.start)
                hi = min(ref_pos + length, region.end)
                if hi > lo:
                    rel = np.arange(lo - region.start, hi - region.start)
                    seg = codes[q_pos + (lo - ref_pos) : q_pos + (hi - ref_pos)]
                    ok = seg < 4  # skip N bases
                    np.add.at(pile.bases, (rel[ok], seg[ok], strand), 1)
            elif op is CigarOp.DEL or op is CigarOp.REF_SKIP:
                lo = max(ref_pos, region.start)
                hi = min(ref_pos + length, region.end)
                if hi > lo and op is CigarOp.DEL:
                    pile.deletions[lo - region.start : hi - region.start, strand] += 1
            elif op is CigarOp.INS:
                anchor = ref_pos - 1
                if region.contains(anchor):
                    pile.insertions[anchor - region.start, strand] += 1
    return pile


def _account_record(instr: Instrumentation, rec: AlignmentRecord) -> None:
    """One record fetch: header, CIGAR walk, sequence touches."""
    n_ops = len(rec.cigar)
    n_bases = len(rec.seq)
    # per aligned base: fetch, decode, strand select, counter update;
    # per CIGAR op: parse and branch -- Medaka's counting inner loop
    instr.counts.add("load", 4 + 2 * n_ops + 2 * n_bases)
    instr.counts.add("store", n_bases)
    instr.counts.add("scalar_int", 6 * n_ops + 9 * n_bases)
    instr.counts.add("branch", 3 * n_ops + 2 * n_bases)
    trace = instr.trace
    if trace is not None:
        if "pileup.records" not in trace.regions:
            trace.alloc("pileup.records", 1 << 24)
            trace.alloc("pileup.counts", 1 << 20)
        records_r = trace.region("pileup.records")
        counts_r = trace.region("pileup.counts")
        # random access into the (sorted-by-coordinate, variably sized)
        # record heap, then a streaming walk over the record body
        rec_bytes = 64 + len(rec.seq)
        # a stable hash: str hash() is salted per process
        start = zlib.crc32(rec.qname.encode()) % (records_r.size - rec_bytes - 64)
        start -= start % 64
        trace.read_stream(records_r, start, rec_bytes, access_size=16)
        # scattered count-matrix updates along the reference span
        span = rec.cigar.reference_length
        for off in range(0, span, 16):
            pos = (rec.pos + off) * 10 % (counts_r.size - 64)
            trace.write(counts_r, pos, 4)
