"""Per-position pileup count matrices.

``PileupCounts`` stores, for each reference position of a region:

* ``bases[pos, code, strand]`` -- aligned base counts split by strand,
* ``deletions[pos, strand]``  -- reads deleting this position,
* ``insertions[pos, strand]`` -- reads inserting after this position.

:func:`count_region` fills them by walking alignment CIGARs, the
random-access record parsing the paper identifies as this kernel's
bottleneck.  The walk is evaluated as whole-record arrays: each CIGAR
expands into per-base reference and read indices, and each region's
matrices are filled by one scatter (``np.bincount``; a difference array
for deletions).  The counts are those of an op-by-op walk, and the
modelled per-record op counts and traced accesses are unchanged.
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


#: Per BAM op code (:attr:`CigarOp.bam_code`): does the op advance the
#: reference, the read, or both (M, =, X: a read base on a reference base)?
_ADVANCES_REF = np.array([op.consumes_reference for op in CigarOp])
_ADVANCES_QUERY = np.array([op.consumes_query for op in CigarOp])
_ALIGNED = _ADVANCES_REF & _ADVANCES_QUERY


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
    start, end = region.start, region.end
    length = end - start
    base_bins = [np.empty(0, dtype=np.int64)]  # (pos * 4 + code) * 2 + strand
    del_opens = [np.empty(0, dtype=np.int64)]  # pos * 2 + strand, pos in [0, length]
    del_closes = [np.empty(0, dtype=np.int64)]
    ins_bins = [np.empty(0, dtype=np.int64)]  # pos * 2 + strand
    for rec in records:
        if rec.is_unmapped or rec.rname != region.contig:
            continue
        ops, op_lengths = zip(*rec.cigar)
        kinds = np.array([op.bam_code for op in ops])
        lengths = np.array(op_lengths, dtype=np.int64)
        ref_steps = np.where(_ADVANCES_REF[kinds], lengths, 0)
        ref_ends = rec.pos + np.cumsum(ref_steps)
        rec_end = int(ref_ends[-1])
        if rec_end == rec.pos:
            raise ValueError(f"record {rec.qname}: CIGAR {rec.cigar} spans no reference")
        # the record's reference span [pos, rec_end) must share a base
        # with the region
        if max(rec.pos, start) >= min(rec_end, end):
            continue
        pile.n_records += 1
        strand = 1 if rec.is_reverse else 0
        codes = encode(rec.seq, allow_n=True)
        if instr is not None:
            _account_record(instr, rec)
        # where each op begins, on the reference and in the read
        ref_at = ref_ends - ref_steps
        query_steps = np.where(_ADVANCES_QUERY[kinds], lengths, 0)
        query_at = np.cumsum(query_steps) - query_steps
        # each op's reference span, clipped to the region
        lo = np.maximum(ref_at, start)
        hi = np.minimum(ref_at + lengths, end)
        inside = hi > lo
        aligned = _ALIGNED[kinds] & inside
        if aligned.any():
            runs = (hi - lo)[aligned]
            # offset of each aligned base within its run
            step = np.arange(int(runs.sum())) - np.repeat(np.cumsum(runs) - runs, runs)
            pos = np.repeat(lo[aligned] - start, runs) + step
            seg = codes[np.repeat((query_at + lo - ref_at)[aligned], runs) + step]
            ok = seg < 4  # skip N bases
            base_bins.append((pos[ok] * 4 + seg[ok]) * 2 + strand)
        deleted = (kinds == CigarOp.DEL.bam_code) & inside
        del_opens.append((lo[deleted] - start) * 2 + strand)
        del_closes.append((hi[deleted] - start) * 2 + strand)
        anchors = ref_at[kinds == CigarOp.INS.bam_code] - 1
        anchors = anchors[(anchors >= start) & (anchors < end)]
        ins_bins.append((anchors - start) * 2 + strand)
    bases = np.bincount(np.concatenate(base_bins), minlength=length * 8)
    pile.bases[...] = bases.reshape(length, 4, 2)
    # deletions: +1 where a deleted span opens, -1 past its end, summed
    edges = np.bincount(np.concatenate(del_opens), minlength=(length + 1) * 2)
    edges -= np.bincount(np.concatenate(del_closes), minlength=(length + 1) * 2)
    pile.deletions[...] = np.cumsum(edges.reshape(length + 1, 2)[:length], axis=0)
    insertions = np.bincount(np.concatenate(ins_bins), minlength=length * 2)
    pile.insertions[...] = insertions.reshape(length, 2)
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
