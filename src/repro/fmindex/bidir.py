"""Bidirectional FM-index and the BWA SMEM algorithm.

BWA-MEM's seeding walks a *bidirectional* index so a match can grow in
both directions while tracking its suffix-array interval.  This module
implements the classic two-index formulation (equivalent to BWA's
FMD-index): one FM-index over the reference ``T`` and one over its
reversal ``rev(T)``.  A *bi-interval* ``(lo_f, lo_r, size)`` locates a
pattern ``P`` simultaneously in both suffix arrays; extending ``P`` on
either side updates both halves using a single ``occ4`` checkpoint pair,
exactly two memory lookups per extension as in ``bwt_extend``.

:func:`BiFMIndex.find_smems` reproduces ``bwt_smem1`` from BWA: per
pivot, forward extension collecting the intervals whose occurrence count
drops, then simultaneous backward extension emitting a super-maximal
exact match whenever the longest surviving candidate dies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.instrument import Instrumentation
from repro.sequence.alphabet import encode
from repro.fmindex.index import FMIndex
from repro.fmindex.smem import SMEM


@dataclass(frozen=True)
class BiInterval:
    """SA intervals of a pattern in the forward and reverse indexes.

    ``[lo_f, lo_f + size)`` locates the pattern in the forward suffix
    array; ``[lo_r, lo_r + size)`` locates its reversal in the suffix
    array of the reversed text.  ``end`` carries the pattern's (exclusive)
    end position within the read during SMEM search, mirroring the
    ``info`` field of BWA's ``bwtintv_t``.
    """

    lo_f: int
    lo_r: int
    size: int
    end: int = 0

    @property
    def empty(self) -> bool:
        """True when the pattern does not occur."""
        return self.size <= 0


class BiFMIndex:
    """Bidirectional FM-index over a DNA reference."""

    def __init__(self, text: str) -> None:
        self.forward = FMIndex(text)
        self.reverse = FMIndex(text[::-1])
        self.length = len(text)

    def init_interval(self, c: int) -> BiInterval:
        """Bi-interval of the single-base pattern ``c``.

        The forward and reverse indexes share base counts, so both halves
        start at ``C[c]``.
        """
        lo = int(self.forward.C[c])
        hi = int(self.forward.C[c + 1]) if c < 3 else self.forward.bwt.size
        return BiInterval(lo_f=lo, lo_r=lo, size=hi - lo)

    def _extend(
        self,
        primary: FMIndex,
        bi_lo_primary: int,
        bi_lo_other: int,
        size: int,
        c: int,
        instr: Instrumentation | None,
    ) -> tuple[int, int, int]:
        """Shared extension arithmetic.

        ``primary`` is the index in which the pattern grows on the left
        (plain LF-mapping); the *other* interval shifts by the counts of
        the sibling extensions that sort before ``c`` plus the sentinel
        block.  Returns ``(new_lo_primary, new_lo_other, new_size)``.
        """
        lo, hi = bi_lo_primary, bi_lo_primary + size
        occ_lo = primary.occ4(lo, instr)
        occ_hi = primary.occ4(hi, instr)
        sizes = tuple(occ_hi[d] - occ_lo[d] for d in range(4))
        # occurrences preceded by the start of the text (sentinel block)
        cnt_end = size - sum(sizes)
        new_lo_primary = int(primary.C[c]) + occ_lo[c]
        new_lo_other = bi_lo_other + cnt_end + sum(sizes[:c])
        if instr is not None:
            instr.counts.scalar_int += 12
            instr.counts.branch += 1
        return new_lo_primary, new_lo_other, sizes[c]

    def extend_backward(
        self, bi: BiInterval, c: int, instr: Instrumentation | None = None
    ) -> BiInterval:
        """Prepend base ``c`` to the pattern (``P -> cP``)."""
        lo_f, lo_r, size = self._extend(self.forward, bi.lo_f, bi.lo_r, bi.size, c, instr)
        return BiInterval(lo_f=lo_f, lo_r=lo_r, size=size, end=bi.end)

    def extend_forward(
        self, bi: BiInterval, c: int, instr: Instrumentation | None = None
    ) -> BiInterval:
        """Append base ``c`` to the pattern (``P -> Pc``)."""
        lo_r, lo_f, size = self._extend(self.reverse, bi.lo_r, bi.lo_f, bi.size, c, instr)
        return BiInterval(lo_f=lo_f, lo_r=lo_r, size=size, end=bi.end)

    # -- SMEM search -------------------------------------------------------

    def smems_from_pivot(
        self,
        codes,
        pivot: int,
        min_intv: int = 1,
        instr: Instrumentation | None = None,
    ) -> tuple[list[tuple[int, BiInterval]], int]:
        """Maximal exact matches covering read position ``pivot``.

        Port of BWA's ``bwt_smem1``: returns the matches as bi-intervals
        whose ``end`` field is the match end and, second, the end of the
        longest match through the pivot (the next pivot for the caller).
        Each returned interval ``m`` spans ``[m_start, m.end)`` where the
        start is communicated via parallel list ordering in
        :meth:`find_smems`; callers normally use :meth:`find_smems`.
        """
        n = len(codes)
        ik = self.init_interval(int(codes[pivot]))
        if ik.empty:
            return [], pivot + 1
        ik = BiInterval(ik.lo_f, ik.lo_r, ik.size, end=pivot + 1)
        # Forward extension: record intervals whenever occurrence count drops.
        forward: list[BiInterval] = []
        i = pivot + 1
        while i < n:
            ok = self.extend_forward(ik, int(codes[i]), instr)
            if ok.size != ik.size:
                forward.append(ik)
                if ok.size < min_intv:
                    break
            ik = BiInterval(ok.lo_f, ok.lo_r, ok.size, end=i + 1)
            i += 1
        if i == n:
            forward.append(ik)
        forward.reverse()  # longest match (smallest interval) first
        next_pivot = forward[0].end
        # Backward extension: emit a match when the longest survivor dies.
        matches: list[tuple[int, BiInterval]] = []
        prev = forward
        i = pivot - 1
        while True:
            c = int(codes[i]) if i >= 0 else -1
            curr: list[BiInterval] = []
            for p in prev:
                ok = self.extend_backward(p, c, instr) if c >= 0 else None
                if ok is None or ok.size < min_intv:
                    if not curr:  # no longer match survived this step
                        if not matches or i + 1 < matches[-1][0]:
                            matches.append((i + 1, p))
                elif not curr or ok.size != curr[-1].size:
                    curr.append(BiInterval(ok.lo_f, ok.lo_r, ok.size, end=p.end))
            if not curr:
                break
            prev = curr
            i -= 1
        return matches, next_pivot

    def find_smems(
        self,
        read: str,
        min_seed_len: int = 19,
        instr: Instrumentation | None = None,
    ) -> list[SMEM]:
        """All SMEMs of ``read``, ordered by start position.

        Equivalent to :func:`repro.fmindex.smem.find_smems` (the
        matching-statistics formulation) but in the near-linear pivoting
        form BWA-MEM uses; tests cross-validate the two.
        """
        codes = encode(read)
        n = len(codes)
        found: dict[tuple[int, int], SMEM] = {}
        x = 0
        while x < n:
            matches, next_x = self.smems_from_pivot(codes, x, instr=instr)
            for start, intv in matches:
                if intv.end - start >= min_seed_len:
                    key = (start, intv.end)
                    found[key] = SMEM(
                        start=start,
                        end=intv.end,
                        sa_lo=intv.lo_f,
                        sa_hi=intv.lo_f + intv.size,
                    )
            x = max(next_x, x + 1)
        return [found[k] for k in sorted(found)]

    def seed_read(
        self,
        read: str,
        min_seed_len: int = 19,
        max_occ: int = 500,
        instr: Instrumentation | None = None,
    ) -> list[tuple[int, int, int]]:
        """SMEM seeds as ``(read_start, ref_pos, length)`` triples."""
        seeds = []
        for smem in self.find_smems(read, min_seed_len=min_seed_len, instr=instr):
            if smem.occurrences > max_occ:
                continue
            for pos in self.forward.locate((smem.sa_lo, smem.sa_hi), instr=instr):
                seeds.append((smem.start, pos, len(smem)))
        return seeds
