"""The FM-index: backward search over a BWT with checkpointed Occ table.

Layout follows BWA-MEM2: the Occ table is sampled at one checkpoint per
64 BWT positions, with each checkpoint and its packed BWT block sharing
one 64-byte cache line.  A backward-extension step therefore touches
(at most) two cache lines of the Occ structure -- the access stream the
paper characterizes as opening a new DRAM page more than 80% of the
time.
"""

from __future__ import annotations

import numpy as np

from repro.core.instrument import Instrumentation
from repro.sequence.alphabet import encode
from repro.fmindex.sa import bwt_from_sa, suffix_array

#: BWT positions covered by one Occ checkpoint (one cache line, as in BWA-MEM2).
CHECKPOINT = 64


class FMIndex:
    """Full-text index in minute space over a DNA reference.

    Supports counting and locating exact occurrences of a query via
    backward search.  All methods accept an optional
    :class:`~repro.core.instrument.Instrumentation` whose counters and
    memory trace are fed by the real lookup stream.
    """

    def __init__(self, text: str) -> None:
        if not text:
            raise ValueError("cannot index an empty reference")
        self._codes = encode(text)
        self.length = len(text)
        self.sa = suffix_array(self._codes)
        self.bwt, self.primary = bwt_from_sa(self._codes, self.sa)
        n = self.bwt.size
        # C[c] = SA index of the first suffix starting with base c.
        # Index 0 is the sentinel suffix, so base intervals start at 1.
        base_counts = np.bincount(self._codes, minlength=4).astype(np.int64)
        self.C = np.empty(5, dtype=np.int64)
        self.C[0] = 1
        np.cumsum(base_counts, out=self.C[1:])
        self.C[1:] += 1
        # Checkpointed Occ: counts of each base in bwt[0 : CHECKPOINT*j].
        n_cp = (n + CHECKPOINT - 1) // CHECKPOINT + 1
        one_hot = self.bwt[:, None] == np.arange(4, dtype=np.uint8)[None, :]
        # the primary slot holds a placeholder 0 that must never be counted
        one_hot[self.primary, :] = False
        cums = np.zeros((n + 1, 4), dtype=np.int64)
        np.cumsum(one_hot, axis=0, out=cums[1:])
        # Full cumulative table: pure-Python speed optimization for rank
        # queries.  The *memory layout being modelled* (and recorded in
        # traces) remains the checkpointed one in `_occ_cp`.
        self._occ_full = cums.astype(np.int32)
        self._occ_cp = cums[:: CHECKPOINT].copy()
        if self._occ_cp.shape[0] < n_cp:  # final partial block checkpoint
            self._occ_cp = np.vstack([self._occ_cp, cums[-1][None, :]])
        self._not_primary = np.ones(n, dtype=bool)
        self._not_primary[self.primary] = False
        self._trace_regions: dict[int, tuple] = {}

    # -- instrumentation ---------------------------------------------------

    #: Minimum modelled Occ-table footprint for traces.  The paper's
    #: index covers the human genome (~10 GB FM-index); our synthetic
    #: reference is megabase-scale, so trace offsets are spread over a
    #:  human-scale table (capped for simulator tractability) to keep
    #: the defining property -- essentially every lookup touches a cold
    #: cache line and opens a new DRAM row.
    TRACE_OCC_BYTES = 256 * 1024 * 1024

    def _regions(self, instr: Instrumentation):
        trace = instr.trace
        key = id(trace)
        if key not in self._trace_regions:
            n = self.bwt.size
            occ_bytes = max(
                ((n + CHECKPOINT - 1) // CHECKPOINT + 1) * 64, self.TRACE_OCC_BYTES
            )
            sa_bytes = max((n // 8 + 1) * 8, self.TRACE_OCC_BYTES // 8)
            # the forward and reverse halves of a bidirectional index
            # model one physical FM-index (BWA's FMD), so they share
            # the traced regions
            if "fmi.occ" in trace.regions:
                occ = trace.region("fmi.occ")
                sa = trace.region("fmi.sa")
            else:
                occ = trace.alloc("fmi.occ", occ_bytes)
                sa = trace.alloc("fmi.sa", sa_bytes)
            self._trace_regions[key] = (occ, sa)
        return self._trace_regions[key]

    def _record_occ(self, instr: Instrumentation | None, i: int) -> None:
        if instr is None:
            return
        # the 64-byte checkpoint line is consumed in 8-byte pieces, with
        # masked popcounts and interval arithmetic around it -- the
        # per-lookup dynamic-instruction footprint of BWA-MEM2's bwt_occ4
        # (slot arithmetic, not ``add()``: this runs on every lookup)
        counts = instr.counts
        counts.load += 12
        counts.scalar_int += 50
        counts.branch += 8
        counts.store += 2
        counts.other += 2
        if instr.trace is not None:
            occ_region, _ = self._regions(instr)
            n_lines = occ_region.size // 64
            # spread SA coordinates uniformly over the modelled table
            line = (i * n_lines) // max(1, self.bwt.size)
            instr.trace.read(occ_region, min(line, n_lines - 1) * 64, 64)

    # -- rank / search --------------------------------------------------

    def occ(self, c: int, i: int, instr: Instrumentation | None = None) -> int:
        """Occurrences of base ``c`` in ``bwt[0:i]`` (primary excluded)."""
        if i < 0 or i > self.bwt.size:
            raise IndexError(f"occ index {i} out of range 0..{self.bwt.size}")
        self._record_occ(instr, min(i, self.bwt.size - 1))
        return int(self._occ_full[i, c])

    def occ_checkpointed(self, c: int, i: int) -> int:
        """Rank query answered from the checkpointed layout itself.

        Functionally identical to :meth:`occ`; exists so tests can verify
        the modelled checkpoint structure against the fast table.
        """
        if i < 0 or i > self.bwt.size:
            raise IndexError(f"occ index {i} out of range 0..{self.bwt.size}")
        block = i // CHECKPOINT
        base = int(self._occ_cp[block, c])
        start = block * CHECKPOINT
        if i > start:
            seg = slice(start, i)
            base += int(
                np.count_nonzero((self.bwt[seg] == c) & self._not_primary[seg])
            )
        return base

    def occ4(self, i: int, instr: Instrumentation | None = None) -> tuple[int, int, int, int]:
        """Ranks of all four bases at ``i`` in one lookup.

        BWA-MEM2 fetches the four counts from a single checkpoint cache
        line (``bwt_occ4``), so this records one memory access, not four.
        """
        if i < 0 or i > self.bwt.size:
            raise IndexError(f"occ index {i} out of range 0..{self.bwt.size}")
        self._record_occ(instr, min(i, self.bwt.size - 1))
        row = self._occ_full[i]
        return int(row[0]), int(row[1]), int(row[2]), int(row[3])

    def extend_backward(
        self, interval: tuple[int, int], c: int, instr: Instrumentation | None = None
    ) -> tuple[int, int]:
        """Prepend base ``c`` to the pattern of SA interval ``[lo, hi)``."""
        lo, hi = interval
        new_lo = int(self.C[c]) + self.occ(c, lo, instr)
        new_hi = int(self.C[c]) + self.occ(c, hi, instr)
        if instr is not None:
            instr.counts.add("scalar_int", 2)
            instr.counts.add("branch", 1)
        return new_lo, new_hi

    def full_interval(self) -> tuple[int, int]:
        """The SA interval matching the empty pattern."""
        return 0, self.bwt.size

    def search(self, query: str, instr: Instrumentation | None = None) -> tuple[int, int]:
        """Backward-search ``query``; returns its SA interval ``[lo, hi)``.

        An empty interval (``lo >= hi``) means no occurrence.
        """
        codes = encode(query)
        lo, hi = self.full_interval()
        for c in codes[::-1]:
            lo, hi = self.extend_backward((lo, hi), int(c), instr)
            if lo >= hi:
                return lo, lo
        return lo, hi

    def count(self, query: str, instr: Instrumentation | None = None) -> int:
        """Number of occurrences of ``query`` in the reference."""
        lo, hi = self.search(query, instr)
        return max(0, hi - lo)

    def locate(
        self,
        interval: tuple[int, int],
        max_hits: int | None = None,
        instr: Instrumentation | None = None,
    ) -> list[int]:
        """Reference positions of the matches in SA ``interval``, sorted."""
        lo, hi = interval
        if max_hits is not None:
            hi = min(hi, lo + max_hits)
        hits = sorted(int(self.sa[i]) for i in range(lo, hi))
        if instr is not None:
            instr.counts.add("load", hi - lo)
            instr.counts.add("scalar_int", 2 * (hi - lo))
            if instr.trace is not None:
                _, sa_region = self._regions(instr)
                n_entries = sa_region.size // 8
                for i in range(lo, hi):
                    entry = (i * n_entries) // max(1, self.bwt.size)
                    instr.trace.read(sa_region, min(entry, n_entries - 1) * 8, 8)
        return hits
