"""Inter-sequence vectorized Smith-Waterman (the BWA-MEM2 strategy).

Rather than vectorizing the cell updates of one alignment, many
alignments advance through the same ``(i, j)`` cell loop in lockstep,
one pair per SIMD lane.  This sidesteps the in-row ``E`` dependency but
pays two overheads the paper quantifies (Section IV-B):

* lanes are padded to the longest query/target in their lane group, and
* no lane can Z-drop out early on a dissimilar pair; the whole group
  runs on.

Together these make the vectorized engine execute ~2.2x more cell
updates than the scalar code on BWA-MEM seed-extension inputs.
:class:`BatchedSW` executes the lockstep loop with numpy lanes and
reports both the useful (per-pair) and the SIMD (padded lane-group)
cell-update counts, grouped by the modelled SIMD width.

The numpy engine evaluates a whole band row of every lane at once rather
than cell by cell: the diagonal and ``F`` terms have no in-row
dependency, and ``E`` is a max-plus prefix scan.  Only the evaluation
order differs from the modelled engine's; scores, end cells, the SIMD
cell accounting, op counts and the traced row sweeps are its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.pairwise import AlignmentResult
from repro.align.scoring import ScoringScheme
from repro.core.instrument import Instrumentation
from repro.sequence.alphabet import encode

_NEG = -(1 << 30)


@dataclass
class BatchStats:
    """Cell-update accounting for one batch.

    ``useful_cells`` is the work a per-pair scalar engine would do for
    the same band (before Z-drop savings); ``simd_cells`` is what the
    modelled ``lanes``-wide engine executes after padding each lane
    group to its maximum dimensions.
    """

    useful_cells: int
    simd_cells: int
    lane_groups: int

    @property
    def overhead(self) -> float:
        """``simd_cells / useful_cells`` -- the paper's ~2.2x factor."""
        if self.useful_cells == 0:
            return float("nan")
        return self.simd_cells / self.useful_cells


class BatchedSW:
    """Lockstep multi-pair banded Smith-Waterman.

    ``lanes`` is the modelled SIMD width (16 for the AVX2 16-bit engine
    the paper measures).  Pairs are sorted by length before lane
    assignment, as the original kernel does, to minimize padding.
    """

    def __init__(
        self,
        scheme: ScoringScheme | None = None,
        band: int | None = None,
        lanes: int = 16,
    ) -> None:
        if lanes < 1:
            raise ValueError("lanes must be positive")
        self.scheme = scheme or ScoringScheme()
        self.band = band
        if band is not None and band < 1:
            raise ValueError("band must be a positive half-width")
        self.lanes = lanes

    def _banded_cells(self, m: int, n: int) -> int:
        """Cells inside the band of an ``m x n`` problem."""
        if self.band is None:
            return m * n
        i = np.arange(1, m + 1)
        widths = np.minimum(n, i + self.band) - np.maximum(1, i - self.band) + 1
        return int(widths[widths > 0].sum())

    def _banded_steps(self, m: int, n: int) -> int:
        """Lockstep ``(i, j)`` iterations for a padded ``m x n`` group."""
        return self._banded_cells(m, n)

    def align_batch(
        self,
        pairs: list[tuple[str, str]],
        instr: Instrumentation | None = None,
    ) -> tuple[list[AlignmentResult], BatchStats]:
        """Align every ``(query, target)`` pair; order of results matches input.

        Results are computed in one lockstep pass over the whole sorted
        batch (padding lanes cannot influence valid cells, so grouping
        does not change scores); the SIMD cell statistics model the
        ``lanes``-wide engine, each lane group padded to its own maxima.
        """
        if not pairs:
            return [], BatchStats(useful_cells=0, simd_cells=0, lane_groups=0)
        order = sorted(range(len(pairs)), key=lambda k: (len(pairs[k][0]), len(pairs[k][1])))
        # Modelled lane-group accounting (the paper's AVX2 engine).
        simd = 0
        groups = 0
        for g in range(0, len(order), self.lanes):
            lane_idx = order[g : g + self.lanes]
            m_max = max(len(pairs[k][0]) for k in lane_idx)
            n_max = max(len(pairs[k][1]) for k in lane_idx)
            steps = self._banded_steps(m_max, n_max)
            simd += self.lanes * steps  # partially filled groups still run full width
            groups += 1
            if instr is not None:
                instr.counts.add("vector", 10 * steps)
                instr.counts.add("load", 4 * steps)
                instr.counts.add("store", 2 * steps)
                instr.counts.add("scalar_int", 2 * steps)
                instr.counts.add("branch", steps)
        sorted_pairs = [pairs[k] for k in order]
        sorted_results = self._run_group(sorted_pairs, instr)
        results: list[AlignmentResult | None] = [None] * len(pairs)
        for k, res in zip(order, sorted_results):
            results[k] = res
        useful = sum(r.cells for r in results)
        return list(results), BatchStats(useful, simd, groups)

    def _run_group(
        self,
        pairs: list[tuple[str, str]],
        instr: Instrumentation | None,
    ) -> list[AlignmentResult]:
        B = len(pairs)
        qlens = np.array([len(q) for q, _ in pairs], dtype=np.int64)
        tlens = np.array([len(t) for _, t in pairs], dtype=np.int64)
        m_max = int(qlens.max())
        n_max = int(tlens.max())
        q_pad = np.zeros((B, m_max), dtype=np.int64)
        t_pad = np.zeros((B, n_max), dtype=np.int64)
        for b, (q, t) in enumerate(pairs):
            q_pad[b, : len(q)] = encode(q)
            t_pad[b, : len(t)] = encode(t)
        # per-lane target profile: profile[b, c, j] = s(c, t_b[j]), so a
        # row's scores are one contiguous slice per lane
        profile = np.ascontiguousarray(np.moveaxis(self.scheme.matrix()[:, t_pad], 0, 1))
        del t_pad
        go, ge = self.scheme.gap_open, self.scheme.gap_extend
        # ``ge * j``: the E scan runs in gap-extend-shifted coordinates
        ramp = ge * np.arange(n_max + 2, dtype=np.int64)
        # a lane's cells past its own target are padding, never its best
        in_target = np.arange(n_max + 1) <= tlens[:, None]
        lanes = np.arange(B)
        # The previous row's band, from column plo on, framed by the cells
        # just outside it (H = 0, F = -inf): the next band reads at most
        # one column past either edge.  Row 0 spans every column.
        plo = 1
        h_prev = np.zeros((B, n_max + 2), dtype=np.int64)
        f_prev = np.full((B, n_max + 2), _NEG, dtype=np.int64)
        best = np.zeros(B, dtype=np.int64)
        best_i = np.zeros(B, dtype=np.int64)
        best_j = np.zeros(B, dtype=np.int64)
        for i in range(1, m_max + 1):
            lo = max(1, i - self.band) if self.band else 1
            hi = min(n_max, i + self.band) if self.band else n_max
            if lo > hi:
                break  # the band has left the matrix; so has every later row
            w = hi - lo + 1
            off = lo - plo  # column lo - 1 in the previous row's frame
            h_diag = h_prev[:, off : off + w]
            h_up = h_prev[:, off + 1 : off + 1 + w]
            f_up = f_prev[:, off + 1 : off + 1 + w]
            h_cur = np.empty((B, w + 2), dtype=np.int64)
            f_cur = np.empty((B, w + 2), dtype=np.int64)
            h_cur[:, 0] = h_cur[:, -1] = 0
            f_cur[:, 0] = f_cur[:, -1] = _NEG
            h = h_cur[:, 1:-1]
            f = f_cur[:, 1:-1]
            # F and the diagonal have no in-row dependency
            np.maximum(f_up - ge, h_up - (go + ge), out=f)
            np.add(h_diag, profile[lanes, q_pad[:, i - 1], lo - 1 : hi], out=h)
            np.maximum(h, f, out=h)
            np.maximum(h, 0, out=h)
            # E[j] = max(E[j-1], H[j-1] - go) - ge unrolls to
            # max_{k<j} H[k] - go - ge*(j-k) from H[lo-1] = 0.  An E-opened
            # H[k] never beats extending E[k] itself (go >= 0), so H without
            # E feeds the max-plus prefix scan.
            e = np.empty((B, w), dtype=np.int64)
            e[:, 0] = ramp[lo - 1] - go
            np.add(h[:, :-1], ramp[lo:hi] - go, out=e[:, 1:])
            np.maximum.accumulate(e, axis=1, out=e)
            e -= ramp[lo : hi + 1]
            np.maximum(h, e, out=h)
            # first cell of the row to beat a lane's running best, as a
            # cell-by-cell strict ``>`` update would keep
            cand = np.where(in_target[:, lo : hi + 1], h, 0)
            arg = cand.argmax(axis=1)
            row_best = cand[lanes, arg]
            improved = (row_best > best) & (i <= qlens)
            if improved.any():
                best = np.where(improved, row_best, best)
                best_i = np.where(improved, i, best_i)
                best_j = np.where(improved, lo + arg, best_j)
            if instr is not None and instr.trace is not None:
                self._trace_row(instr, B, n_max, i)
            h_prev, f_prev, plo = h_cur, f_cur, lo
        return [
            AlignmentResult(
                score=int(best[b]),
                query_end=int(best_i[b]),
                target_end=int(best_j[b]),
                cells=self._banded_cells(int(qlens[b]), int(tlens[b])),
            )
            for b in range(B)
        ]

    def _trace_row(self, instr: Instrumentation, B: int, n_max: int, i: int) -> None:
        """Record the row-sweep access pattern of the modelled engine.

        The real AVX2 kernel holds ``lanes`` interleaved rows, not the
        whole mega-batch, so the traced working set is the lane-group's
        (a few KB, L1/L2 resident -- why bsw is compute-bound).
        """
        trace = instr.trace
        assert trace is not None
        name = "bsw.rows"
        row_bytes = self.lanes * (n_max + 1) * 2
        if name not in trace.regions:
            trace.alloc(name, 4 * row_bytes)  # H and F rows, current + previous
        region = trace.region(name)
        # H row read + write, F row read + write; cache-line granular sweeps
        trace.read_stream(region, 0, row_bytes, access_size=64)
        trace.write_stream(region, row_bytes, row_bytes, access_size=64)
