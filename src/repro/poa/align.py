"""Sequence-to-graph alignment.

Aligns a read (global in the query, free ends on the graph) to a
partial-order graph with linear gap penalties, spoa-style scoring
(match +5, mismatch -4, gap -8).  Rows are computed per graph node in
topological order; the in-row insertion recurrence is a max-plus prefix
scan, evaluated with ``np.maximum.accumulate`` so a whole query row
vectorizes -- the SIMD shift-based strategy the paper notes for spoa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.instrument import Instrumentation
from repro.poa.graph import POAGraph
from repro.sequence.alphabet import encode

_NEG = -(1 << 40)

#: Virtual source id used for free graph starts.
VIRTUAL = -1


@dataclass
class GraphAlignment:
    """Result of aligning one sequence to the graph.

    ``pairs`` lists traceback steps in sequence order: ``(node, q)`` for
    a (mis)match, ``(node, None)`` for a deletion, ``(None, q)`` for an
    insertion.  ``cells`` is the kernel's work unit: per-cell effort
    weighted by in-degree, matching the paper's
    ``O((2*n_p + 1) * n * |V|)`` complexity.
    """

    score: int
    pairs: list[tuple[int | None, int | None]]
    cells: int


class GraphAligner:
    """Aligns sequences to a :class:`POAGraph`."""

    def __init__(self, match: int = 5, mismatch: int = -4, gap: int = -8) -> None:
        if match <= 0 or mismatch >= 0 or gap >= 0:
            raise ValueError("expected positive match, negative mismatch and gap")
        self.match = match
        self.mismatch = mismatch
        self.gap = gap

    def align(
        self,
        graph: POAGraph,
        seq: str,
        instr: Instrumentation | None = None,
    ) -> GraphAlignment:
        """Align ``seq`` to ``graph`` and return score plus traceback."""
        if not len(graph):
            raise ValueError("cannot align to an empty graph")
        if not seq:
            raise ValueError("cannot align an empty sequence")
        q = encode(seq).astype(np.int64)
        n = len(q)
        g = self.gap
        order = graph.topological_order()
        gap_ramp = np.arange(n + 1, dtype=np.int64) * g
        virtual_row = gap_ramp  # leading insertions are penalized
        rows: dict[int, np.ndarray] = {VIRTUAL: virtual_row}
        cells = 0
        base_codes = encode("".join(graph.bases))
        # Per read, not per node: the four match rows, and for each base
        # the candidates from the virtual source (a free start at every
        # node: its diagonal and its deletion).
        match_rows = np.where(q == np.arange(4)[:, None], self.match, self.mismatch)
        start_rows = np.empty((4, n + 1), dtype=np.int64)
        start_rows[:, 0] = _NEG
        np.add(virtual_row[:-1], match_rows, out=start_rows[:, 1:])
        np.maximum(start_rows, virtual_row + g, out=start_rows)
        for v in order:
            code = base_codes[v]
            cand = start_rows[code].copy()
            preds = graph.in_edges[v]
            if preds:
                # the row maxima of the real predecessors feed both moves
                it = iter(preds)
                hu = rows[next(it)]
                for u in it:
                    hu = np.maximum(hu, rows[u])
                np.maximum(cand[1:], hu[:-1] + match_rows[code], out=cand[1:])  # diagonal
                np.maximum(cand, hu + g, out=cand)  # deletion
            # insertion chain H[j] = max(cand[j], H[j-1] + g): prefix scan
            cand -= gap_ramp
            np.maximum.accumulate(cand, out=cand)
            cand += gap_ramp
            rows[v] = cand
            cells += (2 * len(preds) + 1) * n
        end_nodes = [v for v in order]
        best_v = max(end_nodes, key=lambda v: rows[v][n])
        score = int(rows[best_v][n])
        pairs = self._traceback(graph, rows, q, base_codes, best_v, n)
        if instr is not None:
            # row-vectorized graph DP: SIMD blend/shift/max per cell
            # group, scalar graph bookkeeping per node
            instr.counts.add("vector", cells // 2)
            instr.counts.add("load", cells // 2)
            instr.counts.add("store", cells // 4)
            instr.counts.add("scalar_int", cells // 3)
            instr.counts.add("branch", cells // 6)
            if instr.trace is not None:
                self._trace(instr, graph, n)
        return GraphAlignment(score=score, pairs=pairs, cells=cells)

    def _traceback(
        self,
        graph: POAGraph,
        rows: dict[int, np.ndarray],
        q: np.ndarray,
        base_codes: np.ndarray,
        v: int,
        j: int,
    ) -> list[tuple[int | None, int | None]]:
        g = self.gap
        pairs: list[tuple[int | None, int | None]] = []
        while v != VIRTUAL:
            hv = int(rows[v][j])
            if j > 0 and hv == int(rows[v][j - 1]) + g:
                pairs.append((None, j - 1))
                j -= 1
                continue
            preds = list(graph.in_edges[v]) + [VIRTUAL]
            s = self.match if q[j - 1] == base_codes[v] else self.mismatch
            moved = False
            if j > 0:
                for u in preds:
                    if hv == int(rows[u][j - 1]) + s:
                        pairs.append((v, j - 1))
                        v, j = u, j - 1
                        moved = True
                        break
            if moved:
                continue
            for u in preds:
                if hv == int(rows[u][j]) + g:
                    pairs.append((v, None))
                    v = u
                    moved = True
                    break
            if not moved:
                raise RuntimeError("traceback failed: inconsistent DP rows")
        # leading query bases before the alignment start are insertions
        for jj in range(j - 1, -1, -1):
            pairs.append((None, jj))
        pairs.reverse()
        return pairs

    def _trace(self, instr: Instrumentation, graph: POAGraph, n: int) -> None:
        """Record the incrementally growing graph-row footprint."""
        trace = instr.trace
        assert trace is not None
        name = "poa.rows"
        if name not in trace.regions:
            trace.alloc(name, 1 << 22)
        region = trace.region(name)
        row_bytes = (n + 1) * 4
        for v in range(0, len(graph), 8):  # sampled: every 8th node row
            start = (v * row_bytes) % (region.size - row_bytes - 64)
            trace.read_stream(region, start, row_bytes, access_size=64)
            trace.write_stream(region, start, row_bytes, access_size=64)
