"""``GraphAligner.align`` against a per-node reference loop.

:func:`align_per_node` is the reference: every node rebuilds its match
row, visits the virtual source like any predecessor and runs its own
insertion scan.  The kernel must give the same score, traceback pairs
and cell count on every alignment of a consensus run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datasets import DatasetSize
from repro.poa.align import _NEG, VIRTUAL, GraphAligner
from repro.poa.benchmark import PoaBenchmark
from repro.poa.graph import POAGraph
from repro.sequence.alphabet import encode


def align_per_node(aligner, graph, seq):
    """Reference DP: ``(score, pairs, cells)`` with all setup per node."""
    q = encode(seq).astype(np.int64)
    n = len(q)
    g = aligner.gap
    order = graph.topological_order()
    idx = np.arange(n + 1, dtype=np.int64)
    rows = {VIRTUAL: idx * g}
    cells = 0
    base_codes = encode("".join(graph.bases))
    for v in order:
        sv = np.where(q == base_codes[v], aligner.match, aligner.mismatch)
        preds = list(graph.in_edges[v]) or [VIRTUAL]
        if VIRTUAL not in preds:
            preds.append(VIRTUAL)
        cand = np.full(n + 1, _NEG, dtype=np.int64)
        for u in preds:
            hu = rows[u]
            np.maximum(cand[1:], hu[:-1] + sv, out=cand[1:])
            np.maximum(cand, hu + g, out=cand)
        rows[v] = np.maximum.accumulate(cand - idx * g) + idx * g
        cells += (2 * len(graph.in_edges[v]) + 1) * n
    best_v = max(order, key=lambda v: rows[v][n])
    pairs = aligner._traceback(graph, rows, q, base_codes, best_v, n)
    return int(rows[best_v][n]), pairs, cells


def assert_consensus_run_matches(aligner, sequences):
    """Grow a graph from ``sequences``, checking every alignment."""
    graph = POAGraph()
    graph.add_first_sequence(sequences[0])
    for seq in sequences[1:]:
        got = aligner.align(graph, seq)
        assert (got.score, got.pairs, got.cells) == align_per_node(aligner, graph, seq)
        graph.merge_alignment(seq, got.pairs)


def test_benchmark_windows_match_reference():
    windows = PoaBenchmark().prepare(DatasetSize.SMALL).windows[:4]
    for window in windows:
        assert_consensus_run_matches(GraphAligner(), window.sequences)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.text(alphabet="ACGT", min_size=1, max_size=30), min_size=2, max_size=6),
    st.sampled_from([(5, -4, -8), (1, -1, -1), (2, -3, -1)]),
)
def test_random_graphs_match_reference(sequences, scores):
    assert_consensus_run_matches(GraphAligner(*scores), sequences)
