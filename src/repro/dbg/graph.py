"""De-Bruijn graph over k-mers with hash-table construction tracking.

Nodes are k-mers; a directed edge links two k-mers adjacent in some
input sequence, weighted by how many sequences support it.  Edges seen
in the reference are flagged so pruning never disconnects the reference
path, as in Platypus/GATK assembly graphs.

Every node lookup or insertion goes through one hash-table probe
sequence; the instrumented path records the probed bucket addresses,
which is the irregular access stream that dominates this kernel's
memory behaviour.
"""

from __future__ import annotations

import zlib
from collections import defaultdict

from repro.core.instrument import Instrumentation

#: Modelled hash-table geometry for the memory trace: bucket count and
#: bucket size in bytes (pointer + packed k-mer + counts).
TRACE_BUCKETS = 1 << 16
TRACE_BUCKET_BYTES = 32


class DeBruijnGraph:
    """A De-Bruijn graph assembled from reads and a reference."""

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError("k-mer size must be at least 2")
        self.k = k
        #: per-node support count (occurrences over all inputs)
        self.nodes: dict[str, int] = {}
        #: adjacency with edge multiplicities
        self.edges: dict[str, dict[str, int]] = defaultdict(dict)
        #: edges present in the reference sequence
        self.ref_edges: set[tuple[str, str]] = set()
        #: total hash-table lookups performed during construction
        self.lookups = 0

    def _probe(self, kmer: str, instr: Instrumentation | None) -> None:
        """Account one hash lookup (and trace its bucket access)."""
        self.lookups += 1
        if instr is None:
            return
        # k-mer hashing, bucket probe, node/edge bookkeeping: the
        # per-lookup footprint of the assembler's graph construction
        instr.counts.add("load", 4)
        instr.counts.add("scalar_int", 32)
        instr.counts.add("store", 3)
        instr.counts.add("branch", 6)
        if instr.trace is not None:
            name = "dbg.hashtable"
            if name not in instr.trace.regions:
                instr.trace.alloc(name, TRACE_BUCKETS * TRACE_BUCKET_BYTES)
            region = instr.trace.region(name)
            # a stable hash: str hash() is salted per process
            bucket = zlib.crc32(kmer.encode()) % TRACE_BUCKETS
            instr.trace.read(region, bucket * TRACE_BUCKET_BYTES, TRACE_BUCKET_BYTES)

    def add_sequence(
        self, seq: str, is_ref: bool = False, instr: Instrumentation | None = None
    ) -> None:
        """Insert all k-mers of ``seq`` and the edges linking them."""
        k = self.k
        if len(seq) < k:
            return
        prev: str | None = None
        for i in range(len(seq) - k + 1):
            kmer = seq[i : i + k]
            self._probe(kmer, instr)
            self.nodes[kmer] = self.nodes.get(kmer, 0) + 1
            if prev is not None:
                out = self.edges[prev]
                out[kmer] = out.get(kmer, 0) + 1
                if is_ref:
                    self.ref_edges.add((prev, kmer))
            prev = kmer

    @property
    def n_nodes(self) -> int:
        """Distinct k-mers in the graph."""
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        """Distinct directed edges in the graph."""
        return sum(len(out) for out in self.edges.values())

    def prune(self, min_weight: int = 2) -> None:
        """Drop edges supported by fewer than ``min_weight`` sequences.

        Reference edges survive regardless, as in GATK's graph pruning.
        """
        for src in list(self.edges):
            out = self.edges[src]
            for dst in list(out):
                if out[dst] < min_weight and (src, dst) not in self.ref_edges:
                    del out[dst]
            if not out:
                del self.edges[src]

    def has_cycle(self) -> bool:
        """True when the graph contains a directed cycle.

        Iterative three-colour DFS; cycles force Platypus to rebuild
        with a larger k.
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        colour = dict.fromkeys(self.nodes, WHITE)
        for root in self.nodes:
            if colour[root] != WHITE:
                continue
            stack: list[tuple[str, object]] = [(root, None)]
            while stack:
                node, it = stack[-1]
                if it is None:
                    colour[node] = GRAY
                    it = iter(self.edges.get(node, ()))
                    stack[-1] = (node, it)
                advanced = False
                for nxt in it:
                    if nxt not in colour:
                        continue  # pruned / never-inserted successor
                    if colour[nxt] == GRAY:
                        return True
                    if colour[nxt] == WHITE:
                        stack.append((nxt, None))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return False

    def enumerate_haplotypes(
        self,
        source: str,
        sink: str,
        max_haplotypes: int = 64,
        max_length: int = 2000,
    ) -> list[str]:
        """All source-to-sink path strings, bounded in count and length.

        A path spells ``source`` followed by the last base of each
        subsequent k-mer.  The graph must be acyclic (checked by the
        caller); bounds guard against combinatorial blow-up in dense
        variant clusters.
        """
        if source not in self.nodes or sink not in self.nodes:
            return []
        haplotypes: list[str] = []
        # DFS over (node, assembled suffix beyond the source k-mer)
        stack: list[tuple[str, list[str]]] = [(source, [])]
        while stack and len(haplotypes) < max_haplotypes:
            node, suffix = stack.pop()
            if node == sink and suffix:
                haplotypes.append(source + "".join(suffix))
                continue
            if len(suffix) >= max_length:
                continue
            for nxt in self.edges.get(node, ()):
                stack.append((nxt, suffix + [nxt[-1]]))
        return sorted(haplotypes)
