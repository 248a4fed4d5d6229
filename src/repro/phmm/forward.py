"""Forward-algorithm engines for the pair-HMM.

:func:`forward_likelihood` is the plain double-precision reference.
:class:`BatchedPairHMM` is the production engine: it advances all
read-haplotype pairs of a genome region in lockstep along anti-diagonals
(wavefront intra-task parallelism, paper Fig. 2d), computing in float32
and re-running underflowing pairs in float64 -- the same
single-precision-with-double-rescue scheme as GATK's AVX kernel.  Its
state is stored as (read row, lane) in three rotating buffers per state,
so each anti-diagonal's rows are one contiguous slice, and each
diagonal's emission priors are picked from per-read ``1 - err`` and
``err / 3`` columns where the read codes agree with a reversed haplotype
code array.

Recurrences (paper Section III)::

    M[i,j] = P[i,j] * (t_mm*M[i-1,j-1] + t_im*I[i-1,j-1] + t_dm*D[i-1,j-1])
    I[i,j] = t_mi*M[i-1,j] + t_ii*I[i-1,j]
    D[i,j] = t_md*M[i,j-1] + t_dd*D[i,j-1]

with free start along the haplotype (``D[0,j] = 1/n``) and the final
likelihood ``sum_j M[m,j] + I[m,j]``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.instrument import Instrumentation
from repro.phmm.model import HMMParameters, emission_priors, read_priors
from repro.sequence.alphabet import encode

#: Below this float32 result the engine recomputes the pair in float64.
UNDERFLOW_THRESHOLD = 1e-28

#: Abstract operations accounted per cell update (muls + adds of the
#: three recurrences), used by the instruction-mix characterization.
FP_OPS_PER_CELL = 12


def forward_likelihood(
    read: str,
    qualities: np.ndarray,
    haplotype: str,
    params: HMMParameters | None = None,
) -> float:
    """Reference forward likelihood in double precision (row-wise loops)."""
    params = params or HMMParameters()
    t = params.transitions()
    m, n = len(read), len(haplotype)
    if m == 0 or n == 0:
        raise ValueError("read and haplotype must be non-empty")
    priors = emission_priors(read, qualities, haplotype)
    M = np.zeros((m + 1, n + 1), dtype=np.float64)
    I = np.zeros((m + 1, n + 1), dtype=np.float64)
    D = np.zeros((m + 1, n + 1), dtype=np.float64)
    D[0, :] = 1.0 / n
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            M[i, j] = priors[i - 1, j - 1] * (
                t["mm"] * M[i - 1, j - 1]
                + t["im"] * I[i - 1, j - 1]
                + t["dm"] * D[i - 1, j - 1]
            )
            I[i, j] = t["mi"] * M[i - 1, j] + t["ii"] * I[i - 1, j]
            D[i, j] = t["md"] * M[i, j - 1] + t["dd"] * D[i, j - 1]
    return float(np.sum(M[m, 1:]) + np.sum(I[m, 1:]))


def log10_likelihood(
    read: str,
    qualities: np.ndarray,
    haplotype: str,
    params: HMMParameters | None = None,
) -> float:
    """``log10`` of the reference forward likelihood."""
    return math.log10(forward_likelihood(read, qualities, haplotype, params))


class BatchedPairHMM:
    """Wavefront engine over all pairs of one region, float32 + rescue."""

    def __init__(self, params: HMMParameters | None = None) -> None:
        self.params = params or HMMParameters()

    def region_likelihoods(
        self,
        reads: list[tuple[str, np.ndarray]],
        haplotypes: list[str],
        instr: Instrumentation | None = None,
    ) -> tuple[np.ndarray, int]:
        """Likelihood matrix of shape ``(len(reads), len(haplotypes))``.

        Returns the matrix and the number of pairs that needed the
        double-precision rescue pass.
        """
        pairs = [
            (read, quals, hap) for read, quals in reads for hap in haplotypes
        ]
        likes, rescued = self._run_pairs(pairs, instr)
        return likes.reshape(len(reads), len(haplotypes)), rescued

    def _run_pairs(
        self,
        pairs: list[tuple[str, np.ndarray, str]],
        instr: Instrumentation | None,
    ) -> tuple[np.ndarray, int]:
        likes = self._lockstep(pairs, np.float32, instr)
        low = np.nonzero(likes < UNDERFLOW_THRESHOLD)[0]
        rescued = 0
        if low.size:
            redo = [pairs[int(k)] for k in low]
            fixed = self._lockstep(redo, np.float64, instr)
            likes = likes.astype(np.float64)
            likes[low] = fixed
            rescued = int(low.size)
        return np.asarray(likes, dtype=np.float64), rescued

    def _lockstep(
        self,
        pairs: list[tuple[str, np.ndarray, str]],
        dtype,
        instr: Instrumentation | None,
    ) -> np.ndarray:
        t = {k: dtype(v) for k, v in self.params.transitions().items()}
        B = len(pairs)
        mlens = np.array([len(p[0]) for p in pairs], dtype=np.int64)
        nlens = np.array([len(p[2]) for p in pairs], dtype=np.int64)
        m_max = int(mlens.max())
        n_max = int(nlens.max())
        shape = (m_max + 1, B)
        # row i of lane b holds read base i - 1 and its two priors (the
        # prior of a cell is ``hit`` where the bases agree, else ``miss``);
        # rows past a read stay 0.  ``hap_rev`` holds each haplotype
        # reversed and right-aligned, so the bases the cells (i, d - i)
        # of diagonal d meet are rows ``i - d + n_max``: one slice.
        read_codes = np.zeros(shape, dtype=np.uint8)
        hit = np.zeros(shape, dtype=dtype)
        miss = np.zeros(shape, dtype=dtype)
        hap_rev = np.zeros((n_max, B), dtype=np.uint8)
        for b, (read, quals, hap) in enumerate(pairs):
            span = slice(1, len(read) + 1)
            read_codes[span, b], hit[span, b], miss[span, b] = read_priors(read, quals)
            hap_rev[n_max - len(hap) :, b] = encode(hap)[::-1]
        # state arrays indexed (read row i, lane) along each anti-diagonal,
        # three per state: diagonals d - 2, d - 1 and d live in buffers
        # d % 3.  A cell outside a pair's rectangle never feeds one inside
        # it, and a row a buffer never wrote reads 0 -- row 0 of M and I,
        # and each diagonal's column-0 cell (d, 0)
        M = [np.zeros(shape, dtype=dtype) for _ in range(3)]
        I = [np.zeros(shape, dtype=dtype) for _ in range(3)]
        D = [np.zeros(shape, dtype=dtype) for _ in range(3)]
        inv_n = (1.0 / nlens).astype(dtype)
        # diagonal d holds cells (i, d - i); boundary row 0 has D = 1/n
        D[0][0] = inv_n  # cell (0, 0) lives on diagonal 0
        D[1][0] = inv_n  # cell (0, 1) lives on diagonal 1
        match = np.empty(shape, dtype=bool)
        prior = np.empty(shape, dtype=dtype)
        total = np.empty(shape, dtype=dtype)
        term = np.empty(shape, dtype=dtype)
        # the final-row cell (mlen, j), 1 <= j <= nlen, lies on diagonal mlen + j
        first, last = mlens + 1, mlens + nlens
        acc = np.zeros(B, dtype=np.float64)
        cells = 0
        for d in range(2, m_max + n_max + 1):
            lo = max(1, d - n_max)
            hi = min(m_max, d - 1)
            k = hi - lo + 1
            cells += k * B
            rows, above = slice(lo, hi + 1), slice(lo - 1, hi)
            M2, M1, M0 = M[(d + 1) % 3], M[(d + 2) % 3], M[d % 3]
            I2, I1, I0 = I[(d + 1) % 3], I[(d + 2) % 3], I[d % 3]
            D2, D1, D0 = D[(d + 1) % 3], D[(d + 2) % 3], D[d % 3]
            eq, p, s, u = match[:k], prior[:k], total[:k], term[:k]
            m0, i0, d0 = M0[rows], I0[rows], D0[rows]
            np.equal(read_codes[rows], hap_rev[lo - d + n_max : hi - d + n_max + 1], out=eq)
            np.copyto(p, miss[rows])
            np.copyto(p, hit[rows], where=eq)
            # M's predecessor (i-1, j-1) sits at row i-1 on diagonal d-2
            np.multiply(M2[above], t["mm"], out=s)
            s += np.multiply(I2[above], t["im"], out=u)
            s += np.multiply(D2[above], t["dm"], out=u)
            np.multiply(p, s, out=m0)
            # I consumes a read base: predecessor (i-1, j) sits at row
            # i-1 on diagonal d-1.  D consumes a haplotype base: its
            # predecessor (i, j-1) keeps row i on diagonal d-1.
            np.multiply(M1[above], t["mi"], out=i0)
            i0 += np.multiply(I1[above], t["ii"], out=u)
            np.multiply(M1[rows], t["md"], out=d0)
            d0 += np.multiply(D1[rows], t["dd"], out=u)
            # boundary: cell (0, d) has D = 1/n, M = I = 0
            if d <= n_max:
                D0[0] = inv_n
            take = np.nonzero((first <= d) & (d <= last))[0]
            if take.size:
                at = mlens[take]
                acc[take] += M0[at, take].astype(np.float64) + I0[at, take].astype(
                    np.float64
                )
        if instr is not None:
            instr.counts.add("fp", FP_OPS_PER_CELL * cells)
            instr.counts.add("load", 6 * cells)
            instr.counts.add("store", 3 * cells)
            instr.counts.add("scalar_int", cells)
            instr.counts.add("branch", cells // 4)
            if instr.trace is not None:
                self._trace(instr, B, m_max, len(pairs))
        return acc

    #: lanes of the modelled AVX engine (8 x float32), which bounds the
    #: working set the trace records
    TRACE_LANES = 8

    def _trace(self, instr: Instrumentation, B: int, m_max: int, n_pairs: int) -> None:
        """Record the small, reused state-array footprint (near-zero BPKI).

        The real kernel processes 8 pairs per vector with six small state
        rows -- a few KB that never leave L1, which is why phmm shows
        0.02 BPKI in the paper.
        """
        trace = instr.trace
        assert trace is not None
        name = "phmm.state"
        sweep = 6 * self.TRACE_LANES * (m_max + 1) * 4
        if name not in trace.regions:
            trace.alloc(name, sweep)
        region = trace.region(name)
        sweep = min(region.size, sweep)
        trace.read_stream(region, 0, sweep, access_size=64)
        trace.write_stream(region, 0, sweep, access_size=64)
