"""``BatchedPairHMM``'s contiguous-diagonal sweep against a gather loop.

:class:`GatherPairHMM` is the reference: it builds the full
``(B, m+1, n+1)`` prior tensor and advances every anti-diagonal with
fancy-index gathers over lane-major state arrays.  The engine (state as
``(read row, lane)``, per-diagonal priors, three rotating buffers) must
return bitwise the same likelihoods and rescue counts, account the same
op counts and trace the same ``phmm.state`` stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datasets import DatasetSize
from repro.core.instrument import Instrumentation
from repro.phmm.benchmark import PhmmBenchmark
from repro.phmm.forward import FP_OPS_PER_CELL, BatchedPairHMM
from repro.phmm.model import emission_priors
from repro.sequence.simulate import random_genome


class GatherPairHMM(BatchedPairHMM):
    """Reference engine: prior tensor plus per-diagonal gathers."""

    def _lockstep(self, pairs, dtype, instr):
        t = self.params.transitions()
        B = len(pairs)
        mlens = np.array([len(p[0]) for p in pairs], dtype=np.int64)
        nlens = np.array([len(p[2]) for p in pairs], dtype=np.int64)
        m_max = int(mlens.max())
        n_max = int(nlens.max())
        priors = np.zeros((B, m_max + 1, n_max + 1), dtype=dtype)
        for b, (read, quals, hap) in enumerate(pairs):
            priors[b, 1 : len(read) + 1, 1 : len(hap) + 1] = emission_priors(read, quals, hap)
        size = m_max + 1
        M2, M1, I2, I1, D2, D1 = (np.zeros((B, size), dtype=dtype) for _ in range(6))
        inv_n = (1.0 / nlens).astype(dtype)
        D2[:, 0] = inv_n
        D1[:, 0] = inv_n
        acc = np.zeros(B, dtype=np.float64)
        lanes = np.arange(B)
        cells = 0
        for d in range(2, m_max + n_max + 1):
            lo = max(1, d - n_max)
            hi = min(m_max, d - 1)
            idx = np.arange(lo, hi + 1)
            cells += idx.size * B
            p = priors[:, idx, d - idx]
            M_new = np.zeros((B, size), dtype=dtype)
            I_new = np.zeros((B, size), dtype=dtype)
            D_new = np.zeros((B, size), dtype=dtype)
            M_new[:, idx] = p * (
                t["mm"] * M2[:, idx - 1] + t["im"] * I2[:, idx - 1] + t["dm"] * D2[:, idx - 1]
            )
            I_new[:, idx] = t["mi"] * M1[:, idx - 1] + t["ii"] * I1[:, idx - 1]
            D_new[:, idx] = t["md"] * M1[:, idx] + t["dd"] * D1[:, idx]
            if d <= n_max:
                D_new[:, 0] = inv_n
            j_here = d - mlens
            take = (j_here >= 1) & (j_here <= nlens)
            if take.any():
                rows = mlens[take]
                acc[take] += M_new[lanes[take], rows].astype(np.float64) + I_new[
                    lanes[take], rows
                ].astype(np.float64)
            M2, M1 = M1, M_new
            I2, I1 = I1, I_new
            D2, D1 = D1, D_new
        if instr is not None:
            instr.counts.add("fp", FP_OPS_PER_CELL * cells)
            instr.counts.add("load", 6 * cells)
            instr.counts.add("store", 3 * cells)
            instr.counts.add("scalar_int", cells)
            instr.counts.add("branch", cells // 4)
            if instr.trace is not None:
                self._trace(instr, B, m_max, len(pairs))
        return acc


def assert_same_likelihoods(reads, haps):
    got, got_rescued = BatchedPairHMM().region_likelihoods(reads, haps)
    want, want_rescued = GatherPairHMM().region_likelihoods(reads, haps)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got_rescued == want_rescued
    return got_rescued


def quals(n, q=30):
    return np.full(n, q, dtype=np.int64)


@pytest.fixture(scope="module")
def small_regions():
    return PhmmBenchmark().prepare(DatasetSize.SMALL).regions


def test_small_workload_regions(small_regions):
    # includes the 945-pair region that sets the kernel's peak
    assert max(len(r.reads) * len(r.haplotypes) for r in small_regions) == 945
    for region in small_regions:
        assert_same_likelihoods(region.reads, region.haplotypes)


@settings(max_examples=25, deadline=None)
@given(
    reads=st.lists(
        st.tuples(
            st.text(alphabet="ACGT", min_size=1, max_size=40), st.integers(2, 41)
        ),
        min_size=1,
        max_size=4,
    ),
    haps=st.lists(st.text(alphabet="ACGT", min_size=1, max_size=50), min_size=1, max_size=4),
)
def test_mixed_lengths(reads, haps):
    # unequal read and haplotype lengths leave padded rows and columns
    assert_same_likelihoods([(r, quals(len(r), q)) for r, q in reads], haps)


def test_low_quality_batch_takes_the_float64_rescue():
    hap = random_genome(140, seed=21)
    reads = []
    for shift in range(3):
        read = list(hap[shift : shift + 100])
        for i in range(shift, 100, 3):
            read[i] = "A" if read[i] != "A" else "C"
        reads.append(("".join(read), quals(100, 40)))
    reads.append((hap[10:110], quals(100, 8)))
    assert assert_same_likelihoods(reads, [hap, hap[5:]]) > 0


def test_single_pair():
    hap = random_genome(60, seed=3)
    assert_same_likelihoods([(hap[4:44], quals(40))], [hap])


def test_instrumented_counts_and_trace(small_regions):
    region = small_regions[0]
    got, want = Instrumentation.with_trace(), Instrumentation.with_trace()
    BatchedPairHMM().region_likelihoods(region.reads, region.haplotypes, instr=got)
    GatherPairHMM().region_likelihoods(region.reads, region.haplotypes, instr=want)
    assert got.counts == want.counts
    assert got.trace.regions == want.trace.regions
    assert list(got.trace.accesses()) == list(want.trace.accesses())


@pytest.mark.parametrize(
    "reads, haps",
    [
        ([("ACGT", quals(3))], ["ACGTA"]),
        ([("ACGT", quals(4)), ("ACNT", quals(4))], ["ACGTA"]),
        ([("ACGT", quals(4))], ["ACGTA", "ACXTA"]),
    ],
    ids=["quality-length", "read-base", "haplotype-base"],
)
def test_same_errors(reads, haps):
    with pytest.raises(ValueError) as want:
        GatherPairHMM().region_likelihoods(reads, haps)
    with pytest.raises(ValueError) as got:
        BatchedPairHMM().region_likelihoods(reads, haps)
    assert str(got.value) == str(want.value)
