"""``minimizers`` against a Python walk over every window's pick.

:func:`minimizers_walk` is the reference: it visits each window's
argmin in Python and appends a :class:`Minimizer` whenever the pick
differs from the previous window's.  The kernel must return the same
list.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.minimizer import Minimizer, kmer_hashes, minimizers
from repro.sequence.simulate import random_genome


def minimizers_walk(seq, k=15, w=10):
    """Reference sketch: one Python step per window."""
    if k < 1 or w < 1:
        raise ValueError("k and w must be positive")
    hashes = kmer_hashes(seq, k)
    n = hashes.size
    if n == 0:
        return []
    if n <= w:
        pos = int(np.argmin(hashes))
        return [Minimizer(value=int(hashes[pos]), position=pos)]
    windows = np.lib.stride_tricks.sliding_window_view(hashes, w)
    picks = np.argmin(windows, axis=1) + np.arange(windows.shape[0])
    out = []
    last = -1
    for p in picks:
        p = int(p)
        if p != last:
            out.append(Minimizer(value=int(hashes[p]), position=p))
            last = p
    return out


def assert_same_sketch(seq, k=15, w=10):
    got = minimizers(seq, k, w)
    want = minimizers_walk(seq, k, w)
    assert got == want
    assert all(type(m.value) is int and type(m.position) is int for m in got)


def test_chain_sized_read():
    assert_same_sketch(random_genome(8_000, seed=7))


@pytest.mark.parametrize("length", [0, 5, 14, 15, 16, 24, 25, 26])
def test_no_window_and_one_window(length):
    # n == 0 below k bases; n <= w up to k + w - 1 bases
    assert_same_sketch(random_genome(40, seed=1)[:length])


@pytest.mark.parametrize("seq", ["A" * 300, "AC" * 150, "ACGTT" * 60])
def test_runs_of_equal_hashes(seq):
    # equal k-mers hash equal: every window ties, argmin keeps the first
    assert_same_sketch(seq, k=5, w=4)


@settings(max_examples=50, deadline=None)
@given(
    seq=st.text(alphabet="ACGT", max_size=400),
    k=st.integers(1, 16),
    w=st.integers(1, 20),
)
def test_random_sequences(seq, k, w):
    assert_same_sketch(seq, k, w)
