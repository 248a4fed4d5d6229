"""``suffix_array`` against plain prefix doubling over every suffix.

:func:`suffix_array_all_rounds` is the reference: Manber-Myers prefix
doubling that re-sorts all ``n`` suffixes every round.  The kernel
(one packed-key sort, then doubling over tied groups only) must return
exactly the same ``int64`` array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datasets import DatasetSize, dataset_params, dataset_seed
from repro.fmindex.sa import suffix_array
from repro.sequence.alphabet import encode, reverse_complement
from repro.sequence.simulate import random_genome


def suffix_array_all_rounds(codes):
    """Reference suffix array: every round lexsorts all suffixes."""
    codes = np.asarray(codes)
    if codes.ndim != 1:
        raise ValueError("codes must be a 1-D array")
    if codes.size and int(codes.max()) > 3:
        raise ValueError("codes must lie in {0, 1, 2, 3}")
    n = codes.size + 1
    rank = np.empty(n, dtype=np.int64)
    rank[:-1] = codes.astype(np.int64) + 1
    rank[-1] = 0
    k = 1
    while True:
        key2 = np.full(n, -1, dtype=np.int64)
        if k < n:
            key2[: n - k] = rank[k:]
        order = np.lexsort((key2, rank))
        new_rank = np.empty(n, dtype=np.int64)
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        prev, cur = order[:-1], order[1:]
        changed[1:] = (rank[cur] != rank[prev]) | (key2[cur] != key2[prev])
        new_rank[order] = np.cumsum(changed)
        rank = new_rank
        if rank[order[-1]] == n - 1:
            return order
        k *= 2


def assert_same_sa(codes):
    got = suffix_array(codes)
    want = suffix_array_all_rounds(codes)
    assert got.dtype == np.int64
    assert got.tobytes() == want.astype(np.int64).tobytes()


def random_codes(length, alphabet=4, seed=0):
    return np.random.default_rng(seed).integers(0, alphabet, length).astype(np.uint8)


def test_fmi_small_text_and_its_reversal():
    # the text the fmi workload indexes: genome + revcomp(genome)
    size = DatasetSize.SMALL
    genome = random_genome(dataset_params("fmi", size)["genome_len"], seed=dataset_seed("fmi", size))
    codes = encode(genome + reverse_complement(genome))
    assert_same_sa(codes)
    assert_same_sa(codes[::-1].copy())


def test_tandem_repeat_in_random_text():
    unit = random_codes(200, seed=1)
    codes = np.concatenate([random_codes(1_000, seed=2), np.tile(unit, 5), random_codes(1_000, seed=3)])
    assert_same_sa(codes)


@pytest.mark.parametrize("code", range(4))
def test_homopolymer(code):
    assert_same_sa(np.full(3_000, code, dtype=np.uint8))


def test_period_five():
    assert_same_sa(np.tile(np.array([2, 0, 3, 3, 1], dtype=np.uint8), 600))


@pytest.mark.parametrize("length", [0, 1, 20, 21, 22])
@pytest.mark.parametrize("alphabet", [1, 4])
def test_lengths_around_the_packed_key(length, alphabet):
    assert_same_sa(random_codes(length, alphabet, seed=length))


@settings(max_examples=100, deadline=None)
@given(
    length=st.integers(min_value=0, max_value=3_000),
    alphabet=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_texts(length, alphabet, seed):
    assert_same_sa(random_codes(length, alphabet, seed))


@pytest.mark.parametrize(
    "codes",
    [np.zeros((2, 2), dtype=np.uint8), np.array([0, 5], dtype=np.uint8)],
    ids=["2-d", "code-5"],
)
def test_same_errors(codes):
    with pytest.raises(ValueError) as want:
        suffix_array_all_rounds(codes)
    with pytest.raises(ValueError) as got:
        suffix_array(codes)
    assert str(got.value) == str(want.value)
