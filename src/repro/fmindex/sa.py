"""Suffix array and Burrows-Wheeler transform construction.

The suffix array is built in vectorized numpy in two steps.  One sort
ranks every suffix by its first :data:`PACKED_SYMBOLS` symbols, packed
into one ``int64`` key.  Prefix doubling then refines only the suffixes
still tied after that sort (Larsson & Sadakane, "Faster suffix
sorting", TCS 2007): each round sorts the tied suffixes by the rank of
the suffix ``h`` positions later, where a suffix's rank is the position
of its group's head in the sorted order, and drops every suffix whose
group has become a singleton.  In random text nearly every suffix is
unique after the first sort, so the later rounds only sort the
repeat-sized remainder.  A terminating sentinel smaller than every base
is always appended, as the FM-index backward search requires.
"""

from __future__ import annotations

import numpy as np

#: Code used for the sentinel in the augmented text (smaller than 'A').
SENTINEL = -1

#: Symbols ranked by the first sort: 21 x 3 bits fill an ``int64``.
PACKED_SYMBOLS = 21


def suffix_array(codes: np.ndarray) -> np.ndarray:
    """Suffix array of ``codes`` with an implicit terminal sentinel.

    ``codes`` is a ``uint8`` array over {0..3}.  The returned ``int64``
    array has length ``len(codes) + 1`` and lists the starting positions
    of the lexicographically sorted suffixes of ``codes + [sentinel]``;
    entry 0 is always ``len(codes)`` (the sentinel suffix).
    """
    codes = np.asarray(codes)
    if codes.ndim != 1:
        raise ValueError("codes must be a 1-D array")
    if codes.size and int(codes.max()) > 3:
        raise ValueError("codes must lie in {0, 1, 2, 3}")
    n = codes.size + 1
    # symbol 0 is the sentinel (and fills past the end); bases are 1..4
    text = np.zeros(n + PACKED_SYMBOLS - 1, dtype=np.int64)
    text[: n - 1] = codes.astype(np.int64) + 1
    key = np.zeros(n, dtype=np.int64)
    for t in range(PACKED_SYMBOLS):
        key <<= 3
        key |= text[t : t + n]
    order = np.argsort(key)
    # rank[i]: where the group of suffix i (suffixes sharing its first h
    # symbols) begins in ``order``
    rank = np.empty(n, dtype=np.int64)
    head = _group_heads(np.arange(n), key[order])
    rank[order] = head
    tied = _tied(head)
    h = PACKED_SYMBOLS
    while tied.size:
        # a tied suffix is longer than h (a shorter one holds the unique
        # sentinel within its first h symbols), so i + h stays in range
        sa = order[tied]
        key = rank[sa] * n + rank[sa + h]
        perm = np.argsort(key)
        sa = order[tied] = sa[perm]
        head = _group_heads(tied, key[perm])
        rank[sa] = head
        tied = tied[_tied(head)]
        h *= 2
    return order.astype(np.int64, copy=False)


def _group_heads(slots: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """For sorted ``keys`` at increasing ``slots`` of the order, the slot
    where each key's run of equal keys begins."""
    starts = np.ones(keys.size, dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return np.maximum.accumulate(np.where(starts, slots, 0))


def _tied(head: np.ndarray) -> np.ndarray:
    """Indices of the entries of ``head`` whose group has another member."""
    starts = np.ones(head.size + 1, dtype=bool)
    starts[1:-1] = head[1:] != head[:-1]
    # a singleton group starts at its entry and again right after it
    return np.nonzero(~(starts[:-1] & starts[1:]))[0]


def bwt_from_sa(codes: np.ndarray, sa: np.ndarray) -> tuple[np.ndarray, int]:
    """Burrows-Wheeler transform from a suffix array.

    Returns ``(bwt, primary)`` where ``bwt`` is a ``uint8`` array of
    length ``len(sa)`` over {0..3} and ``primary`` is the index holding
    the (virtual) sentinel -- ``bwt[primary]`` must be skipped by rank
    queries, exactly like BWA's ``primary`` field.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    sa = np.asarray(sa, dtype=np.int64)
    if sa.size != codes.size + 1:
        raise ValueError("suffix array length must be len(codes) + 1")
    bwt = np.empty(sa.size, dtype=np.uint8)
    prev = sa - 1
    primary = int(np.nonzero(sa == 0)[0][0])
    prev[primary] = 0  # placeholder, overwritten below
    bwt[:] = codes[prev]
    bwt[primary] = 0  # value never counted; rank queries skip `primary`
    return bwt, primary


def verify_suffix_array(codes: np.ndarray, sa: np.ndarray) -> bool:
    """Check ``sa`` is the true suffix array of ``codes`` (for tests).

    Verifies that it is a permutation and that consecutive suffixes are
    in strictly increasing lexicographic order.
    """
    codes = np.asarray(codes, dtype=np.int64)
    n = codes.size + 1
    if sorted(sa.tolist()) != list(range(n)):
        return False
    aug = np.empty(n, dtype=np.int64)
    aug[:-1] = codes + 1
    aug[-1] = 0
    for a, b in zip(sa[:-1], sa[1:]):
        sx, sy = aug[a:], aug[b:]
        m = min(sx.size, sy.size)
        cmp = np.nonzero(sx[:m] != sy[:m])[0]
        if cmp.size == 0:
            if sx.size >= sy.size:
                return False
        elif sx[cmp[0]] > sy[cmp[0]]:
            return False
    return True
