"""Minimizer sketching, Minimap2-style.

A ``(w, k)`` minimizer is the k-mer with the smallest hash in each
window of ``w`` consecutive k-mers; sampling them gives a sketch that
two overlapping reads share along their common region.  Hashing uses an
invertible 64-bit mix (Minimap2's ``hash64``) so minimizer selection is
effectively random with respect to sequence content.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sequence.alphabet import encode

_MASK = (1 << 64) - 1


def _hash64(x: np.ndarray) -> np.ndarray:
    """Invertible 64-bit integer mix (Minimap2's ``hash64``)."""
    x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = (~x + (x << np.uint64(21))) & np.uint64(_MASK)
        x = x ^ (x >> np.uint64(24))
        x = (x + (x << np.uint64(3)) + (x << np.uint64(8))) & np.uint64(_MASK)
        x = x ^ (x >> np.uint64(14))
        x = (x + (x << np.uint64(2)) + (x << np.uint64(4))) & np.uint64(_MASK)
        x = x ^ (x >> np.uint64(28))
        x = (x + (x << np.uint64(31))) & np.uint64(_MASK)
    return x


@dataclass(frozen=True)
class Minimizer:
    """A sampled k-mer: its hash value and start position in the read."""

    value: int
    position: int


def kmer_hashes(seq: str, k: int) -> np.ndarray:
    """Hashes of every k-mer of ``seq`` (2-bit packed, then mixed)."""
    codes = encode(seq).astype(np.uint64)
    n = len(codes) - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    packed = np.zeros(n, dtype=np.uint64)
    for offset in range(k):
        packed = (packed << np.uint64(2)) | codes[offset : offset + n]
    return _hash64(packed)


def minimizers(seq: str, k: int = 15, w: int = 10) -> list[Minimizer]:
    """All ``(w, k)`` minimizers of ``seq``, in position order.

    Consecutive windows sharing the same minimum produce one entry, as
    in Minimap2's sketch.
    """
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
    arg = np.argmin(windows, axis=1)
    picks = arg + np.arange(windows.shape[0])
    # a window that keeps the previous window's pick adds no entry
    keep = np.ones(picks.size, dtype=bool)
    keep[1:] = picks[1:] != picks[:-1]
    picks = picks[keep]
    return [
        Minimizer(value=v, position=p)
        for v, p in zip(hashes[picks].tolist(), picks.tolist())
    ]
