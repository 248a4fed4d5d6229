"""Genomic region arithmetic.

The irregular kernels parallelize over genome regions (Table III); this
module provides the region type and the fixed-size partitioning the
pileup kernel applies ("distributing the processing of different 100
kilobase regions of the reference genome to different CPU threads").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class GenomicRegion:
    """Half-open interval ``[start, end)`` on a named contig."""

    __slots__ = ("contig", "start", "end")

    contig: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"region start must be non-negative, got {self.start}")
        if self.end <= self.start:
            raise ValueError(f"region end {self.end} must exceed start {self.start}")

    def __getstate__(self) -> dict:
        # the state a dict-backed instance pickled to, so cached workloads
        # that hold regions load either way
        return {"contig": self.contig, "start": self.start, "end": self.end}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.end - self.start

    def __str__(self) -> str:
        return f"{self.contig}:{self.start}-{self.end}"

    def contains(self, pos: int) -> bool:
        """True when reference position ``pos`` lies in the region."""
        return self.start <= pos < self.end

    def overlaps(self, other: "GenomicRegion") -> bool:
        """True when the two regions share at least one base."""
        return (
            self.contig == other.contig
            and self.start < other.end
            and other.start < self.end
        )

    def intersect(self, other: "GenomicRegion") -> "GenomicRegion | None":
        """The overlapping sub-region, or ``None`` if disjoint."""
        if not self.overlaps(other):
            return None
        return GenomicRegion(
            contig=self.contig,
            start=max(self.start, other.start),
            end=min(self.end, other.end),
        )


def partition_genome(
    contig: str, length: int, region_size: int
) -> list[GenomicRegion]:
    """Split ``[0, length)`` into consecutive regions of ``region_size``.

    The final region absorbs the remainder, mirroring how Medaka tiles
    the reference for its pileup workers.
    """
    if length <= 0:
        raise ValueError("contig length must be positive")
    if region_size <= 0:
        raise ValueError("region size must be positive")
    # One region per tile, 1e5 of them at region_size 1.  Every tile is
    # valid by construction, so fill the slots directly rather than pay
    # the frozen ``__init__`` and its checks per tile.
    new = object.__new__
    set_contig = GenomicRegion.contig.__set__
    set_start = GenomicRegion.start.__set__
    set_end = GenomicRegion.end.__set__
    regions = []
    for start in range(0, length, region_size):
        region = new(GenomicRegion)
        set_contig(region, contig)
        set_start(region, start)
        set_end(region, min(start + region_size, length))
        regions.append(region)
    return regions
