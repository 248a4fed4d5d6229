"""Partitioning alignment records across worker regions.

Medaka tiles the reference into fixed regions (100 kb in the paper) and
hands each region's overlapping records to a thread.  Records spanning
a boundary are listed in every region they touch, exactly as a BAM
range query returns them.
"""

from __future__ import annotations

from repro.io.regions import GenomicRegion, partition_genome
from repro.io.sam import AlignmentRecord


def reads_by_region(
    records: list[AlignmentRecord],
    contig: str,
    contig_length: int,
    region_size: int,
) -> list[tuple[GenomicRegion, list[AlignmentRecord]]]:
    """Group coordinate-sorted records by fixed-size region.

    Returns ``(region, overlapping_records)`` pairs covering the contig.
    """
    regions = partition_genome(contig, contig_length, region_size)
    # each record's reference span, computed once rather than per region
    spans = [
        (rec, rec.region())
        for rec in records
        if rec.rname == contig and not rec.is_unmapped
    ]
    return [
        (region, [rec for rec, span in spans if span.overlaps(region)])
        for region in regions
    ]
