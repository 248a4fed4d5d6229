"""CIGAR strings describing read-to-reference alignments.

The pileup kernel's whole job is walking CIGARs ("random access into the
alignment record to extract and parse alignment information", Section
III), so this module implements the SAM CIGAR semantics in full: the nine
operation codes, query/reference span accounting, coordinate walking, and
construction from the read simulator's ground-truth operations.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Iterable, Iterator

import numpy as np


class CigarOp(enum.Enum):
    """SAM CIGAR operation codes with their consumption semantics."""

    MATCH = "M"  # alignment match (may be mismatch)
    INS = "I"  # insertion to the reference
    DEL = "D"  # deletion from the reference
    REF_SKIP = "N"  # skipped reference region (introns)
    SOFT_CLIP = "S"  # clipped query bases kept in SEQ
    HARD_CLIP = "H"  # clipped query bases absent from SEQ
    PAD = "P"  # silent deletion from padded reference
    EQUAL = "="  # sequence match
    DIFF = "X"  # sequence mismatch

    def __init__(self, code: str) -> None:
        # plain attributes, not properties: span sums read them per op
        #: True when the operation advances through the read.
        self.consumes_query = code in "MIS=X"
        #: True when the operation advances along the reference.
        self.consumes_reference = code in "MDN=X"
        #: The op's integer code in BAM records (its place in this enum).
        self.bam_code = "MIDNSHP=X".index(code)


_CIGAR_RE = re.compile(r"(\d+)([MIDNSHP=X])")


class Cigar:
    """An immutable sequence of ``(CigarOp, length)`` pairs."""

    __slots__ = ("_ops",)

    def __init__(self, ops: Iterable[tuple[CigarOp, int]]) -> None:
        normalized = []
        for op, length in ops:
            if not isinstance(op, CigarOp):
                op = CigarOp(op)
            length = int(length)
            if length <= 0:
                raise ValueError(f"CIGAR lengths must be positive, got {length}{op.value}")
            if normalized and normalized[-1][0] is op:
                normalized[-1] = (op, normalized[-1][1] + length)
            else:
                normalized.append((op, length))
        self._ops = tuple(normalized)

    @classmethod
    def parse(cls, text: str) -> "Cigar":
        """Parse a SAM CIGAR string such as ``"50M2I48M"``."""
        if text == "*" or not text:
            return cls([])
        matched = "".join(f"{n}{c}" for n, c in _CIGAR_RE.findall(text))
        if matched != text:
            raise ValueError(f"malformed CIGAR string: {text!r}")
        return cls((CigarOp(c), int(n)) for n, c in _CIGAR_RE.findall(text))

    def __str__(self) -> str:
        if not self._ops:
            return "*"
        return "".join(f"{length}{op.value}" for op, length in self._ops)

    def __repr__(self) -> str:
        return f"Cigar({str(self)!r})"

    def __iter__(self) -> Iterator[tuple[CigarOp, int]]:
        return iter(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cigar):
            return NotImplemented
        return self._ops == other._ops

    def __hash__(self) -> int:
        return hash(self._ops)

    @property
    def query_length(self) -> int:
        """Read bases consumed (length of SEQ for a valid record)."""
        return sum(length for op, length in self._ops if op.consumes_query)

    @property
    def reference_length(self) -> int:
        """Reference bases spanned by the alignment."""
        return sum(length for op, length in self._ops if op.consumes_reference)

    def reversed(self) -> "Cigar":
        """The CIGAR read in the opposite orientation."""
        return Cigar(reversed(self._ops))

    def walk(self, ref_start: int) -> Iterator[tuple[CigarOp, int, int, int]]:
        """Yield ``(op, length, ref_pos, query_pos)`` per operation.

        ``ref_pos``/``query_pos`` are the coordinates at which the
        operation begins; clipping and padding advance neither or only the
        query, exactly as in SAM.
        """
        ref = ref_start
        query = 0
        for op, length in self._ops:
            yield op, length, ref, query
            if op.consumes_reference:
                ref += length
            if op.consumes_query:
                query += length


#: The CIGAR op of each symbol a truth-operation stream expands to.
_TRUTH_SYMBOLS = (CigarOp.MATCH, CigarOp.INS, CigarOp.DEL)


def cigar_from_truth_ops(ops: np.ndarray, reverse: bool = False) -> Cigar:
    """Build the ground-truth CIGAR from simulator error operations.

    ``ops`` is the per-reference-base array produced by the read
    simulator (0=match, 1=substitution, 2=insertion after the base,
    3=deletion), in read orientation.  With ``reverse`` the CIGAR is
    flipped into reference orientation for reverse-strand reads.
    """
    codes = np.asarray(ops).astype(np.int64)
    unknown = np.flatnonzero((codes < 0) | (codes > 3))
    if unknown.size:
        raise ValueError(f"unknown truth operation code {int(codes[unknown[0]])}")
    # each code emits one symbol (0, 1: M; 3: D), code 2 two (M then I)
    emits = 1 + (codes == 2)
    first = np.cumsum(emits) - emits
    symbols = np.zeros(int(emits.sum()), dtype=np.int8)  # index into _TRUTH_SYMBOLS
    symbols[first[codes == 2] + 1] = 1
    symbols[first[codes == 3]] = 2
    # run-length encode the symbol stream: one CIGAR op per run
    starts = np.flatnonzero(np.diff(symbols, prepend=-1))
    lengths = np.diff(starts, append=symbols.size)
    run_ops = [_TRUTH_SYMBOLS[s] for s in symbols[starts].tolist()]
    cigar = Cigar(zip(run_ops, lengths.tolist()))
    return cigar.reversed() if reverse else cigar
