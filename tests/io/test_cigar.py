"""Tests for CIGAR parsing, arithmetic and truth reconstruction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.io.cigar import Cigar, CigarOp, cigar_from_truth_ops

cigar_ops = st.lists(
    st.tuples(st.sampled_from("MIDNSHP=X"), st.integers(1, 50)),
    min_size=0,
    max_size=20,
)


class TestParsing:
    def test_parse_simple(self):
        c = Cigar.parse("10M2I5D3M")
        assert list(c) == [
            (CigarOp.MATCH, 10),
            (CigarOp.INS, 2),
            (CigarOp.DEL, 5),
            (CigarOp.MATCH, 3),
        ]

    def test_parse_star_is_empty(self):
        assert len(Cigar.parse("*")) == 0
        assert str(Cigar.parse("*")) == "*"

    def test_parse_rejects_garbage(self):
        for bad in ("10", "M", "10M3", "1Q", "-3M", "3M xx"):
            with pytest.raises(ValueError):
                Cigar.parse(bad)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            Cigar([(CigarOp.MATCH, 0)])

    def test_adjacent_same_ops_merge(self):
        c = Cigar([(CigarOp.MATCH, 3), (CigarOp.MATCH, 4)])
        assert list(c) == [(CigarOp.MATCH, 7)]

    @given(cigar_ops)
    def test_string_roundtrip(self, ops):
        c = Cigar((CigarOp(o), n) for o, n in ops)
        assert Cigar.parse(str(c)) == c


class TestSemantics:
    def test_query_and_reference_lengths(self):
        c = Cigar.parse("5S10M2I3D8M5H")
        assert c.query_length == 5 + 10 + 2 + 8
        assert c.reference_length == 10 + 3 + 8

    def test_op_consumption_flags(self):
        assert CigarOp.MATCH.consumes_query and CigarOp.MATCH.consumes_reference
        assert CigarOp.INS.consumes_query and not CigarOp.INS.consumes_reference
        assert not CigarOp.DEL.consumes_query and CigarOp.DEL.consumes_reference
        assert CigarOp.SOFT_CLIP.consumes_query
        assert not CigarOp.HARD_CLIP.consumes_query
        assert CigarOp.REF_SKIP.consumes_reference

    def test_walk_coordinates(self):
        c = Cigar.parse("4M2D3M1I2M")
        steps = list(c.walk(ref_start=100))
        assert steps[0] == (CigarOp.MATCH, 4, 100, 0)
        assert steps[1] == (CigarOp.DEL, 2, 104, 4)
        assert steps[2] == (CigarOp.MATCH, 3, 106, 4)
        assert steps[3] == (CigarOp.INS, 1, 109, 7)
        assert steps[4] == (CigarOp.MATCH, 2, 109, 8)

    def test_reversed(self):
        c = Cigar.parse("3M1I5M")
        assert str(c.reversed()) == "5M1I3M"

    @given(cigar_ops)
    def test_reversed_preserves_lengths(self, ops):
        c = Cigar((CigarOp(o), n) for o, n in ops)
        r = c.reversed()
        assert r.query_length == c.query_length
        assert r.reference_length == c.reference_length


class TestTruthOps:
    def test_all_matches(self):
        assert str(cigar_from_truth_ops(np.zeros(10, dtype=int))) == "10M"

    def test_substitutions_are_m(self):
        assert str(cigar_from_truth_ops(np.array([0, 1, 0]))) == "3M"

    def test_insertion(self):
        # op 2: base emitted then one inserted base
        assert str(cigar_from_truth_ops(np.array([0, 2, 0]))) == "2M1I1M"

    def test_deletion(self):
        assert str(cigar_from_truth_ops(np.array([0, 3, 0]))) == "1M1D1M"

    def test_reverse_orientation(self):
        # read-orientation ops M,(M+I),M,M give 2M1I2M; a non-palindromic
        # example shows the flip: (M+I),M,M -> 1M1I2M forward, 2M1I1M reversed
        assert str(cigar_from_truth_ops(np.array([2, 0, 0]))) == "1M1I2M"
        assert str(cigar_from_truth_ops(np.array([2, 0, 0]), reverse=True)) == "2M1I1M"

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            cigar_from_truth_ops(np.array([4]))

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=100))
    def test_spans_match_ops(self, ops):
        arr = np.array(ops)
        c = cigar_from_truth_ops(arr)
        # reference span: every op consumes exactly one reference base
        assert c.reference_length == len(ops)
        # query span: match/sub 1, ins 2, del 0
        expected = sum({0: 1, 1: 1, 2: 2, 3: 0}[o] for o in ops)
        assert c.query_length == expected


def truth_ops_per_base(ops, reverse=False):
    """Reference: the per-base ``push`` loop ``cigar_from_truth_ops`` replaced."""
    parts = []

    def push(op):
        if parts and parts[-1][0] is op:
            parts[-1] = (op, parts[-1][1] + 1)
        else:
            parts.append((op, 1))

    for op_code in np.asarray(ops):
        code = int(op_code)
        if code in (0, 1):
            push(CigarOp.MATCH)
        elif code == 2:
            push(CigarOp.MATCH)
            push(CigarOp.INS)
        elif code == 3:
            push(CigarOp.DEL)
        else:
            raise ValueError(f"unknown truth operation code {code}")
    cigar = Cigar(parts)
    return cigar.reversed() if reverse else cigar


class TestTruthOpsEquivalence:
    @given(st.lists(st.integers(0, 3), max_size=200), st.booleans())
    def test_matches_per_base_loop(self, ops, reverse):
        for arr in (np.array(ops, dtype=np.uint8), np.array(ops, dtype=np.int64)):
            got = cigar_from_truth_ops(arr, reverse=reverse)
            want = truth_ops_per_base(arr, reverse=reverse)
            assert list(got) == list(want)
            assert all(type(length) is int for _, length in got)

    def test_empty(self):
        for arr in (np.array([], dtype=np.uint8), []):
            assert list(cigar_from_truth_ops(arr)) == list(truth_ops_per_base(arr)) == []

    @given(
        st.lists(st.integers(0, 3), max_size=30),
        st.integers(4, 255) | st.integers(-50, -1),
        st.lists(st.integers(-9, 9), max_size=5),
    )
    def test_names_the_first_unknown_code(self, head, bad, tail):
        arr = np.array(head + [bad] + tail, dtype=np.int64)
        with pytest.raises(ValueError) as want:
            truth_ops_per_base(arr)
        with pytest.raises(ValueError) as got:
            cigar_from_truth_ops(arr)
        assert str(got.value) == str(want.value) == f"unknown truth operation code {bad}"

