"""Cached workloads hold pickled CIGARs and records: their bytes are fixed.

The literals below were pickled (protocol 5, NumPy 2) before
:class:`~repro.io.cigar.CigarOp` gained plain per-member attributes.
Loading them and pickling again must give the same bytes, so workload
caches and the job and sweep digests built on them stay valid.
"""

import pickle

import numpy as np

from repro.io.cigar import Cigar
from repro.io.sam import AlignmentRecord

CIGAR_PICKLE = (
    b"\x80\x05\x95\xc0\x00\x00\x00\x00\x00\x00\x00\x8c\x0erepro.io.cig"
    b"ar\x94\x8c\x05Cigar\x94\x93\x94)\x81\x94N}\x94\x8c\x04_ops\x94(h"
    b"\x00\x8c\x07CigarOp\x94\x93\x94\x8c\x01S\x94\x85\x94R\x94K\x03"
    b"\x86\x94h\x07\x8c\x01M\x94\x85\x94R\x94K\x05\x86\x94h\x07\x8c"
    b"\x01I\x94\x85\x94R\x94K\x01\x86\x94h\x07\x8c\x01D\x94\x85\x94R"
    b"\x94K\x02\x86\x94h\x0eK\x04\x86\x94h\x07\x8c\x01N\x94\x85\x94R"
    b"\x94K\x01\x86\x94h\x07\x8c\x01=\x94\x85\x94R\x94K\x02\x86\x94h"
    b"\x07\x8c\x01X\x94\x85\x94R\x94K\x01\x86\x94h\x07\x8c\x01P\x94"
    b"\x85\x94R\x94K\x01\x86\x94h\x07\x8c\x01H\x94\x85\x94R\x94K\x02"
    b"\x86\x94t\x94s\x86\x94b."
)

RECORD_PICKLE = (
    b"\x80\x05\x95~\x01\x00\x00\x00\x00\x00\x00\x8c\x0crepro.io.sam"
    b"\x94\x8c\x0fAlignmentRecord\x94\x93\x94)\x81\x94}\x94(\x8c\x05qn"
    b"ame\x94\x8c\x02r1\x94\x8c\x04flag\x94K\x10\x8c\x05rname\x94\x8c"
    b"\x04chr1\x94\x8c\x03pos\x94K\x07\x8c\x04mapq\x94K<\x8c\x05cigar"
    b"\x94\x8c\x0erepro.io.cigar\x94\x8c\x05Cigar\x94\x93\x94)\x81\x94"
    b"N}\x94\x8c\x04_ops\x94(h\r\x8c\x07CigarOp\x94\x93\x94\x8c\x01S"
    b"\x94\x85\x94R\x94K\x02\x86\x94h\x14\x8c\x01M\x94\x85\x94R\x94K"
    b"\x04\x86\x94h\x14\x8c\x01I\x94\x85\x94R\x94K\x01\x86\x94h\x1bK"
    b"\x03\x86\x94t\x94s\x86\x94b\x8c\x03seq\x94\x8c\nACGTNACGTA\x94"
    b"\x8c\x05quals\x94\x8c\x13numpy._core.numeric\x94\x8c\x0b_frombuf"
    b"fer\x94\x93\x94(\x96\n\x00\x00\x00\x00\x00\x00\x00\x00\x01\x02"
    b"\x03\x04\x05\x06\x07\x08\t\x94\x8c\x05numpy\x94\x8c\x05dtype\x94"
    b"\x93\x94\x8c\x02u1\x94\x89\x88\x87\x94R\x94(K\x03\x8c\x01|\x94NN"
    b"NJ\xff\xff\xff\xffJ\xff\xff\xff\xffK\x00t\x94bK\n\x85\x94\x8c"
    b"\x01C\x94t\x94R\x94\x8c\x04tags\x94}\x94\x8c\x02NM\x94K\x02sub."
)


def test_cigar_pickle_round_trips_to_the_same_bytes():
    cigar = pickle.loads(CIGAR_PICKLE)
    assert cigar == Cigar.parse("3S5M1I2D4M1N2=1X1P2H")
    assert pickle.dumps(cigar, protocol=5) == CIGAR_PICKLE
    assert pickle.dumps(Cigar.parse(str(cigar)), protocol=5) == CIGAR_PICKLE


def test_record_pickle_round_trips_to_the_same_bytes():
    rec = pickle.loads(RECORD_PICKLE)
    assert (rec.qname, rec.flag, rec.pos, str(rec.cigar)) == ("r1", 16, 7, "2S4M1I3M")
    assert rec.reference_end == 14 and rec.is_reverse
    assert pickle.dumps(rec, protocol=5) == RECORD_PICKLE
    fresh = AlignmentRecord(
        qname="r1",
        flag=16,
        rname="chr1",
        pos=7,
        mapq=60,
        cigar=Cigar.parse("2S4M1I3M"),
        seq="ACGTNACGTA",
        quals=np.arange(10, dtype=np.uint8),
        tags={"NM": 2},
    )
    assert pickle.dumps(fresh, protocol=5) == RECORD_PICKLE
