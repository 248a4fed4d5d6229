"""Tests for the characterization harness.

These run the real kernels at small scale through the measurement
stack, asserting the *paper-shape* properties each figure must show.
Slower than unit tests but still seconds-scale; the full regeneration
lives in benchmarks/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core.datasets import DatasetSize
from repro.perf.characterize import run_instrumented
from repro.perf.gpu import profile_abea_gpu, profile_nnbase_gpu
from repro.perf.mix import instruction_mix
from repro.perf.report import (
    JsonFormatter,
    Report,
    TableFormatter,
    get_formatter,
    pct,
    render_table,
    sig,
)
from repro.perf.scaling import dynamic_makespan, measured_scaling_curve
from repro.perf.workstats import task_work_stats


class TestInstrumentedRuns:
    def test_memoized(self):
        a = run_instrumented("grm", DatasetSize.SMALL, trace=True)
        b = run_instrumented("grm", DatasetSize.SMALL, trace=True)
        assert a is b

    def test_counts_and_memstats_present(self):
        run = run_instrumented("grm", DatasetSize.SMALL, trace=True)
        assert run.instructions > 0
        assert run.memstats is not None
        assert run.memstats.accesses > 0


class TestFigure5Shape:
    def test_phmm_is_fp_dominant(self):
        mix = instruction_mix("phmm")
        assert mix.fractions["fp"] > 0.4

    def test_fmi_is_scalar_integer(self):
        mix = instruction_mix("fmi")
        assert mix.fractions["scalar_int"] > 0.5
        assert mix.fractions["fp"] == 0.0

    def test_bsw_is_vector_heavy(self):
        mix = instruction_mix("bsw")
        assert mix.fractions["vector"] > 0.3

    def test_only_fp_kernels(self):
        """phmm is the only scalar-CPU kernel with FP work (Fig. 5)."""
        for name in ("fmi", "bsw", "dbg", "chain", "poa", "kmer-cnt", "pileup"):
            assert instruction_mix(name).fractions["fp"] == 0.0, name


class TestFigure4Shape:
    def test_imbalance_ratios(self):
        for name in ("fmi", "dbg", "phmm"):
            stats = task_work_stats(name)
            assert stats.max_over_mean > 1.3, name
            assert stats.n_tasks > 1

    def test_units_from_registry(self):
        assert task_work_stats("fmi").unit == "# Occ Table Lookups"


class TestScheduling:
    def test_makespan_single_thread(self):
        assert dynamic_makespan([3.0, 1.0, 2.0], 1) == 6.0

    def test_makespan_perfect_split(self):
        assert dynamic_makespan([1.0] * 8, 4) == 2.0

    def test_makespan_bounded_by_largest_task(self):
        costs = [10.0] + [1.0] * 7
        assert dynamic_makespan(costs, 8) == 10.0

    def test_dynamic_order_matters(self):
        # greedy dispatch: big task last forces a tail
        early = dynamic_makespan([9.0, 1.0, 1.0, 1.0], 2)
        late = dynamic_makespan([1.0, 1.0, 1.0, 9.0], 2)
        assert early <= late

    def test_validation(self):
        with pytest.raises(ValueError):
            dynamic_makespan([1.0], 0)
        assert dynamic_makespan([], 4) == 0.0


class TestGpuProfiles:
    @pytest.fixture(scope="class")
    def profiles(self):
        return profile_abea_gpu(), profile_nnbase_gpu()

    def test_table4_shape(self, profiles):
        abea, nnbase = profiles
        # nn-base is the regular kernel on every metric
        assert abea.branch_efficiency == 1.0
        assert nnbase.branch_efficiency == 1.0
        assert nnbase.warp_efficiency > 0.99
        assert 0.6 < abea.warp_efficiency < 0.9
        assert abea.non_predicated_efficiency < abea.warp_efficiency
        assert nnbase.occupancy > 2 * abea.occupancy
        assert nnbase.sm_utilization > abea.sm_utilization

    def test_table5_shape(self, profiles):
        abea, nnbase = profiles
        assert abea.load_efficiency < nnbase.load_efficiency
        assert nnbase.store_efficiency == 1.0
        assert abea.store_efficiency < 1.0
        assert abea.load_efficiency < 0.5  # pore-model gathers dominate


class TestReport:
    def test_render_table(self):
        out = render_table("T", ["a", "bb"], [[1, 2.5], ["x", "y"]])
        lines = out.split("\n")
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len({len(ln) for ln in lines[1::2] if set(ln) == {"-"}}) == 1

    def test_pct_and_sig(self):
        assert pct(0.5) == "50.00%"
        assert sig(0.0) == "0"
        assert sig(1234.5, 3) == "1.23e+03"


class TestFormatters:
    REPORT = Report(title="T", headers=["k", "v"], rows=[["a", 1], ["b", 2]])

    def test_get_formatter(self):
        assert isinstance(get_formatter("table"), TableFormatter)
        assert isinstance(get_formatter("json"), JsonFormatter)
        with pytest.raises(KeyError, match="unknown format"):
            get_formatter("xml")

    def test_table_formatter_matches_render_table(self):
        out = TableFormatter().render([self.REPORT])
        assert out == render_table("T", ["k", "v"], [["a", 1], ["b", 2]])

    def test_json_formatter_single_report(self):
        doc = json.loads(JsonFormatter().render([self.REPORT]))
        assert doc["title"] == "T"
        assert doc["data"] == [{"k": "a", "v": 1}, {"k": "b", "v": 2}]

    def test_json_formatter_multiple_reports(self):
        doc = json.loads(JsonFormatter().render([self.REPORT, self.REPORT]))
        assert isinstance(doc, list) and len(doc) == 2

    def test_structured_data_payload_wins_over_rows(self):
        report = Report(title="T", headers=["k"], rows=[["a"]], data={"n": 3})
        doc = json.loads(JsonFormatter().render([report]))
        assert doc["data"] == {"n": 3}


class TestMeasuredScaling:
    def test_measured_curve_shape(self):
        curve = measured_scaling_curve("grm", threads=(1, 2), size=DatasetSize.SMALL)
        assert curve.kernel == "grm"
        assert list(curve.threads) == [1, 2]
        assert len(curve.speedups) == 2
        assert all(s > 0 for s in curve.speedups)


#: Traced accesses of a few dbg k-mer probes and pileup record fetches,
#: printed as one stream.
TRACE_PROBE = """
import numpy as np
from repro.core.instrument import Instrumentation
from repro.dbg.graph import DeBruijnGraph
from repro.io.cigar import Cigar
from repro.io.regions import GenomicRegion
from repro.io.sam import AlignmentRecord
from repro.pileup.counts import count_region

instr = Instrumentation.with_trace()
DeBruijnGraph(5).add_sequence("ACGTTGCAACGGTACCTTAG", instr=instr)
records = [
    AlignmentRecord(
        qname=f"read{i}", flag=0, rname="c", pos=i, mapq=60,
        cigar=Cigar.parse("8M"), seq="ACGTACGT", quals=np.full(8, 30),
    )
    for i in range(4)
]
count_region(records, GenomicRegion("c", 0, 16), instr=instr)
print(list(instr.trace.accesses()))
"""


class TestMemoryTraceStability:
    def test_traced_accesses_do_not_depend_on_the_hash_seed(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        streams = []
        for seed in ("1", "2"):
            env = {
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            }
            probe = subprocess.run(
                [sys.executable, "-c", TRACE_PROBE],
                env=env, capture_output=True, text=True, check=True, timeout=60,
            )
            streams.append(probe.stdout)
        assert streams[0].startswith("[(") and streams[0] == streams[1]
