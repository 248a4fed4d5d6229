"""Run the suite benchmark and print its metrics.

    python3 perfbench/run.py                          # every workload, untraced
    python3 perfbench/run.py --workload suite-pool --seed 3 --seconds 24
    python3 perfbench/run.py --workload service-jobs --trace 1
    python3 perfbench/run.py --write-expected         # re-record expected.json

Prints a table per workload (metric, value, unit, samples), then, as the
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics, or with ``--trace 1`` the per-layer
ones.  Traced runs also write their spans to
``.perfbench/traces/<workload>-seed<seed>.json``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys

#: Pinned before NumPy loads: BLAS thread pools on a shared box swing
#: grm's execute time by 30x and nn-base's by 3x.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"
# the result store keys on the code revision; pinning it keeps the service
# workload from shelling out to git and identical in every checkout
os.environ["GENOMICSBENCH_GIT_SHA"] = "perfbench"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench"

#: name -> (unit, better); the end-to-end metrics, as in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "work_rate_geomean": ("work/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

KERNELS = (
    "fmi", "bsw", "dbg", "phmm", "chain", "poa",
    "kmer-cnt", "abea", "grm", "nn-base", "pileup", "nn-variant",
)

#: Spans the benchmark records; ``self.<name>`` is each one's self time.
SPAN_NAMES = (
    "api.run", "engine.prepare", "engine.serial_baseline", "engine.execute",
    "service.job", "service.dedup", "service.submit", "service.wait",
    "service.queue_wait", "service.record_fetch",
)

#: name -> (unit, better); the per-layer metrics, as in BENCHMARK.json.
PER_LAYER = {
    **{
        f"kernel.{k}.{m}": (u, b)
        for k in KERNELS
        for m, u, b in (("execute_s", "s", "lower"), ("work_per_s", "work/s", "higher"))
    },
    "prepare.generate_s": ("s", "lower"),
    "prepare.fmi.generate_s": ("s", "lower"),
    "prepare.pileup.generate_s": ("s", "lower"),
    "prepare.chain.generate_s": ("s", "lower"),
    "cache.store_s": ("s", "lower"),
    "cache.load_s": ("s", "lower"),
    "cache.bytes": ("bytes", "lower"),
    "engine.serial_baseline_s": ("s", "lower"),
    "engine.execute_s": ("s", "lower"),
    "engine.overhead_s": ("s", "lower"),
    "dispatch.chunks": ("count", "lower"),
    "dispatch.busy_s": ("s", "lower"),
    "dispatch.idle_s": ("s", "lower"),
    "dispatch.efficiency": ("ratio", "higher"),
    "dispatch.retries": ("count", "lower"),
    "dispatch.failures": ("count", "lower"),
    "transport.result_bytes": ("bytes", "lower"),
    "record.events": ("count", "lower"),
    "record.json_bytes": ("bytes", "lower"),
    "service.submit_ms": ("ms", "lower"),
    "service.record_fetch_ms": ("ms", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.overhead_ms": ("ms", "lower"),
    "service.polls_per_job": ("count", "lower"),
    "service.dedup_ratio": ("ratio", "higher"),
    "service.submissions": ("count", "higher"),
    "service.fresh_p50_ms": ("ms", "lower"),
    "service.dedup_p50_ms": ("ms", "lower"),
    "service.dedup_p95_ms": ("ms", "lower"),
    **{f"self.{name}": ("s", "lower") for name in SPAN_NAMES},
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.self_sum_s": ("s", "lower"),
}


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS (Linux KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def environment() -> dict[str, str]:
    import numpy

    env = {var: os.environ[var] for var in BLAS_ENV}
    env.update(
        nproc=str(os.cpu_count()),
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    return env


def end_to_end(out, m) -> dict[str, tuple[float, int]]:
    """Each end-to-end metric as (value, sample count)."""
    rates = [m.median(v) for v in out.work_rate.values()]
    return {
        "setup_s": (m.median(out.setup_s), len(out.setup_s)),
        "wall_s": (m.median(out.walls), len(out.walls)),
        "work_rate_geomean": (m.geomean(rates), sum(map(len, out.work_rate.values()))),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }


def per_layer(out, m) -> dict[str, tuple[float, int]]:
    """Each per-layer metric as (value, sample count); absent layers read 0."""
    values: dict[str, tuple[float, int]] = {}
    for name in PER_LAYER:
        samples = out.layers.get(name, [])
        values[name] = (m.median(samples), len(samples)) if samples else (0.0, 0)
    for name, source, p in (
        ("service.fresh_p50_ms", "service.fresh_ms", 50.0),
        ("service.dedup_p50_ms", "service.dedup_ms", 50.0),
        ("service.dedup_p95_ms", "service.dedup_ms", 95.0),
    ):
        samples = out.layers.get(source, [])
        if samples:
            values[name] = (m.tail_percentile(samples, p), len(samples))
    self_times = [rec.self_by_name() for rec in out.recorders]
    n = len(self_times)
    for span in SPAN_NAMES:
        values[f"self.{span}"] = (m.median([s.get(span, 0.0) for s in self_times]), n)
    traced = m.median(out.traced_walls)
    untraced = m.median(out.walls)
    values["trace.wall_s"] = (traced, len(out.traced_walls))
    values["trace.untraced_wall_s"] = (untraced, len(out.walls))
    values["trace.overhead_s"] = (traced - untraced, len(out.walls) + len(out.traced_walls))
    values["trace.self_sum_s"] = (m.median([sum(s.values()) for s in self_times]), n)
    return values


def table(title: str, rows: dict[str, tuple[float, int]], units: dict) -> list[str]:
    lines = [title, f"  {'metric':34s} {'value':>16s}  {'unit':8s} {'n':>5s}"]
    for name, (value, n) in rows.items():
        lines.append(f"  {name:34s} {value:16.6g}  {units[name][0]:8s} {n:5d}")
    return lines


def run_workload(name: str, args, m, w) -> dict:
    """Measure one workload, print its tables and return its JSON result."""
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    try:
        out = w.measure(
            name, json.loads(EXPECTED.read_text()), tmp, args.seed, args.seconds, bool(args.trace),
            progress=lambda line: print(f"[{name}] {line}", file=sys.stderr, flush=True),
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    e2e = end_to_end(out, m)
    rate = out.failed / out.attempted if out.attempted else 1.0
    lines = [f"perfbench {name} seed={args.seed} seconds={args.seconds} trace={args.trace}"]
    lines.append("  env: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    lines += table("end to end", e2e, END_TO_END)
    lines.append(f"  {'error_rate':34s} {rate:16.6g}  {'ratio':8s} {out.attempted:5d}")
    for problem in out.problems[:20]:
        lines.append(f"  FAILED: {problem}")
    chosen = e2e
    if args.trace:
        chosen = per_layer(out, m)
        lines += table("per layer", chosen, PER_LAYER)
        trace_path = OUT_DIR / "traces" / f"{name}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({
            "workload": name,
            "seed": args.seed,
            "env": environment(),
            "passes": [rec.as_dicts() for rec in out.recorders],
        }))
        lines.append(f"  spans: {trace_path.relative_to(ROOT)}")
    print("\n".join(lines), flush=True)
    units = {**END_TO_END, **PER_LAYER}
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, (v, _) in chosen.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="suite-serial, suite-pool, service-jobs or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="re-record expected.json from serial runs and exit")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({src / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import measure as m
    import workloads as w

    if args.write_expected:
        EXPECTED.write_text(json.dumps(w.record_expected(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED.relative_to(ROOT)}")
        return 0
    if args.workload == "all":
        return run_all(args, w.WORKLOADS)
    if args.workload not in w.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; valid: {', '.join(w.WORKLOADS)}, all")
    OUT_DIR.mkdir(exist_ok=True)
    print(json.dumps(run_workload(args.workload, args, m, w)))
    return 0


def run_all(args, names: tuple[str, ...]) -> int:
    """Run each workload in its own process (so each has its own peak RSS
    and heap); the last line maps workload names to their results."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        *table_lines, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(table_lines), flush=True)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(last)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
