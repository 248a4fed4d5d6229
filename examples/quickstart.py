#!/usr/bin/env python3
"""Quickstart: run every GenomicsBench kernel through the uniform driver.

Prepares each kernel's small synthetic workload, executes it through the
parallel engine, and prints task counts, total data-parallel work and
kernel wall time -- the suite-level view the paper's Table II/III
summarize.  With ``--trace`` the run also writes a Chrome trace-event
JSON (open it in chrome://tracing or https://ui.perfetto.dev) and prints
each kernel's engine metrics.

Usage::

    python examples/quickstart.py [--size small|large] [--kernel NAME]
                                  [--jobs N] [--trace FILE]
"""

from __future__ import annotations

import argparse

from repro.core.datasets import DatasetSize
from repro.core.registry import get_kernel, kernel_names
from repro.perf.report import metrics_rows, render_table
from repro.runner import ParallelRunner


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", choices=["small", "large"], default="small")
    parser.add_argument(
        "--kernel", choices=kernel_names(), default=None, help="run one kernel only"
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome trace of the run and print per-kernel metrics",
    )
    args = parser.parse_args()
    size = DatasetSize(args.size)
    names = [args.kernel] if args.kernel else kernel_names()
    tracer = None
    if args.trace:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    runner = ParallelRunner(jobs=args.jobs, tracer=tracer)

    rows = []
    metrics_tables = []
    for name in names:
        info = get_kernel(name)
        run = runner.run(name, size)
        record = run.record
        if args.trace and record.metrics:
            metrics_tables.append((name, metrics_rows(record.metrics)))
        rows.append(
            (
                name,
                info.tool,
                record.n_tasks,
                f"{record.total_work:,}",
                f"{record.prepare_seconds:.2f}s",
                f"{record.execute_seconds:.2f}s",
            )
        )
        print(f"  finished {name} ({record.execute_seconds:.2f}s kernel)")
    print()
    print(
        render_table(
            f"GenomicsBench reproduction: {size.value} datasets",
            ["kernel", "tool", "tasks", "total work", "prepare", "kernel time"],
            rows,
        )
    )
    for name, metric_rows in metrics_tables:
        print()
        print(render_table(f"{name} metrics", ["metric", "value"], metric_rows))
    if tracer is not None:
        # the runner's event log supplies the trace's instant markers
        path = tracer.export(args.trace, runner.events.events)
        n_spans = len(tracer.spans)
        print(f"\nwrote {n_spans} spans to {path} -- open in chrome://tracing")


if __name__ == "__main__":
    main()
