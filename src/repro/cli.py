"""Command-line interface of the benchmark suite.

``python -m repro <command>`` (or the ``genomicsbench`` console script):

* ``list``          -- the kernel catalogue with Tables II/III metadata
* ``run``           -- execute kernels through the parallel engine
  (``--executor local|serial|distributed`` picks the dispatch backend;
  ``--hosts host:port,...`` names the worker daemons for distributed)
* ``sweep``         -- expand a configuration grid (``--grid jobs=1,2
  chunk_size=4,8`` and/or a TOML/JSON ``--spec`` file) over kernels,
  run every cell through the engine, and aggregate per-kernel
  leaderboards into a sweep directory (``--resume`` skips finished
  cells; ``--on-cell-failure skip|fail`` picks the abort policy)
* ``worker``        -- run one distributed worker daemon
* ``serve-workers`` -- run N worker daemons on consecutive ports
* ``serve``         -- the benchmark-as-a-service job daemon: an HTTP
  API (``POST /jobs``, ``GET /jobs/{id}[/record|/report]``) with a
  bounded priority queue, per-tenant quotas and a result store that
  answers duplicate submissions without re-running (``docs/service.md``)
* ``characterize``  -- regenerate a figure or table from the paper
* ``datasets``      -- show the synthetic dataset parameters
* ``runner``        -- engine/cache introspection (``runner executors``
  lists the registered execution backends and their capabilities)
* ``bench``         -- record runs to a per-host history and gate on
  throughput (and, with ``--rss-threshold``, peak-RSS) regressions
  (``bench record`` / ``bench check``)
* ``obs``           -- render a run record as a self-contained HTML
  dashboard (``obs report``, or ``obs report --sweep DIR`` for a
  sweep's leaderboard/grid dashboard), compare two runs (``obs diff``),
  export profiles/metrics (``obs export``: folded stacks, speedscope
  JSON, OpenMetrics textfile) or print the structured event log
  (``obs tail``, with ``--follow`` for live replay)

``run`` additionally takes ``--trace FILE`` (Chrome trace-event JSON of
engine phases, per-worker chunk timelines and kernel-internal spans --
load it in chrome://tracing or Perfetto), ``--metrics FILE`` (the
run's serialized metrics registries), ``--profile`` (statistical
sampling profiler; folded stacks and a hotspot table land in the
record), ``--telemetry`` (per-worker CPU/RSS series from ``/proc``, a
no-op off-Linux), ``--live-port N`` (an in-run HTTP status server:
``GET /status``, ``/metrics``, ``/events?since=SEQ`` -- see
``docs/live-observability.md``) and ``--events FILE`` (append every
structured run event to FILE as JSON lines).

Fault tolerance (see ``docs/fault-tolerance.md``): ``--timeout SECONDS``
bounds each chunk's wall-clock, ``--retries N`` re-executes failed
chunks with capped exponential backoff, ``--on-failure
{fail,quarantine,serial}`` picks the end-of-budget policy, ``--resume``
checkpoints completed chunks for interrupted-run recovery, and
``--inject-faults PLAN`` (e.g. ``"kill@0,raise@2x2"``) deterministically
injects faults for chaos testing.  Runs that quarantined chunks exit 1.

Output contract: ``run`` and ``characterize`` (and ``list``) take
``--format {table,json}`` and ``--out FILE``.  Commands build
:class:`repro.perf.report.Report` values; rendering lives entirely
behind the formatter interface in :mod:`repro.perf.report`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.datasets import DatasetSize, coerce_size, dataset_params
from repro.core.registry import KERNELS, get_kernel, kernel_names
from repro.perf.report import FORMAT_CHOICES, Report, get_formatter


def _emit(reports: list[Report], args: argparse.Namespace) -> None:
    """Render ``reports`` per ``--format`` and write to ``--out`` or stdout."""
    formatter = get_formatter(getattr(args, "format", "table"))
    text = formatter.render(reports)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text + "\n")
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text)


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=FORMAT_CHOICES,
        default="table",
        help="output format (default: table)",
    )
    parser.add_argument("--out", metavar="FILE", help="write output to FILE")


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for info in KERNELS.values():
        rows.append(
            (
                info.name,
                info.tool,
                info.motif.value,
                info.pattern.value,
                info.granularity or "-",
                info.work_unit or "-",
            )
        )
    _emit(
        [
            Report(
                title="GenomicsBench kernels",
                headers=["kernel", "tool", "motif", "compute", "granularity", "work unit"],
                rows=rows,
            )
        ],
        args,
    )
    return 0


def _make_cache(args: argparse.Namespace):
    from repro.runner import WorkloadCache

    if getattr(args, "no_cache", False):
        return None
    return WorkloadCache(getattr(args, "cache_dir", None))


def _fault_plan_arg(text: str):
    """argparse type for ``--inject-faults`` (bad plans become usage errors)."""
    from repro.runner import FaultPlan

    try:
        return FaultPlan.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _hosts_arg(text: str) -> list[str]:
    """argparse type for ``--hosts`` (bad addresses become usage errors)."""
    from repro.runner.distributed import parse_hosts

    try:
        return parse_hosts(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _check_knobs(command: str, **knobs) -> None:
    """Check engine knobs as a :class:`~repro.runner.config.RunConfig`
    before any kernel is prepared; a bad value is a usage error."""
    from repro.runner.config import RunConfig

    try:
        RunConfig(**knobs)
    except ValueError as exc:
        raise SystemExit(f"{command}: {exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    import repro.api as api

    names = args.kernels or kernel_names()
    for name in names:
        get_kernel(name)  # validate all names early with a helpful error
    size = coerce_size(args.size)
    knobs = dict(
        executor=args.executor,
        hosts=args.hosts,
        jobs=args.jobs,
        chunk_size=args.chunk_size,
        measure_serial=args.baseline,
        timeout=args.timeout,
        retries=args.retries,
        on_failure=args.on_failure,
        fault_plan=args.inject_faults or None,
        resume=args.resume,
    )
    _check_knobs("run", **knobs, profile_hz=args.profile_hz)
    tracer = None
    if args.trace:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    if args.resume and args.no_cache:
        print("warning: --resume needs the workload cache; ignoring", file=sys.stderr)
    # one event log shared across the multi-kernel loop, so the live
    # server, the --events JSONL sink and the --trace markers see every
    # run in sequence
    event_log = None
    live_server = None
    if args.events or args.live_port is not None or tracer is not None:
        from repro.obs.events import EventLog

        event_log = EventLog(logfile=args.events)
    if args.live_port is not None:
        from repro.obs.live import LiveServer

        live_server = LiveServer(event_log, port=args.live_port).start()
        print(
            f"live status on {live_server.url} (/status /metrics /events)",
            file=sys.stderr,
        )
    obs = api.ObsOptions(
        tracer=tracer,
        instrument=bool(args.metrics),
        profile=args.profile,
        profile_hz=args.profile_hz,
        telemetry=args.telemetry,
        events=event_log,
    )
    cache = _make_cache(args)
    rows = []
    records = []
    metrics_by_kernel = {}
    incomplete = []
    try:
        for name in names:
            run = api.run(name, size, cache=cache, obs=obs, **knobs)
            rec = run.record
            records.append(rec.to_dict())
            metrics_by_kernel[name] = rec.metrics
            prep = "cached" if rec.prepare_cached else f"{rec.prepare_seconds:.2f}s"
            speedup = rec.speedup_vs_serial
            if rec.degraded:
                health = "degraded"
            elif rec.quarantined:
                health = f"{len(rec.quarantined)} quarantined"
            elif rec.retries or rec.resumed_chunks:
                parts = []
                if rec.retries:
                    parts.append(f"{rec.retries} retried")
                if rec.resumed_chunks:
                    parts.append(f"{rec.resumed_chunks} resumed")
                health = ", ".join(parts)
            else:
                health = "ok"
            rows.append(
                (
                    name,
                    rec.n_tasks,
                    f"{rec.total_work:,}",
                    prep,
                    f"{rec.execute_seconds:.2f}s",
                    f"{speedup:.2f}x" if speedup is not None else "-",
                    health,
                )
            )
            print(f"  {name}: {rec.execute_seconds:.2f}s", file=sys.stderr)
            if rec.quarantined:
                incomplete.append(name)
                print(
                    f"  {name}: {rec.quarantined_tasks} task(s) quarantined in "
                    f"{len(rec.quarantined)} chunk(s); see the failure report",
                    file=sys.stderr,
                )
    finally:
        if live_server is not None:
            live_server.stop()
        if event_log is not None:
            event_log.close()
            if args.events:
                print(f"wrote event log to {args.events}", file=sys.stderr)
    if tracer is not None:
        path = tracer.export(args.trace, event_log.events)
        print(f"wrote Chrome trace to {path} (open in chrome://tracing)", file=sys.stderr)
    if args.metrics:
        from repro.core.serialize import write_json

        path = write_json(args.metrics, metrics_by_kernel)
        print(f"wrote metrics to {path}", file=sys.stderr)
    _emit(
        [
            Report(
                title=f"kernel runs ({size.value} datasets, jobs={args.jobs})",
                headers=[
                    "kernel", "tasks", "total work", "prepare", "kernel time",
                    "speedup", "health",
                ],
                rows=rows,
                data=records if len(records) > 1 else records[0],
            )
        ],
        args,
    )
    if incomplete:
        print(f"incomplete runs (quarantined chunks): {', '.join(incomplete)}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import (
        SweepCellError,
        SweepSpec,
        load_spec_file,
        parse_grid,
        run_sweep,
    )
    from repro.sweep.aggregate import best_per_kernel, leaderboard

    try:
        grid = parse_grid(args.grid or [])
    except ValueError as exc:
        raise SystemExit(f"sweep: {exc}")
    try:
        if args.spec:
            spec = load_spec_file(args.spec)
            doc = spec.to_dict()
            # CLI flags override the file where both name the same thing
            if args.kernels:
                doc["kernels"] = args.kernels
            if grid:
                doc["axes"] = {**doc["axes"], **grid}
            if args.size is not None:
                doc["size"] = args.size
            if args.max_cells is not None:
                doc["max_cells"] = args.max_cells
            if args.executor is not None:
                doc["base"] = {**doc["base"], "executor": args.executor}
            if args.hosts:
                doc["base"] = {**doc["base"], "hosts": args.hosts}
            spec = SweepSpec.from_dict(doc)
        else:
            kwargs: dict = {
                "size": args.size or "small",
                "max_cells": args.max_cells,
                "base": {},
            }
            if args.kernels:
                kwargs["kernels"] = args.kernels
            if grid:
                kwargs["axes"] = grid
            if args.executor is not None:
                kwargs["base"]["executor"] = args.executor
            if args.hosts:
                kwargs["base"]["hosts"] = args.hosts
            spec = SweepSpec(**kwargs)
    except ValueError as exc:
        raise SystemExit(f"sweep: {exc}")

    event_log = None
    if args.events:
        from repro.obs.events import EventLog

        event_log = EventLog(logfile=args.events)

    def progress(index: int, total: int, cell, result) -> None:
        tp = result.throughput
        detail = f"{tp:,.0f} work/s" if tp is not None else (result.error or "")
        secs = (
            f" {result.execute_seconds:.2f}s"
            if result.execute_seconds is not None
            else ""
        )
        print(
            f"  [{index + 1}/{total}] {cell.label}: {result.status}{secs}"
            f"{' (' + detail + ')' if detail else ''}",
            file=sys.stderr,
        )

    aborted = False
    try:
        sweep = run_sweep(
            spec,
            args.sweep_dir,
            resume=args.resume,
            on_cell_failure=args.on_cell_failure,
            extra_filters=args.filter or (),
            cache=_make_cache(args),
            events=event_log,
            progress=progress,
        )
    except SweepCellError as exc:
        from repro.sweep import load_sweep

        print(f"sweep aborted: {exc}", file=sys.stderr)
        sweep = load_sweep(args.sweep_dir)
        aborted = True
    except ValueError as exc:
        raise SystemExit(f"sweep: {exc}")
    finally:
        if event_log is not None:
            event_log.close()
            if args.events:
                print(f"wrote event log to {args.events}", file=sys.stderr)

    if args.report:
        from repro.obs.report import write_sweep_report

        path = write_sweep_report(Path(args.sweep_dir) / "sweep-report.html", sweep)
        print(f"wrote sweep report to {path}", file=sys.stderr)
    rows = []
    for row in leaderboard(sweep):
        tp = row["throughput"]
        secs = row["execute_seconds"]
        eff = row["scheduling_efficiency"]
        rows.append(
            (
                row["rank"],
                row["kernel"],
                row["config"],
                row["status"],
                f"{tp:,.0f}" if tp is not None else "-",
                f"{secs:.3f}s" if secs is not None else "-",
                f"{100 * eff:.0f}%" if eff is not None else "-",
            )
        )
    _emit(
        [
            Report(
                title=(
                    f"sweep {sweep.sweep_id}: {len(sweep.cells)} cells "
                    f"({sweep.n_ok} ok, {sweep.n_failed} failed, "
                    f"{sweep.n_resumed} resumed)"
                ),
                headers=[
                    "rank", "kernel", "config", "status", "work/s",
                    "kernel time", "sched eff",
                ],
                rows=rows,
                data={
                    "sweep": sweep.to_dict(),
                    "leaderboard": leaderboard(sweep),
                    "best": best_per_kernel(sweep),
                },
            )
        ],
        args,
    )
    print(
        f"sweep artifacts in {args.sweep_dir}: sweep.json, "
        "leaderboard.json, leaderboard.csv, cells/",
        file=sys.stderr,
    )
    if aborted:
        return 2
    if sweep.n_failed or sweep.n_incomplete:
        return 1
    return 0


def _characterize(args: argparse.Namespace) -> int:
    from repro.perf import gpu, memory, mix, scaling, topdown_fig, workstats
    from repro.core.instrument import OP_CATEGORIES
    from repro.perf.report import pct, sig

    artifact = args.artifact
    if artifact == "fig4":
        stats = workstats.figure4()
        report = Report(
            title="Fig 4",
            headers=["kernel", "tasks", "mean", "max", "max/mean"],
            rows=[
                (s.kernel, s.n_tasks, sig(s.mean), s.maximum, f"{s.max_over_mean:.1f}x")
                for s in stats
            ],
            data=[
                {
                    "kernel": s.kernel,
                    "n_tasks": s.n_tasks,
                    "mean": s.mean,
                    "max": s.maximum,
                    "max_over_mean": s.max_over_mean,
                }
                for s in stats
            ],
        )
    elif artifact == "fig5":
        rows = mix.figure5()
        report = Report(
            title="Fig 5",
            headers=["kernel", *OP_CATEGORIES],
            rows=[
                (r.kernel, *(pct(r.fractions[c]) for c in OP_CATEGORIES)) for r in rows
            ],
            data=[{"kernel": r.kernel, **r.fractions} for r in rows],
        )
    elif artifact in ("fig6", "fig8"):
        rows = memory.figure6()
        report = Report(
            title="Fig 6/8",
            headers=["kernel", "BPKI", "L1 miss", "stall"],
            rows=[
                (r.kernel, sig(r.bpki), pct(r.l1_miss_rate), pct(r.stall_fraction))
                for r in rows
            ],
            data=[
                {
                    "kernel": r.kernel,
                    "bpki": r.bpki,
                    "l1_miss_rate": r.l1_miss_rate,
                    "stall_fraction": r.stall_fraction,
                }
                for r in rows
            ],
        )
    elif artifact == "fig7":
        if args.measured:
            comps = scaling.figure7_comparison(threads=(1, 2, 4, 8))
            report = Report(
                title="Fig 7 (simulated vs measured)",
                headers=[
                    "kernel",
                    "sim T=2", "sim T=4", "sim T=8",
                    "meas T=2", "meas T=4", "meas T=8",
                ],
                rows=[
                    (
                        c.kernel,
                        *(f"{c.simulated.speedup_at(t):.2f}x" for t in (2, 4, 8)),
                        *(f"{c.measured.speedup_at(t):.2f}x" for t in (2, 4, 8)),
                    )
                    for c in comps
                ],
                data=[
                    {
                        "kernel": c.kernel,
                        "threads": c.measured.threads,
                        "simulated": c.simulated.speedups,
                        "measured": c.measured.speedups,
                    }
                    for c in comps
                ],
            )
        else:
            curves = scaling.figure7()
            report = Report(
                title="Fig 7",
                headers=["kernel", "T=2", "T=4", "T=8"],
                rows=[
                    (c.kernel, *(f"{c.speedup_at(t):.2f}x" for t in (2, 4, 8)))
                    for c in curves
                ],
                data=[
                    {"kernel": c.kernel, "threads": c.threads, "speedups": c.speedups}
                    for c in curves
                ],
            )
    elif artifact == "fig9":
        rows = topdown_fig.figure9()
        report = Report(
            title="Fig 9",
            headers=["kernel", "retiring", "backend-mem"],
            rows=[
                (r.kernel, pct(r.slots.retiring), pct(r.slots.backend_memory))
                for r in rows
            ],
            data=[
                {
                    "kernel": r.kernel,
                    "retiring": r.slots.retiring,
                    "backend_memory": r.slots.backend_memory,
                }
                for r in rows
            ],
        )
    elif artifact in ("table4", "table5"):
        profiles = gpu.table4()
        metrics = (
            ("warp efficiency", "warp_efficiency"),
            ("occupancy", "occupancy"),
            ("load efficiency", "load_efficiency"),
            ("store efficiency", "store_efficiency"),
        )
        report = Report(
            title="Tables IV/V",
            headers=["metric", "abea", "nn-base"],
            rows=[
                (m, pct(getattr(profiles["abea"], a)), pct(getattr(profiles["nn-base"], a)))
                for m, a in metrics
            ],
            data={
                kernel: {a: getattr(profile, a) for _, a in metrics}
                for kernel, profile in profiles.items()
            },
        )
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown artifact {artifact}")
    _emit([report], args)
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    if args.export:
        from repro.data.export import export_dataset

        names = args.kernels or kernel_names()
        for name in names:
            get_kernel(name)  # validate with a helpful error
            paths = export_dataset(name, args.size, args.export)
            print(f"{name}: {len(paths)} files under {paths[0].parent}")
        return 0
    rows = []
    for name in kernel_names():
        for size in DatasetSize:
            params = dataset_params(name, size)
            rows.append(
                (name, size.value, ", ".join(f"{k}={v}" for k, v in params.items()))
            )
    _emit(
        [Report(title="synthetic datasets", headers=["kernel", "size", "parameters"], rows=rows)],
        args,
    )
    return 0


def _cmd_runner(args: argparse.Namespace) -> int:
    import multiprocessing
    import os

    from repro.core.benchmark import load_benchmark
    from repro.runner import WorkloadCache, default_chunk_size, default_cache_dir

    if getattr(args, "topic", None) == "executors":
        from repro.runner import available_executors

        # listed under the name --executor accepts, which register() may
        # set apart from the class's own
        data = [{**cls.describe(), "name": name} for name, cls in available_executors().items()]
        rows = [
            (
                doc["name"],
                ", ".join(k for k, v in sorted(doc["capabilities"].items()) if v) or "-",
                doc["summary"],
            )
            for doc in data
        ]
        _emit(
            [
                Report(
                    title="registered executors",
                    headers=["name", "capabilities", "summary"],
                    rows=rows,
                    data=data,
                )
            ],
            args,
        )
        return 0

    cache = WorkloadCache(args.cache_dir)
    if args.clear_cache:
        removed = cache.clear()
        print(f"removed {removed} cached workload(s) from {cache.root}")
        return 0

    reports = []
    env_rows = [
        ("cpu count", os.cpu_count() or 1),
        ("start methods", ", ".join(multiprocessing.get_all_start_methods())),
        ("cache dir", str(cache.root)),
        ("default cache dir", str(default_cache_dir())),
    ]
    reports.append(
        Report(
            title="execution engine",
            headers=["property", "value"],
            rows=env_rows,
            data={str(k): str(v) for k, v in env_rows},
        )
    )

    shard_rows = []
    shard_data = []
    for name in kernel_names():
        bench = load_benchmark(name)
        workload = bench.prepare(DatasetSize.SMALL)
        n = bench.task_count(workload)
        sharded = n is not None
        chunk = default_chunk_size(n, 4) if sharded else "-"
        shard_rows.append(
            (name, "yes" if sharded else "no (serial)", n if sharded else "-", chunk)
        )
        shard_data.append(
            {
                "kernel": name,
                "shardable": sharded,
                "small_tasks": n,
                "default_chunk_jobs4": chunk if sharded else None,
            }
        )
    reports.append(
        Report(
            title="task sharding (small datasets)",
            headers=["kernel", "shardable", "tasks", "chunk @ jobs=4"],
            rows=shard_rows,
            data=shard_data,
        )
    )

    entries = cache.entries()
    reports.append(
        Report(
            title=f"workload cache ({len(entries)} entries)",
            headers=["kernel", "size", "bytes", "path"],
            rows=[(e.kernel, e.size, f"{e.bytes:,}", str(e.path)) for e in entries],
            data=[
                {"kernel": e.kernel, "size": e.size, "bytes": e.bytes, "path": str(e.path)}
                for e in entries
            ],
        )
    )
    _emit(reports, args)
    return 0


def _cmd_bench_record(args: argparse.Namespace) -> int:
    import repro.api as api
    from repro.obs.history import BenchHistory, throughput

    names = args.kernels or kernel_names()
    size = coerce_size(args.size)
    knobs = dict(
        executor=args.executor,
        hosts=args.hosts,
        jobs=args.jobs,
        chunk_size=args.chunk_size,
        telemetry=args.telemetry,
    )
    _check_knobs("bench record", **knobs)
    recorded = api.bench_record(
        names, size, cache=_make_cache(args), history=args.history, **knobs
    )
    rows = []
    for rec in recorded:
        tp = throughput(rec)
        rows.append(
            (
                rec.kernel,
                rec.n_tasks,
                f"{rec.execute_seconds:.3f}s",
                f"{tp:,.0f}" if tp is not None else "-",
            )
        )
        print(f"  {rec.kernel}: {rec.execute_seconds:.3f}s", file=sys.stderr)
    history = BenchHistory(args.history)
    total = len(history.load())
    print(f"recorded {len(recorded)} run(s); {history.path} now holds {total}", file=sys.stderr)
    _emit(
        [
            Report(
                title=f"bench record ({size.value} datasets, jobs={args.jobs})",
                headers=["kernel", "tasks", "kernel time", "work/s"],
                rows=rows,
                data=[r.to_dict() for r in recorded],
            )
        ],
        args,
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.runner.distributed import serve_worker

    def on_bound(host: str, port: int) -> None:
        print(f"worker listening on {host}:{port}", file=sys.stderr)

    try:
        serve_worker(args.bind, once=args.once, on_bound=on_bound)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_serve_workers(args: argparse.Namespace) -> int:
    import signal

    from repro.runner.distributed import serve_workers

    daemons = serve_workers(args.count, args.bind_host, args.base_port)
    # SIGTERM stops the daemons as Ctrl-C does; set after they start so
    # they keep the default action and die on terminate()
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    addrs = ", ".join(
        f"{args.bind_host}:{args.base_port + i}" for i in range(args.count)
    )
    print(f"{args.count} worker daemon(s) on {addrs}", file=sys.stderr)
    print("press Ctrl-C to stop", file=sys.stderr)
    try:
        for proc in daemons:
            proc.join()
    except KeyboardInterrupt:
        pass
    finally:
        for proc in daemons:
            if proc.is_alive():
                proc.terminate()
        for proc in daemons:
            proc.join(2.0)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.obs.events import EventLog
    from repro.service import JobService, ServiceServer

    events = EventLog(run_id="service", logfile=args.events)
    try:
        service = JobService(
            workers=args.workers,
            queue_depth=args.queue_depth,
            tenant_tokens=args.tenant_tokens,
            tenant_refill_per_s=args.tenant_refill,
            state_dir=args.state_dir,
            cache=_make_cache(args),
            events=events,
            slo=args.slo,
            sample_interval=args.sample_interval if args.sample_interval > 0 else None,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    server = ServiceServer(service, port=args.port, host=args.host)
    server.start()
    print(f"repro serve listening on {server.url}", file=sys.stderr)
    print(
        f"  workers={args.workers} queue_depth={args.queue_depth} "
        f"git_sha={service.git_sha}",
        file=sys.stderr,
    )
    print("press Ctrl-C to drain and stop", file=sys.stderr)

    stop = threading.Event()

    def _signal(signum, frame) -> None:  # noqa: ANN001, ARG001
        stop.set()

    signal.signal(signal.SIGINT, _signal)
    signal.signal(signal.SIGTERM, _signal)
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    print("draining: finishing queued and in-flight jobs...", file=sys.stderr)
    clean = server.stop(drain=True, timeout=args.drain_timeout)
    if not clean:
        print(
            f"drain did not finish within {args.drain_timeout}s; exiting anyway",
            file=sys.stderr,
        )
        return 1
    print("stopped", file=sys.stderr)
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from repro.obs.history import BenchHistory, check_regressions
    from repro.perf.report import sig

    history = BenchHistory(args.baseline)
    records = history.load()
    if not records:
        print(f"no history at {history.path}; nothing to check", file=sys.stderr)
        return 0
    rss_threshold = (
        args.rss_threshold / 100.0 if args.rss_threshold is not None else None
    )
    checks = check_regressions(
        records,
        threshold=args.threshold / 100.0,
        window=args.window,
        rss_threshold=rss_threshold,
    )
    rows = []
    for c in checks:
        ratio = c.ratio
        verdicts = []
        if c.regressed:
            verdicts.append("REGRESSED")
        if c.rss_regressed:
            verdicts.append("RSS GREW")
        rows.append(
            (
                c.kernel,
                c.size,
                c.jobs,
                f"{c.latest:,.0f}",
                f"{c.baseline:,.0f}" if c.baseline is not None else "-",
                sig(ratio) if ratio is not None else "-",
                sig(c.rss_ratio) if c.rss_ratio is not None else "-",
                ", ".join(verdicts) if verdicts else "ok",
            )
        )
    regressed = [c for c in checks if c.regressed or c.rss_regressed]
    _emit(
        [
            Report(
                title=(
                    f"bench check vs rolling median "
                    f"(threshold {args.threshold:.0f}%, window {args.window})"
                ),
                headers=[
                    "kernel", "size", "jobs", "work/s", "baseline", "ratio",
                    "rss ratio", "verdict",
                ],
                rows=rows,
                data=[
                    {
                        "kernel": c.kernel,
                        "size": c.size,
                        "jobs": c.jobs,
                        "latest": c.latest,
                        "baseline": c.baseline,
                        "n_baseline": c.n_baseline,
                        "ratio": c.ratio,
                        "regressed": c.regressed,
                        "rss_latest": c.rss_latest,
                        "rss_baseline": c.rss_baseline,
                        "rss_ratio": c.rss_ratio,
                        "rss_regressed": c.rss_regressed,
                    }
                    for c in checks
                ],
            )
        ],
        args,
    )
    if regressed:
        names = ", ".join(
            f"{c.kernel}/{c.size}/j{c.jobs}"
            f"{' (rss)' if c.rss_regressed and not c.regressed else ''}"
            for c in regressed
        )
        print(f"regression: {names}", file=sys.stderr)
        return 0 if args.warn_only else 1
    return 0


def _load_one_record(path: str, kernel: str | None = None):
    """The single record ``path`` holds (optionally picked by kernel)."""
    from repro.obs.report import load_run_records

    records = load_run_records(path)
    if kernel is not None:
        records = [r for r in records if r.kernel == kernel]
        if not records:
            raise SystemExit(f"{path}: no record for kernel {kernel!r}")
    if len(records) > 1:
        print(
            f"{path}: {len(records)} records; using the last "
            f"({records[-1].kernel}/{records[-1].size}/j{records[-1].jobs})"
            " -- pick one with --kernel",
            file=sys.stderr,
        )
    return records[-1]


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.report import load_run_records, write_report

    if args.service:
        from repro.obs.fleet import write_fleet_report
        from repro.obs.slo import SloSpecError

        out = args.out or str(Path(args.service) / "fleet-report.html")
        try:
            path = write_fleet_report(out, args.service, args.slo)
        except SloSpecError as exc:
            raise SystemExit(str(exc))
        print(f"wrote fleet report to {path}", file=sys.stderr)
        return 0
    if args.sweep:
        from repro.obs.report import write_sweep_report
        from repro.sweep import load_sweep

        try:
            sweep = load_sweep(args.sweep)
        except ValueError as exc:
            raise SystemExit(str(exc))
        out = args.out or str(Path(args.sweep) / "sweep-report.html")
        path = write_sweep_report(out, sweep)
        print(f"wrote sweep report to {path}", file=sys.stderr)
        return 0
    if not args.record:
        raise SystemExit(
            "obs report: give a run-record JSON, --sweep DIR or --service DIR"
        )
    record = _load_one_record(args.record, args.kernel)
    history = load_run_records(args.history) if args.history else None
    out = args.out or f"{Path(args.record).stem}-report.html"
    path = write_report(out, record, history)
    print(f"wrote run report to {path}", file=sys.stderr)
    return 0


def _cmd_obs_slo_check(args: argparse.Namespace) -> int:
    from repro.obs.series import load_series
    from repro.obs.slo import SloSpecError, evaluate_slo, load_slo_spec

    try:
        spec = load_slo_spec(args.spec)
    except SloSpecError as exc:
        raise SystemExit(str(exc))
    samples = load_series(args.state_dir)
    if not samples:
        print(
            f"{args.state_dir}: no series samples (did the daemon run with "
            "--state-dir and a nonzero --sample-interval?)",
            file=sys.stderr,
        )
        return 2
    report = evaluate_slo(spec, samples)
    rows = []
    for status in report.objectives:
        burns = " / ".join(
            f"{w.burn:.2f}x@{int(w.seconds)}s" if w.burn is not None else f"-@{int(w.seconds)}s"
            for w in status.windows
        )
        rows.append(
            (
                status.objective.name,
                status.objective.kind,
                status.status,
                "-" if status.measured is None else f"{status.measured:.4g}",
                burns,
            )
        )
    _emit(
        [
            Report(
                title=f"SLO check over {len(samples)} samples",
                headers=["objective", "kind", "status", "measured", "burn rates"],
                rows=rows,
            )
        ],
        args,
    )
    if report.breached:
        print(f"SLO breach: {', '.join(report.breached)}", file=sys.stderr)
        return 1
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs.report import diff_records

    a = _load_one_record(args.a, args.kernel)
    b = _load_one_record(args.b, args.kernel)
    diff = diff_records(a, b)
    _emit([diff.report()], args)
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.core.serialize import write_json
    from repro.obs.profile import StackProfile, merge_profiles
    from repro.obs.report import write_openmetrics

    record = _load_one_record(args.record, args.kernel)
    wrote = False
    if args.folded or args.speedscope:
        doc = record.profile
        if not doc:
            raise SystemExit(
                f"{args.record}: record has no profile (re-run with --profile)"
            )
        merged = merge_profiles(
            [StackProfile.from_dict(p) for p in doc.get("phases", {}).values()],
            hz=doc.get("hz", 99.0),
        )
        if args.folded:
            Path(args.folded).write_text(merged.to_folded_text() + "\n")
            print(f"wrote folded stacks to {args.folded}", file=sys.stderr)
            wrote = True
        if args.speedscope:
            name = f"{record.kernel}/{record.size}/j{record.jobs}"
            write_json(args.speedscope, merged.to_speedscope(name))
            print(f"wrote speedscope profile to {args.speedscope}", file=sys.stderr)
            wrote = True
    if args.openmetrics:
        write_openmetrics(args.openmetrics, record)
        print(f"wrote OpenMetrics textfile to {args.openmetrics}", file=sys.stderr)
        wrote = True
    if not wrote:
        raise SystemExit("nothing to export: pass --folded, --speedscope or --openmetrics")
    return 0


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    import time

    from repro.obs.events import format_event, level_rank, load_events, parse_jsonl

    path = Path(args.source)
    floor = level_rank(args.level) if args.level else None

    def emit(docs: list[dict]) -> bool:
        """Print the docs that pass the filters; True on run_finished."""
        finished = False
        for doc in docs:
            if doc.get("seq", 0) <= args.since:
                continue
            if floor is None or level_rank(doc.get("level", "info")) >= floor:
                print(format_event(doc))
            if doc.get("name") == "run_finished":
                finished = True
        return finished

    if not args.follow:
        try:
            emit(load_events(path))
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc))
        return 0

    # follow a growing JSONL sink (run --events FILE): poll appended
    # bytes, replay complete lines in order, stop when the run finishes
    offset = 0
    pending = ""
    try:
        while True:
            try:
                with path.open("r", encoding="utf-8") as fh:
                    fh.seek(offset)
                    grown = fh.read()
                    offset = fh.tell()
            except FileNotFoundError:
                grown = ""  # the run has not created the sink yet
            if grown:
                pending += grown
                lines, sep, pending = pending.rpartition("\n")
                if sep and emit(parse_jsonl(lines)):
                    return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.runner.config import ON_FAILURE_CHOICES

    parser = argparse.ArgumentParser(
        prog="genomicsbench", description="GenomicsBench reproduction suite"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", help="show the kernel catalogue")
    _add_output_options(lst)
    lst.set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="execute kernels through the parallel engine")
    # no argparse `choices`: with nargs="*" Python 3.11 rejects the empty
    # list; kernel names are validated by get_kernel instead
    run.add_argument("kernels", nargs="*", help="kernels (default: all)")
    run.add_argument("--size", choices=["small", "large"], default="small")
    run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for task sharding (default: 1 = serial)",
    )
    run.add_argument(
        "--executor", default=None, metavar="NAME",
        help="execution backend: local (supervised pool, default), serial, "
        "distributed, or a third-party registration (see `runner executors`)",
    )
    run.add_argument(
        "--hosts", default=None, metavar="HOST:PORT,...", type=_hosts_arg,
        help="worker-daemon addresses for --executor distributed "
        "(start them with `worker` or `serve-workers`)",
    )
    run.add_argument(
        "--chunk-size", type=int, default=None, metavar="K",
        help="tasks per dynamically scheduled chunk (default: auto)",
    )
    run.add_argument(
        "--no-cache", action="store_true", help="skip the on-disk workload cache"
    )
    run.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="workload cache root (default: $GENOMICSBENCH_CACHE_DIR or ~/.cache/genomicsbench/workloads)",
    )
    run.add_argument(
        "--baseline", action=argparse.BooleanOptionalAction, default=False,
        help="also time a serial run first and report the speedup (runs each kernel twice)",
    )
    run.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-chunk wall-clock budget; a worker exceeding it is "
        "terminated and the chunk retried (default: none)",
    )
    run.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="per-chunk retry budget after a failure (default: 0)",
    )
    run.add_argument(
        "--on-failure", choices=ON_FAILURE_CHOICES, default="fail",
        help="policy for chunks that exhaust their retries: fail the run, "
        "quarantine the chunk (run completes with a gap report), or "
        "re-execute it serially in the parent (default: fail)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="checkpoint completed chunks to the workload cache and skip "
        "chunks already checkpointed by an interrupted earlier run",
    )
    run.add_argument(
        "--inject-faults", metavar="PLAN", default=None, type=_fault_plan_arg,
        help="deterministic fault injection for chaos testing, e.g. "
        "'kill@0,raise@2x2,hang@1' (kind@chunk[xAttempts])",
    )
    run.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome trace-event JSON of the run to FILE "
        "(spans, plus one instant marker per run event)",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="sample stacks during prepare/execute/merge (in each worker "
        "on the parallel path); hotspots land in the run record",
    )
    run.add_argument(
        "--profile-hz", type=float, default=99.0, metavar="HZ",
        help="profiler sampling rate (default: 99)",
    )
    run.add_argument(
        "--telemetry", action="store_true",
        help="sample per-worker CPU/RSS/context switches from /proc "
        "(no-op on platforms without procfs)",
    )
    run.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write per-kernel metrics registries (JSON) to FILE; "
        "also enables op-count instrumentation on the serial path",
    )
    run.add_argument(
        "--live-port", type=int, default=None, metavar="N",
        help="serve live run status over HTTP on 127.0.0.1:N while "
        "kernels execute (GET /status, /metrics, /events?since=SEQ); "
        "0 picks an ephemeral port",
    )
    run.add_argument(
        "--events", metavar="FILE", default=None,
        help="append every structured run event to FILE as JSON lines "
        "(tail it live with `obs tail FILE --follow`)",
    )
    _add_output_options(run)
    run.set_defaults(func=_cmd_run)

    swp = sub.add_parser(
        "sweep",
        help="expand a configuration grid over kernels and aggregate leaderboards",
    )
    swp.add_argument("kernels", nargs="*", help="kernels (default: all)")
    swp.add_argument(
        "--size", choices=["small", "large"], default=None,
        help="dataset size every cell shares unless swept (default: small)",
    )
    swp.add_argument(
        "--grid", nargs="+", metavar="AXIS=V,V,...", default=None,
        help="one token per swept axis, e.g. --grid jobs=1,2,4 chunk_size=8,16 "
        "(axes: jobs, chunk_size, size, executor, retries, timeout, on_failure)",
    )
    swp.add_argument(
        "--spec", metavar="FILE", default=None,
        help="TOML/JSON sweep file (kernels, axes, per-kernel overrides, "
        "filters, max_cells); CLI flags override its fields",
    )
    swp.add_argument(
        "--filter", action="append", metavar="EXPR", default=None,
        help="boolean expression over axis names plus kernel/size; cells "
        "failing any filter are pruned, e.g. --filter 'jobs*chunk_size<=64'",
    )
    swp.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="keep only the first N cells of the deterministic expansion order",
    )
    swp.add_argument(
        "--sweep-dir", metavar="DIR", default="sweep-out",
        help="directory for cell records and aggregates (default: sweep-out)",
    )
    swp.add_argument(
        "--resume", action="store_true",
        help="skip cells whose finished RunRecord already exists in the "
        "sweep directory (and resume interrupted cells from their "
        "shard checkpoints)",
    )
    swp.add_argument(
        "--on-cell-failure", choices=["skip", "fail"], default="skip",
        help="skip: record the failure and keep sweeping (exit 1); "
        "fail: abort at the first broken cell (exit 2; default: skip)",
    )
    swp.add_argument(
        "--executor", default=None, metavar="NAME",
        help="execution backend every cell uses unless swept "
        "(see `runner executors`)",
    )
    swp.add_argument(
        "--hosts", default=None, metavar="HOST:PORT,...", type=_hosts_arg,
        help="worker-daemon addresses for --executor distributed",
    )
    swp.add_argument(
        "--no-cache", action="store_true", help="skip the on-disk workload cache"
    )
    swp.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="workload cache root shared by every cell",
    )
    swp.add_argument(
        "--events", metavar="FILE", default=None,
        help="append sweep and cell events to FILE as JSON lines",
    )
    swp.add_argument(
        "--report", action="store_true",
        help="also render the sweep HTML dashboard into the sweep directory",
    )
    _add_output_options(swp)
    swp.set_defaults(func=_cmd_sweep)

    wrk = sub.add_parser(
        "worker", help="run one distributed worker daemon (TCP)"
    )
    wrk.add_argument(
        "--bind", default="127.0.0.1:9701", metavar="HOST:PORT",
        help="address to listen on; port 0 picks an ephemeral port "
        "(default: 127.0.0.1:9701)",
    )
    wrk.add_argument(
        "--once", action="store_true",
        help="exit after the first coordinator session ends",
    )
    wrk.set_defaults(func=_cmd_worker)

    srv = sub.add_parser(
        "serve-workers", help="run N worker daemons on consecutive ports"
    )
    srv.add_argument("count", type=int, help="number of worker daemons")
    srv.add_argument(
        "--bind-host", default="127.0.0.1", metavar="HOST",
        help="address the daemons listen on (default: 127.0.0.1)",
    )
    srv.add_argument(
        "--base-port", type=int, default=9701, metavar="PORT",
        help="first port; daemon i listens on PORT+i (default: 9701)",
    )
    srv.set_defaults(func=_cmd_serve_workers)

    serve = sub.add_parser(
        "serve",
        help="run the benchmark-as-a-service job daemon (HTTP job API)",
    )
    serve.add_argument(
        "--port", type=int, default=8765, metavar="PORT",
        help="port to listen on; 0 picks an ephemeral port (default: 8765)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="HOST",
        help="address to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="concurrent job workers (default: 1)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="max queued jobs before submissions get 429 (default: 16)",
    )
    serve.add_argument(
        "--tenant-tokens", type=int, default=16, metavar="N",
        help="per-tenant token-bucket capacity (default: 16)",
    )
    serve.add_argument(
        "--tenant-refill", type=float, default=1.0, metavar="PER_S",
        help="per-tenant token refill rate per second; 0 disables refill "
        "(default: 1.0)",
    )
    serve.add_argument(
        "--state-dir", metavar="DIR", default=None,
        help="result store and sweep output root "
        "(default: $GENOMICSBENCH_SERVICE_DIR or ~/.cache/genomicsbench/service)",
    )
    serve.add_argument(
        "--events", metavar="FILE", default=None,
        help="append service lifecycle events to FILE as JSON lines",
    )
    serve.add_argument(
        "--slo", metavar="FILE", default=None,
        help="SLO spec (TOML or JSON); breaches emit events and surface "
        "in /healthz?verbose=1",
    )
    serve.add_argument(
        "--sample-interval", type=float, default=5.0, metavar="SECONDS",
        help="seconds between persisted series samples under "
        "<state-dir>/series; 0 disables sampling (default: 5)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=60.0, metavar="SECONDS",
        help="how long shutdown waits for in-flight jobs (default: 60)",
    )
    serve.add_argument(
        "--cache-dir", metavar="DIR", default=None, help="workload cache root"
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="disable the workload cache"
    )
    serve.set_defaults(func=_cmd_serve)

    char = sub.add_parser("characterize", help="regenerate a paper artifact")
    char.add_argument(
        "artifact",
        choices=["fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table4", "table5"],
    )
    char.add_argument(
        "--measured", action="store_true",
        help="fig7 only: run the parallel engine and report measured next to simulated speedups",
    )
    _add_output_options(char)
    char.set_defaults(func=_characterize)

    data = sub.add_parser(
        "datasets", help="show dataset parameters or export datasets to files"
    )
    data.add_argument("kernels", nargs="*", help="kernels (default: all)")
    data.add_argument("--size", choices=["small", "large"], default="small")
    data.add_argument("--export", metavar="DIR", help="write datasets under DIR")
    _add_output_options(data)
    data.set_defaults(func=_cmd_datasets)

    eng = sub.add_parser("runner", help="inspect the execution engine and cache")
    eng.add_argument(
        "topic", nargs="?", choices=["executors"], default=None,
        help="optional focus: 'executors' lists the registered "
        "execution backends and their capabilities",
    )
    eng.add_argument(
        "--cache-dir", metavar="DIR", default=None, help="workload cache root"
    )
    eng.add_argument(
        "--clear-cache", action="store_true", help="delete every cached workload"
    )
    _add_output_options(eng)
    eng.set_defaults(func=_cmd_runner)

    bench = sub.add_parser(
        "bench", help="record run history and gate on throughput regressions"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    rec = bench_sub.add_parser(
        "record", help="run kernels and append their records to the history"
    )
    rec.add_argument("kernels", nargs="*", help="kernels (default: all)")
    rec.add_argument("--size", choices=["small", "large"], default="small")
    rec.add_argument("--jobs", type=int, default=1, metavar="N")
    rec.add_argument(
        "--executor", default=None, metavar="NAME",
        help="execution backend (see `runner executors`)",
    )
    rec.add_argument(
        "--hosts", default=None, metavar="HOST:PORT,...", type=_hosts_arg,
        help="worker-daemon addresses for --executor distributed",
    )
    rec.add_argument("--chunk-size", type=int, default=None, metavar="K")
    rec.add_argument(
        "--no-cache", action="store_true", help="skip the on-disk workload cache"
    )
    rec.add_argument("--cache-dir", metavar="DIR", default=None)
    rec.add_argument(
        "--history", metavar="FILE", default=None,
        help="history file (default: BENCH_<host>.json in the current directory)",
    )
    rec.add_argument(
        "--telemetry", action="store_true",
        help="sample per-worker RSS/CPU so the history can gate on memory "
        "growth (bench check --rss-threshold)",
    )
    _add_output_options(rec)
    rec.set_defaults(func=_cmd_bench_record)

    chk = bench_sub.add_parser(
        "check", help="compare each config's latest run against its rolling median"
    )
    chk.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="history file to check (default: BENCH_<host>.json in the current directory)",
    )
    chk.add_argument(
        "--threshold", type=float, default=20.0, metavar="PCT",
        help="fail beyond this %% throughput drop (default: 20)",
    )
    chk.add_argument(
        "--window", type=int, default=5, metavar="N",
        help="rolling-median window of prior runs (default: 5)",
    )
    chk.add_argument(
        "--rss-threshold", type=float, default=None, metavar="PCT",
        help="also fail beyond this %% peak-RSS growth vs the rolling "
        "median of telemetered runs (default: memory gate off)",
    )
    chk.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (CI bring-up mode)",
    )
    _add_output_options(chk)
    chk.set_defaults(func=_cmd_bench_check)

    obs = sub.add_parser(
        "obs", help="run-report dashboard, run diffing and profile export"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    rep = obs_sub.add_parser(
        "report", help="render a run record as a self-contained HTML dashboard"
    )
    rep.add_argument(
        "record", nargs="?", default=None,
        help="run-record JSON (run --format json output)",
    )
    rep.add_argument(
        "--sweep", metavar="DIR", default=None,
        help="render a sweep directory's leaderboard/grid dashboard "
        "instead of a single run record",
    )
    rep.add_argument(
        "--service", metavar="DIR", default=None,
        help="render the fleet dashboard from a service state dir's "
        "persisted series (the daemon's --state-dir)",
    )
    rep.add_argument(
        "--slo", metavar="FILE", default=None,
        help="with --service: overlay this SLO spec's verdicts and "
        "breach timeline",
    )
    rep.add_argument(
        "--out", metavar="FILE", default=None,
        help="output HTML file (default: <record>-report.html, "
        "<sweep dir>/sweep-report.html with --sweep, or "
        "<state dir>/fleet-report.html with --service)",
    )
    rep.add_argument(
        "--history", metavar="FILE", default=None,
        help="bench history file to plot a throughput trend from",
    )
    rep.add_argument(
        "--kernel", metavar="NAME", default=None,
        help="pick this kernel's record from a multi-kernel file",
    )
    rep.set_defaults(func=_cmd_obs_report)

    diff = obs_sub.add_parser("diff", help="compare two run records")
    diff.add_argument("a", help="baseline run-record JSON")
    diff.add_argument("b", help="candidate run-record JSON")
    diff.add_argument(
        "--kernel", metavar="NAME", default=None,
        help="pick this kernel's record from multi-kernel files",
    )
    _add_output_options(diff)
    diff.set_defaults(func=_cmd_obs_diff)

    exp = obs_sub.add_parser(
        "export", help="export a record's profile and metrics to standard formats"
    )
    exp.add_argument("record", help="run-record JSON")
    exp.add_argument(
        "--kernel", metavar="NAME", default=None,
        help="pick this kernel's record from a multi-kernel file",
    )
    exp.add_argument(
        "--folded", metavar="FILE", default=None,
        help="write Brendan Gregg folded stacks (flamegraph.pl input)",
    )
    exp.add_argument(
        "--speedscope", metavar="FILE", default=None,
        help="write a speedscope JSON profile (speedscope.app)",
    )
    exp.add_argument(
        "--openmetrics", metavar="FILE", default=None,
        help="write the run's metrics as an OpenMetrics textfile",
    )
    exp.set_defaults(func=_cmd_obs_export)

    slo = obs_sub.add_parser(
        "slo", help="evaluate declared SLOs over a service's persisted series"
    )
    slo_sub = slo.add_subparsers(dest="slo_command", required=True)
    slo_check = slo_sub.add_parser(
        "check",
        help="gate on SLO burn rates: exit 1 on breach, 2 with no samples",
    )
    slo_check.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="service state dir holding the series (the daemon's --state-dir)",
    )
    slo_check.add_argument(
        "--spec", required=True, metavar="FILE",
        help="SLO spec (TOML or JSON; see docs/fleet-observability.md)",
    )
    _add_output_options(slo_check)
    slo_check.set_defaults(func=_cmd_obs_slo_check)

    tail = obs_sub.add_parser(
        "tail", help="print a run's structured event log, optionally live"
    )
    tail.add_argument(
        "source",
        help="JSONL event log (run --events FILE) or any run-record JSON",
    )
    tail.add_argument(
        "--follow", action="store_true",
        help="keep polling a growing JSONL log and print events as they "
        "land; stops when the run finishes (or on Ctrl-C)",
    )
    tail.add_argument(
        "--level", choices=["debug", "info", "warning", "error"], default=None,
        help="only print events at or above this severity",
    )
    tail.add_argument(
        "--since", type=int, default=-1, metavar="SEQ",
        help="only print events with seq > SEQ (default: all)",
    )
    tail.add_argument(
        "--interval", type=float, default=0.2, metavar="SECONDS",
        help="--follow poll interval (default: 0.2)",
    )
    tail.set_defaults(func=_cmd_obs_tail)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
