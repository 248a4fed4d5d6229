"""The benchmark's three workloads, driven only through public calls.

Every workload is a closed loop: one client in one process, each
operation waiting for the one before it.  A run sets up several times
(each into a fresh cache, keeping the last), then measures whole passes
over the workload's operations.  Outputs are verified outside the timed
region.

* ``suite-serial`` -- all 12 kernels through ``repro.api.run(jobs=1)``
  from a warm cache: the in-process fast path, nearly all kernel compute.
* ``suite-pool`` -- the same kernels through ``executor="local"`` with
  ``jobs=min(2, cpus)`` and engine defaults (so the serial baseline runs,
  as ``run --jobs 2`` does): engine, dispatch, transport and merge.
* ``service-jobs`` -- a ``repro serve`` stack in this process with one
  job worker, driven over HTTP: fresh run jobs of the six fastest kernels
  interleaved with resubmissions answered from the result store.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import pickle
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro.api as api
from repro.core.benchmark import load_benchmark
from repro.core.datasets import DatasetSize
from repro.core.registry import kernel_names
from repro.runner.cache import WorkloadCache
from repro.service import JobService, ServiceServer

from measure import SpanRecorder, digest_of, min_samples_for

SIZE = DatasetSize.SMALL

#: Kernels whose generation time is reported on its own (the slowest three).
SLOW_GENERATORS = ("fmi", "pileup", "chain")

#: Calls per pass of the suite kernels that finish in under ~0.1 s, so
#: their medians (and so ``work_rate_geomean``) rest on more than one or
#: two samples; every other kernel runs once per pass.
SUITE_REPEATS = {"grm": 5, "nn-base": 5, "chain": 3, "kmer-cnt": 3}

#: The service mix: the six fastest kernels, so a pass holds many jobs.
SERVICE_KERNELS = ("chain", "grm", "kmer-cnt", "nn-base", "dbg", "nn-variant")

#: Distinct specs (``config.chunk_size`` values) per service kernel per pass.
FRESH_PER_KERNEL = 3

#: Resubmissions of finished specs after each fresh job.
DEDUP_PER_FRESH = 4

#: Seconds between ``GET /jobs/{id}`` polls of a fresh job.
POLL_INTERVAL_S = 0.01

#: A fresh job not done after this long counts as failed.
JOB_TIMEOUT_S = 60.0

#: Dedup latencies a run must hold so that p95 leaves ten samples beyond it.
DEDUP_SAMPLES = min_samples_for(95.0)

WORKLOADS = ("suite-serial", "suite-pool", "service-jobs")


def pool_jobs() -> int:
    """Pool width for ``suite-pool``: two workers, never more than the CPUs."""
    return max(1, min(2, os.cpu_count() or 1))


@dataclass
class Outcome:
    """Everything one run measured, before it is reduced to metrics."""

    setup_s: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    #: kernel -> total_work / operation latency, one per operation
    work_rate: dict[str, list[float]] = field(default_factory=dict)
    #: per-layer samples: one per pass (sums) or one per operation
    layers: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: one span recorder per traced pass, written out when the run ends
    recorders: list[SpanRecorder] = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.layers.setdefault(name, []).append(value)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


def output_digest(result: Any) -> str:
    """Canonical digest of an ``ExecutionResult``: output, work and metadata."""
    return digest_of([result.output, result.task_work, result.task_meta], np)


# -- set-up -------------------------------------------------------------


@dataclass
class Prepared:
    cache: WorkloadCache
    generate_s: dict[str, float]
    store_s: float


def prepare_into(cache_dir: Path, kernels: tuple[str, ...]) -> Prepared:
    """Generate ``kernels``' inputs with ``Benchmark.prepare`` and store them."""
    cache = WorkloadCache(cache_dir)
    generate: dict[str, float] = {}
    store = 0.0
    for kernel in kernels:
        bench = load_benchmark(kernel)
        t0 = time.perf_counter()
        workload = bench.prepare(SIZE)
        t1 = time.perf_counter()
        if cache.store(kernel, SIZE, workload) is None:
            raise RuntimeError(f"{kernel}: workload could not be stored in the cache")
        generate[kernel] = t1 - t0
        store += time.perf_counter() - t1
    return Prepared(cache, generate, store)


def record_setup(out: Outcome, prepared: Prepared, seconds: float) -> None:
    out.setup_s.append(seconds)
    out.add("prepare.generate_s", sum(prepared.generate_s.values()))
    for kernel in SLOW_GENERATORS:
        out.add(f"prepare.{kernel}.generate_s", prepared.generate_s.get(kernel, 0.0))
    out.add("cache.store_s", prepared.store_s)
    out.add("cache.bytes", sum(e.bytes for e in prepared.cache.entries()))


# -- per-record layer samples ------------------------------------------


def record_layers(
    out: Outcome, sums: dict[str, float], record: dict[str, Any], latency: float
) -> bool:
    """Add one finished run record's layer figures to the pass sums.

    Returns whether the run dispatched chunks to workers in other processes.
    """
    kernel = record["kernel"]
    execute = record["execute_seconds"]
    serial = record.get("serial_seconds") or 0.0
    out.add(f"kernel.{kernel}.execute_s", execute)
    if execute > 0:
        out.add(f"kernel.{kernel}.work_per_s", record["total_work"] / execute)
    out.work_rate.setdefault(kernel, []).append(record["total_work"] / latency)
    me = os.getpid()
    remote = [w for w in record["workers"] if w["pid"] != me or w.get("host")]
    busy = sum(w["busy_seconds"] for w in remote)
    capacity = record["jobs"] * execute if remote else 0.0
    for name, value in (
        ("engine.serial_baseline_s", serial),
        ("engine.execute_s", execute),
        ("cache.load_s", record["prepare_seconds"]),
        ("dispatch.chunks", sum(w["chunks"] for w in remote)),
        ("dispatch.busy_s", busy),
        ("dispatch.capacity_s", capacity),
        ("dispatch.retries", record.get("retries", 0)),
        ("dispatch.failures", len(record.get("failures", []))),
        ("record.events", len(record.get("events", []))),
    ):
        sums[name] = sums.get(name, 0.0) + value
    return bool(remote)


def close_pass(out: Outcome, sums: dict[str, float]) -> None:
    """Turn one pass's sums into per-pass layer samples."""
    capacity = sums.pop("dispatch.capacity_s", 0.0)
    sums["dispatch.idle_s"] = capacity - sums.get("dispatch.busy_s", 0.0)
    sums["dispatch.efficiency"] = (
        sums.get("dispatch.busy_s", 0.0) / capacity if capacity > 0 else 0.0
    )
    for name, value in sums.items():
        out.add(name, value)


# -- suite workloads ------------------------------------------------------


class Suite:
    """``suite-serial`` and ``suite-pool``: every kernel through ``api.run``."""

    #: Set-ups per run (each about 5 s); ``setup_s`` is their median.
    setups = 3

    def __init__(self, pooled: bool, expected: dict[str, dict[str, Any]], tmp: Path):
        self.pooled = pooled
        self.expected = expected
        self.tmp = tmp
        self.kernels = tuple(kernel_names())
        self.cache: WorkloadCache | None = None

    def setup(self, out: Outcome) -> None:
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.tmp))
        t0 = time.perf_counter()
        prepared = prepare_into(cache_dir, self.kernels)
        record_setup(out, prepared, time.perf_counter() - t0)
        if self.cache is not None:
            shutil.rmtree(self.cache.root, ignore_errors=True)
        self.cache = prepared.cache

    def run_one(self, kernel: str) -> api.EngineRun:
        if self.pooled:
            return api.run(kernel, SIZE, executor="local", jobs=pool_jobs(), cache=self.cache)
        return api.run(kernel, SIZE, jobs=1, cache=self.cache)

    def run_pass(self, out: Outcome, rng: random.Random, rec: SpanRecorder) -> float:
        """Run every kernel (the fastest several times); the pass's wall time
        is the sum of the calls.

        Each output is verified, then dropped, between calls and outside
        their timing, so no call runs beside (or forks) earlier outputs.
        """
        order = [k for k in self.kernels for _ in range(SUITE_REPEATS.get(k, 1))]
        rng.shuffle(order)
        sums: dict[str, float] = {}
        wall = 0.0
        for kernel in order:
            span = rec.open("api.run", rec.new_op())
            t0 = time.perf_counter()
            try:
                run: Any = self.run_one(kernel)
            except Exception as exc:  # noqa: BLE001 - a raising operation is counted
                run = exc
            latency = time.perf_counter() - t0
            rec.close(span)
            wall += latency
            if span is not None and not isinstance(run, Exception):
                r = run.record
                rec.reported(span, [
                    ("engine.prepare", r.prepare_seconds),
                    ("engine.serial_baseline", r.serial_seconds),
                    ("engine.execute", r.execute_seconds),
                ])
            self.verify(out, sums, kernel, run, latency)
            del run
        close_pass(out, sums)
        return wall

    def verify(
        self, out: Outcome, sums: dict[str, float], kernel: str, run: Any, latency: float
    ) -> None:
        out.attempted += 1
        if isinstance(run, Exception):
            out.fail(f"{kernel}: raised {type(run).__name__}: {run}")
            return
        text = run.record.to_json()
        record = json.loads(text)
        want = self.expected[kernel]
        got = {
            "n_tasks": record["n_tasks"],
            "total_work": record["total_work"],
            "digest": output_digest(run.result),
        }
        if got != want:
            out.fail(f"{kernel}: output {got} != expected {want}")
            return
        if not record["prepare_cached"]:
            out.fail(f"{kernel}: warm cache missed")
            return
        if not record["complete"] or record["degraded"]:
            out.fail(f"{kernel}: run incomplete or degraded")
            return
        dispatched = record_layers(out, sums, record, latency)
        overhead = (
            latency - record["prepare_seconds"]
            - (record["serial_seconds"] or 0.0) - record["execute_seconds"]
        )
        for name, value in (
            ("engine.overhead_s", overhead),
            ("record.json_bytes", len(text)),
            (
                "transport.result_bytes",
                len(pickle.dumps(run.result, pickle.HIGHEST_PROTOCOL)) if dispatched else 0,
            ),
        ):
            sums[name] = sums.get(name, 0.0) + value

    def enough(self, out: Outcome) -> bool:
        return True

    def teardown(self) -> None:
        if self.cache is not None:
            shutil.rmtree(self.cache.root, ignore_errors=True)
            self.cache = None


# -- service workload -----------------------------------------------------


class Client:
    """A JSON client for the service.

    Like the reference client (``examples/service_client.py``, urllib) it
    opens one connection per request.
    """

    def __init__(self, port: int) -> None:
        self.port = port

    def call(self, method: str, path: str, doc: Any = None) -> tuple[int, bytes]:
        body = json.dumps(doc).encode() if doc is not None else None
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=JOB_TIMEOUT_S)
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()


@dataclass
class JobResult:
    """What the client saw of one service operation."""

    kernel: str
    fresh: bool
    latency: float = 0.0
    submit_s: float = 0.0
    fetch_s: float = 0.0
    polls: int = 0
    status: int = 0
    doc: dict[str, Any] | None = None
    record: dict[str, Any] | None = None
    record_bytes: int = 0
    error: str | None = None


class Service:
    """``service-jobs``: fresh and deduplicated run jobs over HTTP."""

    #: Set-ups per run (each about 1 s); ``setup_s`` is their median.
    setups = 7

    def __init__(self, expected: dict[str, dict[str, Any]], tmp: Path):
        self.expected = expected
        self.tmp = tmp
        self.root: Path | None = None
        self.server: ServiceServer | None = None
        self.client: Client | None = None
        self.finished: list[dict[str, Any]] = []
        self.passes = 0

    def setup(self, out: Outcome) -> None:
        self.teardown()
        root = Path(tempfile.mkdtemp(prefix="service-", dir=self.tmp))
        t0 = time.perf_counter()
        prepared = prepare_into(root / "cache", SERVICE_KERNELS)
        service = JobService(
            workers=1,
            queue_depth=16,
            tenant_tokens=10**9,
            tenant_refill_per_s=10**9,
            state_dir=root / "state",
            cache=prepared.cache,
            sample_interval=None,
        )
        server = ServiceServer(service, port=0).start()
        client = Client(server.port)
        status, _ = client.call("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"service health check answered {status}")
        record_setup(out, prepared, time.perf_counter() - t0)
        self.root, self.server, self.client = root, server, client
        self.finished = []

    def fresh_specs(self) -> list[dict[str, Any]]:
        """This pass's distinct specs: a new ``chunk_size`` per spec and pass."""
        base = 1 + self.passes * FRESH_PER_KERNEL
        return [
            {"type": "run", "kernel": k, "size": SIZE.value,
             "config": {"jobs": 1, "chunk_size": base + i}}
            for k in SERVICE_KERNELS
            for i in range(FRESH_PER_KERNEL)
        ]

    def fresh(self, spec: dict[str, Any], rec: SpanRecorder) -> JobResult:
        client = self.client
        res = JobResult(spec["kernel"], fresh=True)
        op = rec.new_op()
        span = rec.open("service.job", op)
        t0 = time.perf_counter()
        sub = rec.open("service.submit", op, span)
        res.status, body = client.call("POST", "/jobs", spec)
        rec.close(sub)
        res.submit_s = time.perf_counter() - t0
        doc = json.loads(body)
        if res.status != 202:
            res.error = f"submit answered {res.status}: {doc.get('error')}"
            res.latency = res.submit_s
            rec.close(span)
            return res
        wait = rec.open("service.wait", op, span)
        while True:
            time.sleep(POLL_INTERVAL_S)
            status, body = client.call("GET", f"/jobs/{doc['id']}")
            res.polls += 1
            doc = json.loads(body)
            if doc["status"] in ("done", "failed"):
                break
            if time.perf_counter() - t0 > JOB_TIMEOUT_S:
                res.error = f"job {doc['id']} not done after {JOB_TIMEOUT_S:g} s"
                break
        rec.close(wait)
        res.doc = doc
        if res.error is None:
            self._fetch(res, doc["links"]["record"], rec, op, span)
        res.latency = time.perf_counter() - t0
        rec.close(span)
        if wait is not None and res.record is not None and doc.get("started_unix"):
            rec.reported(wait, [
                ("service.queue_wait", doc["started_unix"] - doc["submitted_unix"]),
                ("engine.prepare", res.record.get("prepare_seconds")),
                ("engine.execute", res.record.get("execute_seconds")),
            ])
        return res

    def dedup(self, spec: dict[str, Any], rec: SpanRecorder) -> JobResult:
        res = JobResult(spec["kernel"], fresh=False)
        op = rec.new_op()
        span = rec.open("service.dedup", op)
        t0 = time.perf_counter()
        sub = rec.open("service.submit", op, span)
        res.status, body = self.client.call("POST", "/jobs", spec)
        rec.close(sub)
        res.submit_s = time.perf_counter() - t0
        doc = json.loads(body)
        res.doc = doc
        if res.status != 200 or not doc.get("deduped"):
            res.error = f"resubmission answered {res.status}, deduped={doc.get('deduped')}"
        else:
            self._fetch(res, doc["links"]["record"], rec, op, span)
        res.latency = time.perf_counter() - t0
        rec.close(span)
        return res

    def _fetch(
        self, res: JobResult, path: str, rec: SpanRecorder, op: int, parent: int | None
    ) -> None:
        span = rec.open("service.record_fetch", op, parent)
        t0 = time.perf_counter()
        status, body = self.client.call("GET", path)
        if status == 200:
            res.record = json.loads(body)
            res.record_bytes = len(body)
        else:
            res.error = f"record fetch answered {status}"
        res.fetch_s = time.perf_counter() - t0
        rec.close(span)

    def run_pass(self, out: Outcome, rng: random.Random, rec: SpanRecorder) -> float:
        specs = self.fresh_specs()
        rng.shuffle(specs)
        plan: list[tuple[bool, dict[str, Any]]] = []
        done = list(self.finished)
        for spec in specs:
            plan.append((True, spec))
            done.append(spec)
            plan.extend((False, rng.choice(done)) for _ in range(DEDUP_PER_FRESH))
        results: list[JobResult] = []
        for is_fresh, spec in plan:
            t0 = time.perf_counter()
            try:
                results.append((self.fresh if is_fresh else self.dedup)(spec, rec))
            except Exception as exc:  # noqa: BLE001 - a raising operation is counted
                results.append(JobResult(
                    spec["kernel"], is_fresh, latency=time.perf_counter() - t0,
                    error=f"{type(exc).__name__}: {exc}",
                ))
        self.passes += 1
        self.finished.extend(specs)
        self.verify(out, results)
        return sum(res.latency for res in results)

    def verify(self, out: Outcome, results: list[JobResult]) -> None:
        sums: dict[str, float] = {}
        fresh = dedup = 0
        for res in results:
            out.attempted += 1
            what = f"{'fresh' if res.fresh else 'dedup'} {res.kernel}"
            if res.error is not None:
                out.fail(f"{what}: {res.error}")
                continue
            record = res.record or {}
            want = self.expected[res.kernel]
            got = {k: record.get(k) for k in ("n_tasks", "total_work")}
            if got != {k: want[k] for k in got}:
                out.fail(f"{what}: record {got} != expected")
                continue
            if not res.fresh:
                dedup += 1
                out.add("service.dedup_ms", res.latency * 1e3)
                out.add("service.record_fetch_ms", res.fetch_s * 1e3)
                continue
            fresh += 1
            doc = res.doc or {}
            if doc.get("status") != "done" or record.get("prepare_cached") is not True:
                out.fail(f"{what}: job {doc.get('status')}, cached={record.get('prepare_cached')}")
                continue
            record_layers(out, sums, record, res.latency)
            run_s = doc["finished_unix"] - doc["started_unix"]
            compute = record["prepare_seconds"] + record["execute_seconds"]
            sums["engine.overhead_s"] = sums.get("engine.overhead_s", 0.0) + run_s - compute
            sums["record.json_bytes"] = sums.get("record.json_bytes", 0.0) + res.record_bytes
            out.add("service.submit_ms", res.submit_s * 1e3)
            out.add("service.record_fetch_ms", res.fetch_s * 1e3)
            out.add("service.queue_wait_ms", (doc["started_unix"] - doc["submitted_unix"]) * 1e3)
            out.add("service.overhead_ms", (res.latency - compute) * 1e3)
            out.add("service.polls_per_job", res.polls)
            out.add("service.fresh_ms", res.latency * 1e3)
        sums["service.submissions"] = fresh + dedup
        sums["service.dedup_ratio"] = dedup / (fresh + dedup) if fresh + dedup else 0.0
        close_pass(out, sums)

    def enough(self, out: Outcome) -> bool:
        """Whether the run holds enough dedup latencies for their p95."""
        return len(out.layers.get("service.dedup_ms", ())) >= DEDUP_SAMPLES

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop(drain=True, timeout=JOB_TIMEOUT_S)
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
        self.root = self.server = self.client = None


def record_expected() -> dict[str, dict[str, Any]]:
    """Each kernel's ``n_tasks``, ``total_work`` and output digest, from a
    serial ``api.run`` without a cache (what ``expected.json`` holds)."""
    expected = {}
    for kernel in kernel_names():
        run = api.run(kernel, SIZE, jobs=1)
        expected[kernel] = {
            "n_tasks": run.record.n_tasks,
            "total_work": run.record.total_work,
            "digest": output_digest(run.result),
        }
    return expected


def make_workload(name: str, expected: dict[str, dict[str, Any]], tmp: Path):
    if name == "suite-serial":
        return Suite(False, expected, tmp)
    if name == "suite-pool":
        return Suite(True, expected, tmp)
    if name == "service-jobs":
        return Service(expected, tmp)
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")


def measure(
    name: str,
    expected: dict[str, dict[str, Any]],
    tmp: Path,
    seed: int,
    seconds: float,
    trace: bool,
    progress: Callable[[str], None] = lambda line: None,
) -> Outcome:
    """Set up ``workload.setups`` times, then measure passes for about ``seconds``.

    A new pass starts until the mean time per pass so far, checks included,
    no longer fits in the budget, the minimum passes ran and, on
    ``service-jobs``, the run holds enough dedup samples for p95.  With
    ``trace`` the passes alternate between untraced and traced, so the
    difference of their wall times is the tracing overhead.
    """
    out = Outcome()
    rng = random.Random(seed)
    workload = make_workload(name, expected, tmp)
    try:
        for i in range(workload.setups):
            workload.setup(out)
            progress(f"setup {i + 1}/{workload.setups}: {out.setup_s[-1]:.3f} s")
        min_passes = 2 if trace else 1
        t_start = time.perf_counter()
        n = 0
        while True:
            traced = trace and n % 2 == 1
            rec = SpanRecorder(enabled=traced)
            gc.collect()  # every pass starts from a collected heap
            wall = workload.run_pass(out, rng, rec)
            if traced:
                out.traced_walls.append(wall)
                out.recorders.append(rec)
            else:
                out.walls.append(wall)
            n += 1
            progress(f"pass {n}{' (traced)' if traced else ''}: {wall:.3f} s")
            elapsed = time.perf_counter() - t_start
            if (
                n >= min_passes
                and workload.enough(out)
                and elapsed + elapsed / n > seconds
            ):
                break
    finally:
        workload.teardown()
    return out
