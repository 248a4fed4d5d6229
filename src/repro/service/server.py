"""``repro serve``: the benchmark-as-a-service job daemon.

This is the layer that turns the CLI suite into a traffic-serving
system: a long-lived stdlib HTTP daemon (the same
:mod:`repro.obs.httpd` skin as the live plane in
:mod:`repro.obs.live`) in front of a :class:`JobService` --

* an admission-controlled **priority queue** (bounded depth -> HTTP
  429 with ``Retry-After``; see :mod:`repro.service.queue`),
* per-tenant **token quotas** keyed on the ``X-Tenant`` header,
* a **worker loop** driving jobs through the stable
  :mod:`repro.api` facade, so executors, fault policies, events and
  profiling all compose for free,
* a **result store** keyed on ``(suite, config digest, git sha)``
  (:mod:`repro.service.store`) that answers resubmitted identical
  jobs from disk without re-execution.

The HTTP surface (reference: ``docs/service.md``) is enumerated in
:data:`ROUTES` -- the one table that dispatches requests and that the
index endpoint, the request metrics, the documentation and the
doc-drift test all read, so the docs cannot silently diverge from the
server.  Every job runs with its own
:class:`~repro.obs.events.EventLog`; ``GET /jobs/{id}`` folds it
through the same :func:`repro.obs.live.status_from_events` the live
plane uses, so polling a running job shows chunk-level progress, and
the finished record carries the full narrative.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.obs import events as ev
from repro.obs.events import EventLog, new_run_id
from repro.obs.httpd import (
    DEFAULT_HOST,
    HTML,
    OPENMETRICS,
    HttpError,
    HttpServer,
    Reply,
    Request,
)
from repro.obs.live import status_from_events
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry, quantile_from_dict
from repro.obs.series import SAMPLE_SCHEMA, Sampler, SeriesStore
from repro.service.queue import JobQueue, QueueClosed, QueueFull, TokenBucket
from repro.service.schemas import JobSpec, JobSpecError, parse_job_spec
from repro.service.store import ResultStore, current_git_sha, result_key

#: Default service port (loopback; front a reverse proxy for real traffic).
DEFAULT_PORT = 8765

#: Tenant label used when a request carries no ``X-Tenant`` header.
DEFAULT_TENANT = "default"

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")

#: Schema tag of the ``GET /stats`` document -- the stable scraper
#: contract (monotonic counter totals under ``counters``/``requests``).
STATS_SCHEMA = "genomicsbench.service-stats/1"

#: Default seconds between series-store samples (``--sample-interval``).
DEFAULT_SAMPLE_INTERVAL = 5.0

@dataclass
class Job:
    """One submitted job and everything the API reports about it."""

    id: str
    spec: JobSpec
    tenant: str
    digest: str
    git_sha: str
    status: str = "queued"
    deduped: bool = False
    error: str | None = None
    submitted_unix: float = field(default_factory=time.time)
    started_unix: float | None = None
    finished_unix: float | None = None
    #: Per-job event log; the engine narrates into it while the job
    #: runs and ``GET /jobs/{id}`` folds it into live status.
    events: EventLog = field(default_factory=EventLog)

    @property
    def store_key(self) -> str:
        return result_key(self.spec.suite, self.digest, self.git_sha)

    def as_dict(self, live: bool = True) -> dict[str, Any]:
        """The JSON document ``GET /jobs/{id}`` serves."""
        doc: dict[str, Any] = {
            "id": self.id,
            "status": self.status,
            "tenant": self.tenant,
            "spec": self.spec.as_dict(),
            "summary": self.spec.summary(),
            "priority": self.spec.priority,
            "digest": self.digest,
            "git_sha": self.git_sha,
            "deduped": self.deduped,
            "error": self.error,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "events": len(self.events),
            "links": {
                "self": f"/jobs/{self.id}",
                "record": f"/jobs/{self.id}/record",
                "report": f"/jobs/{self.id}/report",
            },
        }
        if live and self.status == "running":
            doc["live"] = status_from_events(self.events.events)
        return doc


class JobService:
    """The job engine behind the HTTP surface.

    Owns the queue, the quotas, the store and the worker threads;
    :class:`ServiceServer` is a thin HTTP skin over :meth:`submit`,
    :meth:`get` and :meth:`jobs`.  ``runner`` is the function a worker
    applies to a job (default: :meth:`execute_job`, which drives
    :mod:`repro.api`); tests inject stubs to model slow or failing
    jobs without running kernels.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        queue_depth: int = 16,
        tenant_tokens: int = 16,
        tenant_refill_per_s: float = 1.0,
        state_dir: "Path | str | None" = None,
        store: ResultStore | None = None,
        cache: Any = None,
        events: EventLog | None = None,
        runner: "Callable[[Job], dict[str, Any]] | None" = None,
        clock: Callable[[], float] = time.monotonic,
        slo: Any = None,
        sample_interval: float | None = DEFAULT_SAMPLE_INTERVAL,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.store = store if store is not None else ResultStore(
            self.state_dir if self.state_dir is not None else None
        )
        self.cache = cache
        self.metrics = MetricsRegistry()
        self._mlock = threading.Lock()
        self._requests: dict[str, dict[str, int]] = {}
        self._tenant_submitted: dict[str, int] = {}
        self._busy_workers = 0
        self.queue = JobQueue(queue_depth, on_wait=self._observe_queue_wait)
        self.events = events if events is not None else EventLog(run_id="service")
        self.git_sha = current_git_sha()
        self._runner = runner if runner is not None else self.execute_job
        self._clock = clock
        self._tenant_tokens = tenant_tokens
        self._tenant_refill = tenant_refill_per_s
        self._buckets: dict[str, TokenBucket] = {}
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._durations: deque[float] = deque(maxlen=32)
        self._counters = {
            "submitted": 0, "deduped": 0, "rejected_queue": 0,
            "rejected_quota": 0, "conflicts": 0, "done": 0, "failed": 0,
        }
        self._accepting = True

        # SLO engine: a spec object or file path; breaches are judged
        # on every sample tick and emitted as events (transitions only)
        self.slo_spec = None
        self._slo_monitor = None
        if slo is not None:
            from repro.obs.slo import SloMonitor, SloSpec, load_slo_spec

            self.slo_spec = slo if isinstance(slo, SloSpec) else load_slo_spec(slo)
            self._slo_monitor = SloMonitor(self.slo_spec, events=self.events)

        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        self.started_unix = time.time()
        for thread in self._threads:
            thread.start()
        self.events.emit(
            ev.SERVICE_STARTED, workers=workers, queue_depth=queue_depth,
            git_sha=self.git_sha,
        )

        # persistent series: only with an explicit state-dir (a library
        # embedding without one should not write under the homedir)
        self.series: SeriesStore | None = None
        self._sampler: Sampler | None = None
        if self.state_dir is not None and sample_interval:
            self.series = SeriesStore(self.state_dir / "series")
            self._sampler = Sampler(
                self.sample, self.series,
                interval=sample_interval, on_sample=self._on_sample,
            ).start()

    # -- instrumentation ----------------------------------------------

    def _mcount(self, name: str, n: float = 1) -> None:
        with self._mlock:
            self.metrics.counter(name).inc(n)

    def _mobserve(self, name: str, value: float) -> None:
        with self._mlock:
            self.metrics.histogram(name, LATENCY_BUCKETS).observe(value)

    def _observe_queue_wait(self, seconds: float) -> None:
        self._mobserve("queue.wait_seconds", seconds)

    def _count_tenant(self, tenant: str) -> None:
        with self._lock:
            self._tenant_submitted[tenant] = self._tenant_submitted.get(tenant, 0) + 1
        self._mcount(f"tenant.submitted.{tenant}")

    def observe_request(
        self, method: str, template: str, status: int, seconds: float
    ) -> None:
        """Record one answered HTTP request (the HTTP skin's per-reply hook)."""
        key = f"{method} {template}"
        with self._mlock:
            self.metrics.counter(f"http.requests.{key}.{status}").inc()
            self.metrics.histogram(
                f"http.request_seconds.{key}", LATENCY_BUCKETS
            ).observe(seconds)
        with self._lock:
            by_status = self._requests.setdefault(key, {})
            by_status[str(status)] = by_status.get(str(status), 0) + 1

    def metrics_snapshot(self) -> dict[str, Any]:
        """The registry's dict snapshot plus point-in-time gauges.

        This is what ``GET /metrics`` encodes: monotonic counters and
        latency histograms straight from the registry, with live
        queue/worker/store gauges layered on top.
        """
        with self._mlock:
            doc = self.metrics.as_dict()
        with self._lock:
            busy = self._busy_workers
            submitted = self._counters["submitted"]
            deduped = self._counters["deduped"]
            states: dict[str, int] = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                states[job.status] = states.get(job.status, 0) + 1
        gauges = doc["gauges"]
        gauges["queue.depth"] = float(self.queue.depth)
        gauges["queue.max_depth"] = float(self.queue.max_depth)
        gauges["workers.total"] = float(len(self._threads))
        gauges["workers.busy"] = float(busy)
        gauges["service.accepting"] = 1.0 if self._accepting else 0.0
        gauges["service.uptime_seconds"] = round(time.time() - self.started_unix, 3)
        for state, n in states.items():
            gauges[f"jobs.state.{state}"] = float(n)
        ratio = self.store.hit_ratio
        if ratio is not None:
            gauges["store.hit_ratio"] = round(ratio, 6)
        if submitted:
            gauges["jobs.dedup_ratio"] = round(deduped / submitted, 6)
        return doc

    def _latency_quantiles(self) -> dict[str, float | None]:
        with self._mlock:
            hist = self.metrics.as_dict()["histograms"].get("job.run_seconds")
        if not hist:
            return {"p50": None, "p95": None, "p99": None}
        return {
            label: quantile_from_dict(hist, q)
            for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))
        }

    def sample(self) -> dict[str, Any]:
        """One JSON-ready series sample (what the background sampler
        persists every tick)."""
        snap = self.metrics_snapshot()
        with self._lock:
            counters = dict(self._counters)
            tenants = dict(self._tenant_submitted)
            requests = {k: dict(v) for k, v in self._requests.items()}
        sample_counters = {f"jobs.{k}": v for k, v in counters.items()}
        sample_counters["http.requests"] = sum(
            n for by_status in requests.values() for n in by_status.values()
        )
        return {
            "schema": SAMPLE_SCHEMA,
            "t": time.time(),
            "gauges": {k: v for k, v in snap["gauges"].items() if v is not None},
            "counters": sample_counters,
            "requests": requests,
            "tenants": tenants,
            "hists": {
                name: hist
                for name, hist in snap["histograms"].items()
                if name in ("job.run_seconds", "queue.wait_seconds")
            },
            "latency": self._latency_quantiles(),
        }

    def _on_sample(self, sample: dict[str, Any]) -> None:
        """Sampler hook: judge the SLO over the freshly-extended series."""
        if self._slo_monitor is None or self.series is None:
            return
        longest = max(w.seconds for w in self.slo_spec.windows)
        since = float(sample.get("t", time.time())) - longest - 1.0
        self._slo_monitor.update(self.series.load(since=since))

    def healthz(self, verbose: bool = False) -> dict[str, Any]:
        """The ``GET /healthz`` document; ``verbose`` adds SLO detail."""
        doc: dict[str, Any] = {"status": "ok", "accepting": self._accepting}
        if not verbose:
            return doc
        doc["uptime_seconds"] = round(time.time() - self.started_unix, 3)
        doc["queue"] = {"depth": self.queue.depth, "max_depth": self.queue.max_depth}
        with self._lock:
            doc["workers"] = {"total": len(self._threads), "busy": self._busy_workers}
        doc["series_samples"] = len(self.series) if self.series is not None else 0
        if self.slo_spec is not None and self.series is not None:
            from repro.obs.slo import evaluate_slo

            report = evaluate_slo(self.slo_spec, self.series.load())
            doc["slo"] = report.as_dict()
            if not report.ok:
                doc["status"] = "degraded"
        elif self.slo_spec is not None:
            doc["slo"] = {"error": "no series store; start with --state-dir"}
        else:
            doc["slo"] = {"error": "no SLO spec; start with --slo"}
        return doc

    # -- admission -----------------------------------------------------

    def _bucket(self, tenant: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(
                    self._tenant_tokens, self._tenant_refill, clock=self._clock
                )
                self._buckets[tenant] = bucket
            return bucket

    def retry_after_hint(self) -> int:
        """Seconds a 429'd client should wait before resubmitting.

        Scaled from the observed mean job duration and the current
        backlog per worker, so the hint tracks real drain speed; with
        no history yet it is a flat 1 second.
        """
        with self._lock:
            if not self._durations:
                avg = 1.0
            else:
                avg = sum(self._durations) / len(self._durations)
        backlog = self.queue.depth / max(1, len(self._threads))
        return max(1, math.ceil(avg * (backlog + 1)))

    def submit(
        self, doc: Any, tenant: str = DEFAULT_TENANT
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Admit one job document; returns (HTTP status, body, headers).

        The admission ladder, in order: drain check (503), spec
        validation (400), tenant quota (429), result-store dedup
        (200, instant), duplicate in-flight (409), bounded queue
        (429 or 202).
        """
        if not self._accepting:
            return 503, {"error": "service is draining; not accepting jobs"}, {}
        try:
            spec = parse_job_spec(doc)
        except JobSpecError as exc:
            return 400, {"error": str(exc)}, {}

        wait = self._bucket(tenant).try_take()
        if wait > 0:
            retry = 2**31 if math.isinf(wait) else max(1, math.ceil(wait))
            with self._lock:
                self._counters["rejected_quota"] += 1
            self._mcount("jobs.rejected_quota")
            self.events.emit(
                ev.JOB_REJECTED, "warning", tenant=tenant,
                reason="quota", retry_after=retry, summary=spec.summary(),
            )
            return (
                429,
                {"error": f"tenant {tenant!r} is out of tokens", "retry_after": retry},
                {"Retry-After": str(retry)},
            )

        digest = spec.digest()
        key = result_key(spec.suite, digest, self.git_sha)

        # an identical finished job answers from the store, instantly
        if self.store.load(key) is not None:
            job = Job(
                id=new_run_id(), spec=spec, tenant=tenant, digest=digest,
                git_sha=self.git_sha, status="done", deduped=True,
                started_unix=time.time(), finished_unix=time.time(),
            )
            with self._lock:
                self._jobs[job.id] = job
                self._counters["submitted"] += 1
                self._counters["deduped"] += 1
            self._mcount("jobs.submitted")
            self._mcount("jobs.deduped")
            self._count_tenant(tenant)
            self.events.emit(
                ev.JOB_DEDUPED, job_id=job.id, tenant=tenant,
                digest=digest, summary=spec.summary(),
            )
            return 200, job.as_dict(), {"Location": f"/jobs/{job.id}"}

        # an identical job already queued or running is a conflict:
        # point the client at it instead of doubling the work
        with self._lock:
            for other in self._jobs.values():
                if other.store_key == key and other.status in ("queued", "running"):
                    self._counters["conflicts"] += 1
                    self._mcount("jobs.conflicts")
                    return (
                        409,
                        {
                            "error": "an identical job is already "
                            f"{other.status}; poll it instead",
                            "job": other.id,
                        },
                        {"Location": f"/jobs/{other.id}"},
                    )

        job = Job(
            id=new_run_id(), spec=spec, tenant=tenant, digest=digest,
            git_sha=self.git_sha,
        )
        job.events.set_run_id(job.id)
        try:
            position = self.queue.push(job, spec.priority)
        except QueueClosed:
            return 503, {"error": "service is draining; not accepting jobs"}, {}
        except QueueFull as exc:
            retry = self.retry_after_hint()
            with self._lock:
                self._counters["rejected_queue"] += 1
            self._mcount("jobs.rejected_queue")
            self.events.emit(
                ev.JOB_REJECTED, "warning", tenant=tenant, reason="queue_full",
                depth=exc.depth, retry_after=retry, summary=spec.summary(),
            )
            return (
                429,
                {"error": str(exc), "retry_after": retry},
                {"Retry-After": str(retry)},
            )
        with self._lock:
            self._jobs[job.id] = job
            self._counters["submitted"] += 1
        self._mcount("jobs.submitted")
        self._count_tenant(tenant)
        self.events.emit(
            ev.JOB_SUBMITTED, job_id=job.id, tenant=tenant, digest=digest,
            priority=spec.priority, position=position, summary=spec.summary(),
        )
        doc_out = job.as_dict()
        doc_out["position"] = position
        return 202, doc_out, {"Location": f"/jobs/{job.id}"}

    # -- execution -----------------------------------------------------

    def execute_job(self, job: Job) -> dict[str, Any]:
        """Drive one job through the :mod:`repro.api` facade."""
        import repro.api as api

        obs = api.ObsOptions(events=job.events)
        if job.spec.kind == "run":
            run = api.run(
                job.spec.kernel,
                job.spec.size,
                cache=self.cache,
                obs=obs,
                **job.spec.config,
            )
            return run.record.to_dict()
        from repro.sweep import SweepSpec, run_sweep

        sweep_root = (
            self.state_dir if self.state_dir is not None else self.store.root
        ) / "sweeps" / job.id
        sweep = run_sweep(
            SweepSpec.from_dict(dict(job.spec.sweep_spec)),
            sweep_root,
            cache=self.cache,
            obs=obs,
            events=job.events,
        )
        return sweep.to_dict()

    def _worker_loop(self) -> None:
        while True:
            idle_from = time.perf_counter()
            job = self.queue.pop(timeout=0.5)
            self._mcount("workers.idle_seconds", time.perf_counter() - idle_from)
            if job is None:
                if self.queue.closed:
                    return
                continue
            job.status = "running"
            job.started_unix = time.time()
            started = time.perf_counter()
            with self._lock:
                self._busy_workers += 1
            self.events.emit(
                ev.JOB_STARTED, job_id=job.id, tenant=job.tenant,
                summary=job.spec.summary(),
            )
            try:
                try:
                    record = self._runner(job)
                    self.store.store(job.store_key, record)
                except Exception as exc:  # noqa: BLE001 - job errors are data
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.status = "failed"
                    job.finished_unix = time.time()
                    with self._lock:
                        self._counters["failed"] += 1
                    self._mcount("jobs.failed")
                    self._mobserve("job.run_seconds", time.perf_counter() - started)
                    self.events.emit(
                        ev.JOB_FAILED, "error", job_id=job.id, tenant=job.tenant,
                        error=job.error,
                    )
                    continue
                job.status = "done"
                job.finished_unix = time.time()
                seconds = time.perf_counter() - started
                with self._lock:
                    self._counters["done"] += 1
                    self._durations.append(seconds)
                self._mcount("jobs.done")
                self._mobserve("job.run_seconds", seconds)
                self.events.emit(
                    ev.JOB_FINISHED, job_id=job.id, tenant=job.tenant,
                    seconds=round(seconds, 6),
                )
            finally:
                busy = time.perf_counter() - started
                with self._lock:
                    self._busy_workers -= 1
                self._mcount("workers.busy_seconds", busy)

    # -- reading -------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(
        self, status: str | None = None, tenant: str | None = None
    ) -> list[Job]:
        """All known jobs, newest first, optionally filtered."""
        with self._lock:
            out = list(self._jobs.values())
        if status is not None:
            out = [j for j in out if j.status == status]
        if tenant is not None:
            out = [j for j in out if j.tenant == tenant]
        return sorted(out, key=lambda j: j.submitted_unix, reverse=True)

    def record_for(self, job: Job) -> dict[str, Any] | None:
        """The finished record of a done job (store-backed)."""
        return self.store.load(job.store_key)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            counters = dict(self._counters)
            requests = {k: dict(v) for k, v in self._requests.items()}
            tenants = {
                name: round(bucket.tokens, 3)
                for name, bucket in self._buckets.items()
            }
            states: dict[str, int] = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                states[job.status] = states.get(job.status, 0) + 1
        return {
            "schema": STATS_SCHEMA,
            "accepting": self._accepting,
            "queue": {"depth": self.queue.depth, "max_depth": self.queue.max_depth},
            "workers": len(self._threads),
            "jobs": states,
            "counters": counters,
            # monotonic totals per "<METHOD> <route pattern>" and status
            "requests": requests,
            "latency_seconds": self._latency_quantiles(),
            "tenant_tokens": tenants,
            "git_sha": self.git_sha,
            "uptime_seconds": round(time.time() - self.started_unix, 3),
            "retry_after_hint": self.retry_after_hint(),
        }

    # -- lifecycle -----------------------------------------------------

    def stop(self, drain: bool = True, timeout: float = 30.0) -> bool:
        """Stop the workers; returns True when every job finished.

        ``drain=True`` (the default) closes the queue to new work but
        lets workers finish queued and in-flight jobs before joining;
        ``drain=False`` abandons queued jobs (in-flight ones still run
        to completion -- the engine has no preemption point).
        """
        self._accepting = False
        self.events.emit(ev.SERVICE_STOPPING, drain=drain)
        if not drain:
            # drop queued jobs so workers exit at the next poll
            while self.queue.pop(timeout=0) is not None:
                pass
        self.queue.close()
        deadline = time.monotonic() + timeout
        clean = True
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
            clean = clean and not thread.is_alive()
        if self._sampler is not None:
            # one final sample so even a short lifetime leaves a record
            self._sampler.stop(final_sample=True)
            self._sampler = None
        self.events.emit(ev.SERVICE_STOPPED, clean=clean)
        return clean


# -- HTTP skin ---------------------------------------------------------


class ServiceServer(HttpServer):
    """The HTTP daemon bound to one :class:`JobService`.

    ``stop`` shuts the HTTP listener *after* draining the job service,
    so in-flight work finishes before the socket disappears.
    """

    server_version = "repro-serve/1"

    def __init__(self, service: JobService, port: int = DEFAULT_PORT, host: str = DEFAULT_HOST):
        super().__init__(port, host)
        self.service = service

    def observed(self, method: str, template: str, code: int, seconds: float) -> None:
        self.service.observe_request(method, template, code, seconds)

    def stop(self, drain: bool = True, timeout: float = 30.0) -> bool:
        if self._httpd is None:
            return True
        clean = self.service.stop(drain=drain, timeout=timeout)
        super().stop()
        return clean

    def _job(self, req: Request) -> Job:
        job = self.service.get(req.params["id"])
        if job is None:
            raise HttpError(404, f"no such job {req.params['id']!r}")
        return job

    def _finished(self, req: Request) -> tuple[Job, dict[str, Any]]:
        """The job and its record; a 409 or 404 while there is none."""
        job = self._job(req)
        if job.status in ("queued", "running"):
            raise HttpError(409, f"job {job.id} is {job.status}; no record yet", status=job.status)
        if job.status == "failed":
            raise HttpError(409, f"job {job.id} failed: {job.error}", status="failed")
        record = self.service.record_for(job)
        if record is None:
            raise HttpError(404, f"job {job.id} finished but its record is gone")
        return job, record

    def _index(self, req: Request) -> dict[str, Any]:
        from repro import __version__

        return {
            "service": "genomicsbench repro serve",
            "version": __version__,
            "git_sha": self.service.git_sha,
            "endpoints": self.endpoints(),
        }

    def _healthz(self, req: Request) -> dict[str, Any]:
        return self.service.healthz(req.arg("verbose", "0") not in ("", "0", "false"))

    def _metrics(self, req: Request) -> Reply:
        from repro.obs.report import encode_openmetrics

        labels = {"service": "repro-serve", "git_sha": self.service.git_sha}
        return Reply(encode_openmetrics(self.service.metrics_snapshot(), labels), 200, OPENMETRICS)

    def _submit(self, req: Request) -> Reply:
        tenant = req.headers.get("X-Tenant", DEFAULT_TENANT).strip() or DEFAULT_TENANT
        code, body, headers = self.service.submit(req.json(), tenant)
        return Reply(body, code, headers=headers)

    def _list(self, req: Request) -> dict[str, Any]:
        status = req.arg("status")
        if status is not None and status not in JOB_STATES:
            raise HttpError(400, f"unknown status {status!r}; valid: {', '.join(JOB_STATES)}")
        jobs = self.service.jobs(status, req.arg("tenant"))
        return {"jobs": [j.as_dict(live=False) for j in jobs]}

    def _report(self, req: Request) -> Reply:
        job, record = self._finished(req)
        if job.spec.kind == "sweep":
            from repro.obs.report import render_sweep_report
            from repro.sweep.aggregate import SweepRecord

            html = render_sweep_report(SweepRecord.from_dict(record))
        else:
            from repro.obs.report import render_report
            from repro.runner.record import RunRecord

            html = render_report(RunRecord.from_dict(record))
        return Reply(html, 200, HTML)

    #: The service's public HTTP surface.  ``docs/service.md`` documents
    #: exactly these routes and ``tests/service/test_docs.py`` diffs the
    #: two, so adding a route without documenting it fails CI.
    routes = (
        {
            "method": "GET",
            "path": "/",
            "description": "service index: endpoints and version",
            "handler": _index,
        },
        {"method": "GET", "path": "/healthz", "description": "liveness probe", "handler": _healthz},
        {
            "method": "GET",
            "path": "/healthz?verbose=1",
            "description": "health plus SLO burn-rate detail",
            "handler": _healthz,
        },
        {
            "method": "GET",
            "path": "/stats",
            "description": "queue depth, tenants, counters",
            "handler": lambda self, req: self.service.stats(),
        },
        {
            "method": "GET",
            "path": "/metrics",
            "description": "OpenMetrics exposition of service metrics",
            "handler": _metrics,
        },
        {
            "method": "POST",
            "path": "/jobs",
            "description": "submit a run or sweep job",
            "handler": _submit,
        },
        {
            "method": "GET",
            "path": "/jobs",
            "description": "list jobs (?status=, ?tenant=)",
            "handler": _list,
        },
        {
            "method": "GET",
            "path": "/jobs/{id}",
            "description": "job status (live fold while running)",
            "handler": lambda self, req: self._job(req).as_dict(),
        },
        {
            "method": "GET",
            "path": "/jobs/{id}/record",
            "description": "the finished record JSON",
            "handler": lambda self, req: self._finished(req)[1],
        },
        {
            "method": "GET",
            "path": "/jobs/{id}/report",
            "description": "self-contained HTML report",
            "handler": _report,
        },
    )


#: The route table: dispatch, the ``GET /`` index and the metric labels.
ROUTES = ServiceServer.routes

#: Collapse a concrete request path onto its :data:`ROUTES` pattern.
route_template = ServiceServer.template
