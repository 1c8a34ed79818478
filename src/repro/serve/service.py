"""The sweep service: many tenants, one scheduler, one result cache.

:class:`SweepService` is the daemon's engine room, deliberately free of
HTTP so it is testable in-process:

* **Submission** decodes a payload to a spec, then walks the spec's
  unique points through three buckets: persistent-cache hits are
  replayed into the job immediately; points another live job already has
  queued or in flight are *subscribed to* instead of re-enqueued
  (``serve.points.deduped`` - identical fingerprinted work computes once
  no matter how many tenants ask); the genuinely new remainder is
  chunked and fed to the shared :class:`~repro.campaign.scheduler.Scheduler`
  under the submitting tenant's fair-share queue.
* **The pump thread** drains the scheduler through the service's
  :class:`~repro.campaign.runtime.RunCore` - the same dispatch loop, cache
  split, checkpoint path and quarantine record as the one-shot
  executor.  At ``jobs=1`` the core's runtime executes chunks inline
  (bit-identical to the one-shot serial run, and friendly to tests that
  register task kinds in-process); otherwise through a process pool with
  crash recovery.  Every scheduler call the pump makes holds the service
  lock.
* **Absorption** checkpoints records to the advisory-locked cache (in
  the core), then fans each record out to every subscribed job, firing
  ``result`` and ``progress`` events (the NDJSON deltas) and completing
  jobs whose remaining set empties.
* **Drain** (SIGTERM) stops intake (:class:`ServiceDraining` -> 503 at
  the HTTP layer), lets the pump checkpoint in-flight work, then marks
  every unfinished job ``interrupted``/resumable - resubmitting the same
  spec after a restart replays finished points from the cache and only
  computes the abandoned tail.

What stays in this module is what only the daemon has: jobs, tenants,
subscriber dedupe and the durable job log.

Accounting: one service-level :class:`~repro.obs.Recorder` collects
``serve.*`` counters (global and per tenant) plus merged worker solver
metrics, crystallised into an ordinary schema-versioned ``report.json``
under ``<cache>/serve/`` so ``repro stats`` renders daemon traffic with
the same tooling as one-shot runs.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .. import obs
from ..campaign import (
    CampaignSummary,
    Chunk,
    ChunkEnv,
    ResultCache,
    Scheduler,
    SweepSpec,
    TaskRecord,
)
from ..campaign.runtime import RunCore
from ..campaign.scheduler import BackoffPolicy, chunk_points
from ..obs.context import TraceContext
from ..obs.export import render_metrics
from ..obs.report import build_report, write_report
from ..obs.trace import (
    DEFAULT_TRACE_MAX_BYTES,
    TRACE_FILENAME,
    TRACE_SCHEMA,
    TraceWriter,
    null_trace,
)
from .models import JobState, submission_to_spec, validate_tenant
from .state import JOB_LOG_SUBDIR, Job, JobLog, JobStore, decode_spec

#: Subdirectory of the cache dir receiving the service report.json.
SERVE_OBS_SUBDIR = "serve"


class ServiceDraining(RuntimeError):
    """Submission rejected: the daemon is shutting down (HTTP 503)."""


class SweepService:
    """See the module docstring; every public method is thread-safe."""

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Union[None, str, Path] = None,
        retries: int = 1,
        chunksize: Optional[int] = None,
        deadline_s: Optional[float] = None,
        observe: bool = True,
        obs_dir: Union[None, str, Path] = None,
        rate_limits: Optional[Dict[str, float]] = None,
        backoff: Optional[BackoffPolicy] = None,
        trace_max_bytes: Optional[int] = DEFAULT_TRACE_MAX_BYTES,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        if obs_dir is not None:
            self.obs_dir: Optional[Path] = Path(obs_dir)
        elif cache_dir is not None:
            self.obs_dir = Path(cache_dir) / SERVE_OBS_SUBDIR
        else:
            self.obs_dir = None
        # The durable job ledger lives beside the service report, under
        # the *cache* tree: replaying it against that same cache is what
        # makes restart-resume free of duplicate compute.
        self.job_log: Optional[JobLog] = (
            JobLog(Path(cache_dir) / SERVE_OBS_SUBDIR / JOB_LOG_SUBDIR)
            if cache_dir is not None else None
        )

        self.store = JobStore()
        self._lock = self.store.lock  # one lock tree: store + scheduler + obs
        self.recorder = obs.Recorder()
        backoff = backoff if backoff is not None else BackoffPolicy()
        self.scheduler = Scheduler(backoff=backoff)
        self.scheduler.on_dispatch = self._on_dispatch
        for tenant, rate in (rate_limits or {}).items():
            self.scheduler.set_rate_limit(validate_tenant(tenant), rate)

        # The daemon-lifetime trace: job-submit roots + worker spans,
        # size-rotated so an always-on service never fills the disk.
        if observe and self.obs_dir is not None:
            self.trace: Any = TraceWriter(
                self.obs_dir / TRACE_FILENAME,
                max_bytes=trace_max_bytes,
                on_rotate=self._on_trace_rotate,
            )
            self.trace.emit(
                "serve-start", schema=TRACE_SCHEMA, pid=os.getpid(),
                jobs=jobs, start=time.time(),
            )
        else:
            self.trace = null_trace()
        self.core = RunCore(
            jobs, retries, chunksize, deadline_s, observe, backoff,
            cache=self.cache, emit=self.trace.emit, recorder=self.recorder,
            lock=self._lock, deliver=self._fan_out,
        )

        #: (key, fingerprint) -> job ids subscribed to the in-flight point.
        self._subscribers: Dict[Tuple[str, str], List[str]] = {}
        self._wake = threading.Event()
        self._draining = False
        self._started = time.monotonic()
        self._pump_thread: Optional[threading.Thread] = None
        self._stop = False

    # -- counters ----------------------------------------------------------

    def _count(self, name: str, n: int = 1,
               tenant: Optional[str] = None) -> None:
        with self._lock:
            self.recorder.count(name, n)
            if tenant is not None:
                self.recorder.count(f"serve.tenant.{tenant}.{name[6:]}", n)

    def _observe(self, name: str, value: float,
                 tenant: Optional[str] = None) -> None:
        """Record a ``serve.*`` histogram sample, plus its tenant twin."""
        with self._lock:
            self.recorder.observe(name, value)
            if tenant is not None:
                self.recorder.observe(
                    f"serve.tenant.{tenant}.{name[6:]}", value
                )

    def _on_dispatch(self, chunk: Chunk, waited: float) -> None:
        """Scheduler hook: how long a chunk sat queued (the SLO series)."""
        self._observe("serve.queue_wait.seconds", waited,
                      tenant=chunk.tenant)

    def _on_trace_rotate(self, rotations: int) -> None:
        self._count("trace.rotations")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SweepService":
        if self._pump_thread is not None:
            raise RuntimeError("service already started")
        self.recover_jobs()
        self._pump_thread = threading.Thread(
            target=self.core.pump, args=(
                self.scheduler,
                lambda: self._draining or self._stop,
                self._idle_wait,
            ), name="repro-serve-pump", daemon=True,
        )
        self._pump_thread.start()
        return self

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop intake; the pump checkpoints in-flight work and exits."""
        self._draining = True
        self._wake.set()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: drain, join the pump, mark survivors resumable."""
        self.begin_drain()
        if self._pump_thread is not None:
            self._pump_thread.join(timeout)
        interrupted = 0
        with self._lock:
            for job in self.store.jobs():
                if not job.state.terminal:
                    self.store.transition(
                        job, JobState.INTERRUPTED, resumable=True,
                        **job.progress_fields(),
                    )
                    self.trace.emit(
                        "job-interrupted", job=job.id,
                        trace_id=job.trace_id,
                        elapsed=round(
                            time.monotonic() - job.created_mono, 6),
                    )
                    interrupted += 1
            self._subscribers.clear()
        if interrupted:
            self._count("serve.jobs.interrupted", interrupted)
        self.write_report(interrupted=bool(interrupted))
        self.trace.emit("serve-stop", interrupted=interrupted)
        self.trace.close()

    def stop(self, timeout: Optional[float] = None) -> None:
        """Hard stop for tests: like drain, but impatient."""
        self._stop = True
        self.drain(timeout)

    # -- submission --------------------------------------------------------

    def submit(self, payload: Union[Dict[str, Any], SweepSpec],
               tenant: str = "default", job_id: Optional[str] = None,
               recovered: bool = False) -> Job:
        """Admit one submission; returns the (possibly already DONE) job.

        Raises :class:`ServiceDraining` during shutdown and ``ValueError``
        for undecodable payloads - the HTTP layer maps those to 503/400.

        The submission is written ahead to the durable job log (fsync'd)
        before any chunk reaches the scheduler, so an acknowledged job
        survives a daemon ``kill -9``.  ``job_id``/``recovered`` are the
        replay path: the entry already exists in the log, and the job
        keeps its original identity.
        """
        tenant = validate_tenant(tenant)
        if self._draining:
            raise ServiceDraining("service is draining; resubmit later")
        spec = payload if isinstance(payload, SweepSpec) \
            else submission_to_spec(payload)
        fingerprint = spec.fingerprint()
        context = spec.context_dict()

        ctx = TraceContext.new()  # the job's root trace context
        with self._lock:
            if self._draining:  # drain flag could flip while decoding
                raise ServiceDraining("service is draining; resubmit later")
            job = self.store.create(tenant, spec, fingerprint, job_id=job_id)
            job.trace_id, job.span_id = ctx.trace_id, ctx.span_id
            if self.job_log is not None and not recovered:
                if isinstance(payload, SweepSpec):
                    self.job_log.log_submit(job.id, tenant, job.created,
                                            spec=payload)
                else:
                    self.job_log.log_submit(job.id, tenant, job.created,
                                            payload=payload)
            self._count("serve.jobs.submitted", tenant=tenant)
            if recovered:
                self._count("serve.jobs.recovered", tenant=tenant)
            hits, pending = self.core.split(spec.tasks, fingerprint)
            job.total = len(hits) + len(pending)
            job.cache_hits = len(hits)
            for record in hits:
                self._deliver(job, record, cached=True)
            fresh = []
            for point in pending:
                job.remaining.add(point.key)
                slot = (point.key, fingerprint)
                subscribers = self._subscribers.get(slot)
                if subscribers is not None:
                    # Another live job already queued this exact point:
                    # compute once, fan out to everybody.
                    subscribers.append(job.id)
                    job.deduped += 1
                    self._count("serve.points.deduped", tenant=tenant)
                    continue
                self._subscribers[slot] = [job.id]
                fresh.append(point)
            self._count("serve.points.total", job.total, tenant=tenant)
            self._count("serve.points.cache_hits", job.cache_hits,
                        tenant=tenant)
            env = ChunkEnv(
                context=context, fingerprint=fingerprint,
                trace=ctx.to_dict() if self.core.observe else None,
            )
            for points in chunk_points(fresh, self.jobs, self.core.chunksize):
                self.scheduler.add(Chunk.make(points, tenant, meta=env))
            self.store.emit(job, "submitted", **job.progress_fields())
            if recovered:
                self.store.emit(job, "recovered", **job.progress_fields())
            self.trace.emit(
                "job-submit", schema=TRACE_SCHEMA, job=job.id,
                tenant=tenant, name=spec.name,
                trace_id=ctx.trace_id, span_id=ctx.span_id,
                pid=os.getpid(), start=time.time(), total=job.total,
                cache_hits=job.cache_hits, deduped=job.deduped,
            )
            if not job.remaining:
                self._finish(job)
        self._wake.set()
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a job; shared in-flight points keep computing for others.

        Works on INTERRUPTED jobs too: a drained job is resumable, and
        cancelling it is the owner's way of telling the durable job log
        "do not resurrect this on the next start".  Queued chunks whose
        every point just lost its last subscriber are pruned from the
        scheduler - DELETE before dispatch means the work never runs.
        """
        with self._lock:
            job = self.store.get(job_id)
            if job is None:
                raise KeyError(job_id)
            if job.state.terminal and job.state is not JobState.INTERRUPTED:
                return job
            for slot in [
                s for s, subs in self._subscribers.items()
                if job.id in subs
            ]:
                subscribers = self._subscribers[slot]
                subscribers.remove(job.id)
                if not subscribers:
                    del self._subscribers[slot]
            pruned = self.scheduler.prune(
                lambda chunk: not any(
                    (point.key, chunk.meta.fingerprint) in self._subscribers
                    for point in chunk.points
                )
            )
            if pruned:
                self._count("serve.points.cancelled", pruned,
                            tenant=job.tenant)
            job.remaining.clear()
            self.store.transition(job, JobState.CANCELLED)
            if self.job_log is not None:
                self.job_log.log_terminal(job.id, JobState.CANCELLED)
            self._count("serve.jobs.cancelled", tenant=job.tenant)
            return job

    def recover_jobs(self) -> int:
        """Replay unfinished submissions from the durable job log.

        Called by :meth:`start` before the pump touches the scheduler.
        Each pending entry resubmits under its original job id and
        tenant; points already computed before the crash replay
        instantly as cache hits, so a restart never duplicates compute.
        Undecodable entries are counted, terminally marked (so they stop
        poisoning every future start) and skipped.  The log is compacted
        afterwards.
        """
        if self.job_log is None:
            return 0
        pending = self.job_log.pending()
        if self.job_log.corrupt_lines:
            self._count("serve.joblog.corrupt_lines",
                        self.job_log.corrupt_lines)
        recovered = 0
        for entry in pending:
            try:
                payload: Union[Dict[str, Any], SweepSpec] = (
                    entry["payload"] if "payload" in entry
                    else decode_spec(entry["spec_b64"])
                )
                job = self.submit(
                    payload, tenant=entry.get("tenant", "default"),
                    job_id=entry["id"], recovered=True,
                )
            except Exception as error:  # noqa: BLE001 - one bad entry
                # must not block the rest of the replay (or the daemon).
                self._count("serve.jobs.recovery_failed")
                self.job_log.log_terminal(entry["id"], JobState.CANCELLED)
                self.trace.emit(
                    "job-recovery-failed", job=entry.get("id"),
                    error=f"{type(error).__name__}: {error}",
                )
                continue
            job.created = entry.get("created", job.created)
            recovered += 1
        self.job_log.compact(self.job_log.pending())
        return recovered

    # -- result fan-out ----------------------------------------------------

    def _deliver(self, job: Job, record: TaskRecord,
                 cached: bool = False) -> None:
        """Hand one finished record to one job (lock held)."""
        job.records[record.key] = record
        job.remaining.discard(record.key)
        if not record.ok:
            job.failures += 1
        if not cached and job.first_result_s is None:
            job.first_result_s = time.monotonic() - job.created_mono
            self._observe("serve.submit_to_first_result.seconds",
                          job.first_result_s, tenant=job.tenant)
        if job.state is JobState.QUEUED and not cached:
            self.store.transition(job, JobState.RUNNING)
        self.store.emit(
            job, "result", key=record.key, kind=record.kind,
            status=record.status, value=record.value, error=record.error,
            elapsed=record.elapsed, cached=cached,
        )

    def _finish(self, job: Job) -> None:
        if job.state.terminal:
            return
        elapsed = time.monotonic() - job.created_mono
        self.store.transition(job, JobState.DONE, **job.progress_fields())
        if self.job_log is not None:
            self.job_log.log_terminal(job.id, JobState.DONE)
        self._count("serve.jobs.completed", tenant=job.tenant)
        self._observe("serve.job.seconds", elapsed, tenant=job.tenant)
        self.trace.emit(
            "job-done", job=job.id, trace_id=job.trace_id,
            elapsed=round(elapsed, 6), failures=job.failures,
        )
        if self.obs_dir is not None:
            self.write_report()

    def _fan_out(self, chunk: Chunk, records: List[TaskRecord]) -> None:
        """RunCore ``deliver`` hook: hand a checkpointed chunk to its jobs.

        Called with the lock held, from the pump thread.
        """
        fingerprint = chunk.meta.fingerprint
        self._count("serve.points.executed", len(records), tenant=chunk.tenant)
        failed = sum(0 if r.ok else 1 for r in records)
        if failed:
            self._count("serve.points.failed", failed, tenant=chunk.tenant)
        touched: List[Job] = []
        for record in records:
            for job_id in self._subscribers.pop((record.key, fingerprint), []):
                job = self.store.get(job_id)
                if job is None or job.state.terminal:
                    continue
                job.executed += 1
                self._deliver(job, record)
                if job not in touched:
                    touched.append(job)
        for job in touched:
            if job.remaining:
                self.store.emit(job, "progress", **job.progress_fields())
            else:
                self._finish(job)

    # -- the pump ----------------------------------------------------------

    def _idle_wait(self) -> None:
        self._wake.wait(timeout=0.2)
        self._wake.clear()

    # -- introspection / reporting -----------------------------------------

    def job_dict(self, job_id: str) -> Dict[str, Any]:
        job = self.store.get(job_id)
        if job is None:
            raise KeyError(job_id)
        with self._lock:
            return job.to_dict()

    def job_records(self, job_id: str) -> Dict[str, Dict[str, Any]]:
        """Per-key result payloads (the /result endpoint body)."""
        job = self.store.get(job_id)
        if job is None:
            raise KeyError(job_id)
        with self._lock:
            return {
                key: {
                    "kind": r.kind, "params": dict(r.params),
                    "status": r.status, "value": r.value, "error": r.error,
                }
                for key, r in sorted(job.records.items())
            }

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            pump = self._pump_thread
            return {
                "draining": self._draining,
                "jobs": self.store.states(),
                "tenants": self.scheduler.tenants,
                "queued_points": self.scheduler.pending(),
                "queued_by_tenant": self.scheduler.pending_by_tenant(),
                "counters": dict(sorted(self.recorder.counters.items())),
                "uptime_s": time.monotonic() - self._started,
                "workers": {
                    "jobs": self.jobs,
                    "mode": "inline" if self.jobs == 1 else "pool",
                    "pump_alive": bool(pump is not None and pump.is_alive()),
                },
            }

    def prometheus(self) -> str:
        """The ``/metrics`` scrape body (Prometheus text format 0.0.4).

        Counters and histograms come straight off the live recorder;
        liveness facts that are not recorder metrics (queue depths, job
        states, uptime, drain flag) are rendered as gauges.  Job-state
        gauges iterate *all* states so every ``serve_jobs_total{state=...}``
        series exists from the first scrape, even at zero.
        """
        with self._lock:
            counters = dict(self.recorder.counters)
            histograms = {
                name: hist.to_dict()
                for name, hist in self.recorder.histograms.items()
            }
            states = self.store.states()
            queued_by_tenant = self.scheduler.pending_by_tenant()
            queued_total = self.scheduler.pending()
            uptime = time.monotonic() - self._started
            draining = self._draining
            pump = self._pump_thread
        gauges: List[Tuple[str, Any, float]] = [
            ("serve_uptime_seconds", (), uptime),
            ("serve_draining", (), 1.0 if draining else 0.0),
            ("serve_local_jobs", (), float(self.jobs)),
            ("serve_pump_alive", (),
             1.0 if pump is not None and pump.is_alive() else 0.0),
            ("serve_queue_depth_points", (), float(queued_total)),
        ]
        for state in JobState:
            gauges.append((
                "serve_jobs_total", (("state", state.value),),
                float(states.get(state.value, 0)),
            ))
        for tenant in sorted(queued_by_tenant):
            gauges.append((
                "serve_tenant_queue_depth_points", (("tenant", tenant),),
                float(queued_by_tenant[tenant]),
            ))
        return render_metrics(counters, histograms, gauges)

    def write_report(self, interrupted: bool = False) -> Optional[Path]:
        """Crystallise the service counters as a standard report.json."""
        if self.obs_dir is None:
            return None
        with self._lock:
            counters = self.recorder.counters
            summary = CampaignSummary(
                name="serve",
                total=counters.get("serve.points.total", 0),
                executed=counters.get("serve.points.executed", 0),
                cache_hits=(counters.get("serve.points.cache_hits", 0)
                            + counters.get("serve.points.deduped", 0)),
                failures=counters.get("serve.points.failed", 0),
                wall_time=time.monotonic() - self._started,
                quarantined=counters.get("campaign.task.quarantined", 0),
                timeouts=counters.get("campaign.task.timeouts", 0),
                interrupted=interrupted,
            )
            report = build_report(summary, self.recorder, [], "serve")
        return write_report(report, self.obs_dir)
