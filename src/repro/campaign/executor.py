"""Campaign execution: cache-aware, fault-tolerant, one dispatch loop.

This module is the *one-shot driver*: it walks a
:class:`~repro.campaign.spec.SweepSpec`, skips every point already
present in the persistent cache under the current fingerprint, primes a
:class:`~repro.campaign.scheduler.Scheduler` with the pending chunks and
pumps it through a :class:`~repro.campaign.runtime.RunCore` until
drained - inline when ``jobs=1`` (bit-identical to the historical serial
loops), through a process pool otherwise; the choice lives in
:class:`~repro.campaign.runtime.WorkerRuntime` alone.  The ``repro
serve`` daemon (:mod:`repro.serve`) owns the same run core for many
tenants; what stays here is what only a one-shot run has: signal
handling, chaos, progress, the run-start/run-end events and the report.

Tasks are dispatched in chunks so worker round-trips amortise the pickling
overhead, and every finished chunk is checkpointed to the cache before the
next is awaited - killing the process mid-sweep loses at most the chunks
in flight.

Failure policy (the full matrix lives in DESIGN.md Section 11):

* :class:`~repro.spice.ConvergenceError` is the expected "this grid point
  is numerically intractable" signal - recorded as ``status="failed"``,
  never retried.
* ``ValueError`` / ``TypeError`` / ``KeyError`` are deterministic caller
  bugs (bad task params, unknown kinds): they fail fast on the first
  attempt instead of burning identical retries.
* :class:`~repro.watchdog.DeadlineExceeded` - a task that outlived the
  ``deadline_s`` budget (armed around every attempt, enforced inside the
  Newton iteration by the worker-side watchdog) - is recorded as
  ``status="timeout"``, never retried.
* Everything else is presumed transient: retried up to ``retries`` extra
  attempts under the :class:`BackoffPolicy` (exponential delay with
  deterministic per-key jitter), then recorded as ``status="failed"``.

Worker-crash recovery: a dead worker (segfault, OOM kill, chaos
``os._exit``) breaks the whole pool.  The pump catches the broken pool,
rebuilds it (``campaign.pool.respawns``), and the scheduler requeues the
lost chunks with bisection - multi-point chunks split in half,
repeat-offender single points go to an *isolation queue* that runs them
one at a time with nothing else in flight, so a crash there blames
exactly one point.  Convicted points are quarantined as
``status="crashed"`` records (``campaign.task.quarantined``) and the rest
of the sweep survives.  A parent-side per-chunk wall-clock budget
(derived from ``deadline_s``) backstops hangs the watchdog cannot see:
the pool is killed and the same bisection machinery isolates the hung
point as ``status="timeout"``.

Graceful interrupts: SIGINT/SIGTERM set a shutdown flag instead of
unwinding the stack.  The pump stops submitting, drains in-flight
futures, checkpoints their records, marks the run ``interrupted`` (trace
event, summary flag, ``interrupted: true`` in the report) and returns
normally so ``--resume`` picks up cleanly; the CLI maps the flag to a
distinct exit code.

Chaos: ``chaos=`` installs a :class:`repro.chaos.ChaosInjector` seeded by
the campaign fingerprint in every worker (and, for cache-line corruption,
the parent), deterministically injecting the fault classes above at the
configured rates - the harness the recovery tests and the
``repro campaign --chaos`` smoke flag are built on.

Observability: with ``observe=True`` every chunk runs under a fresh
:class:`repro.obs.Recorder` and the chunk's picklable snapshot rides back
with its records to be merged into the run-level recorder; the parent
additionally streams one JSONL trace event per task (plus run/chunk/
recovery markers) and, through :func:`run_campaign`, writes the
schema-versioned ``report.json`` next to the result cache.
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Union

import time

from .. import chaos, obs
from ..chaos import ChaosSpec
from ..obs.context import TraceContext
from ..obs.report import build_report, write_report
from ..obs.trace import TRACE_FILENAME, TRACE_SCHEMA, TraceWriter, null_trace
from .cache import ResultCache, TaskRecord
from .metrics import CampaignSummary, ProgressReporter
from .runtime import NON_RETRYABLE, ChunkEnv, RunCore
from .scheduler import BackoffPolicy, Chunk, Scheduler, chunk_points
from .spec import SweepSpec, TaskPoint

__all__ = [
    "BackoffPolicy",
    "CampaignResult",
    "Executor",
    "NON_RETRYABLE",
    "run_campaign",
]


@dataclass
class CampaignResult:
    """Everything a driver needs to aggregate a finished campaign."""

    spec: SweepSpec
    records: Dict[str, TaskRecord] = field(default_factory=dict)
    summary: Optional[CampaignSummary] = None
    recorder: Optional["obs.Recorder"] = None  #: merged run-level metrics
    report: Optional[Dict[str, Any]] = None  #: built when observing
    report_path: Optional[str] = None  #: where report.json landed, if written
    interrupted: bool = False  #: stopped early on SIGINT/SIGTERM

    def record_for(self, point: TaskPoint) -> Optional[TaskRecord]:
        return self.records.get(point.key)

    def value_for(self, point: TaskPoint) -> Any:
        """The task's cached/computed value, or None if failed/missing."""
        record = self.records.get(point.key)
        if record is None or not record.ok:
            return None
        return record.value

    @property
    def failures(self) -> List[TaskRecord]:
        return [r for r in self.records.values() if not r.ok]


class Executor:
    """Runs sweep campaigns; see the module docstring for the policy."""

    def __init__(
        self,
        jobs: int = 1,
        retries: int = 1,
        chunksize: Optional[int] = None,
        verbose: bool = False,
        stream: Optional[IO[str]] = None,
        rerun_failures: bool = False,
        observe: bool = False,
        deadline_s: Optional[float] = None,
        chaos_spec: Union[None, str, chaos.ChaosSpec] = None,
        backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if deadline_s is not None and deadline_s <= 0.0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        self.jobs = jobs
        self.retries = retries
        self.chunksize = chunksize
        self.verbose = verbose
        self.stream = stream
        self.rerun_failures = rerun_failures
        self.observe = observe
        self.deadline_s = deadline_s
        self.chaos_spec = chaos.coerce_spec(chaos_spec)
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self._interrupted = False
        self._interrupt_signal: Optional[int] = None

    # -- interrupt plumbing ------------------------------------------------

    def request_interrupt(self, signum: Optional[int] = None) -> None:
        """Ask the running campaign to drain, checkpoint and return.

        Idempotent and safe from signal handlers; the pump polls the
        flag between scheduling rounds (one chunk per round inline).
        """
        self._interrupted = True
        if signum is not None and self._interrupt_signal is None:
            self._interrupt_signal = signum

    def _install_signal_handlers(self):
        """Route SIGINT/SIGTERM to the shutdown flag; returns a restorer.

        Only possible from the main thread (the signal module's rule);
        elsewhere the campaign simply keeps the surrounding process's
        behaviour.
        """
        if threading.current_thread() is not threading.main_thread():
            return lambda: None

        def handler(signum, frame):  # pragma: no cover - exercised via kill
            self.request_interrupt(signum)

        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, handler)
            except (ValueError, OSError):  # non-main interpreter quirks
                pass

        def restore() -> None:
            for signum, old in previous.items():
                signal.signal(signum, old)

        return restore

    # -- the run -----------------------------------------------------------

    def run(
        self,
        spec: SweepSpec,
        cache: Optional[ResultCache] = None,
        trace: Optional[TraceWriter] = None,
    ) -> CampaignResult:
        fingerprint = spec.fingerprint()
        recorder = obs.Recorder()
        progress = ProgressReporter(
            spec.name, len(spec.tasks), verbose=self.verbose,
            stream=self.stream, recorder=recorder,
        )
        result = CampaignResult(spec, recorder=recorder)
        events = trace if trace is not None else null_trace()
        # The run's root trace context: every chunk/task span workers
        # record stitches back under these ids (repro trace).
        root_ctx = TraceContext.new()
        events.emit(
            "run-start", schema=TRACE_SCHEMA, campaign=spec.name,
            fingerprint=fingerprint,
            total=len(spec.tasks), jobs=self.jobs,
            deadline_s=self.deadline_s,
            chaos=self.chaos_spec.describe() if self.chaos_spec else None,
            trace_id=root_ctx.trace_id, span_id=root_ctx.span_id,
            start=time.time(), pid=os.getpid(),
        )
        self._interrupted = False
        self._interrupt_signal = None
        chaos_seed = spec.chaos_seed() if self.chaos_spec else ""

        def deliver(_chunk: Chunk, records: List[TaskRecord]) -> None:
            for record in records:
                result.records[record.key] = record
                fields = {
                    "key": record.key, "kind": record.kind,
                    "status": record.status,
                    "elapsed": round(record.elapsed, 6),
                    "attempts": record.attempts,
                }
                if record.error:
                    fields["error"] = record.error
                events.emit("task", **fields)
            progress.chunk_done(
                len(records), failed=sum(0 if r.ok else 1 for r in records),
            )

        core = RunCore(
            self.jobs, self.retries, self.chunksize, self.deadline_s,
            self.observe, self.backoff, cache=cache, emit=events.emit,
            recorder=recorder, deliver=deliver,
        )
        hits, pending = core.split(spec.tasks, fingerprint,
                                   self.rerun_failures)
        hit_failures = sum(0 if r.ok else 1 for r in hits)
        result.records.update((r.key, r) for r in hits)
        progress.cache_hits(len(hits), failed=hit_failures)
        if cache is not None and cache.corrupt_lines:
            recorder.count("cache.lines.corrupt", cache.corrupt_lines)
            events.emit("cache-corrupt-lines", count=cache.corrupt_lines)
        if hits:
            events.emit("cache-hits", count=len(hits), failed=hit_failures)

        env = ChunkEnv(
            context=spec.context_dict(), fingerprint=fingerprint,
            chaos_cfg=(
                (self.chaos_spec, chaos_seed, True) if self.chaos_spec
                else None
            ),
            trace=root_ctx.to_dict() if self.observe else None,
        )
        scheduler = Scheduler(backoff=self.backoff)
        scheduler.set_respawn_cap(scheduler.default_respawn_cap(len(pending)))
        scheduler.add_all([
            Chunk.make(points, meta=env)
            for points in chunk_points(pending, self.jobs, self.chunksize)
        ])
        restore_signals = self._install_signal_handlers()
        try:
            # The parent-level injector (allow_exit=False: chaos must never
            # os._exit the campaign process itself) serves two roles: it is
            # the injector for inline jobs=1 execution, and it mangles
            # cache lines in absorb() when a corruption rate is configured.
            # Pool workers install their own (allow_exit=True) from the
            # chunk env.
            with chaos.injection(
                self.chaos_spec, chaos_seed, allow_exit=False
            ):
                core.pump(scheduler, should_stop=lambda: self._interrupted)
        finally:
            restore_signals()

        if self._interrupted:
            result.interrupted = True
            recorder.count("campaign.interrupted")
            events.emit("interrupted", signal=self._interrupt_signal)
        progress.finish()
        result.summary = progress.summary(interrupted=self._interrupted)
        events.emit(
            "run-end", trace_id=root_ctx.trace_id,
            executed=result.summary.executed,
            cache_hits=result.summary.cache_hits,
            failures=result.summary.failures,
            quarantined=result.summary.quarantined,
            timeouts=result.summary.timeouts,
            interrupted=self._interrupted,
            wall_time=round(result.summary.wall_time, 6),
        )
        if self.observe:
            result.report = build_report(
                result.summary, recorder, result.records.values(), fingerprint
            )
        return result


def run_campaign(
    spec: SweepSpec,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    retries: int = 1,
    chunksize: Optional[int] = None,
    verbose: bool = False,
    stream: Optional[IO[str]] = None,
    rerun_failures: bool = False,
    observe: bool = False,
    obs_dir: Optional[str] = None,
    deadline_s: Optional[float] = None,
    chaos: Union[None, str, ChaosSpec] = None,
    backoff: Optional[BackoffPolicy] = None,
) -> CampaignResult:
    """One-call façade: build the executor (and cache) and run the spec.

    With ``observe=True`` the run is fully instrumented; ``obs_dir``
    (defaulting to ``cache_dir``) receives the per-run ``trace.jsonl``
    and the schema-versioned ``report.json``.  Observing without any
    directory still collects in-memory metrics (``result.recorder`` /
    ``result.report``) - nothing is written.

    ``deadline_s`` arms the per-task watchdog (and the parent-side chunk
    budgets), ``chaos`` installs deterministic fault injection
    (:class:`repro.chaos.ChaosSpec` or its string form), ``backoff``
    overrides the retry spacing.  An interrupted run (SIGINT/SIGTERM)
    returns normally with ``result.interrupted`` set.
    """
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    executor = Executor(
        jobs=jobs, retries=retries, chunksize=chunksize, verbose=verbose,
        stream=stream, rerun_failures=rerun_failures, observe=observe,
        deadline_s=deadline_s, chaos_spec=chaos, backoff=backoff,
    )
    out_dir = obs_dir if obs_dir is not None else cache_dir
    if observe and out_dir is not None:
        from pathlib import Path

        with TraceWriter(Path(out_dir) / TRACE_FILENAME) as trace:
            result = executor.run(spec, cache, trace)
        result.report_path = str(write_report(result.report, out_dir))
    else:
        result = executor.run(spec, cache)
    return result
