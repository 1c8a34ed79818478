"""Worker runtime and run core: the execution half of the executor split.

Four layers, all policy-free (the decisions live in
:mod:`repro.campaign.scheduler`):

* :func:`run_one` / :func:`run_chunk` - the in-worker task loop: execute
  points, downgrade failures to :class:`~repro.campaign.cache.TaskRecord`
  statuses, meter under a per-chunk recorder (these are the functions
  that cross the pickling boundary, so they live at module top level);
* :class:`WorkerRuntime` - runs chunks: inline in the calling thread at
  ``jobs=1``, otherwise through a ``ProcessPoolExecutor`` with
  parent-side budget expiries, bounded waits, broken-pool detection,
  kill/respawn and survivor collection after a break.  This is the only
  place that chooses between inline and pool execution;
* :class:`Pump` - the dispatch loop that marries a
  :class:`~repro.campaign.scheduler.Scheduler` to a runtime: keep the
  window full, absorb completions, requeue losses with bisection, convict
  budget overruns, run suspects isolated;
* :class:`RunCore` - what both drivers share around the pump: the
  execution policy, the cache split, the checkpoint path (``absorb``) and
  the one quarantine record.  The one-shot
  :class:`~repro.campaign.executor.Executor` builds a core per run and
  pumps until the scheduler drains; the ``repro serve`` daemon owns one
  core for its lifetime and pumps with an ``idle_wait``, feeding the
  scheduler from live tenant submissions.

The failure-policy matrix (what retries, what quarantines, what
fails fast) is documented in :mod:`repro.campaign.executor` and
DESIGN.md Section 11; the run core and its lock rule in Section 20.
"""

from __future__ import annotations

import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import chaos, obs, watchdog
from ..obs.context import (
    TRACE_SPANS_KEY,
    TraceContext,
    span_record,
    take_spans,
)
from ..spice import ConvergenceError
from .cache import ResultCache, TaskRecord
from .scheduler import BackoffPolicy, Chunk, Scheduler
from .spec import TaskPoint

#: Deterministic failures that must fail fast instead of burning retries:
#: bad task parameters or unknown kinds produce the same exception on
#: every attempt.
NON_RETRYABLE = (ValueError, TypeError, KeyError)


def run_one(
    point: TaskPoint,
    context: Dict[str, Any],
    fingerprint: str,
    retries: int,
    deadline_s: Optional[float] = None,
    backoff: Optional[BackoffPolicy] = None,
) -> TaskRecord:
    """Execute one task point, downgrading failures to records."""
    from .tasks import get_task

    start = time.perf_counter()
    attempts = 0

    def record(status: str, value: Any = None,
               error: Optional[str] = None) -> TaskRecord:
        return TaskRecord(
            key=point.key, kind=point.kind, params=point.as_dict(),
            fingerprint=fingerprint, status=status, value=value, error=error,
            elapsed=time.perf_counter() - start, attempts=attempts,
        )

    while True:
        attempts += 1
        try:
            with watchdog.deadline(deadline_s):
                chaos.on_task(point.key, attempts)
                value = get_task(point.kind)(point.as_dict(), context)
        except ConvergenceError as exc:
            # Deterministic solver failure: retrying cannot help.
            return record("failed", error=f"ConvergenceError: {exc}")
        except watchdog.DeadlineExceeded as exc:
            # The point already burned its whole budget; a retry would
            # stall the sweep for another deadline_s for nothing.
            obs.count("campaign.watchdog.expiries")
            return record("timeout", error=f"DeadlineExceeded: {exc}")
        except NON_RETRYABLE as exc:
            # Deterministic caller bug: identical on every attempt.
            return record("failed", error=f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 - the sweep must survive
            if attempts <= retries:
                delay = backoff.delay(point.key, attempts) if backoff else 0.0
                if delay > 0.0:
                    obs.observe("campaign.retry.backoff.seconds", delay)
                    time.sleep(delay)
                obs.count("campaign.retries")
                continue
            return record("failed", error=f"{type(exc).__name__}: {exc}")
        return record("ok", value=value)


def run_chunk(
    points: Sequence[TaskPoint],
    context: Dict[str, Any],
    fingerprint: str,
    retries: int,
    observe: bool = False,
    deadline_s: Optional[float] = None,
    backoff: Optional[BackoffPolicy] = None,
    chaos_cfg: Optional[Tuple[chaos.ChaosSpec, str, bool]] = None,
    trace_ctx: Optional[Dict[str, str]] = None,
) -> Tuple[List[TaskRecord], Optional[Dict[str, Any]]]:
    """Worker entry point: run a chunk of points back to back.

    Returns ``(records, recorder snapshot or None)``.  Each chunk meters
    itself under a fresh recorder so worker process reuse across chunks
    can never double-count; the parent merges the snapshots.
    ``chaos_cfg`` is ``(spec, seed, allow_exit)``; the injector is
    (re-)installed per chunk so forked workers never inherit the parent's
    exit-suppressed instance.

    ``trace_ctx`` (the run/job root :class:`TraceContext` as a dict)
    turns on distributed tracing: the chunk derives a child span and one
    grandchild per point, and ships the finished span records home in
    the snapshot under :data:`TRACE_SPANS_KEY` - the parent pops them
    (``take_spans``) before merging, so metrics stay identical whether
    or not a context was propagated.
    """
    spec, seed, allow_exit = chaos_cfg if chaos_cfg else (None, "", True)
    chunk_ctx = (
        TraceContext.from_dict(trace_ctx).child()
        if observe and trace_ctx is not None else None
    )
    spans: List[Dict[str, Any]] = []
    chunk_start = time.time()
    with chaos.injection(spec, seed, allow_exit=allow_exit):
        if not observe:
            return [
                run_one(p, context, fingerprint, retries, deadline_s, backoff)
                for p in points
            ], None
        with obs.recording() as recorder:
            records = []
            for point in points:
                point_start = time.time()
                with obs.span(f"task.{point.kind}"):
                    record = run_one(
                        point, context, fingerprint, retries, deadline_s,
                        backoff,
                    )
                obs.observe("task.seconds", record.elapsed)
                records.append(record)
                if chunk_ctx is not None:
                    spans.append(span_record(
                        chunk_ctx.child(), f"task.{point.kind}",
                        point_start, record.elapsed, status=record.status,
                        key=point.key,
                    ))
    snapshot = recorder.snapshot()
    if chunk_ctx is not None:
        spans.append(span_record(
            chunk_ctx, "chunk", chunk_start,
            time.time() - chunk_start, points=len(records),
        ))
        snapshot[TRACE_SPANS_KEY] = spans
    return records, snapshot


def _worker_init() -> None:
    """Pool-worker initializer: the parent owns interrupt handling.

    Workers ignore SIGINT so a Ctrl-C reaches only the campaign process,
    which drains and checkpoints; default SIGTERM disposition is kept so
    an impatient ``kill`` of the whole group still works (the parent then
    sees a broken pool while draining and abandons the lost chunks).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@dataclass
class ChunkEnv:
    """Everything a chunk needs to execute, beyond its points.

    Carried in :attr:`Chunk.meta`: the one-shot executor shares a single
    env across the whole campaign; the daemon builds one per job so
    chunks of different fingerprints interleave through one pool.
    """

    context: Dict[str, Any]
    fingerprint: str
    chaos_cfg: Optional[Tuple[chaos.ChaosSpec, str, bool]] = None
    #: Root TraceContext (dict wire form) of the owning run/job, or None.
    trace: Optional[Dict[str, str]] = None


def chunk_env(chunk: Chunk) -> ChunkEnv:
    meta = chunk.meta
    if not isinstance(meta, ChunkEnv):
        raise TypeError(
            f"chunk.meta must be a ChunkEnv for pool dispatch, "
            f"got {type(meta).__name__}"
        )
    return meta


@dataclass
class PollEvent:
    """One observation from :meth:`WorkerRuntime.poll`."""

    kind: str  #: "done" | "broken" | "error"
    chunk: Optional[Chunk] = None
    records: Optional[List[TaskRecord]] = None
    snapshot: Optional[Dict[str, Any]] = None
    error: Optional[BaseException] = None


class WorkerRuntime:
    """Chunk execution: inline at ``jobs=1``, a ProcessPool otherwise.

    Inline, :meth:`submit` runs the chunk in the calling thread and parks
    an already-finished future, so :meth:`poll`, :meth:`drain` and
    :meth:`collect_lost` work unchanged.  The chunk env's chaos config is
    not installed inline: the caller's ``allow_exit=False`` injector
    covers it, and a ``crash`` fault must never ``os._exit`` the driver.
    An exception escaping :func:`run_chunk` propagates out of
    :meth:`submit` - there is no pool to recover into.  Inline chunks
    carry no parent-side budget, and nothing is ever lost.

    With a pool, the runtime tracks each submitted chunk's parent-side
    wall-clock budget (``deadline_s * points + slack``) so hangs the
    in-worker watchdog cannot see (C extensions, a wedged worker) are
    detectable from outside via :meth:`expired_chunk`.
    """

    def __init__(
        self,
        jobs: int,
        retries: int = 1,
        observe: bool = False,
        deadline_s: Optional[float] = None,
        backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.retries = retries
        self.observe = observe
        self.deadline_s = deadline_s
        self.backoff = backoff
        self.inline = jobs == 1
        #: Inline: one chunk at a time, checkpointed before the next runs.
        self.window = 1 if self.inline else jobs * 2
        #: future -> (chunk, parent-budget expiry or None)
        self._inflight: Dict[Future, Tuple[Chunk, Optional[float]]] = {}
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool life-cycle ---------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_worker_init
            )
        return self._pool

    def kill_pool(self) -> None:
        """Forcibly terminate a pool whose workers are hung."""
        pool = self._pool
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def respawn(self) -> None:
        """Discard the (broken) pool; the next submit builds a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._inflight.clear()

    # -- submission --------------------------------------------------------

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    @property
    def has_capacity(self) -> bool:
        return len(self._inflight) < self.window

    def chunk_budget(self, n_points: int) -> Optional[float]:
        """Parent-side wall-clock budget for one chunk, or None.

        Generous by construction: the worker-side watchdog fires at
        ``deadline_s`` per task and returns a normal timeout record, so
        the parent budget only triggers for hangs in code the watchdog
        cannot see (C extensions, ``time.sleep``, a wedged worker).
        """
        if self.deadline_s is None:
            return None
        return self.deadline_s * n_points + max(0.5, self.deadline_s)

    def submit(self, chunk: Chunk) -> None:
        env = chunk_env(chunk)
        args = (list(chunk.points), env.context, env.fingerprint,
                self.retries, self.observe, self.deadline_s, self.backoff)
        if self.inline:
            future: Future = Future()
            future.set_result(run_chunk(*args, None, env.trace))
            self._inflight[future] = (chunk, None)
            return
        future = self._ensure_pool().submit(
            run_chunk, *args, env.chaos_cfg, env.trace,
        )
        budget = self.chunk_budget(len(chunk))
        expiry = None if budget is None else time.monotonic() + budget
        self._inflight[future] = (chunk, expiry)

    # -- observation -------------------------------------------------------

    def nearest_tick(self, cap: float = 0.5) -> float:
        """A wait bound that keeps budgets and stop flags responsive."""
        now = time.monotonic()
        expiries = [e for _c, e in self._inflight.values() if e is not None]
        tick = cap
        if expiries:
            tick = min(tick, max(0.05, min(expiries) - now))
        return tick

    def poll(self, timeout: float) -> List[PollEvent]:
        """Wait (bounded) for completions; classify what happened.

        A ``broken``/``error`` event ends the list: the pool is suspect
        and the caller must run the loss-recovery path
        (:meth:`collect_lost` + scheduler requeue + :meth:`respawn`).
        The un-resolvable future is put back so it is accounted as lost.
        """
        if not self._inflight:
            return []
        done, _ = wait(
            list(self._inflight), timeout=timeout,
            return_when=FIRST_COMPLETED,
        )
        events: List[PollEvent] = []
        for future in done:
            chunk, expiry = self._inflight.pop(future)
            try:
                records, snapshot = future.result()
            except BrokenProcessPool as exc:
                self._inflight[future] = (chunk, expiry)  # count as lost
                events.append(PollEvent("broken", error=exc))
                break
            except Exception as exc:  # dispatch-layer failure
                # Not a task failure (those are downgraded in the
                # worker): treat like a crash of that chunk.
                self._inflight[future] = (chunk, expiry)
                events.append(PollEvent("error", chunk=chunk, error=exc))
                break
            events.append(
                PollEvent("done", chunk=chunk, records=records,
                          snapshot=snapshot)
            )
        return events

    def expired_chunk(self, now: Optional[float] = None) -> Optional[Chunk]:
        """The first in-flight chunk past its parent-side budget, or None."""
        now = time.monotonic() if now is None else now
        for _future, (chunk, expiry) in self._inflight.items():
            if expiry is not None and now >= expiry:
                return chunk
        return None

    def collect_lost(self, absorb: Callable[[Chunk, List[TaskRecord],
                                             Optional[Dict[str, Any]]], None],
                     guilty: Optional[Chunk] = None) -> List[Chunk]:
        """Drain in-flight state after a break: absorb survivors, return lost.

        Futures that completed before the break still carry their
        results; everything else is lost work.  ``guilty`` (the chunk a
        parent-side timeout convicted) is excluded from the returned
        list - its requeueing is the caller's decision.
        """
        lost: List[Chunk] = []
        for future, (chunk, _expiry) in list(self._inflight.items()):
            resolved = False
            if future.done():
                try:
                    records, snapshot = future.result()
                except Exception:  # noqa: BLE001 - broken pool
                    pass
                else:
                    absorb(chunk, records, snapshot)
                    resolved = True
            if not resolved and chunk is not guilty:
                lost.append(chunk)
        self._inflight.clear()
        return lost

    def drain(self, absorb, grace: Optional[float] = None) -> List[Chunk]:
        """Graceful-stop path: bounded wait, absorb finishers, kill the rest.

        Returns the abandoned chunks (for ``--resume`` they simply stay
        un-cached).  The wait is bounded - a hung worker must not be able
        to block an interrupt forever.
        """
        if self._inflight:
            if grace is None:
                now = time.monotonic()
                budgets = [
                    max(0.0, e - now)
                    for _c, e in self._inflight.values() if e is not None
                ]
                grace = max(budgets) if budgets else 10.0
            wait(list(self._inflight), timeout=grace)
        lost = self.collect_lost(absorb)
        self.kill_pool()
        return lost

    def run_isolated(self, chunk: Chunk) -> PollEvent:
        """Run a single suspect point with nothing else in flight.

        With a single point in a single in-flight chunk, a pool break or
        budget overrun convicts exactly that point; success acquits it
        (it was an innocent bystander of someone else's crash).  The
        returned event kind is ``done``, ``broken`` (crashed) or
        ``error`` with ``error=None`` meaning "hung past budget".
        """
        assert not self._inflight, "isolation requires an empty runtime"
        self.submit(chunk)
        (future, (chunk, expiry)), = self._inflight.items()
        timeout = None if expiry is None else max(0.0, expiry - time.monotonic())
        done, _ = wait({future}, timeout=timeout)
        self._inflight.clear()
        if not done:
            self.kill_pool()
            return PollEvent("error", chunk=chunk, error=None)
        try:
            records, snapshot = future.result()
        except Exception as exc:  # BrokenProcessPool or dispatch failure
            return PollEvent("broken", chunk=chunk, error=exc)
        return PollEvent("done", chunk=chunk, records=records,
                         snapshot=snapshot)


class Pump:
    """The dispatch loop: scheduler decisions driving the worker runtime.

    :class:`RunCore` supplies callbacks instead of subclassing:

    * ``absorb(chunk, records, snapshot)`` - checkpoint + account a
      finished chunk (cache append, result fan-out, progress);
    * ``quarantine(chunk, point, status, error, attempts)`` - record a
      convicted point (the pump never fabricates :class:`TaskRecord`
      objects - :meth:`RunCore.quarantine` owns the record shape);
    * ``emit(event, **fields)`` - trace stream;
    * ``count(name, n)`` - recovery-path counters;
    * ``should_stop()`` - graceful-drain request;
    * ``idle_wait()`` - block until new work may have arrived (the
      daemon parks here between submissions); without one the pump
      exits once the scheduler drains (one-shot runs).
    """

    def __init__(
        self,
        scheduler: Scheduler,
        runtime: WorkerRuntime,
        absorb: Callable[[Chunk, List[TaskRecord], Optional[Dict[str, Any]]],
                         None],
        quarantine: Callable[[Chunk, TaskPoint, str, str, int], None],
        emit: Callable[..., None],
        count: Callable[[str, int], None],
        should_stop: Callable[[], bool],
        idle_wait: Optional[Callable[[], None]] = None,
    ) -> None:
        self.scheduler = scheduler
        self.runtime = runtime
        self.absorb = absorb
        self.quarantine = quarantine
        self.emit = emit
        self.count = count
        self.should_stop = should_stop
        self.idle_wait = idle_wait

    # -- recovery helpers --------------------------------------------------

    def _quarantine(self, chunk: Chunk, point: TaskPoint, status: str,
                    error: str) -> None:
        attempts = self.scheduler.losses(point.key) + 1
        self.quarantine(chunk, point, status, error, attempts)

    def _respawn(self, reason: str) -> None:
        count = self.scheduler.note_respawn()
        self.emit("pool-respawn", reason=reason, count=count)
        self.count("campaign.pool.respawns", 1)
        self.runtime.respawn()

    def _handle_break(self, blamable: bool, reason: str) -> None:
        lost = self.runtime.collect_lost(self.absorb)
        self.scheduler.report_lost(lost, blamable=blamable)
        self._respawn(reason)

    def _handle_expiry(self, guilty: Chunk) -> None:
        self.emit(
            "chunk-timeout", points=len(guilty),
            budget=self.runtime.chunk_budget(len(guilty)),
        )
        self.count("campaign.chunk.timeouts", 1)
        self.runtime.kill_pool()
        lost = self.runtime.collect_lost(self.absorb, guilty=guilty)
        # Innocent bystanders are requeued without blame; the convicted
        # chunk bisects (or is quarantined outright when already a
        # single point).
        self.scheduler.report_lost(lost, blamable=False)
        convicted = self.scheduler.convict_or_bisect(guilty)
        if convicted is not None:
            deadline = self.runtime.deadline_s
            self._quarantine(
                guilty, convicted, "timeout",
                "parent-side chunk budget exceeded "
                f"(deadline_s={deadline:g}); worker killed",
            )
        self._respawn("chunk budget exceeded (workers killed)")

    def _run_suspect(self, chunk: Chunk) -> None:
        point = chunk.points[0]
        event = self.runtime.run_isolated(chunk)
        if event.kind == "done":
            self.absorb(chunk, event.records, event.snapshot)
            return
        losses = self.scheduler.losses(point.key)
        deadline = self.runtime.deadline_s
        if event.kind == "error" and event.error is None:  # hung past budget
            self._quarantine(
                chunk, point, "timeout",
                "hung in isolation (parent-side budget, "
                f"deadline_s={deadline:g}); worker killed",
            )
            self._respawn("isolated point hung (workers killed)")
            return
        self._quarantine(
            chunk, point, "crashed",
            f"worker crashed with this point isolated ({losses} prior "
            f"losses; {type(event.error).__name__})",
        )
        self._respawn("isolated point crashed the worker")

    # -- the loop ----------------------------------------------------------

    def step(self) -> bool:
        """One scheduling round; returns False when the pump should exit."""
        scheduler, runtime = self.scheduler, self.runtime
        if self.should_stop():
            # Graceful drain: no new work, absorb what finishes (bounded).
            runtime.drain(self.absorb)
            return False

        # Submission: keep the window full while work remains.
        now = time.monotonic()
        while runtime.has_capacity:
            chunk = scheduler.next_chunk(now)
            if chunk is None:
                break
            try:
                runtime.submit(chunk)
            except BrokenProcessPool:
                # A worker crash can mark the pool broken while the fill
                # loop is still submitting.  The chunk in hand never
                # reached a worker, so it goes back to the head of its
                # queue without blame; the in-flight losses then run the
                # same recovery path as a ``broken`` poll event.
                scheduler.requeue_front(chunk)
                self._handle_break(
                    blamable=True, reason="worker crash (pool broken)"
                )
                return True

        if not runtime.inflight:
            suspect = scheduler.next_suspect()
            if suspect is not None:
                self._run_suspect(suspect)
                return True
            if scheduler.has_pending:
                # Work exists but is rate-limited: sleep until a bucket
                # refills (bounded so stop flags stay responsive).
                delay = scheduler.next_ready_in(time.monotonic())
                time.sleep(min(0.5, delay if delay else 0.05))
                return True
            if self.idle_wait is None:
                return False
            self.idle_wait()
            return True

        events = runtime.poll(runtime.nearest_tick())
        for event in events:
            if event.kind == "done":
                self.absorb(event.chunk, event.records, event.snapshot)
            elif event.kind == "broken":
                self._handle_break(
                    blamable=True, reason="worker crash (pool broken)"
                )
                return True
            else:  # dispatch-layer error
                self.emit(
                    "chunk-error",
                    error=f"{type(event.error).__name__}: {event.error}",
                )
                self._handle_break(
                    blamable=True, reason="worker crash (pool broken)"
                )
                return True

        # Parent-side chunk budgets: kill hung workers.
        guilty = runtime.expired_chunk()
        if guilty is not None:
            self._handle_expiry(guilty)
        return True

    def run(self) -> None:
        """Pump until drained (one-shot) or stopped (daemon)."""
        try:
            while self.step():
                pass
        finally:
            self.runtime.shutdown()


class _Locked:
    """A scheduler view that holds ``lock`` around each access and call.

    The pump thread reaches the scheduler only through this view, so it
    never races the service threads that mutate the same queues under
    the same lock - and never holds the lock across a runtime wait.
    """

    def __init__(self, target: Any, lock: Any) -> None:
        self._target = target
        self._lock = lock

    def __getattr__(self, name: str) -> Any:
        with self._lock:
            attr = getattr(self._target, name)
        if not callable(attr):
            return attr

        def locked(*args: Any, **kwargs: Any) -> Any:
            with self._lock:
                return attr(*args, **kwargs)
        return locked


class RunCore:
    """The run core both drivers own (DESIGN.md Section 20).

    Holds the execution policy (``jobs``, ``retries``, ``chunksize``,
    ``deadline_s``, ``observe``, ``backoff``), the result cache, the trace
    ``emit``, the recorder and the lock.  Everything a driver does not
    own itself goes through four methods: :meth:`split` (duplicate-key
    skip + cache lookup), :meth:`absorb` (the one checkpoint path),
    :meth:`quarantine` (the one quarantine record) and :meth:`pump` (the
    one dispatch loop).  ``deliver(chunk, records)`` is the driver's
    fan-out hook, called by :meth:`absorb` with the lock held.
    """

    def __init__(
        self,
        jobs: int,
        retries: int,
        chunksize: Optional[int],
        deadline_s: Optional[float],
        observe: bool,
        backoff: BackoffPolicy,
        *,
        cache: Optional[ResultCache],
        emit: Callable[..., None],
        recorder: obs.Recorder,
        deliver: Callable[[Chunk, List[TaskRecord]], None],
        lock: Any = None,
    ) -> None:
        self.jobs = jobs
        self.retries = retries
        self.chunksize = chunksize
        self.deadline_s = deadline_s
        self.observe = observe
        self.backoff = backoff
        self.cache = cache
        self.emit = emit
        self.recorder = recorder
        self.deliver = deliver
        self.lock = lock if lock is not None else threading.RLock()

    def count(self, name: str, n: int = 1) -> None:
        with self.lock:
            self.recorder.count(name, n)

    def split(self, tasks: Sequence[TaskPoint], fingerprint: str,
              rerun_failures: bool = False,
              ) -> Tuple[List[TaskRecord], List[TaskPoint]]:
        """``(cache hits, pending points)`` over the unique task keys.

        A duplicated grid point is looked up (and later executed) once.
        A cached failure is a hit unless ``rerun_failures``.
        """
        hits: List[TaskRecord] = []
        pending: List[TaskPoint] = []
        seen = set()
        for point in tasks:
            if point.key in seen:
                continue  # duplicated grid point: one execution serves all
            seen.add(point.key)
            record = (
                self.cache.lookup(point.key, fingerprint)
                if self.cache is not None else None
            )
            if record is not None and (record.ok or not rerun_failures):
                hits.append(record)
            else:
                pending.append(point)
        return hits, pending

    def absorb(self, chunk: Chunk, records: List[TaskRecord],
               snapshot: Optional[Dict[str, Any]]) -> None:
        """Checkpoint one finished chunk, then hand it to the driver."""
        if self.cache is not None:
            self.cache.append(records)
        for span in take_spans(snapshot):  # before merge: not a metric
            self.emit("span", **span)
        with self.lock:
            if snapshot is not None:
                self.recorder.merge(snapshot)
            self.recorder.count(
                "campaign.task.quarantined",
                sum(1 for r in records if r.status == "crashed"),
            )
            self.recorder.count(
                "campaign.task.timeouts",
                sum(1 for r in records if r.status == "timeout"),
            )
            self.deliver(chunk, records)

    def quarantine(self, chunk: Chunk, point: TaskPoint, status: str,
                   error: str, attempts: int) -> None:
        """Record a convicted point as ``status`` without a worker result."""
        meta = chunk_env(chunk)
        record = TaskRecord(
            key=point.key, kind=point.kind, params=point.as_dict(),
            fingerprint=meta.fingerprint, status=status, value=None,
            error=error, elapsed=0.0, attempts=attempts,
        )
        self.absorb(Chunk((point,), chunk.tenant, meta), [record], None)
        self.emit("quarantine", key=point.key, status=status)
        if meta.trace:
            # The worker died before it could report this span:
            # synthesize it parent-side so the tree stays complete.
            self.emit("span", **span_record(
                TraceContext.from_dict(meta.trace).child(),
                f"task.{point.kind}", time.time(), 0.0,
                status=status, key=point.key,
            ))

    def pump(self, scheduler: Scheduler, should_stop: Callable[[], bool],
             idle_wait: Optional[Callable[[], None]] = None) -> None:
        """Drive ``scheduler`` through a fresh runtime until the pump exits.

        Every scheduler call the pump makes holds :attr:`lock`; see
        :class:`Pump` for ``should_stop`` and ``idle_wait``.
        """
        runtime = WorkerRuntime(
            jobs=self.jobs, retries=self.retries, observe=self.observe,
            deadline_s=self.deadline_s, backoff=self.backoff,
        )
        Pump(
            _Locked(scheduler, self.lock), runtime, self.absorb,
            self.quarantine, self.emit, self.count, should_stop, idle_wait,
        ).run()
