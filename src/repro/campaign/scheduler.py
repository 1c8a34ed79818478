"""Placement and retry policy: the pure-logic half of the executor split.

The :class:`Scheduler` owns every *decision* the campaign engine makes
about what runs next and what happens to work that failed - per-tenant
FIFO queues with round-robin fair share, token-bucket rate limits,
lost-chunk bisection, repeat-offender suspect graduation, quarantine
conviction and the pool-respawn cap - without touching a process, a
socket or a clock of its own.  Time is always passed in (``now``), so
every policy is unit-testable as plain function calls.

The other half of the split is :mod:`repro.campaign.runtime`: the
:class:`~repro.campaign.runtime.WorkerRuntime` that actually runs chunks
(inline or in a ``ProcessPoolExecutor``), the
:class:`~repro.campaign.runtime.Pump` loop that marries the two, and the
:class:`~repro.campaign.runtime.RunCore` around it.  One-shot CLI
campaigns (:class:`repro.campaign.executor.Executor`) and the
long-running ``repro serve`` daemon (:mod:`repro.serve`) drive the
*same* scheduler through the same core;
the daemon simply keeps feeding it chunks from many tenants instead of
priming it once.

Fair share is strict round-robin over tenants with runnable work: a
tenant that dumps ten thousand chunks cannot starve one that submitted
three, because each scheduling decision moves the cursor to the next
non-empty queue.  Rate limits are per-tenant token buckets refilled from
the caller's clock; a rate-limited tenant is skipped (not blocked), so
other tenants' work keeps flowing through the same pool.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .. import chaos
from .spec import TaskPoint

#: Tenant used by one-shot campaigns that never mention tenancy.
DEFAULT_TENANT = "default"

#: How many times a single-point chunk may be lost to pool breaks before
#: it is sent to the isolation queue for a definitive verdict.
SUSPECT_AFTER_LOSSES = 2


@dataclass(frozen=True)
class BackoffPolicy:
    """Retry spacing: exponential growth with deterministic jitter.

    The delay before retry ``attempt`` (1-based count of failures so far)
    is ``min(cap_s, base_s * factor**(attempt-1))`` scaled by a jitter
    factor in ``[0.5, 1.0)`` derived from the task key - deterministic per
    (key, attempt) so reruns behave identically, but decorrelated across
    keys so a pool of workers retrying a burst of transient failures does
    not stampede in lock-step.  ``base_s=0`` disables sleeping (tests).
    """

    base_s: float = 0.05
    factor: float = 2.0
    cap_s: float = 2.0

    def delay(self, key: str, attempt: int) -> float:
        if self.base_s <= 0.0:
            return 0.0
        raw = min(self.cap_s, self.base_s * self.factor ** max(0, attempt - 1))
        jitter = 0.5 + 0.5 * chaos.stable_fraction("backoff", key, attempt)
        return raw * jitter


@dataclass
class RateLimit:
    """Token bucket: at most ``rate_per_s`` sustained, ``burst`` at once.

    Purely arithmetic - the caller supplies ``now`` (any monotonic float
    clock), which is what makes the policy testable without sleeping.
    """

    rate_per_s: float
    burst: float = 1.0
    tokens: float = field(default=-1.0)  #: -1 = start full
    stamp: Optional[float] = None

    def _refill(self, now: float) -> None:
        if self.tokens < 0.0:
            self.tokens = self.burst
        if self.stamp is not None and now > self.stamp:
            self.tokens = min(
                self.burst, self.tokens + (now - self.stamp) * self.rate_per_s
            )
        self.stamp = now

    def try_take(self, now: float, amount: float = 1.0) -> bool:
        self._refill(now)
        if self.tokens + 1e-12 >= amount:
            self.tokens -= amount
            return True
        return False

    def ready_in(self, now: float, amount: float = 1.0) -> float:
        """Seconds until ``amount`` tokens will be available (0 = now)."""
        self._refill(now)
        deficit = amount - self.tokens
        if deficit <= 0.0 or self.rate_per_s <= 0.0:
            return 0.0 if deficit <= 0.0 else float("inf")
        return deficit / self.rate_per_s


@dataclass(frozen=True)
class Chunk:
    """A dispatchable unit: a batch of points plus its execution context.

    ``meta`` is opaque to the scheduler - the executor stores the shared
    ``(context, fingerprint)`` there, the daemon stores per-job execution
    environments - so one scheduler can interleave chunks from campaigns
    with different fingerprints.
    """

    points: tuple
    tenant: str = DEFAULT_TENANT
    meta: Any = None

    @classmethod
    def make(cls, points: Sequence[TaskPoint], tenant: str = DEFAULT_TENANT,
             meta: Any = None) -> "Chunk":
        return cls(tuple(points), tenant, meta)

    def split(self) -> List["Chunk"]:
        mid = len(self.points) // 2
        return [
            Chunk(self.points[:mid], self.tenant, self.meta),
            Chunk(self.points[mid:], self.tenant, self.meta),
        ]

    def __len__(self) -> int:
        return len(self.points)


def chunk_points(
    pending: Sequence[TaskPoint],
    jobs: int,
    chunksize: Optional[int] = None,
) -> List[List[TaskPoint]]:
    """Batch points into dispatch chunks (shared executor/daemon policy).

    An explicit ``chunksize`` wins; inline execution (``jobs=1``) gets
    size 1 so interrupts checkpoint after every task; pools aim for ~4
    chunks per worker so stragglers rebalance, while keeping chunks big
    enough to amortise dispatch.
    """
    if chunksize is not None:
        size = max(1, chunksize)
    elif jobs == 1:
        size = 1
    else:
        size = max(1, min(8, -(-len(pending) // (jobs * 4))))
    return [list(pending[i:i + size]) for i in range(0, len(pending), size)]


class RespawnBudgetExceeded(RuntimeError):
    """The pool crashed more often than any plausible poison set explains."""


class Scheduler:
    """Queue, placement, fair share, rate limits and failure policy.

    The runtime asks three questions in its loop - "what next?"
    (:meth:`next_chunk` / :meth:`next_suspect`), "this chunk was lost,
    now what?" (:meth:`report_lost` / :meth:`convict_or_bisect`) and "may
    I rebuild the pool again?" (:meth:`note_respawn`) - and the answers
    are deterministic functions of the scheduler's bookkeeping plus the
    ``now`` the caller passes in.
    """

    def __init__(
        self,
        suspect_after_losses: int = SUSPECT_AFTER_LOSSES,
        backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        self.suspect_after_losses = suspect_after_losses
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        #: Observer fired by :meth:`next_chunk` with ``(chunk, waited_s)``
        #: - how long the chunk sat queued before dispatch.  The daemon
        #: hangs its queue-wait SLO histogram here.
        self.on_dispatch: Optional[Callable[[Chunk, float], None]] = None
        #: Queues hold ``(enqueue_stamp, chunk)`` so dispatch can report
        #: the queue wait; stamps default to ``time.monotonic()`` (pure
        #: tests pass their own ``now`` to :meth:`add`/:meth:`next_chunk`).
        self._queues: Dict[str, Deque[Tuple[float, Chunk]]] = {}
        self._order: List[str] = []  #: round-robin tenant order
        self._cursor = 0
        self._suspects: Deque[Chunk] = deque()
        self._losses: Dict[str, int] = {}
        self._limits: Dict[str, RateLimit] = {}
        self._respawns = 0
        self._respawn_cap: Optional[int] = None

    # -- intake ------------------------------------------------------------

    def _queue(self, tenant: str) -> Deque[Tuple[float, Chunk]]:
        if tenant not in self._queues:
            self._queues[tenant] = deque()
            self._order.append(tenant)
        return self._queues[tenant]

    def add(self, chunk: Chunk, now: Optional[float] = None) -> None:
        stamp = time.monotonic() if now is None else now
        self._queue(chunk.tenant).append((stamp, chunk))

    def add_all(self, chunks: Sequence[Chunk],
                now: Optional[float] = None) -> None:
        for chunk in chunks:
            self.add(chunk, now)

    def requeue_front(self, chunk: Chunk,
                      now: Optional[float] = None) -> None:
        """Put a chunk back at the head of its tenant's queue.

        Requeues re-stamp: the queue wait reported for a bisected/lost
        chunk measures its latest wait, not its cumulative saga.
        """
        stamp = time.monotonic() if now is None else now
        self._queue(chunk.tenant).appendleft((stamp, chunk))

    def set_rate_limit(self, tenant: str, rate_per_s: float,
                       burst: float = 1.0) -> None:
        """Cap ``tenant`` at ``rate_per_s`` chunk dispatches per second."""
        self._limits[tenant] = RateLimit(rate_per_s, max(1.0, burst))

    def set_respawn_cap(self, cap: int) -> None:
        """Bound pool rebuilds; :meth:`note_respawn` raises past it."""
        self._respawn_cap = cap

    def default_respawn_cap(self, total_points: int) -> int:
        """The one-shot executor's cap: generous, but finite."""
        return 10 + 4 * total_points

    # -- placement ---------------------------------------------------------

    @property
    def has_pending(self) -> bool:
        return any(self._queues.values())

    @property
    def has_suspects(self) -> bool:
        return bool(self._suspects)

    @property
    def tenants(self) -> List[str]:
        return list(self._order)

    def pending(self, tenant: Optional[str] = None) -> int:
        """Queued (not yet dispatched) points, per tenant or total."""
        queues = (
            [self._queues.get(tenant, deque())] if tenant is not None
            else self._queues.values()
        )
        return sum(len(c) for q in queues for _stamp, c in q)

    def pending_by_tenant(self) -> Dict[str, int]:
        """Queued point counts keyed by tenant (the live-stats gauge)."""
        return {
            tenant: sum(len(c) for _stamp, c in queue)
            for tenant, queue in self._queues.items()
        }

    def next_chunk(self, now: float = 0.0) -> Optional[Chunk]:
        """The next runnable chunk under fair share + rate limits, or None.

        Round-robin over tenants with queued work: each call resumes from
        the cursor, skips empty and rate-limited tenants, and advances
        the cursor past the tenant it picked, so no tenant can monopolise
        consecutive placements while another has runnable work.
        """
        if not self._order:
            return None
        n = len(self._order)
        for step in range(n):
            i = (self._cursor + step) % n
            tenant = self._order[i]
            queue = self._queues[tenant]
            if not queue:
                continue
            limit = self._limits.get(tenant)
            if limit is not None and not limit.try_take(now):
                continue
            self._cursor = (i + 1) % n
            stamp, chunk = queue.popleft()
            if self.on_dispatch is not None:
                self.on_dispatch(chunk, max(0.0, now - stamp))
            return chunk
        return None

    def next_ready_in(self, now: float = 0.0) -> Optional[float]:
        """Seconds until a rate-limited tenant with work becomes runnable.

        None when no tenant is blocked purely by its rate limit (either
        there is runnable work right now, or there is no work at all).
        """
        waits = []
        for tenant, queue in self._queues.items():
            if not queue:
                continue
            limit = self._limits.get(tenant)
            if limit is None:
                return None  # runnable immediately
            wait = limit.ready_in(now)
            if wait <= 0.0:
                return None
            waits.append(wait)
        return min(waits) if waits else None

    def next_suspect(self) -> Optional[Chunk]:
        """A repeat-offender point to run isolated, or None."""
        return self._suspects.popleft() if self._suspects else None

    # -- failure policy ----------------------------------------------------

    def losses(self, key: str) -> int:
        return self._losses.get(key, 0)

    def report_lost(self, lost: Sequence[Chunk], blamable: bool) -> None:
        """Bisect lost chunks back into their queues.

        ``blamable`` means the break could have been caused by any of
        these chunks (a crash, not an innocent-bystander drain):
        repeat-offender singletons then graduate to the isolation queue
        instead of being retried blind.
        """
        for chunk in lost:
            if len(chunk) > 1:
                front, back = chunk.split()
                self.requeue_front(back)
                self.requeue_front(front)
                continue
            point = chunk.points[0]
            if blamable:
                self._losses[point.key] = self._losses.get(point.key, 0) + 1
            if self._losses.get(point.key, 0) >= self.suspect_after_losses:
                self._suspects.append(chunk)
            else:
                self.requeue_front(chunk)

    def convict_or_bisect(self, chunk: Chunk) -> Optional[TaskPoint]:
        """Policy for a chunk convicted by a parent-side budget overrun.

        A single point is guilty beyond doubt - returned for the caller
        to quarantine.  A multi-point chunk is bisected back into the
        queue (blamable: its singletons accumulate losses) so the next
        rounds narrow the verdict.
        """
        if len(chunk) == 1:
            return chunk.points[0]
        self.report_lost([chunk], blamable=True)
        return None

    # -- queue maintenance -------------------------------------------------

    def prune(self, should_drop: Callable[[Chunk], bool]) -> int:
        """Drop queued (undispatched) chunks the predicate rejects.

        Returns the number of *points* removed.  Used by the daemon when
        a job is cancelled before dispatch: chunks whose every point lost
        its last subscriber are dead weight the pool must not burn time
        on.  In-flight chunks are untouched - cancellation never claws
        back running work.
        """
        removed = 0
        for tenant, queue in self._queues.items():
            kept: Deque[Tuple[float, Chunk]] = deque()
            for stamp, chunk in queue:
                if should_drop(chunk):
                    removed += len(chunk)
                else:
                    kept.append((stamp, chunk))
            self._queues[tenant] = kept
        return removed

    # -- pool respawn budget -----------------------------------------------

    @property
    def respawns(self) -> int:
        return self._respawns

    def note_respawn(self) -> int:
        """Count a pool rebuild; raise once the cap is exhausted."""
        self._respawns += 1
        cap = self._respawn_cap
        if cap is not None and self._respawns > cap:
            raise RespawnBudgetExceeded(
                f"campaign pool crashed {self._respawns} times "
                f"(cap {cap}); giving up - is the worker "
                f"environment itself broken?"
            )
        return self._respawns
