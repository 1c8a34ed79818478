"""Process-local task deadlines: the worker-side half of hang defence.

A campaign task that wedges inside a Newton solve would stall its worker
(and, transitively, the whole pool) forever - the process pool cannot
cancel a running call.  The watchdog turns that failure mode into data:
the executor arms a monotonic-clock deadline around each task, the hot
loops that can spin for a long time (the Newton iteration in
:mod:`repro.spice.dc`, the chaos hang injector) call :func:`check` at
their top, and an expired deadline raises :class:`DeadlineExceeded`,
which the executor downgrades to a ``status="timeout"`` task record.

The parent-side half - a per-chunk wall-clock budget that kills workers
hung in code the watchdog cannot see - lives in
:mod:`repro.campaign.runtime` (``WorkerRuntime.chunk_budget``).

Like :mod:`repro.obs`, the installation is process-local and the disabled
fast path is one ``None`` check per call, so instrumented loops pay
essentially nothing when no deadline is armed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional


class DeadlineExceeded(RuntimeError):
    """A task ran past its armed deadline.

    Deliberately *not* a :class:`repro.spice.ConvergenceError` subclass:
    the solver's strategy chain must not swallow an expiry as "this
    strategy failed, try the next one" - the exception has to unwind all
    the way to the executor, which records the task as timed out.
    """

    def __init__(self, budget_s: float, elapsed_s: float) -> None:
        super().__init__(
            f"task exceeded its {budget_s:g}s deadline "
            f"(ran {elapsed_s:.3f}s)"
        )
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s


#: Armed expiry as a ``time.monotonic()`` instant, or None (disarmed).
_expiry: Optional[float] = None
_budget: float = 0.0
_armed_at: float = 0.0


def active() -> bool:
    """Whether a deadline is currently armed in this process."""
    return _expiry is not None


def remaining() -> Optional[float]:
    """Seconds until expiry, or None when no deadline is armed."""
    if _expiry is None:
        return None
    return _expiry - time.monotonic()


def check() -> None:
    """Raise :class:`DeadlineExceeded` if the armed deadline has passed.

    The no-deadline fast path is a single ``None`` comparison; hot loops
    (one call per Newton iteration) can afford it unconditionally.
    """
    expiry = _expiry
    if expiry is not None and time.monotonic() >= expiry:
        raise DeadlineExceeded(_budget, time.monotonic() - _armed_at)


@contextmanager
def deadline(seconds: Optional[float]) -> Iterator[None]:
    """Arm a deadline ``seconds`` from now for the enclosed block.

    ``None`` is a no-op (the common case: campaigns without a deadline
    knob).  Nested deadlines keep whichever expiry is *earlier* - an
    outer budget can only be tightened, never extended, by inner code.
    """
    global _expiry, _budget, _armed_at
    if seconds is None:
        yield
        return
    previous = (_expiry, _budget, _armed_at)
    now = time.monotonic()
    proposed = now + seconds
    if _expiry is None or proposed < _expiry:
        _expiry, _budget, _armed_at = proposed, seconds, now
    try:
        yield
    finally:
        _expiry, _budget, _armed_at = previous
