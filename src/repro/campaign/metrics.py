"""Campaign accounting: live progress and the end-of-run summary.

Since the observability layer landed there is exactly one accounting path:
the :class:`ProgressReporter` writes its tallies into a
:class:`repro.obs.Recorder` (counters ``campaign.executed`` /
``campaign.cache_hits`` / ``campaign.failures``) and the
:class:`CampaignSummary` is derived from those counters.  The same
recorder receives the merged per-worker solver metrics, so the run report
and the one-line summary can never disagree.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import IO, Optional

from ..obs import Recorder


@dataclass(frozen=True)
class CampaignSummary:
    """What a finished campaign did, in numbers."""

    name: str
    total: int  #: task points in the spec
    executed: int  #: ran this time (cache misses)
    cache_hits: int  #: satisfied from the persistent store
    failures: int  #: recorded failures (hits + executed)
    wall_time: float  #: seconds for the whole run
    quarantined: int = 0  #: poison points isolated after worker crashes
    timeouts: int = 0  #: tasks downgraded by the deadline watchdog
    interrupted: bool = False  #: the run stopped on SIGINT/SIGTERM

    @property
    def completed(self) -> int:
        return self.cache_hits + self.executed

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    @property
    def tasks_per_sec(self) -> float:
        """Executed tasks per wall second (cache hits excluded)."""
        if self.wall_time <= 0.0:
            return 0.0
        return self.executed / self.wall_time

    def render(self) -> str:
        text = (
            f"campaign[{self.name}] {self.total} tasks: "
            f"{self.executed} executed, {self.cache_hits} cache hits "
            f"({self.cache_hit_rate:.0%}), {self.failures} failed, "
            f"{self.wall_time:.1f}s wall, {self.tasks_per_sec:.2f} tasks/s"
        )
        if self.quarantined:
            text += f", {self.quarantined} quarantined"
        if self.timeouts:
            text += f", {self.timeouts} timed out"
        if self.interrupted:
            text += " [interrupted]"
        return text


class ProgressReporter:
    """Streams per-chunk progress lines when verbose, stays silent otherwise.

    The tallies live in a :class:`~repro.obs.Recorder` (one accounting
    path with the run report); the streamed rate counts *executed* tasks
    only, regardless of the order in which cache hits and chunks were
    recorded - a cache hit costs no solver time and must never inflate
    (or, recorded late, deflate) the throughput figure.
    """

    def __init__(
        self,
        name: str,
        total: int,
        verbose: bool = False,
        stream: Optional[IO[str]] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.name = name
        self.total = total
        self.verbose = verbose
        self.stream = stream if stream is not None else sys.stderr
        self.recorder = recorder if recorder is not None else Recorder()
        self.started = time.perf_counter()
        self._finished = False

    @property
    def executed(self) -> int:
        return self.recorder.counters.get("campaign.executed", 0)

    @property
    def hits(self) -> int:
        return self.recorder.counters.get("campaign.cache_hits", 0)

    @property
    def failed(self) -> int:
        return self.recorder.counters.get("campaign.failures", 0)

    @property
    def quarantined(self) -> int:
        return self.recorder.counters.get("campaign.task.quarantined", 0)

    @property
    def timeouts(self) -> int:
        return self.recorder.counters.get("campaign.task.timeouts", 0)

    @property
    def done(self) -> int:
        return self.executed + self.hits

    def cache_hits(self, count: int, failed: int = 0) -> None:
        self.recorder.count("campaign.cache_hits", count)
        self.recorder.count("campaign.failures", failed)
        if count:
            self._emit(f"{count} cached results reused")

    def chunk_done(self, count: int, failed: int = 0) -> None:
        # campaign.task.quarantined/timeouts are counted by RunCore.absorb,
        # the one checkpoint path both drivers share.
        self.recorder.count("campaign.executed", count)
        self.recorder.count("campaign.failures", failed)
        self._emit("chunk complete")

    def finish(self) -> None:
        """Mark the run complete; called exactly once by the executor.

        A non-verbose run that recorded failures gets one final progress
        line so the failures cannot scroll by unseen - the end-of-run
        summary itself is still rendered exactly once by the caller.
        """
        if self._finished:
            return
        self._finished = True
        if not self.verbose and self.failed > 0:
            self._emit("run complete", force=True)

    def _emit(self, note: str, force: bool = False) -> None:
        if not self.verbose and not force:
            return
        elapsed = time.perf_counter() - self.started
        rate = self.executed / elapsed if elapsed > 0 else 0.0
        self.stream.write(
            f"campaign[{self.name}] {self.done}/{self.total} done "
            f"({self.hits} hits, {self.failed} failed, {rate:.2f} tasks/s): "
            f"{note}\n"
        )
        self.stream.flush()

    def summary(self, interrupted: bool = False) -> CampaignSummary:
        return CampaignSummary(
            name=self.name,
            total=self.total,
            executed=self.executed,
            cache_hits=self.hits,
            failures=self.failed,
            wall_time=time.perf_counter() - self.started,
            quarantined=self.quarantined,
            timeouts=self.timeouts,
            interrupted=interrupted,
        )
