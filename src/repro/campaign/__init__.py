"""Sweep-campaign engine: declarative grids, parallel execution, caching.

The paper's headline artifacts are all grid sweeps - defects x case
studies x PVT (Table II), defects x test configurations (Table III),
transistors x sigmas (Fig. 4), Monte Carlo shards - and this package turns
them from hand-rolled serial loops into *campaigns*:

* :mod:`repro.campaign.spec` - :class:`TaskPoint` / :class:`SweepSpec`,
  the content-hashable description of the work;
* :mod:`repro.campaign.tasks` - the registry of task implementations
  workers look up by name;
* :mod:`repro.campaign.scheduler` - the pure-logic placement/retry
  policy: per-tenant fair-share queues, token-bucket rate limits,
  lost-chunk bisection, suspect graduation and the respawn cap, all
  clock-injected and unit-testable without processes;
* :mod:`repro.campaign.runtime` - the execution side: the in-worker
  task loop, the ``WorkerRuntime`` (inline at ``jobs=1``, a
  ``ProcessPoolExecutor`` otherwise), the ``Pump`` dispatch loop, and the
  ``RunCore`` (cache split, checkpoint, quarantine record, pump) shared
  by the one-shot executor and the ``repro serve`` daemon;
* :mod:`repro.campaign.executor` - the one-shot driver: chunked dispatch,
  retries with backoff, failure downgrade, worker-crash recovery (pool
  respawn + poison-point quarantine), per-task deadlines and graceful
  SIGINT/SIGTERM drain;
* :mod:`repro.campaign.cache` - the append-only JSONL result store behind
  cache-hit skip and checkpoint/resume;
* :mod:`repro.campaign.memo` - the shared per-process DRV memo;
* :mod:`repro.campaign.metrics` - progress stream and run summary, both
  accounted through a :class:`repro.obs.Recorder`.

Drivers in :mod:`repro.analysis` build specs and aggregate results; the
CLI exposes ``--jobs/--cache-dir/--resume`` plus a generic ``campaign``
subcommand.  Runs with ``observe=True`` additionally merge per-worker
:mod:`repro.obs` telemetry and emit ``trace.jsonl`` / ``report.json``
next to the result cache (see ``repro stats``).
"""

from .cache import ResultCache, TaskRecord
from .executor import CampaignResult, Executor, run_campaign
from .metrics import CampaignSummary
from .runtime import ChunkEnv, run_chunk
from .scheduler import (
    BackoffPolicy,
    Chunk,
    RateLimit,
    RespawnBudgetExceeded,
    Scheduler,
)
from .spec import SweepSpec, TaskPoint
from .tasks import registered_kinds, task

__all__ = [
    "BackoffPolicy",
    "CampaignResult",
    "CampaignSummary",
    "Chunk",
    "ChunkEnv",
    "Executor",
    "RateLimit",
    "RespawnBudgetExceeded",
    "ResultCache",
    "Scheduler",
    "SweepSpec",
    "TaskPoint",
    "TaskRecord",
    "registered_kinds",
    "run_campaign",
    "run_chunk",
    "task",
]
