"""repro.serve - the multi-tenant sweep service.

The campaign engine (PRs 1-5) turned the paper's methodology into
content-hashed, cached, crash-tolerant sweeps; this package wraps it in a
long-running job daemon so many tenants can share one worker pool and one
content-addressed result cache:

* :mod:`repro.serve.models` - the submission codec (JSON payload ->
  :class:`~repro.campaign.spec.SweepSpec`) and the job-state machine;
* :mod:`repro.serve.state`  - the thread-safe :class:`JobStore` with
  per-job event logs and long-poll waits;
* :mod:`repro.serve.service` - :class:`SweepService`, which pumps the
  shared :class:`~repro.campaign.scheduler.Scheduler` through the same
  :class:`~repro.campaign.runtime.RunCore` as one-shot runs, dedupes
  identical fingerprinted points across tenants (compute once, fan out
  to every subscriber) and checkpoints everything through the
  advisory-locked :class:`~repro.campaign.cache.ResultCache`;
* :mod:`repro.serve.server` - the stdlib-asyncio HTTP/JSON front end
  (``repro serve``) with NDJSON long-poll event streaming and a
  SIGTERM drain that checkpoints in-flight jobs as resumable while
  rejecting new submissions with 503;
* :mod:`repro.serve.client` - the stdlib HTTP client behind
  ``repro submit`` / ``repro jobs``, with transport retries + backoff.

The daemon is crash-durable: every admitted submission is written ahead
to an fsync'd NDJSON job log (:class:`~repro.serve.state.JobLog`) and
replayed against the shared result cache on the next start, so a
``kill -9``'d daemon resumes every unfinished job with zero duplicate
compute.  The daemon runs on one host: its pool workers are local
processes, and a crashed one is convicted by the same lost-chunk
machinery as in a one-shot campaign.

Scheduling policy (fair share, rate limits, retry/quarantine) is *not*
here - it lives in :mod:`repro.campaign.scheduler`, shared with
the one-shot CLI campaigns.
"""

from .client import ServeClient, ServeError
from .models import JobState, submission_to_spec
from .service import ServiceDraining, SweepService
from .state import Job, JobLog, JobStore

__all__ = [
    "Job",
    "JobLog",
    "JobState",
    "JobStore",
    "ServeClient",
    "ServeError",
    "ServiceDraining",
    "SweepService",
    "submission_to_spec",
]
