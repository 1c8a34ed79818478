"""E10 - sweep service: submission latency, multi-tenant throughput and
dedupe overhead.

Three service-level contracts, measured against the same
:class:`~repro.serve.service.SweepService` the daemon wraps:

* submission-to-first-result latency stays interactive (the long-poll
  event arrives well under a second for a trivial point);
* eight tenants submitting concurrently all complete, with cross-tenant
  dedupe collapsing the shared grid to one execution per unique point;
* the service layer's bookkeeping (job store, event log, subscriber
  fan-out) costs <=10% wall time over driving the executor directly on
  an equivalent warm-cache sweep.
"""

import time

from repro.campaign import SweepSpec, TaskPoint, run_campaign, task
from repro.serve import SweepService

#: Wall-clock ceiling for every in-bench wait.
DEADLINE = 60.0


@task("bench-serve-spin")
def _bench_spin(params, context):
    # ~100us of real work: small enough that service overhead dominates.
    total = 0.0
    for i in range(200):
        total += (params["x"] + i) ** 0.5
    return {"v": total}


def _spec(xs, name):
    return SweepSpec.build(name, [
        TaskPoint.make("bench-serve-spin", x=x) for x in xs
    ])


def _wait_jobs(service, jobs):
    deadline = time.monotonic() + DEADLINE
    while time.monotonic() < deadline:
        if all(service.store.get(j.id).state.terminal for j in jobs):
            return
        time.sleep(0.002)
    raise AssertionError("service jobs did not finish in time")


def test_submission_to_first_result_latency(benchmark, tmp_path_factory):
    cache = tmp_path_factory.mktemp("serve-latency")
    service = SweepService(jobs=1, cache_dir=cache).start()
    counter = iter(range(10_000_000))

    def submit_and_wait_first():
        job = service.submit(_spec([1_000_000 + next(counter)], "latency"),
                             tenant="bench")
        batch = service.store.wait_events(job.id, since=1, timeout=DEADLINE)
        assert batch, "no event after submission"
        return job

    try:
        benchmark.pedantic(submit_and_wait_first, rounds=20, iterations=1,
                           warmup_rounds=2)
    finally:
        service.stop(timeout=DEADLINE)
    stats = benchmark.stats.stats
    assert stats.max < 1.0, (
        f"submission-to-first-result took {stats.max:.3f}s"
    )


def test_eight_tenant_throughput_with_dedupe(benchmark, tmp_path_factory):
    # Eight tenants, 32 points each, every grid overlapping half of its
    # neighbour's: 8*32 = 256 submitted points but only 144 unique.
    grids = [range(base, base + 32) for base in range(0, 8 * 16, 16)]
    unique = len(set().union(*grids))

    def storm():
        cache = tmp_path_factory.mktemp("serve-throughput")
        service = SweepService(jobs=1, cache_dir=cache).start()
        jobs = [
            service.submit(_spec(grid, f"tenant-{i}"), tenant=f"t{i}")
            for i, grid in enumerate(grids)
        ]
        _wait_jobs(service, jobs)
        counters = service.stats()["counters"]
        service.stop(timeout=DEADLINE)
        return counters

    counters = benchmark.pedantic(storm, rounds=3, iterations=1)
    assert counters["serve.points.total"] == 256
    assert counters["serve.points.executed"] == unique  # dedupe held
    assert counters["serve.jobs.completed"] == 8
    jobs_per_sec = 8 / benchmark.stats.stats.mean
    assert jobs_per_sec > 0.5, f"only {jobs_per_sec:.2f} jobs/s"


def test_dedupe_overhead_vs_direct_executor(benchmark, tmp_path_factory):
    # Same warm-cache sweep through both layers: the service's job store,
    # event log and subscriber map may cost at most 10% extra wall time.
    xs = range(64)
    direct_cache = tmp_path_factory.mktemp("serve-direct")
    run_campaign(_spec(xs, "overhead"), cache_dir=str(direct_cache))

    def direct():
        return run_campaign(_spec(xs, "overhead"),
                            cache_dir=str(direct_cache))

    start = time.perf_counter()
    for _ in range(5):
        result = direct()
    direct_elapsed = (time.perf_counter() - start) / 5
    assert result.summary.executed == 0  # warm

    service = SweepService(jobs=1, cache_dir=direct_cache).start()

    def through_service():
        job = service.submit(_spec(xs, "overhead"), tenant="bench")
        _wait_jobs(service, [job])
        return job

    try:
        job = benchmark.pedantic(through_service, rounds=5, iterations=1,
                                 warmup_rounds=1)
        assert service.job_dict(job.id)["cache_hits"] == 64
    finally:
        service.stop(timeout=DEADLINE)
    served_elapsed = benchmark.stats.stats.mean
    assert served_elapsed <= direct_elapsed * 1.10 + 0.005, (
        f"service overhead {served_elapsed / direct_elapsed - 1.0:.1%} "
        f"({served_elapsed:.4f}s vs {direct_elapsed:.4f}s direct)"
    )

