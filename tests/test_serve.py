"""The sweep service: submission codec, cross-tenant dedupe, graceful
drain, HTTP front end and the stdlib client.

Everything here runs the service with ``jobs=1`` (the inline pump), so
the toy task kinds registered below stay visible - there is no pickling
boundary - and execution order matches the serial executor exactly,
which is what the bit-identical comparison test relies on.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.campaign import BackoffPolicy, SweepSpec, TaskPoint, run_campaign, task
from repro.obs.export import parse_metrics
from repro.obs.stitch import build_trees
from repro.obs.trace import read_trace
from repro.serve import JobState, ServiceDraining, SweepService
from repro.serve.client import ServeClient, ServeError
from repro.serve.models import advance, submission_to_spec, validate_tenant
from repro.serve.server import ServeApp
from repro.serve.state import JobStore

#: Wall-clock budget for "the pump finishes this tiny job" waits.
DEADLINE = 20.0


@task("serve-square")
def _serve_square(params, context):
    return {"y": params["x"] ** 2 + context.get("offset", 0)}


@task("serve-slow")
def _serve_slow(params, context):
    time.sleep(params.get("sleep", 0.15))
    return {"x": params["x"]}


@task("serve-fail")
def _serve_fail(params, context):
    raise ValueError("deterministically broken point")


def spec_of(xs, name="sweep", kind="serve-square"):
    return SweepSpec.build(name, [TaskPoint.make(kind, x=x) for x in xs])


def wait_terminal(service, *jobs, deadline=DEADLINE):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if all(service.store.get(j.id).state.terminal for j in jobs):
            return
        time.sleep(0.01)
    states = {j.id: service.store.get(j.id).state for j in jobs}
    raise AssertionError(f"jobs still running after {deadline}s: {states}")


@pytest.fixture
def service(tmp_path):
    svc = SweepService(jobs=1, cache_dir=tmp_path / "cache").start()
    yield svc
    svc.stop(timeout=DEADLINE)


# --- submission codec -----------------------------------------------------


class TestModels:
    def test_raw_submission_decodes_to_a_spec(self):
        spec = submission_to_spec({
            "name": "adhoc",
            "tasks": [{"kind": "serve-square", "params": {"x": 3}}],
        })
        assert spec.name == "adhoc"
        assert spec.tasks[0].kind == "serve-square"

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown target"):
            submission_to_spec({"target": "fig9"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            submission_to_spec({"tasks": [{"kind": "no-such-kind"}]})

    def test_submission_needs_target_or_tasks(self):
        with pytest.raises(ValueError, match="target.*tasks"):
            submission_to_spec({"name": "empty"})

    def test_target_submission_builds_real_specs(self):
        spec = submission_to_spec({"target": "fig4", "options": {"fast": True}})
        assert spec.name == "figure4"
        assert len(spec.tasks) > 0

    def test_tenant_validation(self):
        assert validate_tenant("alice-1.prod") == "alice-1.prod"
        for bad in ("", ".hidden", "a b", "x" * 65, 42):
            with pytest.raises(ValueError):
                validate_tenant(bad)

    def test_state_machine_rejects_illegal_edges(self):
        assert advance(JobState.QUEUED, JobState.DONE) is JobState.DONE
        with pytest.raises(ValueError, match="illegal job transition"):
            advance(JobState.DONE, JobState.RUNNING)


# --- job store event log --------------------------------------------------


class TestJobStore:
    def test_event_indices_are_dense_and_resumable(self):
        store = JobStore()
        job = store.create("t", spec_of([1]), "fp")
        store.emit(job, "a")
        store.emit(job, "b", extra=1)
        store.emit(job, "c")
        assert [e["i"] for e in store.events_since(job.id, 0)] == [0, 1, 2]
        assert [e["event"] for e in store.events_since(job.id, 1)] == ["b", "c"]
        assert store.events_since(job.id, 99) == []

    def test_wait_events_blocks_until_an_emit(self):
        store = JobStore()
        job = store.create("t", spec_of([1]), "fp")

        def emit_later():
            time.sleep(0.05)
            store.emit(job, "ping")

        threading.Thread(target=emit_later).start()
        batch = store.wait_events(job.id, since=0, timeout=5.0)
        assert [e["event"] for e in batch] == ["ping"]

    def test_wait_events_returns_immediately_for_terminal_jobs(self):
        store = JobStore()
        job = store.create("t", spec_of([1]), "fp")
        store.transition(job, JobState.CANCELLED)
        start = time.monotonic()
        batch = store.wait_events(job.id, since=1, timeout=5.0)
        assert time.monotonic() - start < 1.0
        assert batch == []


# --- the service: dedupe, caching, fan-out --------------------------------


class TestService:
    def test_cross_tenant_dedupe_executes_shared_points_once(self, service):
        # Overlapping grids: alice wants 0..4, bob wants 3..7. The shared
        # points {3, 4} must execute exactly once.
        ja = service.submit(spec_of(range(5), "a"), tenant="alice")
        jb = service.submit(spec_of(range(3, 8), "b"), tenant="bob")
        wait_terminal(service, ja, jb)
        counters = service.stats()["counters"]
        assert counters["serve.points.total"] == 10
        assert counters["serve.points.executed"] == 8  # not 10
        assert counters["serve.points.deduped"] == 2
        assert counters["serve.tenant.bob.points.deduped"] == 2
        # Both jobs still see all their points, including the shared ones.
        assert service.store.get(ja.id).state is JobState.DONE
        jb_dict = service.job_dict(jb.id)
        assert jb_dict["done"] == jb_dict["total"] == 5
        assert service.job_records(jb.id)[spec_of([3]).tasks[0].key][
            "value"] == {"y": 9}

    def test_warm_cache_resubmit_is_instant_done(self, service):
        first = service.submit(spec_of(range(4)), tenant="alice")
        wait_terminal(service, first)
        again = service.submit(spec_of(range(4)), tenant="bob")
        # Fully cache-satisfied: DONE synchronously at submit time.
        assert again.state is JobState.DONE
        assert service.job_dict(again.id)["cache_hits"] == 4
        counters = service.stats()["counters"]
        assert counters["serve.tenant.bob.points.cache_hits"] == 4
        assert counters["serve.points.executed"] == 4

    def test_results_bit_identical_to_serial_executor(self, service, tmp_path):
        spec = spec_of(range(6), "identical")
        serial = run_campaign(spec, jobs=1,
                              cache_dir=str(tmp_path / "serial-cache"))
        job = service.submit(spec, tenant="alice")
        wait_terminal(service, job)
        served = service.store.get(job.id).records
        assert set(served) == set(serial.records)
        for key, record in serial.records.items():
            assert served[key].value == record.value
            assert served[key].status == record.status
        # Same fingerprint => the daemon's cache entries are reusable by
        # a one-shot CLI run against the same directory, and vice versa.
        assert job.fingerprint == spec.fingerprint()

    def test_failed_points_counted_not_fatal(self, service):
        spec = SweepSpec.build("mixed", [
            TaskPoint.make("serve-square", x=1),
            TaskPoint.make("serve-fail", x=2),
        ])
        job = service.submit(spec, tenant="alice")
        wait_terminal(service, job)
        final = service.job_dict(job.id)
        assert final["state"] == "done"
        assert final["failures"] == 1
        assert service.stats()["counters"]["serve.points.failed"] == 1

    def test_cancel_releases_the_job_but_not_shared_points(self, service):
        slow = SweepSpec.build("slow", [
            TaskPoint.make("serve-slow", x=x) for x in range(4)
        ])
        job = service.submit(slow, tenant="alice")
        cancelled = service.cancel(job.id)
        assert cancelled.state is JobState.CANCELLED
        assert service.job_dict(job.id)["state"] == "cancelled"
        # Terminal cancel is idempotent.
        assert service.cancel(job.id).state is JobState.CANCELLED

    def test_job_events_replay_the_whole_lifecycle(self, service):
        job = service.submit(spec_of(range(2)), tenant="alice")
        wait_terminal(service, job)
        events = service.store.events_since(job.id, 0)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "submitted"
        assert kinds.count("result") == 2
        assert kinds[-1] == "state"
        assert events[-1]["state"] == "done"
        assert [e["i"] for e in events] == list(range(len(events)))

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs, tmp_path):
        # With no pool worker nothing would ever run a submitted point.
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            SweepService(jobs=jobs, cache_dir=tmp_path / "cache")


# --- graceful shutdown ----------------------------------------------------


class TestDrain:
    def test_drain_checkpoints_every_tenants_job_as_resumable(self, tmp_path):
        service = SweepService(jobs=1, cache_dir=tmp_path / "cache").start()
        slow_a = SweepSpec.build("slow-a", [
            TaskPoint.make("serve-slow", x=x) for x in range(20)
        ])
        slow_b = SweepSpec.build("slow-b", [
            TaskPoint.make("serve-slow", x=x) for x in range(20, 40)
        ])
        ja = service.submit(slow_a, tenant="alice")
        jb = service.submit(slow_b, tenant="bob")
        # Let the pump start chewing, then pull the plug mid-flight.
        deadline = time.monotonic() + DEADLINE
        while service.stats()["counters"].get("serve.points.executed", 0) < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        service.drain(timeout=DEADLINE)

        for job_id, tenant in ((ja.id, "alice"), (jb.id, "bob")):
            final = service.job_dict(job_id)
            assert final["state"] == "interrupted", tenant
            assert final["resumable"] is True, tenant
            assert final["done"] < final["total"], tenant
        counters = service.stats()["counters"]
        assert counters["serve.jobs.interrupted"] == 2
        # Whatever did finish was checkpointed: a resubmission replays it
        # from the cache instead of recomputing.
        executed = counters["serve.points.executed"]
        assert executed >= 1
        service2 = SweepService(jobs=1, cache_dir=tmp_path / "cache").start()
        try:
            resumed = service2.submit(slow_a, tenant="alice")
            hits = service2.job_dict(resumed.id)["cache_hits"]
            done_a = sum(
                1 for r in service.store.get(ja.id).records.values() if r.ok
            )
            assert hits == done_a
        finally:
            service2.stop(timeout=DEADLINE)

    def test_draining_service_rejects_new_submissions(self, tmp_path):
        service = SweepService(jobs=1, cache_dir=tmp_path / "cache").start()
        service.begin_drain()
        with pytest.raises(ServiceDraining):
            service.submit(spec_of([1]), tenant="alice")
        service.drain(timeout=DEADLINE)

    def test_drain_writes_the_service_report(self, tmp_path):
        service = SweepService(jobs=1, cache_dir=tmp_path / "cache").start()
        job = service.submit(spec_of(range(3)), tenant="alice")
        wait_terminal(service, job)
        service.drain(timeout=DEADLINE)
        from repro.obs.report import load_report

        report = load_report(tmp_path / "cache" / "serve")
        assert report["campaign"]["name"] == "serve"
        assert report["counters"]["serve.tenant.alice.points.total"] == 3


# --- HTTP front end + client ----------------------------------------------


class _Daemon:
    """ServeApp on a real socket, driven from a background event loop."""

    def __init__(self, service):
        self.service = service
        self.port = None
        self._loop = None
        self._stop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        app = ServeApp(self.service)
        server = await asyncio.start_server(app.handle, "127.0.0.1", 0)
        self.port = server.sockets[0].getsockname()[1]
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(DEADLINE), "server failed to start"
        return self

    def __exit__(self, *exc_info):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(DEADLINE)


class TestHttp:
    def test_submit_poll_stream_and_result_over_http(self, service):
        with _Daemon(service) as daemon:
            alice = ServeClient(f"http://127.0.0.1:{daemon.port}",
                                tenant="alice")
            bob = ServeClient(f"http://127.0.0.1:{daemon.port}", tenant="bob")
            assert alice.healthz()["ok"] is True

            job = alice.submit({
                "name": "http-sweep",
                "tasks": [{"kind": "serve-square", "params": {"x": x}}
                          for x in range(4)],
            })
            assert job["tenant"] == "alice"
            events = list(alice.stream(job["id"], wait=2.0))
            assert events[-1]["event"] == "state"
            assert events[-1]["state"] == "done"

            final = alice.wait(job["id"], timeout=DEADLINE)
            assert final["state"] == "done"
            assert final["done"] == 4

            result = alice.result(job["id"])
            values = sorted(r["value"]["y"] for r in result["results"].values())
            assert values == [0, 1, 4, 9]

            # Tenancy flows from the client header into accounting.
            job_b = bob.submit({
                "name": "http-sweep-b",
                "tasks": [{"kind": "serve-square", "params": {"x": 9}}],
            })
            bob.wait(job_b["id"], timeout=DEADLINE)
            tenants = {j["tenant"] for j in alice.jobs()}
            assert tenants == {"alice", "bob"}
            assert [j["tenant"] for j in alice.jobs(tenant="bob")] == ["bob"]
            stats = alice.stats()
            assert stats["counters"]["serve.tenant.bob.jobs.submitted"] == 1

    def test_http_errors_are_json_with_status(self, service):
        with _Daemon(service) as daemon:
            client = ServeClient(f"http://127.0.0.1:{daemon.port}")
            with pytest.raises(ServeError) as bad:
                client.submit({"target": "fig9"})
            assert bad.value.status == 400
            assert "unknown target" in bad.value.message
            with pytest.raises(ServeError) as missing:
                client.job("j9999-nope")
            assert missing.value.status == 404
            with pytest.raises(ServeError) as bad_tenant:
                ServeClient(f"http://127.0.0.1:{daemon.port}",
                            tenant="not a tenant!").submit({
                                "tasks": [{"kind": "serve-square",
                                           "params": {"x": 1}}]})
            assert bad_tenant.value.status == 400

    def test_draining_daemon_returns_503(self, service):
        with _Daemon(service) as daemon:
            client = ServeClient(f"http://127.0.0.1:{daemon.port}")
            service.begin_drain()
            with pytest.raises(ServeError) as denied:
                client.submit({"tasks": [{"kind": "serve-square",
                                          "params": {"x": 1}}]})
            assert denied.value.status == 503
            assert client.healthz()["draining"] is True


# --- live observability: /metrics, stats, stitched traces ------------------


class TestObservability:
    def test_prometheus_exposition_has_required_series(self, service):
        job = service.submit(spec_of(range(4)), tenant="alice")
        wait_terminal(service, job)
        samples = parse_metrics(service.prometheus())
        # Every job-state gauge series exists from the first scrape.
        for state in JobState:
            key = ("serve_jobs_total", (("state", state.value),))
            assert key in samples, state
        assert samples[("serve_jobs_total", (("state", "done"),))] == 1
        # Per-tenant counters collapse into labeled families.
        assert samples[
            ("serve_jobs_submitted_total", (("tenant", "alice"),))
        ] == 1
        # The per-tenant SLO latency histograms: submit->first-result
        # and queue-wait, complete with +Inf buckets.
        assert samples[
            ("serve_submit_to_first_result_seconds_bucket",
             (("tenant", "alice"), ("le", "+Inf")))
        ] == 1
        assert samples[
            ("serve_queue_wait_seconds_count", (("tenant", "alice"),))
        ] >= 1
        # Liveness gauges.
        assert samples[("serve_pump_alive", ())] == 1
        assert samples[("serve_local_jobs", ())] == 1
        assert samples[("serve_uptime_seconds", ())] >= 0.0
        assert samples[("serve_queue_depth_points", ())] == 0

    def test_metrics_served_over_http(self, service):
        job = service.submit(spec_of(range(2)), tenant="alice")
        wait_terminal(service, job)
        with _Daemon(service) as daemon:
            client = ServeClient(f"http://127.0.0.1:{daemon.port}")
            body = client.metrics()
            assert isinstance(body, str)
            samples = parse_metrics(body)
            assert ("serve_jobs_total", (("state", "done"),)) in samples
            # ?format=prom on /v1/stats is the same exposition.
            alt = client._request("GET", "/v1/stats?format=prom")
            assert set(parse_metrics(alt)) == set(samples)
            # and the plain stats payload stays JSON.
            stats = client.stats()
            assert stats["workers"]["mode"] == "inline"

    def test_stats_reports_workers_and_queue_depths(self, service):
        stats = service.stats()
        workers = stats["workers"]
        assert workers["jobs"] == 1
        assert workers["mode"] == "inline"
        assert workers["pump_alive"] is True
        assert stats["queued_by_tenant"] == {}
        job = service.submit(spec_of(range(3)), tenant="alice")
        wait_terminal(service, job)
        # The tenant's queue shows up (drained back to zero).
        assert service.stats()["queued_by_tenant"].get("alice", 0) == 0

    def test_daemon_trace_stitches_one_tree_per_job(self, tmp_path):
        service = SweepService(jobs=1, cache_dir=tmp_path / "cache").start()
        try:
            ja = service.submit(spec_of(range(3), "a"), tenant="alice")
            jb = service.submit(spec_of(range(10, 13), "b"), tenant="bob")
            wait_terminal(service, ja, jb)
        finally:
            service.stop(timeout=DEADLINE)
        events = read_trace(
            tmp_path / "cache" / "serve" / "trace.jsonl",
            include_rotated=True,
        )
        trees = {t.name: t for t in build_trees(events)}
        assert set(trees) == {
            f"job {ja.id} tenant=alice", f"job {jb.id} tenant=bob",
        }
        for root in trees.values():
            assert root.elapsed is not None  # backfilled from job-done
            tasks = [n for n in root.walk() if n.name == "task.serve-square"]
            assert len(tasks) == 3
            assert {n.trace_id for n in root.walk()} == {root.trace_id}
        # The two jobs are distinct traces.
        assert trees[f"job {ja.id} tenant=alice"].trace_id \
            != trees[f"job {jb.id} tenant=bob"].trace_id

    def test_trace_rotation_is_counted(self, tmp_path):
        service = SweepService(jobs=1, cache_dir=tmp_path / "cache",
                               trace_max_bytes=600).start()
        try:
            for offset in range(0, 40, 10):
                job = service.submit(
                    spec_of(range(offset, offset + 4), f"s{offset}"),
                    tenant="alice",
                )
                wait_terminal(service, job)
            counters = service.stats()["counters"]
        finally:
            service.stop(timeout=DEADLINE)
        assert counters["trace.rotations"] >= 1
        assert service.trace.rotated_path.exists()

    def test_drain_marks_interrupted_jobs_in_the_trace(self, tmp_path):
        service = SweepService(jobs=1, cache_dir=tmp_path / "cache").start()
        slow = SweepSpec.build("slow", [
            TaskPoint.make("serve-slow", x=x) for x in range(20)
        ])
        job = service.submit(slow, tenant="alice")
        deadline = time.monotonic() + DEADLINE
        while service.stats()["counters"].get("serve.points.executed", 0) < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        service.drain(timeout=DEADLINE)
        events = read_trace(
            tmp_path / "cache" / "serve" / "trace.jsonl",
            include_rotated=True,
        )
        assert any(e["event"] == "job-interrupted" and e["job"] == job.id
                   for e in events)
        (root,) = build_trees(events)
        assert root.status == "interrupted"
        assert root.elapsed is not None
        # The spans that did finish before the plug was pulled are there.
        assert any(n.name == "task.serve-slow" for n in root.walk())


# --- the durable job log: kill -9 the daemon, jobs survive -----------------


class TestRecovery:
    def test_restart_replays_unfinished_jobs(self, tmp_path):
        cache = tmp_path / "cache"
        first = SweepService(jobs=1, cache_dir=cache)  # never started
        job = first.submit(spec_of(range(3)), tenant="alice")
        assert first.store.get(job.id).state is JobState.QUEUED
        # No drain, no stop: the daemon is gone as if SIGKILLed.
        second = SweepService(jobs=1, cache_dir=cache).start()
        try:
            revived = second.store.get(job.id)
            assert revived is not None and revived.tenant == "alice"
            wait_terminal(second, revived)
            assert second.store.get(job.id).state is JobState.DONE
            assert len(second.job_records(job.id)) == 3
            assert second.stats()["counters"]["serve.jobs.recovered"] == 1
        finally:
            second.stop(timeout=DEADLINE)

    def test_replay_skips_terminals_and_duplicates_no_compute(self, tmp_path):
        cache = tmp_path / "cache"
        first = SweepService(jobs=1, cache_dir=cache)
        done = first.submit(spec_of(range(3), name="done-before-crash"))
        # The one-shot pump (no idle wait) on this thread: it runs what is
        # queued now, and nothing submitted after it returns.
        first.core.pump(first.scheduler, lambda: False)
        assert first.store.get(done.id).state is JobState.DONE
        partial = first.submit(spec_of(range(5), name="half-cached"))
        assert partial.cache_hits == 3
        axed = first.submit(spec_of([9], name="cancelled-before-crash"))
        first.cancel(axed.id)

        second = SweepService(jobs=1, cache_dir=cache).start()
        try:
            assert second.store.get(done.id) is None  # terminal: stays dead
            assert second.store.get(axed.id) is None
            revived = second.store.get(partial.id)
            assert revived is not None
            wait_terminal(second, revived)
            assert second.store.get(partial.id).state is JobState.DONE
            assert len(second.job_records(partial.id)) == 5
            counters = second.stats()["counters"]
            # Only the two points the crash interrupted actually ran.
            assert counters["serve.points.executed"] == 2
            assert counters["serve.points.cache_hits"] == 3
        finally:
            second.stop(timeout=DEADLINE)

    def test_corrupt_log_lines_are_counted_not_fatal(self, tmp_path):
        cache = tmp_path / "cache"
        first = SweepService(jobs=1, cache_dir=cache)
        job = first.submit(spec_of([1, 2]))
        log_path = cache / "serve" / "jobs" / "submissions.ndjson"
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write("this is not json\n")
            fh.write('{"op": "submit", "id": "j9999-torn"')  # torn write
        second = SweepService(jobs=1, cache_dir=cache).start()
        try:
            revived = second.store.get(job.id)
            assert revived is not None
            wait_terminal(second, revived)
            assert second.stats()["counters"][
                "serve.joblog.corrupt_lines"] == 2
        finally:
            second.stop(timeout=DEADLINE)

    def test_undecodable_entry_marked_terminal_not_replayed_forever(
            self, tmp_path):
        cache = tmp_path / "cache"
        first = SweepService(jobs=1, cache_dir=cache)
        first.submit(spec_of([4]))
        log_path = cache / "serve" / "jobs" / "submissions.ndjson"
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "op": "submit", "id": "j9998-bogus", "tenant": "default",
                "created": 0.0, "payload": {"target": "no-such-target"},
            }) + "\n")
        second = SweepService(jobs=1, cache_dir=cache).start()
        try:
            assert second.stats()["counters"][
                "serve.jobs.recovery_failed"] == 1
            assert second.store.get("j9998-bogus") is None
        finally:
            second.stop(timeout=DEADLINE)
        # The failure was logged terminal: a third start stays clean.
        third = SweepService(jobs=1, cache_dir=cache).start()
        try:
            assert "serve.jobs.recovery_failed" not in \
                third.stats()["counters"]
        finally:
            third.stop(timeout=DEADLINE)


class TestCancelBeforeDispatch:
    def test_cancel_queued_job_records_terminal_and_prunes(self, tmp_path):
        cache = tmp_path / "cache"
        svc = SweepService(jobs=1, cache_dir=cache)  # never started
        job = svc.submit(spec_of(range(3)))
        cancelled = svc.cancel(job.id)
        assert cancelled.state is JobState.CANCELLED
        events = svc.store.events_since(job.id, 0)
        assert any(e.get("event") == "state"
                   and e.get("state") == "cancelled" for e in events)
        assert svc.stats()["counters"]["serve.points.cancelled"] == 3
        assert not svc.scheduler.has_pending
        # Durably terminal: a restart must not resurrect it.
        again = SweepService(jobs=1, cache_dir=cache).start()
        try:
            assert again.store.get(job.id) is None
        finally:
            again.stop(timeout=DEADLINE)

    def test_cancel_interrupted_job_on_drained_daemon(self, tmp_path):
        svc = SweepService(jobs=1, cache_dir=tmp_path / "cache")
        job = svc.submit(spec_of([6]))
        svc.drain(timeout=DEADLINE)
        assert svc.store.get(job.id).state is JobState.INTERRUPTED
        assert svc.cancel(job.id).state is JobState.CANCELLED

    def test_cancel_spares_chunks_other_jobs_still_want(self, tmp_path):
        svc = SweepService(jobs=1, cache_dir=tmp_path / "cache")
        mine = svc.submit(spec_of([1, 2]), tenant="alice")
        svc.submit(spec_of([2, 3]), tenant="bob")  # shares x=2
        svc.cancel(mine.id)
        leased = []  # every point the scheduler still dispatches
        chunk = svc.scheduler.next_chunk()
        while chunk is not None:
            leased.extend(p.as_dict()["x"] for p in chunk.points)
            chunk = svc.scheduler.next_chunk()
        assert sorted(leased) == [2, 3]  # x=1 pruned, x=2 survives for bob


# --- client retry policy ---------------------------------------------------


class _ScriptedClient(ServeClient):
    """ServeClient with a scripted transport: raises, then answers."""

    def __init__(self, *errors):
        super().__init__("http://127.0.0.1:1", retries=2,
                         backoff=BackoffPolicy(base_s=0.0))
        self.errors = list(errors)
        self.calls = 0

    def _request_once(self, method, path, payload=None, timeout=None):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return {"ok": True}


class TestClientRetry:
    def test_transport_errors_are_retried(self):
        client = _ScriptedClient(ConnectionRefusedError("no daemon"),
                                 OSError("reset"))
        assert client.healthz() == {"ok": True}
        assert client.calls == 3

    def test_5xx_is_retried(self):
        client = _ScriptedClient(ServeError(503, "draining"))
        assert client.healthz() == {"ok": True}
        assert client.calls == 2

    def test_4xx_fails_fast(self):
        client = _ScriptedClient(ServeError(400, "bad payload"))
        with pytest.raises(ServeError):
            client.healthz()
        assert client.calls == 1

    def test_exhausted_retries_raise_the_last_error(self):
        client = _ScriptedClient(*[OSError("down")] * 5)
        with pytest.raises(OSError):
            client.healthz()
        assert client.calls == 3  # 1 + retries(2)
