"""The run core both drivers share: one dispatch loop, one checkpoint
path, one quarantine record, and the lock rule around the scheduler."""

import time
from concurrent.futures import Future

import pytest

from repro import watchdog
from repro.campaign import (
    BackoffPolicy,
    Chunk,
    ChunkEnv,
    Executor,
    ResultCache,
    SweepSpec,
    TaskPoint,
    TaskRecord,
    run_campaign,
    runtime,
    task,
)
from repro.campaign.runtime import RunCore, WorkerRuntime
from repro.obs import Recorder
from repro.obs.report import load_report
from repro.serve import SweepService

#: Wall-clock budget for "the service finishes this tiny job" waits.
DEADLINE = 30.0


@task("core-square")
def _core_square(params, context):
    return {"y": params["x"] ** 2}


@task("core-hang")
def _core_hang(params, context):
    # Spins until the armed watchdog deadline fires (or forever).
    while True:
        watchdog.check()
        time.sleep(0.01)


def wait_done(service, job):
    end = time.monotonic() + DEADLINE
    while not service.store.get(job.id).state.terminal:
        assert time.monotonic() < end, f"job {job.id} never finished"
        time.sleep(0.01)


class _LockProbe:
    """Scheduler stand-in recording every call made without ``lock``.

    Method calls and property reads (which walk the queues) count; plain
    configuration attributes such as ``suspect_after_losses`` do not.
    """

    def __init__(self, target, lock):
        self._target = target
        self._lock = lock
        self.calls = []
        self.unlocked = []

    def __getattr__(self, name):
        if isinstance(getattr(type(self._target), name, None), property):
            self._note(name)
        attr = getattr(self._target, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            self._note(name)
            return attr(*args, **kwargs)
        return call

    def _note(self, name):
        self.calls.append(name)
        if not self._lock._is_owned():
            self.unlocked.append(name)


class TestInlineRuntime:
    def _chunk(self, xs):
        env = ChunkEnv(context={}, fingerprint="f")
        return Chunk.make([TaskPoint.make("core-square", x=x) for x in xs],
                          meta=env)

    def test_submit_runs_in_the_caller_and_parks_a_finished_future(self):
        rt = WorkerRuntime(jobs=1)
        assert rt.window == 1
        rt.submit(self._chunk([2, 3]))
        (future,) = rt._inflight
        assert isinstance(future, Future) and future.done()
        assert rt.expired_chunk() is None  # no parent-side budget inline
        (event,) = rt.poll(0.0)
        assert event.kind == "done"
        assert [r.value["y"] for r in event.records] == [4, 9]
        assert rt._pool is None  # never built a pool

    def test_exception_escaping_run_chunk_propagates(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("inline dispatch blew up")

        monkeypatch.setattr(runtime, "run_chunk", boom)
        spec = SweepSpec.build("boom", [TaskPoint.make("core-square", x=1)])
        with pytest.raises(RuntimeError, match="inline dispatch"):
            Executor(jobs=1).run(spec)


class TestRunCore:
    def test_split_skips_duplicates_and_honours_rerun_failures(
            self, tmp_path):
        points = [TaskPoint.make("core-square", x=x) for x in (1, 2, 3)]
        cache = ResultCache(str(tmp_path))
        cache.append([
            TaskRecord(points[0].key, "core-square", fingerprint="f",
                       value={"y": 1}),
            TaskRecord(points[1].key, "core-square", fingerprint="f",
                       status="failed", error="ValueError: no"),
        ])
        core = RunCore(1, 0, None, None, False, BackoffPolicy(), cache=cache,
                       emit=print, recorder=Recorder(),
                       deliver=lambda chunk, records: None)
        tasks = points + [points[0]]  # a duplicated grid point
        hits, pending = core.split(tasks, "f")
        assert [r.key for r in hits] == [points[0].key, points[1].key]
        assert [p.key for p in pending] == [points[2].key]
        hits, pending = core.split(tasks, "f", rerun_failures=True)
        assert [r.key for r in hits] == [points[0].key]
        assert [p.key for p in pending] == [points[1].key, points[2].key]

    def test_quarantine_record_is_built_once_and_absorbed(self):
        seen = []
        events = []
        core = RunCore(
            2, 0, None, None, True, BackoffPolicy(), cache=None,
            emit=lambda event, **fields: events.append((event, fields)),
            recorder=Recorder(),
            deliver=lambda chunk, records: seen.extend(records),
        )
        point = TaskPoint.make("core-square", x=7)
        env = ChunkEnv({}, "fp", trace={"trace_id": "t", "span_id": "s"})
        core.quarantine(Chunk.make([point], meta=env), point, "crashed",
                        "worker died", attempts=3)
        (record,) = seen
        assert (record.key, record.status, record.attempts,
                record.fingerprint) == (point.key, "crashed", 3, "fp")
        assert core.recorder.counters["campaign.task.quarantined"] == 1
        kinds = [e for e, _ in events]
        assert kinds == ["quarantine", "span"]
        assert events[1][1]["status"] == "crashed"


class TestServiceLockRule:
    def test_pool_pump_holds_the_service_lock_on_every_scheduler_call(
            self, tmp_path):
        svc = SweepService(jobs=2, cache_dir=tmp_path / "cache",
                           observe=False)
        probe = _LockProbe(svc.scheduler, svc._lock)
        svc.scheduler = probe
        svc.start()
        try:
            job = svc.submit({"name": "probe", "tasks": [
                {"kind": "probe", "params": {"x": x}} for x in range(16)
            ]})
            wait_done(svc, job)
        finally:
            svc.stop(timeout=DEADLINE)
        assert svc.store.get(job.id).state.value == "done"
        assert "next_chunk" in probe.calls
        assert probe.unlocked == []


class TestTimeoutAccounting:
    def test_both_drivers_count_watchdog_timeouts_alike(self, tmp_path):
        spec = SweepSpec.build(
            "hang", [TaskPoint.make("core-hang", x=x) for x in range(3)])
        result = run_campaign(spec, jobs=1, deadline_s=0.2)
        svc = SweepService(jobs=1, deadline_s=0.2,
                           cache_dir=tmp_path / "cache").start()
        try:
            job = svc.submit(spec)
            wait_done(svc, job)
        finally:
            svc.drain(timeout=DEADLINE)
        names = ("campaign.task.timeouts", "campaign.task.quarantined")
        one_shot = {n: result.recorder.counters.get(n, 0) for n in names}
        served = {n: svc.recorder.counters.get(n, 0) for n in names}
        assert one_shot == served == {
            "campaign.task.timeouts": 3, "campaign.task.quarantined": 0}
        report = load_report(tmp_path / "cache" / "serve")
        assert report["campaign"]["timeouts"] == 3
