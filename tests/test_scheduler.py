"""The pure-logic Scheduler: placement, fair share, rate limits, failure
policy - all exercised as plain function calls with injected clocks, no
processes, no sleeping, no sockets."""

import pytest

from repro.campaign import (
    Chunk,
    RateLimit,
    RespawnBudgetExceeded,
    Scheduler,
)
from repro.campaign.scheduler import BackoffPolicy, chunk_points
from repro.campaign.spec import TaskPoint


def points(*xs):
    return [TaskPoint.make("toy-sched", x=x) for x in xs]


def chunk(*xs, tenant="default", meta=None):
    return Chunk.make(points(*xs), tenant, meta)


def drain_keys(scheduler, now=0.0, limit=100):
    out = []
    for _ in range(limit):
        c = scheduler.next_chunk(now)
        if c is None:
            break
        out.append(c)
    return out


# --- intake and placement -------------------------------------------------


class TestPlacement:
    def test_empty_scheduler_has_nothing(self):
        s = Scheduler()
        assert not s.has_pending
        assert s.next_chunk() is None
        assert s.next_suspect() is None
        assert s.pending() == 0

    def test_fifo_within_one_tenant(self):
        s = Scheduler()
        s.add_all([chunk(1), chunk(2), chunk(3)])
        got = [c.points[0].params[0][1] for c in drain_keys(s)]
        assert got == [1, 2, 3]

    def test_requeue_front_jumps_the_queue(self):
        s = Scheduler()
        s.add_all([chunk(1), chunk(2)])
        s.requeue_front(chunk(9))
        got = [c.points[0].params[0][1] for c in drain_keys(s)]
        assert got == [9, 1, 2]

    def test_pending_counts_points_not_chunks(self):
        s = Scheduler()
        s.add(chunk(1, 2, 3, tenant="a"))
        s.add(chunk(4, tenant="b"))
        assert s.pending() == 4
        assert s.pending("a") == 3
        assert s.pending("b") == 1
        assert s.pending("nobody") == 0

    def test_fair_share_interleaves_tenants(self):
        # Tenant "hog" dumps 6 chunks, "small" adds 2: strict round-robin
        # means small's work never waits behind the hog's backlog.
        s = Scheduler()
        for x in range(6):
            s.add(chunk(x, tenant="hog"))
        s.add(chunk(100, tenant="small"))
        s.add(chunk(101, tenant="small"))
        order = [c.tenant for c in drain_keys(s)]
        assert order[:4] == ["hog", "small", "hog", "small"]
        assert order[4:] == ["hog"] * 4

    def test_round_robin_cursor_survives_empty_queues(self):
        s = Scheduler()
        s.add(chunk(1, tenant="a"))
        s.add(chunk(2, tenant="b"))
        s.add(chunk(3, tenant="c"))
        assert s.next_chunk().tenant == "a"
        # b's queue drains; the cursor must skip it without stalling.
        assert s.next_chunk().tenant == "b"
        s.add(chunk(4, tenant="a"))
        assert s.next_chunk().tenant == "c"
        assert s.next_chunk().tenant == "a"
        assert s.next_chunk() is None

    def test_tenants_lists_registration_order(self):
        s = Scheduler()
        s.add(chunk(1, tenant="z"))
        s.add(chunk(2, tenant="a"))
        assert s.tenants == ["z", "a"]


# --- rate limits (fake clock throughout) ----------------------------------


class TestRateLimits:
    def test_limited_tenant_is_skipped_not_blocking_others(self):
        s = Scheduler()
        s.set_rate_limit("slow", rate_per_s=1.0, burst=1.0)
        s.add(chunk(1, tenant="slow"))
        s.add(chunk(2, tenant="slow"))
        s.add(chunk(3, tenant="fast"))
        s.add(chunk(4, tenant="fast"))
        got = [(c.tenant, c.points[0].params[0][1])
               for c in drain_keys(s, now=0.0)]
        # slow's burst token covers one dispatch; fast flows freely.
        assert got == [("slow", 1), ("fast", 3), ("fast", 4)]
        assert s.pending("slow") == 1

    def test_bucket_refills_with_the_injected_clock(self):
        s = Scheduler()
        s.set_rate_limit("t", rate_per_s=2.0, burst=1.0)
        s.add_all([chunk(1, tenant="t"), chunk(2, tenant="t"),
                   chunk(3, tenant="t")])
        assert s.next_chunk(now=10.0) is not None
        assert s.next_chunk(now=10.0) is None  # bucket empty
        assert s.next_chunk(now=10.2) is None  # 0.4 tokens: still short
        assert s.next_chunk(now=10.6) is not None  # >= 1 token again
        assert s.next_chunk(now=11.1) is not None

    def test_next_ready_in_reports_the_soonest_refill(self):
        s = Scheduler()
        s.set_rate_limit("t", rate_per_s=2.0, burst=1.0)
        s.add_all([chunk(1, tenant="t"), chunk(2, tenant="t")])
        assert s.next_chunk(now=0.0) is not None
        wait = s.next_ready_in(now=0.0)
        assert wait == pytest.approx(0.5)

    def test_next_ready_in_none_when_runnable_or_idle(self):
        s = Scheduler()
        assert s.next_ready_in(0.0) is None  # no work at all
        s.add(chunk(1, tenant="free"))
        assert s.next_ready_in(0.0) is None  # runnable right now

    def test_rate_limit_bucket_arithmetic(self):
        limit = RateLimit(rate_per_s=10.0, burst=3.0)
        assert limit.try_take(0.0)
        assert limit.try_take(0.0)
        assert limit.try_take(0.0)
        assert not limit.try_take(0.0)
        assert limit.ready_in(0.0) == pytest.approx(0.1)
        assert limit.try_take(0.1)


# --- failure policy: bisection, suspects, conviction ----------------------


class TestFailurePolicy:
    def test_lost_multipoint_chunk_is_bisected_front_of_queue(self):
        s = Scheduler()
        s.add(chunk(9))  # pre-existing work stays behind the requeue
        lost = chunk(1, 2, 3, 4)
        s.report_lost([lost], blamable=True)
        first = s.next_chunk()
        second = s.next_chunk()
        assert [p.params[0][1] for p in first.points] == [1, 2]
        assert [p.params[0][1] for p in second.points] == [3, 4]
        assert s.next_chunk().points[0].params[0][1] == 9

    def test_singleton_losses_accumulate_only_when_blamable(self):
        s = Scheduler()
        poison = chunk(7)
        key = poison.points[0].key
        s.report_lost([poison], blamable=False)  # innocent bystander
        assert s.losses(key) == 0
        assert not s.has_suspects
        s.next_chunk()  # it went back to the queue
        s.report_lost([poison], blamable=True)
        assert s.losses(key) == 1
        assert not s.has_suspects  # one loss: retried normally

    def test_repeat_offender_graduates_to_isolation(self):
        s = Scheduler()
        poison = chunk(7)
        s.report_lost([poison], blamable=True)
        s.next_chunk()  # first loss retries through the normal queue
        s.report_lost([poison], blamable=True)
        assert s.has_suspects
        assert s.next_chunk() is None  # not in the regular queues
        suspect = s.next_suspect()
        assert suspect.points[0].key == poison.points[0].key
        assert s.next_suspect() is None

    def test_convict_or_bisect_convicts_singletons(self):
        s = Scheduler()
        guilty = s.convict_or_bisect(chunk(5))
        assert guilty is not None and guilty.params[0][1] == 5
        assert not s.has_pending  # nothing requeued

    def test_convict_or_bisect_splits_multipoint_chunks(self):
        s = Scheduler()
        assert s.convict_or_bisect(chunk(1, 2)) is None
        halves = drain_keys(s)
        assert [len(h) for h in halves] == [1, 1]

    def test_bisection_preserves_tenant_and_meta(self):
        s = Scheduler()
        marker = object()
        s.report_lost([chunk(1, 2, tenant="t9", meta=marker)], blamable=True)
        for half in drain_keys(s):
            assert half.tenant == "t9"
            assert half.meta is marker


# --- respawn budget -------------------------------------------------------


class TestRespawnBudget:
    def test_cap_raises_past_the_budget(self):
        s = Scheduler()
        s.set_respawn_cap(2)
        assert s.note_respawn() == 1
        assert s.note_respawn() == 2
        with pytest.raises(RespawnBudgetExceeded):
            s.note_respawn()

    def test_uncapped_by_default(self):
        s = Scheduler()
        for _ in range(50):
            s.note_respawn()
        assert s.respawns == 50

    def test_default_cap_formula(self):
        s = Scheduler()
        assert s.default_respawn_cap(0) == 10
        assert s.default_respawn_cap(25) == 110


# --- chunking policy ------------------------------------------------------


class TestChunkPoints:
    def test_serial_gets_singleton_chunks(self):
        got = chunk_points(points(*range(5)), jobs=1)
        assert [len(c) for c in got] == [1] * 5

    def test_explicit_chunksize_wins(self):
        got = chunk_points(points(*range(5)), jobs=1, chunksize=2)
        assert [len(c) for c in got] == [2, 2, 1]

    def test_pool_targets_four_chunks_per_worker(self):
        got = chunk_points(points(*range(64)), jobs=2)
        assert all(len(c) == 8 for c in got)

    def test_preserves_order_and_points(self):
        pts = points(*range(7))
        got = chunk_points(pts, jobs=4)
        flat = [p for c in got for p in c]
        assert flat == pts


# --- queue maintenance ----------------------------------------------------


class TestQueueMaintenance:
    def test_prune_drops_only_matching_queued_chunks(self):
        s = Scheduler()
        s.add(chunk(1, 2, tenant="keep"))
        s.add(chunk(3, tenant="drop"))
        removed = s.prune(lambda c: c.tenant == "drop")
        assert removed == 1
        kept = drain_keys(s)
        assert len(kept) == 1 and kept[0].tenant == "keep"


# --- backoff determinism --------------------------------------------------


class TestBackoff:
    def test_zero_base_disables_delays(self):
        policy = BackoffPolicy(base_s=0.0)
        assert policy.delay("k", 1) == 0.0
        assert policy.delay("k", 9) == 0.0

    def test_growth_is_capped_and_jitter_bounded(self):
        policy = BackoffPolicy(base_s=0.1, factor=2.0, cap_s=1.0)
        for attempt in range(1, 8):
            delay = policy.delay("some-key", attempt)
            raw = min(1.0, 0.1 * 2.0 ** (attempt - 1))
            assert 0.5 * raw <= delay < raw + 1e-12

    def test_deterministic_per_key_and_attempt(self):
        policy = BackoffPolicy()
        assert policy.delay("k1", 3) == policy.delay("k1", 3)
        # Decorrelated across keys: not all keys share one jitter.
        delays = {policy.delay(f"k{i}", 1) for i in range(16)}
        assert len(delays) > 1
