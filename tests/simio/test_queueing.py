"""Tests for the discrete-event substrate (EventQueue, WorkerPool)."""

import pytest

from repro.simio.queueing import (
    EVT_ARRIVAL,
    EVT_COMPLETION,
    EVT_TIMER,
    EventQueue,
    WorkerPool,
)


def drain(events):
    out = []
    while events:
        out.append(events.pop())
    return out


class TestEventQueue:
    def test_total_order_time_then_priority_then_insertion(self):
        events = EventQueue()
        pushed = [
            (2.0, EVT_COMPLETION, "late completion"),
            (1.0, EVT_ARRIVAL, "first arrival"),
            (1.0, EVT_ARRIVAL, "second arrival"),
            (1.0, EVT_COMPLETION, "completion"),
            (0.5, EVT_ARRIVAL, "early arrival"),
        ]
        for event in pushed:
            events.push(*event)
        assert len(events) == 5
        assert drain(events) == [
            (0.5, EVT_ARRIVAL, "early arrival"),
            (1.0, EVT_COMPLETION, "completion"),
            (1.0, EVT_ARRIVAL, "first arrival"),
            (1.0, EVT_ARRIVAL, "second arrival"),
            (2.0, EVT_COMPLETION, "late completion"),
        ]
        assert len(events) == 0 and not events

    def test_completion_before_timer_before_arrival_at_equal_time(self):
        events = EventQueue()
        for priority in (EVT_ARRIVAL, EVT_TIMER, EVT_COMPLETION):
            events.push(3.0, priority, priority)
        assert [p for _, p, _ in drain(events)] == [
            EVT_COMPLETION, EVT_TIMER, EVT_ARRIVAL
        ]

    def test_tokens_count_insertions_and_payloads_ride_along(self):
        """Payloads are never compared (dicts are unorderable), even when
        time and priority tie; each comes back with its own event."""
        events = EventQueue()
        payloads = [{"n": n} for n in range(4)]
        tokens = [events.push(1.0, EVT_TIMER, p) for p in payloads]
        assert tokens == [0, 1, 2, 3]
        assert [p for _, _, p in drain(events)] == payloads
        assert events.push(0.0, EVT_TIMER, None) == 4  # never reused

    def test_interleaved_push_and_pop(self):
        events = EventQueue()
        events.push(1.0, EVT_ARRIVAL, "a")
        events.push(5.0, EVT_ARRIVAL, "c")
        assert events.pop() == (1.0, EVT_ARRIVAL, "a")
        events.push(2.0, EVT_COMPLETION, "b")  # scheduled from a handler
        assert [p for _, _, p in drain(events)] == ["b", "c"]


class TestAssignment:
    def test_earliest_free_worker_wins(self):
        pool = WorkerPool(2)
        w0, s0, f0 = pool.assign(0.0, 2.0)
        w1, s1, f1 = pool.assign(0.0, 1.0)
        assert (w0, s0, f0) == (0, 0.0, 2.0)
        assert (w1, s1, f1) == (1, 0.0, 1.0)
        # Worker 1 frees first (t=1.0), so it takes the next assignment.
        w2, s2, f2 = pool.assign(0.5, 1.0)
        assert (w2, s2, f2) == (1, 1.0, 2.0)

    def test_tie_breaks_by_worker_id(self):
        pool = WorkerPool(3)
        assert pool.assign(0.0, 1.0)[0] == 0
        assert pool.assign(0.0, 1.0)[0] == 1
        assert pool.assign(0.0, 1.0)[0] == 2
        # All free at t=1.0: the smallest id wins again.
        assert pool.assign(1.0, 1.0)[0] == 0

    def test_idle_worker_starts_immediately(self):
        pool = WorkerPool(1)
        pool.assign(0.0, 1.0)
        worker, start, finish = pool.assign(5.0, 2.0)
        assert (worker, start, finish) == (0, 5.0, 7.0)

    def test_wait_accounting(self):
        pool = WorkerPool(1)
        pool.assign(0.0, 3.0)
        _, start, _ = pool.assign(1.0, 1.0)  # waits 3.0 - 1.0 = 2.0
        assert start == 3.0
        assert pool.total_wait_s == 2.0
        assert pool.busy_s == 4.0
        assert pool.n_assigned == 2

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            WorkerPool(1).assign(0.0, -0.1)

    def test_determinism(self):
        def schedule():
            pool = WorkerPool(3)
            jobs = [(i * 0.3, 0.5 + 0.1 * (i % 4)) for i in range(20)]
            return [pool.assign(now, dur) for now, dur in jobs]

        assert schedule() == schedule()


class TestIntrospection:
    def test_idle_workers(self):
        pool = WorkerPool(2)
        assert pool.idle_workers(0.0) == 2
        pool.assign(0.0, 2.0)
        assert pool.idle_workers(0.0) == 1
        assert pool.idle_workers(1.9) == 1
        assert pool.idle_workers(2.0) == 2

    def test_free_times_sorted(self):
        pool = WorkerPool(3)
        pool.assign(0.0, 3.0)
        pool.assign(0.0, 1.0)
        assert pool.free_times() == [0.0, 1.0, 3.0]

    def test_earliest_start(self):
        pool = WorkerPool(1)
        pool.assign(0.0, 2.0)
        assert pool.earliest_start(1.0) == 2.0
        assert pool.earliest_start(5.0) == 5.0

    def test_utilization(self):
        pool = WorkerPool(2)
        pool.assign(0.0, 1.0)
        pool.assign(0.0, 3.0)
        assert pool.utilization(4.0) == 4.0 / 8.0
        with pytest.raises(ValueError, match="horizon"):
            pool.utilization(0.0)

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError, match="worker"):
            WorkerPool(0)


class TestTruncate:
    def test_reclaims_the_unconsumed_tail(self):
        pool = WorkerPool(1)
        worker, _, finish = pool.assign(0.0, 4.0)
        assert pool.busy_s == 4.0
        freed = pool.truncate(worker, 1.5, expected_free_s=finish)
        assert freed == 2.5
        assert pool.busy_s == 1.5
        assert pool.free_times() == [1.5]

    def test_freed_capacity_is_reusable(self):
        pool = WorkerPool(1)
        worker, _, finish = pool.assign(0.0, 4.0)
        pool.truncate(worker, 1.0, expected_free_s=finish)
        _, start, _ = pool.assign(0.5, 1.0)
        assert start == 1.0

    def test_declines_when_worker_moved_on(self):
        """A cancelled assignment whose worker already accepted later
        work must not be rewritten — the free time no longer matches."""
        pool = WorkerPool(1)
        worker, _, first_finish = pool.assign(0.0, 2.0)
        pool.assign(0.0, 3.0)  # queued behind; free time now 5.0
        assert pool.truncate(worker, 1.0, expected_free_s=first_finish) == 0.0
        assert pool.busy_s == 5.0

    def test_declines_when_cut_is_past_the_finish(self):
        pool = WorkerPool(2)
        worker, _, finish = pool.assign(0.0, 1.0)
        assert pool.truncate(worker, 1.0, expected_free_s=finish) == 0.0
        assert pool.truncate(worker, 2.0, expected_free_s=finish) == 0.0
        assert pool.busy_s == 1.0

    def test_unknown_worker_rejected(self):
        pool = WorkerPool(1)
        pool.assign(0.0, 1.0)
        with pytest.raises(ValueError, match="unknown worker"):
            pool.truncate(7, 0.5, expected_free_s=1.0)

    def test_negative_cut_rejected(self):
        pool = WorkerPool(1)
        worker, _, finish = pool.assign(0.0, 1.0)
        with pytest.raises(ValueError):
            pool.truncate(worker, -0.1, expected_free_s=finish)
