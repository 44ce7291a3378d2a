"""Thread-safety of the plan pool under concurrent service submitters.

The job service fans registration jobs out over worker threads that all
share the process-wide pool, so these tests hammer the pool from many
threads and assert the properties the service relies on:

* no lost hits: N threads x M warm lookups count exactly N*M hits;
* single-flight builds: concurrent misses of one key run the builder once,
  every other thread is charged a hit;
* byte accounting stays exact (``bytes_used == sum(nbytes)``, never above
  the budget) across concurrent inserts and evictions
  (:meth:`~repro.runtime.plan_pool.PlanPool.validate_accounting`);
* the gradient-cache decision log never drops concurrent records.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.gradients import GradientCacheDecision, GradientCacheDecisionLog
from repro.runtime.plan_pool import PlanPool

NUM_THREADS = 8
LOOKUPS_PER_THREAD = 50


def _run_threads(worker, count=NUM_THREADS):
    """Start *count* threads on *worker* simultaneously; re-raise failures."""
    barrier = threading.Barrier(count)
    errors = []

    def wrapped(index):
        barrier.wait()
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestNoLostHits:
    def test_warm_key_counts_every_hit(self):
        pool = PlanPool(max_bytes=1 << 20)
        key = ("scatter-plan", "warm")
        value = np.zeros(64)
        pool.get(key, lambda: value)  # prewarm: 1 miss

        def worker(_index):
            for _ in range(LOOKUPS_PER_THREAD):
                got = pool.get(key, lambda: pytest.fail("builder must not rerun"))
                assert got is value

        _run_threads(worker)
        stats = pool.stats
        assert stats.hits == NUM_THREADS * LOOKUPS_PER_THREAD
        assert stats.misses == 1
        assert pool.stats_by_tag()["scatter-plan"].hits == stats.hits
        pool.validate_accounting()


class TestSingleFlight:
    def test_concurrent_misses_build_once(self):
        pool = PlanPool(max_bytes=1 << 20)
        key = ("semi-lagrangian-departure", "cold")
        builds = []
        build_gate = threading.Event()

        def builder():
            builds.append(threading.get_ident())
            build_gate.wait(5.0)  # hold every other thread in the flight
            return np.ones(128)

        results = []

        def worker(index):
            if index == NUM_THREADS - 1:
                # let the other threads pile up on the in-flight build first
                build_gate.set()
            results.append(pool.get(key, builder))

        _run_threads(worker)
        assert len(builds) == 1
        assert all(result is results[0] for result in results)
        stats = pool.stats
        assert stats.misses == 1
        assert stats.hits == NUM_THREADS - 1  # waiters are served warm
        pool.validate_accounting()

    def test_failed_build_releases_waiters_who_retry(self):
        pool = PlanPool(max_bytes=1 << 20)
        key = ("scatter-plan", "flaky")
        attempts = []

        def builder():
            attempts.append(None)
            if len(attempts) == 1:
                raise RuntimeError("transient build failure")
            return np.ones(16)

        outcomes = []

        def worker(_index):
            try:
                outcomes.append(pool.get(key, builder))
            except RuntimeError:
                outcomes.append(None)

        _run_threads(worker)
        succeeded = [o for o in outcomes if o is not None]
        assert len(succeeded) == NUM_THREADS - 1  # exactly the owner failed
        assert len(attempts) == 2
        pool.validate_accounting()

    def test_oversize_single_flight_still_serves_waiters(self):
        pool = PlanPool(max_bytes=64)  # every build is oversize
        key = ("scatter-plan", "huge")
        builds = []

        def builder():
            builds.append(None)
            return np.ones(1024)

        results = []
        _run_threads(lambda _i: results.append(pool.get(key, builder)))
        assert len(builds) >= 1
        assert all(r.shape == (1024,) for r in results)
        stats = pool.stats
        assert stats.hits + stats.misses == NUM_THREADS
        assert stats.current_bytes == 0  # nothing stored
        pool.validate_accounting()


class TestAccountingUnderPressure:
    def test_bytes_used_equals_sum_nbytes_with_evictions(self):
        # budget fits only a few entries, so concurrent inserts constantly
        # evict each other; the accounting must survive any interleaving
        entry_bytes = 8 * 256
        pool = PlanPool(max_bytes=3 * entry_bytes)

        def worker(index):
            for round_ in range(LOOKUPS_PER_THREAD):
                key = ("scatter-plan", index % 2, round_ % 7)
                value = pool.get(key, lambda: np.zeros(256))
                assert value.nbytes == entry_bytes

        _run_threads(worker)
        summary = pool.validate_accounting()  # raises on any drift
        assert summary["current_bytes"] <= pool.max_bytes
        stats = pool.stats
        assert stats.hits + stats.misses == NUM_THREADS * LOOKUPS_PER_THREAD
        # per-tag gauges partition the pool-wide ones exactly
        by_tag = pool.stats_by_tag()
        assert sum(s.current_bytes for s in by_tag.values()) == stats.current_bytes
        assert sum(s.entries for s in by_tag.values()) == stats.entries

    def test_concurrent_distinct_tags_partition_exactly(self):
        pool = PlanPool(max_bytes=1 << 20)
        tags = ("semi-lagrangian-departure", "scatter-plan", "untimed")

        def worker(index):
            tag = tags[index % len(tags)]
            for round_ in range(LOOKUPS_PER_THREAD):
                pool.get((tag, index, round_ % 5), lambda: np.zeros(32))

        _run_threads(worker)
        pool.validate_accounting()
        stats = pool.stats
        by_tag = pool.stats_by_tag()
        assert sum(s.hits for s in by_tag.values()) == stats.hits
        assert sum(s.misses for s in by_tag.values()) == stats.misses

    def test_shrinking_budget_mid_hammer_keeps_accounting(self):
        pool = PlanPool(max_bytes=1 << 20)

        def worker(index):
            for round_ in range(LOOKUPS_PER_THREAD):
                pool.get(("scatter-plan", index, round_), lambda: np.zeros(128))
                if index == 0 and round_ == LOOKUPS_PER_THREAD // 2:
                    pool.set_max_bytes(4 * 128 * 8)

        _run_threads(worker)
        summary = pool.validate_accounting()
        assert summary["current_bytes"] <= pool.max_bytes


class TestDecisionLogConcurrency:
    def test_concurrent_records_are_never_lost(self):
        log = GradientCacheDecisionLog(recent=4)
        per_thread = 100

        def worker(index):
            for _ in range(per_thread):
                log.record(
                    GradientCacheDecision(
                        cached=index % 2 == 0,
                        num_levels=5,
                        num_points=1,
                        projected_bytes=120,
                        budget_bytes=1024,
                        reason="hammer",
                    )
                )

        with ThreadPoolExecutor(max_workers=NUM_THREADS) as executor:
            list(executor.map(worker, range(NUM_THREADS)))
        counts = log.counts()
        assert log.total == NUM_THREADS * per_thread
        assert counts["cached"] == (NUM_THREADS // 2) * per_thread
        assert counts["uncached"] == (NUM_THREADS - NUM_THREADS // 2) * per_thread
        assert len(log.recent()) == 4
