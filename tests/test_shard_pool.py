"""Shard worker pool: affinity routing, stealing, lifecycle, parity.

The pool may route and cache however it likes — what it must never do
is change a single bit of any refill result.  The parity tests pin pool
output against the sequential fallback; the routing tests pin the
affinity/steal accounting the bench reads; the lifecycle tests pin the
close/re-entry edges the service depends on.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.experiments.harness import synthetic_network
from repro.shard import (
    PoolClosedError,
    ShardWorkerPool,
    ShardedSampleStore,
)
from repro.shard.store import refill_payload


@pytest.fixture(scope="module")
def pool_network():
    return synthetic_network(
        60, n_schemas=8, attributes_per_schema=10, conflict_bias=0.5, seed=3
    )


def _payload(shard):
    return refill_payload(shard)


class TestPoolParity:
    def test_pool_refills_bit_identical_to_sequential(self, pool_network):
        sequential = ShardedSampleStore(
            pool_network, rng=random.Random(5), target_samples=30
        )
        with ShardWorkerPool(2) as pool:
            pooled = ShardedSampleStore(
                pool_network,
                rng=random.Random(5),
                target_samples=30,
                parallel=2,
                pool=pool,
            )
            assert pooled.get_state() == sequential.get_state()
            assert np.array_equal(
                pooled.probability_vector(), sequential.probability_vector()
            )
            pooled.close()
        sequential.close()

    def test_affinity_hits_return_identical_states(self, pool_network):
        """A network-stripped resubmission equals a full one bit-for-bit."""
        with ShardWorkerPool(2) as pool:
            store = ShardedSampleStore(
                pool_network,
                rng=random.Random(5),
                target_samples=30,
                parallel=2,
                pool=pool,
            )
            shards = store.shards[:3]
            jobs = [
                ((store._client, shard.uid), _payload(shard))
                for shard in shards
            ]
            first = pool.run_refills(jobs)
            before = pool.stats()
            second = pool.run_refills(jobs)
            after = pool.stats()
            # Same inputs, cached tables: identical outputs, counted hits.
            assert second == first
            assert after.affinity_hits == before.affinity_hits + len(jobs)
            assert after.hit_rate > 0.0
            store.close()


class TestPoolRouting:
    def test_first_submission_pins_least_loaded(self, pool_network):
        store = ShardedSampleStore(
            pool_network, rng=random.Random(5), target_samples=30, fill=False
        )
        pool = ShardWorkerPool(3)
        try:
            client = pool.register_client()
            jobs = [
                ((client, shard.uid), _payload(shard))
                for shard in store.shards[:3]
            ]
            pool.run_refills(jobs)
            stats = pool.stats()
            # Three fresh keys spread across the three idle slots.
            assert stats.per_slot == (1, 1, 1)
            assert stats.affinity_misses == 3
        finally:
            pool.close()
            store.close()

    def test_hot_pinned_slot_is_stolen_from(self, pool_network):
        store = ShardedSampleStore(
            pool_network, rng=random.Random(5), target_samples=30, fill=False
        )
        pool = ShardWorkerPool(2, steal_threshold=2)
        try:
            client = pool.register_client()
            shard = store.shards[0]
            job = ((client, shard.uid), _payload(shard))
            results = pool.run_refills([job, job, job, job])
            # One key, one pin: the batch piles in-flight depth onto the
            # pinned slot until the threshold diverts exactly one job.
            stats = pool.stats()
            assert stats.steals == 1
            assert stats.per_slot == (3, 1)
            # Placement never changes results: four identical jobs from
            # identical stream positions give four identical states.
            assert results.count(results[0]) == 4
        finally:
            pool.close()
            store.close()

    def test_worker_cache_loss_is_refilled_transparently(self, pool_network):
        store = ShardedSampleStore(
            pool_network, rng=random.Random(5), target_samples=30, fill=False
        )
        pool = ShardWorkerPool(1)
        try:
            client = pool.register_client()
            shard = store.shards[0]
            key = (client, shard.uid)
            # Claim residency the worker does not have: the host strips
            # the network, the worker answers with a miss, and the job is
            # replayed with the network on board — correctness intact.
            pool._pins[key] = 0
            pool._resident.add((0, key))
            results = pool.run_refills([(key, _payload(shard))])
            stats = pool.stats()
            assert stats.cache_refreshes == 1
            reference = ShardedSampleStore(
                pool_network,
                rng=random.Random(5),
                target_samples=30,
                fill=False,
            )
            reference.shards[0].store.refresh()
            assert results[0][0] == reference.shards[0].store.get_state()
            reference.close()
        finally:
            pool.close()
            store.close()


class TestPoolLifecycle:
    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="workers"):
            ShardWorkerPool(0)
        with pytest.raises(ValueError, match="steal_threshold"):
            ShardWorkerPool(2, steal_threshold=0)

    def test_double_close_is_idempotent(self):
        pool = ShardWorkerPool(2)
        pool.close()
        pool.close()
        assert pool.closed

    def test_context_manager_reentry_after_close_raises(self):
        pool = ShardWorkerPool(2)
        with pool:
            pass
        assert pool.closed
        with pytest.raises(PoolClosedError, match="re-enter"):
            with pool:
                pass  # pragma: no cover - never reached

    def test_submit_after_close_raises(self):
        pool = ShardWorkerPool(2)
        pool.close()
        with pytest.raises(PoolClosedError, match="closed"):
            pool.run_refills([])

    def test_refill_through_closed_shared_pool_raises(self, pool_network):
        pool = ShardWorkerPool(2)
        store = ShardedSampleStore(
            pool_network,
            rng=random.Random(5),
            target_samples=30,
            parallel=2,
            pool=pool,
            fill=False,
        )
        pool.close()
        with pytest.raises(PoolClosedError):
            store.refill()
        store.close()

    def test_store_close_leaves_shared_pool_running(self, pool_network):
        with ShardWorkerPool(2) as pool:
            store = ShardedSampleStore(
                pool_network,
                rng=random.Random(5),
                target_samples=30,
                parallel=2,
                pool=pool,
            )
            store.close()
            assert not pool.closed
            # Still serviceable for the next tenant.
            other = ShardedSampleStore(
                pool_network,
                rng=random.Random(7),
                target_samples=30,
                parallel=2,
                pool=pool,
            )
            other.close()

    def test_clients_are_distinct(self):
        pool = ShardWorkerPool(2)
        try:
            assert pool.register_client() != pool.register_client()
        finally:
            pool.close()


class TestPoolThroughSharedRefills:
    def test_run_refills_matches_sequential_refresh(self, pool_network):
        sequential = ShardedSampleStore(
            pool_network, rng=random.Random(5), target_samples=30, fill=False
        )
        pooled = ShardedSampleStore(
            pool_network, rng=random.Random(5), target_samples=30, fill=False
        )
        for shard in sequential.shards:
            shard.store.refresh()
        with ShardWorkerPool(2) as pool:
            client = pool.register_client()
            results = pool.run_refills(
                [((client, shard.uid), _payload(shard)) for shard in pooled.shards]
            )
        assert results == [
            (shard.store.get_state(), shard.store.sampler.get_state())
            for shard in sequential.shards
        ]
        sequential.close()
        pooled.close()
