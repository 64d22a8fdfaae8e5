"""Persistent shard worker pool with table affinity and work stealing.

Each shard's refill reads and writes nothing but that shard's store
masks and RNG streams, so the unit of work ships cleanly to a worker
process: a :func:`~repro.shard.store.refill_payload` (sub-network, store
state, sampler settings and streams) out, (store state, sampler state)
back.  The sub-network is the expensive, immutable part of the payload
(compiled engine, schema tables); the store and sampler states are the
small, changing part.  :class:`ShardWorkerPool` therefore **pins each
shard to the worker that already holds its tables**.

* Every worker slot is a single-process executor, so routing a key to a
  slot deterministically routes it to one OS process whose module-level
  cache (:data:`_WORKER_NETWORKS`) holds the sub-networks it has seen.
* A shard's first refill picks the least-loaded slot, ships the network,
  and pins the shard there; later refills ship only the (small) store
  and sampler states — an *affinity hit*.
* When the pinned slot is hot (its in-flight depth exceeds the floor by
  ``steal_threshold``) the job is *stolen* by the least-loaded slot,
  shipping the network again; the pin is kept, so the next refill
  returns home.
* A worker that lost its cache (process restart) answers with a miss
  marker and the job is resubmitted with the network — correctness never
  depends on the cache.

Determinism is untouched by all of this: workers run the same
``refresh()`` code from the same shipped stream positions whatever slot
executes them, and callers apply results in shard order — so the pool is
bit-identical to the sequential fallback
(``tests/test_shard_equivalence.py`` pins it; ``tests/test_shard_pool.py``
pins hit/steal accounting on top).
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

from .store import EnumeratingSampleStore

__all__ = ["PoolClosedError", "PoolStats", "ShardWorkerPool"]

#: Worker-process cache: (client, shard uid) → sub-network.  Bounded so a
#: long-lived worker serving many tenants cannot hoard every sub-network
#: it ever saw.
_WORKER_NETWORKS: "OrderedDict[tuple[int, int], object]" = OrderedDict()
_WORKER_CACHE_LIMIT = 128

#: Returned by a worker that no longer holds the key's network.
_MISS = "miss"


class PoolClosedError(RuntimeError):
    """The pool was closed; submissions and re-entry are invalid."""


@dataclass(frozen=True)
class PoolStats:
    """A snapshot of the pool's routing counters.

    ``affinity_hits`` counts jobs served by their pinned slot without
    re-shipping the network; ``affinity_misses`` counts first-time (or
    post-delta) shipments; ``steals`` counts jobs diverted off a hot
    pinned slot; ``cache_refreshes`` counts worker-side cache losses that
    forced a resubmission.
    """

    workers: int
    submitted: int
    affinity_hits: int
    affinity_misses: int
    steals: int
    cache_refreshes: int
    per_slot: tuple[int, ...]

    @property
    def hit_rate(self) -> float:
        """Fraction of submissions served from resident tables."""
        return self.affinity_hits / self.submitted if self.submitted else 0.0


def _refill_worker(payload: dict) -> tuple:
    """Refill one shard store in a worker process, caching its network.

    Rebuilds the store from the payload's plain data, runs the same
    ``refresh()`` the sequential path runs, and returns the new store and
    sampler states.  A payload without a network is served from the
    keyed cache, or answered with a miss marker.
    """
    key = tuple(payload["key"])
    network = payload.get("network")
    if network is not None:
        _WORKER_NETWORKS[key] = network
        _WORKER_NETWORKS.move_to_end(key)
        while len(_WORKER_NETWORKS) > _WORKER_CACHE_LIMIT:
            _WORKER_NETWORKS.popitem(last=False)
    else:
        network = _WORKER_NETWORKS.get(key)
        if network is None:
            return (_MISS, None, None)
        _WORKER_NETWORKS.move_to_end(key)
    store = EnumeratingSampleStore.from_state(
        network,
        payload["store"],
        payload["sampler"],
        enumerate_limit=payload["enumerate_limit"],
    )
    store.refresh()
    return ("ok", store.get_state(), store.sampler.get_state())


class ShardWorkerPool:
    """Sticky-routing process pool for shard refills (a shared resource).

    One pool serves many stores/tenants: each store registers a *client*
    id namespacing its shard keys, so two tenants' shard 0 never collide
    in a worker cache.  All bookkeeping is lock-guarded — the service
    layer submits from multiple executor threads.
    """

    def __init__(self, workers: int, steal_threshold: int = 2):
        if workers < 1:
            raise ValueError("workers must be positive")
        if steal_threshold < 1:
            raise ValueError("steal_threshold must be positive")
        self.workers = workers
        self.steal_threshold = steal_threshold
        self._slots: list[Optional[object]] = [None] * workers
        self._inflight = [0] * workers
        self._per_slot = [0] * workers
        self._pins: dict[tuple[int, int], int] = {}
        #: (slot, key) pairs whose worker cache holds the key's network.
        self._resident: set[tuple[int, tuple[int, int]]] = set()
        self._clients = itertools.count(1)
        self._lock = threading.Lock()
        self._closed = False
        self.submitted = 0
        self.affinity_hits = 0
        self.affinity_misses = 0
        self.steals = 0
        self.cache_refreshes = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardWorkerPool":
        if self._closed:
            raise PoolClosedError("cannot re-enter a closed ShardWorkerPool")
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut every worker slot down (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            slots, self._slots = self._slots, [None] * self.workers
            self._pins.clear()
            self._resident.clear()
        for slot in slots:
            if slot is not None:
                slot.shutdown(wait=True)

    @property
    def closed(self) -> bool:
        return self._closed

    def register_client(self) -> int:
        """A fresh namespace for one store's shard keys."""
        return next(self._clients)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _executor(self, slot: int):
        if self._slots[slot] is None:
            from concurrent.futures import ProcessPoolExecutor

            self._slots[slot] = ProcessPoolExecutor(max_workers=1)
        return self._slots[slot]

    def _least_loaded(self) -> int:
        depth = min(self._inflight)
        return self._inflight.index(depth)

    def _route(self, key: tuple[int, int]) -> tuple[int, bool, bool]:
        """Pick (slot, ship_network, stolen) for ``key``; caller holds lock."""
        pinned = self._pins.get(key)
        if pinned is None:
            slot = self._least_loaded()
            self._pins[key] = slot
            return slot, True, False
        if (
            self._inflight[pinned] - min(self._inflight)
            >= self.steal_threshold
        ):
            slot = self._least_loaded()
            if slot != pinned:
                return slot, True, True
        return pinned, (pinned, key) not in self._resident, False

    def run_refills(
        self, jobs: Sequence[tuple[tuple[int, int], dict]]
    ) -> list[tuple[dict, dict]]:
        """Refill every job's shard across the pool; results in job order.

        Each job is ``(key, payload)`` with a
        :func:`~repro.shard.store.refill_payload` — including the
        ``network``, which is stripped before shipping whenever the
        routed worker already holds it.  Blocking: the caller gets every
        (store state, sampler state) pair back in submission order, so
        applying them is order-deterministic regardless of completion
        interleaving.
        """
        if self._closed:
            raise PoolClosedError("ShardWorkerPool is closed")
        futures = []
        with self._lock:
            for key, payload in jobs:
                slot, ship, stolen = self._route(key)
                self.submitted += 1
                self._per_slot[slot] += 1
                if stolen:
                    self.steals += 1
                if ship:
                    self.affinity_misses += 1
                    wire = {**payload, "key": key}
                else:
                    self.affinity_hits += 1
                    wire = {
                        k: v for k, v in payload.items() if k != "network"
                    }
                    wire["key"] = key
                self._inflight[slot] += 1
                futures.append(
                    (
                        slot,
                        key,
                        payload,
                        self._executor(slot).submit(_refill_worker, wire),
                    )
                )
        results: list[tuple[dict, dict]] = []
        for slot, key, payload, future in futures:
            try:
                status, store_state, sampler_state = future.result()
                if status == _MISS:
                    # The worker restarted and lost its tables; replay the
                    # submission with the network on board.
                    with self._lock:
                        self.cache_refreshes += 1
                        self._resident.discard((slot, key))
                        retry = self._executor(slot).submit(
                            _refill_worker, {**payload, "key": key}
                        )
                    status, store_state, sampler_state = retry.result()
            finally:
                with self._lock:
                    self._inflight[slot] -= 1
            with self._lock:
                self._resident.add((slot, key))
            results.append((store_state, sampler_state))
        return results

    def stats(self) -> PoolStats:
        """A consistent snapshot of the routing counters."""
        with self._lock:
            return PoolStats(
                workers=self.workers,
                submitted=self.submitted,
                affinity_hits=self.affinity_hits,
                affinity_misses=self.affinity_misses,
                steals=self.steals,
                cache_refreshes=self.cache_refreshes,
                per_slot=tuple(self._per_slot),
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"ShardWorkerPool({self.workers} workers, {state})"
