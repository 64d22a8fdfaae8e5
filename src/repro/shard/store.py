"""Component-sharded sample store: shard-local Ω* pools, exact merge.

:class:`ShardedSampleStore` partitions the candidate universe by
violation-graph component (:mod:`repro.shard.components`) into
shard-local ``ConstraintEngine`` + ``SampleStore`` pairs, each with an
independent RNG stream derived from one master stream, and merges the
per-shard probability vectors (and, for information gain, the product
membership matrix) at the boundary.  Because disjoint components share
no constraints, the instance space factorises — Ω = ∏ Ω_s × {free
candidates} — so the merged estimates are *exact*, not approximations:

* a candidate's global sample frequency ``count/|Ω|`` equals its
  shard-local ``count_s/|Ω_s|`` (both numerator and denominator scale by
  the same ∏_{t≠s}|Ω_t|, and IEEE division of exactly-representable
  integers rounds the same rational to the same double), so the merged
  probability vector is bit-identical to a whole-network estimate over
  the complete instance set;
* the product membership matrix has ∏|Ω_s| rows whose column counts and
  co-occurrence counts equal the whole-network matrix's, and the
  information-gain reduction is count-based, so gains match bit-for-bit.

Small shards (at most ``enumerate_limit`` instances) are filled by exact
enumeration (:class:`EnumeratingSampleStore`) instead of random walks —
a component of a handful of candidates enumerates in microseconds and is
then provably complete, which is both the speed and the exactness lever.
Larger shards keep the walk/wave sampler, now over masks a fraction of
the global width.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional, Sequence

import numpy as np

from ..core.correspondence import Correspondence
from ..core.feedback import Feedback
from ..core.graphs import InteractionGraph
from ..core.instances import enumerate_instances
from ..core.network import MatchingNetwork
from ..core.sampling import InstanceSampler, SampleStore, empty_store_state
from .components import ShardPlan, shard_plan, shard_plan_delta

__all__ = [
    "EnumeratingSampleStore",
    "Shard",
    "ShardedSampleStore",
    "refill_payload",
]

#: Product-matrix row guard: materialising the global membership matrix
#: multiplies the shard row counts, which explodes on large networks.
#: Information-gain selection on a sharded estimator is therefore bounded
#: to this many rows; beyond it, use a strategy that only needs the
#: merged probability vector (likelihood/entropy/random).
MAX_PRODUCT_ROWS = 1 << 18


class EnumeratingSampleStore(SampleStore):
    """A :class:`SampleStore` that fills small instance spaces exactly.

    ``_top_up`` first tries to *enumerate* Ω under the current feedback;
    when the space holds at most ``enumerate_limit`` instances the store
    adopts all of them and marks itself exhausted (Ω* = Ω, provably),
    otherwise it falls back to the inherited walk/wave sampling.  All
    conditioning, cache-maintenance, and exhaustion semantics are
    inherited unchanged — only the refill source differs, and only when
    exactness is affordable.
    """

    def __init__(
        self,
        network: MatchingNetwork,
        sampler: Optional[InstanceSampler] = None,
        target_samples: int = 500,
        min_samples: Optional[int] = None,
        rng: Optional[random.Random] = None,
        enumerate_limit: int = 4096,
    ):
        if enumerate_limit < 1:
            raise ValueError("enumerate_limit must be positive")
        # Set before super().__init__: the constructor refills immediately.
        self.enumerate_limit = enumerate_limit
        super().__init__(
            network,
            sampler,
            target_samples=target_samples,
            min_samples=min_samples,
            rng=rng,
        )

    @classmethod
    def from_state(
        cls,
        network: MatchingNetwork,
        state: dict,
        sampler: dict,
        enumerate_limit: int = 4096,
    ) -> "EnumeratingSampleStore":
        store = super().from_state(network, state, sampler)
        store.enumerate_limit = enumerate_limit
        return store

    def _top_up(self, goal: int) -> None:
        limit = self.enumerate_limit
        instances = enumerate_instances(self.network, self.feedback, limit=limit + 1)
        if len(instances) > limit:
            super()._top_up(goal)
            return
        mask_of = self.network.engine.mask_of
        start = len(self._sample_masks)
        self._merge([mask_of(instance) for instance in instances])
        # Enumeration is complete by construction: Ω* now *is* Ω(F⁺, F⁻),
        # regardless of min_samples (unlike walk saturation, which only
        # claims completeness below the minimum).
        self._exhausted = True
        self._append_rows(start)
        self._invalidate_derived()


#: Process-wide shard identities for worker-pool affinity.  ``id()``
#: would be reused after GC and silently alias two shards' cached
#: sub-networks; a monotone counter cannot collide.
_SHARD_UIDS = itertools.count(1)


class Shard:
    """One shard: a component-closed slice of the candidate universe.

    ``indices`` are the ascending global engine indices of the shard's
    candidates; ``columns`` is the same as an ``np.intp`` array for
    vector scatter.  ``network`` is the restricted sub-network compiled
    over exactly those candidates — ``CandidateSet.restricted_to``
    preserves insertion order, so local engine index ``k`` is global
    index ``indices[k]`` and the shard store's vectors align with
    ``columns`` directly.  ``uid`` identifies the shard (and hence its
    sub-network) across refills for worker affinity: delta carryover
    keeps the uid with the network, rebuilds draw a fresh one.
    """

    __slots__ = ("position", "indices", "columns", "network", "store", "uid")

    def __init__(
        self,
        position: int,
        indices: tuple[int, ...],
        network: MatchingNetwork,
        store: SampleStore,
        uid: Optional[int] = None,
    ):
        self.position = position
        self.indices = indices
        self.columns = np.asarray(indices, dtype=np.intp)
        self.network = network
        self.store = store
        self.uid = uid if uid is not None else next(_SHARD_UIDS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Shard({self.position}, {len(self.indices)} candidates, "
            f"{len(self.store)} samples)"
        )


def _shard_subnetwork(
    network: MatchingNetwork, keep: Sequence[Correspondence]
) -> MatchingNetwork:
    """The restricted network over only the schemas ``keep`` touches.

    ``MatchingNetwork.restricted_to`` recompiles constraints over the
    *full* schema set and interaction graph, which is O(network) per
    shard — ruinous when hundreds of shards each hold a handful of
    candidates.  Every violation among ``keep`` only ever references
    schemas on its correspondences' endpoints (a one-to-one violation
    shares an attribute; a cycle violation's cycle runs along its own
    correspondences' edges), so compiling over the touched schemas and
    the induced subgraph yields the identical violation set at a cost
    proportional to the shard, not the network.
    """
    touched = {
        endpoint.schema for corr in keep for endpoint in corr.attributes
    }
    schemas = tuple(s for s in network.schemas if s.name in touched)
    graph = InteractionGraph(nodes=touched)
    for name in touched:
        for neighbour in network.graph.neighbors(name):
            if neighbour in touched and name < neighbour:
                graph.add_edge(name, neighbour)
    return MatchingNetwork(
        schemas=schemas,
        candidates=network.candidates.restricted_to(keep),
        graph=graph,
        constraints=network.constraints,
        validate=False,
    )


def refill_payload(shard: Shard) -> dict:
    """Everything a refill worker needs to resume ``shard``'s store.

    Plain data (store state, sampler settings and RNG streams, the
    enumeration limit) plus the sub-network, which the worker pool
    strips whenever the routed worker already holds it.  The worker
    rebuilds the store with :meth:`EnumeratingSampleStore.from_state`
    from exactly these fields.
    """
    store = shard.store
    return {
        "network": shard.network,
        "store": store.get_state(),
        "sampler": {
            **store.sampler.settings(),
            "state": store.sampler.get_state(),
        },
        "enumerate_limit": store.enumerate_limit,
    }


class ShardedSampleStore:
    """Ω* maintained shard-by-shard, merged exactly at the boundary.

    Answers the :class:`~repro.core.sampling.SampleStore` surface the
    estimator layer consumes — ``probability_vector``, ``matrix``,
    ``frequencies``, ``record_assertion``, ``retract_approval``,
    ``apply_delta``, ``version``, ``get_state``/``from_state`` — but
    every operation dispatches to the single shard that
    owns the touched candidate (each violation lives wholly inside one
    component, so conflict repair's victim always shares a shard with
    the new assertion, and the deferred ``refill=False`` flow ends in
    the same shard's ``record_assertion``).  Free (violation-free)
    candidates belong to no shard: they appear in every matching
    instance, so their merged probability is exactly ``1.0`` unless
    disapproved (then ``0.0``) — bit-identical to the whole-network
    frequency a complete unsharded store would report.

    ``parallel`` fans refills across a
    :class:`~repro.shard.pool.ShardWorkerPool`; the sequential fallback
    is bit-identical because each shard's refill depends only on its own
    store state and RNG stream.
    """

    def __init__(
        self,
        network: MatchingNetwork,
        rng: Optional[random.Random] = None,
        target_samples: int = 500,
        min_samples: Optional[int] = None,
        walk_steps: int = 5,
        restart_probability: float = 0.15,
        chains: int = 1,
        max_shards: Optional[int] = None,
        enumerate_limit: int = 4096,
        parallel: Optional[int] = None,
        fill: bool = True,
        pool=None,
        catalog=None,
    ):
        if target_samples < 1:
            raise ValueError("target_samples must be positive")
        self.network = network
        self.rng = rng or random.Random()
        self.target_samples = target_samples
        self.min_samples = (
            min_samples if min_samples is not None else target_samples // 2
        )
        self.walk_steps = walk_steps
        self.restart_probability = restart_probability
        self.chains = chains
        self.max_shards = max_shards
        self.enumerate_limit = enumerate_limit
        self.parallel = parallel
        # A shared ShardWorkerPool (service-owned, never closed here) and
        # an optional ShardCatalog of reusable compiles/fills — both
        # duck-typed so the shard layer never imports the service layer.
        self._external_pool = pool
        self._client = pool.register_client() if pool is not None else None
        self.catalog = catalog
        self.feedback = Feedback()
        self.version = 0
        self.plan: ShardPlan = shard_plan(network, max_shards=max_shards)
        self._free = np.asarray(self.plan.free, dtype=np.intp)
        self._owner: dict[int, int] = {}
        for position, indices in enumerate(self.plan.shards):
            for index in indices:
                self._owner[index] = position
        self.shards: list[Shard] = [
            self._build_shard(position, indices)
            for position, indices in enumerate(self.plan.shards)
        ]
        self._vector_cache: Optional[np.ndarray] = None
        self._matrix_cache: Optional[np.ndarray] = None
        self._pool = None
        self._pool_workers: Optional[int] = None
        if fill:
            self.refill()

    def _build_shard(self, position: int, indices: tuple[int, ...]) -> Shard:
        """Construct one shard; the master rng spawns its stream.

        Shard RNG streams are drawn from ``self.rng`` in shard order, so
        the full decomposition is a pure function of the master seed —
        and checkpointing the per-shard sampler states (not the master)
        is what resumes mid-flight sessions bit-for-bit.

        The shard store starts from the slice of ``self.feedback`` its
        candidates carry (empty on a fresh build): the delta path
        rebuilds touched shards with the surviving feedback pre-seeded,
        so their refill enumerates/walks the *conditioned* space Ω(F⁺,
        F⁻) directly — the same space a fresh store reaches by replaying
        that feedback.
        """
        correspondences = self.network.correspondences
        members = [correspondences[i] for i in indices]
        if self.catalog is not None:
            subnet = self.catalog.subnetwork(
                self.network,
                indices,
                lambda: _shard_subnetwork(self.network, members),
            )
        else:
            subnet = _shard_subnetwork(self.network, members)
        # The master rng ALWAYS spawns the shard stream here, catalog hit
        # or not — stream spawning is part of the deterministic contract.
        sampler = {
            "walk_steps": self.walk_steps,
            "rng": random.Random(self.rng.getrandbits(64)),
            "restart_probability": self.restart_probability,
            "chains": self.chains,
        }
        member_set = set(members)
        state = empty_store_state(
            self.target_samples,
            self.min_samples,
            approved=[c for c in self.feedback.approved if c in member_set],
            disapproved=[
                c for c in self.feedback.disapproved if c in member_set
            ],
        )
        if (
            self.catalog is not None
            and not state["approved"]
            and not state["disapproved"]
        ):
            # Another tenant may already have enumerated this shard's
            # unconditioned Ω — a pure function of the sub-network, so
            # adopting its store state (sampler untouched: enumeration
            # consumes no RNG) is bit-identical to enumerating again.
            cached = self.catalog.enumerated_fill(
                self.network, self._fill_key(indices)
            )
            if cached is not None:
                state = cached
        store = EnumeratingSampleStore.from_state(
            subnet,
            state,
            sampler,
            enumerate_limit=self.enumerate_limit,
        )
        return Shard(position, indices, subnet, store)

    def _fill_key(self, indices: tuple[int, ...]) -> tuple:
        """Catalog key for a shard's unconditioned enumerated fill."""
        return (
            indices,
            self.target_samples,
            self.min_samples,
            self.enumerate_limit,
        )

    # ------------------------------------------------------------------
    # Refill
    # ------------------------------------------------------------------
    def refill(self, parallel: Optional[int] = None) -> None:
        """Top up every shard below target (the fan-out point).

        ``parallel`` (or the instance knob) > 1 ships needy shards to a
        :class:`~repro.shard.pool.ShardWorkerPool` and adopts the results
        in shard order; otherwise they refresh sequentially in shard
        order.  Both paths are bit-identical: a shard refill reads and
        writes nothing but that shard's store and sampler streams, and
        the worker runs the same ``refresh()`` from the same captured
        stream positions.
        """
        workers = parallel if parallel is not None else self.parallel
        needy = [
            shard
            for shard in self.shards
            if len(shard.store) < shard.store.target_samples
            and not shard.store.exhausted
        ]
        if needy:
            watched = self._fill_candidates(needy)
            if workers is not None and workers > 1 and len(needy) > 1:
                pool = self._ensure_pool(workers)
                results = pool.run_refills(
                    [
                        ((self._client, shard.uid), refill_payload(shard))
                        for shard in needy
                    ]
                )
                for shard, (store_state, sampler_state) in zip(needy, results):
                    self._restore_shard(shard, store_state, sampler_state)
            else:
                for shard in needy:
                    shard.store.refresh()
            self._publish_fills(watched)
        self._invalidate()

    def _fill_candidates(self, needy: Sequence[Shard]) -> list[tuple[Shard, dict]]:
        """Shards whose refill might produce a catalog-shareable fill.

        A fill is shareable only when the shard carries no feedback (its
        Ω is the unconditioned space) — the pre-refill sampler state is
        captured so pure enumeration (which consumes no RNG) can be told
        apart from walk saturation afterwards.
        """
        if self.catalog is None:
            return []
        return [
            (shard, shard.store.sampler.get_state())
            for shard in needy
            if not shard.store.feedback
        ]

    def _publish_fills(self, watched: Sequence[tuple[Shard, dict]]) -> None:
        for shard, before in watched:
            if (
                shard.store.exhausted
                and shard.store.sampler.get_state() == before
            ):
                self.catalog.put_enumerated_fill(
                    self.network,
                    self._fill_key(shard.indices),
                    shard.store.get_state(),
                )

    def _ensure_pool(self, workers: int):
        """The persistent worker pool for parallel refills.

        A service-shared pool passed at construction wins outright (its
        worker count is the service's concern, and the service closes
        it).  Otherwise the store lazily owns a
        :class:`~repro.shard.pool.ShardWorkerPool` — created on first
        parallel refill and reused until :meth:`close`, recreated only if
        the worker count changes.  The pool carries no *authoritative*
        sampling state (workers receive full store and sampler states per
        call; their network caches are a shipping optimisation), so reuse
        cannot affect results.
        """
        if self._external_pool is not None:
            return self._external_pool
        if self._pool is not None and self._pool_workers != workers:
            self._pool.close()
            self._pool = None
        if self._pool is None:
            from .pool import ShardWorkerPool

            self._pool = ShardWorkerPool(workers)
            self._pool_workers = workers
            self._client = self._pool.register_client()
        return self._pool

    def close(self) -> None:
        """Shut down the owned worker pool (idempotent).

        A service-shared pool is deliberately left running — the service
        owns its lifecycle and other tenants are still using it.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._pool_workers = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown timing
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Network evolution
    # ------------------------------------------------------------------
    def apply_delta(self, result) -> dict[int, int]:
        """Re-shard in place after a :class:`~repro.core.delta.DeltaResult`.

        The new plan comes from :func:`~repro.shard.components.shard_plan_delta`
        — identical to the plan :meth:`from_state` would recompute on the
        successor network, so checkpoints taken after a delta restore
        cleanly.  Shards whose candidate sets are untouched images of old
        shards keep their live sub-network, store and RNG objects
        *verbatim* (bit-identical masks and stream positions, zero
        resampling: the final :meth:`refill` skips them because they are
        already at target or exhausted).  Touched shards are rebuilt with
        the surviving feedback pre-seeded, so their refill produces the
        conditioned space a fresh store reaches by replaying that same
        feedback.  Feedback on removed candidates is dropped (including
        candidates removed and re-added in one delta — the re-added twin
        starts fresh).

        Returns the carried map (new shard position → old position) for
        observability; its complement is the rebuilt set.

        A rescore-only delta (``result.structural`` False) swaps the
        global network reference and returns the identity carried map:
        the engine, the shard plan, every shard's sub-network, store and
        RNG stream stay byte-identical (sample frequencies never read
        matcher confidence — confidence-ranked selection reads the
        *global* candidate set, which the successor network carries).
        """
        if not result.structural:
            self.network = result.network
            return {position: position for position in range(len(self.shards))}
        plan, carried = shard_plan_delta(
            self.plan, result, max_shards=self.max_shards
        )
        removed = result.removed_correspondences
        old_shards = self.shards
        self.network = result.network
        self.plan = plan
        self._free = np.asarray(plan.free, dtype=np.intp)
        self._owner = {}
        for position, indices in enumerate(plan.shards):
            for index in indices:
                self._owner[index] = position
        self.feedback = Feedback(
            sorted(c for c in self.feedback.approved if c not in removed),
            sorted(c for c in self.feedback.disapproved if c not in removed),
        )
        self.shards = []
        for position, indices in enumerate(plan.shards):
            old_position = carried.get(position)
            if old_position is not None:
                old = old_shards[old_position]
                self.shards.append(
                    Shard(position, indices, old.network, old.store,
                          uid=old.uid)
                )
            else:
                # Rebuilt shards draw fresh streams from the master rng
                # in (new) shard order — deterministic given the master
                # stream position, with carried shards consuming nothing.
                self.shards.append(self._build_shard(position, indices))
        self._invalidate()
        self.refill()
        return carried

    # ------------------------------------------------------------------
    # Conditioning
    # ------------------------------------------------------------------
    def _shard_of(self, corr: Correspondence) -> Optional[Shard]:
        index = self.network.engine.index_of.get(corr)
        if index is None:
            return None
        position = self._owner.get(index)
        return None if position is None else self.shards[position]

    def record_assertion(self, corr: Correspondence, approved: bool) -> None:
        """Condition the owning shard on one assertion.

        Free and outside-universe candidates condition nothing — they
        constrain no shard's instance space — but still enter the global
        feedback so merged views and checkpoints see them.
        """
        self.feedback.record(corr, approved)
        shard = self._shard_of(corr)
        if shard is not None:
            shard.store.record_assertion(corr, approved)
        self._patch_vector(shard, corr, 1.0 if approved else 0.0)

    def retract_approval(self, corr: Correspondence, refill: bool = True) -> None:
        """Re-condition on conflict repair (see ``SampleStore``).

        The repair victim always shares a violation — hence a shard —
        with the assertion that triggered the repair, so a deferred
        ``refill=False`` retraction is completed by the subsequent
        ``record_assertion`` on the *same* shard store.
        """
        self.feedback.retract_approval(corr)
        shard = self._shard_of(corr)
        if shard is not None:
            shard.store.retract_approval(corr, refill=refill)
        self._patch_vector(shard, corr, 1.0)

    def _invalidate(self) -> None:
        self.version += 1
        self._vector_cache = None
        self._matrix_cache = None

    def _patch_vector(self, shard: Optional[Shard], corr: Correspondence,
                      free_value: float) -> None:
        """Advance the version, patching the merged vector incrementally.

        An assertion conditions exactly one shard (or one free column),
        leaving every other shard's store untouched, so the merged
        vector changes only on that shard's columns — a copy-and-scatter
        over the cached vector is bit-identical to a full rebuild at a
        cost proportional to the shard, not the network.  The product
        matrices stay fully invalidated (their rows change shape).
        """
        self.version += 1
        self._matrix_cache = None
        if self._vector_cache is None:
            return
        vector = self._vector_cache.copy()
        if shard is not None:
            vector[shard.columns] = shard.store.probability_vector()
        else:
            index = self.network.engine.index_of.get(corr)
            if index is not None:
                vector[index] = free_value
        vector.setflags(write=False)
        self._vector_cache = vector

    # ------------------------------------------------------------------
    # Merged views
    # ------------------------------------------------------------------
    def probability_vector(self) -> np.ndarray:
        """Merged sample frequencies over the *global* candidate index.

        Shard vectors scatter to their global columns; free candidates
        get exactly ``1.0`` (they are in every instance) or ``0.0`` once
        disapproved — both bit-identical to the count/total frequency a
        complete whole-network store reports for them.
        """
        if self._vector_cache is None:
            vector = np.zeros(self.network.engine.n, dtype=np.float64)
            if len(self._free):
                vector[self._free] = 1.0
                index_of = self.network.engine.index_of
                disapproved = [
                    index
                    for corr in self.feedback.disapproved
                    if (index := index_of.get(corr)) is not None
                    and self._owner.get(index) is None
                ]
                if disapproved:
                    vector[np.asarray(disapproved, dtype=np.intp)] = 0.0
            for shard in self.shards:
                vector[shard.columns] = shard.store.probability_vector()
            vector.setflags(write=False)
            self._vector_cache = vector
        return self._vector_cache

    def _product_rows(self) -> int:
        rows = 1
        for shard in self.shards:
            rows *= len(shard.store)
        return rows

    def matrix(self) -> np.ndarray:
        """The *product* membership matrix, globally indexed (bool).

        Row set = Ω (every combination of one instance per shard, free
        candidates in all rows), materialised with mixed-radix
        repeat/tile expansion — shard 0 outermost.  Column counts and
        co-occurrence counts equal the whole-network matrix's, which is
        all the (count-based) information-gain reduction reads, so gains
        are bit-identical when both sides are complete.  Guarded at
        ``MAX_PRODUCT_ROWS``: beyond that, information gain on a sharded
        estimator is out of budget by construction — use a strategy that
        needs only the merged probability vector.
        """
        if self._matrix_cache is None:
            rows = self._product_rows()
            if rows > MAX_PRODUCT_ROWS:
                # Name the offending factors: the product is ∏|Ω_s| over
                # the shards, so showing the largest per-shard row counts
                # tells the user exactly which components blow the budget
                # and whether retuning max_shards could help.
                factors = sorted(
                    ((len(shard.store), shard.position) for shard in self.shards),
                    reverse=True,
                )
                shown = ", ".join(
                    f"shard {position}: {count} rows"
                    for count, position in factors[:6]
                )
                if len(factors) > 6:
                    shown += f", … ({len(factors) - 6} more)"
                raise ValueError(
                    f"sharded membership matrix would need {rows} rows "
                    f"(> {MAX_PRODUCT_ROWS}); the product factorises over "
                    f"{len(self.shards)} shards, largest first: [{shown}]. "
                    "Information-gain selection does not scale to this "
                    "sharded network — use the likelihood, entropy, or "
                    "random strategy instead, or tune max_shards "
                    "deliberately (fewer, larger shards cap their row "
                    "counts at the sampling target instead of enumerating "
                    "exactly)"
                )
            matrix = np.zeros((rows, self.network.engine.n), dtype=bool)
            if rows and len(self._free):
                matrix[:, self._free] = True
                index_of = self.network.engine.index_of
                for corr in self.feedback.disapproved:
                    index = index_of.get(corr)
                    if index is not None and self._owner.get(index) is None:
                        matrix[:, index] = False
            outer = 1
            for shard in self.shards:
                count = len(shard.store)
                inner = rows // (outer * count) if count else 0
                block = shard.store.matrix()
                matrix[:, shard.columns] = np.tile(
                    np.repeat(block, inner, axis=0), (outer, 1)
                )
                outer *= count
            matrix.setflags(write=False)
            self._matrix_cache = matrix
        return self._matrix_cache

    @property
    def exhausted(self) -> bool:
        """True when every shard provably holds its whole instance space."""
        return all(shard.store.exhausted for shard in self.shards)

    def __len__(self) -> int:
        """Distinct global instances currently represented: ∏ shard sizes."""
        return self._product_rows()

    # ------------------------------------------------------------------
    # State round-trip (the durability layer's hooks)
    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        """Persistent state: sampling configuration, global feedback, and
        per-shard store/sampler states.

        The shard *plan* is recomputed on restore (it is a pure function
        of the network and ``max_shards``); what must round-trip exactly
        is each shard's Ω* masks and both of its RNG streams, plus the
        master stream that would seed any future shards.  How refills
        fan out (``parallel``, ``pool``) is not state: a pooled store's
        state equals its sequential twin's.  A ``parallel`` entry in the
        configuration is still honoured by :meth:`from_state`.
        """
        return {
            "config": {
                "target_samples": self.target_samples,
                "min_samples": self.min_samples,
                "walk_steps": self.walk_steps,
                "restart_probability": self.restart_probability,
                "chains": self.chains,
                "max_shards": self.max_shards,
                "enumerate_limit": self.enumerate_limit,
            },
            "approved": sorted(self.feedback.approved),
            "disapproved": sorted(self.feedback.disapproved),
            "version": self.version,
            "rng": self.rng.getstate(),
            "shards": [
                {
                    "store": shard.store.get_state(),
                    "sampler": shard.store.sampler.get_state(),
                }
                for shard in self.shards
            ],
        }

    @classmethod
    def from_state(
        cls, network: MatchingNetwork, state: dict
    ) -> "ShardedSampleStore":
        """Rebuild from :meth:`get_state` without consuming any RNG.

        The configuration comes from the state itself.  The constructor
        path spawns shard streams from the master rng and refills; a
        restore must instead adopt the saved stores verbatim and
        overwrite every stream with its captured position.
        """
        store = cls(network, rng=random.Random(), fill=False, **state["config"])
        version, internal, gauss = state["rng"]
        store.rng.setstate((version, tuple(internal), gauss))
        store.feedback = Feedback(state["approved"], state["disapproved"])
        store.version = int(state["version"])
        shard_states = state["shards"]
        if len(shard_states) != len(store.shards):
            raise ValueError(
                f"checkpoint has {len(shard_states)} shards but the network "
                f"plans {len(store.shards)} — was it saved for a different "
                "network or max_shards?"
            )
        for shard, shard_state in zip(store.shards, shard_states):
            store._restore_shard(
                shard, shard_state["store"], shard_state["sampler"]
            )
        return store

    def _restore_shard(
        self, shard: Shard, store_state: dict, sampler_state: dict
    ) -> None:
        """Adopt a saved store state and sampler streams into ``shard``
        (checkpoint restore, and the results of a pooled refill)."""
        sampler = shard.store.sampler
        shard.store = EnumeratingSampleStore.from_state(
            shard.network,
            store_state,
            {**sampler.settings(), "rng": sampler.rng, "state": sampler_state},
            enumerate_limit=self.enumerate_limit,
        )

    def shard_sizes(self) -> list[tuple[int, int]]:
        """Per-shard (candidates, samples) — diagnostics for benches."""
        return [
            (len(shard.indices), len(shard.store)) for shard in self.shards
        ]

    def frequencies(self) -> dict[Correspondence, float]:
        """Mapping view of :meth:`probability_vector` (module boundaries)."""
        return dict(
            zip(
                self.network.correspondences,
                self.probability_vector().tolist(),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedSampleStore({len(self.shards)} shards, "
            f"{len(self.plan.free)} free candidates)"
        )
