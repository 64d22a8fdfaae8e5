"""Sharded probability estimator — Equation 2 over shard-local pools.

:class:`ShardedEstimator` is a
:class:`~repro.core.probability.SampledEstimator` whose store is a
:class:`~repro.shard.store.ShardedSampleStore`.  The two stores answer
the same surface, so every estimator method — and with it
:class:`~repro.core.probability.ProbabilisticNetwork`, every selection
strategy, crowd session and checkpoint — runs over it unchanged.  The
differential suite (``tests/test_shard_equivalence.py``) pins the claim
that matters: a sharded session's trace is *bit-identical* to the
unsharded one when both hold complete instance sets.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.network import MatchingNetwork
from ..core.probability import SampledEstimator
from .store import ShardedSampleStore

__all__ = ["ShardedEstimator"]


class ShardedEstimator(SampledEstimator):
    """Sample frequencies merged exactly across violation-graph shards."""

    def __init__(
        self,
        network: MatchingNetwork,
        target_samples: int = 500,
        walk_steps: int = 5,
        rng: Optional[random.Random] = None,
        chains: int = 1,
        max_shards: Optional[int] = None,
        enumerate_limit: int = 4096,
        parallel: Optional[int] = None,
        restart_probability: float = 0.15,
        pool=None,
        catalog=None,
    ):
        self.store = ShardedSampleStore(
            network,
            rng=rng,
            target_samples=target_samples,
            walk_steps=walk_steps,
            restart_probability=restart_probability,
            chains=chains,
            max_shards=max_shards,
            enumerate_limit=enumerate_limit,
            parallel=parallel,
            pool=pool,
            catalog=catalog,
        )

    @property
    def n_shards(self) -> int:
        return len(self.store.shards)
