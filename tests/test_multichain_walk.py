"""Parity and edge-case tests for the multi-chain lockstep walk.

``walk_states_batch`` advances C independent chains simultaneously; the
single-chain ``walk_states`` stays the pinned reference.  The parity
contract has two halves:

* **C=1 bit-identity** — a batch walk with one chain consumes the
  sampler's RNG stream exactly like the sequential walk, so states,
  emissions, and downstream Ω* are bit-for-bit identical.  Because the
  ``chains=1`` default routes through the *unchanged* single-chain path,
  the emission stream of every existing seeded session is untouched — the
  golden traces in ``tests/data`` were **not** regenerated for this
  change, and must not be unless the single-chain stream itself
  legitimately changes.
* **C>1 chain-for-chain parity** — chain ``c`` of a C-chain lockstep run
  emits exactly the states a sequential single-chain sampler running on
  chain ``c``'s RNG stream would: the lockstep schedule interleaves
  *wall-clock*, never randomness.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    Feedback,
    InstanceSampler,
    enumerate_instances,
    is_matching_instance,
)
from repro.core import sampling as sampling_module
from repro.core.repair import wave_maximalize_rows
from repro.experiments.harness import synthetic_network


@pytest.fixture(scope="module")
def small_network():
    return synthetic_network(
        30, n_schemas=6, attributes_per_schema=10, seed=3
    )


def _mirror_stream(seed: int) -> random.Random:
    """The walk stream of ``InstanceSampler(..., rng=Random(seed))``.

    The sampler constructor draws 64 bits from its rng to seed the
    emission generator, so the walk stream starts one draw in.
    """
    rng = random.Random(seed)
    rng.getrandbits(64)
    return rng


class TestSingleChainParity:
    def test_c1_states_bit_identical(self, small_network):
        reference = InstanceSampler(small_network, rng=random.Random(11))
        batch = InstanceSampler(small_network, rng=random.Random(11))
        ref_states, ref_allowed = reference.walk_states(40)
        got_states, got_allowed = batch.walk_states_batch(40, chains=1)
        assert got_allowed == ref_allowed
        assert got_states == [ref_states]

    def test_c1_rng_positions_match(self, small_network):
        reference = InstanceSampler(small_network, rng=random.Random(11))
        batch = InstanceSampler(small_network, rng=random.Random(11))
        reference.walk_states(25)
        batch.walk_states_batch(25, chains=1)
        assert reference.rng.getstate() == batch.rng.getstate()

    def test_chains_1_sampler_routes_identically(self, small_network):
        reference = InstanceSampler(small_network, rng=random.Random(5))
        routed = InstanceSampler(small_network, rng=random.Random(5), chains=1)
        assert reference.sample_masks(35) == routed.sample_masks(35)

    def test_c1_with_feedback(self, small_network):
        corrs = small_network.correspondences
        feedback = Feedback(approved=[corrs[0]], disapproved=[corrs[1]])
        reference = InstanceSampler(small_network, rng=random.Random(2))
        batch = InstanceSampler(small_network, rng=random.Random(2))
        ref_states, _ = reference.walk_states(30, feedback)
        got_states, _ = batch.walk_states_batch(30, feedback, chains=1)
        assert got_states == [ref_states]


class TestMultiChainParity:
    def test_chain_for_chain_matches_sequential(self, small_network):
        """Chain c of a C=4 run == a solo walk on chain c's stream."""
        chains = 4
        n_samples = 21
        batch = InstanceSampler(small_network, rng=random.Random(7))
        states, allowed = batch.walk_states_batch(
            n_samples,
            chains=chains,
            rngs=[_mirror_stream(100 + c) for c in range(chains)],
        )
        for c in range(chains):
            solo = InstanceSampler(small_network, rng=random.Random(100 + c))
            rounds = n_samples // chains + (1 if c < n_samples % chains else 0)
            solo_states, solo_allowed = solo.walk_states(rounds)
            assert allowed == solo_allowed
            assert states[c] == solo_states

    def test_round_split_covers_n_samples(self, small_network):
        sampler = InstanceSampler(small_network, rng=random.Random(1), chains=5)
        states, _ = sampler.walk_states_batch(23)
        assert [len(chain) for chain in states] == [5, 5, 5, 4, 4]
        assert sum(len(chain) for chain in states) == 23

    def test_spawned_streams_deterministic(self, small_network):
        one = InstanceSampler(small_network, rng=random.Random(13), chains=3)
        two = InstanceSampler(small_network, rng=random.Random(13), chains=3)
        assert one.sample_masks(30) == two.sample_masks(30)

    def test_multichain_sampler_routes_through_batch(self, small_network):
        direct = InstanceSampler(small_network, rng=random.Random(4), chains=3)
        explicit = InstanceSampler(small_network, rng=random.Random(4), chains=3)
        states, allowed = explicit.walk_states_batch(30)
        flat = [state for chain_states in states for state in chain_states]
        engine = small_network.engine
        rows = wave_maximalize_rows(
            engine, flat, allowed, np_rng=explicit.np_rng
        )
        assert direct.sample_masks(30) == list(
            dict.fromkeys(engine.selection_masks(rows))
        )

    def test_multichain_emissions_are_instances(self, small_network):
        sampler = InstanceSampler(small_network, rng=random.Random(6), chains=4)
        for sample in sampler.sample(40):
            assert is_matching_instance(sample, small_network)

    def test_multichain_covers_instance_space(self, movie_network):
        sampler = InstanceSampler(
            movie_network, walk_steps=8, rng=random.Random(0), chains=4
        )
        assert set(sampler.sample(100)) == set(
            enumerate_instances(movie_network)
        )

    def test_chain_count_validation(self, small_network):
        with pytest.raises(ValueError):
            InstanceSampler(small_network, chains=0)
        sampler = InstanceSampler(small_network, rng=random.Random(0))
        with pytest.raises(ValueError):
            sampler.walk_states_batch(10, chains=0)
        with pytest.raises(ValueError):
            sampler.walk_states_batch(
                10, chains=3, rngs=[random.Random(0)]
            )

    def test_rngs_imply_chain_count(self, small_network):
        sampler = InstanceSampler(small_network, rng=random.Random(0))
        states, _ = sampler.walk_states_batch(
            9, rngs=[random.Random(i) for i in range(3)]
        )
        assert len(states) == 3


class TestWalkEdgeCases:
    def test_restart_probability_one(self, movie_network):
        """Every round restarts to the feedback core before stepping."""
        sampler = InstanceSampler(
            movie_network, rng=random.Random(3), restart_probability=1.0
        )
        states, _ = sampler.walk_states(30)
        assert len(states) == 30
        for sample in sampler.sample(20):
            assert is_matching_instance(sample, movie_network)

    def test_restart_probability_one_batch(self, movie_network):
        reference = InstanceSampler(
            movie_network, rng=random.Random(3), restart_probability=1.0
        )
        batch = InstanceSampler(
            movie_network, rng=random.Random(3), restart_probability=1.0
        )
        ref_states, _ = reference.walk_states(30)
        got_states, _ = batch.walk_states_batch(30, chains=1)
        assert got_states == [ref_states]

    def test_empty_availability_breaks_walk(self, movie_network):
        """All candidates disapproved: avail is empty from the first step."""
        feedback = Feedback(disapproved=list(movie_network.correspondences))
        sampler = InstanceSampler(movie_network, rng=random.Random(1))
        states, allowed = sampler.walk_states(10, feedback)
        assert allowed == 0
        assert states == [0] * 10
        assert sampler.sample(10, feedback) == [frozenset()]

    def test_availability_exhausted_mid_walk(self, movie_network):
        """One allowed candidate: once taken, later steps hit the break."""
        corrs = movie_network.correspondences
        feedback = Feedback(disapproved=list(corrs[1:]))
        sampler = InstanceSampler(
            movie_network, rng=random.Random(1), walk_steps=6
        )
        states, allowed = sampler.walk_states(12, feedback)
        assert allowed.bit_count() == 1
        assert set(states) <= {0, allowed}
        assert allowed in states  # the walk does reach the lone candidate
        samples = sampler.sample(12, feedback)
        assert samples == [frozenset([corrs[0]])]

    def test_empty_availability_batch_parity(self, movie_network):
        corrs = movie_network.correspondences
        feedback = Feedback(disapproved=list(corrs[1:]))
        reference = InstanceSampler(movie_network, rng=random.Random(1))
        batch = InstanceSampler(movie_network, rng=random.Random(1))
        ref_states, _ = reference.walk_states(12, feedback)
        got_states, _ = batch.walk_states_batch(12, feedback, chains=1)
        assert got_states == [ref_states]

    def test_kth_set_bit_fallback_fires(self, movie_network, monkeypatch):
        """A sparse availability mask forces the exact k-th-bit fallback.

        With one allowed bit out of five, four rejection tries all miss
        with probability (4/5)^4 ≈ 0.41 per step, so a seeded 20-round
        walk deterministically exercises the fallback.
        """
        corrs = movie_network.correspondences
        feedback = Feedback(disapproved=list(corrs[1:]))
        calls = {"count": 0}
        real = sampling_module.kth_set_bit

        def counting(mask, k):
            calls["count"] += 1
            return real(mask, k)

        monkeypatch.setattr(sampling_module, "kth_set_bit", counting)
        sampler = InstanceSampler(
            movie_network, rng=random.Random(0), restart_probability=1.0
        )
        states, _ = sampler.walk_states(20, feedback)
        assert calls["count"] > 0
        assert set(states) <= {0, sampler.network.engine.mask_of([corrs[0]])}

    def test_kth_set_bit_fallback_fires_batch(self, movie_network, monkeypatch):
        corrs = movie_network.correspondences
        feedback = Feedback(disapproved=list(corrs[1:]))
        calls = {"count": 0}
        real = sampling_module.kth_set_bit

        def counting(mask, k):
            calls["count"] += 1
            return real(mask, k)

        monkeypatch.setattr(sampling_module, "kth_set_bit", counting)
        sampler = InstanceSampler(
            movie_network, rng=random.Random(0), restart_probability=1.0
        )
        sampler.walk_states_batch(20, feedback, chains=2)
        assert calls["count"] > 0
