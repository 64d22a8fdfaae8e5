"""Tests for the batched priority-wave maximaliser (the sampler's emission
kernel).

Three layers pin ``wave_maximalize_rows`` (decoded to masks) to the scalar
reference:

1. **Deterministic parity** — with neither ``np_rng`` nor ``priorities``
   the wave schedule must equal ``greedy_maximalize_mask(rng=None)``
   bit for bit (both reduce to the ascending-index scan).
2. **Fixed-priority parity** — for an explicit priority matrix the result
   must equal the sequential greedy scan in increasing-priority order
   (ties: lower index first), instance by instance.  This is the exactness
   claim the wave schedule rests on.
3. **Emission invariants** (property-based) — every emitted instance is
   consistent (violation-free) and maximal modulo the disapproved set, on
   random networks and random walk states, for random priorities.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Feedback,
    InstanceSampler,
    MatchingNetwork,
    MutualExclusionConstraint,
    Schema,
    correspondence,
    wave_maximalize_rows,
)
from repro.core.repair import greedy_maximalize_mask

def _wave_masks(engine, states, allowed, **kwargs):
    """The wave kernel's rows, as the selection masks the store keeps."""
    return engine.selection_masks(
        wave_maximalize_rows(engine, states, allowed, **kwargs)
    )


common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_networks(draw):
    """A small random matching network with conflict structure."""
    n_schemas = draw(st.integers(min_value=2, max_value=4))
    schemas = []
    for index in range(n_schemas):
        n_attrs = draw(st.integers(min_value=1, max_value=4))
        schemas.append(
            Schema.from_names(f"S{index}", [f"a{j}" for j in range(n_attrs)])
        )
    correspondences = set()
    for left_index in range(n_schemas):
        for right_index in range(left_index + 1, n_schemas):
            for left_attr in schemas[left_index]:
                for right_attr in schemas[right_index]:
                    if draw(st.booleans()):
                        correspondences.add(correspondence(left_attr, right_attr))
    return MatchingNetwork(schemas, sorted(correspondences))


def _walk_batch(network, seed, count=12, disapprove_first=0):
    """Walk states plus the allowed mask, optionally with F⁻ feedback."""
    feedback = Feedback(
        disapproved=network.correspondences[:disapprove_first]
    )
    sampler = InstanceSampler(network, rng=random.Random(seed))
    return sampler.walk_states(count, feedback)


def _sequential_priority_scan(engine, instance, allowed, priorities):
    """The reference semantics: greedy scan in increasing-priority order."""
    cur = instance | (allowed & engine.violation_free_mask)
    order = [
        index
        for index in range(engine.n)
        if (allowed & ~cur & engine.conflicted_mask) >> index & 1
    ]
    order.sort(key=lambda index: (priorities[index], index))
    for index in order:
        if engine.mask_can_add(cur, index):
            cur |= engine.bits[index]
    return cur


class TestDeterministicParity:
    @given(case=random_networks(), seed=st.integers(min_value=0, max_value=2**16))
    @common_settings
    def test_matches_scalar_kernel_bit_for_bit(self, case, seed):
        engine = case.engine
        states, allowed = _walk_batch(case, seed)
        batched = _wave_masks(engine, states, allowed)
        assert batched == [
            greedy_maximalize_mask(engine, state, allowed) for state in states
        ]

    def test_respects_disapproved(self, movie_network, movie_correspondences):
        engine = movie_network.engine
        states, allowed = _walk_batch(movie_network, 3, disapprove_first=2)
        for mask in _wave_masks(engine, states, allowed):
            assert not (mask & ~allowed & engine.full_mask)
            assert engine.mask_is_consistent(mask)

    def test_empty_batch(self, movie_network):
        assert _wave_masks(movie_network.engine, [], 0) == []

    def test_conflict_free_network(self, movie_schemas, movie_correspondences):
        c = movie_correspondences
        network = MatchingNetwork(
            list(movie_schemas), [c["c1"], c["c2"], c["c3"]]
        )
        engine = network.engine
        full = engine.full_mask
        assert _wave_masks(engine, [0, full], full) == [full, full]


class TestFixedPriorityParity:
    @given(
        case=random_networks(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @common_settings
    def test_matches_priority_order_scan(self, case, seed):
        engine = case.engine
        states, allowed = _walk_batch(case, seed, count=8)
        priorities = np.random.default_rng(seed).random((len(states), engine.n))
        batched = _wave_masks(
            engine, states, allowed, priorities=priorities
        )
        for state, row, mask in zip(states, priorities, batched):
            assert mask == _sequential_priority_scan(engine, state, allowed, row)

    def test_tied_priorities_decide_lower_index_first(self, movie_network):
        engine = movie_network.engine
        states, allowed = _walk_batch(movie_network, 5, count=6)
        priorities = np.zeros((len(states), engine.n))
        batched = _wave_masks(
            engine, states, allowed, priorities=priorities
        )
        # All-equal priorities reduce to the ascending-index scan.
        assert batched == [
            greedy_maximalize_mask(engine, state, allowed) for state in states
        ]

    def test_rejects_misshapen_priorities(self, movie_network):
        engine = movie_network.engine
        states, allowed = _walk_batch(movie_network, 1, count=3)
        with pytest.raises(ValueError, match="priorities"):
            _wave_masks(
                engine, states, allowed, priorities=np.zeros((2, engine.n))
            )

    def test_rejects_nan_priorities(self, movie_network):
        """NaN compares false both ways, which would co-admit mutually
        exclusive partners — the kernel must refuse rather than emit an
        inconsistent instance."""
        engine = movie_network.engine
        states, allowed = _walk_batch(movie_network, 1, count=3)
        from repro.core.constraints import mask_indices

        priorities = np.zeros((len(states), engine.n))
        priorities[0, mask_indices(engine.conflicted_mask)[0]] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            _wave_masks(
                engine, states, allowed, priorities=priorities
            )


class TestEmissionInvariants:
    @given(
        case=random_networks(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @common_settings
    def test_maximal_and_violation_free(self, case, seed):
        engine = case.engine
        drop = seed % 3
        states, allowed = _walk_batch(case, seed, disapprove_first=drop)
        excluded = engine.full_mask & ~allowed
        for mask in _wave_masks(
            engine, states, allowed, np_rng=np.random.default_rng(seed)
        ):
            assert engine.mask_is_consistent(mask)
            assert engine.mask_is_maximal(mask, excluded)
            assert not (mask & excluded)

    def test_singleton_violations_never_admitted(
        self, movie_schemas, movie_correspondences
    ):
        """A custom constraint may refute a single correspondence outright
        (a singleton violation, no partners to wait on); the wave kernel
        must reject it just like the scalar scan does."""
        from repro.core.constraints import Constraint, Violation, default_constraints

        c = movie_correspondences
        banned = c["c1"]

        class BanConstraint(Constraint):
            name = "ban"

            def minimal_violations(self, correspondences, graph):
                if banned in correspondences:
                    yield Violation(self.name, frozenset({banned}))

        network = MatchingNetwork(
            list(movie_schemas),
            list(c.values()),
            constraints=[BanConstraint(), *default_constraints()],
        )
        engine = network.engine
        banned_bit = engine.bits[engine.index_of[banned]]
        states, allowed = _walk_batch(network, 2, count=8)
        for mask in _wave_masks(
            engine, states, allowed, np_rng=np.random.default_rng(0)
        ):
            assert not (mask & banned_bit)
            assert engine.mask_is_consistent(mask)
            assert engine.mask_is_maximal(mask, engine.full_mask & ~allowed)

    def test_mutual_exclusions_respected(self, movie_schemas, movie_correspondences):
        """Larger explicit violations flow through the blocking rows."""
        from repro.core.constraints import default_constraints

        c = movie_correspondences
        exclusion = [c["c1"], c["c2"], c["c3"]]
        network = MatchingNetwork(
            list(movie_schemas),
            list(c.values()),
            constraints=[
                MutualExclusionConstraint([exclusion]),
                *default_constraints(),
            ],
        )
        engine = network.engine
        states, allowed = _walk_batch(network, 9, count=10)
        forbidden = engine.mask_of(exclusion)
        for mask in _wave_masks(
            engine, states, allowed, np_rng=np.random.default_rng(1)
        ):
            assert mask & forbidden != forbidden
            assert engine.mask_is_consistent(mask)

    def test_singleton_only_violation_family(self, movie_schemas, movie_correspondences):
        """Regression: a network whose violations are ALL singletons used to
        crash the wave kernel (zero-width blocking rows); the sampler now
        routes every emission through it, so the whole stack crashed."""
        from repro.core.constraints import Constraint, Violation

        c = movie_correspondences
        banned = {c["c1"], c["c4"]}

        class BanAll(Constraint):
            name = "ban-all"

            def minimal_violations(self, correspondences, graph):
                for corr in correspondences:
                    if corr in banned:
                        yield Violation(self.name, frozenset({corr}))

        network = MatchingNetwork(
            list(movie_schemas), list(c.values()), constraints=[BanAll()]
        )
        engine = network.engine
        states, allowed = _walk_batch(network, 4, count=6)
        banned_mask = engine.mask_of(banned)
        batched = _wave_masks(
            engine, states, allowed, np_rng=np.random.default_rng(2)
        )
        assert batched == [
            greedy_maximalize_mask(engine, state, allowed) for state in states
        ]
        for mask in batched:
            assert not (mask & banned_mask)
            assert engine.mask_is_maximal(mask, engine.full_mask & ~allowed)
        # The sampler end-to-end survives too.
        sampler = InstanceSampler(network, rng=random.Random(8))
        assert sampler.sample_masks(10)

    def test_sampler_emissions_are_wave_products(self, movie_network):
        """The sampler's distinct masks all satisfy the wave invariants."""
        sampler = InstanceSampler(movie_network, rng=random.Random(11))
        engine = movie_network.engine
        for mask in sampler.sample_masks(40):
            assert engine.mask_is_consistent(mask)
            assert engine.mask_is_maximal(mask)
