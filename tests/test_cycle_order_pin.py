"""Order pin: the triangle/hash-join cycle kernel ≡ the legacy enumerators.

Compiled violation *order* reaches every engine table (violation lists,
per-index large-violation lists, SWAR blocks, wave CSR rows) and through
them the sampler's streams, so the fast kernel must reproduce the
pre-triangle enumerators (frozen in ``tests/_legacy_cycles.py``) list for
list, order included:

* full compile — ``InteractionGraph.cycles`` and
  ``CycleConstraint.minimal_violations`` on random networks (sparse and
  dense, random schema names inserted in shuffled order), on the
  reference network, and on the 10× network (slow);
* anchored discovery — ``cycles(through=...)`` and the delta pipeline's
  whole carried-plus-fresh violation assembly on random deltas;
* ``max_length > 3`` — the depth-first paths are unchanged too.

``scripts/ci.sh`` re-runs this file under two ``PYTHONHASHSEED`` values:
triangles come from intersecting string sets, and their order must not
depend on set iteration order.
"""

from __future__ import annotations

import random
import string

import pytest
from _legacy_cycles import (
    legacy_cycle_violations,
    legacy_cycle_violations_through,
    legacy_cycles,
    legacy_cycles_through_edges,
    legacy_incremental_violations,
)

from repro.core import MatchingNetwork
from repro.core.constraints import CycleConstraint, default_constraints
from repro.core.correspondence import CandidateSet, correspondence
from repro.core.delta import NetworkDelta
from repro.core.graphs import InteractionGraph
from repro.core.schema import Schema
from repro.experiments.harness import synthetic_network

#: Random networks per check (the acceptance bar is ≥200).
N_NETWORKS = 240
#: Random deltas for the delta-order pin.
N_DELTAS = 200


def _name(rng: random.Random, taken: set[str]) -> str:
    while True:
        name = "".join(rng.choice(string.ascii_letters) for _ in range(3))
        if name not in taken:
            taken.add(name)
            return name


def _random_network(seed: int, max_cycle_length: int = 3) -> MatchingNetwork:
    """A random network with unsorted schema names and insertion order.

    Even seeds are sparse, odd seeds dense; attribute pools are small so
    chains close often (plenty of violations and agreeing cycles both).
    """
    rng = random.Random(seed)
    n_schemas = rng.randint(3, 9 if max_cycle_length > 3 else 14)
    density = rng.uniform(0.15, 0.4) if seed % 2 == 0 else rng.uniform(0.6, 1.0)
    taken: set[str] = set()
    schemas = [
        Schema.from_names(
            _name(rng, taken), [f"x{j}" for j in range(rng.randint(2, 5))]
        )
        for _ in range(n_schemas)
    ]
    pairs = [
        (left.name, right.name)
        for i, left in enumerate(schemas)
        for right in schemas[i + 1 :]
        if rng.random() < density
    ]
    rng.shuffle(pairs)
    nodes = [schema.name for schema in schemas]
    rng.shuffle(nodes)
    graph = InteractionGraph(nodes=nodes, edges=pairs)
    by_name = {schema.name: schema for schema in schemas}
    drawn = []
    for left, right in pairs:
        if rng.random() < 0.1:
            continue  # a candidate-free edge
        for _ in range(rng.randint(1, 6)):
            drawn.append(
                correspondence(
                    rng.choice(by_name[left].attributes),
                    rng.choice(by_name[right].attributes),
                )
            )
    rng.shuffle(drawn)
    candidates = CandidateSet()
    for corr in drawn:
        candidates.add(corr, rng.random())
    return MatchingNetwork(
        schemas,
        candidates,
        graph=graph,
        constraints=default_constraints(max_cycle_length),
    )


def _assert_full_compile_pinned(network: MatchingNetwork, max_length: int):
    graph = network.graph
    corrs = network.correspondences
    assert list(graph.cycles(max_length)) == list(
        legacy_cycles(graph, max_length)
    )
    fast = list(CycleConstraint(max_length).minimal_violations(corrs, graph))
    assert fast == list(legacy_cycle_violations(corrs, graph, max_length))


class TestFullCompileOrder:
    def test_random_triangle_networks(self):
        violations = 0
        for seed in range(N_NETWORKS):
            network = _random_network(seed)
            _assert_full_compile_pinned(network, 3)
            violations += len(network.engine.violations)
        assert violations > N_NETWORKS  # the pin compares non-trivial lists

    def test_random_networks_length_4(self):
        for seed in range(N_NETWORKS):
            _assert_full_compile_pinned(_random_network(seed, 4), 4)

    def test_reference_network(self):
        network = synthetic_network(
            1500,
            n_schemas=24,
            attributes_per_schema=150,
            conflict_bias=0.35,
            seed=7,
        )
        _assert_full_compile_pinned(network, 3)

    @pytest.mark.slow
    def test_tenx_network(self):
        network = synthetic_network(
            15000,
            n_schemas=240,
            attributes_per_schema=150,
            conflict_bias=0.35,
            seed=7,
        )
        _assert_full_compile_pinned(network, 3)


class TestAnchoredOrder:
    def test_random_anchor_sets(self):
        for seed in range(N_NETWORKS):
            for max_length in (3, 4):
                network = _random_network(seed, max_length)
                graph = network.graph
                rng = random.Random(seed)
                edges = list(graph.edges)
                anchors = rng.sample(edges, min(len(edges), rng.randint(1, 4)))
                # Reversed and non-edge anchors are legal input too.
                anchors = [
                    edge[::-1] if rng.random() < 0.3 else edge
                    for edge in anchors
                ] + [("zz", "zzz")]
                assert list(graph.cycles(max_length, through=anchors)) == list(
                    legacy_cycles_through_edges(graph, anchors, max_length)
                )
                added = [
                    corr
                    for corr in network.correspondences
                    if rng.random() < 0.2
                ]
                anchor_edges = {corr.schema_pair for corr in added}
                fast = list(
                    CycleConstraint(max_length).minimal_violations(
                        network.correspondences, graph, through=anchor_edges
                    )
                )
                assert fast == list(
                    legacy_cycle_violations_through(
                        network.correspondences, graph, added, max_length
                    )
                )


def _random_delta(network: MatchingNetwork, rng: random.Random) -> NetworkDelta:
    """Remove a few schemas and candidates; add schemas wired to
    survivors *and* to each other, with dense candidates."""
    names = [schema.name for schema in network.schemas]
    removed = rng.sample(names, rng.randint(0, max(0, len(names) - 3)) // 2)
    survivors = [
        schema for schema in network.schemas if schema.name not in removed
    ]
    taken = set(names)
    added = [
        Schema.from_names(
            _name(rng, taken), [f"y{j}" for j in range(rng.randint(2, 4))]
        )
        for _ in range(rng.randint(1, 3))
    ]
    edges: list[tuple[str, str]] = []
    candidates = []
    seen = set()
    for position, schema in enumerate(added):
        partners = rng.sample(survivors, min(len(survivors), rng.randint(1, 5)))
        partners += added[:position]
        for partner in partners:
            edges.append((schema.name, partner.name))
            for _ in range(rng.randint(1, 5)):
                corr = correspondence(
                    rng.choice(schema.attributes),
                    rng.choice(partner.attributes),
                )
                if corr not in seen:
                    seen.add(corr)
                    candidates.append((corr, rng.random()))
    drop = [
        corr
        for corr in network.correspondences
        if not ({corr.source.schema, corr.target.schema} & set(removed))
        and rng.random() < 0.05
    ]
    return NetworkDelta(
        add_schemas=tuple(added),
        remove_schemas=tuple(removed),
        add_edges=tuple(edges),
        add_candidates=tuple(candidates),
        remove_candidates=tuple(drop),
    )


class TestDeltaOrder:
    def test_random_deltas(self):
        fresh_total = 0
        for seed in range(N_DELTAS):
            max_length = 3 if seed % 4 else 4
            network = _random_network(seed, max_length)
            rng = random.Random(10_000 + seed)
            delta = _random_delta(network, rng)
            result = network.apply_delta(delta)
            engine = result.network.engine
            old_engine = network.engine
            removed_mask = 0
            for index in result.removed_indices:
                removed_mask |= old_engine.bits[index]
            new_corrs = result.network.correspondences
            violations, sources = legacy_incremental_violations(
                old_engine,
                new_corrs,
                result.network.graph,
                removed_mask,
                [new_corrs[index] for index in result.added_indices],
                {schema.name for schema in delta.add_schemas},
            )
            assert list(engine.violations) == violations
            assert [list(s) for s in engine.violation_sources] == sources
            fresh_total += len(result.new_violation_masks)
        assert fresh_total > N_DELTAS  # deltas really created violations
