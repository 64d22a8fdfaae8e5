"""Pinned copies of the pre-triangle cycle enumerators (order reference).

The cycle constraint's violation *order* reaches every compiled engine
(violation lists, per-index tables, SWAR blocks, wave CSR rows), so any
faster enumerator must reproduce it exactly.  This module freezes the
implementations the triangle/hash-join kernel replaced:

* :func:`legacy_cycles` — ``InteractionGraph.cycles``'s per-node DFS
  that re-sorts adjacency at every expansion;
* :func:`legacy_cycle_violations` — ``CycleConstraint.minimal_violations``
  with its nested-loop chain join;
* :func:`legacy_cycle_violations_through` — the delta pipeline's
  edge-anchored enumerator (``_cycles_through_edges`` /
  ``_canonical_cycle``);
* :func:`legacy_incremental_violations` — the delta pipeline's
  carried-plus-fresh violation assembly, BFS-scoped one-to-one included.

Do not "improve" this module: its whole value is staying identical to the
historical behaviour.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.core.constraints import (
    ConstraintEngine,
    CycleConstraint,
    Violation,
)
from repro.core.correspondence import Correspondence
from repro.core.graphs import InteractionGraph


def legacy_cycles(
    graph: InteractionGraph, max_length: int = 3
) -> Iterator[tuple[str, ...]]:
    if max_length < 3:
        return
    adjacency = {node: graph.neighbors(node) for node in graph.nodes}
    nodes = sorted(adjacency)
    for start in nodes:
        stack: list[tuple[str, ...]] = [(start,)]
        while stack:
            path = stack.pop()
            head = path[-1]
            for neighbour in sorted(adjacency[head]):
                if neighbour == start and len(path) >= 3:
                    if path[1] < path[-1]:
                        yield path
                    continue
                if neighbour <= start or neighbour in path:
                    continue
                if len(path) < max_length:
                    stack.append(path + (neighbour,))


def _legacy_rotation_violations(
    cycle: tuple[str, ...],
    by_edge: dict[tuple[str, str], list[Correspondence]],
) -> Iterator[Violation]:
    k = len(cycle)
    edges = [tuple(sorted((cycle[i], cycle[(i + 1) % k]))) for i in range(k)]
    if any(edge not in by_edge for edge in edges):
        return
    chains: list[list[Correspondence]] = [[corr] for corr in by_edge[edges[0]]]
    for step in range(1, k - 1):
        junction = cycle[step]
        extended: list[list[Correspondence]] = []
        for chain in chains:
            tail = chain[-1].endpoint_in(junction)
            for corr in by_edge[edges[step]]:
                if corr.endpoint_in(junction) == tail:
                    extended.append(chain + [corr])
        chains = extended
        if not chains:
            return
    closing_edge = edges[k - 1]
    first_schema, last_schema = cycle[0], cycle[k - 1]
    for chain in chains:
        chain_start = chain[0].endpoint_in(first_schema)
        chain_end = chain[-1].endpoint_in(last_schema)
        for closing in by_edge[closing_edge]:
            start_agrees = closing.endpoint_in(first_schema) == chain_start
            end_agrees = closing.endpoint_in(last_schema) == chain_end
            if start_agrees != end_agrees:
                members = frozenset(chain) | {closing}
                if len(members) == k:
                    yield Violation("cycle", members)


def _legacy_violations_of_cycles(
    cycles: Iterable[tuple[str, ...]],
    correspondences: Sequence[Correspondence],
) -> Iterator[Violation]:
    by_edge: dict[tuple[str, str], list[Correspondence]] = {}
    for corr in correspondences:
        by_edge.setdefault(corr.schema_pair, []).append(corr)
    seen: set[frozenset[Correspondence]] = set()
    for cycle in cycles:
        for rotation in range(len(cycle)):
            rotated = cycle[rotation:] + cycle[:rotation]
            for violation in _legacy_rotation_violations(rotated, by_edge):
                if violation.correspondences not in seen:
                    seen.add(violation.correspondences)
                    yield violation


def legacy_cycle_violations(
    correspondences: Sequence[Correspondence],
    graph: InteractionGraph,
    max_cycle_length: int = 3,
) -> Iterator[Violation]:
    return _legacy_violations_of_cycles(
        legacy_cycles(graph, max_cycle_length), correspondences
    )


def _legacy_canonical_cycle(path: tuple[str, ...]) -> tuple[str, ...]:
    k = len(path)
    pivot = path.index(min(path))
    forward = tuple(path[(pivot + j) % k] for j in range(k))
    backward = tuple(path[(pivot - j) % k] for j in range(k))
    return forward if forward[1] < forward[-1] else backward


def legacy_cycles_through_edges(
    graph: InteractionGraph,
    anchor_edges: Iterable[tuple[str, str]],
    max_length: int,
) -> Iterator[tuple[str, ...]]:
    if max_length < 3:
        return
    seen: set[tuple[str, ...]] = set()
    for start, goal in sorted(set(anchor_edges)):
        if start not in graph or not graph.has_edge(start, goal):
            continue
        stack: list[tuple[str, ...]] = [(start,)]
        while stack:
            path = stack.pop()
            head = path[-1]
            for neighbour in sorted(graph.neighbors(head)):
                if neighbour == goal:
                    if len(path) >= 2:
                        canonical = _legacy_canonical_cycle(path + (goal,))
                        if canonical not in seen:
                            seen.add(canonical)
                            yield canonical
                    continue
                if neighbour in path:
                    continue
                if len(path) < max_length - 1:
                    stack.append(path + (neighbour,))


def legacy_cycle_violations_through(
    correspondences: Sequence[Correspondence],
    graph: InteractionGraph,
    added_corrs: Sequence[Correspondence],
    max_cycle_length: int = 3,
) -> Iterator[Violation]:
    anchor_edges = {corr.schema_pair for corr in added_corrs}
    return _legacy_violations_of_cycles(
        legacy_cycles_through_edges(graph, anchor_edges, max_cycle_length),
        correspondences,
    )


def _legacy_bfs_scope(
    graph: InteractionGraph, seeds: Iterable[str], radius: int
) -> set[str]:
    scope = set(seeds)
    frontier = set(scope)
    for _ in range(radius):
        grown: set[str] = set()
        for node in frontier:
            grown |= graph.neighbors(node)
        grown -= scope
        if not grown:
            break
        scope |= grown
        frontier = grown
    return scope


def legacy_incremental_violations(
    old_engine: ConstraintEngine,
    correspondences: Sequence[Correspondence],
    graph: InteractionGraph,
    removed_mask: int,
    added_corrs: Sequence[Correspondence],
    added_names: set[str],
) -> tuple[list[Violation], list[list[int]]]:
    """The ``(violations, sources)`` the pre-triangle delta pipeline fed
    to :meth:`ConstraintEngine.from_violations`."""
    constraints = old_engine.constraints
    violations: list[Violation] = []
    sources: list[list[int]] = []
    seen: dict[frozenset[Correspondence], int] = {}
    for violation, vmask, contributors in zip(
        old_engine.violations,
        old_engine.violation_masks,
        old_engine.violation_sources,
    ):
        if vmask & removed_mask:
            continue
        seen[violation.correspondences] = len(violations)
        violations.append(violation)
        sources.append(list(contributors))

    added_set = set(added_corrs)
    if added_set or added_names:
        seeds: set[str] = set(added_names)
        for corr in added_corrs:
            seeds.update(corr.schema_pair)
        for position, constraint in enumerate(constraints):
            referenced = constraint.referenced_correspondences()
            if referenced is not None:
                fresh = constraint.minimal_violations(correspondences, graph)
            elif isinstance(constraint, CycleConstraint):
                fresh = legacy_cycle_violations_through(
                    correspondences,
                    graph,
                    added_corrs,
                    constraint.max_cycle_length,
                )
            else:
                scope = _legacy_bfs_scope(graph, seeds, 0)
                scope_corrs = tuple(
                    corr
                    for corr in correspondences
                    if corr.schema_pair[0] in scope
                    and corr.schema_pair[1] in scope
                )
                scope_graph = InteractionGraph(
                    nodes=sorted(scope),
                    edges=[
                        edge
                        for edge in graph.edges
                        if edge[0] in scope and edge[1] in scope
                    ],
                )
                fresh = constraint.minimal_violations(scope_corrs, scope_graph)
            for violation in fresh:
                if not (violation.correspondences & added_set):
                    continue
                slot = seen.get(violation.correspondences)
                if slot is None:
                    seen[violation.correspondences] = len(violations)
                    violations.append(violation)
                    sources.append([position])
                elif position not in sources[slot]:
                    sources[slot].append(position)
    return violations, sources
