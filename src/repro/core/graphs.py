"""Interaction graphs: which schema pairs of a network get matched.

The paper's experiments use complete interaction graphs for the quality
studies (Section VI-C) and Erdős–Rényi random graphs for the scalability
study (Section VI-B, Fig. 6).  We provide both plus a few extra topologies
that are useful for examples and tests.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Optional, Sequence


class InteractionGraph:
    """An undirected graph over schema names.

    Edges are stored canonically as sorted 2-tuples of schema names.  The
    class is deliberately tiny — just what the matching network needs — and
    exposes :meth:`triangles` and :meth:`cycles` for the cycle constraint.
    """

    def __init__(
        self,
        nodes: Iterable[str] = (),
        edges: Iterable[tuple[str, str]] = (),
    ):
        self._adjacency: dict[str, set[str]] = {}
        for node in nodes:
            self.add_node(node)
        for left, right in edges:
            self.add_edge(left, right)

    def add_node(self, node: str) -> None:
        self._adjacency.setdefault(node, set())

    def add_edge(self, left: str, right: str) -> None:
        """Add an undirected edge, creating endpoints as needed."""
        if left == right:
            raise ValueError(f"self-loop on {left!r} is not allowed")
        self.add_node(left)
        self.add_node(right)
        self._adjacency[left].add(right)
        self._adjacency[right].add(left)

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self._adjacency)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        seen: list[tuple[str, str]] = []
        for node in self._adjacency:
            for neighbour in self._adjacency[node]:
                if node < neighbour:
                    seen.append((node, neighbour))
        return tuple(sorted(seen))

    def neighbors(self, node: str) -> frozenset[str]:
        return frozenset(self._adjacency[node])

    def has_edge(self, left: str, right: str) -> bool:
        return right in self._adjacency.get(left, ())

    def degree(self, node: str) -> int:
        return len(self._adjacency[node])

    def triangles(self) -> Iterator[tuple[str, str, str]]:
        """Yield each 3-clique once, with nodes in sorted order.

        Triangles come from common-neighbour intersections, in the order
        :meth:`cycles` emits length-3 cycles: smallest node ascending,
        then the middle node descending, then the largest descending.
        """
        adjacency = self._adjacency
        for start in sorted(adjacency):
            around = adjacency[start]
            for second in sorted((n for n in around if n > start), reverse=True):
                common = around & adjacency[second]
                for third in sorted((n for n in common if n > second), reverse=True):
                    yield (start, second, third)

    def cycles(
        self,
        max_length: int = 3,
        through: Optional[Iterable[tuple[str, str]]] = None,
    ) -> Iterator[tuple[str, ...]]:
        """Yield simple cycles of length 3..max_length, each exactly once.

        Cycles are emitted as node tuples starting from their smallest node
        and continuing towards the smaller of that node's two cycle
        neighbours, which canonicalises direction (a triangle is therefore
        its sorted node triple).

        ``through`` restricts the enumeration to cycles that use at least
        one of the given edges (the delta pipeline's anchored
        rediscovery); the work is then bounded by those edges'
        neighbourhoods, not the graph's whole cycle space.

        The emission order is part of the contract — it fixes the order of
        every compiled violation list.  Full enumeration is the per-start
        depth-first order: start ascending, then the second node
        descending, then the third descending.  Anchored enumeration takes
        the anchors in sorted order and, per anchor ``(start, goal)``,
        closes the paths start → … → goal depth-first, skipping cycles an
        earlier anchor already produced.  Length-3 cycles come from
        common-neighbour intersections in exactly those orders; longer
        bounds walk paths.
        """
        if max_length < 3:
            return iter(())
        if through is not None:
            return _anchored_cycles(self._adjacency, through, max_length)
        if max_length == 3:
            return self.triangles()
        return _dfs_cycles(self._adjacency, max_length)

    def __contains__(self, node: object) -> bool:
        return node in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InteractionGraph({len(self)} nodes, {len(self.edges)} edges)"


def _dfs_cycles(
    adjacency: dict[str, set[str]], max_length: int
) -> Iterator[tuple[str, ...]]:
    """Every cycle of 3..``max_length`` nodes: simple paths from each
    start, extended only through larger nodes, depth-first (the order
    :meth:`InteractionGraph.triangles` reproduces for length 3)."""
    for start in sorted(adjacency):
        stack: list[tuple[str, ...]] = [(start,)]
        while stack:
            path = stack.pop()
            for neighbour in sorted(adjacency[path[-1]]):
                if neighbour == start and len(path) >= 3:
                    # Canonical direction: second node < last node.
                    if path[1] < path[-1]:
                        yield path
                    continue
                if neighbour <= start or neighbour in path:
                    continue
                if len(path) < max_length:
                    stack.append(path + (neighbour,))


def _anchored_cycles(
    adjacency: dict[str, set[str]],
    anchors: Iterable[tuple[str, str]],
    max_length: int,
) -> Iterator[tuple[str, ...]]:
    """Every cycle using an anchor edge, once, anchor by anchor."""
    seen: set[tuple[str, ...]] = set()
    for start, goal in sorted(set(anchors)):
        if goal not in adjacency.get(start, ()):
            continue
        if max_length == 3:
            # The paths start → middle → goal, depth-first: middle
            # descending; a triangle's canonical form is its sorted triple.
            closings = [
                tuple(sorted((start, middle, goal)))
                for middle in sorted(adjacency[start] & adjacency[goal], reverse=True)
            ]
        else:
            closings = _closed_paths(adjacency, start, goal, max_length)
        for cycle in closings:
            if cycle not in seen:
                seen.add(cycle)
                yield cycle


def _closed_paths(
    adjacency: dict[str, set[str]], start: str, goal: str, max_length: int
) -> Iterator[tuple[str, ...]]:
    """Canonical cycles closing a simple path start → … → goal of 3..
    ``max_length`` nodes over the edge (goal, start), depth-first."""
    stack: list[tuple[str, ...]] = [(start,)]
    while stack:
        path = stack.pop()
        for neighbour in sorted(adjacency[path[-1]]):
            if neighbour == goal:
                if len(path) >= 2:
                    yield _canonical_cycle(path + (goal,))
                continue
            if neighbour in path:
                continue
            if len(path) < max_length - 1:
                stack.append(path + (neighbour,))


def _canonical_cycle(path: tuple[str, ...]) -> tuple[str, ...]:
    """The rotation/direction :meth:`InteractionGraph.cycles` emits:
    smallest node first, then towards its smaller cycle neighbour."""
    k = len(path)
    pivot = path.index(min(path))
    forward = tuple(path[(pivot + j) % k] for j in range(k))
    backward = tuple(path[(pivot - j) % k] for j in range(k))
    return forward if forward[1] < forward[-1] else backward


def complete_graph(schema_names: Sequence[str]) -> InteractionGraph:
    """Every schema matched against every other (paper Section VI-C)."""
    graph = InteractionGraph(nodes=schema_names)
    for i, left in enumerate(schema_names):
        for right in schema_names[i + 1 :]:
            graph.add_edge(left, right)
    return graph


def erdos_renyi_graph(
    schema_names: Sequence[str],
    edge_probability: float,
    rng: random.Random | None = None,
    ensure_connected: bool = True,
) -> InteractionGraph:
    """G(n, p) random interaction graph (paper Section VI-B, Fig. 6).

    With ``ensure_connected`` a spanning path is added first so that every
    schema participates in at least one matching task.
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must lie in [0, 1]")
    rng = rng or random.Random()
    graph = InteractionGraph(nodes=schema_names)
    if ensure_connected:
        for left, right in zip(schema_names, schema_names[1:]):
            graph.add_edge(left, right)
    for i, left in enumerate(schema_names):
        for right in schema_names[i + 1 :]:
            if rng.random() < edge_probability:
                graph.add_edge(left, right)
    return graph


def star_graph(hub: str, leaves: Sequence[str]) -> InteractionGraph:
    """Hub-and-spoke topology (a mediated-schema-like layout)."""
    graph = InteractionGraph(nodes=[hub, *leaves])
    for leaf in leaves:
        graph.add_edge(hub, leaf)
    return graph


def ring_graph(schema_names: Sequence[str]) -> InteractionGraph:
    """A single cycle through all schemas; the minimal cyclic topology."""
    if len(schema_names) < 3:
        raise ValueError("a ring needs at least three schemas")
    graph = InteractionGraph(nodes=schema_names)
    for left, right in zip(schema_names, schema_names[1:]):
        graph.add_edge(left, right)
    graph.add_edge(schema_names[-1], schema_names[0])
    return graph


def path_graph(schema_names: Sequence[str]) -> InteractionGraph:
    """A chain of pairwise matchings; acyclic, so no cycle constraints."""
    graph = InteractionGraph(nodes=schema_names)
    for left, right in zip(schema_names, schema_names[1:]):
        graph.add_edge(left, right)
    return graph
