"""Unit tests for repro.core.graphs."""

import random

import pytest

from repro.core.graphs import (
    InteractionGraph,
    complete_graph,
    erdos_renyi_graph,
    path_graph,
    ring_graph,
    star_graph,
)


class TestInteractionGraph:
    def test_add_edge_creates_nodes(self):
        graph = InteractionGraph()
        graph.add_edge("A", "B")
        assert set(graph.nodes) == {"A", "B"}

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            InteractionGraph().add_edge("A", "A")

    def test_edges_canonical_and_unique(self):
        graph = InteractionGraph(edges=[("B", "A"), ("A", "B")])
        assert graph.edges == (("A", "B"),)

    def test_has_edge_symmetric(self):
        graph = InteractionGraph(edges=[("A", "B")])
        assert graph.has_edge("A", "B")
        assert graph.has_edge("B", "A")
        assert not graph.has_edge("A", "C")

    def test_neighbors(self):
        graph = InteractionGraph(edges=[("A", "B"), ("A", "C")])
        assert graph.neighbors("A") == {"B", "C"}

    def test_degree(self):
        graph = InteractionGraph(edges=[("A", "B"), ("A", "C")])
        assert graph.degree("A") == 2
        assert graph.degree("B") == 1

    def test_contains_and_len(self):
        graph = InteractionGraph(nodes=["A", "B"])
        assert "A" in graph
        assert "Z" not in graph
        assert len(graph) == 2

    def test_triangles_of_complete_graph(self):
        graph = complete_graph(["A", "B", "C", "D"])
        assert sorted(graph.triangles()) == [
            ("A", "B", "C"),
            ("A", "B", "D"),
            ("A", "C", "D"),
            ("B", "C", "D"),
        ]

    def test_no_triangles_in_path(self):
        graph = path_graph(["A", "B", "C", "D"])
        assert list(graph.triangles()) == []

    def test_cycles_triangle_only(self):
        graph = complete_graph(["A", "B", "C"])
        assert list(graph.cycles(3)) == [("A", "B", "C")]

    def test_cycles_matches_triangles_at_length_3(self):
        graph = complete_graph(["A", "B", "C", "D", "E"])
        assert sorted(graph.cycles(3)) == sorted(graph.triangles())

    def test_cycles_length_4(self):
        graph = ring_graph(["A", "B", "C", "D"])
        cycles = list(graph.cycles(4))
        assert len(cycles) == 1
        assert set(cycles[0]) == {"A", "B", "C", "D"}

    def test_cycles_each_reported_once(self):
        graph = complete_graph(["A", "B", "C", "D"])
        four_cycles = [c for c in graph.cycles(4) if len(c) == 4]
        assert len(four_cycles) == len(set(four_cycles)) == 3

    def test_cycles_below_minimum_length(self):
        graph = complete_graph(["A", "B", "C"])
        assert list(graph.cycles(2)) == []
        assert list(graph.cycles(2, through=[("A", "B")])) == []

    @pytest.mark.parametrize("max_length", [3, 4, 5])
    def test_cycles_through_anchors_are_the_cycles_using_them(self, max_length):
        graph = erdos_renyi_graph(list("ABCDEFG"), 0.6, rng=random.Random(3))
        # Spanning-path edges (one reversed), plus a non-edge.
        anchors = [("A", "B"), ("C", "B"), ("F", "G"), ("A", "Z")]
        wanted = {frozenset(edge) for edge in anchors}

        def uses_anchor(cycle):
            closed = zip(cycle, cycle[1:] + cycle[:1])
            return any(frozenset(edge) in wanted for edge in closed)

        anchored = list(graph.cycles(max_length, through=anchors))
        assert len(anchored) == len(set(anchored))
        assert set(anchored) == {
            cycle for cycle in graph.cycles(max_length) if uses_anchor(cycle)
        }


class TestGraphBuilders:
    def test_complete_graph_edge_count(self):
        graph = complete_graph([f"S{i}" for i in range(6)])
        assert len(graph.edges) == 15

    def test_star_graph(self):
        graph = star_graph("hub", ["a", "b", "c"])
        assert len(graph.edges) == 3
        assert graph.degree("hub") == 3

    def test_ring_graph(self):
        graph = ring_graph(["A", "B", "C", "D"])
        assert all(graph.degree(n) == 2 for n in graph.nodes)

    def test_ring_requires_three(self):
        with pytest.raises(ValueError, match="at least three"):
            ring_graph(["A", "B"])

    def test_path_graph(self):
        graph = path_graph(["A", "B", "C"])
        assert graph.edges == (("A", "B"), ("B", "C"))

    def test_erdos_renyi_connected_spine(self):
        graph = erdos_renyi_graph(
            [f"S{i}" for i in range(10)], 0.0, rng=random.Random(1)
        )
        assert len(graph.edges) == 9  # the spanning path only

    def test_erdos_renyi_full_probability(self):
        names = [f"S{i}" for i in range(6)]
        graph = erdos_renyi_graph(names, 1.0, rng=random.Random(1))
        assert len(graph.edges) == 15

    def test_erdos_renyi_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(["A", "B"], 1.5)

    def test_erdos_renyi_deterministic_with_seed(self):
        names = [f"S{i}" for i in range(8)]
        left = erdos_renyi_graph(names, 0.4, rng=random.Random(7))
        right = erdos_renyi_graph(names, 0.4, rng=random.Random(7))
        assert left.edges == right.edges
