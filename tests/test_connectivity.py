"""Tests for the connectivity indicator and ground-truth analysis."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity.analysis import (
    giant_scc_fraction,
    strongly_connected_components,
)
from repro.connectivity.indicator import (
    connectivity_indicator,
    indicator_from_degrees,
)


class TestIndicator:
    def test_two_cycle_is_critical(self):
        # A <-> B: every node has j=k=1, ci = (1*1 - 1) * 1 = 0.
        assert indicator_from_degrees([(1, 1), (1, 1)]) == 0.0

    def test_single_edge_is_fragmented(self):
        assert indicator_from_degrees([(0, 1), (1, 0)]) == -0.5

    def test_empty_is_zero(self):
        assert indicator_from_degrees([]) == 0.0
        assert connectivity_indicator({}) == 0.0

    def test_isolated_schemas_push_negative(self):
        connected = [(1, 1)] * 4
        with_isolated = connected + [(0, 0)] * 4
        assert (indicator_from_degrees(with_isolated)
                <= indicator_from_degrees(connected))

    def test_dense_graph_is_positive(self):
        # every schema has in=out=3
        assert indicator_from_degrees([(3, 3)] * 8) > 0

    def test_matches_formula_by_hand(self):
        # p table: (1,2) w.p. 0.5, (2,0) w.p. 0.25, (0,1) w.p. 0.25
        p = {(1, 2): 0.5, (2, 0): 0.25, (0, 1): 0.25}
        expected = (1 * 2 - 2) * 0.5 + (2 * 0 - 0) * 0.25 + (0 * 1 - 1) * 0.25
        assert connectivity_indicator(p) == pytest.approx(expected)

    def test_sign_tracks_giant_component_in_random_digraphs(self):
        # Directed Erdos-Renyi: giant SCC appears around mean degree 1.
        rng = random.Random(7)
        n = 400

        def sample(mean_degree):
            edges = set()
            target = int(mean_degree * n)
            while len(edges) < target:
                a, b = rng.randrange(n), rng.randrange(n)
                if a != b:
                    edges.add((a, b))
            degrees = {i: [0, 0] for i in range(n)}
            adjacency = {str(i): [] for i in range(n)}
            for a, b in edges:
                degrees[a][1] += 1
                degrees[b][0] += 1
                adjacency[str(a)].append(str(b))
            ci = indicator_from_degrees(
                [(j, k) for j, k in degrees.values()])
            return ci, giant_scc_fraction(adjacency)

        ci_sparse, giant_sparse = sample(0.4)
        ci_dense, giant_dense = sample(2.5)
        assert ci_sparse < 0 and giant_sparse < 0.05
        assert ci_dense > 0 and giant_dense > 0.4


class TestTarjan:
    def test_simple_cycle(self):
        sccs = strongly_connected_components(
            {"a": ["b"], "b": ["a"], "c": []})
        assert sorted(len(c) for c in sccs) == [1, 2]

    def test_empty_graph(self):
        assert strongly_connected_components({}) == []

    def test_self_loop_free_singletons(self):
        sccs = strongly_connected_components({"a": [], "b": []})
        assert len(sccs) == 2

    def test_nested_components(self):
        graph = {
            "a": ["b"], "b": ["c"], "c": ["a"],  # triangle
            "d": ["e"], "e": ["d"],              # 2-cycle
            "f": ["a"],                           # pendant into triangle
        }
        sccs = strongly_connected_components(graph)
        sizes = sorted(len(c) for c in sccs)
        assert sizes == [1, 2, 3]

    def test_largest_first_ordering(self):
        graph = {"a": ["b"], "b": ["a"], "c": ["d"], "d": ["e"],
                 "e": ["c"]}
        sccs = strongly_connected_components(graph)
        assert len(sccs[0]) == 3

    def test_deep_chain_no_recursion_error(self):
        n = 5000
        graph = {str(i): [str(i + 1)] for i in range(n)}
        graph[str(n)] = []
        sccs = strongly_connected_components(graph)
        assert len(sccs) == n + 1

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60))
    def test_matches_networkx(self, edge_list):
        graph: dict[str, list[str]] = {}
        nxg = nx.DiGraph()
        for a, b in edge_list:
            graph.setdefault(str(a), []).append(str(b))
            nxg.add_edge(str(a), str(b))
        ours = {frozenset(c) for c in strongly_connected_components(graph)}
        theirs = {frozenset(c)
                  for c in nx.strongly_connected_components(nxg)}
        assert ours == theirs


class TestGiantFraction:
    def test_empty(self):
        assert giant_scc_fraction({}) == 0.0

    def test_full_cycle(self):
        graph = {str(i): [str((i + 1) % 5)] for i in range(5)}
        assert giant_scc_fraction(graph) == 1.0

    def test_dag_fraction(self):
        graph = {"a": ["b"], "b": ["c"], "c": []}
        assert giant_scc_fraction(graph) == pytest.approx(1 / 3)
