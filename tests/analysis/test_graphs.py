"""Tests for graph views of SINR instances."""

import numpy as np
import pytest

from repro.analysis.graphs import conflict_graph, graph_model_gap
from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.geometry.placement import line_network, paper_random_network


@pytest.fixture
def pair_conflict_instance():
    gains = np.array(
        [
            [4.0, 4.0, 0.0],
            [4.0, 4.0, 0.0],
            [0.0, 0.0, 4.0],
        ]
    )
    return SINRInstance(gains, noise=0.0)


def _edges(conflict: np.ndarray) -> "set[tuple[int, int]]":
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(conflict, 1)))}


class TestConflictGraph:
    def test_edges_match_pairwise_semantics(self, pair_conflict_instance):
        g = conflict_graph(pair_conflict_instance, beta=1.5)
        assert _edges(g) == {(0, 1)}
        assert g.shape == (3, 3) and g.dtype == bool
        assert np.array_equal(g, g.T) and not g.diagonal().any()

    def test_isolated_links_edgeless(self):
        s, r = line_network(5, spacing=10000.0, link_length=5.0)
        inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 0.0)
        assert not conflict_graph(inst, 2.5).any()

    def test_asymmetric_failure_still_an_edge(self):
        gains = np.array([[4.0, 8.0], [0.1, 4.0]])
        inst = SINRInstance(gains, noise=0.0)
        assert _edges(conflict_graph(inst, 1.0)) == {(0, 1)}

    def test_clique_number_matches_lower_bound_module(self):
        from repro.analysis.lower_bounds import conflict_clique_lower_bound

        n = 5
        inst = SINRInstance(np.full((n, n), 5.0), noise=0.0)
        # Full conflict: the adjacency is complete, so max clique = n.
        assert np.array_equal(conflict_graph(inst, 2.0), ~np.eye(n, dtype=bool))
        assert conflict_clique_lower_bound(inst, 2.0) == n


class TestGraphModelGap:
    def test_zero_on_isolated_links(self):
        s, r = line_network(5, spacing=10000.0, link_length=5.0)
        inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 0.0)
        assert graph_model_gap(inst, 2.5, rng=0) == 0.0

    def test_large_on_dense_instances(self):
        """Dense deployments: pairwise compatibility says everyone can
        talk; aggregate SINR says no.  The gap should be substantial —
        the paper's motivation for SINR models, measured."""
        s, r = paper_random_network(40, rng=1, area=500.0)
        inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)
        assert graph_model_gap(inst, 2.5, rng=2, num_samples=100) > 0.5

    def test_validation(self, paper_instance):
        with pytest.raises(ValueError):
            graph_model_gap(paper_instance, 2.5, num_samples=0)
