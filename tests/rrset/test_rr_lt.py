"""Tests for the classic-LT RR-set generator (Triggering path sampler)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import DiGraph, cycle_digraph, path_digraph, star_digraph
from repro.models import normalize_lt_weights, simulate_lt
from repro.models.possible_world import sample_possible_world
from repro.rng import make_rng
from repro.rrset import RRLTGenerator, TIMOptions, vanilla_lt_seeds


@pytest.fixture(scope="module")
def weighted() -> DiGraph:
    gen = make_rng(5)
    edges = []
    for u in range(12):
        for v in range(12):
            if u != v and gen.random() < 0.3:
                edges.append((u, v, float(gen.random())))
    return normalize_lt_weights(DiGraph.from_edges(12, edges))


class TestGeneration:
    def test_invalid_weights_rejected(self):
        graph = DiGraph.from_edges(3, [(0, 2), (1, 2)], default_probability=0.9)
        with pytest.raises(GraphError):
            RRLTGenerator(graph)

    def test_rr_set_is_a_simple_path(self, weighted):
        generator = RRLTGenerator(weighted)
        gen = make_rng(1)
        for _ in range(100):
            rr = generator.generate(rng=gen)
            assert len(set(rr.tolist())) == rr.size  # distinct
            for child, parent in zip(rr[:-1], rr[1:]):
                assert weighted.has_edge(int(parent), int(child))

    def test_root_always_first(self, weighted):
        generator = RRLTGenerator(weighted)
        rr = generator.generate(rng=3, root=7)
        assert rr[0] == 7

    def test_no_in_edges_gives_singleton(self):
        graph = path_digraph(3, probability=1.0)
        generator = RRLTGenerator(graph)
        rr = generator.generate(rng=4, root=0)
        assert rr.tolist() == [0]

    def test_full_weight_chain_walks_to_source(self):
        graph = path_digraph(4, probability=1.0)
        generator = RRLTGenerator(graph)
        rr = generator.generate(rng=5, root=3)
        assert rr.tolist() == [3, 2, 1, 0]

    def test_cycle_terminates(self):
        graph = cycle_digraph(5, probability=1.0)
        generator = RRLTGenerator(graph)
        rr = generator.generate(rng=6, root=0)
        # The reverse walk visits each cycle node at most once.
        assert rr.size <= 5
        assert len(set(rr.tolist())) == rr.size

    def test_batch_has_no_pinned_world_mode(self, weighted):
        # The walk draws raw uniforms, which a fixed world does not hold.
        world = sample_possible_world(weighted, rng=0)
        with pytest.raises(TypeError, match="pinned-world"):
            RRLTGenerator(weighted).generate_batch(
                0, roots=np.arange(3), world=world
            )


class TestActivationEquivalence:
    def test_rr_estimate_matches_lt_spread(self, weighted):
        """n * P[S hits a random RR-set] must equal sigma_LT(S)."""
        n = weighted.num_nodes
        seeds = {0, 5}
        generator = RRLTGenerator(weighted)
        gen = make_rng(7)
        draws = 6000
        hits = sum(
            bool(seeds & set(generator.generate(rng=gen).tolist()))
            for _ in range(draws)
        )
        rr_estimate = n * hits / draws
        gen = make_rng(8)
        mc = np.mean([
            float(simulate_lt(weighted, seeds, rng=gen).sum())
            for _ in range(6000)
        ])
        assert rr_estimate == pytest.approx(mc, rel=0.08)


class TestVanillaLT:
    def test_hub_selected_on_star(self):
        graph = star_digraph(25)  # each leaf's sole in-weight is 1 from hub
        seeds = vanilla_lt_seeds(graph, 1, options=TIMOptions(theta_override=800), rng=9)
        assert seeds == [0]

    def test_rank_order_length(self, weighted):
        seeds = vanilla_lt_seeds(
            weighted, 4, options=TIMOptions(theta_override=500), rng=10
        )
        assert len(seeds) == 4
        assert len(set(seeds)) == 4
