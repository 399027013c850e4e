"""Tests for appendix-B.4 influence blocking: the MC objective and the
CELF greedy a :class:`BlockingQuery` runs under mutual competition."""

import pytest

from repro.api import BlockingQuery, ComICSession
from repro.errors import RegimeError
from repro.graph import DiGraph, path_digraph, star_digraph
from repro.models import GAP, exact_spread
from repro.algorithms.blocking import estimate_suppression

COMPETITIVE = GAP(q_a=0.8, q_a_given_b=0.0, q_b=1.0, q_b_given_a=0.0)


def blocking_seeds(graph, gaps, seeds_a, k, *, rng=None, **query_fields):
    session = ComICSession(graph, gaps, rng=rng)
    return session.run(
        BlockingQuery(seeds_a=tuple(seeds_a), k=k, **query_fields)
    ).seeds


class TestEstimateSuppression:
    def test_matches_exact_difference(self):
        graph = path_digraph(4, probability=0.8)
        base, _ = exact_spread(graph, COMPETITIVE, [0], [])
        blocked, _ = exact_spread(graph, COMPETITIVE, [0], [1])
        est = estimate_suppression(graph, COMPETITIVE, [0], [1], runs=3000, rng=0)
        assert est.mean == pytest.approx(base - blocked, abs=5 * est.stderr + 1e-9)

    def test_nonnegative_under_competition(self):
        graph = star_digraph(8)
        est = estimate_suppression(graph, COMPETITIVE, [0], [1, 2], runs=300, rng=1)
        assert est.mean >= -1e-9

    def test_zero_without_b_seeds(self):
        graph = path_digraph(3)
        est = estimate_suppression(graph, COMPETITIVE, [0], [], runs=50, rng=2)
        assert est.mean == pytest.approx(0.0)

    def test_paired_variance_lower(self):
        graph = path_digraph(6, probability=0.7)
        paired = estimate_suppression(
            graph, COMPETITIVE, [0], [2], runs=600, rng=3, paired=True
        )
        unpaired = estimate_suppression(
            graph, COMPETITIVE, [0], [2], runs=600, rng=3, paired=False
        )
        assert paired.std <= unpaired.std


class TestGreedyBlocking:
    def test_requires_competition(self):
        with pytest.raises(RegimeError):
            blocking_seeds(path_digraph(3), GAP(0.3, 0.8, 0.5, 0.9), [0], 1)

    def test_blocks_the_choke_point(self):
        """A path 0 -> 1 -> 2 -> 3: seeding B at node 1 chokes A's spread
        the most (it rejects A and stops relaying it)."""
        graph = path_digraph(4)
        seeds = blocking_seeds(
            graph, COMPETITIVE, [0], 1, runs=150, rng=0, candidates=(1, 2, 3)
        )
        assert seeds == [1]

    def test_beats_random_blocker(self):
        graph = DiGraph.from_edges(
            7,
            [
                (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                (0, 4, 1.0), (4, 5, 1.0), (5, 6, 1.0),
            ],
        )
        chosen = blocking_seeds(
            graph, COMPETITIVE, [0], 2, runs=150, rng=1, candidates=(1, 3, 4, 6)
        )
        ours = estimate_suppression(
            graph, COMPETITIVE, [0], chosen, runs=800, rng=2
        ).mean
        worst = estimate_suppression(
            graph, COMPETITIVE, [0], [3, 6], runs=800, rng=2
        ).mean
        assert ours > worst
