"""End-to-end tests for the SelfInfMax and CompInfMax solvers."""

import pytest

from repro.api import ComICSession, CompInfMaxQuery, EngineConfig, SelfInfMaxQuery
from repro.errors import RegimeError, SeedSetError
from repro.graph import DiGraph, star_digraph, weighted_cascade_probabilities, power_law_digraph
from repro.models import GAP, estimate_boost, estimate_spread
from repro.algorithms import random_seeds, theorem2_optimal_b_seeds
from repro.rrset import TIMOptions

FAST = TIMOptions(theta_override=1200)


def small_network() -> "DiGraph":
    return weighted_cascade_probabilities(power_law_digraph(150, rng=5))


def run(graph, gaps, query, *, options=FAST, rng=None):
    session = ComICSession(
        graph, gaps, config=EngineConfig.from_tim_options(options), rng=rng
    )
    return session.run(query)


class TestSolveSelfInfMax:
    def test_submodular_regime_single_run(self):
        graph = small_network()
        gaps = GAP(0.3, 0.8, 0.5, 0.5)
        result = run(graph, gaps, SelfInfMaxQuery(seeds_b=(0,), k=3), rng=0)
        assert result.method == "submodular"
        assert len(result.seeds) == 3
        assert "sigma" in result.raw.tim_results

    def test_sandwich_regime(self):
        graph = small_network()
        gaps = GAP(0.3, 0.8, 0.4, 0.9)
        result = run(
            graph, gaps,
            SelfInfMaxQuery(seeds_b=(0,), k=3, evaluation_runs=80), rng=0,
        )
        assert result.method == "sandwich"
        assert set(result.raw.tim_results) == {"nu", "mu"}
        assert result.raw.sandwich is not None
        assert result.raw.sandwich.winner in ("nu", "mu")

    def test_rejects_non_q_plus(self):
        with pytest.raises(RegimeError):
            run(
                small_network(), GAP(0.8, 0.3, 0.5, 0.5),
                SelfInfMaxQuery(seeds_b=(0,), k=2),
            )

    def test_beats_random_seeds(self):
        graph = small_network()
        gaps = GAP(0.3, 0.8, 0.5, 0.5)
        seeds_b = random_seeds(graph, 5, rng=1)
        result = run(
            graph, gaps, SelfInfMaxQuery(seeds_b=tuple(seeds_b), k=5), rng=2
        )
        ours = estimate_spread(graph, gaps, result.seeds, seeds_b, runs=300, rng=3)
        rand = estimate_spread(
            graph, gaps, random_seeds(graph, 5, rng=4), seeds_b, runs=300, rng=3
        )
        assert ours.mean > rand.mean

    def test_greedy_candidate_included(self):
        graph = star_digraph(12)
        gaps = GAP(0.3, 0.8, 0.4, 0.9)
        result = run(
            graph, gaps,
            SelfInfMaxQuery(
                seeds_b=(1,), k=1, include_greedy_candidate=True,
                greedy_runs=20, evaluation_runs=50,
            ),
            options=TIMOptions(theta_override=200), rng=0,
        )
        assert "sigma" in result.raw.sandwich.evaluations


class TestSolveCompInfMax:
    def test_submodular_regime_single_run(self):
        graph = small_network()
        gaps = GAP(0.2, 0.9, 0.5, 1.0)
        result = run(graph, gaps, CompInfMaxQuery(seeds_a=(0, 1), k=3), rng=0)
        assert result.method == "submodular"
        assert len(result.seeds) == 3

    def test_sandwich_regime(self):
        graph = small_network()
        gaps = GAP(0.2, 0.9, 0.5, 0.9)
        result = run(
            graph, gaps,
            CompInfMaxQuery(seeds_a=(0, 1), k=3, evaluation_runs=80), rng=0,
        )
        assert result.method == "sandwich"
        assert result.raw.sandwich is not None

    def test_rejects_non_q_plus(self):
        with pytest.raises(RegimeError):
            run(
                small_network(), GAP(0.8, 0.3, 0.5, 1.0),
                CompInfMaxQuery(seeds_a=(0,), k=2),
            )

    def test_boost_beats_random(self):
        graph = small_network()
        gaps = GAP(0.1, 0.9, 0.5, 1.0)
        seeds_a = random_seeds(graph, 5, rng=7)
        result = run(
            graph, gaps, CompInfMaxQuery(seeds_a=tuple(seeds_a), k=5), rng=8
        )
        ours = estimate_boost(graph, gaps, seeds_a, result.seeds, runs=300, rng=9)
        rand = estimate_boost(
            graph, gaps, seeds_a, random_seeds(graph, 5, rng=10), runs=300, rng=9
        )
        assert ours.mean >= rand.mean


class TestTheorem2:
    def test_copying_is_optimal_when_qb_is_one(self):
        """q_{B|∅} = 1 and k >= |S_A|: S_B = S_A ∪ X is optimal (Theorem 2).
        Verified by exhaustive comparison on a small instance."""
        import itertools

        from repro.models import exact_spread

        graph = DiGraph.from_edges(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
        )
        gaps = GAP(q_a=0.4, q_a_given_b=0.9, q_b=1.0, q_b_given_a=1.0)
        seeds_a = [0]
        k = 1
        copying_value, _ = exact_spread(graph, gaps, seeds_a, seeds_a)
        for candidate in itertools.combinations(range(4), k):
            value, _ = exact_spread(graph, gaps, seeds_a, list(candidate))
            assert value <= copying_value + 1e-9

    def test_helper_returns_superset_of_seeds_a(self):
        graph = star_digraph(10)
        seeds = theorem2_optimal_b_seeds(graph, [2, 5], 4, rng=0)
        assert set(seeds) >= {2, 5}
        assert len(seeds) == 4
        assert len(set(seeds)) == 4

    def test_helper_rejects_small_k(self):
        with pytest.raises(SeedSetError):
            theorem2_optimal_b_seeds(star_digraph(5), [0, 1, 2], 2)
