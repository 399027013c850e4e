"""Tests for GeneralTIM: coverage greedy, theta computation, end-to-end."""

import math

import numpy as np
import pytest

from repro.errors import SeedSetError
from repro.graph import DiGraph, star_digraph, path_digraph
from repro.rrset import RRICGenerator, TIMOptions, general_tim, greedy_max_coverage
from repro.rrset.tim import compute_theta, estimate_kpt, _log_n_choose_k


class TestGreedyMaxCoverage:
    def test_picks_max_cover(self):
        sets = [np.array([0, 1]), np.array([1, 2]), np.array([1]), np.array([3])]
        seeds, covered, gains = greedy_max_coverage(sets, n=4, k=1)
        assert seeds == [1]
        assert covered == 3
        assert gains == [3]

    def test_marginal_counting(self):
        sets = [np.array([0, 1]), np.array([0]), np.array([2]), np.array([2, 3])]
        seeds, covered, gains = greedy_max_coverage(sets, n=4, k=2)
        assert seeds[0] in (0, 2)
        assert covered == 4
        assert gains == [2, 2]

    def test_more_seeds_than_useful(self):
        sets = [np.array([0])]
        seeds, covered, gains = greedy_max_coverage(sets, n=3, k=3)
        assert covered == 1
        assert len(seeds) == 3
        assert len(set(seeds)) == 3  # never repeats a node

    def test_empty_sets(self):
        seeds, covered, gains = greedy_max_coverage([], n=3, k=2)
        assert covered == 0

    def test_negative_k_rejected(self):
        with pytest.raises(SeedSetError):
            greedy_max_coverage([], n=3, k=-1)


class TestCandidateRestrictedGreedy:
    SETS = [
        np.array([0, 1]), np.array([1, 2]), np.array([1]),
        np.array([3]), np.array([2, 3]),
    ]

    def test_restriction_confines_picks(self):
        seeds, covered, gains = greedy_max_coverage(
            self.SETS, n=4, k=2, candidates=[0, 2, 3]
        )
        assert 1 not in seeds  # the unrestricted winner is masked out
        assert set(seeds) <= {0, 2, 3}
        assert covered == sum(gains)

    def test_matches_legacy_with_candidates(self):
        from tests.rrset._greedy_reference import greedy_max_coverage_legacy

        rng = np.random.default_rng(3)
        sets = [
            rng.choice(30, size=rng.integers(0, 6), replace=False)
            for _ in range(200)
        ]
        candidates = list(range(0, 30, 2))
        assert greedy_max_coverage(
            sets, n=30, k=5, candidates=candidates
        ) == greedy_max_coverage_legacy(
            sets, n=30, k=5, candidates=candidates
        )

    def test_returns_at_most_candidate_count(self):
        seeds, _, _ = greedy_max_coverage(
            self.SETS, n=4, k=3, candidates=[1, 2]
        )
        assert len(seeds) == 2
        assert len(set(seeds)) == 2

    def test_out_of_range_candidates_rejected(self):
        with pytest.raises(SeedSetError, match="candidate"):
            greedy_max_coverage(self.SETS, n=4, k=1, candidates=[7])

    def test_general_tim_threads_candidates(self):
        graph = star_digraph(6, probability=1.0)
        generator = RRICGenerator(graph)
        result = general_tim(
            generator, 1, options=TIMOptions(theta_override=300),
            rng=1, candidates=[1, 2, 3, 4, 5],
        )
        # The center always wins unrestricted; masked out, a leaf is picked.
        assert result.seeds[0] != 0
        assert result.seeds[0] in {1, 2, 3, 4, 5}


class TestTheta:
    def test_log_n_choose_k(self):
        assert _log_n_choose_k(10, 3) == pytest.approx(math.log(120))
        assert _log_n_choose_k(5, 0) == pytest.approx(0.0)

    def test_theta_decreases_with_kpt(self):
        t1 = compute_theta(1000, 10, kpt=1.0, epsilon=0.5, ell=1.0)
        t2 = compute_theta(1000, 10, kpt=100.0, epsilon=0.5, ell=1.0)
        assert t2 < t1

    def test_theta_decreases_with_epsilon(self):
        t1 = compute_theta(1000, 10, kpt=10.0, epsilon=0.1, ell=1.0)
        t2 = compute_theta(1000, 10, kpt=10.0, epsilon=1.0, ell=1.0)
        assert t2 < t1
        # Eq. (3) scales as 1/eps^2 (modulo the (8 + 2 eps) factor).
        assert t1 / t2 > 50

    def test_kpt_at_least_one(self):
        generator = RRICGenerator(path_digraph(4, probability=0.1))
        assert estimate_kpt(generator, 1, rng=0) >= 1.0


class TestGeneralTIM:
    def test_star_center_wins(self):
        """On an outward star under IC, the centre covers every RR-set."""
        graph = star_digraph(30)
        result = general_tim(
            RRICGenerator(graph), 1,
            options=TIMOptions(theta_override=400), rng=0,
        )
        assert result.seeds == [0]
        assert result.theta == 400
        # The centre is in every RR-set, so the estimate is the full graph.
        assert result.estimated_objective == pytest.approx(30.0, rel=0.05)

    def test_disconnected_components_get_one_seed_each(self):
        # Two disjoint deterministic paths: optimal k=2 picks both heads.
        edges = [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)]
        graph = DiGraph.from_edges(6, edges)
        result = general_tim(
            RRICGenerator(graph), 2,
            options=TIMOptions(theta_override=600), rng=1,
        )
        assert sorted(result.seeds) == [0, 3]

    def test_k_zero(self):
        result = general_tim(
            RRICGenerator(path_digraph(4)), 0,
            options=TIMOptions(theta_override=50), rng=0,
        )
        assert result.seeds == []
        assert result.coverage == 0

    def test_k_out_of_range(self):
        with pytest.raises(SeedSetError):
            general_tim(RRICGenerator(path_digraph(3)), 9, rng=0)

    def test_estimation_path_runs(self):
        graph = star_digraph(20)
        result = general_tim(
            RRICGenerator(graph), 1,
            options=TIMOptions(epsilon=1.0, max_rr_sets=800), rng=2,
        )
        assert result.seeds == [0]
        assert result.theta <= 800

    def test_options_validation(self):
        with pytest.raises(ValueError):
            TIMOptions(epsilon=0.0)
        with pytest.raises(ValueError):
            TIMOptions(ell=-1.0)
        with pytest.raises(ValueError):
            TIMOptions(max_rr_sets=0)

    def test_marginal_coverage_monotone_decreasing(self):
        graph = star_digraph(15)
        result = general_tim(
            RRICGenerator(graph), 3,
            options=TIMOptions(theta_override=300), rng=3,
        )
        gains = result.marginal_coverage
        assert all(gains[i] >= gains[i + 1] for i in range(len(gains) - 1))
