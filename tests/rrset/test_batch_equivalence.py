"""Batched fast paths vs. the per-root oracle.

Three layers of evidence that ``generate_batch`` samples the same RR-set
distribution as ``generate``:

* **Fixed-world equality** — with one pinned possible world, batch and
  oracle must return *identical* sets for every root (no randomness left).
* **Deterministic regimes** — probability-0/1 edges and GAP values in
  {0, 1} make the RR-set a deterministic function of the root.
* **Aggregate frequencies** — on random graphs, per-node inclusion
  frequencies and mean set sizes of the two paths must agree within
  binomial tolerance (fixed seeds; deterministic test).

Plus: the pooled greedy must match the legacy list implementation
exactly, including the ``gain == 0`` branch that must never repeat a
seed.
"""

import numpy as np
import pytest

from repro.graph import DiGraph, path_digraph, star_digraph
from repro.graph.generators import power_law_digraph
from repro.models import GAP
from repro.models.lt import normalize_lt_weights
from repro.models.possible_world import (
    FrozenWorldSource,
    PossibleWorld,
    sample_possible_world,
)
from repro.rng import make_rng
from repro.rrset import (
    RRCimGenerator,
    RRICGenerator,
    RRLTGenerator,
    RRSetPool,
    RRSimGenerator,
    RRSimPlusGenerator,
    greedy_max_coverage,
)
from repro.rrset.rr_cim import forward_label_a_status
from tests.rrset._greedy_reference import greedy_max_coverage_legacy

GAPS_ONE_WAY = GAP(q_a=0.3, q_a_given_b=0.8, q_b=0.5, q_b_given_a=0.5)
GAPS_CIM = GAP(q_a=0.3, q_a_given_b=0.8, q_b=0.5, q_b_given_a=1.0)


def pinned_world(graph, alpha_a, alpha_b, live=None):
    """An all-live possible world with the given thresholds (RR-CIM case
    gadgets pin each node's label through its alpha values)."""
    n, m = graph.num_nodes, graph.num_edges
    return PossibleWorld(
        live=np.ones(m, dtype=bool) if live is None else np.asarray(live),
        priority=np.linspace(0.05, 0.95, max(m, 1))[:m],
        alpha_a=np.asarray(alpha_a, dtype=float),
        alpha_b=np.asarray(alpha_b, dtype=float),
        tau_a_first=np.ones(n, dtype=bool),
    )


@pytest.fixture(scope="module")
def random_graph() -> DiGraph:
    return power_law_digraph(120, average_degree=4.0, probability=0.4, rng=5)


def _as_sorted_sets(pool_or_list):
    return [sorted(np.asarray(rr).tolist()) for rr in pool_or_list]


class TestFixedWorldEquality:
    def test_rr_ic_matches_oracle(self, random_graph):
        world = sample_possible_world(random_graph, rng=3)
        generator = RRICGenerator(random_graph)
        roots = np.arange(random_graph.num_nodes)
        pool = generator.generate_batch(0, roots=roots, world=world, rng=0)
        oracle = [
            generator.generate(rng=0, root=int(r), world=FrozenWorldSource(world))
            for r in roots
        ]
        assert _as_sorted_sets(pool) == _as_sorted_sets(oracle)

    def test_rr_sim_matches_oracle(self, random_graph):
        world = sample_possible_world(random_graph, rng=9)
        generator = RRSimGenerator(random_graph, GAPS_ONE_WAY, [0, 3, 7])
        roots = np.arange(random_graph.num_nodes)
        pool = generator.generate_batch(0, roots=roots, world=world, rng=0)
        oracle = [
            generator.generate(rng=0, root=int(r), world=FrozenWorldSource(world))
            for r in roots
        ]
        assert _as_sorted_sets(pool) == _as_sorted_sets(oracle)

    @pytest.mark.parametrize("world_seed", [3, 9, 21])
    def test_rr_cim_matches_oracle(self, random_graph, world_seed):
        world = sample_possible_world(random_graph, rng=world_seed)
        generator = RRCimGenerator(random_graph, GAPS_CIM, [0, 3, 7])
        roots = np.arange(random_graph.num_nodes)
        pool = generator.generate_batch(0, roots=roots, world=world, rng=0)
        frozen = FrozenWorldSource(world)
        labels = forward_label_a_status(random_graph, frozen, GAPS_CIM, [0, 3, 7])
        oracle = [
            generator.generate(rng=0, root=int(r), world=frozen, labels=labels)
            for r in roots
        ]
        assert _as_sorted_sets(pool) == _as_sorted_sets(oracle)

    def test_rr_sim_plus_matches_oracle(self, random_graph):
        world = sample_possible_world(random_graph, rng=13)
        generator = RRSimPlusGenerator(random_graph, GAPS_ONE_WAY, [0, 3, 7])
        roots = np.arange(random_graph.num_nodes)
        pool = generator.generate_batch(0, roots=roots, world=world, rng=0)
        oracle = [
            generator.generate(rng=0, root=int(r), world=FrozenWorldSource(world))
            for r in roots
        ]
        assert _as_sorted_sets(pool) == _as_sorted_sets(oracle)

    def test_rr_cim_precomputed_labels_match_fresh(self, random_graph):
        # The labels= fast lane must be a pure cache: identical output to
        # recomputing the forward pass inside every call.
        world = sample_possible_world(random_graph, rng=4)
        generator = RRCimGenerator(random_graph, GAPS_CIM, [0, 3, 7])
        frozen = FrozenWorldSource(world)
        labels = forward_label_a_status(random_graph, frozen, GAPS_CIM, [0, 3, 7])
        for root in range(0, random_graph.num_nodes, 7):
            with_cache = generator.generate(
                rng=0, root=root, world=frozen, labels=labels
            )
            without = generator.generate(rng=0, root=root, world=frozen)
            assert sorted(with_cache.tolist()) == sorted(without.tolist())


class TestRRCimCaseGadgets:
    """Batch equality on the deterministic worlds that isolate each case
    of Algorithm 4 (mirrors the oracle gadgets in test_rr_generators)."""

    def _batch_vs_oracle(self, graph, world, seeds_a, roots):
        generator = RRCimGenerator(graph, GAPS_CIM, seeds_a)
        pool = generator.generate_batch(
            0, roots=np.asarray(roots, dtype=np.int64), world=world, rng=0
        )
        frozen = FrozenWorldSource(world)
        oracle = [
            generator.generate(rng=0, root=int(r), world=frozen) for r in roots
        ]
        assert _as_sorted_sets(pool) == _as_sorted_sets(oracle)
        return pool

    def test_case1_secondary_search_collects_b_feeders(self):
        # B feeder chain 3 -> 2 -> root 1; A chain 0 -> 1; root suspended
        # and AB-diffusible, so the secondary search must pull in 2, 3 and
        # the A-seed 0.
        graph = DiGraph.from_edges(4, [(0, 1, 1.0), (2, 1, 1.0), (3, 2, 1.0)])
        world = pinned_world(
            graph, alpha_a=[0.0, 0.5, 0.9, 0.9], alpha_b=[0.0, 0.2, 0.2, 0.9]
        )
        pool = self._batch_vs_oracle(graph, world, [0], range(4))
        assert sorted(pool[1].tolist()) == [0, 1, 2, 3]

    def test_case2_not_ab_diffusible_only_root(self):
        # Root suspended but not AB-diffusible: only a B-seed at the root
        # itself can unlock it.
        graph = DiGraph.from_edges(3, [(0, 1, 1.0), (2, 1, 1.0)])
        world = pinned_world(
            graph, alpha_a=[0.0, 0.5, 0.9], alpha_b=[0.0, 0.9, 0.2]
        )
        pool = self._batch_vs_oracle(graph, world, [0], range(3))
        assert pool[1].tolist() == [1]

    def test_case4_zigzag(self):
        # Figure-3-style gadget: a(0) -> u0(1); u0 <-> u(2); u -> v(3).
        # u is potential and not AB-diffusible, but seeding B at u unlocks
        # the suspended u0 which zig-zags A+B back through u to v.
        graph = DiGraph.from_edges(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0)]
        )
        world = pinned_world(
            graph, alpha_a=[0.0, 0.5, 0.5, 0.1], alpha_b=[0.0, 0.2, 0.9, 0.2]
        )
        pool = self._batch_vs_oracle(graph, world, [0], range(4))
        assert 2 in pool[3].tolist()

    def test_case4_zigzag_failure_is_excluded(self):
        # Same gadget but u0's alpha_B fails: u0 is no longer B-diffusible
        # from u, the zig-zag dies, and u must stay out of the RR-set.
        graph = DiGraph.from_edges(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0)]
        )
        world = pinned_world(
            graph, alpha_a=[0.0, 0.5, 0.5, 0.1], alpha_b=[0.0, 0.9, 0.9, 0.2]
        )
        pool = self._batch_vs_oracle(graph, world, [0], range(4))
        assert 2 not in pool[3].tolist()


class TestDeterministicRegimes:
    def test_rr_ic_deterministic_path(self):
        graph = path_digraph(6, probability=1.0)
        pool = RRICGenerator(graph).generate_batch(0, roots=np.arange(6), rng=0)
        for root in range(6):
            assert sorted(pool[root].tolist()) == list(range(root + 1))

    def test_rr_ic_dead_edges(self):
        graph = path_digraph(5, probability=0.0)
        pool = RRICGenerator(graph).generate_batch(0, roots=np.arange(5), rng=0)
        assert _as_sorted_sets(pool) == [[r] for r in range(5)]

    def test_rr_sim_full_adoption_equals_ancestors(self):
        # q values of 1 make every node expandable: the RR-set is the full
        # live-edge ancestor set, independent of B.
        graph = path_digraph(6, probability=1.0)
        gaps = GAP(q_a=1.0, q_a_given_b=1.0, q_b=1.0, q_b_given_a=1.0)
        generator = RRSimGenerator(graph, gaps, [0])
        pool = generator.generate_batch(0, roots=np.arange(6), rng=0)
        for root in range(6):
            assert sorted(pool[root].tolist()) == list(range(root + 1))

    def test_rr_sim_zero_adoption_is_root_only(self):
        graph = star_digraph(8, probability=1.0)
        gaps = GAP(q_a=0.0, q_a_given_b=0.0, q_b=1.0, q_b_given_a=1.0)
        generator = RRSimGenerator(graph, gaps, [0])
        roots = np.arange(8)
        pool = generator.generate_batch(0, roots=roots, rng=1)
        assert _as_sorted_sets(pool) == [[r] for r in range(8)]


class TestAggregateFrequencies:
    N_SAMPLES = 4000
    # Binomial noise on an inclusion frequency is ~sqrt(0.25 / N) per path;
    # 0.05 is ~4.5 sigma for the difference of two paths at N=4000.
    TOLERANCE = 0.05

    def _frequency_gap(self, generator, n):
        oracle_freq = np.zeros(n)
        for rr in generator.generate_many(self.N_SAMPLES, rng=11):
            oracle_freq[rr] += 1
        pool = generator.generate_batch(self.N_SAMPLES, rng=22)
        batch_freq = np.bincount(pool.nodes, minlength=n).astype(np.float64)
        return np.abs(oracle_freq - batch_freq).max() / self.N_SAMPLES

    def test_rr_ic_inclusion_frequencies(self, random_graph):
        gap = self._frequency_gap(RRICGenerator(random_graph), random_graph.num_nodes)
        assert gap < self.TOLERANCE

    def test_rr_sim_inclusion_frequencies(self, random_graph):
        generator = RRSimGenerator(random_graph, GAPS_ONE_WAY, [0, 3, 7])
        gap = self._frequency_gap(generator, random_graph.num_nodes)
        assert gap < self.TOLERANCE

    def test_rr_cim_inclusion_frequencies(self, random_graph):
        generator = RRCimGenerator(random_graph, GAPS_CIM, [0, 3, 7])
        gap = self._frequency_gap(generator, random_graph.num_nodes)
        assert gap < self.TOLERANCE

    def test_rr_sim_plus_inclusion_frequencies(self, random_graph):
        generator = RRSimPlusGenerator(random_graph, GAPS_ONE_WAY, [0, 3, 7])
        gap = self._frequency_gap(generator, random_graph.num_nodes)
        assert gap < self.TOLERANCE

    def test_rr_lt_inclusion_frequencies(self, random_graph):
        generator = RRLTGenerator(normalize_lt_weights(random_graph))
        gap = self._frequency_gap(generator, random_graph.num_nodes)
        assert gap < self.TOLERANCE

    def test_rr_lt_deterministic_path_walks_to_source(self):
        # Unit weights on a path: the triggering selection is certain, so
        # every batch RR-set must be the full ancestor chain.
        graph = path_digraph(6, probability=1.0)
        pool = RRLTGenerator(graph).generate_batch(0, roots=np.arange(6), rng=0)
        for root in range(6):
            assert sorted(pool[root].tolist()) == list(range(root + 1))

    def test_rr_sim_duplicate_b_seeds_not_double_expanded(self):
        # Regression: a duplicated B-seed must flip each out-edge coin once,
        # like the oracle's frontier dedupe — not once per occurrence.  On
        # edge 0 -> 1 with p = 0.5 and q_B = 1, P[1 is B-adopted] is one
        # liveness coin, 0.5; double expansion would give 1 - 0.25 = 0.75.
        # The always-live edge 2 -> 1 witnesses B-adoption independently of
        # that shared coin: |RR(1)| >= 2 iff node 1 was B-adopted (then its
        # threshold is q_a_given_b = 1 and node 2 always joins).
        graph = DiGraph.from_edges(3, [(0, 1, 0.5), (2, 1, 1.0)])
        gaps = GAP(q_a=0.0, q_a_given_b=1.0, q_b=1.0, q_b_given_a=1.0)
        generator = RRSimGenerator(graph, gaps, [0, 0])
        samples = 4000
        pool = generator.generate_batch(
            0, roots=np.full(samples, 1, dtype=np.int64), rng=13
        )
        fraction_b_adopted = (pool.lengths >= 2).mean()
        assert fraction_b_adopted == pytest.approx(0.5, abs=0.035)

    def test_batch_respects_out_pool_and_count(self, random_graph):
        generator = RRICGenerator(random_graph)
        pool = RRSetPool(random_graph.num_nodes)
        generator.generate_batch(10, rng=0, out=pool)
        generator.generate_batch(15, rng=1, out=pool)
        assert len(pool) == 25


class TestPooledGreedyParity:
    def _random_sets(self, rng, n=60, count=400):
        gen = make_rng(rng)
        return [
            np.unique(gen.integers(0, n, size=int(gen.integers(1, 9))))
            for _ in range(count)
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_legacy_on_random_inputs(self, seed):
        sets = self._random_sets(seed)
        pooled = greedy_max_coverage(sets, 60, 12)
        legacy = greedy_max_coverage_legacy(sets, 60, 12)
        assert pooled == legacy

    def test_matches_legacy_from_pool_object(self):
        sets = self._random_sets(7)
        pool = RRSetPool.from_sets(60, sets)
        assert greedy_max_coverage(pool, 60, 5) == greedy_max_coverage_legacy(sets, 60, 5)

    def test_matches_legacy_on_generated_pool(self):
        graph = power_law_digraph(80, average_degree=4.0, probability=0.3, rng=2)
        pool = RRICGenerator(graph).generate_batch(800, rng=3)
        pooled = greedy_max_coverage(pool, 80, 8)
        legacy = greedy_max_coverage_legacy(list(pool), 80, 8)
        assert pooled == legacy

    def test_k_exceeding_coverable_nodes_never_repeats(self):
        # Regression for the gain == 0 / counts[best] = -1 branch: only two
        # distinct nodes are coverable but k asks for five seeds.
        sets = [np.array([1]), np.array([1]), np.array([4])]
        seeds, covered, gains = greedy_max_coverage(sets, 6, 5)
        assert covered == 3
        assert len(seeds) == 5
        assert len(set(seeds)) == 5  # no node picked twice
        assert seeds[:2] == [1, 4]
        assert gains[2:] == [0, 0, 0]
        assert greedy_max_coverage_legacy(sets, 6, 5) == (seeds, covered, gains)

    def test_empty_pool(self):
        pool = RRSetPool(4)
        seeds, covered, gains = greedy_max_coverage(pool, 4, 2)
        assert covered == 0
        assert len(seeds) == 2
        assert len(set(seeds)) == 2
