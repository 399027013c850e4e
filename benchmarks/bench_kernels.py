"""Micro-benchmarks of the library's hot kernels.

Not tied to one paper artifact; these quantify the building blocks that
every experiment above is made of (and guard against performance
regressions)."""

import numpy as np

from repro.algorithms import high_degree_seeds
from repro.datasets import load_dataset
from repro.models import GAP, simulate, simulate_ic
from repro.models.sources import CoinSource, WorldSource
from repro.rng import make_rng
from repro.rrset import (
    RRCimGenerator,
    RRICGenerator,
    RRSimGenerator,
    RRSimPlusGenerator,
    greedy_max_coverage,
)

GAPS_SIM = GAP(0.3, 0.8, 0.5, 0.5)
GAPS_CIM = GAP(0.1, 0.9, 0.5, 1.0)


def _graph(bench_scale):
    return load_dataset("flixster", scale=bench_scale.scale, rng=3)


def bench_comic_simulation(benchmark, bench_scale):
    graph = _graph(bench_scale)
    seeds = high_degree_seeds(graph, 5)
    gen = make_rng(0)
    outcome = benchmark(
        lambda: simulate(graph, GAPS_SIM, seeds, seeds[:2], source=CoinSource(gen))
    )
    assert outcome.num_a_adopted >= 1


def bench_ic_simulation_vectorized(benchmark, bench_scale):
    graph = _graph(bench_scale)
    seeds = high_degree_seeds(graph, 5)
    gen = make_rng(0)
    active = benchmark(lambda: simulate_ic(graph, seeds, rng=gen))
    assert active.sum() >= len(seeds)


def bench_rr_ic_generation(benchmark, bench_scale):
    graph = _graph(bench_scale)
    generator = RRICGenerator(graph)
    gen = make_rng(1)
    benchmark(lambda: generator.generate(rng=gen))


def bench_rr_sim_generation(benchmark, bench_scale):
    graph = _graph(bench_scale)
    generator = RRSimGenerator(graph, GAPS_SIM, high_degree_seeds(graph, 10))
    gen = make_rng(1)
    benchmark(lambda: generator.generate(rng=gen))


def bench_rr_sim_plus_generation(benchmark, bench_scale):
    graph = _graph(bench_scale)
    generator = RRSimPlusGenerator(graph, GAPS_SIM, high_degree_seeds(graph, 10))
    gen = make_rng(1)
    benchmark(lambda: generator.generate(rng=gen))


def bench_rr_cim_generation(benchmark, bench_scale):
    graph = _graph(bench_scale)
    generator = RRCimGenerator(graph, GAPS_CIM, high_degree_seeds(graph, 10))
    gen = make_rng(1)
    benchmark(lambda: generator.generate(rng=gen))


#: Batch size for the ``generate_batch`` kernels; per-RR-set cost is the
#: measured time divided by this.
BATCH = 512


def bench_rr_ic_generation_batched(benchmark, bench_scale):
    graph = _graph(bench_scale)
    generator = RRICGenerator(graph)
    gen = make_rng(1)
    pool = benchmark(lambda: generator.generate_batch(BATCH, rng=gen))
    assert len(pool) == BATCH


def bench_rr_sim_generation_batched(benchmark, bench_scale):
    graph = _graph(bench_scale)
    generator = RRSimGenerator(graph, GAPS_SIM, high_degree_seeds(graph, 10))
    gen = make_rng(1)
    pool = benchmark(lambda: generator.generate_batch(BATCH, rng=gen))
    assert len(pool) == BATCH


def bench_rr_sim_plus_generation_batched(benchmark, bench_scale):
    graph = _graph(bench_scale)
    generator = RRSimPlusGenerator(graph, GAPS_SIM, high_degree_seeds(graph, 10))
    gen = make_rng(1)
    pool = benchmark(lambda: generator.generate_batch(BATCH, rng=gen))
    assert len(pool) == BATCH


def bench_rr_cim_generation_batched(benchmark, bench_scale):
    graph = _graph(bench_scale)
    generator = RRCimGenerator(graph, GAPS_CIM, high_degree_seeds(graph, 10))
    gen = make_rng(1)
    pool = benchmark(lambda: generator.generate_batch(BATCH, rng=gen))
    assert len(pool) == BATCH


def bench_rr_lt_generation_batched(benchmark, bench_scale):
    from repro.models.lt import normalize_lt_weights
    from repro.rrset import RRLTGenerator

    graph = normalize_lt_weights(_graph(bench_scale))
    generator = RRLTGenerator(graph)
    gen = make_rng(1)
    pool = benchmark(lambda: generator.generate_batch(BATCH, rng=gen))
    assert len(pool) == BATCH


def bench_greedy_max_coverage(benchmark, bench_scale):
    graph = _graph(bench_scale)
    generator = RRICGenerator(graph)
    pool = generator.generate_batch(2000, rng=7)
    seeds, covered, _ = benchmark(
        lambda: greedy_max_coverage(pool, graph.num_nodes, 10)
    )
    assert covered > 0


def bench_world_source_alpha_lookup(benchmark):
    source = WorldSource(0)
    ids = np.arange(2000)

    def run():
        total = 0.0
        for v in ids:
            total += source.alpha(int(v), 0)
        return total

    benchmark(run)
