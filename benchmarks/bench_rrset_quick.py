"""Standalone batched RR-set engine benchmark -> BENCH_rrset.json.

Quantifies the batched-engine acceptance numbers on a ~10k-node synthetic
power-law graph, without pytest-benchmark so CI can run it with numpy
alone:

* per-RR-set generation cost, per-root oracle vs ``generate_batch``, for
  **every fast-path regime**: RR-IC, RR-SIM, RR-SIM+, RR-CIM, RR-LT and
  RR-Block;
* end-to-end SelfInfMax *and* CompInfMax via ``general_imm`` at equal
  ``eps``, batched engine vs oracle-forced generation, with RR-estimated
  objectives of both seed sets to confirm quality parity;
* end-to-end influence blocking through ``BlockingQuery``: the RR-Block
  route vs the Monte-Carlo CELF greedy on the same candidate pool, with
  MC-evaluated suppression of both seed sets to confirm quality parity.
  Its ``speedup_floor`` is gated like the generation rows, so a silent
  fallback to the MC path turns CI red;
* multiprocess generation (``parallel.generation``): ``workers=2``
  :class:`~repro.parallel.ParallelEngine` vs the serial batched kernel
  on the same regime.  Gated at a 1.5x floor — but only on runners with
  at least 2 CPUs (a single-core box cannot demonstrate parallel
  speedup; the row is still recorded with ``"gated": false``);
* persistent warm start (``store.warm_start``): a second session
  answering the same SelfInfMax query out of an on-disk
  :class:`~repro.store.PoolStore`.  Gated on ``warm_rr_sets_sampled ==
  0`` and seed equality — a silent cache-key/fingerprint mismatch that
  forces resampling turns CI red;
* dynamic-graph delta repair (``dynamic.update_then_query``): a
  ``track_touches`` session absorbs a sparse reweight
  :class:`~repro.graph.GraphDelta` via incremental pool repair and
  re-answers the query, vs fingerprint invalidation (a fresh session on
  the mutated graph resampling from scratch).  Gated on the repair
  route's speedup floor, on ``pools_repaired >= 1`` (a silent fallback
  to full regeneration turns CI red even if it happens to be fast) and
  on RR-evaluated seed-quality parity between the two routes.

* million-node sparse sweeps (``scale.1m_generation``, only with
  ``--scale-graph PATH``): RR-IC ``generate_batch`` on a SNAP-style
  edge-list graph, sparse chunk state vs the dense flat-array backend.
  Gated (on 1M+-node graphs) on a 2x wall-clock floor, on the sparse
  chunk sustaining >= 256 members within the default state budget while
  dense collapses to <= 16, and on member-multiset equality between the
  backends under a common chunk schedule (the chunk schedule fixes the
  coin-draw order, so equal schedules must give bit-identical pools).

The emitted JSON follows the stable schema documented in
``docs/benchmarks.md`` (``schema_version`` 6).  Each generation entry
records a ``speedup_floor``; the script exits non-zero when any regime's
measured batch-vs-oracle speedup falls below its floor, so a silent
fallback to the oracle loop turns CI red instead of just slowing users
down.

Usage::

    PYTHONPATH=src python benchmarks/bench_rrset_quick.py [--quick] \
        [--nodes 10000] [--output BENCH_rrset.json] \
        [--scale-graph edge_list.txt]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from repro.api import (
    BlockingQuery,
    ComICSession,
    EngineConfig,
    GraphDelta,
    SelfInfMaxQuery,
)
from repro.parallel import ParallelEngine
from repro.algorithms.baselines import high_degree_seeds
from repro.algorithms.blocking import estimate_suppression
from repro.graph.generators import power_law_digraph
from repro.models.gaps import GAP
from repro.models.lt import normalize_lt_weights
from repro.rrset import (
    IMMOptions,
    RRBlockGenerator,
    RRCimGenerator,
    RRICGenerator,
    RRLTGenerator,
    RRSimGenerator,
    RRSimPlusGenerator,
    general_imm,
    rr_estimate_objective,
)
from repro.rrset.base import RRSetGenerator
from repro.rrset.sweep import SweepConfig

SCHEMA_VERSION = 6

GAPS_SIM = GAP(q_a=0.3, q_a_given_b=0.75, q_b=0.5, q_b_given_a=0.5)
GAPS_CIM = GAP(q_a=0.3, q_a_given_b=0.75, q_b=0.5, q_b_given_a=1.0)
GAPS_BLOCK = GAP(q_a=0.6, q_a_given_b=0.1, q_b=0.7, q_b_given_a=0.7)

#: Regression floors for the batch-vs-oracle generation speedup per
#: regime.  Deliberately far below the typically measured numbers (CI
#: runners are noisy); a miss means the fast path regressed or silently
#: fell back to the oracle loop.
SPEEDUP_FLOORS = {
    "rr_ic": 4.0,
    "rr_sim": 2.0,
    "rr_sim_plus": 2.0,
    "rr_cim": 2.0,
    "rr_lt": 4.0,
    "rr_block": 2.0,
}

#: Floor for the end-to-end RR-vs-MC blocking speedup: typically >= 5x,
#: gated at 3x for runner noise.  A miss means the RR route regressed or
#: the query silently fell back to MC CELF.
BLOCKING_SPEEDUP_FLOOR = 3.0

#: Floor for the workers=2 parallel-vs-serial generation speedup
#: (ideal 2x; IPC + merge overhead budgeted).  Applied only when the
#: runner actually has >= 2 CPUs.
PARALLEL_SPEEDUP_FLOOR = 1.5
PARALLEL_WORKERS = 2

#: Floor for delta repair + requery vs fingerprint-invalidate +
#: regenerate at sparse churn (typically >= 10x on the default graph;
#: gated at 5x for runner noise).  A miss means repair stopped being
#: surgical — e.g. affectedness got broader or a hot path regressed.
DYNAMIC_SPEEDUP_FLOOR = 5.0
#: Sparse edit batch: a handful of reweights, far below any plausible
#: churn threshold, the regime delta repair exists for.
DYNAMIC_NUM_EDITS = 4
#: Relative band for repaired-vs-regenerated seed-quality parity.
DYNAMIC_PARITY_BAND = 0.15

#: Floor for sparse-vs-dense chunk-state generation at million-node
#: scale (typically >= 5x; gated at 2x for runner noise).  A miss means
#: the sparse backend stopped paying for itself where it matters most.
SCALE_SPEEDUP_FLOOR = 2.0
#: The scale row is informational below this node count — a smaller
#: graph cannot demonstrate the dense chunk collapse being measured.
SCALE_MIN_NODES = 1_000_000
#: RR-sets per timed scale run.
SCALE_COUNT = 512
#: Sparse chunks must sustain at least this many members within the
#: default state budget (dense must be at or below the degenerate 16).
SCALE_SPARSE_CHUNK_FLOOR = 256
SCALE_DENSE_CHUNK_CEIL = 16


class _OracleRRSim(RRSimGenerator):
    """Batched fast path disabled (the 'before' engine)."""

    generate_batch = RRSetGenerator.generate_batch


class _OracleRRCim(RRCimGenerator):
    generate_batch = RRSetGenerator.generate_batch


def best_of(fn, repeats: int) -> float:
    """Minimum wall time over ``repeats`` runs (noise-robust)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def bench_generation(name, generator, per_root_count, batch_count, repeats):
    t_oracle = best_of(lambda: generator.generate_many(per_root_count, rng=1), repeats)
    t_batch = best_of(lambda: generator.generate_batch(batch_count, rng=1), repeats)
    per_root_rate = per_root_count / t_oracle
    batch_rate = batch_count / t_batch
    return {
        "per_root_sets_per_s": round(per_root_rate, 1),
        "batched_sets_per_s": round(batch_rate, 1),
        "speedup": round(batch_rate / per_root_rate, 2),
        "speedup_floor": SPEEDUP_FLOORS[name],
    }


def bench_imm_end_to_end(fast, oracle, k, opts, eval_samples):
    """Batched vs oracle-forced ``general_imm`` plus spread parity."""
    t_new = best_of(lambda: general_imm(fast, k, options=opts, rng=4), 2)
    t_old = best_of(lambda: general_imm(oracle, k, options=opts, rng=4), 2)
    result_new = general_imm(fast, k, options=opts, rng=4)
    result_old = general_imm(oracle, k, options=opts, rng=4)
    spread_new = rr_estimate_objective(
        fast, result_new.seeds, samples=eval_samples, rng=9
    )
    spread_old = rr_estimate_objective(
        fast, result_old.seeds, samples=eval_samples, rng=9
    )
    return {
        "epsilon": opts.epsilon,
        "k": k,
        "batched_s": round(t_new, 3),
        "oracle_s": round(t_old, 3),
        "speedup": round(t_old / t_new, 2),
        "batched_objective": round(spread_new.mean, 2),
        "oracle_objective": round(spread_old.mean, 2),
        "objective_stderr": round(spread_new.stderr, 3),
    }


def bench_blocking_end_to_end(graph, k, mc_runs, rr_cap, eval_runs):
    """RR-Block route vs MC CELF on one candidate pool, plus parity.

    Both routes run the same ``BlockingQuery`` shape against sessions on
    the same graph/GAPs; candidates are the top-degree nodes (blocking
    from the periphery is hopeless, and it keeps the MC baseline
    tractable).  Suppression of both seed sets is then MC-evaluated with
    a common rng for an apples-to-apples quality comparison.
    """
    seeds_a = tuple(high_degree_seeds(graph, 10))
    candidates = tuple(high_degree_seeds(graph, 50, exclude=seeds_a))
    rr_session = ComICSession(
        graph, GAPS_BLOCK,
        config=EngineConfig(engine="imm", max_rr_sets=rr_cap), rng=5,
    )
    start = time.perf_counter()
    rr_result = rr_session.run(
        BlockingQuery(seeds_a=seeds_a, k=k, method="rr", candidates=candidates)
    )
    rr_s = time.perf_counter() - start
    mc_session = ComICSession(graph, GAPS_BLOCK, rng=6)
    start = time.perf_counter()
    mc_result = mc_session.run(
        BlockingQuery(
            seeds_a=seeds_a, k=k, method="mc", runs=mc_runs,
            candidates=candidates,
        )
    )
    mc_s = time.perf_counter() - start
    sup_rr = estimate_suppression(
        graph, GAPS_BLOCK, seeds_a, rr_result.seeds, runs=eval_runs, rng=9
    )
    sup_mc = estimate_suppression(
        graph, GAPS_BLOCK, seeds_a, mc_result.seeds, runs=eval_runs, rng=9
    )
    return {
        "k": k,
        "mc_runs": mc_runs,
        "candidate_pool": len(candidates),
        "rr_engine": rr_result.engine,
        "rr_theta": rr_result.diagnostics["theta"],
        "rr_s": round(rr_s, 3),
        "mc_s": round(mc_s, 3),
        "speedup": round(mc_s / rr_s, 2),
        "speedup_floor": BLOCKING_SPEEDUP_FLOOR,
        "rr_estimate": round(rr_result.estimate, 2),
        "rr_suppression": round(sup_rr.mean, 2),
        "rr_suppression_stderr": round(sup_rr.stderr, 3),
        "mc_suppression": round(sup_mc.mean, 2),
        "mc_suppression_stderr": round(sup_mc.stderr, 3),
    }


def bench_parallel_generation(name, generator, count, repeats):
    """workers=2 sharded generation vs the same serial batched kernel.

    The engine is warmed up first (workers spawned, generator shipped)
    because it is persistent in real use — a session keeps it across
    every top-up — so interpreter start-up is not part of the steady
    state being measured.
    """
    cores = os.cpu_count() or 1
    serial_s = best_of(lambda: generator.generate_batch(count, rng=11), repeats)
    with ParallelEngine(
        generator, PARALLEL_WORKERS, min_batch_per_worker=64
    ) as engine:
        engine.warm_up()
        parallel_s = best_of(
            lambda: engine.generate_batch(count, rng=11), repeats
        )
    return {
        "regime": name,
        "workers": PARALLEL_WORKERS,
        "cores": cores,
        "sets": count,
        "serial_sets_per_s": round(count / serial_s, 1),
        "parallel_sets_per_s": round(count / parallel_s, 1),
        "speedup": round(serial_s / parallel_s, 2),
        "speedup_floor": PARALLEL_SPEEDUP_FLOOR,
        # A single-core runner cannot demonstrate parallel speedup; the
        # row is informational there and the gate skips it.
        "gated": cores >= PARALLEL_WORKERS,
    }


def bench_store_warm_start(graph, k, rr_cap):
    """Cold vs store-warm-started SelfInfMax query (two sessions).

    The cold session samples its pool and writes it through to a
    throwaway :class:`PoolStore`; the warm session — standing in for a
    second process — must answer the identical query with **zero** RR-set
    sampling and identical seeds, which the gate enforces.

    ``rr_cap`` is chosen to bind (below the query's uncapped theta), which
    makes the sample size deterministic: an *uncapped* adaptive IMM warm
    start re-derives theta from the warm pool's sharper estimate and may
    legitimately top up a ~1% remainder (see docs/api.md) — that would be
    adaptivity, not a store failure, so the gate pins the cap instead.
    """
    query = SelfInfMaxQuery(seeds_b=tuple(range(10)), k=k)
    config = EngineConfig(engine="imm", max_rr_sets=rr_cap)
    with tempfile.TemporaryDirectory(prefix="bench-pool-store-") as root:
        cold_session = ComICSession(
            graph, GAPS_SIM, config=config, store=root, rng=5
        )
        start = time.perf_counter()
        cold = cold_session.run(query)
        cold_s = time.perf_counter() - start
        warm_session = ComICSession(
            graph, GAPS_SIM, config=config, store=root, rng=6
        )
        start = time.perf_counter()
        warm = warm_session.run(query)
        warm_s = time.perf_counter() - start
    cold_sampled = cold.diagnostics["rr_sets_sampled"]
    return {
        "k": k,
        "engine": "imm",
        "rr_cap": rr_cap,
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup": round(cold_s / warm_s, 2),
        "cold_rr_sets_sampled": cold_sampled,
        "warm_rr_sets_sampled": warm.diagnostics["rr_sets_sampled"],
        "store_hits": warm_session.stats.store_hits,
        "seeds_match": warm.seeds == cold.seeds,
        # The zero-resample guarantee is only deterministic when the cap
        # binds; on reshaped instances (--nodes) where it does not, the
        # row stays informational (see the adaptive-theta caveat above).
        "gated": cold_sampled >= rr_cap,
    }


def bench_dynamic_update(graph, k, rr_cap, eval_samples):
    """Delta repair + requery vs fingerprint-invalidate + regenerate.

    A ``track_touches`` session answers a SelfInfMax query cold, then a
    sparse :class:`GraphDelta` (:data:`DYNAMIC_NUM_EDITS` stride-spaced
    reweights, each halving an edge probability) lands.  The repair
    route is ``apply_delta`` — drop exactly the touched pool members,
    resample their roots — plus the follow-up query; the baseline is
    what a delta-unaware deployment does: treat the mutated graph as a
    new fingerprint and resample the pool from scratch.  Seed quality of
    both routes is RR-evaluated on the *new* graph with a common rng.
    """
    opposite_seeds = tuple(range(10))
    query = SelfInfMaxQuery(seeds_b=opposite_seeds, k=k)
    config = EngineConfig(engine="imm", max_rr_sets=rr_cap, track_touches=True)
    src = graph.edge_sources
    dst = graph.edge_targets
    prob = graph.edge_probabilities
    stride = graph.num_edges // DYNAMIC_NUM_EDITS
    delta = GraphDelta(
        reweight=tuple(
            (int(src[e]), int(dst[e]), round(float(prob[e]) * 0.5, 6))
            for e in range(0, DYNAMIC_NUM_EDITS * stride, stride)
        )
    )

    repaired_session = ComICSession(graph, GAPS_SIM, config=config)
    cold = repaired_session.run(query, rng=4)
    start = time.perf_counter()
    delta_report = repaired_session.apply_delta(delta, rng=11)
    repaired = repaired_session.run(query, rng=4)
    repair_s = time.perf_counter() - start

    new_graph = graph.apply_delta(delta)
    start = time.perf_counter()
    regen_session = ComICSession(new_graph, GAPS_SIM, config=config)
    regenerated = regen_session.run(query, rng=4)
    regenerate_s = time.perf_counter() - start

    evaluator = RRSimPlusGenerator(new_graph, GAPS_SIM, opposite_seeds)
    spread_rep = rr_estimate_objective(
        evaluator, repaired.seeds, samples=eval_samples, rng=9
    )
    spread_reg = rr_estimate_objective(
        evaluator, regenerated.seeds, samples=eval_samples, rng=9
    )
    return {
        "k": k,
        "engine": "imm",
        "rr_cap": rr_cap,
        "num_edits": delta.num_edits,
        "churn": round(delta.churn(graph), 8),
        "repair_s": round(repair_s, 3),
        "regenerate_s": round(regenerate_s, 3),
        "speedup": round(regenerate_s / repair_s, 2),
        "speedup_floor": DYNAMIC_SPEEDUP_FLOOR,
        "pools_repaired": delta_report.pools_repaired,
        "pools_regenerated": delta_report.pools_regenerated,
        "members_resampled": delta_report.members_resampled,
        "cold_rr_sets_sampled": cold.diagnostics["rr_sets_sampled"],
        "warm_rr_sets_sampled": repaired.diagnostics["rr_sets_sampled"],
        "regenerate_rr_sets_sampled": regenerated.diagnostics[
            "rr_sets_sampled"
        ],
        "repaired_objective": round(spread_rep.mean, 2),
        "regenerated_objective": round(spread_reg.mean, 2),
        "objective_stderr": round(spread_rep.stderr, 3),
        "parity_band": DYNAMIC_PARITY_BAND,
    }


def bench_scale_generation(path, count):
    """Sparse vs dense chunk state on a SNAP edge-list graph (RR-IC).

    Two legs.  **Timing**: each backend runs with its natural chunk
    schedule — dense collapses to ``budget // n`` members, sparse
    sustains the kernel's full ``max_members`` — and the wall-clock
    ratio is the speedup being gated.  **Equality**: both backends rerun
    under one pinned chunk schedule (``max_chunk_members`` = the dense
    chunk), because the schedule fixes the order coins are drawn in;
    with it equal, the backends must produce bit-identical pools, which
    is the strongest form of the member-multiset check.
    """
    from repro.datasets import load_snap_graph

    graph = load_snap_graph(path)
    n = graph.num_nodes
    generator = RRICGenerator(graph)
    dense_cfg = SweepConfig(state_backend="dense")
    sparse_cfg = SweepConfig(state_backend="sparse")
    dense_chunk = dense_cfg.chunk_size(
        n, "dense", state_bytes_per_node=1, max_members=4096, warn=False
    )
    sparse_chunk = sparse_cfg.chunk_size(
        n, "sparse", state_bytes_per_node=1, max_members=4096
    )
    timings = {}
    pools = {}
    for backend, cfg in (("dense", dense_cfg), ("sparse", sparse_cfg)):
        generator.sweep = cfg
        timings[backend] = best_of(
            lambda: generator.generate_batch(count, rng=21), 2
        )
    for backend in ("dense", "sparse"):
        generator.sweep = SweepConfig(
            state_backend=backend, max_chunk_members=dense_chunk
        )
        pools[backend] = generator.generate_batch(count, rng=21)
    members_equal = bool(
        np.array_equal(pools["dense"].nodes, pools["sparse"].nodes)
        and np.array_equal(
            np.asarray(pools["dense"].indptr),
            np.asarray(pools["sparse"].indptr),
        )
    )
    return {
        "graph_path": str(path),
        "nodes": n,
        "edges": graph.num_edges,
        "sets": count,
        "dense_chunk": dense_chunk,
        "sparse_chunk": sparse_chunk,
        "dense_s": round(timings["dense"], 3),
        "sparse_s": round(timings["sparse"], 3),
        "dense_sets_per_s": round(count / timings["dense"], 1),
        "sparse_sets_per_s": round(count / timings["sparse"], 1),
        "speedup": round(timings["dense"] / timings["sparse"], 2),
        "speedup_floor": SCALE_SPEEDUP_FLOOR,
        "members_equal": members_equal,
        # Below a million nodes the dense collapse being measured does
        # not occur; the row is informational there and the gate skips it.
        "gated": n >= SCALE_MIN_NODES,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=10_000)
    parser.add_argument("--average-degree", type=float, default=8.0)
    parser.add_argument("--probability", type=float, default=0.2)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--output", default="BENCH_rrset.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller sample counts (CI mode)",
    )
    parser.add_argument(
        "--scale-graph", metavar="PATH", default=None,
        help=(
            "SNAP-style edge list for the scale.1m_generation row "
            "(gated when the graph has >= 1M nodes; omitted otherwise)"
        ),
    )
    parser.add_argument(
        "--require-multicore", action="store_true",
        help=(
            "fail when the parallel.generation floor cannot engage "
            "(fewer cores than workers) instead of recording an "
            "informational row — CI uses this so the gate can never go "
            "silently dormant on a downsized runner"
        ),
    )
    args = parser.parse_args(argv)

    per_root_count = 200 if args.quick else 500
    batch_count = 4000 if args.quick else 10_000
    repeats = 3 if args.quick else 5
    imm_cap = 10_000 if args.quick else 20_000

    graph = power_law_digraph(
        args.nodes, average_degree=args.average_degree,
        probability=args.probability, rng=2,
    )
    opposite_seeds = list(range(10))
    report = {
        "schema_version": SCHEMA_VERSION,
        "graph": {
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "average_degree": args.average_degree,
            "probability": args.probability,
        },
        "config": {
            "quick": args.quick,
            "per_root_count": per_root_count,
            "batch_count": batch_count,
            "repeats": repeats,
            "gaps_sim": list(GAPS_SIM.as_tuple()),
            "gaps_cim": list(GAPS_CIM.as_tuple()),
            "gaps_block": list(GAPS_BLOCK.as_tuple()),
        },
    }

    generators = {
        "rr_ic": RRICGenerator(graph),
        "rr_sim": RRSimGenerator(graph, GAPS_SIM, opposite_seeds),
        "rr_sim_plus": RRSimPlusGenerator(graph, GAPS_SIM, opposite_seeds),
        "rr_cim": RRCimGenerator(graph, GAPS_CIM, opposite_seeds),
        "rr_lt": RRLTGenerator(normalize_lt_weights(graph)),
        "rr_block": RRBlockGenerator(graph, GAPS_BLOCK, opposite_seeds),
    }
    report["generation"] = {}
    for name, generator in generators.items():
        # RR-LT sets are cheap chains: give its rates more samples.
        scale = 4 if name == "rr_lt" else 1
        report["generation"][name] = bench_generation(
            name, generator, per_root_count * scale, batch_count * scale, repeats
        )
        print(f"generation[{name}]:", report["generation"][name])

    opts = IMMOptions(epsilon=0.5, max_rr_sets=imm_cap)
    eval_samples = 4000 if args.quick else 10_000
    report["end_to_end"] = {
        "selfinfmax_imm": bench_imm_end_to_end(
            generators["rr_sim"],
            _OracleRRSim(graph, GAPS_SIM, opposite_seeds),
            args.k, opts, eval_samples,
        ),
    }
    print("end_to_end[selfinfmax_imm]:", report["end_to_end"]["selfinfmax_imm"])
    report["end_to_end"]["compinfmax_imm"] = bench_imm_end_to_end(
        generators["rr_cim"],
        _OracleRRCim(graph, GAPS_CIM, opposite_seeds),
        args.k, opts, eval_samples,
    )
    print("end_to_end[compinfmax_imm]:", report["end_to_end"]["compinfmax_imm"])
    report["end_to_end"]["blocking"] = bench_blocking_end_to_end(
        graph,
        k=5,
        mc_runs=10 if args.quick else 20,
        rr_cap=imm_cap,
        eval_runs=150 if args.quick else 400,
    )
    print("end_to_end[blocking]:", report["end_to_end"]["blocking"])

    # RR-SIM+ is the slowest batched kernel (most compute per set), so it
    # amortises worker IPC best and is the honest parallel test case.
    report["parallel"] = {
        "generation": bench_parallel_generation(
            "rr_sim_plus",
            generators["rr_sim_plus"],
            batch_count * 2,
            repeats,
        )
    }
    print("parallel[generation]:", report["parallel"]["generation"])

    # Cap chosen below the query's uncapped theta (~8.2k on the default
    # 10k-node graph; theta grows with n) so the sample count is pinned
    # and the warm run needs exactly 0 sets.
    report["store"] = {
        "warm_start": bench_store_warm_start(
            graph, args.k, rr_cap=max(500, int(args.nodes * 0.6))
        )
    }
    print("store[warm_start]:", report["store"]["warm_start"])

    report["dynamic"] = {
        "update_then_query": bench_dynamic_update(
            graph, args.k, rr_cap=imm_cap, eval_samples=eval_samples
        )
    }
    print("dynamic[update_then_query]:", report["dynamic"]["update_then_query"])

    if args.scale_graph is not None:
        report["scale"] = {
            "1m_generation": bench_scale_generation(
                args.scale_graph, SCALE_COUNT
            )
        }
        print("scale[1m_generation]:", report["scale"]["1m_generation"])

    # Regression gate: a sub-floor speedup means the fast path regressed
    # (or silently fell back to the oracle loop / MC CELF) — fail loudly.
    gated = dict(report["generation"])
    gated["end_to_end.blocking"] = report["end_to_end"]["blocking"]
    parallel_row = report["parallel"]["generation"]
    if parallel_row["gated"]:
        gated["parallel.generation"] = parallel_row
    gated["dynamic.update_then_query"] = report["dynamic"]["update_then_query"]
    scale_row = report.get("scale", {}).get("1m_generation")
    if scale_row is not None and scale_row["gated"]:
        gated["scale.1m_generation"] = scale_row
    failures = [
        f"{name}: speedup {entry['speedup']}x < floor {entry['speedup_floor']}x"
        for name, entry in gated.items()
        if entry["speedup"] < entry["speedup_floor"]
    ]
    if args.require_multicore and not parallel_row["gated"]:
        failures.append(
            f"parallel.generation: runner has {parallel_row['cores']} "
            f"core(s), < {PARALLEL_WORKERS} workers — the "
            f"{PARALLEL_SPEEDUP_FLOOR}x floor cannot engage "
            "(--require-multicore)"
        )
    warm = report["store"]["warm_start"]
    if warm["gated"]:
        if warm["warm_rr_sets_sampled"] != 0:
            failures.append(
                "store.warm_start: warm session sampled "
                f"{warm['warm_rr_sets_sampled']} RR-sets (expected 0 — "
                "manifest hit failed)"
            )
        if not warm["seeds_match"]:
            failures.append(
                "store.warm_start: warm-started seeds differ from cold seeds"
            )
    dynamic = report["dynamic"]["update_then_query"]
    if dynamic["pools_repaired"] < 1:
        failures.append(
            "dynamic.update_then_query: no pool was repaired "
            f"({dynamic['pools_regenerated']} regenerated) — apply_delta "
            "silently fell back to full regeneration"
        )
    parity = abs(
        dynamic["repaired_objective"] - dynamic["regenerated_objective"]
    ) / max(dynamic["regenerated_objective"], 1e-9)
    if parity > DYNAMIC_PARITY_BAND:
        failures.append(
            "dynamic.update_then_query: repaired-pool seed quality "
            f"{dynamic['repaired_objective']} vs regenerated "
            f"{dynamic['regenerated_objective']} (relative gap "
            f"{parity:.3f} > {DYNAMIC_PARITY_BAND})"
        )
    if scale_row is not None and scale_row["gated"]:
        if not scale_row["members_equal"]:
            failures.append(
                "scale.1m_generation: sparse and dense pools differ under "
                "a common chunk schedule (backend is not bit-equivalent)"
            )
        if scale_row["sparse_chunk"] < SCALE_SPARSE_CHUNK_FLOOR:
            failures.append(
                f"scale.1m_generation: sparse chunk {scale_row['sparse_chunk']}"
                f" < {SCALE_SPARSE_CHUNK_FLOOR} members within the default "
                "state budget"
            )
        if scale_row["dense_chunk"] > SCALE_DENSE_CHUNK_CEIL:
            failures.append(
                f"scale.1m_generation: dense chunk {scale_row['dense_chunk']} "
                f"> {SCALE_DENSE_CHUNK_CEIL} — the graph is not large enough "
                "to demonstrate the collapse being gated"
            )
    report["gate"] = {"passed": not failures, "failures": failures}

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.output}")
    if failures:
        for failure in failures:
            print(f"SPEEDUP REGRESSION: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
