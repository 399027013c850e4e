"""The four benchmark workloads.

Each workload drives only the library's public API and is built from
``--seed`` alone.  Every op is a fixed, seeded unit of work: op ``i``
does the same thing on every run with the same seed, so run-to-run
differences come from the host, not from the inputs.  All ops of one
workload are the same kind of bundle, so their latencies form one mode.

A workload object has this life cycle::

    w = WORKLOADS[name](seed, workdir, tracer)
    w.setup()            # inputs, server/store, warm-up (timed as setup_s)
    w.op(i)              # one timed op; returns a list of failed checks
    w.teardown()
    w.objective()        # MC value of the answers (after the timed loop)

``answers`` maps each distinct query to its seeds and ``inputs()``
describes what the seed drew, both for the determinism check; an
optional ``layer_metrics(ops)`` adds the per-layer figures that come
from the library's own results rather than from spans.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import time
from typing import Any, Optional

import numpy as np

from repro.algorithms.blocking import estimate_suppression
from repro.api import (
    BlockingQuery,
    ComICSession,
    CompInfMaxQuery,
    EngineConfig,
    GraphDelta,
    PipelineConfig,
    SelfInfMaxQuery,
)
from repro.graph.generators import power_law_digraph
from repro.graph.weights import weighted_cascade_probabilities
from repro.learning.em_cascades import generate_ic_episodes
from repro.learning.log_io import save_action_log, save_episodes
from repro.learning.synthetic_logs import generate_synthetic_log
from repro.models.gaps import GAP
from repro.models.spread import estimate_boost, estimate_spread
from repro.rng import derive_seed
from repro.service import CatalogedPoolStore, ComICServer, ServiceClient

#: the paper's running GAP (Q+, B indifferent to A).
PAPER_GAP = GAP(q_a=0.3, q_a_given_b=0.75, q_b=0.5, q_b_given_a=0.5)
#: CompInfMax at q_B|A = 1: the submodular RR-CIM route, no sandwich.
CIM_GAP = GAP(q_a=0.3, q_a_given_b=0.75, q_b=0.5, q_b_given_a=1.0)
#: one-way competition (q_B|0 = q_B|A): the RR-Block route.
BLOCK_GAP = GAP(q_a=0.5, q_a_given_b=0.2, q_b=0.5, q_b_given_a=0.5)
#: ground truth of the pipeline's synthetic logs (not B-indifferent, so
#: the query stage takes the sandwich route with MC evaluation).
PIPELINE_GAP = GAP(q_a=0.3, q_a_given_b=0.75, q_b=0.5, q_b_given_a=0.65)

#: MC runs of the pipeline query's sandwich candidate evaluation; the
#: query default, 200, made MC outweigh EM in the pipeline op.
EVALUATION_RUNS = 10

#: MC budget and seed of the post-loop objective evaluation.
EVAL_RUNS = 100
EVAL_SEED = 20240101

K = 5
CONTEXT_SIZE = 5
GRAPH_NAME = "g"
DATASET_SEED = 20150101


def _graph(nodes: int):
    """The workload's network: a fixed weighted-cascade power-law graph.

    The graph is the benchmark's dataset and does not depend on
    ``--seed``; the seed draws the queries, deltas, logs and rng pins
    run against it.  A power-law graph drawn afresh per seed would move
    every figure with its hub sizes, not with the program.
    """
    return weighted_cascade_probabilities(
        power_law_digraph(nodes, rng=DATASET_SEED)
    )


def _context(rng: np.random.Generator, graph) -> tuple[int, ...]:
    """A seeded opposite-seed context: ``CONTEXT_SIZE`` distinct nodes of
    at most median out-degree.  Hubs are left out so that one draw cannot
    make an op many times costlier than the rest."""
    degrees = graph.out_degrees
    typical = np.flatnonzero(degrees <= np.median(degrees))
    return tuple(int(v) for v in sorted(rng.choice(typical, CONTEXT_SIZE, replace=False)))


def _mc_objective(graph, query, seeds) -> float:
    """The MC value of ``seeds`` as an answer to ``query`` on ``graph``."""
    if isinstance(query, SelfInfMaxQuery):
        return estimate_spread(
            graph, query.gaps or PAPER_GAP, seeds, query.seeds_b,
            runs=EVAL_RUNS, rng=EVAL_SEED,
        ).mean
    if isinstance(query, CompInfMaxQuery):
        return estimate_boost(
            graph, query.gaps or PAPER_GAP, query.seeds_a, seeds,
            runs=EVAL_RUNS, rng=EVAL_SEED,
        ).mean
    return estimate_suppression(
        graph, query.gaps, query.seeds_a, seeds,
        runs=EVAL_RUNS, rng=EVAL_SEED,
    ).mean


def _answer_problems(body_seeds, estimate, k: int) -> list[str]:
    problems = []
    if len(set(body_seeds)) != k or len(body_seeds) != k:
        problems.append(f"expected {k} distinct seeds, got {body_seeds}")
    if estimate is None or not math.isfinite(float(estimate)):
        problems.append(f"non-finite estimate {estimate!r}")
    return problems


def _hot_queries(graph, rng: np.random.Generator, sims: int, cims: int,
                 blocks: int) -> list[Any]:
    """Hot keys: SelfInfMax (RR-SIM+), CompInfMax at q_B|A = 1 (RR-CIM),
    and RR-Block with candidates from the top-degree nodes."""
    top = [int(v) for v in np.argsort(-graph.out_degrees, kind="stable")[:100]]
    queries: list[Any] = []
    for _ in range(sims):
        queries.append(SelfInfMaxQuery(seeds_b=_context(rng, graph), k=K))
    for _ in range(cims):
        queries.append(CompInfMaxQuery(seeds_a=_context(rng, graph), k=K, gaps=CIM_GAP))
    for _ in range(blocks):
        ctx = _context(rng, graph)
        queries.append(
            BlockingQuery(
                seeds_a=ctx, k=K, gaps=BLOCK_GAP, method="rr",
                candidates=tuple(v for v in top if v not in ctx),
            )
        )
    return queries


class _HttpWorkload:
    """A ComICServer on loopback driven by one keep-alive client."""

    nodes = 5000
    config = EngineConfig(engine="imm")
    min_ops = 1

    def __init__(self, seed: int, workdir: str, tracer) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.server: Optional[ComICServer] = None
        self.client: Optional[ServiceClient] = None
        self.answers: dict[str, list[int]] = {}

    def _start(self, store=None, pipeline_dir=None) -> None:
        self.graph = _graph(self.nodes)
        self.queries = self._queries(np.random.default_rng(derive_seed(self.seed, 2)))
        self.rngs = [derive_seed(self.seed, 3, i) for i in range(len(self.queries))]
        self.server = ComICServer(pipeline_dir=pipeline_dir)
        self.server.register_graph(
            GRAPH_NAME, self.graph, PAPER_GAP, config=self.config, store=store,
        )
        host, port = self.server.start()
        self.client = ServiceClient(host, port, timeout=120.0)

    def _query(self, i: int) -> dict:
        with self.tracer.span("service.rtt", remote=True):
            return self.client.query(GRAPH_NAME, self.queries[i], rng=self.rngs[i])

    def inputs(self) -> list:
        return [[q.to_dict() for q in self.queries], self.rngs]

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.close()
            self.server = None


class WarmHttp(_HttpWorkload):
    """The daemon's read path: every op is a pool hit."""

    min_ops = 8

    def _queries(self, rng):
        return _hot_queries(self.graph, rng, sims=4, cims=2, blocks=2)

    def setup(self) -> None:
        self._start()
        self.expected = []
        for rep in range(2):
            for i in range(len(self.queries)):
                body = self._query(i)
                if rep == 0:
                    self.expected.append(body["seeds"])
        self.answers = {q.to_json(): s for q, s in zip(self.queries, self.expected)}

    def op(self, i: int) -> list[str]:
        key = i % len(self.queries)
        body = self._query(key)
        problems = []
        sampled = body["diagnostics"]["rr_sets_sampled"]
        if sampled != 0:
            problems.append(f"warm query sampled {sampled} RR sets")
        if body["seeds"] != self.expected[key]:
            problems.append(f"seeds {body['seeds']} != setup answer {self.expected[key]}")
        return problems

    def objective(self) -> float:
        return sum(
            _mc_objective(self.graph, q, s)
            for q, s in zip(self.queries, self.expected)
        )


class ChurnHttp(_HttpWorkload):
    """Deltas beside re-queries: repair, IMM top-up, store write-through."""

    config = EngineConfig(engine="imm", track_touches=True)
    edits = 16

    def _queries(self, rng):
        return _hot_queries(self.graph, rng, sims=2, cims=1, blocks=1)

    def setup(self) -> None:
        store_dir = os.path.join(self.workdir, "store")
        shutil.rmtree(store_dir, ignore_errors=True)
        self._start(store=CatalogedPoolStore(store_dir))
        for i in range(len(self.queries)):
            self._query(i)
        self.base_prob = self.graph.edge_probabilities.copy()
        self.src = self.graph.edge_sources
        self.dst = self.graph.edge_targets
        self.first: Optional[tuple] = None
        # Warm the delta path too; op 0 then restores this batch like
        # every later op restores its predecessor's.
        self._apply(-1)
        for i in range(len(self.queries)):
            self._query(i)

    def _batch(self, b: int) -> dict[int, float]:
        """Batch ``b``: ``edits`` seeded edges, each scaled to 0.5-1.5x its
        base weight.  Setup applies batch 0, op ``i`` batch ``i + 1``."""
        rng = np.random.default_rng(derive_seed(self.seed, 4, b))
        edges = rng.choice(self.src.size, self.edits, replace=False)
        scale = rng.uniform(0.5, 1.5, self.edits)
        prob = np.clip(self.base_prob[edges] * scale, 0.0, 1.0)
        return {int(e): float(p) for e, p in zip(edges, prob)}

    def _delta(self, i: int) -> GraphDelta:
        """Op ``i``'s reweight batch, which also puts op ``i - 1``'s edges
        back to their base weight: between ops the graph is the dataset
        plus one batch, so the graph does not drift away from it."""
        weights = self._batch(i + 1)
        if i >= 0:
            for e in self._batch(i):
                weights.setdefault(e, float(self.base_prob[e]))
        return GraphDelta(
            reweight=[
                (int(self.src[e]), int(self.dst[e]), p)
                for e, p in sorted(weights.items())
            ]
        )

    def _apply(self, i: int) -> dict:
        with self.tracer.span("service.rtt", remote=True):
            return self.client.apply_delta(
                GRAPH_NAME, self._delta(i), rng=derive_seed(self.seed, 5, i + 1)
            )

    def op(self, i: int) -> list[str]:
        problems = []
        report = self._apply(i)
        pools = len(self.queries)  # one cached pool per hot key
        if report["pools_regenerated"] or report["pools_repaired"] != pools:
            problems.append(
                f"delta repaired {report['pools_repaired']}/{pools} pools, "
                f"regenerated {report['pools_regenerated']}"
            )
        answers = []
        for key, query in enumerate(self.queries):
            body = self._query(key)
            answers.append(body["seeds"])
            problems += _answer_problems(body["seeds"], body["estimate"], query.k)
        if self.first is None:
            self.first = (self.server.session(GRAPH_NAME).graph, answers)
            self.answers = {q.to_json(): s for q, s in zip(self.queries, answers)}
        return problems

    def inputs(self) -> list:
        return super().inputs() + [self._delta(0).to_dict()]

    def objective(self) -> float:
        graph, answers = self.first
        return sum(_mc_objective(graph, q, s) for q, s in zip(self.queries, answers))


class ColdLibrary:
    """First-contact queries through ComICSession under default knobs.

    Every op answers one bundle on one context.  The context belongs to
    the dataset and ``--seed`` draws each query's rng pin: op cost depends
    strongly on the context (the sandwich CompInfMax alone ranges
    130-430 ms over contexts of one graph), so per-seed contexts moved
    op_p50_ms and peak_rss_mb between seeds by more than any bound the
    benchmark could hold.  One context also keeps the op latencies in one
    cluster: with several, a 20-s run holds 5-10 ops of each, and a tail
    with 10 ops beyond it sits on a cluster boundary.
    """

    nodes = 2000
    min_ops = 1

    def __init__(self, seed: int, workdir: str, tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.answers: dict[str, list[int]] = {}

    def setup(self) -> None:
        self.graph = _graph(self.nodes)
        ctx = _context(np.random.default_rng(derive_seed(DATASET_SEED, 2)), self.graph)
        self.bundle = (
            SelfInfMaxQuery(seeds_b=ctx, k=K),
            CompInfMaxQuery(seeds_a=ctx, k=K),
            BlockingQuery(seeds_a=ctx, k=K, gaps=BLOCK_GAP),
        )
        self.rngs = [derive_seed(self.seed, 3, 0, j) for j in range(len(self.bundle))]
        self.session = ComICSession(self.graph, PAPER_GAP)
        self._run_bundle()  # warm-up: lazy imports, first-call costs

    def before_op(self, i: int) -> None:
        self.session.clear_pools()

    def _run_bundle(self) -> list:
        return [self.session.run(q, rng=pin) for q, pin in zip(self.bundle, self.rngs)]

    def op(self, i: int) -> list[str]:
        results = self._run_bundle()
        problems = []
        for r in results:
            problems += _answer_problems(r.seeds, r.estimate, K)
        if not self.answers:
            self.answers = {q.to_json(): list(r.seeds) for q, r in zip(self.bundle, results)}
        return problems

    def inputs(self) -> list:
        return [[q.to_dict() for q in self.bundle], self.rngs]

    def teardown(self) -> None:
        self.session.close()

    def objective(self) -> float:
        return sum(
            _mc_objective(self.graph, q, self.answers[q.to_json()])
            for q in self.bundle
        )


class Pipeline(_HttpWorkload):
    """Log-to-query learning through the daemon's pipeline endpoint.

    Op ``i`` empties the graph's pipeline work dir (untimed), then sends a
    cold ``POST /pipeline/g`` (EM edge fit, GAP fit, SelfInfMax), the same
    request again (the warm rerun, answered from the stage cache but for
    the query stage) and ``GET /pipeline/g/runs`` (the debug DB's record of
    both).  The inputs are small, so that the per-request transport stall,
    a timer, is about half of the op: the pure-library form of this op was
    all computation, and its median moved by up to a third between runs
    with the host's speed.
    """

    nodes = 20
    episodes = 8
    users = 300
    k = 2

    def _queries(self, rng):
        return []

    def setup(self) -> None:
        pipes = os.path.join(self.workdir, "pipelines")
        shutil.rmtree(pipes, ignore_errors=True)
        self._start(pipeline_dir=pipes)
        self.pipe_dir = os.path.join(pipes, GRAPH_NAME)
        # The action log, cascade corpus and query context are part of the
        # fixed dataset, like the graph: EM's cost depends on the corpus
        # (and on when it converges), so per-seed inputs would move
        # op_p50_ms with the draw.  --seed pins the run's rng (config.seed),
        # which the query stage draws from.
        log = generate_synthetic_log(
            [("a", "b", PIPELINE_GAP)], num_users=self.users,
            rng=derive_seed(DATASET_SEED, 2),
        )
        corpus = generate_ic_episodes(
            self.graph, self.episodes, seeds_per_episode=3,
            rng=derive_seed(DATASET_SEED, 3),
        )
        self.log_path = os.path.join(self.workdir, "actions.tsv")
        self.episodes_path = os.path.join(self.workdir, "episodes.npz")
        save_action_log(log, self.log_path)
        save_episodes(corpus, self.episodes_path)
        rng = np.random.default_rng(derive_seed(DATASET_SEED, 4))
        self.query = SelfInfMaxQuery(
            seeds_b=_context(rng, self.graph)[:2], k=self.k,
            evaluation_runs=EVALUATION_RUNS,
        )
        self.config = PipelineConfig(
            item_a="a", item_b="b", edge_backend="em", em_initial=0.1,
            queries=(self.query,), engine=EngineConfig(engine="imm", epsilon=1.0),
            seed=self.seed,
        )
        self.records: dict[int, dict[str, float]] = {}
        # Warm-up: two ops, because the first requests on a fresh
        # connection are acknowledged at once and skip the transport
        # stall every later request pays.
        for warm_up in (-2, -1):
            self.before_op(warm_up)
            self.op(warm_up)

    def before_op(self, i: int) -> None:
        shutil.rmtree(self.pipe_dir, ignore_errors=True)

    def _run(self) -> dict:
        with self.tracer.span("service.rtt", remote=True):
            return self.client.run_pipeline(
                GRAPH_NAME, self.config, self.log_path,
                episodes_path=self.episodes_path,
            )

    def op(self, i: int) -> list[str]:
        cold = self._run()
        started = time.perf_counter()
        warm = self._run()
        warm_s = time.perf_counter() - started
        with self.tracer.span("service.rtt", remote=True):
            runs = self.client.pipeline_runs(GRAPH_NAME)["runs"]
        problems = []
        if warm["stages_skipped"] < 2:
            problems.append(f"warm rerun skipped {warm['stages_skipped']} stages")
        answer = cold["results"][0]
        if warm["results"][0]["seeds"] != answer["seeds"]:
            problems.append("warm rerun answered differently")
        problems += _answer_problems(answer["seeds"], answer["estimate"], self.k)
        statuses = [(r["status"], r["stages_skipped"]) for r in runs]
        if statuses != [("ok", warm["stages_skipped"]), ("ok", cold["stages_skipped"])]:
            problems.append(f"debug DB runs {statuses}")
        row = {f"pipeline.{s['stage']}_ms": s["wall_s"] * 1e3 for s in cold["stages"]}
        row["pipeline.warm_ms"] = warm_s * 1e3
        row["pipeline.stages_skipped"] = warm["stages_skipped"]
        self.records[i] = row
        if not self.answers and i >= 0:
            self.answers = {self.query.to_json(): list(answer["seeds"])}
        return problems

    def inputs(self) -> list:
        return [self.config.to_dict()]

    def objective(self) -> float:
        (seeds,) = self.answers.values()
        return estimate_spread(
            self.graph, PIPELINE_GAP, seeds, self.query.seeds_b,
            runs=EVAL_RUNS, rng=EVAL_SEED,
        ).mean

    def layer_metrics(self, ops: list[int]) -> dict[str, float]:
        rows = [self.records[i] for i in ops if i in self.records]
        names = ("pipeline.fit_edges_ms", "pipeline.fit_gap_ms",
                 "pipeline.query_ms", "pipeline.warm_ms",
                 "pipeline.stages_skipped")
        return {
            name: statistics.median(r.get(name, 0.0) for r in rows) if rows else 0.0
            for name in names
        }


WORKLOADS = {
    "warm-http": WarmHttp,
    "churn-http": ChurnHttp,
    "cold-library": ColdLibrary,
    "pipeline": Pipeline,
}
