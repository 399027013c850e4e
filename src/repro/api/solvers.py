"""Workload handlers: the solver cores behind the declarative queries.

Each ``run_*`` function implements one objective against a
:class:`~repro.api.session.ComICSession`.  All four workloads now have an
RR-set-backed route through :meth:`ComICSession.select_seeds` (which is
what buys cross-query pool reuse): SelfInfMax and CompInfMax always take
it, while blocking and the focal multi-item path take it when their
query's ``method`` and GAP regime allow (``"rr-block"`` suppression sets,
or the focal problem's reduction to SelfInfMax with the other item's
seeds as context) and otherwise run the Monte-Carlo CELF / round-robin
greedy directly.  The session's query-type table is their only caller.

Every handler fills one *diagnostics envelope* so downstream reporting
can consume results of different workloads uniformly: ``regime`` (the RR
regime sampled, or ``"mc"``), ``theta`` (RR sample count; ``None`` on MC
routes), ``mc_runs`` (per-evaluation MC budget; ``None`` on RR routes)
and ``candidate_pool`` (size of the restricted seed pool; ``None`` when
unrestricted).  The session adds ``wall_s`` / ``rr_sets_sampled`` / pool
totals on top.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.algorithms.blocking import estimate_suppression
from repro.algorithms.greedy import celf_greedy, greedy_compinfmax, greedy_selfinfmax
from repro.algorithms.sandwich import sandwich_select
from repro.api.config import EngineConfig
from repro.api.queries import (
    BlockingQuery,
    CompInfMaxQuery,
    MultiItemQuery,
    SelfInfMaxQuery,
)
from repro.api.results import CompInfMaxResult, InfluenceResult, SelfInfMaxResult
from repro.errors import RegimeError, SeedSetError
from repro.models.gaps import GAP
from repro.models.multi_item import estimate_multi_item_spread
from repro.models.spread import estimate_boost, estimate_spread
from repro.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import ComICSession

#: engine (and regime) name of the Monte-Carlo routes, which never sample
#: RR-sets.
MC_ENGINE = "mc"


def run_selfinfmax(
    session: "ComICSession",
    query: SelfInfMaxQuery,
    config: EngineConfig,
    rng: np.random.Generator,
) -> InfluenceResult:
    """SelfInfMax: single submodular run or Sandwich Approximation (§6.4)."""
    gaps = session.resolve_gaps(query.gaps)
    if not gaps.is_mutually_complementary:
        raise RegimeError(
            f"SelfInfMax is defined for mutually complementary GAPs (Q+); got {gaps}"
        )
    graph = session.graph
    seeds_b = [int(s) for s in query.seeds_b]
    regime = "rr-sim+" if query.use_rr_sim_plus else "rr-sim"
    diagnostics: dict = {
        "regime": regime, "mc_runs": None, "candidate_pool": None,
    }

    if gaps.b_indifferent_to_a:
        sel = session.select_seeds(regime, gaps, seeds_b, query.k, config, rng)
        raw = SelfInfMaxResult(
            seeds=sel.seeds, method="submodular", tim_results={"sigma": sel}
        )
        diagnostics["theta"] = sel.theta
        estimate: Optional[float] = sel.estimated_objective
    else:
        diagnostics["fallback"] = (
            "GAPs are not B-indifferent (q_B|0 != q_B|A): objective may be "
            "non-submodular, using Sandwich Approximation"
        )
        nu_gaps = gaps.with_b_indifferent_high()
        mu_gaps = gaps.with_b_indifferent_low()
        sel_nu = session.select_seeds(regime, nu_gaps, seeds_b, query.k, config, rng)
        sel_mu = session.select_seeds(regime, mu_gaps, seeds_b, query.k, config, rng)
        candidates: dict[str, list[int]] = {"nu": sel_nu.seeds, "mu": sel_mu.seeds}
        if query.include_greedy_candidate:
            candidates["sigma"] = greedy_selfinfmax(
                graph, gaps, seeds_b, query.k, runs=query.greedy_runs, rng=rng
            )
        eval_seed = int(rng.integers(0, 2**31 - 1))

        def sigma(seed_list: Sequence[int]) -> float:
            return estimate_spread(
                graph, gaps, seed_list, seeds_b,
                runs=query.evaluation_runs, rng=eval_seed,
            ).mean

        chosen = sandwich_select(candidates, sigma)
        raw = SelfInfMaxResult(
            seeds=chosen.seeds,
            method="sandwich",
            tim_results={"nu": sel_nu, "mu": sel_mu},
            sandwich=chosen,
            estimated_spread=chosen.value,
        )
        diagnostics["theta"] = {"nu": sel_nu.theta, "mu": sel_mu.theta}
        estimate = chosen.value

    return InfluenceResult(
        objective=query.objective,
        seeds=list(raw.seeds),
        method=raw.method,
        engine=config.engine,
        estimate=estimate,
        diagnostics=diagnostics,
        query=query,
        raw=raw,
    )


def run_compinfmax(
    session: "ComICSession",
    query: CompInfMaxQuery,
    config: EngineConfig,
    rng: np.random.Generator,
) -> InfluenceResult:
    """CompInfMax: RR-CIM run, one-sided Sandwich when ``q_B|A < 1``."""
    gaps = session.resolve_gaps(query.gaps)
    if not gaps.is_mutually_complementary:
        raise RegimeError(
            f"CompInfMax is defined for mutually complementary GAPs (Q+); got {gaps}"
        )
    graph = session.graph
    seeds_a = [int(s) for s in query.seeds_a]
    diagnostics: dict = {
        "regime": "rr-cim", "mc_runs": None, "candidate_pool": None,
    }

    if gaps.q_b_given_a == 1.0:
        sel = session.select_seeds("rr-cim", gaps, seeds_a, query.k, config, rng)
        raw = CompInfMaxResult(
            seeds=sel.seeds, method="submodular", tim_results={"sigma": sel}
        )
        diagnostics["theta"] = sel.theta
        estimate: Optional[float] = sel.estimated_objective
    else:
        diagnostics["fallback"] = (
            "q_B|A < 1: boost may be non-submodular, using one-sided "
            "Sandwich Approximation"
        )
        nu_gaps = gaps.with_q_b_given_a_one()
        sel_nu = session.select_seeds("rr-cim", nu_gaps, seeds_a, query.k, config, rng)
        candidates: dict[str, list[int]] = {"nu": sel_nu.seeds}
        if query.include_greedy_candidate:
            candidates["sigma"] = greedy_compinfmax(
                graph, gaps, seeds_a, query.k, runs=query.greedy_runs, rng=rng
            )
        eval_seed = int(rng.integers(0, 2**31 - 1))

        def boost(seed_list: Sequence[int]) -> float:
            if not seed_list:
                return 0.0
            return estimate_boost(
                graph, gaps, seeds_a, seed_list,
                runs=query.evaluation_runs, rng=eval_seed,
            ).mean

        chosen = sandwich_select(candidates, boost)
        raw = CompInfMaxResult(
            seeds=chosen.seeds,
            method="sandwich",
            tim_results={"nu": sel_nu},
            sandwich=chosen,
            estimated_boost=chosen.value,
        )
        diagnostics["theta"] = {"nu": sel_nu.theta}
        estimate = chosen.value

    return InfluenceResult(
        objective=query.objective,
        seeds=list(raw.seeds),
        method=raw.method,
        engine=config.engine,
        estimate=estimate,
        diagnostics=diagnostics,
        query=query,
        raw=raw,
    )


def run_blocking(
    session: "ComICSession",
    query: BlockingQuery,
    config: EngineConfig,
    rng: np.random.Generator,
) -> InfluenceResult:
    """Influence blocking (Q-): pooled RR-Block max-coverage or MC CELF.

    The RR route (``method="rr"``, or ``"auto"`` when the GAPs show
    one-way competition) selects by greedy max-coverage over pooled
    suppression sets through the session's tim/imm engine — a heuristic
    for the greedy blocker (Appendix B.4 / Example 5), orders of
    magnitude faster than per-evaluation MC.  Candidate pools always
    exclude ``seeds_a``.
    """
    gaps = session.resolve_gaps(query.gaps)
    if not gaps.is_mutually_competitive:
        raise RegimeError(
            f"influence blocking is defined for mutual competition (Q-); got {gaps}"
        )
    graph = session.graph
    seeds_a = [int(s) for s in query.seeds_a]
    pool = _unoccupied_pool(graph.num_nodes, query.candidates, seeds_a)
    if query.k > len(pool):
        raise SeedSetError(
            f"cannot select {query.k} blockers from {len(pool)} candidates "
            "(A-seeds are excluded from the pool)"
        )
    rr_capable = gaps.b_indifferent_to_a
    if query.method == "rr" and not rr_capable:
        raise RegimeError(
            "blocking method='rr' requires one-way competition "
            f"(q_{{B|0}} = q_{{B|A}}); got {gaps} — use method='mc'"
        )
    if query.method == "rr" or (query.method == "auto" and rr_capable):
        sel = session.select_seeds(
            "rr-block", gaps, seeds_a, query.k, config, rng, candidates=pool
        )
        return InfluenceResult(
            objective=query.objective,
            seeds=sel.seeds,
            method="rr-greedy",
            engine=config.engine,
            estimate=sel.estimated_objective,
            diagnostics={
                "regime": "rr-block",
                "theta": sel.theta,
                "mc_runs": None,
                "candidate_pool": len(pool),
            },
            query=query,
            raw=sel,
        )

    diagnostics: dict = {
        "regime": MC_ENGINE,
        "theta": None,
        "mc_runs": query.runs,
        "candidate_pool": len(pool),
    }
    if query.method == "auto" and not rr_capable:
        diagnostics["fallback"] = (
            "GAPs are not B-indifferent (q_B|0 != q_B|A): RR-Block sampling "
            "unavailable, using Monte-Carlo CELF"
        )
    mc_seed = int(rng.integers(0, 2**31 - 1))

    def objective(seed_list: Sequence[int]) -> float:
        if not seed_list:
            return 0.0
        return estimate_suppression(
            graph, gaps, seeds_a, seed_list, runs=query.runs,
            rng=derive_seed(mc_seed, len(seed_list), *map(int, seed_list)),
        ).mean

    seeds, trace = celf_greedy(pool, query.k, objective, base_value=0.0)
    return InfluenceResult(
        objective=query.objective,
        seeds=seeds,
        method="celf-greedy",
        engine=MC_ENGINE,
        estimate=trace[-1] if trace else 0.0,
        diagnostics=diagnostics,
        query=query,
        raw=(seeds, trace),
    )


def _unoccupied_pool(
    num_nodes: int,
    candidates: Optional[Sequence[int]],
    occupied_seeds: Sequence[int],
) -> list[int]:
    """Candidate node pool with already-occupied seeds excluded.

    The all-nodes default stays vectorised (``setdiff1d`` over ``arange``)
    so the hot RR route never pays an O(n) Python loop per query.
    """
    occupied_arr = np.asarray(list(occupied_seeds), dtype=np.int64)
    if candidates is None:
        pool = np.setdiff1d(
            np.arange(num_nodes, dtype=np.int64), occupied_arr,
            assume_unique=False,
        )
        return pool.tolist()
    occupied = set(int(s) for s in occupied_seeds)
    return [int(v) for v in candidates if int(v) not in occupied]


def _focal_pairwise_gap(gaps, item: int) -> GAP:
    """Project a two-item model onto a pairwise GAP with ``item`` as A."""
    other = 1 - item
    return GAP(
        q_a=gaps.q(item, frozenset()),
        q_a_given_b=gaps.q(item, frozenset({other})),
        q_b=gaps.q(other, frozenset()),
        q_b_given_a=gaps.q(other, frozenset({item})),
    )


def run_multi_item(
    session: "ComICSession",
    query: MultiItemQuery,
    config: EngineConfig,
    rng: np.random.Generator,
) -> InfluenceResult:
    """k-item extension: focal-item greedy or round-robin allocation.

    The focal-item problem reduces to SelfInfMax with the other item's
    seeds as context, so two-item models in the RR-SIM regime (and an
    empty focal seed set) answer it by pooled RR-SIM+ selection
    (``method="rr"``/eligible ``"auto"``); other shapes run the
    Monte-Carlo CELF greedy.  Round-robin allocation is always MC.
    Candidate pools exclude the focal item's already-fixed seeds.
    """
    gaps = session.resolve_multi_item_gaps()
    graph = session.graph

    if query.item is not None:
        item = int(query.item)
        if not 0 <= item < gaps.num_items:
            raise SeedSetError(
                f"item must lie in [0, {gaps.num_items - 1}], got {item}"
            )
        fixed = query.fixed_seed_sets or ()
        if len(fixed) != gaps.num_items:
            raise SeedSetError(
                f"expected {gaps.num_items} seed sets, got {len(fixed)}"
            )
        base_sets = [list(s) for s in fixed]
        pool = _unoccupied_pool(
            graph.num_nodes, query.candidates, base_sets[item]
        )
        pair: Optional[GAP] = None
        if gaps.num_items == 2 and not base_sets[item]:
            pair = _focal_pairwise_gap(gaps, item)
        rr_capable = pair is not None and pair.is_one_way_complementarity_for_a
        if query.method == "rr" and not rr_capable:
            raise RegimeError(
                "focal multi-item method='rr' needs a two-item model in the "
                "RR-SIM regime (focal item one-way complemented, other item "
                "indifferent) and an empty focal seed set — use method='mc'"
            )
        if query.method == "rr" or (query.method == "auto" and rr_capable):
            seeds_ctx = base_sets[1 - item]
            sel = session.select_seeds(
                "rr-sim+", pair, seeds_ctx, query.budget, config, rng,
                candidates=pool,
            )
            return InfluenceResult(
                objective=query.objective,
                seeds=sel.seeds,
                method="rr-greedy",
                engine=config.engine,
                estimate=sel.estimated_objective,
                diagnostics={
                    "regime": "rr-sim+",
                    "theta": sel.theta,
                    "mc_runs": None,
                    "candidate_pool": len(pool),
                    "item": item,
                    "num_items": gaps.num_items,
                },
                query=query,
                raw=sel,
            )

        eval_seed = int(rng.integers(0, 2**31 - 1))

        def objective(extra: Sequence[int]) -> float:
            trial = [list(s) for s in base_sets]
            trial[item] = base_sets[item] + [int(v) for v in extra]
            spreads = estimate_multi_item_spread(
                graph, gaps, trial, runs=query.runs,
                rng=derive_seed(eval_seed, len(extra), *map(int, extra)),
            )
            return float(spreads[item])

        seeds, trace = celf_greedy(pool, query.budget, objective)
        return InfluenceResult(
            objective=query.objective,
            seeds=seeds,
            method="celf-greedy",
            engine=MC_ENGINE,
            estimate=trace[-1] if trace else None,
            diagnostics={
                "regime": MC_ENGINE,
                "theta": None,
                "mc_runs": query.runs,
                "candidate_pool": len(pool),
                "item": item,
                "num_items": gaps.num_items,
            },
            query=query,
            raw=(seeds, trace),
        )

    # Round-robin allocation across all items (host's view), optionally
    # extending an existing per-item allocation.  There is no RR-set
    # formulation of the joint allocation, so a forced RR route must
    # fail loudly rather than silently running Monte-Carlo.
    if query.method == "rr":
        raise RegimeError(
            "round-robin multi-item allocation has no RR route; "
            "method='rr' needs a focal item — use method='mc' or 'auto'"
        )
    eval_seed = int(rng.integers(0, 2**31 - 1))
    num_items = gaps.num_items
    if query.fixed_seed_sets is not None:
        if len(query.fixed_seed_sets) != num_items:
            raise SeedSetError(
                f"expected {num_items} seed sets, got {len(query.fixed_seed_sets)}"
            )
        seed_sets = [list(s) for s in query.fixed_seed_sets]
    else:
        seed_sets = [[] for _ in range(num_items)]
    pool = (
        list(query.candidates)
        if query.candidates is not None
        else list(range(graph.num_nodes))
    )
    allocation_order: list[int] = []
    for t in range(query.budget):
        # Feed the currently least-seeded item (lowest index on ties).
        # From empty sets this is exactly the classic t % num_items
        # rotation; from a fixed starting allocation it *continues* the
        # rotation instead of double-feeding low-index items.
        item = min(range(num_items), key=lambda i: (len(seed_sets[i]), i))
        taken = set(seed_sets[item])
        best_node, best_total = None, -np.inf
        for v in pool:
            if v in taken:
                continue
            trial = [list(s) for s in seed_sets]
            trial[item].append(v)
            total = float(
                estimate_multi_item_spread(
                    graph, gaps, trial, runs=query.runs,
                    rng=derive_seed(eval_seed, t, v),
                ).sum()
            )
            if total > best_total:
                best_node, best_total = v, total
        if best_node is None:
            break
        seed_sets[item].append(best_node)
        allocation_order.append(best_node)
    estimate = (
        float(
            estimate_multi_item_spread(
                graph, gaps, seed_sets, runs=query.runs,
                rng=derive_seed(eval_seed, query.budget + 1),
            ).sum()
        )
        if allocation_order
        else None
    )
    return InfluenceResult(
        objective=query.objective,
        seeds=allocation_order,
        method="round-robin",
        engine=MC_ENGINE,
        estimate=estimate,
        diagnostics={
            "regime": MC_ENGINE,
            "theta": None,
            "mc_runs": query.runs,
            "candidate_pool": len(pool),
            "num_items": num_items,
        },
        query=query,
        raw=seed_sets,
        seed_sets=seed_sets,
    )
