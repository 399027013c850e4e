"""Seed-selection building blocks and baselines (§6–§7).

The problems themselves (SelfInfMax, CompInfMax, blocking, k-item) are
answered by :class:`~repro.api.session.ComICSession` queries; this
package holds the pieces those solvers and the evaluation harness share:

* :func:`~repro.algorithms.sandwich.sandwich_select` — Sandwich
  Approximation's candidate comparison (§6.4);
* :func:`~repro.algorithms.blocking.estimate_suppression` — the MC
  blocking objective (App. B.4) — and
  :func:`~repro.algorithms.compinfmax.theorem2_optimal_b_seeds` — the
  Theorem 2 optimum;
* :mod:`~repro.algorithms.greedy` — CELF-accelerated Monte-Carlo greedy,
  the paper's "Greedy" comparison algorithm;
* :mod:`~repro.algorithms.baselines` — HighDegree, PageRank, Random,
  Copying and VanillaIC from §7;
* :mod:`~repro.algorithms.heuristics` — DegreeDiscount / SingleDiscount
  (Chen et al. [9]), the near-linear heuristics of the paper's baselines'
  lineage.
"""

from repro.algorithms.baselines import (
    copying_seeds,
    high_degree_seeds,
    pagerank_scores,
    pagerank_seeds,
    random_seeds,
    vanilla_ic_seeds,
)
from repro.algorithms.blocking import estimate_suppression
from repro.algorithms.compinfmax import theorem2_optimal_b_seeds
from repro.algorithms.greedy import (
    celf_greedy,
    celf_plus_plus_greedy,
    greedy_compinfmax,
    greedy_selfinfmax,
)
from repro.algorithms.heuristics import degree_discount_seeds, single_discount_seeds
from repro.algorithms.sandwich import SandwichResult, sandwich_select

__all__ = [
    "theorem2_optimal_b_seeds",
    "estimate_suppression",
    "sandwich_select",
    "SandwichResult",
    "celf_greedy",
    "celf_plus_plus_greedy",
    "greedy_selfinfmax",
    "greedy_compinfmax",
    "degree_discount_seeds",
    "single_discount_seeds",
    "high_degree_seeds",
    "pagerank_scores",
    "pagerank_seeds",
    "random_seeds",
    "copying_seeds",
    "vanilla_ic_seeds",
]
