"""repro — a reproduction of "From Competition to Complementarity:
Comparative Influence Diffusion and Maximization" (Lu, Chen & Lakshmanan,
VLDB 2016).

Public API highlights:

* :class:`~repro.api.session.ComICSession` and the :mod:`repro.api` query
  layer — the single entry point for all four optimisation workloads,
  with cross-query RR-set pool reuse;
* :mod:`repro.store` — persistent, validated on-disk pool snapshots for
  cross-process warm starts — and :mod:`repro.parallel` — multiprocess
  sharded RR-set generation (``EngineConfig.workers``);
* :class:`~repro.graph.DiGraph` and the :mod:`repro.graph` substrate;
* :class:`~repro.models.GAP` and :func:`~repro.models.simulate` — the
  Com-IC model;
* :mod:`repro.learning` — GAP estimation from action logs;
* :mod:`repro.datasets` / :mod:`repro.experiments` — the evaluation
  harness regenerating every table and figure of §7.
"""

from repro.errors import (
    ActionLogError,
    ConvergenceError,
    EdgeProbabilityError,
    EstimationError,
    ExperimentError,
    GapError,
    GraphError,
    QueryError,
    RegimeError,
    ReproError,
    SeedSetError,
)
from repro.graph import DiGraph
from repro.models import (
    GAP,
    DiffusionOutcome,
    ItemState,
    estimate_boost,
    estimate_spread,
    simulate,
)
from repro.api import (
    BlockingQuery,
    ComICSession,
    CompInfMaxQuery,
    EngineConfig,
    InfluenceResult,
    MultiItemQuery,
    SelfInfMaxQuery,
)
from repro.rrset import TIMOptions, general_tim

__version__ = "2.0.0"

__all__ = [
    "ComICSession",
    "EngineConfig",
    "InfluenceResult",
    "SelfInfMaxQuery",
    "CompInfMaxQuery",
    "BlockingQuery",
    "MultiItemQuery",
    "DiGraph",
    "GAP",
    "ItemState",
    "simulate",
    "DiffusionOutcome",
    "estimate_spread",
    "estimate_boost",
    "general_tim",
    "TIMOptions",
    "ReproError",
    "QueryError",
    "GraphError",
    "EdgeProbabilityError",
    "GapError",
    "RegimeError",
    "SeedSetError",
    "ConvergenceError",
    "ActionLogError",
    "EstimationError",
    "ExperimentError",
    "__version__",
]
