"""The uniform result envelope returned by :meth:`ComICSession.run`.

Whatever the workload — RR-set seed selection, sandwich approximation,
Monte-Carlo CELF — the session answers with one :class:`InfluenceResult`:
the selected seeds, the objective estimate, which method actually ran
(including fallback provenance, e.g. ``"sandwich"`` when submodularity
fails), and a diagnostics dict with pool sizes/bytes, theta, RR-sets
sampled, and wall-clock timings.  The underlying solver-specific result
(:class:`SelfInfMaxResult`, :class:`CompInfMaxResult`, …) rides along in
``raw`` for callers that need the full detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.algorithms.sandwich import SandwichResult
from repro.rrset.engines import SelectionResult


@dataclass
class SelfInfMaxResult:
    """Solver detail of one SelfInfMax query (``InfluenceResult.raw``)."""

    seeds: list[int]
    #: "submodular" (single TIM/IMM run) or "sandwich".
    method: str
    tim_results: dict[str, SelectionResult] = field(default_factory=dict)
    sandwich: Optional[SandwichResult] = None
    #: MC estimate of sigma_A at the returned seeds (sandwich path only).
    estimated_spread: Optional[float] = None


@dataclass
class CompInfMaxResult:
    """Solver detail of one CompInfMax query (``InfluenceResult.raw``)."""

    seeds: list[int]
    #: "submodular" (single TIM/IMM run) or "sandwich".
    method: str
    tim_results: dict[str, SelectionResult] = field(default_factory=dict)
    sandwich: Optional[SandwichResult] = None
    #: MC estimate of the boost at the returned seeds (sandwich path only).
    estimated_boost: Optional[float] = None


@dataclass
class InfluenceResult:
    """Solution of one declarative query.

    ``seeds`` is always the *newly selected* seed set (for focal
    multi-item queries, the seeds added to the focal item — the fixed
    base sets are not repeated); round-robin multi-item queries
    additionally fill ``seed_sets`` with the complete per-item
    allocation, fixed starting seeds included.
    """

    #: registry name of the workload ("selfinfmax", "compinfmax", ...).
    objective: str
    #: the selected seed set, in selection order.
    seeds: list[int]
    #: solution strategy that produced the seeds: "submodular", "sandwich",
    #: "celf-greedy", "round-robin", ... — fallbacks are visible here.
    method: str
    #: seed-selection engine used ("tim" / "imm"; "mc" for MC-greedy
    #: workloads that never touch RR-sets).
    engine: str
    #: estimate of the objective at ``seeds`` (RR-set estimate or MC mean);
    #: ``None`` when the workload does not produce one.
    estimate: Optional[float] = None
    #: pool sizes/bytes, theta, rr_sets_sampled, wall_s, fallback notes,
    #: and the graph's content fingerprint (``graph_fingerprint``, the
    #: same hash :mod:`repro.store` manifests validate against — lets a
    #: caller check which network a logged result was computed on).
    diagnostics: dict[str, Any] = field(default_factory=dict)
    #: the query that produced this result.
    query: Any = None
    #: the underlying solver result (SelfInfMaxResult, CompInfMaxResult,
    #: seed lists, ...) for callers needing engine-level detail.
    raw: Any = None
    #: one seed list per item (round-robin multi-item only).
    seed_sets: Optional[list[list[int]]] = None

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready summary (drops ``raw``; serializes the query)."""
        return {
            "objective": self.objective,
            "seeds": list(self.seeds),
            "method": self.method,
            "engine": self.engine,
            "estimate": self.estimate,
            "diagnostics": dict(self.diagnostics),
            "query": self.query.to_dict() if self.query is not None else None,
            "seed_sets": (
                [list(s) for s in self.seed_sets]
                if self.seed_sets is not None
                else None
            ),
        }
