"""Unified engine configuration for the query API.

:class:`EngineConfig` is the single knob object of :mod:`repro.api`: it
replaces the ad-hoc ``(engine, TIMOptions, IMMOptions)`` triple that
solver calls once threaded through every call.  One frozen,
JSON-round-trippable record fixes the seed-selection engine (``"tim"`` or
``"imm"``) and the shared accuracy/budget knobs; :meth:`tim_options` and
:meth:`imm_options` project it onto the engine-specific option dataclasses
the :mod:`repro.rrset` layer consumes, so both engines always see
consistent epsilon / ell / sample caps.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Mapping, Optional

from repro.errors import QueryError
from repro.rrset.engines import ENGINES
from repro.rrset.imm import IMMOptions
from repro.rrset.tim import TIMOptions


@dataclass(frozen=True)
class EngineConfig:
    """Knobs shared by every RR-set-backed query.

    ``engine`` selects GeneralTIM ([24]) or martingale IMM ([23]);
    ``epsilon`` / ``ell`` are the usual approximation-slack and
    failure-probability knobs; ``max_rr_sets`` / ``min_rr_sets`` bound the
    sample size for tractability; ``theta_override`` pins the TIM sample
    count outright (benchmarks, scaled experiments).  Monte-Carlo routes
    of the blocking / multi-item objectives ignore the engine fields.

    ``max_pool_bytes`` bounds the session's RR-set pool *cache*: after
    each pooled seed selection, least-recently-used pools are evicted
    until the total cached bytes fit (``None`` = unbounded, the
    pre-cap behaviour).  Evictions are counted in
    :class:`~repro.api.session.SessionStats`.

    ``workers`` parallelises RR-set *generation*: values above 1 make the
    session wrap each pool's generator in a
    :class:`~repro.parallel.ParallelEngine` that shards every sampling
    batch across that many spawn-safe worker processes (selection and MC
    evaluation stay in-process).  The workers are persistent per cached
    pool; 1 (the default) is fully serial.

    ``deadline_s`` gives every query a cooperative wall-clock budget in
    seconds: sampling checks it at TIM/IMM top-up boundaries and parallel
    shard joins, and on expiry the session returns a best-effort result
    over the RR-sets already drawn (never fewer than ``min_rr_sets``),
    stamped ``degraded=True`` in
    :attr:`~repro.api.results.InfluenceResult.diagnostics`.  ``None``
    (the default) imposes no budget.  See ``docs/resilience.md``.

    ``track_touches`` makes the session's pools record per-member
    edge-touch signatures (and roots) during generation, enabling
    incremental repair under :meth:`~repro.api.session.ComICSession.
    apply_delta` at the cost of extra pool memory; off by default so
    cold static-graph generation pays nothing.  ``delta_churn_threshold``
    bounds how much relative edge churn (``delta.num_edits / num_edges``)
    a repair may absorb: beyond it the session falls back to full
    regeneration, both because repair approaches regeneration cost and
    because the keep-the-untouched-members approximation degrades with
    churn.  See ``docs/api.md`` ("Dynamic graphs").
    """

    engine: str = "tim"
    epsilon: float = 0.5
    ell: float = 1.0
    max_rr_sets: int = 50_000
    min_rr_sets: int = 200
    theta_override: Optional[int] = None
    max_pool_bytes: Optional[int] = None
    workers: int = 1
    deadline_s: Optional[float] = None
    track_touches: bool = False
    delta_churn_threshold: float = 0.35

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise QueryError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.epsilon <= 0.0:
            raise QueryError(f"epsilon must be positive, got {self.epsilon}")
        if self.ell <= 0.0:
            raise QueryError(f"ell must be positive, got {self.ell}")
        if self.max_rr_sets < 1:
            raise QueryError(f"max_rr_sets must be >= 1, got {self.max_rr_sets}")
        if self.min_rr_sets < 1:
            raise QueryError(f"min_rr_sets must be >= 1, got {self.min_rr_sets}")
        if self.theta_override is not None and self.theta_override < 1:
            raise QueryError(
                f"theta_override must be >= 1, got {self.theta_override}"
            )
        if self.theta_override is not None and self.engine == "imm":
            raise QueryError(
                "theta_override pins the TIM sample count; IMM sizes its "
                "sample adaptively — use max_rr_sets to bound it instead"
            )
        if self.max_pool_bytes is not None and self.max_pool_bytes < 1:
            raise QueryError(
                f"max_pool_bytes must be >= 1 (or None for unbounded), "
                f"got {self.max_pool_bytes}"
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            raise QueryError(
                f"workers must be an int >= 1 (1 = serial), got {self.workers!r}"
            )
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise QueryError(
                f"deadline_s must be > 0 seconds (or None for no budget), "
                f"got {self.deadline_s}"
            )
        if not isinstance(self.track_touches, bool):
            raise QueryError(
                f"track_touches must be a bool, got {self.track_touches!r}"
            )
        if not 0.0 <= self.delta_churn_threshold <= 1.0:
            raise QueryError(
                f"delta_churn_threshold must lie in [0, 1], "
                f"got {self.delta_churn_threshold}"
            )

    # ------------------------------------------------------------------
    # Projections onto the engine-specific option records
    # ------------------------------------------------------------------
    def tim_options(self) -> TIMOptions:
        """The equivalent :class:`~repro.rrset.tim.TIMOptions`."""
        return TIMOptions(
            epsilon=self.epsilon,
            ell=self.ell,
            max_rr_sets=self.max_rr_sets,
            min_rr_sets=self.min_rr_sets,
            theta_override=self.theta_override,
        )

    def imm_options(self) -> IMMOptions:
        """The equivalent :class:`~repro.rrset.imm.IMMOptions`."""
        return IMMOptions(
            epsilon=self.epsilon,
            ell=self.ell,
            max_rr_sets=self.max_rr_sets,
            min_rr_sets=self.min_rr_sets,
        )

    @classmethod
    def from_tim_options(cls, options: TIMOptions) -> "EngineConfig":
        """A TIM-engine config carrying ``options``' knobs (theta pin included)."""
        return cls(
            epsilon=options.epsilon,
            ell=options.ell,
            max_rr_sets=options.max_rr_sets,
            min_rr_sets=options.min_rr_sets,
            theta_override=options.theta_override,
        )

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A plain-JSON-types dict; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineConfig":
        """Rebuild from :meth:`to_dict` output."""
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise QueryError(f"unknown EngineConfig fields: {sorted(unknown)}")
        return cls(**known)

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "EngineConfig":
        """Inverse of :meth:`to_json` (``from_json(to_json(c)) == c``)."""
        return cls.from_dict(json.loads(payload))
