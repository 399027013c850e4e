"""repro.api — the unified, declarative Com-IC query layer.

One :class:`ComICSession` owns a network (graph + GAPs + engine config)
and answers frozen, JSON-round-trippable query objects for all four
optimisation workloads, caching RR-set pools across queries so sweeps top
up instead of resample::

    from repro.api import ComICSession, EngineConfig, SelfInfMaxQuery

    session = ComICSession(graph, gaps, config=EngineConfig(engine="imm"))
    result = session.run(SelfInfMaxQuery(seeds_b=(0, 1), k=10))
    result.seeds, result.estimate, result.diagnostics

The four workloads are fixed: :data:`repro.api.queries.QUERY_TYPES` maps
each wire tag to its query class, and the session maps each query class
to its solver.  ``tests/api/test_public_surface.py`` pins ``__all__`` —
extend it deliberately, never accidentally.
"""

from repro.api.config import EngineConfig
# The dynamic-graph vocabulary: deltas are applied through the session
# (ComICSession.apply_delta), so their types are part of this layer's
# public surface even though their homes are repro.graph / repro.errors.
from repro.errors import DeltaError, PipelineError
from repro.graph.delta import GraphDelta
# The learning vocabulary the pipeline produces/consumes: these live in
# repro.learning but are part of the query layer's public surface since
# PipelineResult hands them to api callers.
from repro.learning.em_cascades import EMResult
from repro.learning.estimator import LearnedGap
from repro.invalidation import InvalidationReason
from repro.api.queries import (
    BlockingQuery,
    CompInfMaxQuery,
    MultiItemQuery,
    SelfInfMaxQuery,
    query_from_dict,
    query_from_json,
)
from repro.api.results import InfluenceResult
from repro.api.session import (
    ComICSession,
    DeltaReport,
    PoolInfo,
    SessionStats,
)
# PoolKey is the shared cache/store identity; its home is repro.store but
# it is part of the session's public vocabulary (pool_info, select_seeds).
from repro.store import PoolKey

#: pipeline names re-exported lazily (PEP 562): repro.pipeline consumes
#: this layer (its runner builds ComICSessions), so importing it eagerly
#: here would be a circular import.  Deferral breaks the cycle while
#: keeping ``from repro.api import PipelineConfig`` working.
_PIPELINE_EXPORTS = frozenset(
    {
        "PipelineConfig",
        "PipelineDebugDB",
        "PipelineResult",
        "StageRecord",
        "run_pipeline",
    }
)


def __getattr__(name: str):
    if name in _PIPELINE_EXPORTS:
        from repro import pipeline as _pipeline

        return getattr(_pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BlockingQuery",
    "ComICSession",
    "CompInfMaxQuery",
    "DeltaError",
    "DeltaReport",
    "EMResult",
    "EngineConfig",
    "GraphDelta",
    "InfluenceResult",
    "InvalidationReason",
    "LearnedGap",
    "MultiItemQuery",
    "PipelineConfig",
    "PipelineDebugDB",
    "PipelineError",
    "PipelineResult",
    "PoolInfo",
    "PoolKey",
    "SelfInfMaxQuery",
    "SessionStats",
    "StageRecord",
    "query_from_dict",
    "query_from_json",
    "run_pipeline",
]
