"""`run_pipeline`: ActionLog + episodes → fitted network → query answers.

The three stages (DESIGN.md §0 / docs/pipeline.md):

1. **fit_edges** — learn per-edge influence probabilities on the graph's
   structure, via Saito EM over cascade episodes (``edge_backend="em"``)
   or Goyal counting over the action log (``"goyal"``);
2. **fit_gap** — estimate the GAP quadruple of ``(item_a, item_b)`` from
   the action log with 95% CIs (:func:`~repro.learning.learn_gap_pair`);
3. **query** — assemble a :class:`~repro.api.session.ComICSession` over
   the fitted graph + learned GAP and answer ``config.queries`` in order.

Stages 1–2 are cached content-addressed under ``workdir/cache`` (see
:mod:`repro.pipeline.cache`): a warm re-run with unchanged inputs skips
them (``StageRecord.status == "cached"``).  Stage 3 always executes — its
amortisation is the session pool cache / store's job.  Every stage writes
its record to ``workdir/pipeline_debug.sqlite``
(:mod:`repro.pipeline.db`), cached stages included, so any run is
diagnosable from the debug DB alone.

Fault sites ``pipeline.fit_edges`` / ``pipeline.fit_gap`` arm before the
respective stage body (``error`` raises
:class:`~repro.faults.InjectedFault` after the stage is recorded
``failed``; ``slow`` sleeps ``delay_s`` first).  Deadlines ride the
engine config: ``config.engine.deadline_s`` bounds each stage-3 query
cooperatively, degrading instead of blocking.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.api.session import ComICSession
from repro.errors import PipelineError
from repro.faults.plan import InjectedFault, fire
from repro.graph.digraph import DiGraph
from repro.learning.action_log import ActionLog
from repro.learning.em_cascades import EMResult, em_learn_probabilities
from repro.learning.estimator import LearnedGap, learn_gap_pair
from repro.learning.influence_probs import learn_influence_probabilities
from repro.models.gaps import GAP
from repro.pipeline.cache import (
    StageCache,
    fingerprint_episodes,
    fingerprint_log,
)
from repro.pipeline.config import PipelineConfig, digest_of
from repro.pipeline.db import DEBUG_DB_FILE, PipelineDebugDB
from repro.rng import derive_seed
from repro.sqlitedb import utc_now_iso

__all__ = ["PipelineResult", "StageRecord", "run_pipeline"]

PathLike = Union[str, os.PathLike]

_GAP_PARAMS = ("q_a", "q_a_given_b", "q_b", "q_b_given_a")


@dataclass(frozen=True)
class StageRecord:
    """One stage's outcome within a pipeline run."""

    stage: str
    #: ``"ran"`` (computed), ``"cached"`` (stage-cache hit) or ``"failed"``.
    status: str
    wall_s: float
    #: content address of the stage's inputs (its cache key digest).
    input_digest: str
    #: content hash of the stage's outputs (None for failed stages).
    output_digest: Optional[str]
    #: JSON-serialisable diagnostics (iterations, converged, samples, ...).
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class PipelineResult:
    """Output of :func:`run_pipeline`.

    ``fitted_graph`` carries the stage-1 probabilities, ``learned_gap``
    the stage-2 quadruple (``learned_gap.gap`` is the :class:`GAP`), and
    ``results`` the stage-3 :class:`~repro.api.results.InfluenceResult`
    answers in query order.  ``run_id`` keys this run's rows in the debug
    DB at ``db_path``.
    """

    run_id: int
    config: PipelineConfig
    fitted_graph: DiGraph
    learned_gap: LearnedGap
    results: list[Any]
    stages: list[StageRecord]
    db_path: str
    #: the stage-1 EM diagnostics (None under the "goyal" backend or a
    #: cache hit replayed without them).
    em: Optional[EMResult] = None

    @property
    def stages_run(self) -> int:
        """How many stages actually computed."""
        return sum(1 for s in self.stages if s.status == "ran")

    @property
    def stages_skipped(self) -> int:
        """How many stages the content-addressed cache satisfied."""
        return sum(1 for s in self.stages if s.status == "cached")

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready run summary (graph omitted; use the debug DB)."""
        return {
            "run_id": self.run_id,
            "config": self.config.to_dict(),
            "gap": {
                name: getattr(self.learned_gap.gap, name)
                for name in _GAP_PARAMS
            },
            "gap_halfwidths": dict(self.learned_gap.halfwidths),
            "gap_samples": dict(self.learned_gap.samples),
            "stages": [
                {
                    "stage": s.stage,
                    "status": s.status,
                    "wall_s": s.wall_s,
                    "input_digest": s.input_digest,
                    "output_digest": s.output_digest,
                    "detail": s.detail,
                }
                for s in self.stages
            ],
            "stages_run": self.stages_run,
            "stages_skipped": self.stages_skipped,
            "results": [r.to_dict() for r in self.results],
            "db_path": self.db_path,
        }


def _fire_site(site: str) -> None:
    """Arm a pipeline fault site; honours ``error`` and ``slow`` kinds."""
    spec = fire(site)
    if spec is None:
        return
    if spec.kind == "slow":
        time.sleep(spec.delay_s)
    elif spec.kind == "error":
        raise InjectedFault(site, spec.kind)
    # other kinds are meaningless here; firing them is a plan mistake the
    # tests would catch, not something to silently simulate differently.


def _fit_edges(
    graph: DiGraph,
    log: ActionLog,
    episodes: Optional[Sequence[np.ndarray]],
    config: PipelineConfig,
    cache: StageCache,
    *,
    graph_fp: str,
    log_fp: str,
    episodes_fp: Optional[str],
) -> tuple[np.ndarray, Optional[np.ndarray], dict[str, Any], str, str]:
    """Stage-1 body: (probabilities, observations, detail, status, digest)."""
    if config.edge_backend == "em":
        if episodes is None:
            raise PipelineError(
                'edge_backend="em" needs a cascade-episode corpus; pass '
                "episodes= (or switch to the \"goyal\" log-counting backend)"
            )
        key = {
            "stage": "fit_edges",
            "backend": "em",
            "graph": graph_fp,
            "episodes": episodes_fp,
            "max_iterations": config.em_max_iterations,
            "tolerance": config.em_tolerance,
            "initial": config.em_initial,
        }
    else:
        key = {
            "stage": "fit_edges",
            "backend": "goyal",
            "graph": graph_fp,
            "log": log_fp,
            "window": config.goyal_window,
            "smoothing": config.goyal_smoothing,
        }
    input_digest = cache.digest(key)

    hit = cache.load(key)
    if hit is not None:
        arrays, extra = hit
        probabilities = arrays["probabilities"]
        observations = arrays.get("observations")
        return probabilities, observations, dict(extra), "cached", input_digest

    if config.edge_backend == "em":
        result = em_learn_probabilities(
            graph,
            list(episodes),
            max_iterations=config.em_max_iterations,
            tolerance=config.em_tolerance,
            initial=config.em_initial,
        )
        probabilities = result.probabilities
        observations: Optional[np.ndarray] = result.observations
        detail: dict[str, Any] = {
            "backend": "em",
            "iterations": result.iterations,
            "converged": result.converged,
            "episodes": len(episodes),
            "log_likelihoods": [float(x) for x in result.log_likelihoods],
        }
    else:
        fitted = learn_influence_probabilities(
            graph,
            log,
            window=config.goyal_window,
            smoothing=config.goyal_smoothing,
        )
        probabilities = fitted.edge_probabilities
        observations = None
        detail = {"backend": "goyal", "events": len(list(log.canonical_events()))}

    arrays = {"probabilities": np.asarray(probabilities, dtype=np.float64)}
    if observations is not None:
        arrays["observations"] = np.asarray(observations, dtype=np.int64)
    cache.save(key, arrays, detail)
    return probabilities, observations, detail, "ran", input_digest


def _fit_gap(
    log: ActionLog,
    config: PipelineConfig,
    cache: StageCache,
    *,
    log_fp: str,
) -> tuple[LearnedGap, dict[str, Any], str, str]:
    """Stage-2 body: (learned gap, detail, status, input digest)."""
    key = {
        "stage": "fit_gap",
        "log": log_fp,
        "item_a": config.item_a,
        "item_b": config.item_b,
    }
    input_digest = cache.digest(key)
    hit = cache.load(key)
    if hit is not None:
        _arrays, extra = hit
        learned = LearnedGap(
            item_a=config.item_a,
            item_b=config.item_b,
            gap=GAP.from_mapping(extra["gap"]),
            halfwidths=dict(extra["halfwidths"]),
            samples={k: int(v) for k, v in extra["samples"].items()},
        )
        return learned, dict(extra), "cached", input_digest

    learned = learn_gap_pair(log, config.item_a, config.item_b)
    detail = {
        "gap": {name: getattr(learned.gap, name) for name in _GAP_PARAMS},
        "halfwidths": dict(learned.halfwidths),
        "samples": dict(learned.samples),
    }
    cache.save(key, {}, detail)
    return learned, detail, "ran", input_digest


def run_pipeline(
    graph: DiGraph,
    log: ActionLog,
    config: PipelineConfig,
    *,
    episodes: Optional[Sequence[np.ndarray]] = None,
    workdir: PathLike,
    truth: Optional[GAP] = None,
) -> PipelineResult:
    """Run the full log-to-query pipeline and record it in the debug DB.

    ``graph`` provides *structure only* — stage 1 refits its edge
    probabilities.  ``truth`` (a ground-truth :class:`GAP`, available for
    synthetic logs) is optional experiment metadata: when given, the
    debug DB's ``gap_fits`` rows carry per-parameter true values and
    inside-95%-CI verdicts.  On a stage failure the run is stamped
    ``failed`` in the debug DB (the failing stage row included) and the
    exception propagates.
    """
    workdir = Path(workdir)
    try:
        workdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PipelineError(f"unusable workdir {workdir}: {exc}") from exc
    cache = StageCache(workdir / "cache")
    db = PipelineDebugDB(workdir / DEBUG_DB_FILE)

    graph_fp = graph.fingerprint()
    log_fp = fingerprint_log(log)
    episodes_fp = (
        fingerprint_episodes(episodes) if episodes is not None else None
    )
    run_id = db.begin_run(
        config_json=config.to_json(),
        config_digest=config.digest(),
        graph_fingerprint=graph_fp,
        log_fingerprint=log_fp,
        episodes_fingerprint=episodes_fp,
        seed=config.seed,
    )

    stages: list[StageRecord] = []

    def _record(record: StageRecord, started_utc: str) -> None:
        stages.append(record)
        db.record_stage(
            run_id,
            record.stage,
            status=record.status,
            input_digest=record.input_digest,
            output_digest=record.output_digest,
            wall_s=record.wall_s,
            started_utc=started_utc,
            detail=record.detail,
        )

    def _fail(stage: str, input_digest: str, started: float,
              started_utc: str, exc: BaseException) -> None:
        _record(
            StageRecord(
                stage=stage,
                status="failed",
                wall_s=time.perf_counter() - started,
                input_digest=input_digest,
                output_digest=None,
                detail={"error": f"{type(exc).__name__}: {exc}"},
            ),
            started_utc,
        )
        db.finish_run(
            run_id,
            status="failed",
            error=f"{stage}: {type(exc).__name__}: {exc}",
            stages_run=sum(1 for s in stages if s.status == "ran"),
            stages_skipped=sum(1 for s in stages if s.status == "cached"),
        )

    # ------------------------------------------------------------------
    # Stage 1: fit edge probabilities
    # ------------------------------------------------------------------
    started_utc = utc_now_iso()
    started = time.perf_counter()
    input_digest = "?"
    try:
        _fire_site("pipeline.fit_edges")
        probabilities, observations, detail, status, input_digest = _fit_edges(
            graph, log, episodes, config, cache,
            graph_fp=graph_fp, log_fp=log_fp, episodes_fp=episodes_fp,
        )
    except BaseException as exc:
        _fail("fit_edges", input_digest, started, started_utc, exc)
        raise
    output_digest = digest_of(
        [float(p) for p in np.asarray(probabilities, dtype=np.float64)]
    )
    _record(
        StageRecord(
            stage="fit_edges",
            status=status,
            wall_s=time.perf_counter() - started,
            input_digest=input_digest,
            output_digest=output_digest,
            detail=detail,
        ),
        started_utc,
    )
    if detail.get("log_likelihoods"):
        db.record_em_trace(run_id, detail["log_likelihoods"])
    fitted_graph = graph.with_probabilities(
        np.asarray(probabilities, dtype=np.float64)
    )
    db.record_edge_fits(
        run_id,
        sources=fitted_graph.edge_sources,
        targets=fitted_graph.edge_targets,
        probabilities=fitted_graph.edge_probabilities,
        observations=observations,
    )
    em_result: Optional[EMResult] = None
    if detail.get("backend") == "em" and observations is not None:
        em_result = EMResult(
            probabilities=np.asarray(probabilities, dtype=np.float64),
            iterations=int(detail.get("iterations", 0)),
            converged=bool(detail.get("converged", False)),
            observations=np.asarray(observations, dtype=np.int64),
            log_likelihoods=tuple(detail.get("log_likelihoods", ())),
        )

    # ------------------------------------------------------------------
    # Stage 2: fit the GAP quadruple
    # ------------------------------------------------------------------
    started_utc = utc_now_iso()
    started = time.perf_counter()
    input_digest = "?"
    try:
        _fire_site("pipeline.fit_gap")
        learned, gap_detail, status, input_digest = _fit_gap(
            log, config, cache, log_fp=log_fp
        )
    except BaseException as exc:
        _fail("fit_gap", input_digest, started, started_utc, exc)
        raise
    _record(
        StageRecord(
            stage="fit_gap",
            status=status,
            wall_s=time.perf_counter() - started,
            input_digest=input_digest,
            output_digest=digest_of(gap_detail["gap"]),
            detail=gap_detail,
        ),
        started_utc,
    )
    for name in _GAP_PARAMS:
        lo, hi = learned.interval(name)
        true_value = getattr(truth, name) if truth is not None else None
        db.record_gap_fit(
            run_id,
            item_a=config.item_a,
            item_b=config.item_b,
            parameter=name,
            value=getattr(learned.gap, name),
            halfwidth=learned.halfwidths[name],
            ci_lo=lo,
            ci_hi=hi,
            samples=learned.samples[name],
            true_value=true_value,
            inside_ci=(
                None if true_value is None else bool(lo <= true_value <= hi)
            ),
        )

    # ------------------------------------------------------------------
    # Stage 3: answer the configured queries on the fitted network
    # ------------------------------------------------------------------
    started_utc = utc_now_iso()
    started = time.perf_counter()
    results: list[Any] = []
    query_key = {
        "stage": "query",
        "graph": graph_fp,
        "edges": output_digest,
        "gap": digest_of(gap_detail["gap"]),
        "queries": [q.to_dict() for q in config.queries],
        "engine": config.engine.to_dict(),
        "seed": config.seed,
    }
    session = ComICSession(
        fitted_graph,
        learned.gap,
        config=config.engine,
        rng=derive_seed(config.seed, 3),
    )
    try:
        for index, query in enumerate(config.queries):
            result = session.run(query)
            results.append(result)
            diagnostics = result.diagnostics
            db.record_query(
                run_id,
                index,
                objective=result.objective,
                query_json=query.to_json(),
                seeds=result.seeds,
                estimate=result.estimate,
                method=result.method,
                engine=result.engine,
                rr_sets_sampled=diagnostics.get("rr_sets_sampled"),
                degraded=bool(diagnostics.get("degraded", False)),
                wall_s=diagnostics.get("wall_s"),
            )
    except BaseException as exc:
        _fail("query", digest_of(query_key), started, started_utc, exc)
        raise
    finally:
        session.close()
    _record(
        StageRecord(
            stage="query",
            status="ran",
            wall_s=time.perf_counter() - started,
            input_digest=digest_of(query_key),
            output_digest=digest_of(
                [[int(s) for s in r.seeds] for r in results]
            ),
            detail={"queries": len(results)},
        ),
        started_utc,
    )

    db.finish_run(
        run_id,
        status="ok",
        stages_run=sum(1 for s in stages if s.status == "ran"),
        stages_skipped=sum(1 for s in stages if s.status == "cached"),
    )
    db.close()
    return PipelineResult(
        run_id=run_id,
        config=config,
        fitted_graph=fitted_graph,
        learned_gap=learned,
        results=results,
        stages=stages,
        db_path=str(workdir / DEBUG_DB_FILE),
        em=em_result,
    )
