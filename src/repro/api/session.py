"""`ComICSession`: one network, many queries, shared RR-set pools.

The session is the serving-layer front end of the reproduction: it owns a
graph, default GAPs and an :class:`~repro.api.config.EngineConfig`,
validates them once, and answers declarative queries
(:mod:`repro.api.queries`) through one fixed table of solvers.  Its core
economy is the **pool cache**: every RR-set-backed seed selection runs
against a cached :class:`~repro.rrset.pool.RRSetPool` keyed by

    (RR regime, GAP quadruple, opposite-seed set)

so repeated queries over the same network — k-sweeps, epsilon-sweeps,
dashboard refreshes — *top up* the pool IMM-style to whatever ``theta``
they need instead of resampling from scratch.  A query that needs fewer
sets than are pooled samples nothing at all; one that needs more appends
only the difference.  The selection phase then covers every pooled set,
which only sharpens the RR-set estimate.

The cache is optionally *bounded*: when the resolved config sets
``max_pool_bytes``, least-recently-used pools are evicted after each
selection until the cached bytes fit (the access order doubles as the
LRU order; ``SessionStats`` counts evictions and bytes released).

Two further levers extend the economy beyond one process:

* ``store=`` attaches a persistent :class:`~repro.store.PoolStore`.
  Cache misses first try the store (validated against the
  :class:`~repro.store.PoolKey` *and* the graph's
  :meth:`~repro.graph.digraph.DiGraph.fingerprint`, so a pool sampled
  from a different network can never be served), and every selection
  that grew a pool writes it back — so a second process warm-starts the
  same query with **zero** RR-set sampling, and pools evicted by the
  byte cap remain one mmap load away.  ``SessionStats`` counts store
  hits / misses / invalidations / saves.
* ``EngineConfig.workers > 1`` wraps each pool's generator in a
  :class:`~repro.parallel.ParallelEngine`, sharding every sampling batch
  across that many worker processes.  All cached pools' engines
  time-share **one** session-owned
  :class:`~repro.parallel.WorkerPool` (generators ride on the task and
  are cached worker-side), so ``workers=K`` costs K resident processes
  per session, not K per cached pool.

Warm starts are additionally **theta-pinned**: every IMM selection
records its certified final theta (in memory, and into the store
manifest's provenance on write-through), and a repeat of the same
``(k, epsilon, ell)`` request whose pool already holds that many sets
skips the adaptive sampling phase outright — zero RR-sets sampled and
bit-identical seeds, where the adaptive re-run used to top up ~1% and
could drift.  ``SessionStats.theta_pins`` counts these.

Example::

    session = ComICSession(graph, gaps, config=EngineConfig(engine="imm"))
    for k in (10, 20, 30, 40, 50):
        result = session.run(SelfInfMaxQuery(seeds_b=(0, 1), k=k))
    session.stats.rr_sets_sampled   # far below five independent runs

``session.stats`` and each result's ``diagnostics`` expose the accounting
(`benchmarks/bench_session_reuse.py` turns it into a report).
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Optional, Sequence, Union

from repro.api import solvers
from repro.api.config import EngineConfig
from repro.api.queries import (
    BlockingQuery,
    CompInfMaxQuery,
    MultiItemQuery,
    SelfInfMaxQuery,
)
from repro.api.results import InfluenceResult
from repro.deadline import Deadline, deadline_scope
from repro.errors import DeltaError, QueryError, StoreError
from repro.graph.delta import GraphDelta
from repro.graph.digraph import DiGraph
from repro.invalidation import InvalidationReason
from repro.models.gaps import GAP
from repro.models.multi_item import MultiItemGaps
from repro.parallel import ParallelEngine, WorkerPool
from repro.rng import SeedLike, make_rng
from repro.rrset.base import RRSetGenerator
from repro.rrset.engines import SelectionResult, run_seed_selection
from repro.rrset.pool import RRSetPool
from repro.rrset.rr_block import RRBlockGenerator
from repro.rrset.rr_cim import RRCimGenerator
from repro.rrset.rr_ic import RRICGenerator
from repro.rrset.rr_sim import RRSimGenerator
from repro.rrset.rr_sim_plus import RRSimPlusGenerator
# The session's cache and the on-disk store share one key type so the two
# can never disagree about what identifies a pool (it used to be an
# ad-hoc tuple private to this module).
from repro.store import PoolKey, PoolStore

StoreLike = Union[PoolStore, str, os.PathLike, None]

#: The solver of each query type: ``(session, query, config, rng) ->
#: InfluenceResult``.
_HANDLERS = {
    SelfInfMaxQuery: solvers.run_selfinfmax,
    CompInfMaxQuery: solvers.run_compinfmax,
    BlockingQuery: solvers.run_blocking,
    MultiItemQuery: solvers.run_multi_item,
}

#: The generator of each RR-set regime, called as ``(graph, gaps,
#: opposite_seeds)``; the regime names are the :class:`PoolKey` regimes.
_GENERATORS = {
    "rr-ic": lambda graph, gaps, opposite: RRICGenerator(graph),
    "rr-sim": RRSimGenerator,
    "rr-sim+": RRSimPlusGenerator,
    "rr-cim": RRCimGenerator,
    "rr-block": RRBlockGenerator,
}


def _make_generator(
    regime: str,
    graph: DiGraph,
    gaps: GAP,
    opposite_seeds: Sequence[int],
) -> RRSetGenerator:
    """The generator of one regime; raises when it is unknown."""
    factory = _GENERATORS.get(regime)
    if factory is None:
        raise QueryError(
            f"unknown RR-set regime {regime!r}; known: "
            f"{', '.join(sorted(_GENERATORS))}"
        )
    return factory(graph, gaps, opposite_seeds)


@dataclass
class SessionStats:
    """Cumulative accounting across every query a session has served."""

    #: queries answered (successful ``run`` calls).
    queries: int = 0
    #: RR-sets actually sampled (pool growth); reuse keeps this below the
    #: sum of per-query theta values.
    rr_sets_sampled: int = 0
    #: seed selections answered from an existing pool entry.
    pool_hits: int = 0
    #: seed selections that had to create a new pool entry.
    pool_misses: int = 0
    #: cached pools dropped by the ``max_pool_bytes`` LRU policy.
    pool_evictions: int = 0
    #: RR-set bytes released by those evictions (resampling cost ceiling).
    pool_bytes_evicted: int = 0
    #: cache misses answered by the attached store (zero resampling).
    store_hits: int = 0
    #: cache misses the store could not answer (no entry for the key).
    store_misses: int = 0
    #: store entries found but rejected (foreign graph fingerprint,
    #: mismatched manifest, corrupted columns) — resampled from scratch.
    store_invalidations: int = 0
    #: pool snapshots written back to the store after growth.
    store_saves: int = 0
    #: IMM selections answered by pinning a previously-certified theta —
    #: the adaptive sampling phase was skipped and zero RR-sets drawn.
    theta_pins: int = 0
    #: queries whose sampling was clipped by ``EngineConfig.deadline_s``
    #: (each returned a best-effort result stamped ``degraded=True``).
    deadline_expiries: int = 0
    #: rejected store entries moved into quarantine by attached-store loads.
    store_quarantines: int = 0
    #: write-throughs that failed and degraded to a warning.
    store_save_failures: int = 0
    #: parallel shards re-dispatched after a worker crash or hang.
    parallel_retries: int = 0
    #: worker-pool teardown/rebuild cycles forced by crashes or hangs.
    parallel_restarts: int = 0
    #: hung worker processes killed by the per-shard deadline.
    parallel_hung_kills: int = 0
    #: batches that fell back to in-process serial generation after
    #: parallel retries were exhausted.
    serial_fallbacks: int = 0
    #: graph deltas applied via :meth:`ComICSession.apply_delta`.
    deltas_applied: int = 0
    #: cached pools surgically repaired in place by a delta (only the
    #: touched members were resampled).
    pools_repaired: int = 0
    #: cached pools a delta dropped for lazy full regeneration (excess
    #: churn, or no touch record) — see ``delta_fallbacks_by_reason``.
    pools_regenerated: int = 0
    #: RR-set members resampled by delta repairs (subset of
    #: ``rr_sets_sampled``).
    members_resampled: int = 0
    #: per-reason breakdown of ``pools_regenerated``, keyed by
    #: :class:`~repro.invalidation.InvalidationReason` value strings.
    delta_fallbacks_by_reason: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Plain-dict view for reports."""
        return asdict(self)


#: the counters a query's ``diagnostics["resilience"]`` always carries
#: (zero-valued when nothing went wrong — consumers can key on them
#: unconditionally).
RESILIENCE_COUNTERS = (
    "deadline_expiries",
    "store_quarantines",
    "store_save_failures",
    "parallel_retries",
    "parallel_restarts",
    "parallel_hung_kills",
    "serial_fallbacks",
)


@dataclass
class _PoolEntry:
    """One cached (generator, pool) pair."""

    key: PoolKey
    generator: RRSetGenerator
    pool: RRSetPool
    selections: int = 0
    #: logical access clock value of the most recent use (LRU order).
    last_used: int = 0
    #: lazily-built multiprocess wrapper (``EngineConfig.workers > 1``).
    parallel: Optional[ParallelEngine] = field(default=None, repr=False)
    #: where the pool's initial sets came from: "sampled" or "store".
    origin: str = "sampled"
    #: the last completed (non-degraded, unrestricted) IMM selection on
    #: this pool: ``{"engine", "k", "epsilon", "ell", "theta"}`` — the
    #: record the stored-theta warm-start fast path pins against.  Warm
    #: starts adopt it from the store manifest's provenance.
    stored_selection: Optional[dict] = field(default=None, repr=False)
    #: delta-repair provenance: one record per :meth:`ComICSession.
    #: apply_delta` repair this pool survived, persisted into the store
    #: manifest's provenance on write-through.
    lineage: list = field(default_factory=list, repr=False)

    def close(self) -> None:
        """Release the entry's parallel engine, if any.

        Over a session-shared :class:`~repro.parallel.WorkerPool` this
        only detaches the engine — the worker processes belong to the
        session and keep serving other entries.
        """
        if self.parallel is not None:
            self.parallel.close()
            self.parallel = None


@dataclass
class PoolInfo:
    """Read-only snapshot of one cached pool (diagnostics)."""

    regime: str
    gaps: tuple[float, float, float, float]
    opposite_seeds: tuple[int, ...]
    sets: int
    nbytes: int
    selections: int
    batch_kernel: str = "vectorized"
    #: logical access clock of the last selection served from this pool;
    #: lower values are evicted first under ``max_pool_bytes``.
    last_used: int = 0
    #: "store" when the pool warm-started from the attached PoolStore,
    #: else "sampled".
    origin: str = "sampled"


@dataclass(frozen=True)
class DeltaReport:
    """Outcome of one :meth:`ComICSession.apply_delta` call.

    ``pools`` carries one row per cached pool the delta touched:
    ``{"regime", "opposite_seeds", "action", "affected", "resampled",
    "reason"}`` where ``action`` is ``"repaired"`` (surgical in-place
    repair) or ``"regenerated"`` (entry dropped; the next query over its
    key resamples from scratch) and ``reason`` is the
    :class:`~repro.invalidation.InvalidationReason` value explaining a
    regeneration (``None`` for repairs).
    """

    num_edits: int
    churn: float
    old_fingerprint: str
    fingerprint: str
    pools_repaired: int
    pools_regenerated: int
    members_resampled: int
    pools: tuple = ()

    def as_dict(self) -> dict[str, Any]:
        """Plain-JSON-types view (service transport)."""
        out = asdict(self)
        out["pools"] = [dict(row) for row in self.pools]
        return out


class ComICSession:
    """A long-lived query session over one influence network.

    ``gaps`` is the default GAP quadruple (queries may override it per
    call); ``multi_item_gaps`` configures the k-item extension (defaults
    to lifting the pairwise GAPs when only those are given).  ``rng``
    seeds the session-wide random stream; per-query ``rng`` overrides give
    reproducible individual queries.  ``store`` attaches a persistent
    :class:`~repro.store.PoolStore` (a path builds one) for cross-process
    pool reuse: cache misses try the store first, and grown pools are
    written back after each selection.
    """

    def __init__(
        self,
        graph: DiGraph,
        gaps: Optional[GAP] = None,
        *,
        multi_item_gaps: Optional[MultiItemGaps] = None,
        config: Optional[EngineConfig] = None,
        rng: SeedLike = None,
        store: StoreLike = None,
    ) -> None:
        if not isinstance(graph, DiGraph):
            raise QueryError(
                f"graph must be a DiGraph, got {type(graph).__name__}"
            )
        if gaps is not None and not isinstance(gaps, GAP):
            raise QueryError(f"gaps must be a GAP, got {type(gaps).__name__}")
        if multi_item_gaps is not None and not isinstance(
            multi_item_gaps, MultiItemGaps
        ):
            raise QueryError(
                "multi_item_gaps must be a MultiItemGaps, got "
                f"{type(multi_item_gaps).__name__}"
            )
        if config is not None and not isinstance(config, EngineConfig):
            raise QueryError(
                "config must be an EngineConfig (lift TIMOptions via "
                f"EngineConfig.from_tim_options), got "
                f"{type(config).__name__}"
            )
        if store is None or isinstance(store, PoolStore):
            self._store = store
        elif isinstance(store, (str, os.PathLike)):
            self._store = PoolStore(store)
        else:
            raise QueryError(
                "store must be a PoolStore, a path, or None, got "
                f"{type(store).__name__}"
            )
        self._graph = graph
        self._gaps = gaps
        self._multi_item_gaps = multi_item_gaps
        self._config = config if config is not None else EngineConfig()
        self._rng = make_rng(rng)
        # Insertion order is maintained as LRU order: every access
        # re-inserts the entry at the end, eviction pops from the front.
        self._pools: dict[PoolKey, _PoolEntry] = {}
        self._access_clock = 0
        #: session-wide worker pool every parallel entry's engine shares
        #: (built on the first ``workers > 1`` selection).
        self._worker_pool: Optional[WorkerPool] = None
        self.stats = SessionStats()
        #: degradation events of the query currently being served
        #: (``run`` resets it, helpers append, diagnostics publish it).
        self._events: list[dict[str, str]] = []

    # ------------------------------------------------------------------
    # Configuration accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The session's influence network."""
        return self._graph

    @property
    def gaps(self) -> Optional[GAP]:
        """The session's default GAPs (queries may override)."""
        return self._gaps

    @property
    def config(self) -> EngineConfig:
        """The session's default engine configuration."""
        return self._config

    @property
    def store(self) -> Optional[PoolStore]:
        """The attached persistent pool store, if any."""
        return self._store

    def resolve_gaps(self, override: Optional[GAP] = None) -> GAP:
        """The GAPs a query should run under; errors if none are known."""
        gaps = override if override is not None else self._gaps
        if gaps is None:
            raise QueryError(
                "query needs GAPs: set them on the session or on the query"
            )
        return gaps

    def resolve_multi_item_gaps(self) -> MultiItemGaps:
        """The k-item model (explicit, or lifted from the pairwise GAPs)."""
        if self._multi_item_gaps is not None:
            return self._multi_item_gaps
        if self._gaps is not None:
            return MultiItemGaps.from_pairwise_gap(self._gaps)
        raise QueryError(
            "multi-item queries need multi_item_gaps (or pairwise gaps) on "
            "the session"
        )

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def run(
        self,
        query: Any,
        *,
        config: Optional[EngineConfig] = None,
        rng: SeedLike = None,
    ) -> InfluenceResult:
        """Answer one declarative query.

        ``config`` overrides the session's engine configuration for this
        query only (epsilon sweeps); ``rng`` pins this query's randomness
        instead of advancing the session stream.  Note that a pinned
        ``rng`` fixes only the *new* samples and MC draws — RR-set-backed
        results also depend on whatever the session's pools already hold,
        so reproducibility requires an identical session history (or a
        fresh session).
        """
        if config is not None and not isinstance(config, EngineConfig):
            raise QueryError(
                f"config must be an EngineConfig, got {type(config).__name__}"
            )
        cfg = config if config is not None else self._config
        handler = _HANDLERS.get(type(query))
        if handler is None:
            raise QueryError(
                f"no objective registered for query type "
                f"{type(query).__name__!r}; known: "
                f"{', '.join(sorted(q.objective for q in _HANDLERS))}"
            )
        gen = self._rng if rng is None else make_rng(rng)
        sampled_before = self.stats.rr_sets_sampled
        stats_before = self.stats.as_dict()
        self._events = []
        started = time.perf_counter()
        if cfg.deadline_s is not None:
            with deadline_scope(Deadline(cfg.deadline_s)):
                result: InfluenceResult = handler(self, query, cfg, gen)
        else:
            result = handler(self, query, cfg, gen)
        self.stats.queries += 1
        result.diagnostics.setdefault("wall_s", time.perf_counter() - started)
        result.diagnostics.setdefault(
            "rr_sets_sampled", self.stats.rr_sets_sampled - sampled_before
        )
        result.diagnostics.setdefault("pool_sets_total", self.pool_sets_total)
        result.diagnostics.setdefault("pool_bytes_total", self.pool_bytes_total)
        result.diagnostics.setdefault(
            "graph_fingerprint", self._graph.fingerprint()
        )
        self._stamp_resilience(result, stats_before)
        return result

    def _stamp_resilience(
        self, result: InfluenceResult, stats_before: dict[str, int]
    ) -> None:
        """Publish this query's degradation provenance into diagnostics.

        Every result carries the full ``resilience`` counter dict (this
        query's deltas, zero when nothing degraded) plus the chronological
        ``events`` the helpers recorded; ``degraded`` is ``True`` exactly
        when the wall-clock deadline clipped sampling — recoveries
        (retries, quarantines, fallbacks) keep results exact, so they are
        counted but not stamped degraded.
        """
        after = self.stats.as_dict()
        resilience: dict[str, Any] = {
            name: after[name] - stats_before[name]
            for name in RESILIENCE_COUNTERS
        }
        resilience["events"] = list(self._events)
        result.diagnostics.setdefault("resilience", resilience)
        degraded = resilience["deadline_expiries"] > 0
        result.diagnostics.setdefault("degraded", degraded)
        reason = next(
            (
                event["detail"]
                for event in self._events
                if event["kind"] == "deadline"
            ),
            None,
        )
        result.diagnostics.setdefault("degraded_reason", reason)

    def run_many(
        self,
        queries: Iterable[Any],
        *,
        config: Optional[EngineConfig] = None,
        rng: SeedLike = None,
    ) -> list[InfluenceResult]:
        """Answer a batch of queries in order (sweep helper).

        ``config`` and ``rng`` are threaded through to every
        :meth:`run` call exactly as if passed per query — earlier
        versions silently dropped them, so sweeps got the session
        defaults with no error.  A non-``None`` ``rng`` seeds *one*
        stream that the whole batch consumes in order (so the sweep is
        reproducible as a unit); pass ``rng`` to individual :meth:`run`
        calls instead if each query must be independently pinned.
        """
        gen = None if rng is None else make_rng(rng)
        return [self.run(query, config=config, rng=gen) for query in queries]

    # ------------------------------------------------------------------
    # Dynamic graphs
    # ------------------------------------------------------------------
    def apply_delta(
        self, delta: GraphDelta, *, rng: SeedLike = None
    ) -> DeltaReport:
        """Mutate the session's graph and repair its cached pools in place.

        Applies ``delta`` (:class:`~repro.graph.GraphDelta`), swaps the
        session onto the resulting graph, and then walks every cached
        pool: when the delta's churn is within
        ``EngineConfig.delta_churn_threshold`` *and* the pool carries the
        touch columns repair needs (``EngineConfig.track_touches``; see
        :mod:`repro.rrset.repair`), exactly the members whose sampling
        touched a changed edge are dropped and resampled against the new
        graph — everything else (cache entry, pool identity, theta-warm
        sets) survives.  Pools that cannot be repaired are dropped and
        lazily regenerated by their next query, the same cost as the old
        fingerprint-invalidation path.

        Certified-theta records are always cleared: a theta certified
        against the old graph does not transfer, so the next IMM query
        re-derives it adaptively over the (warm) repaired pool.

        ``rng`` pins the resampling randomness (defaults to the session
        stream).  Returns a :class:`DeltaReport`; raises
        :class:`~repro.errors.DeltaError` when the delta does not apply.
        """
        if not isinstance(delta, GraphDelta):
            raise DeltaError(
                f"delta must be a GraphDelta, got {type(delta).__name__}"
            )
        effect = delta.apply(self._graph)
        churn = delta.churn(self._graph)
        gen = self._rng if rng is None else make_rng(rng)
        cfg = self._config
        old_fingerprint = self._graph.fingerprint()
        rows: list[dict[str, Any]] = []
        repaired = regenerated = resampled = 0
        for key, entry in list(self._pools.items()):
            generator = _make_generator(
                key.regime, effect.graph, GAP(*key.gaps), key.opposite_seeds
            )
            report = None
            if churn <= cfg.delta_churn_threshold:
                report = entry.pool.repair(effect, generator, rng=gen)
            row: dict[str, Any] = {
                "regime": key.regime,
                "opposite_seeds": key.opposite_seeds,
            }
            if report is not None and report.eligible:
                # The entry survives on the new graph: swap in the new
                # generator (dropping any parallel wrapper of the old one)
                # and void the certified theta, which no longer transfers.
                entry.close()
                entry.generator = generator
                entry.stored_selection = None
                entry.lineage.append(
                    {
                        "old_fingerprint": old_fingerprint,
                        "fingerprint": effect.graph.fingerprint(),
                        "num_edits": delta.num_edits,
                        "churn": churn,
                        "affected": report.affected,
                        "resampled": report.resampled,
                    }
                )
                repaired += 1
                resampled += report.resampled
                self.stats.rr_sets_sampled += report.resampled
                row.update(
                    action="repaired",
                    affected=report.affected,
                    resampled=report.resampled,
                    reason=None,
                )
            else:
                # report is None exactly when churn barred the attempt;
                # every ineligible report is a missing/unsupported touch
                # record (see repair_pool's fallback reasons).
                reason = (
                    InvalidationReason.DELTA_CHURN
                    if report is None
                    else InvalidationReason.TOUCH_ABSENT
                )
                del self._pools[key]
                entry.close()
                regenerated += 1
                self.stats.delta_fallbacks_by_reason[reason.value] = (
                    self.stats.delta_fallbacks_by_reason.get(reason.value, 0)
                    + 1
                )
                row.update(
                    action="regenerated",
                    affected=len(entry.pool),
                    resampled=0,
                    reason=reason.value,
                )
            rows.append(row)
        self._graph = effect.graph
        self.stats.deltas_applied += 1
        self.stats.pools_repaired += repaired
        self.stats.pools_regenerated += regenerated
        self.stats.members_resampled += resampled
        # Write repaired pools through under the *new* fingerprint so the
        # store never serves (or quarantines) a stale-graph entry, and the
        # lineage rides into the manifest's provenance.
        if self._store is not None:
            for entry in self._pools.values():
                if entry.lineage and len(entry.pool):
                    self._persist_entry(entry, cfg, gen)
        return DeltaReport(
            num_edits=delta.num_edits,
            churn=churn,
            old_fingerprint=old_fingerprint,
            fingerprint=effect.graph.fingerprint(),
            pools_repaired=repaired,
            pools_regenerated=regenerated,
            members_resampled=resampled,
            pools=tuple(rows),
        )

    # ------------------------------------------------------------------
    # Pooled seed selection (handlers call this)
    # ------------------------------------------------------------------
    def select_seeds(
        self,
        regime: str,
        gaps: GAP,
        opposite_seeds: Sequence[int],
        k: int,
        config: Optional[EngineConfig] = None,
        rng: SeedLike = None,
        *,
        candidates: Optional[Sequence[int]] = None,
    ) -> SelectionResult:
        """Run TIM/IMM seed selection against the cached pool for
        ``(regime, gaps, opposite_seeds)``, topping the pool up as needed.

        This is the reuse point: handlers (and power users driving the
        RR-set machinery directly) come through here so that every
        selection over the same regime/GAP/opposite-context shares one
        growing pool.  ``candidates`` restricts the pickable seed nodes
        (selection only — sampling stays unrestricted, so the cached pool
        is shared across candidate sets).  When the resolved config caps
        ``max_pool_bytes``, least-recently-used pools are evicted after
        the selection until the cache fits.
        """
        if not isinstance(gaps, GAP):
            raise QueryError(
                f"gaps must be a GAP, got {type(gaps).__name__}"
            )
        if config is not None and not isinstance(config, EngineConfig):
            raise QueryError(
                f"config must be an EngineConfig, got {type(config).__name__}"
            )
        cfg = config if config is not None else self._config
        gen = self._rng if rng is None else make_rng(rng)
        entry = self._pool_entry(regime, gaps, opposite_seeds, cfg)
        before = len(entry.pool)
        generator = self._generator_for(entry, cfg)
        pstats_before = (
            generator.stats.as_dict()
            if isinstance(generator, ParallelEngine)
            else None
        )
        result = run_seed_selection(
            generator,
            k,
            engine=cfg.engine,
            options=cfg.tim_options(),
            imm_options=cfg.imm_options() if cfg.engine == "imm" else None,
            rng=gen,
            pool=entry.pool,
            candidates=candidates,
            pinned_theta=self._pinned_theta(entry, cfg, k, candidates),
        )
        if pstats_before is not None:
            self._absorb_parallel_stats(generator, pstats_before)
        if getattr(result, "degraded", False):
            self.stats.deadline_expiries += 1
            self._events.append(
                {"kind": "deadline", "detail": result.degraded_reason or ""}
            )
        if getattr(result, "pinned", False):
            self.stats.theta_pins += 1
        self._record_selection(entry, cfg, k, candidates, result)
        entry.selections += 1
        grown = len(entry.pool) - before
        self.stats.rr_sets_sampled += grown
        # Write-through before eviction: a pool the byte cap drops stays
        # one (mmap) load away instead of one resampling away.
        if self._store is not None and grown > 0:
            self._persist_entry(entry, cfg, gen)
        self._evict_pools(cfg.max_pool_bytes)
        return result

    def _absorb_parallel_stats(
        self, engine: ParallelEngine, before: dict[str, int]
    ) -> None:
        """Fold one selection's recovery-counter deltas into the session.

        The engine's own :class:`~repro.parallel.ParallelStats` are
        cumulative per engine (and engines die with their cache entry),
        so the session keeps the durable totals — and records a
        provenance event when a batch had to fall back to serial.
        """
        after = engine.stats.as_dict()
        delta = {name: after[name] - before[name] for name in after}
        self.stats.parallel_retries += delta["retries"]
        self.stats.parallel_restarts += delta["restarts"]
        self.stats.parallel_hung_kills += delta["hung_kills"]
        self.stats.serial_fallbacks += delta["serial_fallbacks"]
        if delta["serial_fallbacks"]:
            self._events.append(
                {
                    "kind": "serial_fallback",
                    "detail": (
                        "parallel shard retries exhausted; batch regenerated "
                        "serially in-process (result exact)"
                    ),
                }
            )

    def _pinned_theta(
        self,
        entry: _PoolEntry,
        cfg: EngineConfig,
        k: int,
        candidates: Optional[Sequence[int]],
    ) -> Optional[int]:
        """The certified theta a warm IMM selection may pin, or ``None``.

        Pinning is sound only when the recorded selection answers
        *exactly* this request: same engine (``imm``), same ``k``,
        ``epsilon`` and ``ell``, unrestricted candidates on both sides,
        a theta inside this config's ``[min_rr_sets, max_rr_sets]``
        window, and a pool that already holds that many sets.  Anything
        else falls through to the normal adaptive run.
        """
        record = entry.stored_selection
        if record is None or cfg.engine != "imm" or candidates is not None:
            return None
        try:
            matches = (
                record.get("engine") == "imm"
                and int(record["k"]) == int(k)
                and float(record["epsilon"]) == cfg.epsilon
                and float(record["ell"]) == cfg.ell
            )
            theta = int(record["theta"])
        except (KeyError, TypeError, ValueError):
            return None
        if not matches or not cfg.min_rr_sets <= theta <= cfg.max_rr_sets:
            return None
        if len(entry.pool) < theta:
            return None
        return theta

    @staticmethod
    def _record_selection(
        entry: _PoolEntry,
        cfg: EngineConfig,
        k: int,
        candidates: Optional[Sequence[int]],
        result: SelectionResult,
    ) -> None:
        """Remember a completed IMM selection for later theta pinning.

        Only exact, unrestricted runs qualify: a degraded (deadline-
        clipped) theta was never certified, and a candidate-restricted
        run certifies a different (restricted) optimum whose sample size
        does not transfer.  The record rides into the store manifest's
        provenance on the next write-through.
        """
        if (
            cfg.engine != "imm"
            or candidates is not None
            or getattr(result, "degraded", False)
            or result.theta < 1
        ):
            return
        entry.stored_selection = {
            "engine": "imm",
            "k": int(k),
            "epsilon": cfg.epsilon,
            "ell": cfg.ell,
            "theta": int(result.theta),
        }

    def _shared_worker_pool(self, workers: int) -> WorkerPool:
        """The session-wide worker pool at this count (rebuilt on change)."""
        pool = self._worker_pool
        if pool is None or pool.closed or pool.workers != workers:
            if pool is not None:
                pool.close()
            pool = self._worker_pool = WorkerPool(workers)
        return pool

    def _generator_for(
        self, entry: _PoolEntry, cfg: EngineConfig
    ) -> RRSetGenerator:
        """The generator a selection should sample through.

        ``cfg.workers > 1`` lazily wraps the entry's generator in a
        persistent :class:`~repro.parallel.ParallelEngine` (rebuilt when
        the worker count changes); otherwise the serial generator.

        Every entry's engine rides the one session-shared
        :class:`~repro.parallel.WorkerPool` — K worker processes serve
        *all* cached pools (each worker caches the distinct generators it
        has seen), instead of the former K-per-entry layout whose
        resident process count multiplied with live pools.
        """
        if cfg.workers <= 1:
            return entry.generator
        pool = self._shared_worker_pool(cfg.workers)
        if (
            entry.parallel is None
            or entry.parallel.closed
            or entry.parallel.workers != cfg.workers
            or entry.parallel.shared_pool is not pool
        ):
            entry.close()
            entry.parallel = ParallelEngine(
                entry.generator, cfg.workers, shared_pool=pool
            )
        return entry.parallel

    def _persist_entry(
        self, entry: _PoolEntry, cfg: EngineConfig, gen
    ) -> bool:
        """Write one pool through to the store; never fails the query.

        The store is an accelerator: a full disk or revoked permissions
        must not discard a selection that already succeeded, so save
        failures degrade to a warning (the pool stays cached in memory).
        """
        provenance: dict[str, Any] = {
            "creator": "ComICSession",
            "engine": cfg.engine,
            "workers": cfg.workers,
            "rng": type(gen.bit_generator).__name__,
        }
        if entry.stored_selection is not None:
            # Certified-theta record: lets a later process pin its warm
            # start to zero top-up (see _pinned_theta).
            provenance["selection"] = dict(entry.stored_selection)
        if entry.lineage:
            # Delta-repair provenance: which graph mutations this pool
            # survived (and how surgically) — see apply_delta.
            provenance["lineage"] = [dict(rec) for rec in entry.lineage]
        try:
            self._store.save(
                entry.key,
                entry.pool,
                graph_fingerprint=self._graph.fingerprint(),
                provenance=provenance,
            )
        except (OSError, StoreError) as exc:
            self.stats.store_save_failures += 1
            self._events.append(
                {
                    "kind": "store_save_failure",
                    "detail": (
                        f"pool write-through failed ({exc}); in-memory pool "
                        "retained (result exact)"
                    ),
                }
            )
            warnings.warn(
                f"pool store write-through failed ({exc}); "
                "continuing with the in-memory pool only",
                RuntimeWarning,
                stacklevel=3,
            )
            return False
        self.stats.store_saves += 1
        return True

    def _pool_entry(
        self,
        regime: str,
        gaps: GAP,
        opposite_seeds: Sequence[int],
        cfg: Optional[EngineConfig] = None,
    ) -> _PoolEntry:
        key = self._pool_key(regime, gaps, opposite_seeds)
        cfg = cfg if cfg is not None else self._config
        entry = self._pools.pop(key, None)
        if entry is None:
            generator = _make_generator(
                regime, self._graph, gaps, key.opposite_seeds
            )
            pool = self._load_from_store(key)
            entry = _PoolEntry(
                key,
                generator,
                pool
                if pool is not None
                # A store-loaded pool keeps whatever tracking it was saved
                # with; fresh pools track iff the config asks.
                else RRSetPool(
                    self._graph.num_nodes,
                    track_touches=cfg.track_touches,
                ),
                origin="store" if pool is not None else "sampled",
            )
            if pool is not None:
                entry.stored_selection = self._stored_selection_for(key)
            self.stats.pool_misses += 1
        else:
            self.stats.pool_hits += 1
        # Re-insert at the back: dict order is the LRU order.
        self._access_clock += 1
        entry.last_used = self._access_clock
        self._pools[key] = entry
        return entry

    def _stored_selection_for(self, key: PoolKey) -> Optional[dict]:
        """The certified-theta record persisted with a store entry, if any.

        Provenance is free-form and unvalidated, so everything here is
        best-effort: a malformed record just means no pin.
        """
        try:
            manifest = self._store.manifest(key)
        except Exception:
            return None
        if manifest is None:
            return None
        record = manifest.provenance.get("selection")
        return dict(record) if isinstance(record, dict) else None

    def _load_from_store(self, key: PoolKey) -> Optional[RRSetPool]:
        """Warm-start attempt for a cache miss (``None`` when no store)."""
        if self._store is None:
            return None
        invalid_before = self._store.stats.invalidations
        quarantined_before = self._store.stats.quarantined
        reasons_before = dict(self._store.stats.invalidations_by_reason)
        pool = self._store.load(
            key, graph_fingerprint=self._graph.fingerprint()
        )
        invalidated = self._store.stats.invalidations - invalid_before
        quarantined = self._store.stats.quarantined - quarantined_before
        if quarantined:
            self.stats.store_quarantines += quarantined
            reason = next(
                (
                    value
                    for value, count in (
                        self._store.stats.invalidations_by_reason.items()
                    )
                    if count > reasons_before.get(value, 0)
                ),
                None,
            )
            self._events.append(
                {
                    "kind": "store_quarantine",
                    "reason": reason,
                    "detail": (
                        f"rejected store entry for {key} moved to quarantine; "
                        "pool resampled (result exact)"
                    ),
                }
            )
        if pool is not None:
            self.stats.store_hits += 1
        elif invalidated:
            self.stats.store_invalidations += invalidated
        else:
            self.stats.store_misses += 1
        return pool

    def _evict_pools(self, max_pool_bytes: Optional[int]) -> None:
        """Drop least-recently-used pools until the cache fits the cap.

        The most recent entry is evicted last — only when it alone
        exceeds the cap (it is no longer in use by then; the next query
        on its key resamples).
        """
        if max_pool_bytes is None:
            return
        while self._pools and self.pool_bytes_total > max_pool_bytes:
            key = next(iter(self._pools))
            entry = self._pools.pop(key)
            entry.close()
            self.stats.pool_evictions += 1
            self.stats.pool_bytes_evicted += entry.pool.nbytes

    @staticmethod
    def _pool_key(
        regime: str, gaps: GAP, opposite_seeds: Sequence[int]
    ) -> PoolKey:
        return PoolKey.make(regime, gaps, opposite_seeds)

    # ------------------------------------------------------------------
    # Pool accounting
    # ------------------------------------------------------------------
    @property
    def pool_sets_total(self) -> int:
        """Total RR-sets held across all cached pools."""
        return sum(len(entry.pool) for entry in self._pools.values())

    @property
    def pool_bytes_total(self) -> int:
        """Total bytes of RR-set data held across all cached pools."""
        return sum(entry.pool.nbytes for entry in self._pools.values())

    def pool_info(self) -> list[PoolInfo]:
        """Diagnostics snapshot of every cached pool."""
        infos = []
        for key, entry in self._pools.items():
            kind = type(entry.generator)
            batched = (
                kind.generate_batch is not RRSetGenerator.generate_batch
                or kind._sweep_chunk is not RRSetGenerator._sweep_chunk
            )
            infos.append(
                PoolInfo(
                    regime=key.regime,
                    gaps=key.gaps,
                    opposite_seeds=key.opposite_seeds,
                    sets=len(entry.pool),
                    nbytes=entry.pool.nbytes,
                    selections=entry.selections,
                    batch_kernel="vectorized" if batched else "oracle-fallback",
                    last_used=entry.last_used,
                    origin=entry.origin,
                )
            )
        return infos

    def save_pools(self) -> int:
        """Persist every cached pool to the attached store now.

        Normally unnecessary — selections write grown pools through — but
        useful before handing a store directory to another process when
        you want untouched warm-started pools re-stamped too.  Returns
        the number of entries written; raises
        :class:`~repro.errors.QueryError` without a store.
        """
        if self._store is None:
            raise QueryError("session has no store attached (pass store=)")
        written = 0
        for entry in self._pools.values():
            if len(entry.pool):
                written += self._persist_entry(entry, self._config, self._rng)
        return written

    def clear_pools(self) -> None:
        """Drop every cached pool (frees memory; next queries resample —
        or warm-start from the attached store, which write-through has
        kept current)."""
        for entry in self._pools.values():
            entry.close()
        self._pools.clear()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the session's worker processes (idempotent).

        Each entry's :class:`~repro.parallel.ParallelEngine` is closed
        exactly once (closing detaches it from the entry, so a double
        ``close`` — or ``close`` after eviction already released it — is
        a no-op), then the session-shared
        :class:`~repro.parallel.WorkerPool` itself is shut down.  The
        session stays usable: cached pools and the store attachment
        survive, and the next parallel selection builds a fresh worker
        pool.  Also usable as a context manager::

            with ComICSession(graph, gaps, config=cfg) as session:
                session.run(query)
        """
        for entry in self._pools.values():
            entry.close()
        if self._worker_pool is not None:
            self._worker_pool.close()
            self._worker_pool = None

    def __enter__(self) -> "ComICSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComICSession(nodes={self._graph.num_nodes}, "
            f"pools={len(self._pools)}, sets={self.pool_sets_total}, "
            f"queries={self.stats.queries})"
        )

