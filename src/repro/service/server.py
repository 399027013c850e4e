"""The Com-IC query daemon: sessions behind a stdlib HTTP/1.1 front.

:class:`ComICServer` keeps one :class:`~repro.api.session.ComICSession`
per registered graph alive across requests, so everything the session
layer already amortises — cached RR-set pools, persistent worker
processes, store warm starts, pinned thetas — is amortised across
*clients* too.  The transport is deliberately boring:
``http.server.ThreadingHTTPServer`` (one daemon thread per connection)
speaking JSON, no dependencies beyond the standard library.

Four behaviours turn the session into a service:

* **Serialised sessions** — ``ComICSession`` is not thread-safe, so each
  graph's session runs under its own lock.  Different graphs answer
  concurrently; requests for one graph queue.
* **Single-flight coalescing** — K identical queries arriving together
  cost one execution: the first request in becomes the *leader* and
  computes, the rest park on an event and receive the leader's envelope
  verbatim (``ServerStats.coalesced`` counts the followers).  Identity is
  the canonical JSON of (graph, query payload, config overrides, rng
  pin); requests with no rng pin are never coalesced — each is entitled
  to advance the session stream.
* **Deadlines end-to-end** — a per-request ``deadline_s`` merges into the
  effective :class:`~repro.api.config.EngineConfig`, riding the PR 6
  cooperative-budget machinery, so a slow cold query degrades instead of
  holding the graph lock indefinitely.
* **Graceful drain** — :meth:`ComICServer.close` first flips the server
  into a draining state (new queries and deltas are refused with
  **503**), then waits for every in-flight execution — leaders *and*
  the coalesced followers parked on their flight events — to complete
  or hit its deadline before any session is closed.  A stuck request
  only delays the drain up to ``drain_timeout_s``
  (``ServerStats.drain_timeouts`` counts overruns); session closes are
  still serialised under each graph's lock either way.

The HTTP layer is a thin shell over :meth:`ComICServer.handle_query`,
which tests drive directly (no sockets needed).

Endpoints (see ``docs/service.md`` for the operator guide)::

    GET  /health            liveness + registered graph names
    GET  /stats             server counters + per-graph session stats
    GET  /graphs            graph name -> {nodes, edges, fingerprint}
    GET  /catalog[/<name>]  pool-catalog rows (CatalogedPoolStore only)
    GET  /pipeline/<name>/runs  debug-DB run rows of the graph's pipelines
    POST /query/<name>      {"query": {...}, "config"?, "rng"?, "deadline_s"?}
    POST /graph/<name>/delta  {"delta": {...GraphDelta.to_dict...}, "rng"?}
    POST /pipeline/<name>   {"config": {...}, "log_path": ..., "episodes_path"?,
                             "truth"?} — run a pipeline under the graph lock

The pipeline endpoints need a ``pipeline_dir`` (constructor knob): each
graph's runs live in ``pipeline_dir/<name>/`` (stage cache + debug DB).
They run against the *registered graph's structure*; the action log and
episode corpus are read server-side from the request's paths.

POST bodies are capped at ``max_body_bytes`` (constructor knob, default
8 MiB); oversized requests are refused with **413** before the body is
read.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping, Optional

from pathlib import Path

from repro.api import ComICSession, EngineConfig, InfluenceResult, registry
from repro.errors import (
    ActionLogError,
    DeltaError,
    EstimationError,
    GapError,
    PipelineError,
    QueryError,
    ReproError,
    SeedSetError,
)
from repro.graph.delta import GraphDelta
from repro.graph.digraph import DiGraph
from repro.learning.log_io import load_action_log, load_episodes
from repro.models.gaps import GAP
from repro.pipeline import (
    DEBUG_DB_FILE,
    PipelineConfig,
    PipelineDebugDB,
    run_pipeline,
)
from repro.service.catalog import CatalogedPoolStore

__all__ = ["ComICServer", "ServerStats", "ServiceError"]


class ServiceError(ReproError):
    """A request the service rejects, carrying its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class ServerStats:
    """Service-level counters (sessions keep their own ``SessionStats``).

    Handler threads update these concurrently, so every update goes
    through :meth:`bump` and :meth:`as_dict` snapshots under the same
    lock; a bare ``+=`` could lose increments.
    """

    #: HTTP requests accepted (all endpoints, all statuses).
    requests: int = 0
    #: queries executed by a session (coalesced followers excluded).
    queries: int = 0
    #: requests answered with a 4xx/5xx envelope.
    errors: int = 0
    #: followers served a leader's result without executing.
    coalesced: int = 0
    #: single-flight leaderships taken (== cold executions of coalescible
    #: requests; ``coalesced / max(flights, 1)`` is the fan-in ratio).
    flights: int = 0
    #: graph deltas applied (POST /graph/<name>/delta successes).
    deltas: int = 0
    #: pipelines executed (POST /pipeline/<name> successes).
    pipelines: int = 0
    #: queries/deltas refused with 503 because the server was draining.
    draining_rejections: int = 0
    #: ``close()`` drain waits that timed out with requests in flight.
    drain_timeouts: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def bump(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` atomically."""
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {
                f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)
                if f.init
            }


class _Flight:
    """One in-flight coalescible execution: leader computes, rest wait."""

    __slots__ = ("event", "payload", "status")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: Optional[dict[str, Any]] = None
        self.status: int = 500


@dataclass
class _GraphService:
    """One registered graph: its session and the lock serialising it."""

    name: str
    session: ComICSession
    lock: threading.Lock = field(default_factory=threading.Lock)


class ComICServer:
    """A multi-graph Com-IC query service.

    Construct, :meth:`register_graph` one or more graphs, then either
    :meth:`start` the HTTP front (returns the bound address) or call
    :meth:`handle_query` directly (tests, embedding).  ``close`` drains
    in-flight work gracefully, then shuts down the HTTP server and every
    session (worker pools included).
    """

    #: default cap on POST request bodies (8 MiB fits any realistic
    #: query envelope; deltas near this size should ship as several
    #: batches anyway).
    DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

    #: default bound on how long :meth:`close` waits for in-flight
    #: requests to finish.  Well above any sane per-request deadline, so
    #: a drain normally ends because the work did — the timeout only
    #: caps a pathologically stuck request.
    DEFAULT_DRAIN_TIMEOUT_S = 30.0

    def __init__(
        self,
        *,
        max_body_bytes: Optional[int] = None,
        pipeline_dir: Optional[Any] = None,
    ) -> None:
        if max_body_bytes is None:
            max_body_bytes = self.DEFAULT_MAX_BODY_BYTES
        if max_body_bytes <= 0:
            raise QueryError(
                f"max_body_bytes must be positive, got {max_body_bytes}"
            )
        self.max_body_bytes = int(max_body_bytes)
        #: where per-graph pipeline runs live (stage cache + debug DB);
        #: None disables the /pipeline endpoints with a 400.
        self.pipeline_dir = (
            Path(pipeline_dir) if pipeline_dir is not None else None
        )
        self._graphs: dict[str, _GraphService] = {}
        self._graphs_lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()
        # Drain bookkeeping: every handle_query/handle_delta holds one
        # unit of _inflight between _begin_request and _end_request;
        # close() flips _closing and waits on the condition until the
        # count reaches zero.
        self._drain = threading.Condition()
        self._inflight = 0
        self._closing = False
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self.stats = ServerStats()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_graph(
        self,
        name: str,
        graph: DiGraph,
        gaps: Optional[GAP] = None,
        *,
        config: Optional[EngineConfig] = None,
        store: Any = None,
        multi_item_gaps: Any = None,
        rng: Any = None,
    ) -> ComICSession:
        """Create and own a session for ``graph`` under ``name``.

        Keyword arguments pass through to
        :class:`~repro.api.session.ComICSession` unchanged.  Returns the
        session (callers may pre-warm pools before :meth:`start`).
        """
        if not name or "/" in name:
            raise QueryError(
                f"graph name must be non-empty and slash-free, got {name!r}"
            )
        with self._graphs_lock:
            if name in self._graphs:
                raise QueryError(f"graph {name!r} is already registered")
            session = ComICSession(
                graph,
                gaps,
                multi_item_gaps=multi_item_gaps,
                config=config,
                rng=rng,
                store=store,
            )
            self._graphs[name] = _GraphService(name=name, session=session)
            return session

    def graph_names(self) -> list[str]:
        """Registered graph names, sorted."""
        with self._graphs_lock:
            return sorted(self._graphs)

    def _service(self, name: str) -> _GraphService:
        with self._graphs_lock:
            service = self._graphs.get(name)
        if service is None:
            raise ServiceError(
                404,
                f"unknown graph {name!r}; registered: {self.graph_names()}",
            )
        return service

    def session(self, name: str) -> ComICSession:
        """The session owned for a registered graph (testing/embedding)."""
        return self._service(name).session

    # ------------------------------------------------------------------
    # Drain accounting
    # ------------------------------------------------------------------
    def _begin_request(self) -> None:
        """Admit one query/delta, or refuse it if the server is draining."""
        with self._drain:
            if self._closing:
                self.stats.bump("draining_rejections")
                raise ServiceError(
                    503, "server is draining; no new work is accepted"
                )
            self._inflight += 1

    def _end_request(self) -> None:
        with self._drain:
            self._inflight -= 1
            if self._inflight == 0:
                self._drain.notify_all()

    def _wait_drained(self, timeout: Optional[float]) -> bool:
        """Block until no request is in flight; False on timeout."""
        deadline = (
            None if timeout is None else time.monotonic() + float(timeout)
        )
        with self._drain:
            while self._inflight:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._drain.wait(remaining)
            return True

    @property
    def draining(self) -> bool:
        """True once :meth:`close` has begun refusing new work."""
        with self._drain:
            return self._closing

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def handle_query(
        self, graph_name: str, payload: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """Answer one POST /query payload; returns (status, body).

        The body on success is the
        :meth:`~repro.api.results.InfluenceResult.to_dict` envelope
        (objective, seeds, objective estimate, full diagnostics including
        ``diagnostics.resilience``); on failure ``{"error": ...}``.
        A server mid-:meth:`close` answers **503** without executing.
        """
        try:
            self._begin_request()
        except ServiceError as exc:
            self.stats.bump("errors")
            return exc.status, {"error": str(exc)}
        try:
            return self._handle_query_admitted(graph_name, payload)
        finally:
            self._end_request()

    def _handle_query_admitted(
        self, graph_name: str, payload: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        try:
            service = self._service(graph_name)
            query, config, rng, coalescible = self._parse_request(
                service, payload
            )
        except ServiceError as exc:
            self.stats.bump("errors")
            return exc.status, {"error": str(exc)}

        flight_key = (
            self._flight_key(graph_name, payload) if coalescible else None
        )
        if flight_key is not None:
            status, body = self._run_single_flight(
                flight_key, service, query, config, rng
            )
        else:
            status, body = self._execute(service, query, config, rng)
        if status != 200:
            self.stats.bump("errors")
        return status, body

    def _parse_request(
        self, service: _GraphService, payload: Mapping[str, Any]
    ) -> tuple[Any, Optional[EngineConfig], Optional[int], bool]:
        """Validate the request envelope into (query, config, rng, coalescible)."""
        if not isinstance(payload, Mapping):
            raise ServiceError(400, "request body must be a JSON object")
        query_payload = payload.get("query")
        if not isinstance(query_payload, Mapping):
            raise ServiceError(
                400, "request needs a 'query' object (query.to_dict payload)"
            )
        unknown = set(payload) - {"query", "config", "rng", "deadline_s"}
        if unknown:
            raise ServiceError(
                400, f"unknown request fields: {sorted(unknown)}"
            )
        try:
            query = registry.query_from_dict(query_payload)
        except (QueryError, TypeError, ValueError) as exc:
            raise ServiceError(400, f"bad query: {exc}") from exc

        config: Optional[EngineConfig] = None
        overrides = payload.get("config")
        if overrides is not None:
            if not isinstance(overrides, Mapping):
                raise ServiceError(
                    400, "'config' must be an object of EngineConfig fields"
                )
            base = service.session.config.to_dict()
            base.update(overrides)
            try:
                config = EngineConfig.from_dict(base)
            except QueryError as exc:
                raise ServiceError(400, f"bad config: {exc}") from exc

        deadline_s = payload.get("deadline_s")
        if deadline_s is not None:
            if not isinstance(deadline_s, (int, float)) or isinstance(
                deadline_s, bool
            ):
                raise ServiceError(400, "'deadline_s' must be a number")
            effective = config if config is not None else service.session.config
            try:
                config = dataclasses.replace(
                    effective, deadline_s=float(deadline_s)
                )
            except QueryError as exc:
                raise ServiceError(400, f"bad deadline_s: {exc}") from exc

        rng = payload.get("rng")
        if rng is not None and (
            not isinstance(rng, int) or isinstance(rng, bool)
        ):
            raise ServiceError(
                400, "'rng' must be an integer seed (omit for session stream)"
            )
        # Without a pinned rng each request must advance the session's
        # stream independently — coalescing would silently hand two
        # clients one draw.  With a pin, identical requests are
        # deterministic replicas: safe (and profitable) to coalesce.
        return query, config, rng, rng is not None

    @staticmethod
    def _flight_key(graph_name: str, payload: Mapping[str, Any]) -> str:
        return json.dumps(
            {"graph": graph_name, "payload": payload},
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )

    def _run_single_flight(
        self,
        key: str,
        service: _GraphService,
        query: Any,
        config: Optional[EngineConfig],
        rng: Optional[int],
    ) -> tuple[int, dict[str, Any]]:
        with self._flights_lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = _Flight()
                self._flights[key] = flight
                leader = True
                self.stats.bump("flights")
            else:
                leader = False
        if not leader:
            flight.event.wait()
            self.stats.bump("coalesced")
            assert flight.payload is not None
            return flight.status, flight.payload
        try:
            status, body = self._execute(service, query, config, rng)
            flight.status, flight.payload = status, body
            return status, body
        except BaseException:
            # Never strand followers: an unexpected leader crash turns
            # into a 500 envelope for everyone parked on the event.
            flight.status = 500
            flight.payload = {"error": "internal error in coalesced leader"}
            raise
        finally:
            with self._flights_lock:
                self._flights.pop(key, None)
            flight.event.set()

    def _execute(
        self,
        service: _GraphService,
        query: Any,
        config: Optional[EngineConfig],
        rng: Optional[int],
    ) -> tuple[int, dict[str, Any]]:
        try:
            with service.lock:
                result: InfluenceResult = service.session.run(
                    query, config=config, rng=rng
                )
            self.stats.bump("queries")
            return 200, result.to_dict()
        except (QueryError, SeedSetError, GapError) as exc:
            # malformed *request* semantics (bad knobs, k > n, invalid
            # GAPs): the client's fault, not the service's
            return 400, {"error": str(exc)}
        except ReproError as exc:
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    # ------------------------------------------------------------------
    # Dynamic graphs
    # ------------------------------------------------------------------
    def handle_delta(
        self, graph_name: str, payload: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """Answer one POST /graph/<name>/delta payload; returns (status, body).

        The body on success is the
        :meth:`~repro.api.session.DeltaReport.as_dict` envelope — edit
        count, churn, old/new fingerprints and the per-pool
        repaired/regenerated breakdown.  The session mutates under the
        graph's lock, so queries racing a delta see either the old graph
        (old pools) or the new one (repaired pools), never a mix.
        A server mid-:meth:`close` answers **503** without mutating.
        """
        try:
            self._begin_request()
        except ServiceError as exc:
            self.stats.bump("errors")
            return exc.status, {"error": str(exc)}
        try:
            return self._handle_delta_admitted(graph_name, payload)
        finally:
            self._end_request()

    def _handle_delta_admitted(
        self, graph_name: str, payload: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        try:
            service = self._service(graph_name)
            if not isinstance(payload, Mapping):
                raise ServiceError(400, "request body must be a JSON object")
            unknown = set(payload) - {"delta", "rng"}
            if unknown:
                raise ServiceError(
                    400, f"unknown request fields: {sorted(unknown)}"
                )
            delta_payload = payload.get("delta")
            if not isinstance(delta_payload, Mapping):
                raise ServiceError(
                    400,
                    "request needs a 'delta' object (GraphDelta.to_dict payload)",
                )
            try:
                delta = GraphDelta.from_dict(delta_payload)
            except (DeltaError, TypeError, ValueError, KeyError) as exc:
                raise ServiceError(400, f"bad delta: {exc}") from exc
            rng = payload.get("rng")
            if rng is not None and (
                not isinstance(rng, int) or isinstance(rng, bool)
            ):
                raise ServiceError(
                    400,
                    "'rng' must be an integer seed (omit for session stream)",
                )
        except ServiceError as exc:
            self.stats.bump("errors")
            return exc.status, {"error": str(exc)}
        try:
            with service.lock:
                report = service.session.apply_delta(delta, rng=rng)
            self.stats.bump("deltas")
            return 200, report.as_dict()
        except DeltaError as exc:
            # the delta contradicts the graph (removing a missing edge,
            # adding a present one): the client's fault
            self.stats.bump("errors")
            return 400, {"error": str(exc)}
        except ReproError as exc:
            self.stats.bump("errors")
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    # ------------------------------------------------------------------
    # Pipelines
    # ------------------------------------------------------------------
    def _pipeline_workdir(self, graph_name: str) -> Path:
        if self.pipeline_dir is None:
            raise ServiceError(
                400,
                "pipelines are disabled: the server was constructed "
                "without pipeline_dir",
            )
        return self.pipeline_dir / graph_name

    def handle_pipeline(
        self, graph_name: str, payload: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """Answer one POST /pipeline/<name> payload; returns (status, body).

        The payload is ``{"config": PipelineConfig.to_dict, "log_path":
        ..., "episodes_path"?, "truth"?}``; the log/episodes are read
        server-side and the pipeline runs against the registered graph's
        *structure* under its lock (queries for the graph queue behind
        it).  The success body is the
        :meth:`~repro.pipeline.PipelineResult.to_dict` run summary; the
        run is also recorded in the graph's debug DB
        (``GET /pipeline/<name>/runs``).
        """
        try:
            self._begin_request()
        except ServiceError as exc:
            self.stats.bump("errors")
            return exc.status, {"error": str(exc)}
        try:
            return self._handle_pipeline_admitted(graph_name, payload)
        finally:
            self._end_request()

    def _handle_pipeline_admitted(
        self, graph_name: str, payload: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        try:
            service = self._service(graph_name)
            workdir = self._pipeline_workdir(graph_name)
            if not isinstance(payload, Mapping):
                raise ServiceError(400, "request body must be a JSON object")
            unknown = set(payload) - {
                "config", "log_path", "episodes_path", "truth",
            }
            if unknown:
                raise ServiceError(
                    400, f"unknown request fields: {sorted(unknown)}"
                )
            config_payload = payload.get("config")
            if not isinstance(config_payload, Mapping):
                raise ServiceError(
                    400,
                    "request needs a 'config' object "
                    "(PipelineConfig.to_dict payload)",
                )
            try:
                config = PipelineConfig.from_dict(config_payload)
            except (PipelineError, QueryError, TypeError, ValueError) as exc:
                raise ServiceError(400, f"bad config: {exc}") from exc
            log_path = payload.get("log_path")
            if not isinstance(log_path, str) or not log_path:
                raise ServiceError(
                    400, "request needs a 'log_path' string (action-log TSV)"
                )
            episodes_path = payload.get("episodes_path")
            if episodes_path is not None and not isinstance(episodes_path, str):
                raise ServiceError(400, "'episodes_path' must be a string")
            truth_payload = payload.get("truth")
            truth: Optional[GAP] = None
            if truth_payload is not None:
                if not isinstance(truth_payload, Mapping):
                    raise ServiceError(
                        400, "'truth' must be a GAP object (q_a, ...)"
                    )
                try:
                    truth = GAP.from_mapping(truth_payload)
                except (GapError, TypeError, ValueError, KeyError) as exc:
                    raise ServiceError(400, f"bad truth: {exc}") from exc
            try:
                log = load_action_log(log_path)
                episodes = (
                    load_episodes(episodes_path)
                    if episodes_path is not None
                    else None
                )
            except (ActionLogError, EstimationError, OSError) as exc:
                raise ServiceError(400, f"bad pipeline input: {exc}") from exc
        except ServiceError as exc:
            self.stats.bump("errors")
            return exc.status, {"error": str(exc)}
        try:
            with service.lock:
                result = run_pipeline(
                    service.session.graph,
                    log,
                    config,
                    episodes=episodes,
                    workdir=workdir,
                    truth=truth,
                )
            self.stats.bump("pipelines")
            return 200, result.to_dict()
        except (PipelineError, EstimationError, QueryError, GapError) as exc:
            # the config contradicts the inputs (unlearnable pair, EM
            # without episodes, bad query): the client's fault
            self.stats.bump("errors")
            return 400, {"error": str(exc)}
        except ReproError as exc:
            self.stats.bump("errors")
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def handle_pipeline_runs(
        self, graph_name: str
    ) -> tuple[int, dict[str, Any]]:
        """Answer GET /pipeline/<name>/runs: the graph's debug-DB run rows.

        Graphs that never ran a pipeline answer ``{"runs": []}``.
        """
        service = self._service(graph_name)
        workdir = self._pipeline_workdir(graph_name)
        db_path = workdir / DEBUG_DB_FILE
        if not db_path.exists():
            return 200, {"graph": service.name, "runs": []}
        db = PipelineDebugDB(db_path)
        try:
            return 200, {"graph": service.name, "runs": db.runs()}
        finally:
            db.close()

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------
    def handle_health(self) -> tuple[int, dict[str, Any]]:
        return 200, {"status": "ok", "graphs": self.graph_names()}

    def handle_stats(self) -> tuple[int, dict[str, Any]]:
        sessions: dict[str, Any] = {}
        with self._graphs_lock:
            services = list(self._graphs.values())
        for service in services:
            session = service.session
            entry: dict[str, Any] = {
                "session": session.stats.as_dict(),
                "pool_sets_total": session.pool_sets_total,
                "pool_bytes_total": session.pool_bytes_total,
            }
            store = session.store
            if store is not None:
                entry["store"] = dataclasses.asdict(store.stats)
            sessions[service.name] = entry
        return 200, {"server": self.stats.as_dict(), "graphs": sessions}

    def handle_graphs(self) -> tuple[int, dict[str, Any]]:
        out: dict[str, Any] = {}
        with self._graphs_lock:
            services = list(self._graphs.values())
        for service in services:
            graph = service.session.graph
            out[service.name] = {
                "num_nodes": graph.num_nodes,
                "num_edges": graph.num_edges,
                "fingerprint": graph.fingerprint(),
            }
        return 200, out

    def handle_catalog(
        self, graph_name: Optional[str] = None
    ) -> tuple[int, dict[str, Any]]:
        """Catalog rows per graph (graphs without a cataloged store: null)."""
        names = [graph_name] if graph_name is not None else self.graph_names()
        out: dict[str, Any] = {}
        for name in names:
            service = self._service(name)
            store = service.session.store
            if isinstance(store, CatalogedPoolStore):
                out[name] = {
                    "rows": store.catalog.rows(),
                    "total_bytes": store.catalog.total_bytes(),
                    "max_store_bytes": store.max_store_bytes,
                    "gc_evictions": store.gc_evictions,
                }
            else:
                out[name] = None
        return 200, out

    # ------------------------------------------------------------------
    # HTTP front
    # ------------------------------------------------------------------
    def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and serve in a daemon thread; returns (host, port)."""
        if self._httpd is not None:
            raise ReproError("server is already started")
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="comic-server",
            daemon=True,
        )
        self._thread.start()
        bound_host, bound_port = self._httpd.server_address[:2]
        return str(bound_host), int(bound_port)

    @property
    def address(self) -> Optional[tuple[str, int]]:
        """The bound (host, port), or ``None`` before :meth:`start`."""
        if self._httpd is None:
            return None
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def close(
        self, *, drain_timeout_s: Optional[float] = DEFAULT_DRAIN_TIMEOUT_S
    ) -> None:
        """Drain in-flight work, stop serving, close every session.

        The shutdown is graceful and ordered: the server first refuses
        new queries/deltas with **503**, then waits up to
        ``drain_timeout_s`` for every admitted request — single-flight
        leaders, their parked followers, and uncoalesced executions
        alike — to complete or hit its deadline, and only then closes
        the HTTP front and the sessions (worker pools included).  Pass
        ``drain_timeout_s=None`` to wait indefinitely; a timed-out
        drain bumps ``stats.drain_timeouts`` and proceeds — stragglers
        still serialise against session closes via each graph's lock.
        Idempotent.
        """
        with self._drain:
            self._closing = True
        if self._httpd is not None:
            # Stops the accept loop; connection threads already inside a
            # handler keep running and are covered by the drain wait.
            self._httpd.shutdown()
        if not self._wait_drained(drain_timeout_s):
            self.stats.bump("drain_timeouts")
        if self._httpd is not None:
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._graphs_lock:
            services = list(self._graphs.values())
            self._graphs.clear()
        for service in services:
            with service.lock:
                service.session.close()

    def __enter__(self) -> "ComICServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _make_handler(server: ComICServer) -> type[BaseHTTPRequestHandler]:
    """The request-handler class bound to one :class:`ComICServer`."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "ComICServer/1"

        def log_message(self, format: str, *args: Any) -> None:
            pass  # quiet by default; stats cover observability

        def _reply(self, status: int, body: dict[str, Any]) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            server.stats.bump("requests")
            path = self.path.rstrip("/") or "/"
            if path == "/health":
                self._reply(*server.handle_health())
            elif path == "/stats":
                self._reply(*server.handle_stats())
            elif path == "/graphs":
                self._reply(*server.handle_graphs())
            elif path == "/catalog":
                self._reply(*server.handle_catalog())
            elif path.startswith("/catalog/"):
                name = path[len("/catalog/"):]
                try:
                    self._reply(*server.handle_catalog(name))
                except ServiceError as exc:
                    server.stats.bump("errors")
                    self._reply(exc.status, {"error": str(exc)})
            elif path.startswith("/pipeline/") and path.endswith("/runs"):
                name = path[len("/pipeline/"):-len("/runs")]
                try:
                    self._reply(*server.handle_pipeline_runs(name))
                except ServiceError as exc:
                    server.stats.bump("errors")
                    self._reply(exc.status, {"error": str(exc)})
            else:
                server.stats.bump("errors")
                self._reply(404, {"error": f"no such endpoint: {self.path}"})

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            server.stats.bump("requests")
            path = self.path.rstrip("/")
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                server.stats.bump("errors")
                self._reply(400, {"error": "bad Content-Length header"})
                return
            if length > server.max_body_bytes:
                # Refused before reading: the unread body would desync
                # the keep-alive stream, so close this connection.
                server.stats.bump("errors")
                self.close_connection = True
                self._reply(
                    413,
                    {
                        "error": (
                            f"request body of {length} bytes exceeds the "
                            f"{server.max_body_bytes}-byte limit"
                        )
                    },
                )
                return
            try:
                raw = self.rfile.read(length) if length > 0 else b""
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (ValueError, UnicodeDecodeError) as exc:
                server.stats.bump("errors")
                self._reply(400, {"error": f"bad JSON body: {exc}"})
                return
            if path.startswith("/query/"):
                graph_name = path[len("/query/"):]
                self._reply(*server.handle_query(graph_name, payload))
            elif path.startswith("/graph/") and path.endswith("/delta"):
                graph_name = path[len("/graph/"):-len("/delta")]
                self._reply(*server.handle_delta(graph_name, payload))
            elif path.startswith("/pipeline/"):
                graph_name = path[len("/pipeline/"):]
                self._reply(*server.handle_pipeline(graph_name, payload))
            else:
                server.stats.bump("errors")
                self._reply(404, {"error": f"no such endpoint: {self.path}"})

    return Handler
