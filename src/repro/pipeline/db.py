"""`PipelineDebugDB`: the per-workdir SQLite record of every pipeline run.

Design requirement (ISSUE 10): **a run must be diagnosable from
``pipeline_debug.sqlite`` alone** — no re-run, no log scraping.  Every
stage therefore writes its inputs (content digests), outputs, timings and
convergence diagnostics here:

* ``runs``          — one row per :func:`~repro.pipeline.run_pipeline`
                      call: config JSON + digest, input fingerprints,
                      start/finish timestamps, status, stage counts;
* ``stages``        — one row per (run, stage): ran/cached/failed, input
                      and output digests, wall time, JSON detail
                      (iterations, converged, backend, sample counts);
* ``em_trace``      — the EM log-likelihood trace, one row per iteration
                      (iteration 0 = initial parameters);
* ``edge_fits``     — the fitted per-edge probabilities and observation
                      counts;
* ``gap_fits``      — the four GAP parameters with CI halfwidths, sample
                      counts, and (when ground truth is supplied)
                      inside-CI verdicts;
* ``query_results`` — stage-3 answers: seeds, estimate, method/engine,
                      RR-sets sampled, degraded flag, wall time.

The storage discipline is the pool catalog's (:mod:`repro.sqlitedb`):
WAL journal + ``synchronous=NORMAL`` + ``busy_timeout`` so concurrent
readers never block the writer, thread-local connections, and a schema
version pinned in ``pipeline_meta``.  Timestamps are ISO-8601 UTC.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Any, Iterable, Optional

from repro.errors import PipelineError
from repro.sqlitedb import ThreadLocalDB, utc_now_iso

__all__ = ["PipelineDebugDB", "DEBUG_DB_FILE", "SCHEMA_VERSION"]


#: debug database file name, inside the pipeline working directory.
DEBUG_DB_FILE = "pipeline_debug.sqlite"

#: bump on schema changes; recorded in ``pipeline_meta``.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id               INTEGER PRIMARY KEY AUTOINCREMENT,
    started_utc          TEXT NOT NULL,
    finished_utc         TEXT,
    status               TEXT NOT NULL,          -- running | ok | failed
    error                TEXT,
    config_json          TEXT NOT NULL,
    config_digest        TEXT NOT NULL,
    graph_fingerprint    TEXT NOT NULL,
    log_fingerprint      TEXT NOT NULL,
    episodes_fingerprint TEXT,
    seed                 INTEGER NOT NULL,
    stages_run           INTEGER NOT NULL DEFAULT 0,
    stages_skipped       INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS stages (
    run_id        INTEGER NOT NULL,
    stage         TEXT NOT NULL,                 -- fit_edges | fit_gap | query
    status        TEXT NOT NULL,                 -- ran | cached | failed
    input_digest  TEXT NOT NULL,
    output_digest TEXT,
    wall_s        REAL,
    started_utc   TEXT NOT NULL,
    finished_utc  TEXT,
    detail        TEXT,                          -- JSON diagnostics
    PRIMARY KEY (run_id, stage)
);
CREATE TABLE IF NOT EXISTS em_trace (
    run_id         INTEGER NOT NULL,
    iteration      INTEGER NOT NULL,             -- 0 = initial parameters
    log_likelihood REAL NOT NULL,
    PRIMARY KEY (run_id, iteration)
);
CREATE TABLE IF NOT EXISTS edge_fits (
    run_id       INTEGER NOT NULL,
    edge_id      INTEGER NOT NULL,
    source       INTEGER NOT NULL,
    target       INTEGER NOT NULL,
    probability  REAL NOT NULL,
    observations INTEGER,
    PRIMARY KEY (run_id, edge_id)
);
CREATE TABLE IF NOT EXISTS gap_fits (
    run_id     INTEGER NOT NULL,
    item_a     TEXT NOT NULL,
    item_b     TEXT NOT NULL,
    parameter  TEXT NOT NULL,      -- q_a | q_a_given_b | q_b | q_b_given_a
    value      REAL NOT NULL,
    halfwidth  REAL NOT NULL,
    ci_lo      REAL NOT NULL,
    ci_hi      REAL NOT NULL,
    samples    INTEGER NOT NULL,
    true_value REAL,               -- NULL without supplied ground truth
    inside_ci  INTEGER,            -- 1/0, NULL without ground truth
    PRIMARY KEY (run_id, parameter)
);
CREATE TABLE IF NOT EXISTS query_results (
    run_id          INTEGER NOT NULL,
    query_index     INTEGER NOT NULL,
    objective       TEXT NOT NULL,
    query_json      TEXT NOT NULL,
    seeds_json      TEXT NOT NULL,
    estimate        REAL,
    method          TEXT NOT NULL,
    engine          TEXT NOT NULL,
    rr_sets_sampled INTEGER,
    degraded        INTEGER NOT NULL,
    wall_s          REAL,
    PRIMARY KEY (run_id, query_index)
);
CREATE TABLE IF NOT EXISTS pipeline_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


class PipelineDebugDB(ThreadLocalDB):
    """The SQLite debug record of one pipeline working directory.

    Thread-safe via one connection per thread; process-safe via WAL +
    ``busy_timeout`` (see :mod:`repro.sqlitedb`).  All writes commit per
    method call, so a crashed run leaves its ``running`` row behind as
    evidence rather than vanishing.
    """

    SCHEMA = _SCHEMA
    META_TABLE = "pipeline_meta"
    SCHEMA_VERSION = SCHEMA_VERSION

    def _connect(self) -> sqlite3.Connection:
        try:
            return super()._connect()
        except sqlite3.OperationalError as exc:
            raise PipelineError(
                f"cannot open debug database {self._path}: {exc}"
            ) from exc

    def schema_version(self) -> int:
        """The schema version pinned in ``pipeline_meta``."""
        row = self._conn().execute(
            "SELECT value FROM pipeline_meta WHERE key = 'schema_version'"
        ).fetchone()
        return int(row["value"])

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def begin_run(
        self,
        *,
        config_json: str,
        config_digest: str,
        graph_fingerprint: str,
        log_fingerprint: str,
        episodes_fingerprint: Optional[str],
        seed: int,
    ) -> int:
        """Insert a ``running`` row; returns its ``run_id``."""
        cur = self._conn().execute(
            """
            INSERT INTO runs (started_utc, status, config_json, config_digest,
                              graph_fingerprint, log_fingerprint,
                              episodes_fingerprint, seed)
            VALUES (?, 'running', ?, ?, ?, ?, ?, ?)
            """,
            (
                utc_now_iso(),
                config_json,
                config_digest,
                graph_fingerprint,
                log_fingerprint,
                episodes_fingerprint,
                seed,
            ),
        )
        self._conn().commit()
        return int(cur.lastrowid)

    def finish_run(
        self,
        run_id: int,
        *,
        status: str,
        error: Optional[str] = None,
        stages_run: int = 0,
        stages_skipped: int = 0,
    ) -> None:
        """Stamp the run's outcome (``ok`` or ``failed``) and stage counts."""
        self._conn().execute(
            """
            UPDATE runs SET finished_utc = ?, status = ?, error = ?,
                            stages_run = ?, stages_skipped = ?
            WHERE run_id = ?
            """,
            (utc_now_iso(), status, error, stages_run, stages_skipped, run_id),
        )
        self._conn().commit()

    # ------------------------------------------------------------------
    # Stage records
    # ------------------------------------------------------------------
    def record_stage(
        self,
        run_id: int,
        stage: str,
        *,
        status: str,
        input_digest: str,
        output_digest: Optional[str],
        wall_s: Optional[float],
        started_utc: str,
        detail: Optional[dict[str, Any]] = None,
    ) -> None:
        """Upsert the (run, stage) row; call once per stage attempt."""
        self._conn().execute(
            """
            INSERT OR REPLACE INTO stages
                (run_id, stage, status, input_digest, output_digest,
                 wall_s, started_utc, finished_utc, detail)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (
                run_id,
                stage,
                status,
                input_digest,
                output_digest,
                wall_s,
                started_utc,
                utc_now_iso(),
                json.dumps(detail, sort_keys=True) if detail is not None else None,
            ),
        )
        self._conn().commit()

    def record_em_trace(self, run_id: int, log_likelihoods: Iterable[float]) -> None:
        """Record the EM log-likelihood trace (iteration 0 = initial)."""
        self._conn().executemany(
            "INSERT OR REPLACE INTO em_trace (run_id, iteration, log_likelihood)"
            " VALUES (?, ?, ?)",
            [(run_id, i, float(ll)) for i, ll in enumerate(log_likelihoods)],
        )
        self._conn().commit()

    def record_edge_fits(
        self,
        run_id: int,
        *,
        sources: Iterable[int],
        targets: Iterable[int],
        probabilities: Iterable[float],
        observations: Optional[Iterable[int]] = None,
    ) -> None:
        """Record the fitted per-edge probabilities (edge id = row order)."""
        obs = list(observations) if observations is not None else None
        rows = [
            (
                run_id,
                eid,
                int(src),
                int(dst),
                float(p),
                int(obs[eid]) if obs is not None else None,
            )
            for eid, (src, dst, p) in enumerate(
                zip(sources, targets, probabilities)
            )
        ]
        self._conn().executemany(
            "INSERT OR REPLACE INTO edge_fits"
            " (run_id, edge_id, source, target, probability, observations)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            rows,
        )
        self._conn().commit()

    def record_gap_fit(
        self,
        run_id: int,
        *,
        item_a: Any,
        item_b: Any,
        parameter: str,
        value: float,
        halfwidth: float,
        ci_lo: float,
        ci_hi: float,
        samples: int,
        true_value: Optional[float] = None,
        inside_ci: Optional[bool] = None,
    ) -> None:
        """Record one GAP parameter's estimate, CI and sample count."""
        self._conn().execute(
            """
            INSERT OR REPLACE INTO gap_fits
                (run_id, item_a, item_b, parameter, value, halfwidth,
                 ci_lo, ci_hi, samples, true_value, inside_ci)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (
                run_id,
                str(item_a),
                str(item_b),
                parameter,
                float(value),
                float(halfwidth),
                float(ci_lo),
                float(ci_hi),
                int(samples),
                None if true_value is None else float(true_value),
                None if inside_ci is None else int(inside_ci),
            ),
        )
        self._conn().commit()

    def record_query(
        self,
        run_id: int,
        query_index: int,
        *,
        objective: str,
        query_json: str,
        seeds: Iterable[int],
        estimate: Optional[float],
        method: str,
        engine: str,
        rr_sets_sampled: Optional[int],
        degraded: bool,
        wall_s: Optional[float],
    ) -> None:
        """Record one stage-3 query answer."""
        self._conn().execute(
            """
            INSERT OR REPLACE INTO query_results
                (run_id, query_index, objective, query_json, seeds_json,
                 estimate, method, engine, rr_sets_sampled, degraded, wall_s)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (
                run_id,
                query_index,
                objective,
                query_json,
                json.dumps([int(s) for s in seeds]),
                None if estimate is None else float(estimate),
                method,
                engine,
                None if rr_sets_sampled is None else int(rr_sets_sampled),
                int(bool(degraded)),
                wall_s,
            ),
        )
        self._conn().commit()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def runs(self) -> list[dict[str, Any]]:
        """Every run row as a plain dict, newest first."""
        cur = self._conn().execute("SELECT * FROM runs ORDER BY run_id DESC")
        return [dict(row) for row in cur.fetchall()]

    def run(self, run_id: int) -> Optional[dict[str, Any]]:
        """One run row by id, or ``None``."""
        row = self._conn().execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        return dict(row) if row is not None else None

    def stages(self, run_id: int) -> list[dict[str, Any]]:
        """The run's stage rows, in execution order."""
        cur = self._conn().execute(
            "SELECT * FROM stages WHERE run_id = ?"
            " ORDER BY started_utc, stage",
            (run_id,),
        )
        return [dict(row) for row in cur.fetchall()]

    def em_trace(self, run_id: int) -> list[tuple[int, float]]:
        """The run's (iteration, log_likelihood) trace, in order."""
        cur = self._conn().execute(
            "SELECT iteration, log_likelihood FROM em_trace"
            " WHERE run_id = ? ORDER BY iteration",
            (run_id,),
        )
        return [(int(r["iteration"]), float(r["log_likelihood"])) for r in cur]

    def gap_fits(self, run_id: int) -> list[dict[str, Any]]:
        """The run's GAP-parameter rows."""
        cur = self._conn().execute(
            "SELECT * FROM gap_fits WHERE run_id = ? ORDER BY parameter",
            (run_id,),
        )
        return [dict(row) for row in cur.fetchall()]

    def query_results(self, run_id: int) -> list[dict[str, Any]]:
        """The run's stage-3 answers, in query order."""
        cur = self._conn().execute(
            "SELECT * FROM query_results WHERE run_id = ? ORDER BY query_index",
            (run_id,),
        )
        return [dict(row) for row in cur.fetchall()]
