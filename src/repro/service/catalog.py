"""SQLite pool catalog: ops visibility and GC for the on-disk pool store.

The :class:`~repro.store.PoolStore` is deliberately dumb — a directory of
content-addressed entries — which keeps its crash story simple but leaves
two service-layer needs unmet: *visibility* (what pools exist, how big,
how hot — answerable with ``SELECT``, not a directory crawl that parses
every manifest) and *bounded disk* (the in-memory cache has
``EngineConfig.max_pool_bytes``; the store had no equivalent).  This
module adds both without touching the store's file format:

* :class:`PoolCatalog` — one SQLite row per stored pool (the full
  :class:`~repro.store.PoolKey`, graph fingerprint, byte size, format
  version, certified theta when known, created/last-used ISO-8601 UTC
  timestamps, hit/load/save counts).  Connections apply the WAL +
  ``busy_timeout`` pragma set for multi-process coordination; writes are
  single-statement UPSERTs, so two processes cataloguing one store
  cannot corrupt it, only interleave.
* :class:`CatalogedPoolStore` — a drop-in :class:`~repro.store.PoolStore`
  that mirrors every save/load/quarantine into the catalog and enforces a
  store-wide byte quota by evicting least-recently-used rows *and* their
  on-disk entries (:meth:`CatalogedPoolStore.enforce_quota`).

The catalog is an **index, not an authority**: the manifests on disk
remain the source of truth, and :meth:`PoolCatalog.reconcile` resyncs the
rows against them (adopting entries written by plain ``PoolStore``
processes, dropping rows whose entries vanished).  Losing the catalog
database loses counters, never pools.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import StoreIntegrityError
from repro.sqlitedb import ThreadLocalDB, utc_now_iso
from repro.store import PoolKey, PoolManifest, PoolStore
from repro.store.pool_store import PathLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rrset.pool import RRSetPool

#: catalog database file name, inside the store root.
CATALOG_FILE = "catalog.sqlite"

#: bump on schema changes; recorded in ``catalog_meta``.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS pools (
    digest            TEXT PRIMARY KEY,
    regime            TEXT NOT NULL,
    gaps              TEXT NOT NULL,              -- JSON [q_a, q_a|b, q_b, q_b|a]
    opposite_seeds    TEXT NOT NULL,              -- JSON [int, ...]
    graph_fingerprint TEXT NOT NULL,
    num_sets          INTEGER NOT NULL,
    total_nodes       INTEGER NOT NULL,
    nbytes            INTEGER NOT NULL,
    format_version    INTEGER NOT NULL,
    theta             INTEGER,                    -- certified IMM theta, if known
    created_utc       TEXT NOT NULL,              -- ISO-8601, UTC
    last_used_utc     TEXT NOT NULL,              -- ISO-8601, UTC
    hits              INTEGER NOT NULL DEFAULT 0,
    loads             INTEGER NOT NULL DEFAULT 0,
    saves             INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_pools_last_used ON pools(last_used_utc);
CREATE TABLE IF NOT EXISTS catalog_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


def _entry_nbytes(manifest: PoolManifest) -> int:
    """On-disk pool bytes an entry costs (column data; headers ignored)."""
    return manifest.total_nodes * 4 + (manifest.num_sets + 1) * 8


def _manifest_theta(manifest: PoolManifest) -> Optional[int]:
    """The certified theta recorded in a manifest's provenance, if any."""
    record = manifest.provenance.get("selection")
    if isinstance(record, dict):
        try:
            return int(record["theta"])
        except (KeyError, TypeError, ValueError):
            return None
    return None


class PoolCatalog(ThreadLocalDB):
    """The SQLite index of one pool-store directory.

    Thread-safe via one connection per thread; process-safe via WAL mode
    and ``busy_timeout`` (writers queue instead of erroring; see
    :mod:`repro.sqlitedb`).  All mutating methods are single-statement
    UPSERT/DELETE, atomic under SQLite's own locking.  NORMAL sync is
    durable enough for an index that :meth:`reconcile` can rebuild from
    manifests.
    """

    SCHEMA = _SCHEMA
    META_TABLE = "catalog_meta"
    SCHEMA_VERSION = SCHEMA_VERSION

    # ------------------------------------------------------------------
    # Row upkeep
    # ------------------------------------------------------------------
    def record_save(
        self, manifest: PoolManifest, *, theta: Optional[int] = None
    ) -> None:
        """Upsert the row for a just-saved entry (bumps ``saves``)."""
        now = utc_now_iso()
        key = manifest.key
        self._conn().execute(
            """
            INSERT INTO pools (digest, regime, gaps, opposite_seeds,
                               graph_fingerprint, num_sets, total_nodes,
                               nbytes, format_version, theta,
                               created_utc, last_used_utc, hits, loads, saves)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0, 0, 1)
            ON CONFLICT(digest) DO UPDATE SET
                num_sets = excluded.num_sets,
                total_nodes = excluded.total_nodes,
                nbytes = excluded.nbytes,
                format_version = excluded.format_version,
                graph_fingerprint = excluded.graph_fingerprint,
                theta = COALESCE(excluded.theta, pools.theta),
                last_used_utc = excluded.last_used_utc,
                saves = pools.saves + 1
            """,
            (
                key.digest(),
                key.regime,
                json.dumps(list(key.gaps)),
                json.dumps(list(key.opposite_seeds)),
                manifest.graph_fingerprint,
                manifest.num_sets,
                manifest.total_nodes,
                _entry_nbytes(manifest),
                manifest.format_version,
                theta if theta is not None else _manifest_theta(manifest),
                now,
                now,
            ),
        )
        self._conn().commit()

    def record_hit(self, manifest: PoolManifest) -> None:
        """Upsert after a served load (bumps ``hits`` and ``loads``).

        Takes the manifest (not just the digest) so a hit on an entry the
        catalog has never seen — written by a plain ``PoolStore``
        process — adopts it instead of dropping the count.
        """
        now = utc_now_iso()
        key = manifest.key
        self._conn().execute(
            """
            INSERT INTO pools (digest, regime, gaps, opposite_seeds,
                               graph_fingerprint, num_sets, total_nodes,
                               nbytes, format_version, theta,
                               created_utc, last_used_utc, hits, loads, saves)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 1, 1, 0)
            ON CONFLICT(digest) DO UPDATE SET
                num_sets = excluded.num_sets,
                total_nodes = excluded.total_nodes,
                nbytes = excluded.nbytes,
                theta = COALESCE(excluded.theta, pools.theta),
                last_used_utc = excluded.last_used_utc,
                hits = pools.hits + 1,
                loads = pools.loads + 1
            """,
            (
                key.digest(),
                key.regime,
                json.dumps(list(key.gaps)),
                json.dumps(list(key.opposite_seeds)),
                manifest.graph_fingerprint,
                manifest.num_sets,
                manifest.total_nodes,
                _entry_nbytes(manifest),
                manifest.format_version,
                _manifest_theta(manifest),
                now,
                now,
            ),
        )
        self._conn().commit()

    def forget(self, digest: str) -> None:
        """Drop a row (entry deleted, quarantined, or GC'd)."""
        self._conn().execute("DELETE FROM pools WHERE digest = ?", (digest,))
        self._conn().commit()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rows(self) -> list[dict[str, Any]]:
        """Every row as a plain dict, most recently used first."""
        cur = self._conn().execute(
            "SELECT * FROM pools ORDER BY last_used_utc DESC, digest"
        )
        return [dict(row) for row in cur.fetchall()]

    def row(self, digest: str) -> Optional[dict[str, Any]]:
        """One row by digest, or ``None``."""
        cur = self._conn().execute(
            "SELECT * FROM pools WHERE digest = ?", (digest,)
        )
        row = cur.fetchone()
        return dict(row) if row is not None else None

    def total_bytes(self) -> int:
        """Sum of catalogued pool bytes."""
        cur = self._conn().execute("SELECT COALESCE(SUM(nbytes), 0) FROM pools")
        return int(cur.fetchone()[0])

    def lru_rows(self) -> list[dict[str, Any]]:
        """Rows in eviction order: least recently used first (digest
        tiebreak, so two same-microsecond rows evict deterministically)."""
        cur = self._conn().execute(
            "SELECT * FROM pools ORDER BY last_used_utc ASC, digest"
        )
        return [dict(row) for row in cur.fetchall()]

    # ------------------------------------------------------------------
    # Reconciliation
    # ------------------------------------------------------------------
    def reconcile(self, store: PoolStore) -> dict[str, int]:
        """Resync rows against the store's on-disk manifests.

        Adopts installed entries with no row (created by plain
        ``PoolStore`` writers or a lost catalog db) and drops rows whose
        entries no longer exist (deleted/quarantined behind our back).
        Returns ``{"adopted": ..., "dropped": ...}``.
        """
        on_disk: dict[str, PoolManifest] = {
            manifest.key.digest(): manifest for manifest in store.entries()
        }
        known = {row["digest"] for row in self.rows()}
        adopted = dropped = 0
        for digest, manifest in on_disk.items():
            if digest not in known:
                now = utc_now_iso()
                key = manifest.key
                self._conn().execute(
                    """
                    INSERT OR IGNORE INTO pools
                        (digest, regime, gaps, opposite_seeds,
                         graph_fingerprint, num_sets, total_nodes, nbytes,
                         format_version, theta, created_utc, last_used_utc,
                         hits, loads, saves)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0, 0, 0)
                    """,
                    (
                        digest,
                        key.regime,
                        json.dumps(list(key.gaps)),
                        json.dumps(list(key.opposite_seeds)),
                        manifest.graph_fingerprint,
                        manifest.num_sets,
                        manifest.total_nodes,
                        _entry_nbytes(manifest),
                        manifest.format_version,
                        _manifest_theta(manifest),
                        now,
                        now,
                    ),
                )
                adopted += 1
        for digest in known - set(on_disk):
            self._conn().execute(
                "DELETE FROM pools WHERE digest = ?", (digest,)
            )
            dropped += 1
        self._conn().commit()
        return {"adopted": adopted, "dropped": dropped}


class CatalogedPoolStore(PoolStore):
    """A :class:`~repro.store.PoolStore` mirrored into a :class:`PoolCatalog`.

    Every save upserts the entry's row (and then enforces the byte
    quota), every served load bumps its hit/load counters and LRU
    timestamp, and every quarantine/delete forgets the row.  The quota
    (``max_store_bytes``) mirrors ``EngineConfig.max_pool_bytes`` one
    level down: where the config bounds a session's *memory*, the quota
    bounds the shared store's *disk*, with the same LRU policy.

    ``gc_evictions`` / ``gc_bytes_evicted`` count quota enforcement on
    this instance (catalog rows persist across instances; these counters
    do not).
    """

    def __init__(
        self,
        root: PathLike,
        *,
        max_store_bytes: Optional[int] = None,
        catalog: Optional[PoolCatalog] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(root, **kwargs)
        if max_store_bytes is not None and max_store_bytes < 0:
            raise ValueError(
                f"max_store_bytes must be >= 0 (or None), got {max_store_bytes}"
            )
        self._max_store_bytes = max_store_bytes
        self.catalog = (
            catalog if catalog is not None else PoolCatalog(self.root / CATALOG_FILE)
        )
        self.gc_evictions = 0
        self.gc_bytes_evicted = 0
        self.catalog.reconcile(self)
        self.enforce_quota()

    @property
    def max_store_bytes(self) -> Optional[int]:
        """The store-wide byte quota (``None`` = unbounded)."""
        return self._max_store_bytes

    # ------------------------------------------------------------------
    # Mirrored operations
    # ------------------------------------------------------------------
    def save(self, key: PoolKey, pool: "RRSetPool", **kwargs: Any) -> Path:
        entry = super().save(key, pool, **kwargs)
        manifest = self._manifest_quiet(key)
        if manifest is not None:
            self.catalog.record_save(manifest)
        self.enforce_quota()
        return entry

    def load(self, key: PoolKey, **kwargs: Any):
        hits_before = self.stats.hits
        invalidations_before = self.stats.invalidations
        result = super().load(key, **kwargs)
        if self.stats.hits > hits_before:
            manifest = self._manifest_quiet(key)
            if manifest is not None:
                self.catalog.record_hit(manifest)
        elif self.stats.invalidations > invalidations_before:
            # The rejected entry was quarantined out of its slot — drop the
            # row, unless a concurrent writer already reinstalled the key.
            # A plain miss leaves the catalog alone: forgetting on miss
            # races with a concurrent save's record_save (dir installed,
            # row deleted), and rows for entries that vanished out-of-band
            # are reconcile()'s job at open time.
            if not self.entry_dir(key).exists():
                self.catalog.forget(key.digest())
        return result

    def _manifest_quiet(self, key: PoolKey) -> Optional[PoolManifest]:
        """``manifest()`` that degrades to ``None`` under a racing writer
        (half-replaced entry): the counters just skip one bump."""
        try:
            return self.manifest(key)
        except StoreIntegrityError:
            return None

    def delete(self, key: PoolKey) -> bool:
        existed = super().delete(key)
        self.catalog.forget(key.digest())
        return existed

    def clear(self) -> None:
        super().clear()
        for row in self.catalog.rows():
            self.catalog.forget(row["digest"])

    # ------------------------------------------------------------------
    # Quota GC
    # ------------------------------------------------------------------
    def enforce_quota(self) -> list[str]:
        """Evict LRU entries (rows + directories) until under the quota.

        Mirrors the session cache's eviction semantics: the most recently
        used entry goes last, i.e. only when it alone exceeds the quota.
        Returns the evicted digests.  Directory removal is best-effort
        (a concurrent writer reinstalling the entry just wins and will be
        re-adopted by the next reconcile); the row is dropped regardless
        so the accounting converges.
        """
        if self._max_store_bytes is None:
            return []
        evicted: list[str] = []
        while True:
            rows = self.catalog.lru_rows()
            total = sum(row["nbytes"] for row in rows)
            if not rows or total <= self._max_store_bytes:
                break
            victim = rows[0]
            self.catalog.forget(victim["digest"])
            shutil.rmtree(self.root / victim["digest"], ignore_errors=True)
            self.gc_evictions += 1
            self.gc_bytes_evicted += int(victim["nbytes"])
            evicted.append(victim["digest"])
        return evicted
