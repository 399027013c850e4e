"""Thread-local SQLite databases: the pool catalog's and the pipeline's.

:class:`~repro.service.catalog.PoolCatalog` and
:class:`~repro.pipeline.db.PipelineDebugDB` keep their records with one
recipe (SNIPPETS §1): one connection per thread; a WAL journal, so
readers never block the writer across processes; ``synchronous=NORMAL``;
a ``busy_timeout`` so writers queue instead of erroring; and a schema
version pinned in a key/value meta table.  Timestamps are ISO-8601 UTC
(:func:`utc_now_iso`).  The module sits below both layers because the
service layer imports the pipeline.
"""

from __future__ import annotations

import datetime
import os
import sqlite3
import threading
from typing import Union

#: how long a connection waits on another process's lock before erroring.
BUSY_TIMEOUT_MS = 30_000

PathLike = Union[str, os.PathLike]


def utc_now_iso() -> str:
    """Current UTC time as an ISO-8601 string (the records' timestamps)."""
    now = datetime.datetime.now(datetime.timezone.utc)
    return now.isoformat(timespec="microseconds").replace("+00:00", "Z")


class ThreadLocalDB:
    """One SQLite file, opened lazily once per thread.

    Subclasses set ``SCHEMA`` (idempotent DDL), ``META_TABLE`` (the
    key/value table that pins ``schema_version``) and ``SCHEMA_VERSION``.
    """

    SCHEMA: str
    META_TABLE: str
    SCHEMA_VERSION: int

    def __init__(self, path: PathLike) -> None:
        self._path = str(path)
        self._local = threading.local()

    @property
    def path(self) -> str:
        """The database file path."""
        return self._path

    def _connect(self) -> sqlite3.Connection:
        """Open one connection (subclasses may translate open errors)."""
        return sqlite3.connect(self._path, timeout=BUSY_TIMEOUT_MS / 1000.0)

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connect()
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA foreign_keys=ON")
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            conn.executescript(self.SCHEMA)
            conn.execute(
                f"INSERT OR IGNORE INTO {self.META_TABLE}(key, value) "
                "VALUES(?, ?)",
                ("schema_version", str(self.SCHEMA_VERSION)),
            )
            conn.commit()
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close this thread's connection (others close with their threads)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None
