"""`PoolStore`: versioned on-disk snapshots of RR-set pools.

The pool layout (two flat CSR columns, :mod:`repro.rrset.pool`) makes
persistence almost free: an entry is a directory holding the columns as
plain ``.npy`` files plus a JSON manifest::

    <root>/<key digest>/
        manifest.json     # PoolManifest: key, fingerprint, counts, CRCs
        nodes.npy         # int32 member-node column
        indptr.npy        # CSR offset column: int64, or the uint32
                          # memory diet when every offset fits (the
                          # manifest's ``column_dtypes`` records which)

Loads memory-map the columns by default (``mmap_mode="r"``): adopting
them into an :class:`~repro.rrset.pool.RRSetPool` is zero-copy
(:meth:`RRSetPool.from_flat`) and the pool stays appendable because its
first growth reallocates into fresh writable memory.  (Checksum
verification does stream each column once at load — integrity costs one
sequential read; everything after that touches pages lazily and
copy-free.)

Every load is *validated*: the manifest must describe exactly the
requested :class:`~repro.store.keys.PoolKey` and (when given) graph
fingerprint — otherwise the entry was sampled from a different problem
and serving it would be silently wrong — and the columns must match the
manifest's shapes and CRC-32 checksums — otherwise the files were
corrupted or tampered with.  The forgiving :meth:`PoolStore.load` maps
both failure kinds to a miss and counts an **invalidation** in
:class:`StoreStats`; :meth:`PoolStore.load_strict` raises the underlying
:class:`~repro.errors.StoreIntegrityError` for callers (and tests) that
want the reason.

Writes are staged + renamed: an entry is built in a ``.staging.*``
directory, the old entry is atomically moved aside, and the staging
directory atomically renamed into place, so readers never observe a
half-written entry (at worst a momentary miss).  Concurrent writers of
the same key race on the final rename; exactly one installs, losers
discard their staging quietly — the right semantics when entries are
identical re-samplings, and documented for everything else.

**Incremental appends**: re-saving a *grown* pool whose stored entry is
a validated byte-prefix of the new columns (the session's IMM-style
top-up write-through is exactly this) appends only the delta to the
``.npy`` columns in place instead of rewriting O(N·S) bytes — CRCs
continue incrementally from the manifest's recorded values, the data
bytes land before the header's shape is patched, and the manifest is
replaced atomically last, so every crash point leaves a state the
prefix-tolerant loader still serves (columns longer than the manifest
describes are sliced down to the described — intact — prefix).  Append
writers of one entry serialise on an ``.append.lock`` file inside it;
the loser of that race defers to the winner (degrades to a hit — the
winner's entry is, or extends, the loser's prefix) rather than racing a
full rewrite against an in-flight append.  ``StoreStats`` counts
``appends`` and ``append_contentions``.

The store also **self-heals** (see ``docs/resilience.md``): an entry
:meth:`PoolStore.load` rejects is *quarantined* — moved under
``<root>/.quarantine/<digest>-<n>/`` with a ``reason.json`` record — so
a corrupted or foreign entry costs one invalidation ever, not one per
query; crash-orphaned ``.staging.*`` / ``.trash.*`` directories older
than ``stale_temp_age_s`` are garbage-collected when the store opens;
and every failed :meth:`PoolStore.save` is tallied in
:attr:`StoreStats.save_failures` so callers can degrade to
warn-and-continue without losing the signal.
"""

from __future__ import annotations

import errno
import io
import itertools
import json
import os
import shutil
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Union

import numpy as np

from repro import faults
from repro.errors import StoreError, StoreIntegrityError
from repro.invalidation import InvalidationReason
from repro.rrset.pool import RRSetPool
from repro.store.keys import PoolKey
from repro.store.manifest import FORMAT_VERSION, PoolManifest, crc32_of

MANIFEST_FILE = "manifest.json"
NODES_FILE = "nodes.npy"
INDPTR_FILE = "indptr.npy"
#: optional touch-tracking columns (dynamic-graph repair, PR 8).
ROOTS_FILE = "roots.npy"
TOUCH_EDGES_FILE = "touch_edges.npy"
TOUCH_INDPTR_FILE = "touch_indptr.npy"
#: per-entry mutex of in-place column appends (held only while appending).
APPEND_LOCK_FILE = ".append.lock"
#: subdirectory of the store root holding quarantined entries.
QUARANTINE_DIR = ".quarantine"
#: sidecar written into each quarantined entry explaining why.
REASON_FILE = "reason.json"

PathLike = Union[str, os.PathLike]

#: monotonic disambiguator for staging/trash names — two threads of one
#: process saving the same key must never share a temp directory.
_TEMP_COUNTER = itertools.count()

_UINT32_MAX = int(np.iinfo(np.uint32).max)


def _diet_column(offsets: np.ndarray) -> np.ndarray:
    """The storage form of a non-decreasing offset column.

    uint32 when every offset fits (half the disk bytes of the canonical
    int64, and — because loads adopt columns zero-copy — half the resident
    bytes of a warm-started pool too), otherwise the column unchanged.
    """
    if offsets.size == 0 or int(offsets[-1]) <= _UINT32_MAX:
        return offsets.astype(np.uint32)
    return offsets


def _npy_append(path: Path, delta: np.ndarray, new_count: int) -> bool:
    """Append ``delta`` to a 1-D ``.npy`` column file in place.

    Returns ``False`` when the file cannot be extended in place (non-1.0
    npy format, dtype/layout surprises, or a new shape whose padded
    header length differs from the old) — callers fall back to the
    staged full rewrite.  Crash-safe ordering: the delta bytes land
    *before* the header's shape is patched, so an interrupted append
    leaves the previous header describing the previous — intact — array,
    with the partial tail ignored as trailing bytes.
    """
    delta = np.ascontiguousarray(delta)
    with open(path, "r+b") as handle:
        try:
            version = np.lib.format.read_magic(handle)
        except ValueError:
            return False
        if version != (1, 0):
            return False
        try:
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        except ValueError:
            return False
        if fortran or len(shape) != 1 or dtype != delta.dtype:
            return False
        if shape[0] + int(delta.size) != int(new_count):
            return False
        data_start = handle.tell()
        preamble = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            preamble,
            {
                "descr": np.lib.format.dtype_to_descr(dtype),
                "fortran_order": False,
                "shape": (int(new_count),),
            },
        )
        header = preamble.getvalue()
        if len(header) != data_start:
            return False
        handle.seek(data_start + int(shape[0]) * dtype.itemsize)
        handle.write(memoryview(delta).cast("B"))
        handle.flush()
        os.fsync(handle.fileno())
        handle.seek(0)
        handle.write(header)
        handle.flush()
        os.fsync(handle.fileno())
    return True


@dataclass
class StoreStats:
    """Cumulative accounting of one :class:`PoolStore` instance."""

    #: loads answered from a valid on-disk entry.
    hits: int = 0
    #: loads for keys with no on-disk entry at all.
    misses: int = 0
    #: loads that found an entry but rejected it (wrong key/fingerprint,
    #: wrong format version, corrupted columns).
    invalidations: int = 0
    #: entries written (new, overwritten, or appended).
    saves: int = 0
    #: saves satisfied by appending only the grown tail to an existing
    #: entry's columns (subset of ``saves``).
    appends: int = 0
    #: append attempts that found another writer's append in flight and
    #: deferred to it (the save degrades to a hit; nothing was written).
    append_contentions: int = 0
    #: rejected entries moved aside into ``.quarantine/`` by ``load``.
    quarantined: int = 0
    #: ``save`` calls that raised (disk full, permission, injected).
    save_failures: int = 0
    #: crash-orphaned staging/trash directories removed at open.
    temp_dirs_gcd: int = 0
    #: per-reason breakdown of ``invalidations``, keyed by
    #: :class:`~repro.invalidation.InvalidationReason` value strings.
    invalidations_by_reason: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Plain-dict view for reports."""
        return asdict(self)


class PoolStore:
    """A directory of persisted RR-set pools, addressed by :class:`PoolKey`.

    ``stale_temp_age_s`` controls the open-time sweep of crash-orphaned
    ``.staging.*`` / ``.trash.*`` directories: anything older than this
    many seconds is removed (a live writer's staging is seconds old, so
    the default hour cannot race one).  ``None`` disables the sweep.
    """

    def __init__(
        self,
        root: PathLike,
        *,
        mmap: bool = True,
        stale_temp_age_s: Optional[float] = 3600.0,
    ) -> None:
        self._root = Path(root)
        if self._root.exists() and not self._root.is_dir():
            raise StoreError(f"store root {self._root} exists and is not a directory")
        self._root.mkdir(parents=True, exist_ok=True)
        self._mmap = bool(mmap)
        if stale_temp_age_s is not None and stale_temp_age_s < 0:
            raise StoreError(
                f"stale_temp_age_s must be >= 0 (or None to disable), "
                f"got {stale_temp_age_s}"
            )
        self._stale_temp_age_s = stale_temp_age_s
        self.stats = StoreStats()
        self._gc_stale_temps()

    def _gc_stale_temps(self) -> None:
        """Remove crash-orphaned staging/trash dirs older than the cutoff."""
        if self._stale_temp_age_s is None:
            return
        now = time.time()
        for child in self._root.iterdir():
            name = child.name
            if not (name.startswith(".staging.") or name.startswith(".trash.")):
                continue
            try:
                age = now - child.stat().st_mtime
            except OSError:
                continue  # already gone (concurrent open) — nothing to do
            if age >= self._stale_temp_age_s:
                shutil.rmtree(child, ignore_errors=True)
                self.stats.temp_dirs_gcd += 1

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    def entry_dir(self, key: PoolKey) -> Path:
        """The directory a key's entry lives in (existing or not)."""
        if not isinstance(key, PoolKey):
            raise StoreError(f"key must be a PoolKey, got {type(key).__name__}")
        return self._root / key.digest()

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------
    def save(
        self,
        key: PoolKey,
        pool: RRSetPool,
        *,
        graph_fingerprint: str,
        provenance: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Persist ``pool`` under ``key``, replacing any previous entry.

        ``graph_fingerprint`` must be :meth:`DiGraph.fingerprint` of the
        graph the pool was sampled from — it is what load-time validation
        checks against.  ``provenance`` is recorded verbatim into the
        manifest (RNG description, creator, ...) on top of the
        automatically stamped ``created_unix``.  Returns the entry
        directory.

        The entry is staged in full, the previous entry (if any) is
        atomically moved aside, and the staging directory is atomically
        renamed into place — a reader never observes a half-written
        entry, and a crash leaves the old entry, the new entry, or (only
        within the single-rename window between the two moves) a plain
        miss, never a corrupt mix.  Concurrent same-key writers race on
        the final rename: exactly one wins, losers discard their staging
        quietly (identical re-samplings are the expected case).

        When the existing entry is a validated byte-prefix of ``pool``
        (the common grown-pool write-through), only the delta is appended
        in place instead — see the module docstring and
        :attr:`StoreStats.appends`.
        """
        entry = self.entry_dir(key)
        if not isinstance(pool, RRSetPool):
            raise StoreError(f"pool must be an RRSetPool, got {type(pool).__name__}")
        nodes = np.ascontiguousarray(pool.nodes, dtype=np.int32)
        indptr = np.ascontiguousarray(pool.indptr, dtype=np.int64)
        stamped: dict[str, Any] = {"created_unix": time.time()}
        if provenance:
            stamped.update(provenance)
        touch_columns = self._touch_columns(pool)
        try:
            fast = self._try_append(
                key, entry, pool, nodes, indptr, str(graph_fingerprint), stamped
            )
        except BaseException:
            self.stats.save_failures += 1
            raise
        if fast is not None:
            return fast
        indptr_col = _diet_column(indptr)
        column_dtypes: dict[str, str] = {}
        if indptr_col.dtype != np.int64:
            column_dtypes["indptr"] = indptr_col.dtype.name
        if "touch_indptr" in touch_columns:
            touch_columns["touch_indptr"] = _diet_column(
                touch_columns["touch_indptr"]
            )
            if touch_columns["touch_indptr"].dtype != np.int64:
                column_dtypes["touch_indptr"] = touch_columns[
                    "touch_indptr"
                ].dtype.name
        touches: Optional[dict[str, Any]] = None
        if touch_columns:
            touches = {
                f"{name}_crc32": crc32_of(column)
                for name, column in touch_columns.items()
            }
            if "touch_edges" in touch_columns:
                touches["total_touches"] = int(
                    touch_columns["touch_edges"].size
                )
        manifest = PoolManifest(
            key=key,
            graph_fingerprint=str(graph_fingerprint),
            num_nodes=pool.num_nodes,
            num_sets=len(pool),
            total_nodes=pool.total_nodes,
            nodes_crc32=crc32_of(nodes),
            indptr_crc32=crc32_of(indptr_col),
            provenance=stamped,
            touches=touches,
            column_dtypes=column_dtypes or None,
        )
        token = (
            f"{os.getpid()}.{threading.get_ident()}.{next(_TEMP_COUNTER)}"
        )
        staging = self._root / f".staging.{key.digest()}.{token}"
        retired = self._root / f".trash.{key.digest()}.{token}"
        staging.mkdir(parents=True)
        try:
            self._arm_save_columns_fault(staging)
            np.save(staging / NODES_FILE, nodes)
            np.save(staging / INDPTR_FILE, indptr_col)
            for name, column in touch_columns.items():
                np.save(staging / f"{name}.npy", column)
            (staging / MANIFEST_FILE).write_text(
                manifest.to_json(), encoding="utf-8"
            )
            self._arm_save_manifest_fault(staging, manifest)
            self._arm_save_install_fault()
            moved_aside = False
            if entry.exists():
                try:
                    os.replace(entry, retired)  # atomic move-aside
                except FileNotFoundError:
                    # Same-key race: another writer retired the entry
                    # between our check and the rename — it no longer
                    # blocks our install.
                    pass
                except OSError as exc:
                    # Any other retire failure is a genuine error
                    # (EACCES, EIO, ...) — do not mask it as success
                    # with the stale entry in place.
                    shutil.rmtree(staging, ignore_errors=True)
                    raise StoreError(
                        f"failed to retire previous entry for {key}: {exc}"
                    ) from exc
                else:
                    moved_aside = True
            try:
                os.replace(staging, entry)
            except OSError as exc:
                shutil.rmtree(staging, ignore_errors=True)
                if entry.exists() or exc.errno in (
                    errno.ENOTEMPTY,
                    errno.EEXIST,
                ):
                    # Benign same-key race: another writer installed an
                    # (equivalent) entry between our renames (ENOTEMPTY /
                    # EEXIST means their entry blocked ours even if they
                    # are mid-replace right now); theirs stands, our old
                    # copy can retire.
                    shutil.rmtree(retired, ignore_errors=True)
                    return entry
                if moved_aside:
                    # Genuine failure (EIO, EACCES, ...): put the old —
                    # still valid — entry back rather than losing it.
                    try:
                        os.replace(retired, entry)
                    except OSError:  # pragma: no cover - double fault
                        pass
                raise StoreError(
                    f"failed to install entry for {key}: {exc}"
                ) from exc
        except BaseException as exc:
            if not (
                isinstance(exc, faults.InjectedFault) and exc.kind == "crash"
            ):
                # An injected writer "crash" must leave its staging behind
                # exactly as a killed process would — that orphan is what
                # the open-time GC exists to clean.
                shutil.rmtree(staging, ignore_errors=True)
            self.stats.save_failures += 1
            raise
        shutil.rmtree(retired, ignore_errors=True)
        self.stats.saves += 1
        return entry

    @staticmethod
    def _touch_columns(pool: RRSetPool) -> dict[str, np.ndarray]:
        """The touch columns a save must persist (empty dict: untracked).

        Only *complete* columns are written — a partially-tracked pool
        (some appends lacked roots or signatures) persists as a plain
        untracked entry, which warm starts load as non-repairable, exactly
        matching its in-memory eligibility.
        """
        out: dict[str, np.ndarray] = {}
        if not (pool.track_touches and pool.roots_ok):
            return out
        out["roots"] = np.ascontiguousarray(pool.roots, dtype=np.int32)
        if pool.touch_ok:
            out["touch_edges"] = np.ascontiguousarray(
                pool.touch_edges, dtype=np.int32
            )
            out["touch_indptr"] = np.ascontiguousarray(
                pool.touch_indptr, dtype=np.int64
            )
        return out

    def _try_append(
        self,
        key: PoolKey,
        entry: Path,
        pool: RRSetPool,
        nodes: np.ndarray,
        indptr: np.ndarray,
        graph_fingerprint: str,
        stamped: dict[str, Any],
    ) -> Optional[Path]:
        """Append-only fast path of :meth:`save`; ``None`` = full rewrite.

        Applicable when the installed entry describes the same key,
        fingerprint and format, holds strictly fewer sets, and its
        recorded CRCs match the corresponding prefix of the new columns
        (i.e. the entry *is* the old pool the caller grew).  Returns the
        entry directory on success or on append-lock contention (the
        concurrent appender's result stands — see module docstring);
        any real I/O error propagates to :meth:`save`'s failure
        accounting.
        """
        manifest_path = entry / MANIFEST_FILE
        if not manifest_path.exists():
            return None
        try:
            old = self._read_manifest(manifest_path)
        except StoreIntegrityError:
            return None  # unreadable/foreign manifest: rewrite replaces it
        if pool.track_touches or old.touches is not None:
            # Touch columns have no incremental-append story (delta repair
            # rewrites them wholesale anyway): the staged full rewrite is
            # the only way to keep every column consistent with one
            # manifest state.
            return None
        if (
            old.format_version != FORMAT_VERSION
            or old.key != key
            or old.graph_fingerprint != graph_fingerprint
            or old.num_nodes != pool.num_nodes
            or not 0 <= old.num_sets < len(pool)
            or old.total_nodes > pool.total_nodes
        ):
            return None
        try:
            file_dtype = old.column_dtype("indptr")
        except StoreIntegrityError:
            return None  # illegal dtype record: rewrite replaces the entry
        if file_dtype != indptr.dtype:
            if int(indptr[-1]) > _UINT32_MAX:
                # The pool outgrew the installed entry's uint32 diet —
                # only the staged full rewrite can widen the column.
                return None
            indptr = indptr.astype(file_dtype)
        # The stored entry must be a byte-prefix of the new columns:
        # checksum the in-memory prefix against the manifest's records.
        if crc32_of(nodes[: old.total_nodes]) != old.nodes_crc32:
            return None
        if crc32_of(indptr[: old.num_sets + 1]) != old.indptr_crc32:
            return None
        lock = entry / APPEND_LOCK_FILE
        if not self._acquire_append_lock(lock):
            self.stats.append_contentions += 1
            return entry
        try:
            # Re-check under the lock: the entry may have been appended
            # to (or replaced) between the prefix check and acquisition.
            try:
                current = self._read_manifest(manifest_path)
            except (StoreIntegrityError, OSError):
                return None
            if current.to_dict() != old.to_dict():
                return None
            self._arm_save_columns_fault(entry)
            delta_nodes = nodes[old.total_nodes :]
            delta_indptr = indptr[old.num_sets + 1 :]
            if not _npy_append(entry / NODES_FILE, delta_nodes, nodes.size):
                return None
            if not _npy_append(entry / INDPTR_FILE, delta_indptr, indptr.size):
                # nodes already grew, but the old manifest still describes
                # a valid prefix — the tolerant loader serves it and the
                # full rewrite below replaces the whole entry.
                return None
            manifest = PoolManifest(
                key=key,
                graph_fingerprint=graph_fingerprint,
                num_nodes=pool.num_nodes,
                num_sets=len(pool),
                total_nodes=pool.total_nodes,
                nodes_crc32=crc32_of(delta_nodes, old.nodes_crc32),
                indptr_crc32=crc32_of(delta_indptr, old.indptr_crc32),
                provenance=stamped,
                column_dtypes=old.column_dtypes,
            )
            tmp = entry / (MANIFEST_FILE + ".tmp")
            tmp.write_text(manifest.to_json(), encoding="utf-8")
            os.replace(tmp, manifest_path)  # atomic cut-over to the new state
        finally:
            try:
                lock.unlink()
            except OSError:  # pragma: no cover - lock dir replaced under us
                pass
        self.stats.saves += 1
        self.stats.appends += 1
        return entry

    def _acquire_append_lock(self, lock: Path) -> bool:
        """Take the per-entry append mutex (non-blocking); break stale locks.

        A lock older than ``stale_temp_age_s`` (the staging-GC cutoff; an
        hour when the sweep is disabled) belongs to a crashed appender —
        its entry is still valid via prefix tolerance — and is broken.
        """
        flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
        try:
            fd = os.open(lock, flags)
        except FileExistsError:
            try:
                age = time.time() - lock.stat().st_mtime
            except OSError:
                return False
            cutoff = (
                self._stale_temp_age_s
                if self._stale_temp_age_s is not None
                else 3600.0
            )
            if age < cutoff:
                return False
            try:
                lock.unlink()
                fd = os.open(lock, flags)
            except OSError:
                return False
        except OSError:
            return False
        try:
            os.write(fd, f"{os.getpid()}\n".encode())  # post-mortem aid
        finally:
            os.close(fd)
        return True

    # -- save-path fault-injection hooks (no-ops without an active plan) --
    @staticmethod
    def _arm_save_columns_fault(staging: Path) -> None:
        spec = faults.fire("store.save.columns")
        if spec is None:
            return
        code = {"enospc": errno.ENOSPC, "eacces": errno.EACCES}.get(spec.kind)
        if code is not None:
            raise OSError(
                code,
                f"{os.strerror(code)} (injected)",
                str(staging / NODES_FILE),
            )

    @staticmethod
    def _arm_save_manifest_fault(staging: Path, manifest: PoolManifest) -> None:
        spec = faults.fire("store.save.manifest")
        if spec is not None and spec.kind == "torn":
            payload = manifest.to_json()
            (staging / MANIFEST_FILE).write_text(
                payload[: len(payload) // 2], encoding="utf-8"
            )

    @staticmethod
    def _arm_save_install_fault() -> None:
        spec = faults.fire("store.save.install")
        if spec is not None and spec.kind == "crash":
            raise faults.InjectedFault(spec.site, spec.kind)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(
        self,
        key: PoolKey,
        *,
        graph_fingerprint: Optional[str] = None,
        mmap: Optional[bool] = None,
    ) -> Optional[RRSetPool]:
        """Load the pool for ``key``, or ``None`` on miss/invalid entry.

        The forgiving entry point a cache sits on: a missing entry counts
        a miss, an entry that fails validation (foreign key, different
        graph fingerprint, corrupted columns) counts an *invalidation*,
        and both return ``None`` so the caller just resamples.  ``mmap``
        overrides the store default for this load.

        A rejected entry is also **quarantined**: moved aside under
        ``.quarantine/`` with a ``reason.json`` record, so the same bad
        bytes are validated (and paid for) exactly once — every later
        load of the key is a plain miss until something valid is saved.

        Validation failures are re-read before quarantining: a concurrent
        writer's full rewrite (or a GC eviction) can tear a single read —
        manifest from the old entry, columns from the new — which is a
        race, not corruption.  Only a failure stable across re-reads
        condemns the bytes.
        """
        last_exc: StoreIntegrityError
        for attempt in range(3):
            if attempt:
                time.sleep(0.005 * attempt)
            try:
                pool = self.load_strict(
                    key, graph_fingerprint=graph_fingerprint, mmap=mmap
                )
            except StoreIntegrityError as exc:
                last_exc = exc
                continue
            if pool is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return pool
        self.stats.invalidations += 1
        reason = last_exc.reason
        self.stats.invalidations_by_reason[reason.value] = (
            self.stats.invalidations_by_reason.get(reason.value, 0) + 1
        )
        self._quarantine(key, str(last_exc), reason_code=reason)
        return None

    def load_strict(
        self,
        key: PoolKey,
        *,
        graph_fingerprint: Optional[str] = None,
        mmap: Optional[bool] = None,
    ) -> Optional[RRSetPool]:
        """Like :meth:`load` but raising
        :class:`~repro.errors.StoreIntegrityError` on an invalid entry
        (``None`` still means plain miss).  Does not touch :attr:`stats`.
        """
        entry = self.entry_dir(key)
        manifest_path = entry / MANIFEST_FILE
        if not manifest_path.exists():
            return None
        self._arm_load_fault(entry)
        manifest = self._read_manifest(manifest_path)
        manifest.validate_request(key, graph_fingerprint)
        use_mmap = self._mmap if mmap is None else bool(mmap)
        mmap_mode = "r" if use_mmap else None
        try:
            nodes = np.load(entry / NODES_FILE, mmap_mode=mmap_mode)
            indptr = np.load(entry / INDPTR_FILE, mmap_mode=mmap_mode)
        except (OSError, ValueError) as exc:
            raise StoreIntegrityError(
                f"unreadable column file: {exc}",
                reason=InvalidationReason.CORRUPT_COLUMNS,
            ) from exc
        indptr_dtype = manifest.column_dtype("indptr")
        if nodes.dtype != np.int32 or indptr.dtype != indptr_dtype:
            raise StoreIntegrityError(
                f"column dtypes {nodes.dtype}/{indptr.dtype} do not match "
                f"the manifest's int32/{indptr_dtype}",
                reason=InvalidationReason.CORRUPT_COLUMNS,
            )
        # Columns longer than the manifest describes are a concurrent (or
        # crash-interrupted) incremental append's tail: the described
        # prefix is exactly the installed entry, so serve that and ignore
        # the surplus.  Shorter-than-described stays an integrity error.
        if indptr.shape[0] > manifest.num_sets + 1:
            indptr = indptr[: manifest.num_sets + 1]
        if nodes.shape[0] > manifest.total_nodes:
            nodes = nodes[: manifest.total_nodes]
        manifest.validate_columns(nodes, indptr)
        roots = touch_edges = touch_indptr = None
        if manifest.touches is not None:
            record = manifest.touches
            try:
                if "roots_crc32" in record:
                    roots = np.load(entry / ROOTS_FILE, mmap_mode=mmap_mode)
                if "touch_edges_crc32" in record:
                    touch_edges = np.load(
                        entry / TOUCH_EDGES_FILE, mmap_mode=mmap_mode
                    )
                    touch_indptr = np.load(
                        entry / TOUCH_INDPTR_FILE, mmap_mode=mmap_mode
                    )
            except (OSError, ValueError) as exc:
                raise StoreIntegrityError(
                    f"unreadable touch column file: {exc}",
                    reason=InvalidationReason.CORRUPT_COLUMNS,
                ) from exc
            if touch_indptr is not None and (
                touch_indptr.dtype != manifest.column_dtype("touch_indptr")
            ):
                raise StoreIntegrityError(
                    f"touch_indptr column dtype {touch_indptr.dtype} does not "
                    f"match the manifest's "
                    f"{manifest.column_dtype('touch_indptr')}",
                    reason=InvalidationReason.CORRUPT_COLUMNS,
                )
            manifest.validate_touch_columns(roots, touch_edges, touch_indptr)
        # The CRC pass just proved the columns byte-identical to what
        # save() wrote from a validated pool, so from_flat's CSR re-scan
        # (two more full passes over possibly mmap'd data) is redundant.
        return RRSetPool.from_flat(
            manifest.num_nodes,
            nodes,
            indptr,
            validate=False,
            roots=roots,
            touch_edges=touch_edges,
            touch_indptr=touch_indptr,
        )

    def manifest(self, key: PoolKey) -> Optional[PoolManifest]:
        """The manifest of a key's entry (validated parse), or ``None``."""
        path = self.entry_dir(key) / MANIFEST_FILE
        if not path.exists():
            return None
        return self._read_manifest(path)

    @staticmethod
    def _read_manifest(path: Path) -> PoolManifest:
        try:
            payload = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise StoreIntegrityError(
                f"unreadable manifest: {exc}",
                reason=InvalidationReason.MALFORMED_MANIFEST,
            ) from exc
        return PoolManifest.from_json(payload)

    @staticmethod
    def _arm_load_fault(entry: Path) -> None:
        """Fault hook fired once per load of an existing entry (test-only).

        ``corrupt`` deterministically flips bytes of the entry's nodes
        column (payload positions drawn from the plan's per-site stream),
        so the subsequent CRC validation — and the quarantine it triggers
        — exercises exactly the real bit-rot path.
        """
        spec = faults.fire("store.load")
        if spec is None or spec.kind != "corrupt":
            return
        plan = faults.active_plan()
        rng = plan.rng_for("store.load")
        path = entry / NODES_FILE
        try:
            data = bytearray(path.read_bytes())
        except OSError:
            return
        start = min(128, max(len(data) - 1, 0))  # spare the .npy header
        if len(data) <= start:
            return
        positions = np.unique(
            rng.integers(start, len(data), size=min(8, len(data) - start))
        )
        for pos in positions:
            data[int(pos)] ^= 0xA5
        path.write_bytes(bytes(data))

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def _quarantine(
        self,
        key: PoolKey,
        reason: str,
        *,
        reason_code: InvalidationReason,
    ) -> Optional[Path]:
        """Move ``key``'s rejected entry under ``.quarantine/``; its new home.

        Preserves the bad bytes for post-mortem instead of deleting them,
        and clears the key's slot so later loads miss cleanly.  Best
        effort: a concurrent writer replacing the entry mid-move simply
        wins (``None`` is returned).  ``reason`` stays the human-readable
        message; the typed code rides alongside as ``reason_code`` in
        ``reason.json``.
        """
        entry = self.entry_dir(key)
        if not entry.exists():
            return None
        qroot = self._root / QUARANTINE_DIR
        qroot.mkdir(exist_ok=True)
        n = 0
        while (dest := qroot / f"{entry.name}-{n}").exists():
            n += 1
        try:
            os.replace(entry, dest)
        except OSError:
            return None
        record = {
            "key": key.to_dict(),
            "reason": reason,
            "reason_code": reason_code.value,
            "quarantined_unix": time.time(),
        }
        try:
            (dest / REASON_FILE).write_text(
                json.dumps(record, sort_keys=True, indent=1), encoding="utf-8"
            )
        except OSError:  # pragma: no cover - reason is advisory
            pass
        self.stats.quarantined += 1
        return dest

    def quarantined_entries(self) -> list[dict[str, Any]]:
        """The quarantine inventory, oldest suffix first.

        Each record holds ``path`` (the quarantined directory) plus the
        parsed ``reason.json`` fields (``key`` dict, ``reason`` string,
        ``quarantined_unix``) when the sidecar is readable.
        """
        qroot = self._root / QUARANTINE_DIR
        if not qroot.is_dir():
            return []
        records: list[dict[str, Any]] = []
        for child in sorted(qroot.iterdir()):
            if not child.is_dir():
                continue
            record: dict[str, Any] = {"path": child}
            try:
                record.update(
                    json.loads((child / REASON_FILE).read_text(encoding="utf-8"))
                )
            except (OSError, ValueError):
                record["reason"] = None
            records.append(record)
        return records

    # ------------------------------------------------------------------
    # Inventory
    # ------------------------------------------------------------------
    def contains(
        self, key: PoolKey, *, graph_fingerprint: Optional[str] = None
    ) -> bool:
        """Whether a *valid* entry for ``key`` (and fingerprint) exists."""
        try:
            pool = self.load_strict(key, graph_fingerprint=graph_fingerprint)
        except StoreIntegrityError:
            return False
        return pool is not None

    def entries(self) -> Iterator[PoolManifest]:
        """Iterate the manifests of every readable entry (sorted by dir).

        In-flight staging and crash-orphaned ``.staging.*`` / ``.trash.*``
        directories are skipped — only installed entries are inventory.
        """
        for child in sorted(self._root.iterdir()):
            if child.name.startswith("."):
                continue
            manifest_path = child / MANIFEST_FILE
            if not manifest_path.exists():
                continue
            try:
                yield self._read_manifest(manifest_path)
            except StoreIntegrityError:
                continue

    def delete(self, key: PoolKey) -> bool:
        """Remove a key's entry; returns whether one existed."""
        entry = self.entry_dir(key)
        if not entry.exists():
            return False
        shutil.rmtree(entry)
        return True

    def clear(self) -> None:
        """Remove every entry (the root directory itself survives)."""
        for child in self._root.iterdir():
            if child.is_dir():
                shutil.rmtree(child)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        count = sum(1 for _ in self.entries())
        return f"PoolStore(root={str(self._root)!r}, entries={count})"
