"""Flat RR-set storage: the batched engine's CSR-of-sets container.

Storing each RR-set as its own tiny ``np.ndarray`` (the seed
implementation) makes every downstream pass — coverage counting, greedy
invalidation, intersection tests — a Python loop over thousands of small
objects.  :class:`RRSetPool` instead keeps *all* RR-sets of one sampling
run in two flat arrays::

    nodes  : int32, the concatenated member nodes of every set
    indptr : int64, set ``i`` occupies ``nodes[indptr[i]:indptr[i+1]]``

exactly a CSR matrix with implicit unit data — so whole-pool operations
become single numpy calls: :meth:`coverage_counts` is one ``np.bincount``,
:meth:`intersects` one gather + ``bincount``, and the pooled
:func:`~repro.rrset.tim.greedy_max_coverage` runs its invalidation with
``np.subtract.at`` over pool slices.

The pool is *appendable*: generators add sets one at a time
(:meth:`append`, the per-root oracle path) or as pre-packed chunks
(:meth:`append_flat`, the vectorized :meth:`~repro.rrset.base.
RRSetGenerator.generate_batch` fast paths), with amortised-doubling
growth, which is what lets IMM's "top up to theta" phase extend one pool
across sampling rounds instead of rebuilding lists.  Memory accounting is
exposed via :attr:`nbytes` (used) and :attr:`capacity_bytes` (allocated).

Because the layout is two flat columns, pools also *persist* and *merge*
trivially: :meth:`from_flat` adopts existing (possibly memory-mapped,
read-only) arrays without a copy — the zero-copy load path of
:class:`~repro.store.PoolStore` — and :meth:`merge` /
:meth:`extend_pool` concatenate whole pools in O(total size) by copying
node columns once and offset-shifting CSR pointers, which is how
:mod:`repro.parallel` folds per-worker shards back into one pool.

Member nodes are stored as ``int32`` (graphs here are far below the 2**31
node ceiling, and halving the bytes doubles effective memory bandwidth of
every sweep); :meth:`__getitem__` returns the raw ``int32`` view.  The
chunk state, key primitives and coin memo the generators fill a pool with
live in :mod:`repro.rrset.sweep`.

Touch signatures (dynamic graphs)
---------------------------------

A pool built with ``track_touches=True`` carries two optional side
structures that make it *repairable* under a
:class:`~repro.graph.GraphDelta`:

* a per-set **root** column (``int32``; the node whose RR-set each entry
  is), needed to resample exactly the dropped members, and
* per-set **edge-touch signatures** (a second CSR pair ``touch_edges`` /
  ``touch_indptr`` of sorted edge ids): the set of edges whose liveness
  coin the generating sweep actually flipped.  An RR-set's sampled world
  depends only on those edges, so a member whose signature misses every
  changed edge is — by the coupling argument — an exact sample of the
  *new* graph's RR distribution and can be kept as-is.

Both columns are complete only while every append supplies them
(:attr:`roots_ok` / :attr:`touch_ok`); an append without (e.g. a parallel
shard merge, whose workers do not ship touch columns) permanently drops
the corresponding flag, and :func:`~repro.rrset.repair.repair_pool` then
falls back to full regeneration.  Implicit-touch regimes (RR-IC, RR-LT)
only need the root column: every edge they test is an in-edge of a member
node, so affectedness reduces to a membership test against the delta's
changed-target nodes and no signature bytes are stored.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

# Re-exported because perfbench/tracing.py imports the memo from here and
# patches ``ChunkCoinMemo.lookup_or_draw`` on the class; it lives in sweep.
from repro.rrset.sweep import ChunkCoinMemo  # noqa: F401

_INT32_MAX = np.iinfo(np.int32).max


class RRSetPool:
    """A growable flat pool of RR-sets over nodes ``0 .. num_nodes-1``."""

    __slots__ = (
        "_num_nodes",
        "_nodes",
        "_indptr",
        "_num_sets",
        "_used",
        "_set_ids_cache",
        "_frozen",
        "_track_touches",
        "_roots",
        "_roots_ok",
        "_touch_edges",
        "_touch_indptr",
        "_touch_used",
        "_touch_ok",
    )

    def __init__(
        self,
        num_nodes: int,
        *,
        node_capacity: int = 1024,
        set_capacity: int = 256,
        track_touches: bool = False,
    ) -> None:
        num_nodes = int(num_nodes)
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
        if num_nodes > _INT32_MAX:
            raise ValueError(
                f"num_nodes {num_nodes} exceeds the int32 node-id range"
            )
        self._num_nodes = num_nodes
        self._nodes = np.empty(max(int(node_capacity), 1), dtype=np.int32)
        self._indptr = np.zeros(max(int(set_capacity), 1) + 1, dtype=np.int64)
        self._num_sets = 0
        self._used = 0
        self._set_ids_cache: Optional[np.ndarray] = None
        self._frozen = False
        self._init_tracking(bool(track_touches))

    def _init_tracking(self, track: bool) -> None:
        self._track_touches = track
        self._touch_used = 0
        if track:
            self._roots: Optional[np.ndarray] = np.full(
                max(self._indptr.size - 1, 1), -1, dtype=np.int32
            )
            self._touch_edges: Optional[np.ndarray] = np.empty(
                self._nodes.size, dtype=np.int32
            )
            self._touch_indptr: Optional[np.ndarray] = np.zeros(
                self._indptr.size, dtype=np.int64
            )
            self._roots_ok = True
            self._touch_ok = True
        else:
            self._roots = None
            self._touch_edges = None
            self._touch_indptr = None
            self._roots_ok = False
            self._touch_ok = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_sets(cls, num_nodes: int, sets: Iterable[np.ndarray]) -> "RRSetPool":
        """Pack an iterable of per-set node arrays into one pool."""
        materialized = [np.asarray(s) for s in sets]
        total = sum(int(s.size) for s in materialized)
        pool = cls(
            num_nodes,
            node_capacity=max(total, 1),
            set_capacity=max(len(materialized), 1),
        )
        for rr_set in materialized:
            pool.append(rr_set)
        return pool

    @classmethod
    def from_flat(
        cls,
        num_nodes: int,
        nodes: np.ndarray,
        indptr: np.ndarray,
        *,
        validate: bool = True,
        roots: Optional[np.ndarray] = None,
        touch_edges: Optional[np.ndarray] = None,
        touch_indptr: Optional[np.ndarray] = None,
    ) -> "RRSetPool":
        """Adopt existing flat CSR arrays *without copying them*.

        This is the zero-copy load path of :class:`~repro.store.PoolStore`:
        ``nodes`` / ``indptr`` may be memory-mapped (even read-only) views
        of on-disk ``.npy`` columns.  The pool stays *appendable*: both
        arrays are adopted exactly full, so the first append reallocates
        into fresh writable memory (the normal amortised-doubling growth)
        and the mapped files are never written to.

        ``validate`` checks the CSR invariants (``indptr`` ascending from
        0, last offset == ``nodes.size``, members in range) — skip it
        only for arrays produced by this class.  ``indptr`` (and
        ``touch_indptr``) may be int64 or the uint32 diet column
        :class:`~repro.store.PoolStore` writes when every offset fits;
        reads work on the narrow column directly (numpy promotes), and
        the first append's amortised-doubling copy widens it to int64.

        ``roots`` (and the ``touch_edges`` / ``touch_indptr`` pair, which
        must come together) re-adopt previously persisted touch columns;
        supplying any of them marks the pool as touch-tracking with the
        corresponding completeness flag set.
        """
        nodes = np.asarray(nodes)
        indptr = np.asarray(indptr)
        if validate:
            if indptr.ndim != 1 or indptr.size < 1:
                raise ValueError("indptr must be a non-empty 1-D offset array")
            if nodes.ndim != 1:
                raise ValueError("nodes must be a 1-D member array")
            if indptr.dtype not in (np.int64, np.uint32) or (
                nodes.dtype != np.int32
            ):
                raise ValueError(
                    "expected int32 nodes and int64 (or uint32 diet) "
                    f"indptr, got {nodes.dtype} / {indptr.dtype}"
                )
            if int(indptr[0]) != 0 or int(indptr[-1]) != nodes.size:
                raise ValueError(
                    f"indptr must run from 0 to nodes.size ({nodes.size}); "
                    f"got [{int(indptr[0])}, {int(indptr[-1])}]"
                )
            if indptr.size > 1 and np.any(np.diff(indptr) < 0):
                raise ValueError("indptr offsets must be non-decreasing")
            if nodes.size and (
                int(nodes.min()) < 0 or int(nodes.max()) >= int(num_nodes)
            ):
                raise ValueError(
                    f"member nodes must lie in [0, {int(num_nodes) - 1}]"
                )
        pool = cls.__new__(cls)
        pool._num_nodes = int(num_nodes)
        pool._nodes = nodes
        pool._indptr = indptr
        pool._num_sets = int(indptr.size - 1)
        pool._used = int(indptr[-1])
        pool._set_ids_cache = None
        pool._frozen = False
        if roots is None and touch_edges is None:
            pool._init_tracking(False)
            return pool
        if (touch_edges is None) != (touch_indptr is None):
            raise ValueError(
                "touch_edges and touch_indptr must be supplied together"
            )
        count = pool._num_sets
        pool._track_touches = True
        if roots is not None:
            roots = np.asarray(roots, dtype=np.int32)
            if roots.shape != (count,):
                raise ValueError(
                    f"roots must have one entry per set ({count}), "
                    f"got shape {roots.shape}"
                )
            pool._roots = roots
            pool._roots_ok = True
        else:
            pool._roots = np.full(max(count, 1), -1, dtype=np.int32)
            pool._roots_ok = False
        if touch_edges is not None:
            touch_edges = np.asarray(touch_edges, dtype=np.int32)
            touch_indptr = np.asarray(touch_indptr)
            if touch_indptr.dtype not in (np.int64, np.uint32):
                # Adopt the uint32 diet column zero-copy; anything else
                # (lists, narrower ints) still coerces to int64.
                touch_indptr = touch_indptr.astype(np.int64)
            if touch_indptr.shape != (count + 1,) or (
                touch_indptr.size
                and (
                    int(touch_indptr[0]) != 0
                    or int(touch_indptr[-1]) != touch_edges.size
                )
            ):
                raise ValueError(
                    "touch_indptr must run from 0 to touch_edges.size with "
                    "one row per set"
                )
            pool._touch_edges = touch_edges
            pool._touch_indptr = touch_indptr
            pool._touch_used = int(touch_edges.size)
            pool._touch_ok = True
        else:
            pool._touch_edges = np.empty(0, dtype=np.int32)
            pool._touch_indptr = np.zeros(count + 1, dtype=np.int64)
            pool._touch_used = 0
            pool._touch_ok = False
        return pool

    @classmethod
    def merge(cls, pools: Sequence["RRSetPool"]) -> "RRSetPool":
        """Concatenate several pools into one new pool, O(total size).

        The multi-pool merge kernel of :mod:`repro.parallel`: per-worker
        shard pools are combined by copying each shard's flat node array
        once and offset-shifting its CSR pointers — no per-set Python
        work.  Set order is shard order, then within-shard order.  All
        pools must share one node universe.
        """
        pools = list(pools)
        if not pools:
            raise ValueError("merge needs at least one pool")
        num_nodes = pools[0].num_nodes
        for pool in pools[1:]:
            if pool.num_nodes != num_nodes:
                raise ValueError(
                    f"cannot merge pools over different node universes "
                    f"({pool.num_nodes} != {num_nodes})"
                )
        merged = cls(
            num_nodes,
            node_capacity=max(sum(p.total_nodes for p in pools), 1),
            set_capacity=max(sum(len(p) for p in pools), 1),
        )
        for pool in pools:
            merged.extend_pool(pool)
        return merged

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def _reserve_nodes(self, extra: int) -> None:
        need = self._used + extra
        if need <= self._nodes.size:
            return
        new_size = max(need, 2 * self._nodes.size)
        grown = np.empty(new_size, dtype=np.int32)
        grown[: self._used] = self._nodes[: self._used]
        self._nodes = grown

    def _reserve_sets(self, extra: int) -> None:
        need = self._num_sets + 1 + extra
        if need <= self._indptr.size:
            if self._track_touches and need > self._touch_indptr.size:
                self._grow_touch_rows(need)
            return
        new_size = max(need, 2 * self._indptr.size)
        grown = np.zeros(new_size, dtype=np.int64)
        grown[: self._num_sets + 1] = self._indptr[: self._num_sets + 1]
        self._indptr = grown
        if self._track_touches:
            self._grow_touch_rows(new_size)

    def _grow_touch_rows(self, size: int) -> None:
        if size > self._touch_indptr.size:
            grown = np.zeros(size, dtype=np.int64)
            grown[: self._num_sets + 1] = self._touch_indptr[
                : self._num_sets + 1
            ]
            self._touch_indptr = grown
        if size - 1 > self._roots.size:
            grown_r = np.full(size - 1, -1, dtype=np.int32)
            grown_r[: self._num_sets] = self._roots[: self._num_sets]
            self._roots = grown_r

    def _reserve_touch(self, extra: int) -> None:
        need = self._touch_used + extra
        if need <= self._touch_edges.size:
            return
        new_size = max(need, 2 * self._touch_edges.size, 1)
        grown = np.empty(new_size, dtype=np.int32)
        grown[: self._touch_used] = self._touch_edges[: self._touch_used]
        self._touch_edges = grown

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _check_writable(self) -> None:
        if self._frozen:
            raise ValueError(
                "pool is a read-only prefix view; append to the parent pool"
            )

    def _record_touches(
        self,
        count: int,
        roots: Optional[np.ndarray],
        touch_edges: Optional[np.ndarray],
        touch_lengths: Optional[np.ndarray],
    ) -> None:
        """Record per-set roots / touch rows for ``count`` just-appended sets.

        Called *after* the node columns advanced ``_num_sets``; missing
        information permanently drops the matching completeness flag.
        """
        first = self._num_sets - count
        if roots is not None:
            self._roots[first : self._num_sets] = roots
        else:
            self._roots[first : self._num_sets] = -1
            self._roots_ok = False
        if touch_edges is not None:
            touch_edges = np.asarray(touch_edges, dtype=np.int32)
            if touch_lengths is None:  # single-set append
                touch_lengths = np.asarray([touch_edges.size], dtype=np.int64)
            else:
                touch_lengths = np.asarray(touch_lengths, dtype=np.int64)
            total = int(touch_lengths.sum())
            if total != touch_edges.size or touch_lengths.size != count:
                raise ValueError(
                    f"touch rows do not match the appended sets: "
                    f"{touch_lengths.size} lengths summing to {total} for "
                    f"{count} sets / {touch_edges.size} edge ids"
                )
            self._reserve_touch(total)
            if total:
                self._touch_edges[
                    self._touch_used : self._touch_used + total
                ] = touch_edges
            self._touch_indptr[first + 1 : self._num_sets + 1] = (
                self._touch_used + np.cumsum(touch_lengths)
            )
            self._touch_used += total
        else:
            self._touch_indptr[first + 1 : self._num_sets + 1] = (
                self._touch_used
            )
            self._touch_ok = False

    def append(
        self,
        rr_set: np.ndarray,
        *,
        root: Optional[int] = None,
        touch_edges: Optional[np.ndarray] = None,
    ) -> None:
        """Append one RR-set (an array of member node ids).

        ``root`` / ``touch_edges`` (sorted unique edge ids the sampling
        run tested) feed the touch-tracking columns; both are ignored when
        the pool does not track touches, and omitting either on a
        tracking pool drops the matching completeness flag.
        """
        self._check_writable()
        rr_set = np.asarray(rr_set)
        size = int(rr_set.size)
        self._reserve_nodes(size)
        self._reserve_sets(1)
        if size:  # zero-length writes would still trip read-only (mmap) buffers
            self._nodes[self._used : self._used + size] = rr_set
        self._used += size
        self._num_sets += 1
        self._indptr[self._num_sets] = self._used
        if self._track_touches:
            self._record_touches(
                1,
                None if root is None else np.asarray([root], dtype=np.int32),
                touch_edges,
                None,
            )

    def extend(self, sets: Iterable[np.ndarray]) -> None:
        """Append several RR-sets."""
        for rr_set in sets:
            self.append(rr_set)

    def append_flat(
        self,
        nodes: np.ndarray,
        lengths: np.ndarray,
        *,
        roots: Optional[np.ndarray] = None,
        touch_edges: Optional[np.ndarray] = None,
        touch_lengths: Optional[np.ndarray] = None,
    ) -> None:
        """Bulk-append a pre-packed chunk of RR-sets.

        ``nodes`` is the concatenation of the chunk's sets in order and
        ``lengths[i]`` the size of the ``i``-th set (``lengths.sum() ==
        nodes.size``).  This is the fast-path entry point: one copy, no
        per-set Python work.  ``roots`` / ``touch_edges`` + ``touch_lengths``
        carry the chunk's touch-tracking columns in the same packed layout
        (ignored on non-tracking pools; omissions drop completeness flags).
        """
        self._check_writable()
        nodes = np.asarray(nodes)
        lengths = np.asarray(lengths, dtype=np.int64)
        total = int(lengths.sum())
        if total != nodes.size:
            raise ValueError(
                f"lengths sum to {total} but {nodes.size} nodes were given"
            )
        count = int(lengths.size)
        self._reserve_nodes(total)
        self._reserve_sets(count)
        if total:
            self._nodes[self._used : self._used + total] = nodes
        if count:  # a zero-length write would trip read-only (mmap) buffers
            offsets = self._used + np.cumsum(lengths)
            self._indptr[
                self._num_sets + 1 : self._num_sets + 1 + count
            ] = offsets
        self._used += total
        self._num_sets += count
        if self._track_touches and count:
            self._record_touches(
                count,
                None if roots is None else np.asarray(roots, dtype=np.int32),
                touch_edges,
                touch_lengths if touch_edges is not None else None,
            )

    def extend_pool(self, other: "RRSetPool") -> None:
        """Append every set of ``other``, O(``other.total_nodes``).

        The in-place half of the merge kernel (:meth:`merge` builds a new
        pool from many): ``other``'s flat node array is copied once and
        its CSR offsets are shifted by this pool's current fill — the
        vectorized equivalent of ``extend(other)`` with no per-set work.
        Used by the parallel engine to fold worker shards into the
        caller's (possibly warm) pool.
        """
        self._check_writable()
        if other.num_nodes != self._num_nodes:
            raise ValueError(
                f"cannot extend with a pool over a different node universe "
                f"({other.num_nodes} != {self._num_nodes})"
            )
        total = other.total_nodes
        count = len(other)
        self._reserve_nodes(total)
        self._reserve_sets(count)
        if total:
            self._nodes[self._used : self._used + total] = other.nodes
        if count:  # a zero-length write would trip read-only (mmap) buffers
            # int64 before the shift: a dieted donor's uint32 offsets
            # would wrap once this pool's fill pushes them past 2**32.
            self._indptr[self._num_sets + 1 : self._num_sets + 1 + count] = (
                other.indptr[1:].astype(np.int64, copy=False) + self._used
            )
        self._used += total
        self._num_sets += count
        if self._track_touches and count:
            donor = other._track_touches
            self._record_touches(
                count,
                other._roots[:count] if donor and other._roots_ok else None,
                other._touch_edges[: other._touch_used]
                if donor and other._touch_ok
                else None,
                np.diff(other._touch_indptr[: count + 1])
                if donor and other._touch_ok
                else None,
            )

    # ------------------------------------------------------------------
    # Views and accounting
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Size of the node universe the sets draw from."""
        return self._num_nodes

    @property
    def nodes(self) -> np.ndarray:
        """Flat member-node array (``int32`` view over used entries)."""
        return self._nodes[: self._used]

    @property
    def indptr(self) -> np.ndarray:
        """CSR offsets; set ``i`` is ``nodes[indptr[i]:indptr[i+1]]``."""
        return self._indptr[: self._num_sets + 1]

    @property
    def lengths(self) -> np.ndarray:
        """Per-set sizes (length ``len(self)``)."""
        return np.diff(self.indptr)

    @property
    def total_nodes(self) -> int:
        """Total number of stored member entries across all sets."""
        return self._used

    @property
    def track_touches(self) -> bool:
        """Whether this pool maintains root / edge-touch columns."""
        return self._track_touches

    @property
    def roots_ok(self) -> bool:
        """True while *every* set was appended with its root recorded."""
        return self._roots_ok

    @property
    def touch_ok(self) -> bool:
        """True while *every* set was appended with its touch signature."""
        return self._touch_ok

    @property
    def roots(self) -> np.ndarray:
        """Per-set root nodes (``int32``; ``-1`` where unrecorded)."""
        if not self._track_touches:
            raise ValueError("pool does not track touch signatures")
        return self._roots[: self._num_sets]

    @property
    def touch_indptr(self) -> np.ndarray:
        """CSR offsets of the per-set edge-touch signatures."""
        if not self._track_touches:
            raise ValueError("pool does not track touch signatures")
        return self._touch_indptr[: self._num_sets + 1]

    @property
    def touch_edges(self) -> np.ndarray:
        """Flat sorted edge-id column of the touch signatures."""
        if not self._track_touches:
            raise ValueError("pool does not track touch signatures")
        return self._touch_edges[: self._touch_used]

    @property
    def nbytes(self) -> int:
        """Bytes of pool data in use (nodes + offsets + touch columns)."""
        used = self._used * self._nodes.itemsize + (
            self._num_sets + 1
        ) * self._indptr.itemsize
        if self._track_touches:
            used += (
                self._num_sets * self._roots.itemsize
                + self._touch_used * self._touch_edges.itemsize
                + (self._num_sets + 1) * self._touch_indptr.itemsize
            )
        return used

    @property
    def capacity_bytes(self) -> int:
        """Bytes currently allocated, including growth slack."""
        return self._nodes.nbytes + self._indptr.nbytes

    def __len__(self) -> int:
        return self._num_sets

    def __getitem__(self, index: int) -> np.ndarray:
        i = int(index)
        if i < 0:
            i += self._num_sets
        if not 0 <= i < self._num_sets:
            raise IndexError(f"set index {index} out of range [0, {self._num_sets})")
        return self._nodes[self._indptr[i] : self._indptr[i + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        for i in range(self._num_sets):
            yield self[i]

    def prefix(self, count: int) -> "RRSetPool":
        """A zero-copy *read-only* view of the first ``count`` sets.

        Shares the underlying buffers, so it must not be appended to and
        is only valid until the parent pool grows past its current
        capacity.  Used by :func:`~repro.rrset.tim.general_tim` to honour
        a pinned ``theta_override`` against a warm pool that holds more
        sets than the pin.
        """
        count = int(count)
        if not 0 <= count <= self._num_sets:
            raise ValueError(
                f"prefix count {count} out of range [0, {self._num_sets}]"
            )
        view = RRSetPool.__new__(RRSetPool)
        view._num_nodes = self._num_nodes
        view._nodes = self._nodes
        view._indptr = self._indptr
        view._num_sets = count
        view._used = int(self._indptr[count])
        view._set_ids_cache = None
        view._frozen = True  # appends would corrupt the shared buffers
        view._init_tracking(False)  # selection views never repair
        return view

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RRSetPool(sets={self._num_sets}, entries={self._used}, "
            f"n={self._num_nodes})"
        )

    # ------------------------------------------------------------------
    # Whole-pool kernels
    # ------------------------------------------------------------------
    def set_ids(self) -> np.ndarray:
        """Set id of every flat entry (``np.repeat`` over lengths).

        Cached: existing entries keep their set id under appends, so the
        cache stays valid exactly while the entry count is unchanged
        (appending only empty sets included) and is rebuilt lazily
        otherwise.  Callers must not mutate the returned array.
        """
        cache = self._set_ids_cache
        if cache is None or cache.size != self._used:
            cache = np.repeat(
                np.arange(self._num_sets, dtype=np.int64), self.lengths
            )
            self._set_ids_cache = cache
        return cache

    def coverage_counts(self) -> np.ndarray:
        """Per-node incidence counts: ``counts[v] = #{i : v in set i}``.

        One ``np.bincount`` over the flat node array — the pooled
        replacement for the seed's per-set per-node counting loop.
        """
        return np.bincount(self.nodes, minlength=self._num_nodes)

    def intersects(self, node_mask: np.ndarray) -> np.ndarray:
        """Boolean per-set array: does the set hit a marked node?

        ``node_mask`` is a length-``num_nodes`` boolean array; the result
        drives RR-set objective estimation (activation equivalence counts
        intersecting sets).  Empty sets never intersect.
        """
        node_mask = np.asarray(node_mask, dtype=bool)
        if node_mask.shape != (self._num_nodes,):
            raise ValueError(
                f"node_mask must have shape ({self._num_nodes},), "
                f"got {node_mask.shape}"
            )
        hit_entries = node_mask[self.nodes]
        hits = np.bincount(
            self.set_ids()[hit_entries], minlength=self._num_sets
        )
        return hits > 0

    def widths(
        self,
        in_degrees: np.ndarray,
        *,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> np.ndarray:
        """Per-set ``w(R)``: total in-degree of each set's members.

        Vectorises TIM's ``KptEstimation`` width statistic (one gather +
        ``bincount`` instead of a per-set reduction).  ``start``/``stop``
        restrict the computation to sets ``[start, stop)`` so callers
        consuming successive slices of a shared pool (the pooled KPT
        rounds) touch only the slice, not the whole pool.
        """
        in_degrees = np.asarray(in_degrees)
        stop = self._num_sets if stop is None else int(stop)
        start = int(start)
        if not 0 <= start <= stop <= self._num_sets:
            raise ValueError(
                f"invalid set range [{start}, {stop}) for {self._num_sets} sets"
            )
        if start == 0 and stop == self._num_sets:
            ids = self.set_ids()
            nodes = self.nodes
        else:
            indptr = self._indptr
            lo, hi = int(indptr[start]), int(indptr[stop])
            nodes = self._nodes[lo:hi]
            ids = np.repeat(
                np.arange(stop - start, dtype=np.int64),
                np.diff(indptr[start : stop + 1]),
            )
        return np.bincount(
            ids,
            weights=in_degrees[nodes].astype(np.float64),
            minlength=stop - start,
        ).astype(np.int64)

    # ------------------------------------------------------------------
    # Delta repair (dynamic graphs)
    # ------------------------------------------------------------------
    def repair(self, effect, generator, *, rng=None):
        """Repair this pool in place for a graph delta.

        ``effect`` is the :class:`~repro.graph.DeltaEffect` of applying
        the delta and ``generator`` an RR generator over the *new* graph.
        Convenience wrapper over :func:`repro.rrset.repair.repair_pool`
        (see there for eligibility and the affectedness rules); returns
        its :class:`~repro.rrset.repair.RepairReport`.
        """
        from repro.rrset.repair import repair_pool

        return repair_pool(self, effect, generator, rng=rng)

    def affected_by_edges(self, edge_mark: np.ndarray) -> np.ndarray:
        """Boolean per-set array: did the set's sampling touch a marked edge?

        ``edge_mark`` is a boolean array over the *old* graph's edge ids;
        the result is exact for recorded-touch pools (one gather +
        ``bincount`` over the touch CSR, the structural twin of
        :meth:`intersects`).  Requires a complete touch record.
        """
        if not (self._track_touches and self._touch_ok):
            raise ValueError(
                "affected_by_edges needs a complete touch record "
                "(track_touches pool with touch_ok)"
            )
        edge_mark = np.asarray(edge_mark, dtype=bool)
        touch = self._touch_edges[: self._touch_used]
        if touch.size and (
            int(touch.min()) < 0 or int(touch.max()) >= edge_mark.size
        ):
            raise ValueError(
                f"touch record references edge ids outside [0, "
                f"{edge_mark.size})"
            )
        # Gather the mark at every touch, then map each hit position back
        # to its owning set through the CSR boundaries — O(total touches)
        # for the gather plus O(hits log sets) for the searchsorted, with
        # no materialised per-touch set-ids array (the np.repeat twin
        # costs ~3x the memory traffic, and deltas are typically sparse
        # so hits ≪ touches).
        indptr = self._touch_indptr[: self._num_sets + 1]
        out = np.zeros(self._num_sets, dtype=bool)
        hit_pos = np.flatnonzero(edge_mark[touch])
        if hit_pos.size:
            set_idx = np.searchsorted(indptr, hit_pos, side="right") - 1
            out[set_idx] = True
        return out

    def drop_members(
        self,
        affected: np.ndarray,
        *,
        old_to_new_edge: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Compact the pool in place, removing every ``affected`` set.

        Returns the (``int64``) roots of the dropped sets so the caller
        can resample exactly those — the drop half of delta repair.
        Kept sets' touch signatures are rewritten through
        ``old_to_new_edge`` (the delta's edge-id remap; kept sets never
        touch a removed edge, so no ``-1`` survives).  All columns are
        rebuilt into fresh writable arrays: store-loaded pools adopt
        read-only memory maps, which in-place masking would trip over.
        Requires complete roots.
        """
        self._check_writable()
        if not (self._track_touches and self._roots_ok):
            raise ValueError(
                "drop_members needs recorded roots (track_touches pool "
                "with roots_ok)"
            )
        affected = np.asarray(affected, dtype=bool)
        if affected.shape != (self._num_sets,):
            raise ValueError(
                f"affected must have one flag per set ({self._num_sets}), "
                f"got shape {affected.shape}"
            )
        keep = ~affected
        dropped_roots = self._roots[: self._num_sets][affected].astype(
            np.int64
        )
        lengths = np.diff(self._indptr[: self._num_sets + 1])
        kept_nodes = self._nodes[: self._used][np.repeat(keep, lengths)]
        self._nodes = np.ascontiguousarray(kept_nodes, dtype=np.int32)
        self._indptr = np.concatenate(
            (
                np.zeros(1, dtype=np.int64),
                np.cumsum(lengths[keep], dtype=np.int64),
            )
        )
        self._roots = np.ascontiguousarray(
            self._roots[: self._num_sets][keep], dtype=np.int32
        )
        tlengths = np.diff(self._touch_indptr[: self._num_sets + 1])
        kept_touch = self._touch_edges[: self._touch_used][
            np.repeat(keep, tlengths)
        ]
        if old_to_new_edge is not None and kept_touch.size:
            remapped = np.asarray(old_to_new_edge, dtype=np.int64)[kept_touch]
            if remapped.size and int(remapped.min()) < 0:
                raise ValueError(
                    "kept touch signature references a removed edge"
                )
            kept_touch = remapped
        self._touch_edges = np.ascontiguousarray(kept_touch, dtype=np.int32)
        self._touch_indptr = np.concatenate(
            (
                np.zeros(1, dtype=np.int64),
                np.cumsum(tlengths[keep], dtype=np.int64),
            )
        )
        self._num_sets = int(self._roots.size)
        self._used = int(self._nodes.size)
        self._touch_used = int(self._touch_edges.size)
        self._set_ids_cache = None
        return dropped_roots
