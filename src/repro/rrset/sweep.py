"""Shared sweep engine: chunk state and key primitives of the batched RR kernels.

Every batched RR-set kernel (RR-IC, RR-LT, RR-SIM, RR-SIM+, RR-CIM,
RR-Block) runs the same level-synchronous machinery: flat ``(chunk
member, node) -> member * n + node`` keys over per-chunk state (visited
bitmaps, B-state bit flags, RR-CIM's uint8 bitfield),
:func:`~repro.graph.digraph.expand_csr` frontier fan-outs, bulk coin
draws, :func:`unique_keys` dedup and, in the richer kernels, a memo of
``(member, edge) -> member * m + edge`` liveness coins
(:class:`ChunkCoinMemo`).  This module is the one home of that
machinery; :mod:`repro.rrset.pool` only stores the finished sets.

Per-chunk state comes in two interchangeable layouts:

* :class:`DenseState` — a flat array of ``chunk * num_nodes`` entries.
  O(1) gathers/scatters; right for small graphs where the array fits
  comfortably and sweeps touch a large fraction of it.
* :class:`SparseState` — sorted int64 keys (plus a parallel value
  column unless the state is boolean).  Gathers are bulk
  ``searchsorted`` lookups and insertions two-way merges, so memory
  scales with the keys a chunk's sweeps actually *touch* rather than
  with ``chunk * num_nodes`` — on a million-node graph a chunk of
  thousands of members costs megabytes instead of gigabytes.  It keeps
  two tiers: a lazily sorted *base* fed by the :meth:`~SparseState.record`
  fast lane (append-only fragments, one sort when first read) and an
  *overlay* that takes every other insertion, so an insertion never
  rewrites the base.  The coin memo is the same store over edge keys.

Layouts are *operation-equivalent*: both resolve the same test-and-set
(:meth:`~SparseState.mark_new`), gather and scatter semantics, and
neither consumes randomness, so a kernel produces bit-identical output
under either layout (``tests/rrset/test_sweep.py`` pins this across all
six regimes).  :class:`SweepConfig` selects the layout automatically by
node count (``auto``), centralizes the per-chunk state budget, and warns
instead of silently degrading when a dense chunk collapses;
:func:`adaptive_chunk` is the one rule that re-sizes chunks from the
observed coin-memo load.

Kernels read the possible worlds of a chunk — edge coins, ``alpha_A``,
``alpha_B`` and the tie coin ``tau`` of §5.1 — through one interface
with two implementations: :class:`LazyChunkWorld` draws them from the
stream on demand (edge coins through the chunk's :class:`ChunkCoinMemo`)
and :class:`PinnedChunkWorld` reads one eagerly-sampled world, the
batched counterparts of :class:`~repro.models.sources.WorldSource` and
:class:`~repro.models.possible_world.FrozenWorldSource`.  The chunk
driver (:meth:`~repro.rrset.base.RRSetGenerator.generate_batch`) builds
one per chunk.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

#: default per-chunk state budget (bytes) shared by every kernel — the
#: one knob that replaces the per-kernel ``16 << 20`` / ``~64MB``
#: constants.
DEFAULT_CHUNK_STATE_BYTES = 16 << 20

#: node count at which ``auto`` switches from dense to sparse state.
#: Above it a dense chunk within the default budget would hold only a
#: few members (16 at one byte per (member, node)), while RR sweeps
#: touch a vanishing fraction of the graph — the sparse regime.
DEFAULT_SPARSE_NODES_THRESHOLD = 1 << 19

#: a dense chunk below this many members is considered degenerate: the
#: per-level numpy overhead is no longer amortised and the kernel emits
#: a :class:`RuntimeWarning` recommending the sparse backend.
DEGENERATE_DENSE_CHUNK = 16

_BACKENDS = ("auto", "dense", "sparse")


@dataclass(frozen=True)
class SweepConfig:
    """Chunk-state policy of one generator's batched sweeps.

    ``chunk_state_bytes`` budgets the per-chunk dense state (all of a
    kernel's simultaneous ``chunk * num_nodes`` arrays together);
    ``state_backend`` picks the backend (``"auto"`` selects sparse at or
    above :data:`DEFAULT_SPARSE_NODES_THRESHOLD` nodes).  Frozen and
    picklable, so it rides along when
    :class:`~repro.parallel.ParallelEngine` ships generator replicas to
    worker processes.
    """

    chunk_state_bytes: int = DEFAULT_CHUNK_STATE_BYTES
    state_backend: str = "auto"
    #: optional hard cap on members per chunk, below every kernel's own
    #: ``max_members``.  The chunk schedule determines the order coins
    #: are drawn in, so pinning both backends to one cap makes their
    #: outputs bit-comparable — the equality leg of the scale benchmark
    #: and the fixed-world equivalence tests use exactly this.
    max_chunk_members: Optional[int] = None

    def __post_init__(self) -> None:
        if (
            not isinstance(self.chunk_state_bytes, int)
            or self.chunk_state_bytes < 1
        ):
            raise ValueError(
                f"chunk_state_bytes must be a positive int, got "
                f"{self.chunk_state_bytes!r}"
            )
        if self.state_backend not in _BACKENDS:
            raise ValueError(
                f"state_backend must be one of {_BACKENDS}, got "
                f"{self.state_backend!r}"
            )
        if self.max_chunk_members is not None and (
            not isinstance(self.max_chunk_members, int)
            or self.max_chunk_members < 1
        ):
            raise ValueError(
                f"max_chunk_members must be a positive int or None, got "
                f"{self.max_chunk_members!r}"
            )

    def resolve_backend(self, num_nodes: int) -> str:
        """The concrete backend (``"dense"`` / ``"sparse"``) for ``n`` nodes."""
        if self.state_backend != "auto":
            return self.state_backend
        return (
            "sparse"
            if num_nodes >= DEFAULT_SPARSE_NODES_THRESHOLD
            else "dense"
        )

    def chunk_size(
        self,
        num_nodes: int,
        backend: str,
        *,
        state_bytes_per_node: int = 1,
        max_members: int = 4096,
        warn: bool = True,
    ) -> int:
        """Members per chunk under this budget and backend.

        ``state_bytes_per_node`` is the kernel's total dense state bytes
        per (member, node) pair — e.g. 2 for RR-SIM's int8 B-state plus
        bool visited.  Sparse state scales with touched nodes rather
        than ``chunk * num_nodes``, so the sparse answer is simply
        ``max_members``.  A dense chunk that collapses below
        :data:`DEGENERATE_DENSE_CHUNK` warns (once per call) instead of
        silently degrading to near-serial sweeps, naming the sparse
        backend as the fix — the clamp used to drop to 1 with no signal.
        """
        max_members = max(int(max_members), 1)
        if self.max_chunk_members is not None:
            max_members = min(max_members, self.max_chunk_members)
        if backend == "sparse":
            return max_members
        denom = max(int(num_nodes), 1) * max(int(state_bytes_per_node), 1)
        chunk = int(np.clip(self.chunk_state_bytes // denom, 1, max_members))
        if warn and chunk < min(DEGENERATE_DENSE_CHUNK, max_members):
            warnings.warn(
                f"dense sweep state budget ({self.chunk_state_bytes} bytes) "
                f"only affords chunks of {chunk} member(s) on a "
                f"{num_nodes}-node graph; batching degenerates — use the "
                "sparse state backend (state_backend='sparse' or 'auto') "
                "or raise chunk_state_bytes",
                RuntimeWarning,
                stacklevel=3,
            )
        return chunk


#: the config every generator starts with (``generator.sweep``).
DEFAULT_SWEEP = SweepConfig()

#: Target entries of one chunk's coin memo.  The memo grows with the
#: region a world's sweeps explore, which is only known after sampling,
#: so the memo kernels start with a modest probe chunk and re-size each
#: next chunk from the observed coins per member (:func:`adaptive_chunk`).
_COIN_BUDGET = 16 << 20


def adaptive_chunk(memo_size: int, members: int, max_chunk: int) -> int:
    """Members of the next chunk so its coin memo stays near the budget.

    ``memo_size`` coins were recorded for the ``members`` of the chunk
    just sampled; ``max_chunk`` is the state-budget ceiling from
    :meth:`SweepConfig.chunk_size`.
    """
    per_member = max(memo_size / members, 1.0)
    return int(np.clip(_COIN_BUDGET / per_member, 1, max_chunk))


# ----------------------------------------------------------------------
# Key primitives
# ----------------------------------------------------------------------
def unique_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer key array.

    Drop-in for ``np.unique`` on the sweeps' ``world * n + node`` keys —
    a plain sort + neighbour-comparison, which is an order of magnitude
    faster than ``np.unique``'s generic path on these workloads.
    """
    if keys.size <= 1:
        return keys.copy()
    ordered = np.sort(keys)
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def unique_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(unique, inverse)`` of an integer key array via one sort.

    ``unique`` is sorted-distinct and ``unique[inverse]`` reconstructs
    ``keys`` — the fast replacement for ``np.unique(..,
    return_inverse=True)`` that the batched sweeps use when several lanes
    of one chunk may query the same memoised world variable in a single
    bulk call (a coin or threshold must be drawn once per distinct key).
    """
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.empty(ordered.size, dtype=bool)
    if ordered.size:
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(keys.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def flatten_members(
    member_sets: Sequence[np.ndarray],
    member_ids: Sequence[np.ndarray],
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Regroup level-order ``(set_id, node)`` fragments into packed sets.

    The batched generators discover members level-by-level: each sweep
    level yields parallel arrays of set ids and nodes.  This helper
    concatenates all levels, stably sorts by set id and returns
    ``(nodes, lengths)`` ready for
    :meth:`~repro.rrset.pool.RRSetPool.append_flat` — including length-0
    entries for sets that produced no members.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if not member_ids:
        return np.empty(0, dtype=np.int32), np.zeros(count, dtype=np.int64)
    ids = np.concatenate([np.asarray(a) for a in member_ids])
    nodes = np.concatenate([np.asarray(a) for a in member_sets])
    order = np.argsort(ids, kind="stable")
    lengths = np.bincount(ids, minlength=count).astype(np.int64)
    return nodes[order].astype(np.int32, copy=False), lengths


def touches_from_keys(
    keys: np.ndarray, num_edges: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split sorted distinct ``member * num_edges + edge`` keys into the
    packed per-member touch rows
    :meth:`~repro.rrset.pool.RRSetPool.append_flat` expects.

    Returns ``(touch_edges, touch_lengths)``: the flat ``int32`` edge-id
    column (grouped by member, ascending within each) and one length per
    chunk member — including zeros for members whose sweep flipped no
    coins.
    """
    if keys.size == 0:
        return np.empty(0, dtype=np.int32), np.zeros(count, dtype=np.int64)
    member, eid = np.divmod(keys, num_edges)
    lengths = np.bincount(member, minlength=count).astype(np.int64)
    return eid.astype(np.int32), lengths


# ----------------------------------------------------------------------
# Chunk state
# ----------------------------------------------------------------------
class DenseState:
    """Per-(member, node) state over a flat dense array of ``size`` entries.

    A ``bool`` state is a flag set (:meth:`mark`, :meth:`mark_new`); a
    small-integer state holds values (:meth:`put`, :meth:`or_`).
    """

    kind = "dense"

    __slots__ = ("_a",)

    def __init__(self, size: int, dtype=bool) -> None:
        self._a = np.zeros(int(size), dtype=dtype)

    def get(self, keys: np.ndarray) -> np.ndarray:
        """State of every key (shape-preserving gather; 0 where unset)."""
        return self._a[keys]

    def put(self, keys: np.ndarray, vals) -> None:
        """Scatter ``vals`` at ``keys``; keys must be distinct."""
        self._a[keys] = vals

    def or_(self, keys: np.ndarray, flags) -> None:
        """Bitwise-OR ``flags`` into the state at distinct ``keys``."""
        self._a[keys] |= flags

    def mark(self, keys: np.ndarray) -> None:
        """Set the flag at ``keys`` (duplicates allowed)."""
        self._a[keys] = True

    def mark_new(self, keys: np.ndarray) -> np.ndarray:
        """Test-and-set: mark and return the sorted distinct fresh keys.

        The sweeps' dedup step — ``key[~visited[key]]`` then
        ``unique_keys`` then scatter — as one state operation.
        """
        keys = keys[~self._a[keys]]
        if keys.size == 0:
            return keys
        keys = unique_keys(keys)
        self._a[keys] = True
        return keys

    @property
    def nbytes(self) -> int:
        """Bytes of state held right now."""
        return self._a.nbytes


class SparseState:
    """Per-key state as sorted int64 keys in a base and an overlay tier.

    Same operations as :class:`DenseState`, over keys of any range.  A
    ``bool`` state stores keys only — a key is set iff present, 8 bytes
    per touched key; other dtypes add a parallel value column
    (``8 + itemsize`` bytes per key) and read 0 where never written.
    Keys passed to :meth:`put` / :meth:`or_` must be distinct within one
    call; repeats within :meth:`get` / :meth:`mark` calls are fine.
    """

    kind = "sparse"

    __slots__ = ("_dtype", "_tiers", "_pending", "_pending_size")

    def __init__(self, dtype=bool) -> None:
        self._dtype = np.dtype(dtype)
        empty = (
            None if self._dtype == np.bool_ else np.empty(0, dtype=self._dtype)
        )
        # [base, overlay], each [sorted keys, values or None].
        self._tiers = [
            [np.empty(0, dtype=np.int64), empty],
            [np.empty(0, dtype=np.int64), empty],
        ]
        self._pending: list[tuple[np.ndarray, Optional[np.ndarray]]] = []
        self._pending_size = 0

    @property
    def size(self) -> int:
        """Number of keys held (distinct keys ever written)."""
        return (
            self._tiers[0][0].size + self._tiers[1][0].size + self._pending_size
        )

    def record(self, keys: np.ndarray, vals=None) -> None:
        """Append previously-unseen keys to the base without a lookup.

        The fast lane for sweep phases that can never re-test a key:
        fragments accumulate as-is and are sorted into the base in one
        pass when the state is next read.  Callers must guarantee the
        keys are distinct from each other and from everything held.
        """
        if keys.size:
            self._pending.append((keys, vals))
            self._pending_size += keys.size

    def _read_tiers(self) -> list:
        if self._pending:
            base = self._tiers[0]
            keys = np.concatenate([base[0], *(k for k, _ in self._pending)])
            order = np.argsort(keys, kind="stable")
            base[0] = keys[order]
            if base[1] is not None:
                vals = np.concatenate([base[1], *(v for _, v in self._pending)])
                base[1] = vals[order]
            self._pending.clear()
            self._pending_size = 0
        return self._tiers

    def _find(self, tier_keys: np.ndarray, keys: np.ndarray):
        pos = np.minimum(np.searchsorted(tier_keys, keys), tier_keys.size - 1)
        return pos, tier_keys[pos] == keys

    def get(self, keys: np.ndarray) -> np.ndarray:
        """State of every key (shape-preserving; unset keys read 0)."""
        keys = np.asarray(keys)
        out = np.zeros(keys.shape, dtype=self._dtype)
        for tier_keys, tier_vals in self._read_tiers():
            if tier_keys.size:
                pos, hit = self._find(tier_keys, keys)
                if tier_vals is None:
                    out |= hit
                else:
                    out[hit] = tier_vals[pos[hit]]
        return out

    def insert(self, keys: np.ndarray, vals=None) -> None:
        """Merge sorted distinct keys known to be absent into the overlay.

        A manual O(overlay) two-way merge — ``np.insert`` pays far too
        much per-call overhead on sweep-level cadence.
        """
        overlay = self._tiers[1]
        old_keys, old_vals = overlay
        pos = np.searchsorted(old_keys, keys) + np.arange(
            keys.size, dtype=np.int64
        )
        total = old_keys.size + keys.size
        old = np.ones(total, dtype=bool)
        old[pos] = False
        merged = np.empty(total, dtype=np.int64)
        merged[pos] = keys
        merged[old] = old_keys
        overlay[0] = merged
        if old_vals is not None:
            merged = np.empty(total, dtype=self._dtype)
            merged[pos] = vals
            merged[old] = old_vals
            overlay[1] = merged

    def put(self, keys: np.ndarray, vals) -> None:
        """Write ``vals`` at distinct ``keys`` (value states only)."""
        keys = np.asarray(keys)
        if keys.size == 0:
            return
        vals = np.broadcast_to(np.asarray(vals, dtype=self._dtype), keys.shape)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        vals = vals[order]
        miss = np.ones(keys.size, dtype=bool)
        for tier_keys, tier_vals in self._read_tiers():
            if tier_keys.size:
                pos, hit = self._find(tier_keys, keys)
                tier_vals[pos[hit]] = vals[hit]
                miss &= ~hit
        if miss.any():
            self.insert(keys[miss], vals[miss])

    def or_(self, keys: np.ndarray, flags) -> None:
        """Bitwise-OR ``flags`` into the state at distinct ``keys``."""
        keys = np.asarray(keys)
        if keys.size == 0:
            return
        self.put(keys, self.get(keys) | np.asarray(flags, dtype=self._dtype))

    def mark(self, keys: np.ndarray) -> None:
        """Set the flag at ``keys`` (``bool`` states; duplicates allowed)."""
        self.mark_new(np.asarray(keys).ravel())

    def mark_new(self, keys: np.ndarray) -> np.ndarray:
        """Test-and-set: mark and return the sorted distinct fresh keys."""
        if keys.size == 0:
            return np.asarray(keys, dtype=np.int64)
        keys = unique_keys(np.asarray(keys))
        fresh = keys[~self.get(keys)]
        if fresh.size:
            self.insert(fresh)
        return fresh

    def keys(self) -> np.ndarray:
        """Sorted distinct keys held, across both tiers.

        May be the store's own key array (tiers are replaced, never
        written in place), so callers must not modify it.
        """
        (base, _), (overlay, _) = self._read_tiers()
        if not overlay.size:
            return base
        if not base.size:
            return overlay
        return np.sort(np.concatenate([base, overlay]))

    @property
    def nbytes(self) -> int:
        """Bytes of keys and values held right now."""
        arrays = [a for tier in self._tiers for a in tier]
        arrays += [a for frag in self._pending for a in frag]
        return sum(a.nbytes for a in arrays if a is not None)


def make_state(lanes: int, num_nodes: int, backend: str, dtype=bool):
    """A per-(member, node) state over ``lanes * num_nodes`` keys.

    ``backend`` must be resolved (``"dense"`` or ``"sparse"``, see
    :meth:`SweepConfig.resolve_backend`); ``dtype`` ``bool`` makes a flag
    set, a small integer dtype a value state.
    """
    if backend == "sparse":
        return SparseState(dtype)
    if backend == "dense":
        return DenseState(int(lanes) * int(num_nodes), dtype)
    raise ValueError(f"unknown resolved backend {backend!r}")


# ----------------------------------------------------------------------
# Coin memo
# ----------------------------------------------------------------------
_DEAD = np.uint8(1)
_LIVE = np.uint8(2)


class ChunkCoinMemo:
    """Memoised per-``(chunk member, edge)`` Bernoulli coins.

    The batched RR-SIM, RR-SIM+, RR-CIM and RR-Block kernels test the
    same edge from several sub-searches of one world — forward labeling,
    backward searches, Case-1 secondary searches and Case-4 zig-zag
    checks — so a coin flipped in one sweep must be replayed by the
    others, exactly like the oracle's memoised
    :meth:`~repro.models.sources.WorldSource.edge_live`.

    Keys are ``member * num_edges + edge_id`` in one uint8
    :class:`SparseState`: 0 = not drawn, 1 = dead, 2 = live.  Sweeps that
    can never re-test an edge :meth:`record` into the base tier; coins
    first drawn by :meth:`lookup_or_draw` land in the overlay.
    """

    __slots__ = ("_state",)

    def __init__(self) -> None:
        self._state = SparseState(np.uint8)

    @property
    def size(self) -> int:
        """Number of memoised coins (distinct keys seen so far)."""
        return self._state.size

    def record(self, keys: np.ndarray, live: np.ndarray) -> None:
        """Append coins for previously-unseen keys without a lookup.

        The fast lane for sweep phases that can never re-test an edge
        (each source node expands at most once, and an edge belongs to
        exactly one source).  Callers must guarantee the keys are
        distinct from everything recorded or drawn before.
        """
        self._state.record(keys, np.add(live, _DEAD, dtype=np.uint8))

    def draw(
        self, keys: np.ndarray, probs: np.ndarray, gen: np.random.Generator
    ) -> np.ndarray:
        """First flips: one fresh ``Bernoulli(probs)`` coin per key, in
        order, recorded via :meth:`record` (same contract on ``keys``)."""
        live = gen.random(keys.size) < probs
        self.record(keys, live)
        return live

    def replay(self, keys: np.ndarray, live: np.ndarray) -> np.ndarray:
        """Overwrite ``live`` in place with the memoised coin of every
        key that has one; returns ``live``.  Records nothing."""
        coin = self._state.get(keys)
        seen = coin != 0
        live[seen] = coin[seen] == _LIVE
        return live

    def lookup_or_draw(
        self, keys: np.ndarray, probs: np.ndarray, gen: np.random.Generator
    ) -> np.ndarray:
        """Coin value for every key (repeats allowed within one call).

        Known keys replay their memoised value; unseen keys draw a fresh
        ``Bernoulli(probs)`` coin — once per *distinct* key, in sorted
        key order — and are recorded for later sweeps.
        """
        if keys.size == 0:
            return np.empty(0, dtype=bool)
        ukeys, inverse = unique_inverse(keys)
        coin = self._state.get(ukeys)
        unseen = np.flatnonzero(coin == 0)
        if unseen.size:
            uprobs = np.empty(ukeys.size, dtype=np.float64)
            uprobs[inverse] = probs  # any occurrence carries the edge's prob
            coin[unseen] = np.where(
                gen.random(unseen.size) < uprobs[unseen], _LIVE, _DEAD
            )
            self._state.insert(ukeys[unseen], coin[unseen])
        return (coin == _LIVE)[inverse]

    def touched_keys(self) -> np.ndarray:
        """Sorted distinct ``member * num_edges + edge`` keys of every coin.

        The chunk's complete edge-touch record: one key per coin the
        kernel flipped, across all tiers.  Feeds the pool's touch columns
        via :func:`touches_from_keys` when delta repair is tracking.
        """
        return self._state.keys()


# ----------------------------------------------------------------------
# Chunk worlds
# ----------------------------------------------------------------------
class LazyChunkWorld:
    """The possible worlds of one chunk, drawn on demand.

    The batched counterpart of :class:`~repro.models.sources.WorldSource`:
    every world variable a kernel reads (edge coins, ``alpha_A``,
    ``alpha_B`` and the tie coin ``tau``) is addressed by its chunk key
    — ``member * num_edges + edge`` for a coin, ``member * num_nodes +
    node`` for a node variable — and drawn from ``gen`` when read.  Edge
    coins go through the chunk's :class:`ChunkCoinMemo`: :meth:`first`
    records first flips, :meth:`coin` replays or draws, and
    :meth:`fresh` draws unrecorded coins that any memoised coin
    overrides.  Node variables are fresh draws; a kernel that may read
    one twice memoises it in its own sweep state.  Each method draws in
    a fixed order and count, so a kernel's output is a function of
    ``gen``'s stream and the chunk schedule alone.
    """

    __slots__ = ("gen", "memo", "load", "_loose")

    def __init__(self, gen: np.random.Generator, track: bool) -> None:
        self.gen = gen
        self.memo = ChunkCoinMemo()
        #: memo size the kernel measured for :func:`adaptive_chunk`.
        self.load = 0
        # fresh coins' keys, kept for the touch record when tracking
        self._loose: Optional[list[np.ndarray]] = [] if track else None

    def first(self, keys: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """Liveness of coins no sweep of this chunk has flipped yet."""
        return self.memo.draw(keys, probs, self.gen)

    def coin(self, keys: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """Memoised liveness: replay known keys, draw and record the rest."""
        return self.memo.lookup_or_draw(keys, probs, self.gen)

    def fresh(self, keys: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """Liveness of coins this sweep tests at most once: fresh draws,
        overridden where an earlier sweep memoised the coin; records
        nothing in the memo."""
        live = self.gen.random(keys.size) < probs
        if self.memo.size:
            self.memo.replay(keys, live)
        if self._loose is not None:
            self._loose.append(keys)
        return live

    def alpha_a(self, keys: np.ndarray) -> np.ndarray:
        """``alpha_A`` (as :meth:`alpha_b`, ``alpha_B``) of (member, node)
        keys, each read once: fresh uniform draws."""
        return self.gen.random(keys.size)

    alpha_b = alpha_a

    def tau_a_first(self, keys: np.ndarray) -> np.ndarray:
        """The fair tie coin ``tau`` of (member, node) keys: A first?"""
        return self.gen.random(keys.size) < 0.5

    def measure_load(self) -> None:
        """Note the memo size that sizes the next chunk."""
        self.load = self.memo.size

    def touched_keys(self) -> np.ndarray:
        """Sorted distinct ``member * num_edges + edge`` keys of every
        coin the chunk flipped (memoised and fresh)."""
        keys = self.memo.touched_keys()
        if self._loose:
            keys = unique_keys(np.concatenate([keys, *self._loose]))
        return keys


class PinnedChunkWorld:
    """One eagerly-sampled possible world shared by every chunk member.

    The batched counterpart of
    :class:`~repro.models.possible_world.FrozenWorldSource`, with the
    interface of :class:`LazyChunkWorld`: each variable is read from the
    :class:`~repro.models.possible_world.PossibleWorld` at ``key %
    num_edges`` (coins) or ``key % num_nodes`` (node variables), so the
    output depends neither on an RNG nor on the chunk schedule.  It
    has no stream (:attr:`gen`) and no touch record.
    """

    __slots__ = ("_world", "_n", "_m")

    #: the schedule never adapts to a pinned world's (empty) memo.
    load = 0

    def __init__(self, world, num_nodes: int, num_edges: int) -> None:
        self._world = world
        self._n = num_nodes
        self._m = num_edges

    @property
    def gen(self) -> np.random.Generator:
        raise TypeError(
            "this generator draws from a stream and has no pinned-world mode"
        )

    def first(self, keys: np.ndarray, probs=None) -> np.ndarray:
        """Liveness of the world's edges at ``keys % num_edges``."""
        return self._world.live[keys % self._m]

    coin = fresh = first

    def alpha_a(self, keys: np.ndarray) -> np.ndarray:
        return self._world.alpha_a[keys % self._n]

    def alpha_b(self, keys: np.ndarray) -> np.ndarray:
        return self._world.alpha_b[keys % self._n]

    def tau_a_first(self, keys: np.ndarray) -> np.ndarray:
        return self._world.tau_a_first[keys % self._n]

    def measure_load(self) -> None:
        pass

    def touched_keys(self) -> None:
        return None
