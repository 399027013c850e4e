"""RR-SIM: RR-set generation for SelfInfMax (paper Algorithm 2, §6.2.1).

Valid regime (Theorem 7): one-way complementarity — B complements A
(``q_{A|∅} <= q_{A|B}``) while A is indifferent to B
(``q_{B|∅} = q_{B|A}``), so B's diffusion is independent of A-seeds
(Lemma 3) and can be resolved *before* reasoning about A.

Three phases over one lazily-sampled world:

* **Phase I** (implicit) — world variables materialise on demand through a
  shared :class:`~repro.models.sources.WorldSource`.
* **Phase II** — forward labeling from the fixed B-seed set: a node is
  B-adopted iff it is a B-seed or reachable from one via live edges through
  nodes with ``alpha_B < q_{B|∅}``.
* **Phase III** — backward BFS from the root: a dequeued node joins the
  RR-set; its in-neighbours are explored only if the node could itself
  adopt A upon being informed (``alpha_A < q_{A|B}`` if B-adopted, else
  ``alpha_A < q_{A|∅}``) — otherwise it could only be A-adopted as a seed.

Batched fast path
-----------------

:meth:`RRSimGenerator.generate_batch` processes a chunk of independent
worlds at once, replacing the per-edge memoised :class:`WorldSource` calls
with bulk reads of the chunk world
(:class:`~repro.rrset.sweep.LazyChunkWorld`): Phase II labels the B-adopted sets of *all*
chunk worlds with one level-synchronous forward sweep (memoising each
node's ``alpha_B`` outcome in a bit-flag state array), and Phase III runs
the backward searches of all roots with one level-synchronous reverse
sweep.  Edge coins flipped during Phase II are recorded into the chunk's
:class:`~repro.rrset.sweep.ChunkCoinMemo`, which Phase III replays over
its fresh coins, so an edge keeps a single coin across phases exactly as
the memoised oracle does.  Coins and thresholds materialise only for the
edges and nodes the sweeps touch, so batch cost tracks total RR-set size
rather than ``n + m``.  Output distribution is identical to
:meth:`generate`; ``tests/rrset/test_batch_equivalence.py`` verifies
fixed-world equality and aggregate frequencies.  The per-root path remains
the correctness oracle (and the fallback for regimes without a kernel).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

import numpy as np

from repro.errors import RegimeError
from repro.graph.digraph import DiGraph, expand_csr
from repro.models.gaps import GAP
from repro.models.sources import ITEM_A, ITEM_B, WorldSource
from repro.rng import SeedLike, make_rng
from repro.rrset.base import RRSetGenerator
from repro.rrset.sweep import flatten_members, make_state, unique_keys

#: Bit flags of the batched Phase-II state matrix: the memoised
#: ``alpha_B < q_B`` outcome (pass/fail) and final B-adoption.
_B_PASS = np.int8(1)
_B_FAIL = np.int8(2)
_B_ADOPTED = np.int8(4)


def check_rr_sim_regime(gaps: GAP) -> None:
    """Raise :class:`RegimeError` unless Theorem 7's conditions hold."""
    if not gaps.is_one_way_complementarity_for_a:
        raise RegimeError(
            "RR-SIM requires one-way complementarity: q_{A|∅} <= q_{A|B} and "
            f"q_{{B|∅}} = q_{{B|A}}; got {gaps}"
        )


def forward_label_b_adopted(
    graph: DiGraph,
    world: WorldSource,
    q_b: float,
    seeds_b: Iterable[int],
) -> set[int]:
    """Phase-II forward labeling: the B-adopted set in this world.

    Seeds adopt unconditionally; other nodes need a live-edge path of
    B-adopted nodes and ``alpha_B < q_{B|∅}``.
    """
    b_adopted: set[int] = set()
    queue: deque[int] = deque()
    for s in seeds_b:
        s = int(s)
        if s not in b_adopted:
            b_adopted.add(s)
            queue.append(s)
    while queue:
        u = queue.popleft()
        targets, probs, eids = graph.out_edges(u)
        for idx in range(targets.size):
            v = int(targets[idx])
            if v in b_adopted:
                continue
            if not world.edge_live(int(eids[idx]), float(probs[idx])):
                continue
            if world.alpha(v, ITEM_B) < q_b:
                b_adopted.add(v)
                queue.append(v)
    return b_adopted


def backward_search_a(
    graph: DiGraph,
    world: WorldSource,
    gaps: GAP,
    root: int,
    b_adopted: set[int],
) -> np.ndarray:
    """Phase-III backward BFS producing the RR-set of ``root``."""
    rr_set: list[int] = []
    visited = {root}
    queue: deque[int] = deque([root])
    while queue:
        u = queue.popleft()
        rr_set.append(u)
        threshold = gaps.q_a_given_b if u in b_adopted else gaps.q_a
        if world.alpha(u, ITEM_A) >= threshold:
            # u can only be A-adopted as a seed; don't explore beyond it.
            continue
        sources, probs, eids = graph.in_edges(u)
        for idx in range(sources.size):
            w = int(sources[idx])
            if w in visited:
                continue
            if world.edge_live(int(eids[idx]), float(probs[idx])):
                visited.add(w)
                queue.append(w)
    return np.asarray(rr_set, dtype=np.int64)


def forward_label_b_batch(
    graph: DiGraph, q_b: float, frontier: np.ndarray, b_state, world, flip
) -> None:
    """Batched Phase II: forward B-labeling of a chunk's worlds at once.

    ``frontier`` holds the ``member * n + node`` keys of the B-seeds,
    which adopt unconditionally.  ``b_state`` is the int8 bit-flag sweep
    state over those keys — :data:`_B_PASS` / :data:`_B_FAIL` memoise
    each node's ``alpha_B < q_B`` outcome, read from ``world`` on first
    test, and :data:`_B_ADOPTED` marks final B-adoption — packed so every
    level costs one gather and one scatter.  ``flip`` is the chunk
    world's coin reader: its ``first`` when no edge can have been tested
    before, its ``coin`` otherwise.
    """
    n, m = graph.num_nodes, graph.num_edges
    out_indptr, out_dst, out_prob, out_eid = graph.csr_out()
    b_state.put(frontier, _B_ADOPTED)
    while frontier.size:
        fmember, fnode = np.divmod(frontier, n)
        reps, flat = expand_csr(out_indptr, fnode)
        if flat.size == 0:
            break
        live = flip(fmember[reps] * m + out_eid[flat], out_prob[flat])
        key = fmember[reps[live]] * n + out_dst[flat[live]]
        if key.size == 0:
            break
        key = unique_keys(key)
        st = b_state.get(key)
        idle = (st & _B_ADOPTED) == 0
        key, st = key[idle], st[idle]
        if key.size == 0:
            break
        unknown = (st & (_B_PASS | _B_FAIL)) == 0
        if unknown.any():
            passes = world.alpha_b(key[unknown]) < q_b
            st[unknown] |= np.where(passes, _B_PASS, _B_FAIL)
        adopt = (st & _B_PASS) != 0
        b_state.put(key, st | np.where(adopt, _B_ADOPTED, 0))
        frontier = key[adopt]


class RRSimGenerator(RRSetGenerator):
    """Random RR-set sampler for SelfInfMax (Algorithm 2)."""

    # Phase II flips coins far from the member set (B-region out-edges),
    # so repair needs the explicit per-member edge-touch record.
    touch_mode = "recorded"
    # int8 B-state plus bool visited per (world, node) dense.  Phase II's
    # per-level overhead is paid once per chunk, so RR-SIM wants the
    # largest chunk memory affords — but the Phase-II coin memo grows
    # with the B-region's out-degree per world, so chunks start at a
    # probe size and adapt to the memo load measured after Phase II.
    _state_bytes_per_node = 2
    _max_members = 8192
    _probe_chunk = 256

    def __init__(self, graph: DiGraph, gaps: GAP, seeds_b: Iterable[int]) -> None:
        super().__init__(graph)
        check_rr_sim_regime(gaps)
        self._gaps = gaps
        self._seeds_b = [int(s) for s in seeds_b]
        for s in self._seeds_b:
            if not 0 <= s < graph.num_nodes:
                raise RegimeError(f"B-seed {s} out of range")

    @property
    def gaps(self) -> GAP:
        """The GAP configuration (one-way complementarity)."""
        return self._gaps

    @property
    def seeds_b(self) -> list[int]:
        """The fixed B-seed set."""
        return list(self._seeds_b)

    def generate(
        self, *, rng: SeedLike = None, root: Optional[int] = None, world=None
    ) -> np.ndarray:
        """``world`` injects a fixed possible world (tests/ablations)."""
        gen = make_rng(rng)
        if root is None:
            root = int(gen.integers(0, self._graph.num_nodes))
        if world is None:
            world = WorldSource(gen)
        b_adopted = forward_label_b_adopted(
            self._graph, world, self._gaps.q_b, self._seeds_b
        )
        return backward_search_a(self._graph, world, self._gaps, root, b_adopted)

    def _sweep_chunk(self, roots, world, backend):
        graph = self._graph
        n, m = graph.num_nodes, graph.num_edges
        gaps = self._gaps
        in_indptr, in_src, in_prob, in_eid = graph.csr_in()
        # Dedupe like the oracle's frontier guard: a B-seed listed twice
        # must not expand (and flip coins for) its out-edges twice.
        seeds = np.unique(np.asarray(self._seeds_b, dtype=np.int64))
        b = roots.size
        ids = np.arange(b, dtype=np.int64)
        # Phase II; each node expands at most once per world, so every
        # coin is a first flip, recorded for Phase III to replay.
        b_state = make_state(b, n, backend, np.int8)
        if seeds.size:
            forward_label_b_batch(
                graph, gaps.q_b, (ids[:, None] * n + seeds).ravel(),
                b_state, world, world.first,
            )
        world.measure_load()
        # Phase III: a dequeued node always joins its RR-set; the sweep
        # expands past it only where alpha_A clears the NLA threshold
        # (each node is dequeued at most once per world, so one read
        # realises the memoised alpha_A exactly).
        visited = make_state(b, n, backend)
        visited.mark(ids * n + roots)
        member_ids = [ids]
        member_nodes = [roots]
        frontier_set, frontier_node = ids, roots
        while frontier_node.size:
            fkeys = frontier_set * n + frontier_node
            b_adopted = (b_state.get(fkeys) & _B_ADOPTED) != 0
            threshold = np.where(b_adopted, gaps.q_a_given_b, gaps.q_a)
            grow = world.alpha_a(fkeys) < threshold
            grow_set, grow_node = frontier_set[grow], frontier_node[grow]
            if grow_node.size == 0:
                break
            reps, flat = expand_csr(in_indptr, grow_node)
            if flat.size == 0:
                break
            # Fresh coins, replaying any Phase II already flipped for the
            # same (world, edge) pair.
            live = world.fresh(grow_set[reps] * m + in_eid[flat], in_prob[flat])
            key = visited.mark_new(
                grow_set[reps[live]] * n + in_src[flat[live]]
            )
            if key.size == 0:
                break
            frontier_set, frontier_node = np.divmod(key, n)
            member_ids.append(frontier_set)
            member_nodes.append(frontier_node)
        return flatten_members(member_nodes, member_ids, b)
