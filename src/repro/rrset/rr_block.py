"""RR-Block: RR-set generation for influence blocking (Appendix B.4).

Influence blocking in ``Q-`` maximises the *suppression*

    sigma_A(S_A, emptyset) - sigma_A(S_A, S_B)  >= 0

over B-seed sets ``S_B`` ([5, 13]; the paper frames it through
cross-monotonicity, Theorem 3).  The appendix's Example 5 shows per-world
submodularity can fail in ``Q-``, so no RR-set construction can be exact;
this module implements a principled *heuristic* RR regime whose pooled
max-coverage approximates the blocking greedy orders of magnitude faster
than per-evaluation Monte-Carlo CELF.

Valid regime (one-way competition, the ``Q-`` mirror of RR-SIM's
Theorem-7 conditions): mutual competition with B indifferent to A
(``q_{B|emptyset} = q_{B|A}``), so B's diffusion is independent of A's
(Lemma 3) and resolvable on its own.  This is exactly the
campaign-oblivious setting of the influence-blocking literature [5].

Per-world semantics (both sampling paths implement these *identically*):

1. **Forward pass** — run A's cascade from ``S_A`` with no B present and
   record each node's adoption time ``d_A``: seeds adopt at step 0, a
   node first informed at step ``t`` adopts at ``t`` iff
   ``alpha_A < q_{A|emptyset}``.
2. **Root filter** — the suppression set of root ``v`` is empty unless
   ``v`` adopted A (nothing to suppress), is not itself an A-seed (seed
   adoptions are unconditional), and ``alpha_A(v) >= q_{A|B}`` (otherwise
   ``v`` would adopt A even when B-adopted, so no interception flips it).
3. **Suppression set** — the candidates whose *single* B-seeding provably
   flips ``v`` to non-adoption: every ``u`` whose B-wave reaches ``v``
   *before* A's does, i.e. with a live path ``u -> ... -> v`` of length
   ``< d_A(v)`` whose nodes after ``u`` (``v`` included) all pass
   ``alpha_B < q_{B|emptyset}``.  Because B's cascade ignores A entirely
   in this regime, such a ``u`` B-adopts ``v`` before A's (possibly
   delayed) arrival, and ``v``'s A-test then fails by the root filter.
   A ``u`` at distance exactly ``d_A(v)`` arrives *simultaneously* — the
   stochastic model breaks that race with its tie-break machinery, which
   this regime resolves with the node's fair world coin ``tau(u)``
   (otherwise unused here: candidates never carry both seeds), so tied
   candidates join the set with probability 1/2.  A-seeds are excluded
   from the recorded set — the query layer never re-seeds occupied
   nodes — though B-waves still travel *through* them.

Heuristic caveats (documented, and guarded by an MC cross-check in
``tests/api/test_session.py``): interception-at-the-root is sufficient
but not necessary (a B-wave that merely cuts A's paths without reaching
``v`` is missed), and the fair-coin tie is a proxy for the model's
informer-order race.  Max-coverage over pooled suppression sets (empty
sets kept for dropped roots so the ``n * coverage / theta`` estimate
stays normalised over uniform roots) therefore *approximates* greedy
blocking rather than carrying the ``Q+`` regimes' guarantees.

Batched fast path
-----------------

:meth:`RRBlockGenerator.generate_batch` processes a chunk of independent
worlds at once in the style of the other kernels, but computes ``d_A``
*in reverse*: the root's forward adoption time equals the length of the
shortest live path from an A-seed whose non-seed nodes (root included)
all pass ``alpha_A`` — the standard BFS-time argument — so a reverse
A-search from the root that retires its lane the moment a seed enters
the frontier finds ``d_A(root)`` while touching only the root's
neighbourhood.  That keeps batch cost proportional to output size where
a forward sweep would re-cascade ``S_A`` across every world (hub seed
sets made that quadratic in practice).  Roots are pre-filtered by one
read of ``alpha_A(root)`` from the chunk world (outside ``[q_{A|B},
q_{A|∅})`` the set is empty before any search).  Every phase-1 coin is
recorded into the chunk world's :class:`~repro.rrset.sweep.ChunkCoinMemo`
(first flips — each node expands at most once per world) and the
bounded reverse B-sweep replays them via ``lookup_or_draw``, so an edge
keeps one coin across both passes exactly like the oracle's memoised
``WorldSource``.  Output distribution is identical to :meth:`generate`;
``tests/rrset/test_rr_block.py`` verifies fixed-world equality and
aggregate frequencies.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.errors import RegimeError
from repro.graph.digraph import DiGraph, expand_csr
from repro.models.gaps import GAP
from repro.models.sources import ITEM_A, ITEM_B, WorldSource
from repro.rng import SeedLike, make_rng
from repro.rrset.base import RRSetGenerator
from repro.rrset.sweep import flatten_members, make_state


def check_rr_block_regime(gaps: GAP) -> None:
    """Raise :class:`RegimeError` unless one-way competition holds."""
    if not (gaps.is_mutually_competitive and gaps.b_indifferent_to_a):
        raise RegimeError(
            "RR-Block requires one-way competition: q_{A|B} <= q_{A|0} and "
            f"q_{{B|0}} = q_{{B|A}}; got {gaps}"
        )


def forward_a_times(
    graph: DiGraph,
    world: WorldSource,
    q_a: float,
    seeds_a: Iterable[int],
) -> dict[int, int]:
    """Forward pass: A-adoption times under ``(S_A, emptyset)``.

    Returns ``{node: step}`` for every A-adopted node; seeds adopt at 0,
    a non-seed first informed at step ``t`` adopts then iff
    ``alpha_A < q_{A|emptyset}`` (the NLA runs once, like the memoised
    oracle).  With no B present there is no reconsideration in ``Q-``.
    """
    times: dict[int, int] = {}
    failed: set[int] = set()
    frontier: list[int] = []
    for s in seeds_a:
        s = int(s)
        if s not in times:
            times[s] = 0
            frontier.append(s)
    t = 0
    while frontier:
        t += 1
        nxt: list[int] = []
        for u in frontier:
            targets, probs, eids = graph.out_edges(u)
            for idx in range(targets.size):
                v = int(targets[idx])
                if v in times or v in failed:
                    continue
                if not world.edge_live(int(eids[idx]), float(probs[idx])):
                    continue
                if world.alpha(v, ITEM_A) < q_a:
                    times[v] = t
                    nxt.append(v)
                else:
                    failed.add(v)
        frontier = nxt
    return times


def suppression_search(
    graph: DiGraph,
    world: WorldSource,
    gaps: GAP,
    root: int,
    a_times: dict[int, int],
    seeds_a: frozenset,
) -> np.ndarray:
    """Bounded reverse B-search producing the suppression set of ``root``.

    Empty unless the root filter keeps ``root`` (see module docstring);
    otherwise a reverse BFS from ``root`` over live edges, relaying only
    through nodes passing ``alpha_B < q_{B|emptyset}``, down to depth
    ``d_A(root)`` — every reached non-A-seed node joins the set, except
    that nodes at exactly depth ``d_A(root)`` (simultaneous arrival)
    join only when their fair world coin resolves the race for B.
    """
    empty = np.empty(0, dtype=np.int64)
    if root in seeds_a or root not in a_times:
        return empty
    if world.alpha(root, ITEM_A) < gaps.q_a_given_b:
        return empty  # root adopts A even while B-adopted: unflippable
    budget = a_times[root]
    members = [root]
    visited = {root}
    frontier = [root]
    depth = 0
    q_b = gaps.q_b
    while frontier and depth < budget:
        depth += 1
        nxt: list[int] = []
        for x in frontier:
            if world.alpha(x, ITEM_B) >= q_b:
                continue  # x cannot relay B onward
            sources, probs, eids = graph.in_edges(x)
            for idx in range(sources.size):
                y = int(sources[idx])
                if y in visited:
                    continue
                if world.edge_live(int(eids[idx]), float(probs[idx])):
                    visited.add(y)
                    nxt.append(y)
                    if y not in seeds_a and (
                        depth < budget or not world.seed_a_first(y)
                    ):
                        members.append(y)
        frontier = nxt
    return np.asarray(members, dtype=np.int64)


class RRBlockGenerator(RRSetGenerator):
    """Random suppression-set sampler for influence blocking (Q-)."""

    # All liveness coins flow through the chunk memo (reverse-A records,
    # reverse-B replays), giving the exact edge-touch signature repair
    # needs — even for worlds that produced an empty suppression set.
    touch_mode = "recorded"
    # Two visited bitmaps per (world, node) dense; chunks adapt to the
    # memo load of the reverse-A phase.
    _state_bytes_per_node = 2
    _max_members = 8192
    _probe_chunk = 256

    def __init__(self, graph: DiGraph, gaps: GAP, seeds_a: Iterable[int]) -> None:
        super().__init__(graph)
        check_rr_block_regime(gaps)
        self._gaps = gaps
        self._seeds_a = [int(s) for s in seeds_a]
        for s in self._seeds_a:
            if not 0 <= s < graph.num_nodes:
                raise RegimeError(f"A-seed {s} out of range")
        self._seed_set = frozenset(self._seeds_a)

    @property
    def gaps(self) -> GAP:
        """The GAP configuration (one-way competition)."""
        return self._gaps

    @property
    def seeds_a(self) -> list[int]:
        """The fixed A-seed set whose spread is being suppressed."""
        return list(self._seeds_a)

    def generate(
        self, *, rng: SeedLike = None, root: Optional[int] = None, world=None
    ) -> np.ndarray:
        """``world`` injects a fixed possible world (tests/ablations)."""
        gen = make_rng(rng)
        if root is None:
            root = int(gen.integers(0, self._graph.num_nodes))
        if world is None:
            world = WorldSource(gen)
        a_times = forward_a_times(
            self._graph, world, self._gaps.q_a, self._seeds_a
        )
        return suppression_search(
            self._graph, world, self._gaps, root, a_times, self._seed_set
        )

    def _reverse_a_times(
        self, chunk_roots: np.ndarray, lanes: np.ndarray, world, backend: str
    ) -> np.ndarray:
        """Phase 1: per-lane reverse A-search resolving ``d_A(root)``.

        ``lanes`` lists the chunk worlds whose (non-seed) roots survived
        the ``alpha_A`` pre-filter — their roots are known to pass.  The
        forward adoption time equals the shortest live path from a seed
        whose non-seed nodes all pass ``alpha_A``, so each lane walks
        backwards from its root and resolves at the first depth a seed
        enters the frontier; lanes whose frontier dies resolve to -1
        (root never adopts).  Each node expands at most once per world,
        so coins are first flips and each ``alpha_A`` gate is read once.
        """
        graph = self._graph
        n, m = graph.num_nodes, graph.num_edges
        q_a = self._gaps.q_a
        in_indptr, in_src, in_prob, in_eid = graph.csr_in()
        seeds = np.unique(np.asarray(self._seeds_a, dtype=np.int64))
        b = chunk_roots.size
        budget = np.full(b, -1, dtype=np.int64)
        if lanes.size == 0 or seeds.size == 0:
            return budget
        visited = make_state(b, n, backend)
        fw, fn = lanes, chunk_roots[lanes]
        visited.mark(fw * n + fn)
        depth = 0
        while fn.size:
            if depth > 0:
                # Seed hit: the lane resolves at this depth (a BFS first
                # hit is the minimum; several seeds in one frontier agree).
                pos = np.minimum(
                    np.searchsorted(seeds, fn), seeds.size - 1
                )
                hit = seeds[pos] == fn
                if hit.any():
                    budget[fw[hit]] = depth
                    live_lane = budget[fw] == -1
                    fw, fn = fw[live_lane], fn[live_lane]
                    if fn.size == 0:
                        break
                # Relay gate: expanding past x makes it path-interior, so
                # x must pass alpha_A (the depth-0 root already did, via
                # the pre-filter read).
                relay = world.alpha_a(fw * n + fn) < q_a
                fw, fn = fw[relay], fn[relay]
                if fn.size == 0:
                    break
            reps, flat = expand_csr(in_indptr, fn)
            if flat.size == 0:
                break
            live = world.first(fw[reps] * m + in_eid[flat], in_prob[flat])
            key = visited.mark_new(fw[reps[live]] * n + in_src[flat[live]])
            if key.size == 0:
                break
            fw, fn = np.divmod(key, n)
            depth += 1
        return budget

    def _sweep_chunk(self, roots, world, backend):
        graph = self._graph
        n, m = graph.num_nodes, graph.num_edges
        gaps = self._gaps
        in_indptr, in_src, in_prob, in_eid = graph.csr_in()
        seeds = np.unique(np.asarray(self._seeds_a, dtype=np.int64))
        b = roots.size
        ids = np.arange(b, dtype=np.int64)
        # Root pre-filter: one read of alpha_A(root).  Only roots with
        # alpha in [q_{A|B}, q_{A|∅}) can both adopt A and be flipped by
        # an interception; seeds adopt unconditionally and are never
        # blockable.
        alpha_root = world.alpha_a(ids * n + roots)
        viable = (alpha_root >= gaps.q_a_given_b) & (alpha_root < gaps.q_a)
        if seeds.size:
            viable &= ~np.isin(roots, seeds)
        root_time = self._reverse_a_times(
            roots, np.flatnonzero(viable), world, backend
        )
        # The next chunk sizes from the reverse-A memo, before the relay
        # sweep below grows it.
        world.measure_load()
        lanes = np.flatnonzero(root_time > 0)
        if lanes.size == 0:
            return np.empty(0, dtype=np.int32), np.zeros(b, dtype=np.int64)
        lane_roots = roots[lanes]
        visited = make_state(b, n, backend)
        visited.mark(lanes * n + lane_roots)
        member_ids = [lanes]
        member_nodes = [lane_roots]
        frontier_world, frontier_node = lanes, lane_roots
        depth = 0
        q_b = gaps.q_b
        while frontier_node.size:
            # Relay gate: a frontier node expands iff its lane still
            # has depth budget and it passes alpha_B (each node is
            # gated at most once per world, so one read realises the
            # threshold exactly).
            deepen = root_time[frontier_world] > depth
            fw, fn = frontier_world[deepen], frontier_node[deepen]
            if fn.size == 0:
                break
            relay = world.alpha_b(fw * n + fn) < q_b
            fw, fn = fw[relay], fn[relay]
            if fn.size == 0:
                break
            depth += 1
            reps, flat = expand_csr(in_indptr, fn)
            if flat.size == 0:
                break
            live = world.coin(fw[reps] * m + in_eid[flat], in_prob[flat])
            key = visited.mark_new(fw[reps[live]] * n + in_src[flat[live]])
            if key.size == 0:
                break
            frontier_world, frontier_node = np.divmod(key, n)
            record = np.ones(frontier_node.size, dtype=bool)
            if seeds.size:
                # A-seeds relay B but are not recorded as candidates.
                pos = np.searchsorted(seeds, frontier_node)
                pos_c = np.minimum(pos, seeds.size - 1)
                record &= seeds[pos_c] != frontier_node
            # Simultaneous arrival (depth == d_A): the node's fair
            # world coin resolves the race; each (world, node) is
            # discovered once, so one read realises tau exactly.
            tie = np.flatnonzero(record & (root_time[frontier_world] == depth))
            if tie.size:
                record[tie[world.tau_a_first(key[tie])]] = False
            member_ids.append(frontier_world[record])
            member_nodes.append(frontier_node[record])
        return flatten_members(member_nodes, member_ids, b)
