"""RR-SIM+: scope-limited forward labeling (paper Algorithm 3, §6.2.2).

RR-SIM spends ``EPT_F`` edge tests on forward labeling from the B-seeds even
when none of that region can reach the root.  RR-SIM+ first runs an
*unconditional* backward BFS from the root over live edges, collecting the
set ``T1`` of nodes that could possibly matter; only if ``T1`` contains
B-seeds does it run the (residual) forward labeling, starting from
``T1 ∩ S_B`` alone.  A second backward BFS — identical to RR-SIM's
Phase III and confined to ``T1`` by construction (it expands along exactly
the live in-edges the first pass already certified) — emits the RR-set.

Lemma 7 of the paper proves the B-adoption status of every node the second
pass can see agrees with RR-SIM's, hence the two generators sample the same
RR-set distribution; a statistical test asserts this.

Batched fast path
-----------------

:meth:`RRSimPlusGenerator.generate_batch` keeps Algorithm 3's structure at
chunk scale: one level-synchronous *unconditional* reverse sweep from all
chunk roots (recording every edge coin it flips into a
:class:`~repro.rrset.sweep.ChunkCoinMemo`), then — only for the chunk
members whose reachable set actually touched a B-seed — a residual
Phase-II forward sweep seeded from exactly the touched (member, seed)
pairs, and finally RR-SIM's Phase-III backward sweep.  Phases II and III
replay the earlier sweeps' coins through the chunk world's shared memo
(:class:`~repro.rrset.sweep.LazyChunkWorld`, the batched counterpart of
the oracle's memoised ``WorldSource``), so the output
distribution matches :meth:`generate` exactly — and, by Lemma 7,
RR-SIM's.  Chunks adapt to the observed coin-record size as in RR-SIM.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

import numpy as np

from repro.graph.digraph import DiGraph, expand_csr
from repro.models.gaps import GAP
from repro.models.sources import WorldSource
from repro.rng import SeedLike, make_rng
from repro.rrset.base import RRSetGenerator
from repro.rrset.rr_sim import (
    _B_ADOPTED,
    backward_search_a,
    check_rr_sim_regime,
    forward_label_b_adopted,
    forward_label_b_batch,
)
from repro.rrset.sweep import flatten_members, make_state


class RRSimPlusGenerator(RRSetGenerator):
    """Random RR-set sampler for SelfInfMax (Algorithm 3)."""

    # Every liveness coin flows through the chunk memo, whose key record
    # is exactly the per-member edge-touch signature repair needs.
    touch_mode = "recorded"
    # Two bool visited maps plus the int8 B-state per (member, node)
    # dense; chunks adapt to the memo load at the end of each chunk.
    _state_bytes_per_node = 3
    _max_members = 8192
    _probe_chunk = 256

    def __init__(self, graph: DiGraph, gaps: GAP, seeds_b: Iterable[int]) -> None:
        super().__init__(graph)
        check_rr_sim_regime(gaps)
        self._gaps = gaps
        self._seeds_b = [int(s) for s in seeds_b]
        self._seeds_b_set = set(self._seeds_b)

    @property
    def gaps(self) -> GAP:
        """The GAP configuration (one-way complementarity)."""
        return self._gaps

    @property
    def seeds_b(self) -> list[int]:
        """The fixed B-seed set."""
        return list(self._seeds_b)

    def _first_backward_bfs(
        self, world: WorldSource, root: int
    ) -> set[int]:
        """Unconditional reverse reachability from ``root`` over live edges."""
        graph = self._graph
        visited = {root}
        queue: deque[int] = deque([root])
        while queue:
            u = queue.popleft()
            sources, probs, eids = graph.in_edges(u)
            for idx in range(sources.size):
                w = int(sources[idx])
                if w in visited:
                    continue
                if world.edge_live(int(eids[idx]), float(probs[idx])):
                    visited.add(w)
                    queue.append(w)
        return visited

    def generate(
        self, *, rng: SeedLike = None, root: Optional[int] = None, world=None
    ) -> np.ndarray:
        """``world`` injects a fixed possible world (tests/ablations)."""
        gen = make_rng(rng)
        if root is None:
            root = int(gen.integers(0, self._graph.num_nodes))
        if world is None:
            world = WorldSource(gen)
        t1 = self._first_backward_bfs(world, root)
        touched_seeds = t1 & self._seeds_b_set
        if touched_seeds:
            # Residual forward labeling from the in-scope B-seeds only; the
            # world source memoises, so re-tested edges stay consistent.
            b_adopted = forward_label_b_adopted(
                self._graph, world, self._gaps.q_b, sorted(touched_seeds)
            )
        else:
            b_adopted = set()
        return backward_search_a(self._graph, world, self._gaps, root, b_adopted)

    def _sweep_chunk(self, roots, world, backend):
        graph = self._graph
        n, m = graph.num_nodes, graph.num_edges
        gaps = self._gaps
        in_indptr, in_src, in_prob, in_eid = graph.csr_in()
        seeds = np.unique(np.asarray(self._seeds_b, dtype=np.int64))
        b = roots.size
        ids = np.arange(b, dtype=np.int64)
        root_keys = ids * n + roots
        # Sweep 1: unconditional reverse reachability from each root
        # (the oracle's T1), recording every liveness coin it flips —
        # each target node is dequeued at most once, so each in-edge
        # is a first flip.
        visited = make_state(b, n, backend)
        visited.mark(root_keys)
        frontier = root_keys
        while frontier.size:
            fmember, fnode = np.divmod(frontier, n)
            reps, flat = expand_csr(in_indptr, fnode)
            if flat.size == 0:
                break
            live = world.first(fmember[reps] * m + in_eid[flat], in_prob[flat])
            frontier = visited.mark_new(
                fmember[reps[live]] * n + in_src[flat[live]]
            )
        # Residual forward labeling, only where T1 saw a B-seed (the
        # point of Algorithm 3: skip EPT_F when B cannot matter).  Its
        # coins go through the memo: sweep 1 already flipped those
        # inside each member's reachable set, and re-testing them must
        # replay them exactly as the oracle's memoised source does.
        b_state = make_state(b, n, backend, np.int8)
        if seeds.size:
            seed_keys = ids[:, None] * n + seeds[None, :]
            init = seed_keys[visited.get(seed_keys)]
            if init.size:
                forward_label_b_batch(
                    graph, gaps.q_b, init, b_state, world, world.coin
                )
        # Sweep 2: RR-SIM's Phase III; confined to T1 by construction
        # (it expands along exactly the live in-edges sweep 1 already
        # certified, replayed through the memo).
        visited2 = make_state(b, n, backend)
        visited2.mark(root_keys)
        member_ids = [ids]
        member_nodes = [roots]
        fset, fnode = ids, roots
        while fnode.size:
            fkeys = fset * n + fnode
            b_adopted = (b_state.get(fkeys) & _B_ADOPTED) != 0
            threshold = np.where(b_adopted, gaps.q_a_given_b, gaps.q_a)
            # Each (member, node) is dequeued at most once, so one read
            # realises the memoised alpha_A exactly.
            grow = world.alpha_a(fkeys) < threshold
            gset, gnode = fset[grow], fnode[grow]
            if gnode.size == 0:
                break
            reps, flat = expand_csr(in_indptr, gnode)
            if flat.size == 0:
                break
            live = world.coin(gset[reps] * m + in_eid[flat], in_prob[flat])
            key = visited2.mark_new(
                gset[reps[live]] * n + in_src[flat[live]]
            )
            if key.size == 0:
                break
            fset, fnode = np.divmod(key, n)
            member_ids.append(fset)
            member_nodes.append(fnode)
        world.measure_load()
        return flatten_members(member_nodes, member_ids, b)
