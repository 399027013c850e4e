"""RR-sets for the classic IC model (Borgs et al. [2], Tang et al. [24]).

In an IC possible world (live-edge graph), the singleton ``{u}`` activates
``v`` iff ``u`` can reach ``v`` via live edges; the RR-set of ``v`` is
therefore the set of nodes that reach ``v``, found by a reverse BFS that
flips each in-edge's coin lazily on first touch.  This generator powers the
VanillaIC baseline of §7 (TIM under plain IC, ignoring the NLA).

Batched fast path
-----------------

:meth:`RRICGenerator.generate_batch` runs the same reverse search for a
whole chunk of roots simultaneously: one level-synchronous sweep where
each level gathers the in-edges of *every* chunk member's frontier in one
CSR fan-out and reads all their coins from the chunk world in one bulk
call.  Each in-edge of a member is examined at most once (its head node
is dequeued at most once), so fresh per-examination coins
(:meth:`~repro.rrset.sweep.LazyChunkWorld.fresh`) realise exactly the
lazily-memoised per-world coins of the oracle path — the output
distribution is identical, which ``tests/rrset/test_batch_equivalence.py``
checks against :meth:`generate` both on fixed worlds and in aggregate.
Chunks follow a fixed schedule of up to 4096 members.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.graph.digraph import expand_csr
from repro.models.sources import WorldSource
from repro.rng import SeedLike, make_rng
from repro.rrset.base import RRSetGenerator
from repro.rrset.sweep import flatten_members, make_state


class RRICGenerator(RRSetGenerator):
    """Random RR-set sampler for single-item IC."""

    # Every coin this regime flips is on an in-edge of a node that joins
    # the RR-set, so delta repair needs only the root column.
    touch_mode = "implicit"

    def generate(
        self, *, rng: SeedLike = None, root: Optional[int] = None, world=None
    ) -> np.ndarray:
        gen = make_rng(rng)
        if root is None:
            root = int(gen.integers(0, self._graph.num_nodes))
        if world is None:
            world = WorldSource(gen)
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
        return np.fromiter(visited, dtype=np.int64, count=len(visited))

    def _sweep_chunk(self, roots, world, backend):
        graph = self._graph
        n, m = graph.num_nodes, graph.num_edges
        in_indptr, in_src, in_prob, in_eid = graph.csr_in()
        b = roots.size
        ids = np.arange(b, dtype=np.int64)
        # Flat (set, node) -> set * n + node keys index a 1D visited
        # state: 1D gathers/scatters are markedly faster than 2D.
        visited = make_state(b, n, backend)
        visited.mark(ids * n + roots)
        member_ids = [ids]
        member_nodes = [roots]
        frontier_set, frontier_node = ids, roots
        while frontier_node.size:
            reps, flat = expand_csr(in_indptr, frontier_node)
            if flat.size == 0:
                break
            edge_set = frontier_set[reps]
            live = world.fresh(edge_set * m + in_eid[flat], in_prob[flat])
            # A node may be reached through several live edges in one
            # level; mark_new keeps one copy per fresh (set, node).
            key = visited.mark_new(edge_set[live] * n + in_src[flat[live]])
            if key.size == 0:
                break
            frontier_set, frontier_node = np.divmod(key, n)
            member_ids.append(frontier_set)
            member_nodes.append(frontier_node)
        return flatten_members(member_nodes, member_ids, b)
