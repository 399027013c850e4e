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
CSR fan-out and flips all their coins in one bulk draw.  Each in-edge of a
member is examined at most once (its head node is dequeued at most once),
so fresh per-examination coins realise exactly the lazily-memoised
per-world coins of the oracle path — the output distribution is identical,
which ``tests/rrset/test_batch_equivalence.py`` checks against
:meth:`generate` both on fixed worlds and in aggregate.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.graph.digraph import expand_csr
from repro.models.possible_world import PossibleWorld
from repro.models.sources import WorldSource
from repro.rng import SeedLike, make_rng
from repro.rrset.base import RRSetGenerator
from repro.rrset.pool import RRSetPool
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

    def generate_batch(
        self,
        count: int,
        *,
        rng: SeedLike = None,
        roots: Optional[np.ndarray] = None,
        out: Optional[RRSetPool] = None,
        world: Optional[PossibleWorld] = None,
    ) -> RRSetPool:
        """Vectorized batch sampling (see module docstring).

        ``world`` pins one eagerly-sampled possible world shared by every
        set in the batch (fixed-world equivalence tests); by default each
        set draws its own independent edge coins.
        """
        gen = make_rng(rng)
        graph = self._graph
        n = graph.num_nodes
        pool = out if out is not None else RRSetPool(n)
        if roots is None:
            roots = self.random_roots(count, rng=gen)
        else:
            roots = np.asarray(roots, dtype=np.int64)
        if roots.size == 0:
            return pool
        in_indptr, in_src, in_prob, in_eid = graph.csr_in()
        # The sweep engine budgets per-chunk state (one bool per
        # (member, node) here) and picks dense vs sparse keying by node
        # count; larger chunks amortise the per-level numpy overhead.
        backend = self.sweep.resolve_backend(n)
        chunk = self.sweep.chunk_size(
            n, backend, state_bytes_per_node=1, max_members=4096
        )
        for start in range(0, roots.size, chunk):
            chunk_roots = roots[start : start + chunk]
            b = chunk_roots.size
            ids = np.arange(b, dtype=np.int64)
            # Flat (set, node) -> set * n + node keys index a 1D visited
            # state: 1D gathers/scatters are markedly faster than 2D.
            visited = make_state(b, n, backend)
            visited.mark(ids * n + chunk_roots)
            member_ids = [ids]
            member_nodes = [chunk_roots]
            frontier_set, frontier_node = ids, chunk_roots
            while frontier_node.size:
                reps, flat = expand_csr(in_indptr, frontier_node)
                if flat.size == 0:
                    break
                if world is None:
                    live = gen.random(flat.size) < in_prob[flat]
                else:
                    live = world.live[in_eid[flat]]
                # A node may be reached through several live edges in one
                # level; mark_new keeps one copy per fresh (set, node).
                key = visited.mark_new(
                    frontier_set[reps[live]] * n + in_src[flat[live]]
                )
                if key.size == 0:
                    break
                frontier_set, frontier_node = np.divmod(key, n)
                member_ids.append(frontier_set)
                member_nodes.append(frontier_node)
            nodes, lengths = flatten_members(member_nodes, member_ids, b)
            pool.append_flat(nodes, lengths, roots=chunk_roots)
        return pool
