"""RR-sets for the classic Linear Threshold model (Triggering view, [15, 24]).

Kempe et al. prove LT equivalent to the Triggering model in which every
node independently selects *at most one* in-neighbour — edge ``(u, v)``
with probability ``w(u, v)``, nobody with the residual ``1 - sum_u w`` —
and activation is reachability over selected edges.  A random RR-set of a
root ``v`` is therefore a reverse *path*: follow ``v``'s selected
in-neighbour, then its selection, and so on until a node selects nobody or
the walk closes a cycle.  This is TIM's LT sampler [24]; plugged into
:func:`~repro.rrset.tim.general_tim` / :func:`~repro.rrset.imm.general_imm`
it yields a VanillaLT baseline, the LT counterpart of §7's VanillaIC.

Batched fast path
-----------------

:meth:`RRLTGenerator.generate_batch` advances the reverse walks of a whole
chunk of roots in lockstep: one uniform draw per live walk per step, then
a *vectorized multi-range binary search* over a precomputed per-edge
cumulative-weight array (each head node's in-CSR segment is its selection
distribution) resolves every walk's selected in-neighbour simultaneously —
the bulk counterpart of the oracle's per-step ``searchsorted``.  Walks
retire on childless nodes, on the residual ``1 - sum w`` mass, or on a
closed cycle, exactly like :meth:`generate`; frequency tests assert the
distributions agree.  The uniform draws come straight from the chunk
world's stream (``world.gen``), so RR-LT has no pinned-world mode.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.digraph import DiGraph
from repro.models.lt import _check_lt_instance
from repro.rng import SeedLike, make_rng
from repro.rrset.base import RRSetGenerator
from repro.rrset.sweep import flatten_members, make_state


class RRLTGenerator(RRSetGenerator):
    """Random RR-set sampler for single-item LT.

    Edge probabilities are LT weights; per-node incoming sums must not
    exceed 1 (:func:`~repro.models.lt.normalize_lt_weights`).
    """

    # Each walk step draws against the full in-segment distribution of a
    # chain member, so the edges a set depends on are exactly the
    # in-edges of its members: repair needs only the root column.
    touch_mode = "implicit"
    # One visited bitmap per (member, node); a walk step is cheap, so
    # chunks go up to 65536 members on a fixed schedule.
    _max_members = 65536

    def __init__(self, graph: DiGraph) -> None:
        super().__init__(graph)
        _check_lt_instance(graph)
        self._cum_in: Optional[np.ndarray] = None

    def _in_cumweights(self) -> np.ndarray:
        """Per-edge cumulative LT weight within its head's in-CSR segment.

        ``cum[j]`` is the inclusive prefix sum of ``in_prob`` over the
        segment of the node that edge ``j`` enters — each segment is the
        selection distribution the triggering draw searches.  Computed
        once per generator and shared by every batch.
        """
        if self._cum_in is None:
            in_indptr, _src, in_prob, _eid = self._graph.csr_in()
            total = np.concatenate(([0.0], np.cumsum(in_prob)))
            base = np.repeat(total[in_indptr[:-1]], np.diff(in_indptr))
            self._cum_in = total[1:] - base
        return self._cum_in

    def generate(
        self, *, rng: SeedLike = None, root: Optional[int] = None
    ) -> np.ndarray:
        gen = make_rng(rng)
        graph = self._graph
        if root is None:
            root = int(gen.integers(0, graph.num_nodes))
        visited = {int(root)}
        chain = [int(root)]
        current = int(root)
        while True:
            sources, weights, _eids = graph.in_edges(current)
            if sources.size == 0:
                break
            draw = float(gen.random())
            cumulative = np.cumsum(weights)
            idx = int(np.searchsorted(cumulative, draw, side="right"))
            if idx >= sources.size:
                break  # the residual mass: nobody triggers `current`
            selected = int(sources[idx])
            if selected in visited:
                break  # cycle closed; reachability gains nothing new
            visited.add(selected)
            chain.append(selected)
            current = selected
        return np.asarray(chain, dtype=np.int64)

    def _sweep_chunk(self, roots, world, backend):
        graph = self._graph
        n = graph.num_nodes
        in_indptr, in_src, _in_prob, _in_eid = graph.csr_in()
        cum = self._in_cumweights()
        b = roots.size
        ids = np.arange(b, dtype=np.int64)
        visited = make_state(b, n, backend)
        visited.mark(ids * n + roots)
        member_ids = [ids]
        member_nodes = [roots]
        mem, cur = ids, roots
        while mem.size:
            seg_lo = in_indptr[cur]
            seg_hi = in_indptr[cur + 1]
            walking = seg_hi > seg_lo  # childless nodes end their walk
            if not walking.all():
                mem, cur = mem[walking], cur[walking]
                seg_lo, seg_hi = seg_lo[walking], seg_hi[walking]
            if mem.size == 0:
                break
            draw = world.gen.random(mem.size)
            # Multi-range binary search: per walk, the first edge of
            # its node's segment whose cumulative weight exceeds the
            # draw (the oracle's searchsorted side="right").
            lo = seg_lo.copy()
            hi = seg_hi.copy()
            active = lo < hi
            while active.any():
                mid = (lo[active] + hi[active]) >> 1
                go_right = cum[mid] <= draw[active]
                lo[active] = np.where(go_right, mid + 1, lo[active])
                hi[active] = np.where(go_right, hi[active], mid)
                active = lo < hi
            chose = lo < seg_hi  # else the residual mass: nobody triggers
            if not chose.any():
                break
            mem = mem[chose]
            selected = in_src[lo[chose]]
            keys = mem * n + selected
            fresh = ~visited.get(keys)  # a closed cycle ends the walk
            mem, cur, keys = mem[fresh], selected[fresh], keys[fresh]
            visited.mark(keys)
            member_ids.append(mem)
            member_nodes.append(cur)
        return flatten_members(member_nodes, member_ids, b)


def vanilla_lt_seeds(
    graph: DiGraph,
    k: int,
    *,
    options=None,
    rng: SeedLike = None,
) -> list[int]:
    """VanillaLT: TIM seed selection under classic LT (rank order).

    The LT sibling of
    :func:`~repro.algorithms.baselines.vanilla_ic_seeds`.
    """
    from repro.rrset.tim import TIMOptions, general_tim

    result = general_tim(
        RRLTGenerator(graph), k,
        options=options if options is not None else TIMOptions(),
        rng=rng,
    )
    return result.seeds
