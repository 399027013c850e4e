"""RR-CIM: RR-set generation for CompInfMax (paper Algorithm 4, §6.3).

Valid regime (Theorem 8): mutual complementarity with ``q_{B|A} = 1``.
Here A and B genuinely interact, so resolving the world requires a richer
forward labeling from the fixed A-seed set (Eq. 4): each touched node gets
one of

* ``A-adopted``   — adopts A from the seeds alone;
* ``A-rejected``  — ``alpha_A > q_{A|B}``: can never adopt A;
* ``A-suspended`` — informed of A by an adopted node but needs B's boost;
* ``A-potential`` — would be informed of A only if some upstream suspended
  node were unlocked by B (information *potentially* flows through
  suspended nodes).

Labels strengthen monotonically (none < potential < suspended < adopted),
so the labeling runs as a worklist fixpoint with re-enqueue on promotion —
this realises the paper's "revisit and promote" remark.

The RR-set of a root ``v`` (empty unless ``v`` is suspended or potential)
is found by a primary backward search over AB-diffusible potential nodes,
collecting suspended nodes (Cases 1–2), launching secondary backward
searches through B-diffusible nodes from AB-diffusible suspended ones
(Case 1), and applying the zig-zag check of Case 4 to potential,
non-AB-diffusible nodes.

Local diffusibility predicates (§6.3)::

    AB-diffusible(v):  alpha_A <= q_{A|∅}  or
                       (q_{A|∅} < alpha_A <= q_{A|B} and alpha_B <= q_{B|∅})
    B-diffusible(v):   alpha_B <= q_{B|∅}  or  v labeled A-adopted

Batched fast path
-----------------

:meth:`RRCimGenerator.generate_batch` runs Algorithm 4 for a whole chunk
of independent worlds at once.  The four-label forward pass becomes one
level-synchronous sweep over a flat ``(chunk member, node)`` uint8 state
array: two bits hold the label (none < potential < suspended < adopted),
one bit the terminal rejection flag, and two 2-bit fields memoise each
node's lazily-drawn ``alpha_A`` category (below ``q_{A|∅}`` / between the
GAPs / at or above ``q_{A|B}``) and ``alpha_B`` outcome — the only facts
about the thresholds any phase ever reads.  Promotions re-enqueue exactly
like the oracle's worklist (a node promoted to A-adopted re-expands, since
its targets may now strengthen), so the sweep converges to the same
monotone fixpoint.

The backward half then runs three more bulk sweeps sharing the same state:
the primary searches of all roots, one *multi-source* reverse sweep for
every Case-1 secondary search (the union of per-start searches, valid
because exploration from a node is a function of the memoised world
alone), and per-candidate Case-4 zig-zag forward/backward sweeps laid out
as independent lanes.  Because sub-searches of one world may re-test an
edge, all liveness coins go through the chunk world's shared
:class:`~repro.rrset.sweep.ChunkCoinMemo` — the batched realisation of the
oracle's memoised ``WorldSource`` — so the output distribution matches
:meth:`RRCimGenerator.generate` exactly; ``tests/rrset/
test_batch_equivalence.py`` verifies fixed-world equality (Cases 1–4) and
aggregate frequencies.  Chunks adapt to the observed coin-record size so
memory stays bounded on worlds with large A-reachable regions.
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
from repro.rrset.sweep import make_state, unique_inverse, unique_keys

# Forward-labeling labels, ordered by strength (rejected is terminal).
LABEL_REJECTED = -1
LABEL_NONE = 0
LABEL_POTENTIAL = 1
LABEL_SUSPENDED = 2
LABEL_ADOPTED = 3

# Batched-kernel bitfield over one uint8 per (chunk member, node).  Bits
# 0-1 hold the label (LABEL_NONE .. LABEL_ADOPTED), bit 2 the terminal
# rejection flag (the oracle's LABEL_REJECTED), bits 3-4 the memoised
# alpha_A category and bits 5-6 the memoised alpha_B outcome.
_LBL_MASK = np.uint8(0b11)
_REJ_FLAG = np.uint8(1 << 2)
_AA_SHIFT = 3
_AA_MASK = np.uint8(0b11 << _AA_SHIFT)  # 0 unknown / 1 low / 2 mid / 3 high
_AB_SHIFT = 5
_AB_MASK = np.uint8(0b11 << _AB_SHIFT)  # 0 unknown / 1 pass / 2 fail


def check_rr_cim_regime(gaps: GAP) -> None:
    """Raise :class:`RegimeError` unless Theorem 8's conditions hold."""
    if not gaps.is_rr_cim_regime:
        raise RegimeError(
            "RR-CIM requires mutual complementarity with q_{B|A} = 1; "
            f"got {gaps}"
        )


def forward_label_a_status(
    graph: DiGraph,
    world: WorldSource,
    gaps: GAP,
    seeds_a: Iterable[int],
) -> dict[int, int]:
    """Eq. (4) forward labeling from the A-seeds as a monotone fixpoint.

    Returns a sparse label map; untouched nodes are implicitly LABEL_NONE
    (A-idle, unreachable even potentially).
    """
    label: dict[int, int] = {}
    queue: deque[int] = deque()
    for s in seeds_a:
        s = int(s)
        if label.get(s) != LABEL_ADOPTED:
            label[s] = LABEL_ADOPTED
            queue.append(s)
    while queue:
        u = queue.popleft()
        lab_u = label.get(u, LABEL_NONE)
        if lab_u in (LABEL_NONE, LABEL_REJECTED):
            continue  # stale entry demoted before dequeue cannot occur, but be safe
        targets, probs, eids = graph.out_edges(u)
        for idx in range(targets.size):
            v = int(targets[idx])
            current = label.get(v, LABEL_NONE)
            if current in (LABEL_ADOPTED, LABEL_REJECTED):
                continue
            if not world.edge_live(int(eids[idx]), float(probs[idx])):
                continue
            alpha_a = world.alpha(v, ITEM_A)
            if alpha_a >= gaps.q_a_given_b:
                label[v] = LABEL_REJECTED
                continue
            if lab_u == LABEL_ADOPTED:
                candidate = LABEL_ADOPTED if alpha_a < gaps.q_a else LABEL_SUSPENDED
            else:
                candidate = LABEL_POTENTIAL
            if candidate > current:
                label[v] = candidate
                queue.append(v)
    return label


class RRCimGenerator(RRSetGenerator):
    """Random RR-set sampler for CompInfMax (Algorithm 4)."""

    # All liveness coins flow through the chunk memo (forward labeling
    # records, backward phases replay), so its key record is the exact
    # per-member edge-touch signature for delta repair.
    touch_mode = "recorded"
    # uint8 byte-field plus bool visited per (member, node) dense.  The
    # coin memo grows with the A-region's degree per world, which is
    # only known after sampling, so chunks start at a modest probe and
    # re-size from the memo load at the end of each chunk.
    _state_bytes_per_node = 2
    _max_members = 4096
    _probe_chunk = 128

    def __init__(self, graph: DiGraph, gaps: GAP, seeds_a: Iterable[int]) -> None:
        super().__init__(graph)
        check_rr_cim_regime(gaps)
        self._gaps = gaps
        self._seeds_a = [int(s) for s in seeds_a]
        for s in self._seeds_a:
            if not 0 <= s < graph.num_nodes:
                raise RegimeError(f"A-seed {s} out of range")

    @property
    def gaps(self) -> GAP:
        """The GAP configuration (Q+ with ``q_{B|A} = 1``)."""
        return self._gaps

    @property
    def seeds_a(self) -> list[int]:
        """The fixed A-seed set."""
        return list(self._seeds_a)

    # ------------------------------------------------------------------
    # Diffusibility predicates (local node state in this world)
    # ------------------------------------------------------------------
    def _ab_diffusible(self, world: WorldSource, v: int) -> bool:
        alpha_a = world.alpha(v, ITEM_A)
        if alpha_a < self._gaps.q_a:
            return True
        return alpha_a < self._gaps.q_a_given_b and (
            world.alpha(v, ITEM_B) < self._gaps.q_b
        )

    def _b_diffusible(self, world: WorldSource, v: int, label: dict[int, int]) -> bool:
        if world.alpha(v, ITEM_B) < self._gaps.q_b:
            return True
        # An A-adopted node adopts B on being informed because q_{B|A} = 1.
        return label.get(v, LABEL_NONE) == LABEL_ADOPTED

    # ------------------------------------------------------------------
    # Secondary searches
    # ------------------------------------------------------------------
    def _secondary_backward_b(
        self,
        world: WorldSource,
        label: dict[int, int],
        start: int,
        rr_set: set[int],
    ) -> None:
        """Case 1: every node that can push B to ``start`` joins the RR-set.

        Reverse BFS through B-diffusible nodes; a non-B-diffusible node is
        still added (as a seed it adopts B unconditionally) but not expanded.
        """
        graph = self._graph
        visited = {start}
        queue: deque[int] = deque([start])
        while queue:
            x = queue.popleft()
            sources, probs, eids = graph.in_edges(x)
            for idx in range(sources.size):
                w = int(sources[idx])
                if w in visited:
                    continue
                if not world.edge_live(int(eids[idx]), float(probs[idx])):
                    continue
                visited.add(w)
                rr_set.add(w)
                if self._b_diffusible(world, w, label):
                    queue.append(w)

    def _case4_zigzag(
        self, world: WorldSource, label: dict[int, int], u: int
    ) -> bool:
        """Case 4: does seeding B at ``u`` unlock a suspended node that
        feeds A (and B) back to ``u``?

        Forward search ``Sf``: B-diffusible nodes reachable from ``u``
        through B-diffusible nodes (these would adopt B when ``u`` is the
        B-seed).  Backward search ``Sb``: nodes that can relay a joint A+B
        wave to ``u`` — A-adopted nodes relay unconditionally (``q_{B|A}=1``)
        and suspended/potential nodes relay when AB-diffusible.  ``u``
        qualifies iff some A-suspended node lies in both.
        """
        graph = self._graph
        forward: set[int] = set()
        fvisited = {u}
        queue: deque[int] = deque([u])
        while queue:
            x = queue.popleft()
            targets, probs, eids = graph.out_edges(x)
            for idx in range(targets.size):
                v = int(targets[idx])
                if v in fvisited:
                    continue
                if not world.edge_live(int(eids[idx]), float(probs[idx])):
                    continue
                fvisited.add(v)
                if self._b_diffusible(world, v, label):
                    forward.add(v)
                    queue.append(v)
        if not forward:
            return False
        backward: set[int] = set()
        bvisited = {u}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            sources, probs, eids = graph.in_edges(x)
            for idx in range(sources.size):
                w = int(sources[idx])
                if w in bvisited:
                    continue
                if not world.edge_live(int(eids[idx]), float(probs[idx])):
                    continue
                bvisited.add(w)
                lab_w = label.get(w, LABEL_NONE)
                relays = lab_w == LABEL_ADOPTED or (
                    lab_w in (LABEL_POTENTIAL, LABEL_SUSPENDED)
                    and self._ab_diffusible(world, w)
                )
                if relays:
                    backward.add(w)
                    queue.append(w)
        return any(
            label.get(x, LABEL_NONE) == LABEL_SUSPENDED for x in forward & backward
        )

    # ------------------------------------------------------------------
    # RR-set generation
    # ------------------------------------------------------------------
    def generate(
        self,
        *,
        rng: SeedLike = None,
        root: Optional[int] = None,
        world=None,
        labels: Optional[dict[int, int]] = None,
    ) -> np.ndarray:
        """``world`` injects a fixed possible world (tests/ablations).

        ``labels`` injects a precomputed forward label map (as returned by
        :func:`forward_label_a_status` for the *same* world and A-seeds),
        so repeated fixed-world calls — the batch-equivalence tests sweep
        every root of one world — skip the per-call forward pass instead
        of recomputing it from scratch.
        """
        gen = make_rng(rng)
        if root is None:
            root = int(gen.integers(0, self._graph.num_nodes))
        if world is None:
            world = WorldSource(gen)
        graph = self._graph
        label = (
            labels
            if labels is not None
            else forward_label_a_status(graph, world, self._gaps, self._seeds_a)
        )
        root_label = label.get(root, LABEL_NONE)
        if root_label not in (LABEL_SUSPENDED, LABEL_POTENTIAL):
            # Already adopted, permanently rejected, or unreachable even
            # with B's help: no B-seed changes the root's A status.
            return np.empty(0, dtype=np.int64)

        rr_set: set[int] = set()
        visited = {root}
        queue: deque[int] = deque([root])
        while queue:
            u = queue.popleft()
            lab_u = label.get(u, LABEL_NONE)
            if lab_u == LABEL_SUSPENDED:
                rr_set.add(u)
                if self._ab_diffusible(world, u):
                    # Case 1: remote B-seeds can unlock u.
                    self._secondary_backward_b(world, label, u, rr_set)
                # Case 2 (not AB-diffusible): only u itself as a B-seed works.
            elif lab_u == LABEL_POTENTIAL:
                if self._ab_diffusible(world, u):
                    # Case 3: u transits A+B; continue the primary search.
                    sources, probs, eids = graph.in_edges(u)
                    for idx in range(sources.size):
                        w = int(sources[idx])
                        if w in visited:
                            continue
                        if world.edge_live(int(eids[idx]), float(probs[idx])):
                            visited.add(w)
                            queue.append(w)
                else:
                    # Case 4: u blocks the wave unless seeding B at u
                    # zig-zags through a suspended unlocker.
                    if self._case4_zigzag(world, label, u):
                        rr_set.add(u)
            # Adopted / rejected / untouched nodes end the primary branch.
        return np.fromiter(rr_set, dtype=np.int64, count=len(rr_set))

    # ------------------------------------------------------------------
    # Batched fast path (see module docstring)
    # ------------------------------------------------------------------
    def _alpha_a_cat(self, state, keys: np.ndarray, world) -> np.ndarray:
        """Memoised ``alpha_A`` category of *unique* (member, node) keys:
        1 below ``q_{A|∅}``, 2 between the GAPs, 3 at or above ``q_{A|B}``
        — the only facts about the threshold any phase reads."""
        gaps = self._gaps
        st = state.get(keys)
        cat = (st & _AA_MASK) >> np.uint8(_AA_SHIFT)
        unknown = np.flatnonzero(cat == 0)
        if unknown.size:
            alpha = world.alpha_a(keys[unknown])
            fresh = np.where(
                alpha < gaps.q_a, 1, np.where(alpha < gaps.q_a_given_b, 2, 3)
            ).astype(np.uint8)
            cat[unknown] = fresh
            state.put(keys[unknown], st[unknown] | (fresh << np.uint8(_AA_SHIFT)))
        return cat

    def _alpha_b_pass(self, state, keys: np.ndarray, world) -> np.ndarray:
        """Memoised ``alpha_B < q_{B|∅}`` outcome of *unique* keys."""
        st = state.get(keys)
        stat = (st & _AB_MASK) >> np.uint8(_AB_SHIFT)
        unknown = np.flatnonzero(stat == 0)
        if unknown.size:
            fresh = np.where(
                world.alpha_b(keys[unknown]) < self._gaps.q_b, 1, 2
            ).astype(np.uint8)
            stat[unknown] = fresh
            state.put(keys[unknown], st[unknown] | (fresh << np.uint8(_AB_SHIFT)))
        return stat == 1

    def _ab_diffusible_mask(self, state, keys, world) -> np.ndarray:
        """Bulk AB-diffusibility; keys may repeat across zig-zag lanes, so
        each memoised variable resolves once per distinct key."""
        ukeys, inverse = unique_inverse(keys)
        cat = self._alpha_a_cat(state, ukeys, world)
        ok = cat == 1
        mid = np.flatnonzero(cat == 2)
        if mid.size:
            ok[mid] = self._alpha_b_pass(state, ukeys[mid], world)
        return ok[inverse]

    def _b_diffusible_mask(self, state, keys, world) -> np.ndarray:
        """Bulk B-diffusibility (``alpha_B`` pass, or A-adopted since
        ``q_{B|A} = 1``); duplicate-key safe like the AB variant."""
        ukeys, inverse = unique_inverse(keys)
        ok = (state.get(ukeys) & _LBL_MASK) == LABEL_ADOPTED
        rest = np.flatnonzero(~ok)
        if rest.size:
            ok[rest] = self._alpha_b_pass(state, ukeys[rest], world)
        return ok[inverse]

    def _forward_label_batch(self, b, state, world) -> None:
        """Eq. (4) labeling of ``b`` chunk worlds in two one-pass sweeps.

        The oracle runs a promote-and-requeue worklist, but the fixpoint
        factors: an A-adopted label only ever derives from adopted
        sources, so **Phase A** resolves the adopted closure first (each
        cat-mid target it reaches is thereby *final* suspended), and
        **Phase B** floods the potential wave from every suspended node.
        Each phase expands a node at most once and the phases' expansion
        sets are disjoint (adopted vs. suspended/potential), so every
        edge coin is a first flip — recorded append-only, no lookups —
        and no promotion can ever invalidate an earlier level.
        """
        graph = self._graph
        n, m = graph.num_nodes, graph.num_edges
        out_indptr, out_dst, out_prob, out_eid = graph.csr_out()
        # Dedupe like the oracle's label guard: a seed listed twice must
        # not expand (and flip coins for) its out-edges twice.
        seeds = np.unique(np.asarray(self._seeds_a, dtype=np.int64))
        if seeds.size == 0:
            return
        frontier = (
            np.repeat(np.arange(b, dtype=np.int64), seeds.size) * n
            + np.tile(seeds, b)
        )
        state.or_(frontier, np.uint8(LABEL_ADOPTED))
        susp_frags: list[np.ndarray] = []
        # Phase A: adopted closure; marks suspended / rejected boundaries.
        while frontier.size:
            fmember, fnode = np.divmod(frontier, n)
            reps, flat = expand_csr(out_indptr, fnode)
            if flat.size == 0:
                break
            live = world.first(
                fmember[reps] * m + out_eid[flat], out_prob[flat]
            )
            tkeys = fmember[reps[live]] * n + out_dst[flat[live]]
            if tkeys.size == 0:
                break
            tkeys = unique_keys(tkeys)
            st = state.get(tkeys)
            open_ = ((st & _LBL_MASK) != LABEL_ADOPTED) & ((st & _REJ_FLAG) == 0)
            tkeys = tkeys[open_]
            if tkeys.size == 0:
                break
            cat = self._alpha_a_cat(state, tkeys, world)
            state.or_(tkeys[cat == 3], _REJ_FLAG)  # alpha_A >= q_{A|B}: terminal
            low = tkeys[cat == 1]
            state.or_(low, np.uint8(LABEL_ADOPTED))
            mid = tkeys[cat == 2]
            if mid.size:
                fresh = mid[(state.get(mid) & _LBL_MASK) == LABEL_NONE]
                state.or_(fresh, np.uint8(LABEL_SUSPENDED))
                susp_frags.append(fresh)
            frontier = low
        # Phase B: the potential wave from every suspended node.
        frontier = (
            unique_keys(np.concatenate(susp_frags))
            if susp_frags
            else np.empty(0, dtype=np.int64)
        )
        while frontier.size:
            fmember, fnode = np.divmod(frontier, n)
            reps, flat = expand_csr(out_indptr, fnode)
            if flat.size == 0:
                break
            live = world.first(
                fmember[reps] * m + out_eid[flat], out_prob[flat]
            )
            tkeys = fmember[reps[live]] * n + out_dst[flat[live]]
            if tkeys.size == 0:
                break
            tkeys = unique_keys(tkeys)
            st = state.get(tkeys)
            open_ = ((st & _LBL_MASK) == LABEL_NONE) & ((st & _REJ_FLAG) == 0)
            tkeys = tkeys[open_]
            if tkeys.size == 0:
                break
            cat = self._alpha_a_cat(state, tkeys, world)
            state.or_(tkeys[cat == 3], _REJ_FLAG)
            newpot = tkeys[cat != 3]
            state.or_(newpot, np.uint8(LABEL_POTENTIAL))
            frontier = newpot

    def _primary_batch(
        self, chunk_roots, state, world
    ) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
        """Primary backward searches of all chunk roots in one sweep.

        Returns ``(rr_frags, sec_frags, zig_frags)``: flat (member, node)
        key fragments of suspended RR-members, Case-1 secondary-search
        starts, and Case-4 zig-zag candidates.
        """
        graph = self._graph
        n, m = graph.num_nodes, graph.num_edges
        in_indptr, in_src, in_prob, in_eid = graph.csr_in()
        b = chunk_roots.size
        ids = np.arange(b, dtype=np.int64)
        root_keys = ids * n + chunk_roots
        root_lab = state.get(root_keys) & _LBL_MASK
        alive = (root_lab == LABEL_POTENTIAL) | (root_lab == LABEL_SUSPENDED)
        frontier = root_keys[alive]
        visited = make_state(b, n, state.kind)
        visited.mark(frontier)
        rr_frags: list[np.ndarray] = []
        sec_frags: list[np.ndarray] = []
        zig_frags: list[np.ndarray] = []
        while frontier.size:
            lab = state.get(frontier) & _LBL_MASK
            susp = frontier[lab == LABEL_SUSPENDED]
            if susp.size:
                rr_frags.append(susp)  # Cases 1-2: suspended nodes join
                ab = self._ab_diffusible_mask(state, susp, world)
                if ab.any():
                    sec_frags.append(susp[ab])  # Case 1 starts
            pot = frontier[lab == LABEL_POTENTIAL]
            grow = pot
            if pot.size:
                ab = self._ab_diffusible_mask(state, pot, world)
                blocked = pot[~ab]
                if blocked.size:
                    zig_frags.append(blocked)  # Case 4 candidates
                grow = pot[ab]  # Case 3: transit A+B, continue the search
            if grow.size == 0:
                break
            gmember, gnode = np.divmod(grow, n)
            reps, flat = expand_csr(in_indptr, gnode)
            if flat.size == 0:
                break
            live = world.coin(gmember[reps] * m + in_eid[flat], in_prob[flat])
            tkeys = visited.mark_new(
                gmember[reps[live]] * n + in_src[flat[live]]
            )
            if tkeys.size == 0:
                break
            frontier = tkeys
        return rr_frags, sec_frags, zig_frags

    def _secondary_batch(self, b: int, starts, state, world) -> list[np.ndarray]:
        """Case-1 secondary searches as one multi-source reverse sweep.

        Valid as a union because exploration beyond a node is a function
        of the memoised world alone: whichever start reaches a node first,
        the nodes found beyond it are the same, so the per-start searches
        of the oracle and this multi-source sweep collect the same union.
        """
        graph = self._graph
        n, m = graph.num_nodes, graph.num_edges
        in_indptr, in_src, in_prob, in_eid = graph.csr_in()
        visited = make_state(b, n, state.kind)
        visited.mark(starts)
        frontier = starts  # starts expand unconditionally, as in the oracle
        collected: list[np.ndarray] = []
        while frontier.size:
            fmember, fnode = np.divmod(frontier, n)
            reps, flat = expand_csr(in_indptr, fnode)
            if flat.size == 0:
                break
            live = world.coin(fmember[reps] * m + in_eid[flat], in_prob[flat])
            tkeys = visited.mark_new(
                fmember[reps[live]] * n + in_src[flat[live]]
            )
            if tkeys.size == 0:
                break
            collected.append(tkeys)  # every node that can push B joins
            bd = self._b_diffusible_mask(state, tkeys, world)
            frontier = tkeys[bd]  # non-B-diffusible nodes join, don't expand
        return collected

    def _zigzag_batch(self, cand_keys, state, world) -> np.ndarray:
        """Case-4 checks for all candidates, each as an independent lane.

        Lanes of the same chunk member share its memoised coins and
        thresholds, so running them together (or not at all, once a lane's
        verdict is known) cannot change any outcome.  Returns the subset
        of ``cand_keys`` whose zig-zag succeeds.
        """
        graph = self._graph
        n, m = graph.num_nodes, graph.num_edges
        out_indptr, out_dst, out_prob, out_eid = graph.csr_out()
        in_indptr, in_src, in_prob, in_eid = graph.csr_in()
        passed = np.zeros(cand_keys.size, dtype=bool)
        # Three per-lane states (two visited maps + the Sf-suspended
        # mask), so lanes are budgeted at 3 dense bytes per (lane, node).
        lane_budget = self.sweep.chunk_size(
            n,
            state.kind,
            state_bytes_per_node=3,
            max_members=max(cand_keys.size, 1),
            warn=False,
        )
        for lo in range(0, cand_keys.size, lane_budget):
            keys = cand_keys[lo : lo + lane_budget]
            j = keys.size
            lane_member, lane_node = np.divmod(keys, n)
            lanes = np.arange(j, dtype=np.int64)
            # Forward sweep: Sf = B-diffusible nodes reachable from u.
            fvisited = make_state(j, n, state.kind)
            fvisited.mark(lanes * n + lane_node)
            sf_susp = make_state(j, n, state.kind)  # suspended members of Sf
            any_forward = np.zeros(j, dtype=bool)
            flane, fnode = lanes, lane_node
            while flane.size:
                reps, flat = expand_csr(out_indptr, fnode)
                if flat.size == 0:
                    break
                live = world.coin(
                    lane_member[flane[reps]] * m + out_eid[flat], out_prob[flat]
                )
                lkeys = fvisited.mark_new(
                    flane[reps[live]] * n + out_dst[flat[live]]
                )
                if lkeys.size == 0:
                    break
                tlane, tnode = np.divmod(lkeys, n)
                mkeys = lane_member[tlane] * n + tnode
                bd = self._b_diffusible_mask(state, mkeys, world)
                any_forward[tlane[bd]] = True
                lab = state.get(mkeys) & _LBL_MASK
                sf_susp.mark(lkeys[bd & (lab == LABEL_SUSPENDED)])
                fkeep = lkeys[bd]  # only B-diffusible nodes expand
                flane, fnode = np.divmod(fkeep, n)
            # Backward sweep: Sb = relays feeding a joint A+B wave to u;
            # only lanes whose forward set is non-empty can succeed.
            blane = lanes[any_forward]
            bnode = lane_node[any_forward]
            bvisited = make_state(j, n, state.kind)
            bvisited.mark(blane * n + bnode)
            verdict = np.zeros(j, dtype=bool)
            while blane.size:
                reps, flat = expand_csr(in_indptr, bnode)
                if flat.size == 0:
                    break
                live = world.coin(
                    lane_member[blane[reps]] * m + in_eid[flat], in_prob[flat]
                )
                lkeys = bvisited.mark_new(
                    blane[reps[live]] * n + in_src[flat[live]]
                )
                if lkeys.size == 0:
                    break
                tlane, tnode = np.divmod(lkeys, n)
                mkeys = lane_member[tlane] * n + tnode
                lab = state.get(mkeys) & _LBL_MASK
                relay = lab == LABEL_ADOPTED  # q_{B|A} = 1: relays anything
                maybe = np.flatnonzero(
                    (lab == LABEL_POTENTIAL) | (lab == LABEL_SUSPENDED)
                )
                if maybe.size:
                    relay[maybe] = self._ab_diffusible_mask(
                        state, mkeys[maybe], world
                    )
                rkeys = lkeys[relay]
                rlane = tlane[relay]
                verdict[rlane[sf_susp.get(rkeys)]] = True  # suspended in Sf ∩ Sb
                alive = ~verdict[rlane]  # satisfied lanes stop expanding
                blane, bnode = np.divmod(rkeys[alive], n)
            passed[lo : lo + j] = verdict
        return cand_keys[passed]

    def _sweep_chunk(self, roots, world, backend):
        b = roots.size
        state = make_state(b, self._graph.num_nodes, backend, np.uint8)
        self._forward_label_batch(b, state, world)
        rr_frags, sec_frags, zig_frags = self._primary_batch(roots, state, world)
        if sec_frags:
            rr_frags.extend(
                self._secondary_batch(b, np.concatenate(sec_frags), state, world)
            )
        if zig_frags:
            zig = self._zigzag_batch(np.concatenate(zig_frags), state, world)
            if zig.size:
                rr_frags.append(zig)
        world.measure_load()
        if not rr_frags:
            return np.empty(0, dtype=np.int32), np.zeros(b, dtype=np.int64)
        member, node = np.divmod(
            unique_keys(np.concatenate(rr_frags)), self._graph.num_nodes
        )
        return node.astype(np.int32), np.bincount(member, minlength=b)
