"""General RR-set interface (paper Definition 1, §6.1).

For a diffusion model ``M`` with equivalent possible-world model ``M'``,
the RR-set of a root ``v`` in a world ``W`` is::

    R_W(v) = { u : the singleton seed set {u} activates v in W }

A *random* RR-set draws ``W`` from ``M'`` and ``v`` uniformly.  When every
world satisfies

* **(P1)** activation is monotone in the seed set, and
* **(P2)** any activating set contains a singleton activator,

the probability that a seed set ``S`` activates a uniform node equals the
probability that ``S`` intersects a random RR-set (activation equivalence,
Definition 2 / Lemma 5), which is what TIM-style algorithms estimate.

Two sampling paths
------------------

* :meth:`RRSetGenerator.generate` — one root, one lazily-sampled world, a
  per-root Python BFS.  This is the *correctness oracle*: every regime
  implements it, and the batched fast paths are validated against it.
* :meth:`RRSetGenerator.generate_batch` — many roots at once into a flat
  :class:`~repro.rrset.pool.RRSetPool`.  It is the one chunk driver of
  every regime; a regime supplies :meth:`~RRSetGenerator._sweep_chunk`,
  which by default loops the oracle and in the vectorized kernels runs
  level-synchronous bulk sweeps that read whole coin/threshold arrays
  per chunk from the chunk world (:mod:`repro.rrset.sweep`) instead of
  per-edge memoised Python calls.  Generators must stay
  *picklable* (plain graph/GAP/seed attributes, no open resources):
  :class:`~repro.parallel.ParallelEngine` ships a replica to each worker
  process and shards ``generate_batch`` across them, which is also why it
  can itself pose as a generator and drop into TIM/IMM unchanged.  Every paper regime
  now has a fast kernel — RR-IC (:mod:`repro.rrset.rr_ic`), RR-SIM
  (:mod:`repro.rrset.rr_sim`), RR-SIM+ (:mod:`repro.rrset.rr_sim_plus`),
  RR-CIM with its four-label forward pass (:mod:`repro.rrset.rr_cim`),
  classic-LT (:mod:`repro.rrset.rr_lt`) and the blocking suppression-set
  regime (:mod:`repro.rrset.rr_block`) — so TIM / IMM sampling always
  runs batched; only the exotic product-dependent regime
  (:mod:`repro.rrset.rr_sim_product`) still uses the default oracle
  loop.  CI's ``BENCH_rrset.json`` regression gate fails if any fast-path
  regime's batch-vs-oracle speedup drops below its recorded floor.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.graph.digraph import DiGraph
from repro.models.possible_world import PossibleWorld
from repro.rng import SeedLike, make_rng
from repro.rrset.pool import RRSetPool
from repro.rrset.sweep import (
    DEFAULT_SWEEP,
    LazyChunkWorld,
    PinnedChunkWorld,
    SweepConfig,
    adaptive_chunk,
    touches_from_keys,
)


class RRSetGenerator(abc.ABC):
    """A sampler of random RR-sets for one optimisation problem instance.

    Subclasses fix the diffusion model, the GAPs and the opposite seed set;
    :meth:`generate` draws a fresh lazy possible world per call.
    """

    #: How this regime exposes per-member edge-touch information for
    #: delta repair (:mod:`repro.rrset.repair`): ``"recorded"`` kernels
    #: emit explicit sorted edge-id signatures, ``"implicit"`` regimes
    #: test exactly the in-edges of member nodes (so membership alone
    #: decides affectedness), and ``"none"`` regimes cannot be repaired.
    touch_mode: str = "none"

    #: Dense chunk-state bytes per (member, node) and the member cap of
    #: this regime's sweep (:meth:`SweepConfig.chunk_size`); a probe
    #: chunk makes the schedule adaptive, re-sizing each next chunk from
    #: the coin-memo load the sweep measured (:func:`adaptive_chunk`).
    _state_bytes_per_node: int = 1
    _max_members: int = 4096
    _probe_chunk: Optional[int] = None

    def __init__(self, graph: DiGraph) -> None:
        self._graph = graph
        #: chunk-state policy of the batched kernels (backend selection
        #: and per-chunk state budget).  A frozen dataclass, so it
        #: pickles along with the generator to parallel workers.
        self.sweep: SweepConfig = DEFAULT_SWEEP

    @property
    def graph(self) -> DiGraph:
        """The underlying influence graph."""
        return self._graph

    def random_root(self, rng: SeedLike = None) -> int:
        """Draw a uniform random root node.

        Pass an existing :class:`numpy.random.Generator` to advance one
        shared stream; an int (or ``None``) builds a *fresh* generator per
        call, so repeated calls with the same int repeat the same root.
        """
        return int(self.random_roots(1, rng=rng)[0])

    def random_roots(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``count`` uniform roots in one bulk ``integers`` call."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return np.empty(0, dtype=np.int64)
        gen = make_rng(rng)
        return gen.integers(0, self._graph.num_nodes, size=count, dtype=np.int64)

    @abc.abstractmethod
    def generate(self, *, rng: SeedLike = None, root: Optional[int] = None) -> np.ndarray:
        """Return one random RR-set as a unique node-id array.

        ``root`` fixes the root (tests of activation equivalence need this);
        when ``None`` a uniform root is drawn.  Every call samples an
        independent possible world.
        """

    def generate_many(self, count: int, *, rng: SeedLike = None) -> list[np.ndarray]:
        """Generate ``count`` independent random RR-sets (oracle path).

        All roots are drawn in one bulk call, then each RR-set runs the
        per-root :meth:`generate` oracle against the shared stream.
        """
        gen = make_rng(rng)
        roots = self.random_roots(count, rng=gen)
        return [self.generate(rng=gen, root=int(root)) for root in roots]

    def generate_batch(
        self,
        count: int,
        *,
        rng: SeedLike = None,
        roots: Optional[np.ndarray] = None,
        out: Optional[RRSetPool] = None,
        world: Optional[PossibleWorld] = None,
    ) -> RRSetPool:
        """Generate ``count`` RR-sets into a flat :class:`RRSetPool`.

        ``roots`` pins the root of each set (overriding ``count``); ``out``
        appends to an existing pool (IMM's top-up phase) instead of
        building a new one.  ``world`` pins one eagerly-sampled possible
        world shared by every set (fixed-world equivalence tests; only
        kernels that read no raw stream support it); by default each set
        samples its own independent world lazily.

        This is the one chunk driver of every batched kernel: it splits
        the roots into chunks (a fixed schedule, or an adaptive one that
        starts at :attr:`_probe_chunk`), hands each chunk and its world
        (:class:`~repro.rrset.sweep.LazyChunkWorld` or
        :class:`~repro.rrset.sweep.PinnedChunkWorld`) to
        :meth:`_sweep_chunk`, and appends the packed sets with their
        roots and, for ``"recorded"`` regimes on a tracking pool, the
        chunk's edge-touch rows.
        """
        gen = make_rng(rng)
        graph = self._graph
        n, m = graph.num_nodes, graph.num_edges
        pool = out if out is not None else RRSetPool(n)
        if roots is None:
            roots = self.random_roots(count, rng=gen)
        else:
            roots = np.asarray(roots, dtype=np.int64)
        if roots.size == 0:
            return pool
        track = pool.track_touches and self.touch_mode == "recorded"
        backend = self.sweep.resolve_backend(n)
        max_chunk = self.sweep.chunk_size(
            n,
            backend,
            state_bytes_per_node=self._state_bytes_per_node,
            max_members=self._max_members,
        )
        adaptive = self._probe_chunk is not None
        chunk = min(max_chunk, self._probe_chunk) if adaptive else max_chunk
        start = 0
        while start < roots.size:
            chunk_roots = roots[start : start + chunk]
            b = chunk_roots.size
            start += b
            chunk_world = (
                LazyChunkWorld(gen, track)
                if world is None
                else PinnedChunkWorld(world, n, m)
            )
            nodes, lengths = self._sweep_chunk(chunk_roots, chunk_world, backend)
            keys = chunk_world.touched_keys() if track else None
            touch_edges, touch_lengths = (
                (None, None) if keys is None else touches_from_keys(keys, m, b)
            )
            pool.append_flat(
                nodes,
                lengths,
                roots=chunk_roots,
                touch_edges=touch_edges,
                touch_lengths=touch_lengths,
            )
            if adaptive:
                chunk = adaptive_chunk(chunk_world.load, b, max_chunk)
        return pool

    def _sweep_chunk(self, roots: np.ndarray, world, backend: str):
        """Sample the RR-sets of one chunk of ``roots`` in ``world``.

        Returns ``(nodes, lengths)`` packed for
        :meth:`~repro.rrset.pool.RRSetPool.append_flat`.  ``backend`` is
        the resolved chunk-state layout.  This default is the per-root
        oracle loop against the chunk world's stream; regimes with
        vectorized kernels override it with level-synchronous sweeps of
        identical output distribution.
        """
        sets = [self.generate(rng=world.gen, root=int(root)) for root in roots]
        lengths = np.array([s.size for s in sets], dtype=np.int64)
        return np.concatenate(sets), lengths
