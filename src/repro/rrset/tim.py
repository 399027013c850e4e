"""GeneralTIM: two-phase influence maximization over general RR-sets.

Implements Algorithm 1 of the paper, which instantiates the TIM algorithm
of Tang et al. [24] on any :class:`~repro.rrset.base.RRSetGenerator`:

1. **Parameter estimation** — a lower bound ``KPT`` of ``OPT_k`` is
   estimated from pilot RR-sets (the ``KptEstimation`` routine of [24]):
   for a random RR-set ``R``, ``kappa(R) = 1 - (1 - w(R)/m)^k`` with
   ``w(R)`` the number of edges entering ``R``; its mean, scaled by ``n``,
   lower-bounds the optimum.  The required sample count follows Eq. (3)::

       theta = (8 + 2 eps) n (ell ln n + ln C(n, k) + ln 2) / (eps^2 KPT)

2. **Node selection** — greedy maximum coverage over the ``theta``
   sampled RR-sets (:func:`greedy_max_coverage`).

Both phases run on the batched RR-set engine: sampling goes through
:meth:`~repro.rrset.base.RRSetGenerator.generate_batch` into one flat
:class:`~repro.rrset.pool.RRSetPool`, widths and coverage statistics are
``np.bincount`` passes over the pool, and :func:`greedy_max_coverage`
invalidates covered sets with vectorized ``np.subtract.at`` updates — so
selection is O(total RR-set size) with no inner Python loop.

Pure Python cannot afford the paper's million-edge ``theta`` values, so
``TIMOptions.max_rr_sets`` caps the sample size (and ``theta_override``
pins it for benchmarks); the cap trades the formal guarantee for bounded
running time exactly as larger ``eps`` does, and the Fig.-4 reproduction
shows seed quality is insensitive to it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro import faults
from repro.deadline import Deadline, current_deadline, deadline_scope
from repro.errors import DeadlineExceeded, SeedSetError
from repro.graph.digraph import expand_csr
from repro.rng import SeedLike, make_rng
from repro.rrset.base import RRSetGenerator
from repro.rrset.pool import RRSetPool

RRSets = Union[RRSetPool, Sequence[np.ndarray]]


@dataclass(frozen=True)
class TIMOptions:
    """Knobs of :func:`general_tim`.

    ``epsilon`` trades accuracy for speed (paper Fig. 4 uses 0.5); ``ell``
    sets the success probability ``1 - n^-ell``.  ``max_rr_sets`` caps the
    sample size for tractability; ``theta_override`` skips estimation
    entirely and uses the given count.
    """

    epsilon: float = 0.5
    ell: float = 1.0
    max_rr_sets: int = 50_000
    min_rr_sets: int = 200
    theta_override: Optional[int] = None

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.ell <= 0.0:
            raise ValueError(f"ell must be positive, got {self.ell}")
        if self.max_rr_sets < 1:
            raise ValueError(f"max_rr_sets must be >= 1, got {self.max_rr_sets}")


@dataclass
class TIMResult:
    """Output of :func:`general_tim`."""

    seeds: list[int]
    theta: int
    #: the theta asked for before the ``[min_rr_sets, max_rr_sets]`` clip
    #: (Eq. (3) from KPT, or ``theta_override``).  Above ``max_rr_sets``
    #: it marks a run capped below its accuracy target — e.g. when KPT's
    #: pilot budget ran out and left its fallback of 1.0.
    theta_required: int
    kpt: float
    coverage: int
    #: ``n * coverage / theta`` — the RR-set estimate of the objective
    #: (spread for SelfInfMax-style problems, boost for CompInfMax).
    estimated_objective: float
    #: marginal coverage gain of each selected seed, in selection order.
    marginal_coverage: list[int] = field(default_factory=list)
    #: whether a wall-clock deadline clipped sampling: the seeds were
    #: selected best-effort over fewer RR-sets than the accuracy target.
    degraded: bool = False
    #: human-readable reason when ``degraded`` (machine consumers should
    #: key off the flag, not parse this).
    degraded_reason: Optional[str] = None


def _log_n_choose_k(n: int, k: int) -> float:
    """``ln C(n, k)`` via lgamma (exact enough for Eq. (3))."""
    if k < 0 or k > n:
        return 0.0
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def _arm_top_up_fault() -> None:
    """Fault-injection hook fired once per sampling chunk (test-only)."""
    spec = faults.fire("engine.top_up")
    if spec is None:
        return
    if spec.kind == "slow":
        time.sleep(spec.delay_s)
    elif spec.kind == "error":
        raise faults.InjectedFault(spec.site, spec.kind)


def cooperative_top_up(
    generator: RRSetGenerator,
    target: int,
    pool: RRSetPool,
    rng: SeedLike,
    *,
    deadline: Optional[Deadline] = None,
    floor: int = 0,
) -> bool:
    """Grow ``pool`` to ``target`` sets, cooperating with ``deadline``.

    Without a deadline this is one ``generate_batch`` call — the
    original top-up, bit-for-bit.  With one, the request is split into
    chunks with an expiry check between them (so a runaway theta cannot
    blow the budget by more than one chunk), and the first ``floor``
    sets are sampled with the deadline *suspended* — a best-effort
    answer over zero RR-sets would be meaningless, so every selection is
    guaranteed at least the floor even when the budget is already gone.

    Returns whether ``target`` was reached; ``False`` means the caller
    should select over what the pool holds and mark the result degraded.
    """
    target = int(target)
    if deadline is None:
        if len(pool) < target:
            _arm_top_up_fault()
            generator.generate_batch(target - len(pool), rng=rng, out=pool)
        return True
    floor = min(int(floor), target)
    if len(pool) < floor:
        _arm_top_up_fault()
        with deadline_scope(None):
            generator.generate_batch(floor - len(pool), rng=rng, out=pool)
    chunk = max(512, (target - len(pool) + 7) // 8)
    while len(pool) < target:
        if deadline.expired():
            return False
        _arm_top_up_fault()
        try:
            step = min(chunk, target - len(pool))
            generator.generate_batch(step, rng=rng, out=pool)
        except DeadlineExceeded:
            return False
    return True


def estimate_kpt(
    generator: RRSetGenerator,
    k: int,
    *,
    ell: float = 1.0,
    rng: SeedLike = None,
    max_rr_sets: int = 10_000,
    pool: Optional[RRSetPool] = None,
    deadline: Optional[Deadline] = None,
) -> float:
    """The ``KptEstimation`` lower bound on ``OPT_k`` from [24], §4.1.

    Iterates ``i = 1 .. log2(n) - 1``, sampling ``c_i ∝ 2^i`` RR-sets; stops
    when the mean ``kappa`` exceeds ``2^-i`` and returns ``n * mean / 2``.
    Falls back to 1 (every seed set reaches at least its own seeds).
    Each round samples through the batched engine and evaluates every
    width ``w(R)`` in one pooled ``bincount`` pass.

    With ``pool`` (the session-reuse path) rounds consume consecutive
    slices of the shared pool instead of throwaway batches, topping the
    pool up only when it runs short — so pilot RR-sets are sampled at most
    once per session and are reused by the selection phase afterwards.

    ``deadline`` makes the estimation cooperative: an expired budget ends
    the iteration early and returns the weakest valid bound seen so far
    (the caller's theta then clips at ``max_rr_sets`` and its own top-up
    degrades in turn).
    """
    graph = generator.graph
    n, m = graph.num_nodes, graph.num_edges
    if n < 2 or m == 0:
        return 1.0
    gen = make_rng(rng)
    in_degrees = graph.in_degrees
    log2n = max(int(math.log2(n)), 1)
    budget = max_rr_sets
    offset = 0
    for i in range(1, log2n):
        if deadline is not None and deadline.expired():
            break
        c_i = int(math.ceil((6 * ell * math.log(n) + 6 * math.log(log2n)) * 2**i))
        c_i = min(c_i, budget)
        if c_i <= 0:
            break
        try:
            if pool is None:
                batch = generator.generate_batch(c_i, rng=gen)
                widths = batch.widths(in_degrees)
            else:
                if len(pool) < offset + c_i:
                    generator.generate_batch(
                        offset + c_i - len(pool), rng=gen, out=pool
                    )
                widths = pool.widths(in_degrees, start=offset, stop=offset + c_i)
                offset += c_i
        except DeadlineExceeded:
            break
        mean_kappa = float(np.mean(1.0 - (1.0 - widths / m) ** k))
        budget -= c_i
        if mean_kappa > 1.0 / (2**i):
            return max(n * mean_kappa / 2.0, 1.0)
        if budget <= 0:
            break
    return 1.0


def compute_theta(
    n: int, k: int, kpt: float, *, epsilon: float, ell: float
) -> int:
    """Required number of RR-sets per Eq. (3) with ``KPT`` in place of OPT."""
    lam = (
        (8.0 + 2.0 * epsilon)
        * n
        * (ell * math.log(n) + _log_n_choose_k(n, k) + math.log(2.0))
        / (epsilon**2)
    )
    return max(int(math.ceil(lam / max(kpt, 1.0))), 1)


def _candidate_array(candidates, n: int) -> np.ndarray:
    """Validate a candidate node pool into a sorted unique id array."""
    cand = np.unique(np.asarray(list(candidates), dtype=np.int64))
    if cand.size and (cand[0] < 0 or cand[-1] >= n):
        raise SeedSetError(
            f"candidate node ids must lie in [0, {n - 1}]"
        )
    return cand


def greedy_max_coverage(
    rr_sets: RRSets, n: int, k: int, *, candidates=None
) -> tuple[list[int], int, list[int]]:
    """Greedy maximum coverage: pick ``k`` nodes covering most RR-sets.

    Returns ``(seeds, total_covered, marginal_gains)``.  Accepts a flat
    :class:`~repro.rrset.pool.RRSetPool` (the fast path; sequences of
    per-set arrays are packed into one first).  The counting structure is
    fully vectorized: initial per-node counts are one ``bincount``, the
    inverted node → sets index one stable argsort of the flat pool, and
    invalidating a pick's covered sets decrements all their members with a
    single ``np.subtract.at`` — every flat entry is touched O(1) times, so
    selection is O(total RR-set size + k) after the O(size log size) index
    build.  Tie-breaking picks the lowest node id among maxima.

    ``candidates`` restricts the pickable nodes (the blocking / focal
    multi-item workloads exclude occupied seeds this way); sets are still
    counted in full, only the argmax is confined.  At most
    ``min(k, len(candidates))`` seeds are returned.
    """
    if k < 0:
        raise SeedSetError(f"k must be non-negative, got {k}")
    pool = (
        rr_sets
        if isinstance(rr_sets, RRSetPool)
        else RRSetPool.from_sets(n, rr_sets)
    )
    nodes = pool.nodes
    indptr = pool.indptr
    num_sets = len(pool)
    incidence = np.bincount(nodes, minlength=n)[:n]
    counts = incidence.astype(np.int64)
    picks = min(k, n)
    if candidates is not None:
        cand = _candidate_array(candidates, n)
        allowed = np.zeros(n, dtype=bool)
        allowed[cand] = True
        counts[~allowed] = -1
        picks = min(k, int(cand.size))
    # Inverted index: entries of the flat pool grouped by node.
    order = np.argsort(nodes, kind="stable")
    sets_by_node = pool.set_ids()[order]
    node_starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(incidence, out=node_starts[1:])
    covered = np.zeros(num_sets, dtype=bool)
    seeds: list[int] = []
    gains: list[int] = []
    total = 0
    for _ in range(picks):
        best = int(np.argmax(counts))
        gain = int(counts[best])
        seeds.append(best)
        gains.append(gain)
        total += gain
        if gain == 0:
            # No RR-set left uncovered; remaining picks are arbitrary but we
            # avoid repeating an already-chosen node.
            counts[best] = -1
            continue
        incident = sets_by_node[node_starts[best] : node_starts[best + 1]]
        newly = incident[~covered[incident]]
        covered[newly] = True
        _reps, flat = expand_csr(indptr, newly, with_reps=False)
        if flat.size:
            np.subtract.at(counts, nodes[flat], 1)
        counts[best] = -1
    return seeds, total, gains


def general_tim(
    generator: RRSetGenerator,
    k: int,
    *,
    options: Optional[TIMOptions] = None,
    rng: SeedLike = None,
    pool: Optional[RRSetPool] = None,
    candidates=None,
    deadline: Optional[Deadline] = None,
) -> TIMResult:
    """Run GeneralTIM (Algorithm 1) and return the selected seed set.

    ``pool`` opts into cross-run RR-set reuse: KPT pilots and selection
    samples are appended to (and read back from) the caller-owned pool, so
    a later run that needs a larger ``theta`` tops the pool up instead of
    resampling from scratch.  The pool may come from anywhere sets of the
    right distribution do — a live session cache, an on-disk
    :class:`~repro.store.PoolStore` snapshot (possibly memory-mapped), or
    a :class:`~repro.parallel.ParallelEngine` merge — and ``generator``
    may itself be a parallel wrapper; both phases are agnostic.  Selection then covers *every* pooled set
    (``>= theta``), which only sharpens the estimate; ``TIMResult.theta``
    reports the number of sets actually used.  Without ``pool`` the
    original single-shot behaviour is unchanged.  ``candidates`` restricts
    the pickable seed nodes (see :func:`greedy_max_coverage`); sampling is
    unrestricted, so pools stay shareable across candidate sets.

    ``deadline`` (explicit, or ambient via
    :func:`repro.deadline.current_deadline`) makes sampling cooperative:
    when the budget expires, selection runs best-effort over whatever
    the pool holds (never fewer than ``min_rr_sets``) and the result is
    stamped ``degraded=True``.
    """
    if options is None:
        options = TIMOptions()
    if deadline is None:
        deadline = current_deadline()
    graph = generator.graph
    n = graph.num_nodes
    if k < 0 or k > n:
        raise SeedSetError(f"k must lie in [0, {n}], got {k}")
    gen = make_rng(rng)
    if options.theta_override is not None:
        kpt = float("nan")
        theta = int(options.theta_override)
    else:
        kpt = estimate_kpt(
            generator,
            k,
            ell=options.ell,
            rng=gen,
            max_rr_sets=max(options.max_rr_sets // 4, 100),
            pool=pool,
            deadline=deadline,
        )
        theta = compute_theta(n, k, kpt, epsilon=options.epsilon, ell=options.ell)
    theta_required = int(theta)
    theta = int(np.clip(theta, options.min_rr_sets, options.max_rr_sets))
    if pool is None:
        pool = RRSetPool(n)
    completed = cooperative_top_up(
        generator, theta, pool, gen,
        deadline=deadline, floor=min(options.min_rr_sets, theta),
    )
    selection = pool
    if options.theta_override is not None and len(pool) > theta:
        # A pinned theta is a pin even against a warm pool: select over
        # exactly theta sets so fixed-sample-count comparisons stay honest.
        selection = pool.prefix(theta)
    elif len(pool) > options.max_rr_sets:
        # max_rr_sets is the tractability contract: a warm pool larger than
        # this query's cap is consumed only up to the cap.
        selection = pool.prefix(options.max_rr_sets)
    used = len(selection)
    seeds, covered, gains = greedy_max_coverage(
        selection, n, k, candidates=candidates
    )
    degraded_reason = None
    if not completed:
        degraded_reason = (
            f"deadline of {deadline.budget_s:g}s expired during sampling: "
            f"selected best-effort over {used} of {theta} RR-sets"
        )
    return TIMResult(
        seeds=seeds,
        theta=used,
        theta_required=theta_required,
        kpt=kpt,
        coverage=covered,
        estimated_objective=n * covered / used if used else 0.0,
        marginal_coverage=gains,
        degraded=not completed,
        degraded_reason=degraded_reason,
    )
