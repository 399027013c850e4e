"""The list-based greedy maximum coverage the pooled greedy is tested against.

:func:`repro.rrset.greedy_max_coverage` runs on a flat pool with
vectorized invalidation; this is the straightforward per-list version with
inner Python loops.  Both must produce identical seeds, coverage and gains
on the same input (``candidates`` restriction included).
"""

import numpy as np

from repro.errors import SeedSetError


def greedy_max_coverage_legacy(rr_sets, n, k, *, candidates=None):
    """Per-list greedy: ``(seeds, total_covered, marginal_gains)``."""
    if k < 0:
        raise SeedSetError(f"k must be non-negative, got {k}")
    counts = np.zeros(n, dtype=np.int64)
    index: dict[int, list[int]] = {}
    for set_id, rr_set in enumerate(rr_sets):
        for node in rr_set:
            node = int(node)
            counts[node] += 1
            index.setdefault(node, []).append(set_id)
    picks = min(k, n)
    if candidates is not None:
        cand = np.unique(np.asarray(list(candidates), dtype=np.int64))
        if cand.size and (cand[0] < 0 or cand[-1] >= n):
            raise SeedSetError(f"candidate node ids must lie in [0, {n - 1}]")
        allowed = np.zeros(n, dtype=bool)
        allowed[cand] = True
        counts[~allowed] = -1
        picks = min(k, int(cand.size))
    covered = np.zeros(len(rr_sets), dtype=bool)
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
            counts[best] = -1
            continue
        for set_id in index.get(best, ()):  # invalidate covered sets
            if covered[set_id]:
                continue
            covered[set_id] = True
            for node in rr_sets[set_id]:
                counts[int(node)] -= 1
        counts[best] = -1
    return seeds, total, gains
