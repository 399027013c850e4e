"""The names the benchmark's tracer patches are the names the kernels call.

``perfbench/tracing.py`` never edits the library: it wraps
``ChunkCoinMemo.lookup_or_draw`` on the class imported from
``repro.rrset.pool`` (the ``rrset.memo`` layer) and ``generate_batch`` on
every class of the ``RRSetGenerator`` tree that defines it (the
``rrset.sample`` layer).  A kernel that stopped reaching either through
those names would silently zero its layer in the traced breakdown, so
this test applies the same patches, the same way, and checks that small
batches of the memo kernels reach both.
"""

import functools
from collections import Counter

import pytest

from repro.graph.generators import power_law_digraph
from repro.models import GAP
from repro.rrset import RRBlockGenerator, RRCimGenerator, RRSimPlusGenerator
from repro.rrset.base import RRSetGenerator
from repro.rrset.pool import ChunkCoinMemo

SEEDS = [0, 3, 7, 11]
KERNELS = {
    "RRSimPlusGenerator": lambda g: RRSimPlusGenerator(
        g, GAP(0.3, 0.8, 0.5, 0.5), SEEDS
    ),
    "RRCimGenerator": lambda g: RRCimGenerator(g, GAP(0.3, 0.8, 0.5, 1.0), SEEDS),
    "RRBlockGenerator": lambda g: RRBlockGenerator(
        g, GAP(0.6, 0.1, 0.7, 0.7), SEEDS
    ),
}


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls through the tracer's patch points, keyed
    ``"memo"`` and ``"sample.<generator class>"``."""
    counts: Counter = Counter()

    def counted(fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key(args)] += 1
            return fn(*args, **kwargs)

        return wrapper

    classes = [RRSetGenerator]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        if "generate_batch" in cls.__dict__:
            monkeypatch.setattr(
                cls,
                "generate_batch",
                counted(
                    cls.__dict__["generate_batch"],
                    lambda args: f"sample.{type(args[0]).__name__}",
                ),
            )
    monkeypatch.setattr(
        ChunkCoinMemo,
        "lookup_or_draw",
        counted(ChunkCoinMemo.__dict__["lookup_or_draw"], lambda args: "memo"),
    )
    return counts


@pytest.mark.parametrize("name", list(KERNELS))
def test_memo_kernels_reach_both_patch_points(calls, name):
    graph = power_law_digraph(400, average_degree=4.0, probability=0.3, rng=5)
    pool = KERNELS[name](graph).generate_batch(1500, rng=17)
    assert len(pool) == 1500
    assert calls[f"sample.{name}"] == 1
    assert calls["memo"] > 0
