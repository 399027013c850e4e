"""Golden pool digests: the batched kernels' RNG draw order is pinned.

Each of the six batched kernels samples 1,500 RR-sets on one 400-node
power-law graph from ``rng=17`` into a ``track_touches=True`` pool, under
both chunk-state backends, at the default chunk schedule and at
``max_chunk_members=37``.  The SHA-256 of the pool's five columns (nodes,
indptr, roots, touch edges, touch indptr; first 16 hex digits here) must
match the recorded value.  Any change to the order or count of the
kernel's draws, to its chunk schedule or to its touch record moves the
digest, which neither the dense-vs-sparse parity tests (same code on
both sides) nor the fixed-world tests (no draws at all) can see.

The digests also depend on numpy's ``Generator.random`` /
``Generator.integers`` streams: a numpy release that changes either
stream changes every digest, and they must then be re-recorded (the
kernels' fixed-world and aggregate-frequency tests say whether the
kernels are still right).
"""

import hashlib

import numpy as np
import pytest

from repro.graph.generators import power_law_digraph
from repro.models import GAP
from repro.models.lt import normalize_lt_weights
from repro.rrset import (
    RRBlockGenerator,
    RRCimGenerator,
    RRICGenerator,
    RRLTGenerator,
    RRSetPool,
    RRSimGenerator,
    RRSimPlusGenerator,
    SweepConfig,
)

ONE_WAY = GAP(0.3, 0.8, 0.5, 0.5)
CIM = GAP(0.3, 0.8, 0.5, 1.0)
BLOCK = GAP(0.6, 0.1, 0.7, 0.7)
SEEDS = [0, 3, 7, 11]
COUNT = 1500

KERNELS = {
    "rr_ic": lambda g: RRICGenerator(g),
    "rr_lt": lambda g: RRLTGenerator(normalize_lt_weights(g)),
    "rr_sim": lambda g: RRSimGenerator(g, ONE_WAY, SEEDS),
    "rr_sim_plus": lambda g: RRSimPlusGenerator(g, ONE_WAY, SEEDS),
    "rr_cim": lambda g: RRCimGenerator(g, CIM, SEEDS),
    "rr_block": lambda g: RRBlockGenerator(g, BLOCK, SEEDS),
}

#: (kernel, max_chunk_members) -> digest; both backends give the same.
GOLDEN = {
    ("rr_ic", None): "46e1ba5e1232beef",
    ("rr_ic", 37): "03352d77513c6020",
    ("rr_lt", None): "0e6cffd5a96d7702",
    ("rr_lt", 37): "9786690ad52d8467",
    ("rr_sim", None): "7364130589b02fb3",
    ("rr_sim", 37): "6ba7c62636505acb",
    ("rr_sim_plus", None): "63ff8e3d4545bfdb",
    ("rr_sim_plus", 37): "38c355e6712e1f9a",
    ("rr_cim", None): "071aa09ba405dae0",
    ("rr_cim", 37): "ddee3a3395a97334",
    ("rr_block", None): "6fcd0a3162f6648c",
    ("rr_block", 37): "78acbbca8b4c4d65",
}


@pytest.fixture(scope="module")
def graph():
    return power_law_digraph(400, average_degree=4.0, probability=0.3, rng=5)


def pool_digest(pool: RRSetPool) -> str:
    h = hashlib.sha256()
    for col in (
        pool.nodes,
        pool.indptr,
        pool.roots,
        pool.touch_edges,
        pool.touch_indptr,
    ):
        h.update(np.ascontiguousarray(col).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("cap", [None, 37], ids=["default", "cap37"])
@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_pool_digest_is_golden(graph, kernel, backend, cap):
    generator = KERNELS[kernel](graph)
    generator.sweep = SweepConfig(state_backend=backend, max_chunk_members=cap)
    pool = generator.generate_batch(
        COUNT, rng=17, out=RRSetPool(graph.num_nodes, track_touches=True)
    )
    assert len(pool) == COUNT
    assert pool_digest(pool) == GOLDEN[kernel, cap]
