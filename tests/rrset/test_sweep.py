"""The shared sweep engine: config policy, backend ops, kernel parity.

Three layers of evidence that the sparse chunk-state backend is a pure
memory-layout change:

* **Backend operations** — randomized op sequences against
  ``DenseState``/``SparseState``, as flag sets and as value states,
  must agree call-for-call (the sparse side also through its
  ``record`` fast lane and both of its tiers).
* **Fixed-world kernel parity** — all six batched RR kernels, pinned to
  one chunk schedule via ``max_chunk_members`` (the schedule fixes the
  coin-draw order), must emit *bit-identical* pools under either
  backend.
* **State-byte regression** — at million-node scale the sparse backend
  sustains the chunk sizes the dense layout cannot (the ISSUE's
  ``>= 256`` vs ``<= 16`` acceptance bound), and its held bytes scale
  with touched keys, not ``chunk * num_nodes``.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.graph.generators import power_law_digraph
from repro.models import GAP
from repro.models.lt import normalize_lt_weights
from repro.rng import make_rng
from repro.rrset import (
    RRBlockGenerator,
    RRCimGenerator,
    RRICGenerator,
    RRLTGenerator,
    RRSimGenerator,
    RRSimPlusGenerator,
)
from repro.rrset.sweep import (
    DEFAULT_CHUNK_STATE_BYTES,
    DEFAULT_SPARSE_NODES_THRESHOLD,
    DEGENERATE_DENSE_CHUNK,
    DenseState,
    SparseState,
    SweepConfig,
    adaptive_chunk,
    make_state,
)

GAPS_ONE_WAY = GAP(q_a=0.3, q_a_given_b=0.8, q_b=0.5, q_b_given_a=0.5)
GAPS_CIM = GAP(q_a=0.3, q_a_given_b=0.8, q_b=0.5, q_b_given_a=1.0)
GAPS_BLOCK = GAP(q_a=0.6, q_a_given_b=0.1, q_b=0.7, q_b_given_a=0.7)

MILLION = 1_000_000


@pytest.fixture(scope="module")
def random_graph():
    return power_law_digraph(120, average_degree=4.0, probability=0.4, rng=5)


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.chunk_state_bytes == DEFAULT_CHUNK_STATE_BYTES
        assert cfg.state_backend == "auto"
        assert cfg.max_chunk_members is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_state_bytes": 0},
            {"chunk_state_bytes": 2.5},
            {"state_backend": "mmap"},
            {"state_backend": None},
            {"max_chunk_members": 0},
            {"max_chunk_members": "many"},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)

    def test_auto_switches_at_threshold(self):
        cfg = SweepConfig()
        assert cfg.resolve_backend(DEFAULT_SPARSE_NODES_THRESHOLD - 1) == "dense"
        assert cfg.resolve_backend(DEFAULT_SPARSE_NODES_THRESHOLD) == "sparse"
        assert cfg.resolve_backend(MILLION) == "sparse"

    def test_explicit_backend_ignores_node_count(self):
        assert SweepConfig(state_backend="dense").resolve_backend(MILLION) == "dense"
        assert SweepConfig(state_backend="sparse").resolve_backend(10) == "sparse"

    def test_million_node_chunks_meet_acceptance_bounds(self):
        """The ISSUE's scale criterion: within the default budget a
        sparse chunk sustains >= 256 members where dense affords <= 16."""
        cfg = SweepConfig()
        dense = cfg.chunk_size(
            MILLION, "dense", state_bytes_per_node=1, warn=False
        )
        sparse = cfg.chunk_size(MILLION, "sparse", state_bytes_per_node=1)
        assert dense <= 16
        assert sparse >= 256
        # dense chunk state honours the budget; the sparse chunk's dense
        # equivalent would blow through it ~256x over
        assert dense * MILLION <= cfg.chunk_state_bytes
        assert sparse * MILLION > cfg.chunk_state_bytes

    def test_dense_chunk_scales_with_state_bytes(self):
        cfg = SweepConfig(chunk_state_bytes=1 << 20)
        one = cfg.chunk_size(1 << 10, "dense", state_bytes_per_node=1)
        two = cfg.chunk_size(1 << 10, "dense", state_bytes_per_node=2)
        assert one == 1024 and two == 512

    def test_max_chunk_members_pins_both_backends(self):
        cfg = SweepConfig(max_chunk_members=8)
        assert cfg.chunk_size(100, "dense") == 8
        assert cfg.chunk_size(100, "sparse") == 8
        assert cfg.chunk_size(MILLION, "sparse") == 8

    def test_degenerate_dense_chunk_warns_and_names_the_fix(self):
        # 4M nodes push the dense chunk to 4 members — under the
        # degeneracy bar (a 1M-node graph sits exactly at 16).
        cfg = SweepConfig()
        with pytest.warns(RuntimeWarning, match="sparse"):
            chunk = cfg.chunk_size(4 * MILLION, "dense", state_bytes_per_node=1)
        assert chunk < DEGENERATE_DENSE_CHUNK

    def test_no_warning_when_suppressed_or_healthy(self):
        cfg = SweepConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg.chunk_size(MILLION, "dense", warn=False)
            cfg.chunk_size(MILLION, "sparse")  # sparse never degenerates
            cfg.chunk_size(1 << 10, "dense")  # comfortable dense chunk


class TestBackendOperationEquivalence:
    """Randomized op sequences must agree between the two layouts."""

    LANES, NODES = 7, 211

    def _random_keys(self, gen, size):
        return gen.integers(0, self.LANES * self.NODES, size=size)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flags_agree(self, seed):
        gen = make_rng(seed)
        dense = make_state(self.LANES, self.NODES, "dense")
        sparse = make_state(self.LANES, self.NODES, "sparse")
        assert isinstance(dense, DenseState) and isinstance(sparse, SparseState)
        for _ in range(40):
            op = gen.integers(0, 3)
            keys = self._random_keys(gen, int(gen.integers(0, 50)))
            if op == 0:
                assert np.array_equal(dense.get(keys), sparse.get(keys))
            elif op == 1:
                dense.mark(keys)
                sparse.mark(keys)
            else:
                fresh_d = dense.mark_new(keys)
                fresh_s = sparse.mark_new(keys)
                assert np.array_equal(fresh_d, fresh_s)
        probe = np.arange(self.LANES * self.NODES)
        assert np.array_equal(dense.get(probe), sparse.get(probe))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8])
    def test_values_agree(self, dtype):
        gen = make_rng(13)
        dense = make_state(self.LANES, self.NODES, "dense", dtype)
        sparse = make_state(self.LANES, self.NODES, "sparse", dtype)
        assert isinstance(dense, DenseState) and isinstance(sparse, SparseState)
        for _ in range(40):
            op = gen.integers(0, 3)
            keys = np.unique(self._random_keys(gen, int(gen.integers(0, 50))))
            vals = gen.integers(0, 8, size=keys.size).astype(dtype)
            if op == 0:
                probe = self._random_keys(gen, 64)  # repeats allowed on get
                assert np.array_equal(dense.get(probe), sparse.get(probe))
            elif op == 1:
                dense.put(keys, vals)
                sparse.put(keys, vals)
            else:
                dense.or_(keys, vals)
                sparse.or_(keys, vals)
        probe = np.arange(self.LANES * self.NODES)
        assert np.array_equal(dense.get(probe), sparse.get(probe))

    @pytest.mark.parametrize("dtype", [bool, np.uint8])
    def test_record_lane_and_overlay_agree(self, dtype):
        # The sparse base tier takes record() fragments (sorted lazily);
        # every later write either updates a key in place, in whichever
        # tier holds it, or merges into the overlay.  Reads must see both.
        gen = make_rng(21)
        size = self.LANES * self.NODES
        dense = make_state(self.LANES, self.NODES, "dense", dtype)
        sparse = make_state(self.LANES, self.NODES, "sparse", dtype)
        written = np.zeros(size, dtype=bool)  # keys the sparse side holds
        for _ in range(30):
            op = gen.integers(0, 3)
            if op == 0:
                # record() promises keys never seen before.
                keys = gen.permutation(np.flatnonzero(~written))[:20]
                vals = gen.integers(1, 8, size=keys.size).astype(dtype)
                dense.put(keys, vals)
                sparse.record(keys, None if dtype is bool else vals)
            elif op == 1 and dtype is bool:
                keys = self._random_keys(gen, 30)
                assert np.array_equal(dense.mark_new(keys), sparse.mark_new(keys))
            elif op == 1:
                keys = np.unique(self._random_keys(gen, 30))
                vals = gen.integers(0, 8, size=keys.size).astype(dtype)
                dense.put(keys, vals)
                sparse.put(keys, vals)
            else:
                probe = self._random_keys(gen, 64)
                assert np.array_equal(dense.get(probe), sparse.get(probe))
                continue
            written[keys] = True
        probe = np.arange(size)
        assert np.array_equal(dense.get(probe), sparse.get(probe))
        assert np.array_equal(sparse.keys(), np.flatnonzero(written))
        assert sparse.size == np.count_nonzero(written)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            make_state(1, 10, "auto")  # must be resolved first
        with pytest.raises(ValueError, match="backend"):
            make_state(1, 10, "mmap", np.int8)

    def test_adaptive_chunk_keeps_memo_near_budget(self):
        assert adaptive_chunk(0, 256, 8192) == 8192  # an empty memo: no cap
        assert adaptive_chunk(256 * 4096, 256, 8192) == 4096  # 4096 coins each
        assert adaptive_chunk(10**12, 1, 8192) == 1  # never below one member


class TestPeakStateBytes:
    """Sparse state scales with touched keys, dense with chunk * n."""

    def test_dense_flags_bytes_are_chunk_times_nodes(self):
        flags = make_state(16, MILLION, "dense")
        assert flags.nbytes == 16 * MILLION
        assert flags.nbytes <= DEFAULT_CHUNK_STATE_BYTES

    def test_sparse_chunk_4096_fits_default_budget(self):
        # A 4096-member chunk — 256x the dense ceiling — holds well under
        # the default budget even after touching 100k (member, node) keys,
        # where the dense layout would need 4 GB.
        flags = make_state(4096, MILLION, "sparse")
        gen = make_rng(0)
        flags.mark(gen.integers(0, 4096 * MILLION, size=100_000))
        assert flags.nbytes <= 8 * 100_000
        assert flags.nbytes < DEFAULT_CHUNK_STATE_BYTES

    def test_sparse_values_bytes_track_touched_keys(self):
        vals = make_state(4096, MILLION, "sparse", np.uint8)
        assert vals.nbytes == 0
        keys = np.arange(0, 9_000, 3, dtype=np.int64)
        vals.put(keys, np.ones(keys.size, dtype=np.uint8))
        assert vals.nbytes == keys.size * (8 + 1)


#: (regime id, generator factory) for all six batched kernels.
REGIMES = [
    ("rr_ic", lambda g: RRICGenerator(g)),
    ("rr_lt", lambda g: RRLTGenerator(normalize_lt_weights(g))),
    ("rr_sim", lambda g: RRSimGenerator(g, GAPS_ONE_WAY, [0, 3, 7])),
    ("rr_sim_plus", lambda g: RRSimPlusGenerator(g, GAPS_ONE_WAY, [0, 3, 7])),
    ("rr_cim", lambda g: RRCimGenerator(g, GAPS_CIM, [0, 3, 7])),
    ("rr_block", lambda g: RRBlockGenerator(g, GAPS_BLOCK, [0, 3, 7])),
]


class TestBackendKernelParity:
    """Dense and sparse sweeps emit bit-identical pools in every regime.

    Backends consume no randomness, but the chunk schedule fixes the
    order bulk coins are drawn in — so both runs pin
    ``max_chunk_members`` to the same small value (also forcing many
    chunks per batch, exercising cross-chunk state resets).
    """

    COUNT = 300

    @pytest.mark.parametrize("regime,factory", REGIMES, ids=[r for r, _ in REGIMES])
    def test_pools_bit_identical(self, random_graph, regime, factory):
        pools = {}
        for backend in ("dense", "sparse"):
            generator = factory(random_graph)
            generator.sweep = SweepConfig(
                state_backend=backend, max_chunk_members=8
            )
            pools[backend] = generator.generate_batch(self.COUNT, rng=17)
        dense, sparse = pools["dense"], pools["sparse"]
        assert len(dense) == len(sparse) == self.COUNT
        assert np.array_equal(np.asarray(dense.nodes), np.asarray(sparse.nodes))
        assert np.array_equal(np.asarray(dense.indptr), np.asarray(sparse.indptr))

    @pytest.mark.parametrize("regime,factory", REGIMES, ids=[r for r, _ in REGIMES])
    def test_auto_matches_explicit_dense_on_small_graph(
        self, random_graph, regime, factory
    ):
        # Below the threshold "auto" must be byte-for-byte the dense path.
        pools = {}
        for backend in ("dense", "auto"):
            generator = factory(random_graph)
            generator.sweep = SweepConfig(state_backend=backend)
            pools[backend] = generator.generate_batch(self.COUNT, rng=29)
        assert np.array_equal(
            np.asarray(pools["dense"].nodes), np.asarray(pools["auto"].nodes)
        )
        assert np.array_equal(
            np.asarray(pools["dense"].indptr), np.asarray(pools["auto"].indptr)
        )


class TestEngineConfigIntegration:
    def test_sweep_config_is_frozen_and_picklable(self):
        import pickle

        cfg = SweepConfig(state_backend="sparse", max_chunk_members=64)
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.state_backend = "dense"
