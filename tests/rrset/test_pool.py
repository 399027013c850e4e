"""Tests for the flat RR-set pool (CSR-of-sets storage)."""

import numpy as np
import pytest

from repro.graph.digraph import expand_csr
from repro.rrset import RRSetPool
from repro.rrset.sweep import ChunkCoinMemo, flatten_members, unique_inverse


class TestAppend:
    def test_append_and_getitem(self):
        pool = RRSetPool(10)
        pool.append(np.array([1, 2, 3]))
        pool.append(np.array([7]))
        pool.append(np.array([], dtype=np.int64))
        assert len(pool) == 3
        assert pool[0].tolist() == [1, 2, 3]
        assert pool[1].tolist() == [7]
        assert pool[2].tolist() == []
        assert pool[-1].tolist() == []
        assert pool.total_nodes == 4

    def test_growth_beyond_initial_capacity(self):
        pool = RRSetPool(100, node_capacity=2, set_capacity=1)
        sets = [np.arange(i % 5) for i in range(300)]
        pool.extend(sets)
        assert len(pool) == 300
        for expected, got in zip(sets, pool):
            assert got.tolist() == expected.tolist()

    def test_append_flat_matches_append(self):
        a = RRSetPool(20)
        b = RRSetPool(20)
        sets = [np.array([1, 2]), np.array([], dtype=np.int64), np.array([5, 6, 7])]
        a.extend(sets)
        b.append_flat(np.array([1, 2, 5, 6, 7]), np.array([2, 0, 3]))
        assert a.indptr.tolist() == b.indptr.tolist()
        assert a.nodes.tolist() == b.nodes.tolist()

    def test_append_flat_length_mismatch_rejected(self):
        pool = RRSetPool(5)
        with pytest.raises(ValueError):
            pool.append_flat(np.array([1, 2]), np.array([3]))

    def test_from_sets_round_trip(self):
        sets = [np.array([0, 4]), np.array([2]), np.array([1, 3, 4])]
        pool = RRSetPool.from_sets(5, sets)
        assert [s.tolist() for s in pool] == [s.tolist() for s in sets]
        assert all(s.dtype == np.int32 for s in pool)

    def test_index_out_of_range(self):
        pool = RRSetPool.from_sets(5, [np.array([1])])
        with pytest.raises(IndexError):
            pool[1]
        with pytest.raises(IndexError):
            pool[-2]


class TestKernels:
    def test_coverage_counts(self):
        pool = RRSetPool.from_sets(4, [np.array([0, 1]), np.array([1, 2]), np.array([1])])
        assert pool.coverage_counts().tolist() == [1, 3, 1, 0]

    def test_set_ids_and_lengths(self):
        pool = RRSetPool.from_sets(9, [np.array([0, 1]), np.array([], dtype=int), np.array([8])])
        assert pool.lengths.tolist() == [2, 0, 1]
        assert pool.set_ids().tolist() == [0, 0, 2]

    def test_intersects(self):
        pool = RRSetPool.from_sets(5, [np.array([0, 1]), np.array([2]), np.array([], dtype=int)])
        mask = np.zeros(5, dtype=bool)
        mask[2] = True
        assert pool.intersects(mask).tolist() == [False, True, False]

    def test_intersects_shape_validated(self):
        pool = RRSetPool.from_sets(5, [np.array([0])])
        with pytest.raises(ValueError):
            pool.intersects(np.zeros(4, dtype=bool))

    def test_widths(self):
        in_degrees = np.array([3, 1, 0, 2])
        pool = RRSetPool.from_sets(4, [np.array([0, 3]), np.array([2])])
        assert pool.widths(in_degrees).tolist() == [5, 0]

    def test_widths_ranged_matches_full_slice(self):
        in_degrees = np.array([3, 1, 0, 2, 7])
        pool = RRSetPool.from_sets(
            5,
            [np.array([0, 3]), np.array([2]), np.array([], dtype=int),
             np.array([4, 1]), np.array([4])],
        )
        full = pool.widths(in_degrees)
        for start in range(len(pool) + 1):
            for stop in range(start, len(pool) + 1):
                ranged = pool.widths(in_degrees, start=start, stop=stop)
                assert ranged.tolist() == full[start:stop].tolist(), (start, stop)

    def test_widths_range_validated(self):
        pool = RRSetPool.from_sets(3, [np.array([0])])
        with pytest.raises(ValueError):
            pool.widths(np.zeros(3), start=2)
        with pytest.raises(ValueError):
            pool.widths(np.zeros(3), start=-1)

    def test_prefix_view_matches_leading_sets(self):
        sets = [np.array([0, 3]), np.array([2]), np.array([1, 4])]
        pool = RRSetPool.from_sets(5, sets)
        view = pool.prefix(2)
        assert len(view) == 2
        assert view.total_nodes == 3
        assert [s.tolist() for s in view] == [[0, 3], [2]]
        assert view.coverage_counts().tolist() == [1, 0, 1, 1, 0]
        # Zero-copy: the view shares the parent's buffers.
        assert view.nodes.base is pool.nodes.base
        with pytest.raises(ValueError):
            pool.prefix(4)
        with pytest.raises(ValueError):
            pool.prefix(-1)

    def test_prefix_view_is_read_only(self):
        pool = RRSetPool.from_sets(5, [np.array([0, 3]), np.array([2])])
        view = pool.prefix(1)
        with pytest.raises(ValueError, match="read-only prefix view"):
            view.append(np.array([4]))
        with pytest.raises(ValueError, match="read-only prefix view"):
            view.append_flat(np.array([4], dtype=np.int32), np.array([1]))
        # The parent stays writable and uncorrupted.
        pool.append(np.array([4]))
        assert [s.tolist() for s in pool] == [[0, 3], [2], [4]]

    def test_memory_accounting(self):
        pool = RRSetPool(10, node_capacity=100, set_capacity=10)
        pool.append(np.array([1, 2, 3]))
        assert pool.nbytes == 3 * 4 + 2 * 8
        assert pool.capacity_bytes >= pool.nbytes


class TestValidation:
    def test_negative_num_nodes_rejected(self):
        with pytest.raises(ValueError):
            RRSetPool(-1)

    def test_int32_ceiling_enforced(self):
        with pytest.raises(ValueError):
            RRSetPool(2**31)


class TestHelpers:
    def test_expand_csr(self):
        # CSR with rows [0: (a,b)], [1: ()], [2: (c)]
        indptr = np.array([0, 2, 2, 3])
        reps, flat = expand_csr(indptr, np.array([2, 0]))
        assert reps.tolist() == [0, 1, 1]
        assert flat.tolist() == [2, 0, 1]

    def test_expand_csr_empty(self):
        reps, flat = expand_csr(np.array([0, 0]), np.array([0]))
        assert reps.size == 0 and flat.size == 0

    def test_flatten_members(self):
        # Level fragments: level 0 puts node 9 in set 1 and node 3 in set 0;
        # level 1 adds node 4 to set 1.
        nodes, lengths = flatten_members(
            [np.array([9, 3]), np.array([4])],
            [np.array([1, 0]), np.array([1])],
            count=3,
        )
        assert lengths.tolist() == [1, 2, 0]
        assert nodes.tolist() == [3, 9, 4]

    def test_flatten_members_empty(self):
        nodes, lengths = flatten_members([], [], count=2)
        assert nodes.size == 0
        assert lengths.tolist() == [0, 0]


class TestChunkCoinMemo:
    def test_memoisation_across_calls(self):
        from repro.rng import make_rng

        gen = make_rng(0)
        memo = ChunkCoinMemo()
        keys = np.arange(50, dtype=np.int64)
        probs = np.full(50, 0.5)
        first = memo.lookup_or_draw(keys, probs, gen)
        # Replays must match the first draw, in any order and any subset.
        replay = memo.lookup_or_draw(keys[::-1].copy(), probs, gen)
        assert replay[::-1].tolist() == first.tolist()
        subset = memo.lookup_or_draw(keys[10:20], probs[10:20], gen)
        assert subset.tolist() == first[10:20].tolist()
        assert memo.size == 50

    def test_duplicate_keys_within_one_call(self):
        from repro.rng import make_rng

        gen = make_rng(3)
        memo = ChunkCoinMemo()
        keys = np.array([7, 7, 7, 2, 2, 9], dtype=np.int64)
        out = memo.lookup_or_draw(keys, np.full(6, 0.5), gen)
        assert out[0] == out[1] == out[2]
        assert out[3] == out[4]
        assert memo.size == 3

    def test_record_then_lookup(self):
        from repro.rng import make_rng

        gen = make_rng(1)
        memo = ChunkCoinMemo()
        memo.record(np.array([4, 8], dtype=np.int64), np.array([True, False]))
        memo.record(np.array([1], dtype=np.int64), np.array([True]))
        out = memo.lookup_or_draw(
            np.array([1, 4, 8], dtype=np.int64), np.full(3, 0.5), gen
        )
        assert out.tolist() == [True, True, False]
        # A lookup miss after consolidation lands in the overlay and is
        # itself memoised.
        miss = memo.lookup_or_draw(np.array([99], dtype=np.int64), np.array([0.5]), gen)
        again = memo.lookup_or_draw(np.array([99], dtype=np.int64), np.array([0.5]), gen)
        assert miss.tolist() == again.tolist()
        assert memo.size == 4

    def test_probability_extremes(self):
        from repro.rng import make_rng

        gen = make_rng(2)
        memo = ChunkCoinMemo()
        keys = np.arange(20, dtype=np.int64)
        probs = np.where(keys % 2 == 0, 1.0, 0.0)
        out = memo.lookup_or_draw(keys, probs, gen)
        assert out.tolist() == (keys % 2 == 0).tolist()


    def test_replay_overrides_only_memoised_keys(self):
        from repro.rng import make_rng

        memo = ChunkCoinMemo()
        memo.record(np.array([3, 5], dtype=np.int64), np.array([True, False]))
        drawn = memo.lookup_or_draw(
            np.array([8], dtype=np.int64), np.array([1.0]), make_rng(0)
        )
        assert drawn.tolist() == [True]
        live = np.array([False, True, False, True])
        out = memo.replay(np.array([3, 5, 8, 9], dtype=np.int64), live)
        assert out is live
        assert live.tolist() == [True, False, True, True]  # 9 keeps its draw
        assert memo.size == 3  # replay records nothing
        assert memo.touched_keys().tolist() == [3, 5, 8]

    def test_pool_module_keeps_the_memo_for_perfbench(self):
        # perfbench/tracing.py imports the memo from repro.rrset.pool and
        # patches ChunkCoinMemo.__dict__["lookup_or_draw"] on the class.
        from repro.rrset import pool

        assert pool.ChunkCoinMemo is ChunkCoinMemo
        assert callable(pool.ChunkCoinMemo.__dict__["lookup_or_draw"])


class TestUniqueInverse:
    def test_roundtrip(self):

        keys = np.array([5, 1, 5, 9, 1, 1], dtype=np.int64)
        unique, inverse = unique_inverse(keys)
        assert unique.tolist() == [1, 5, 9]
        assert unique[inverse].tolist() == keys.tolist()

    def test_empty(self):

        unique, inverse = unique_inverse(np.empty(0, dtype=np.int64))
        assert unique.size == 0 and inverse.size == 0


class TestFromFlat:
    def test_adopts_arrays_without_copy(self):
        nodes = np.array([1, 2, 0, 4], dtype=np.int32)
        indptr = np.array([0, 2, 2, 4], dtype=np.int64)
        pool = RRSetPool.from_flat(5, nodes, indptr)
        assert len(pool) == 3
        assert [s.tolist() for s in pool] == [[1, 2], [], [0, 4]]
        assert pool.nodes.base is nodes or pool.nodes is nodes

    def test_adopted_pool_grows_by_reallocating(self):
        nodes = np.array([1, 2], dtype=np.int32)
        nodes.setflags(write=False)  # simulates a read-only mmap column
        indptr = np.array([0, 2], dtype=np.int64)
        indptr.setflags(write=False)
        pool = RRSetPool.from_flat(5, nodes, indptr)
        pool.append(np.array([], dtype=np.int64))  # zero-length write guard
        pool.append(np.array([3, 4]))
        assert [s.tolist() for s in pool] == [[1, 2], [], [3, 4]]
        assert nodes.tolist() == [1, 2]  # the adopted column is untouched

    def test_adopted_pool_tolerates_empty_bulk_appends(self):
        """Zero-set appends must no-op even on read-only adopted buffers."""
        nodes = np.array([1, 2], dtype=np.int32)
        nodes.setflags(write=False)
        indptr = np.array([0, 2], dtype=np.int64)
        indptr.setflags(write=False)
        pool = RRSetPool.from_flat(5, nodes, indptr)
        pool.append_flat(
            np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64)
        )
        pool.extend_pool(RRSetPool(5))  # empty shard fold-in
        assert len(pool) == 1 and [s.tolist() for s in pool] == [[1, 2]]

    def test_validation_rejects_bad_csr(self):
        good_nodes = np.array([1], dtype=np.int32)
        with pytest.raises(ValueError, match="int32"):
            RRSetPool.from_flat(
                5, np.array([1], dtype=np.int64), np.array([0, 1], dtype=np.int64)
            )
        with pytest.raises(ValueError, match="run from 0"):
            RRSetPool.from_flat(5, good_nodes, np.array([1, 1], dtype=np.int64))
        with pytest.raises(ValueError, match="non-decreasing"):
            RRSetPool.from_flat(
                5,
                np.array([1, 2], dtype=np.int32),
                np.array([0, 2, 1, 2], dtype=np.int64),
            )
        with pytest.raises(ValueError, match="lie in"):
            RRSetPool.from_flat(
                2, np.array([7], dtype=np.int32), np.array([0, 1], dtype=np.int64)
            )


class TestMergeKernel:
    def rand_pool(self, seed, num_nodes=20, sets=15):
        gen = np.random.default_rng(seed)
        pool = RRSetPool(num_nodes)
        for _ in range(sets):
            pool.append(gen.integers(0, num_nodes, size=int(gen.integers(0, 5))))
        return pool

    def test_merge_equals_sequential_extend(self):
        pools = [self.rand_pool(s) for s in range(4)]
        merged = RRSetPool.merge(pools)
        sequential = RRSetPool(20)
        for pool in pools:
            for rr_set in pool:
                sequential.append(rr_set)
        assert np.array_equal(merged.nodes, sequential.nodes)
        assert np.array_equal(merged.indptr, sequential.indptr)
        assert len(merged) == sum(len(p) for p in pools)

    def test_generator_shards_merge_like_one_batch(self):
        """Fixed RNG: merging shard pools == topping up one pool."""
        from repro.graph import power_law_digraph, weighted_cascade_probabilities
        from repro.rrset import RRICGenerator

        graph = weighted_cascade_probabilities(power_law_digraph(120, rng=4))
        generator = RRICGenerator(graph)
        shard_seeds = [11, 22, 33]
        shards = [
            generator.generate_batch(40, rng=np.random.default_rng(s))
            for s in shard_seeds
        ]
        merged = RRSetPool.merge(shards)
        sequential = RRSetPool(graph.num_nodes)
        for s in shard_seeds:
            generator.generate_batch(
                40, rng=np.random.default_rng(s), out=sequential
            )
        assert np.array_equal(merged.nodes, sequential.nodes)
        assert np.array_equal(merged.indptr, sequential.indptr)

    def test_merge_includes_empty_and_prefix_pools(self):
        pool = self.rand_pool(7)
        merged = RRSetPool.merge([RRSetPool(20), pool.prefix(3), pool])
        assert len(merged) == 3 + len(pool)
        assert [s.tolist() for s in merged][:3] == [
            s.tolist() for s in pool.prefix(3)
        ]

    def test_mismatched_universe_rejected(self):
        with pytest.raises(ValueError, match="node universe"):
            RRSetPool.merge([RRSetPool(5), RRSetPool(6)])
        with pytest.raises(ValueError, match="node universe"):
            RRSetPool(5).extend_pool(RRSetPool(6))
        with pytest.raises(ValueError, match="at least one"):
            RRSetPool.merge([])

    def test_extend_pool_into_warm_pool(self):
        base = self.rand_pool(1)
        extra = self.rand_pool(2)
        expect = [s.tolist() for s in base] + [s.tolist() for s in extra]
        base.extend_pool(extra)
        assert [s.tolist() for s in base] == expect
        assert base.indptr[0] == 0
