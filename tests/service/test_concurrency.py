"""Concurrent access: racing store saves/loads/GC and server counters.

Two kinds of contenders race on one store directory: threads inside one
process (two ``CatalogedPoolStore`` instances sharing files but not
locks) and spawn-separated processes (the real multi-daemon scenario).
Afterward the invariants must hold: the catalog matches the directories
on disk, nothing was quarantined, and every save/load round-trips.

The daemon's ``ServerStats`` counters are bumped from every handler
thread at once; concurrent requests must be counted exactly.
"""

import multiprocessing
import sys
import threading

import numpy as np

from repro.api import EngineConfig, SelfInfMaxQuery
from repro.graph import power_law_digraph, weighted_cascade_probabilities
from repro.models import GAP
from repro.rrset.pool import RRSetPool
from repro.service import ComICServer, ServerStats, ServiceClient
from repro.service.catalog import CatalogedPoolStore
from repro.store import PoolKey, PoolStore

GAPS = GAP(q_a=0.3, q_a_given_b=0.8, q_b=0.5, q_b_given_a=0.5)
FP = "a" * 64
KEY = PoolKey.make("rr-sim", GAPS, [0, 1])


def make_pool(num_nodes=40, sets=25, rng_seed=0):
    gen = np.random.default_rng(rng_seed)
    pool = RRSetPool(num_nodes)
    for _ in range(sets):
        size = int(gen.integers(0, 6))
        pool.append(gen.integers(0, num_nodes, size=size))
    return pool


def retry_interpreter_flake(fn):
    """Run ``fn``, retrying once around a CPython 3.11 threading bug.

    ``np.load`` parses npy headers with ``ast.literal_eval``; under
    thread contention CPython's compiler occasionally misaccounts its
    AST recursion counters and raises ``SystemError: AST constructor
    recursion depth mismatch``.  That is an interpreter defect, not a
    store-consistency failure — retry once so these tests keep policing
    the invariants they are about.  Anything else propagates.
    """
    try:
        return fn()
    except SystemError as exc:
        if "recursion depth" not in str(exc):
            raise
        return fn()


def assert_catalog_matches_disk(store):
    survivors = {row["digest"] for row in store.catalog.rows()}
    on_disk = {m.key.digest() for m in store.entries()}
    assert survivors == on_disk


def _process_worker(root, worker_id, rounds, errors):
    """Spawn-target: hammer one shared store with saves, loads and GC."""
    try:
        store = CatalogedPoolStore(root, max_store_bytes=200_000)
        for i in range(rounds):
            key = PoolKey.make("rr-sim", GAPS, [worker_id, i % 3])
            pool = make_pool(sets=20 + i, rng_seed=worker_id * 100 + i)
            store.save(key, pool, graph_fingerprint=FP)
            loaded = store.load(key, graph_fingerprint=FP)
            # a racing GC may have evicted the entry between save and
            # load — a miss is legal, corruption/quarantine is not
            if loaded is not None and len(loaded) < 20:
                errors.put(f"worker {worker_id}: short pool round {i}")
        if store.stats.invalidations:
            errors.put(
                f"worker {worker_id}: {store.stats.invalidations} invalidations"
            )
    except Exception as exc:  # pragma: no cover - failure reporting
        errors.put(f"worker {worker_id}: {type(exc).__name__}: {exc}")


class TestThreadRaces:
    def test_two_instances_racing_same_key_saves(self, tmp_path):
        root = tmp_path / "pools"
        a = CatalogedPoolStore(root)
        b = CatalogedPoolStore(root)
        base = make_pool(sets=30)
        barrier = threading.Barrier(2)
        failures = []

        def racer(store, extra_seed):
            try:
                pool = make_pool(sets=30)
                gen = np.random.default_rng(extra_seed)
                for _ in range(20):
                    size = int(gen.integers(0, 6))
                    pool.append(gen.integers(0, pool.num_nodes, size=size))
                barrier.wait()
                for _ in range(5):
                    retry_interpreter_flake(
                        lambda: store.save(KEY, pool, graph_fingerprint=FP)
                    )
                    retry_interpreter_flake(
                        lambda: store.load(KEY, graph_fingerprint=FP)
                    )
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        threads = [
            threading.Thread(target=racer, args=(a, 1)),
            threading.Thread(target=racer, args=(b, 2)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        # whichever writer won, the surviving entry is valid and served
        final = PoolStore(root)
        loaded = final.load(KEY, graph_fingerprint=FP)
        assert loaded is not None and len(loaded) == 50
        assert final.stats.invalidations == 0
        assert_catalog_matches_disk(a)

    def test_save_race_loser_defers_and_entry_stays_valid(self, tmp_path):
        """The append-lock loser must not write: it returns as if saved,
        and the installed entry remains exactly the winner's."""
        root = tmp_path / "pools"
        store = PoolStore(root)
        pool = make_pool(sets=30)
        store.save(KEY, pool, graph_fingerprint=FP)
        grown = make_pool(sets=30)
        gen = np.random.default_rng(7)
        for _ in range(20):
            size = int(gen.integers(0, 6))
            grown.append(gen.integers(0, grown.num_nodes, size=size))
        # hold the lock as a fake concurrent appender, then save
        from repro.store.pool_store import APPEND_LOCK_FILE

        lock = store.entry_dir(KEY) / APPEND_LOCK_FILE
        lock.write_text("held by the other process")
        store.save(KEY, grown, graph_fingerprint=FP)
        lock.unlink()
        assert store.stats.append_contentions == 1
        # deferred: the original entry is untouched and still loads (the
        # loser's caller treats its in-memory pool as authoritative — the
        # degraded outcome is just a store hit of the shorter prefix)
        loaded = store.load(KEY, graph_fingerprint=FP)
        assert len(loaded) == 30
        assert store.stats.invalidations == 0

    def test_gc_racing_loads_never_quarantines(self, tmp_path):
        root = tmp_path / "pools"
        quota_store = CatalogedPoolStore(root, max_store_bytes=10_000)
        reader = CatalogedPoolStore(root)
        failures = []

        def writer():
            try:
                for i in range(12):
                    key = PoolKey.make("rr-sim", GAPS, [50 + i])
                    retry_interpreter_flake(
                        lambda: quota_store.save(
                            key, make_pool(sets=120, rng_seed=i),
                            graph_fingerprint=FP,
                        )
                    )
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        def loader():
            try:
                for i in range(12):
                    key = PoolKey.make("rr-sim", GAPS, [50 + i])
                    retry_interpreter_flake(
                        lambda: reader.load(key, graph_fingerprint=FP)
                    )
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=loader),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        assert reader.stats.invalidations == 0
        assert quota_store.catalog.total_bytes() <= 10_000
        assert_catalog_matches_disk(quota_store)


class TestProcessRaces:
    def test_two_processes_racing_saves_loads_and_gc(self, tmp_path):
        root = str(tmp_path / "pools")
        ctx = multiprocessing.get_context("spawn")
        errors = ctx.Queue()
        procs = [
            ctx.Process(
                target=_process_worker, args=(root, wid, 6, errors)
            )
            for wid in (1, 2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        collected = []
        while not errors.empty():
            collected.append(errors.get())
        assert collected == []
        # post-race audit from a fresh instance: catalog and disk agree,
        # and every surviving entry still validates
        audit = CatalogedPoolStore(root)
        assert_catalog_matches_disk(audit)
        for manifest in audit.entries():
            loaded = audit.load(
                manifest.key, graph_fingerprint=manifest.graph_fingerprint
            )
            assert loaded is not None
        assert audit.stats.invalidations == 0


class TestServerStatsCounters:
    def test_bump_from_many_threads_is_exact(self):
        stats = ServerStats()
        threads_n, per_thread = 4, 60000

        def hammer():
            for _ in range(per_thread):
                stats.bump("requests")
                stats.bump("errors", 2)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        # A tiny switch interval makes the interpreter preempt threads
        # between a counter's read and its write-back, so an unlocked
        # read-modify-write would reliably lose increments here.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        snapshot = stats.as_dict()
        assert snapshot["requests"] == threads_n * per_thread
        assert snapshot["errors"] == 2 * threads_n * per_thread
        assert "_lock" not in snapshot

    def test_concurrent_requests_counted_exactly(self):
        graph = weighted_cascade_probabilities(power_law_digraph(80, rng=3))
        server = ComICServer()
        server.register_graph(
            "g", graph, GAPS, config=EngineConfig(max_rr_sets=400)
        )
        query = SelfInfMaxQuery(seeds_b=(0, 1), k=2)
        clients_n, per_client = 6, 5
        failures = []
        try:
            host, port = server.start()
            barrier = threading.Barrier(clients_n)

            def client(i):
                try:
                    with ServiceClient(host, port) as c:
                        barrier.wait()
                        for j in range(per_client):
                            # distinct rng pins: no request is coalesced
                            c.query("g", query, rng=i * per_client + j)
                            c.health()
                except Exception as exc:  # pragma: no cover - reporting
                    failures.append(f"client {i}: {exc!r}")

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(clients_n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            stats = server.stats.as_dict()
        finally:
            server.close()
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        total_queries = clients_n * per_client
        assert stats["queries"] == total_queries
        assert stats["requests"] == 2 * total_queries  # query + health each
        assert stats["errors"] == 0
        assert stats["coalesced"] == 0
