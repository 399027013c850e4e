"""Injected worker crashes, hangs and slowness against ParallelEngine.

Every scenario runs real spawned workers; the *faults* are deterministic
(parent-armed directives shipped with the shard task), so each test
exercises the genuine recovery machinery — executor teardown, respawn,
shard re-dispatch, serial fallback — without racing actual process kills.
"""

import numpy as np
import pytest

from repro.deadline import Deadline, deadline_scope
from repro.errors import DeadlineExceeded
from repro.faults import FaultPlan, FaultSpec, fault_scope
from repro.graph import power_law_digraph, weighted_cascade_probabilities
from repro.models import GAP
from repro.parallel import ParallelEngine
from repro.rrset import RRSimGenerator

GAPS = GAP(q_a=0.3, q_a_given_b=0.8, q_b=0.5, q_b_given_a=0.5)
OPPOSITE = [0, 1]
#: ``times`` large enough to outlast any retry budget.
FOREVER = 10**6


@pytest.fixture(scope="module")
def graph():
    return weighted_cascade_probabilities(power_law_digraph(200, rng=11))


def make_engine(graph, **kwargs):
    kwargs.setdefault("min_batch_per_worker", 1)
    kwargs.setdefault("backoff_s", 0.0)
    return ParallelEngine(RRSimGenerator(graph, GAPS, OPPOSITE), 2, **kwargs)


def pools_equal(a, b):
    return (
        len(a) == len(b)
        and np.array_equal(np.asarray(a.nodes), np.asarray(b.nodes))
        and np.array_equal(np.asarray(a.indptr), np.asarray(b.indptr))
    )


class TestCrashRecovery:
    def test_single_crash_recovers_to_fault_free_result(self, graph):
        with make_engine(graph) as eng:
            baseline = eng.generate_batch(400, rng=7)
        plan = FaultPlan([FaultSpec("parallel.shard", "crash", at=0)])
        with make_engine(graph) as eng:
            with fault_scope(plan):
                recovered = eng.generate_batch(400, rng=7)
            stats = eng.stats
        # the worker really died and the shard was really re-dispatched …
        assert plan.fired == [
            {"site": "parallel.shard", "kind": "crash", "index": 0}
        ]
        assert stats.retries >= 1
        assert stats.restarts >= 1
        assert stats.serial_fallbacks == 0
        # … yet the merged pool is byte-identical to the undisturbed run.
        assert pools_equal(recovered, baseline)

    def test_persistent_crashes_fall_back_to_exact_serial_result(self, graph):
        serial = RRSimGenerator(graph, GAPS, OPPOSITE)
        expected = serial.generate_batch(300, rng=np.random.default_rng(13))
        plan = FaultPlan(
            [FaultSpec("parallel.shard", "crash", times=FOREVER)]
        )
        with make_engine(graph, max_shard_attempts=2) as eng:
            with fault_scope(plan), pytest.warns(RuntimeWarning, match="serially"):
                degraded = eng.generate_batch(
                    300, rng=np.random.default_rng(13)
                )
            assert eng.stats.serial_fallbacks == 1
            assert eng.stats.retries >= 1
        # rng rewound before the fallback: identical to a pure serial run.
        assert pools_equal(degraded, expected)

    def test_pool_breaking_mid_dispatch_is_a_failed_round(
        self, graph, monkeypatch
    ):
        """A worker can die while later shards are still being submitted;
        spawning its replacement then fails on the pool's closed call
        queue.  That is a failed round to retry, not an escaping error."""
        from concurrent.futures import ProcessPoolExecutor

        with make_engine(graph) as eng:
            baseline = eng.generate_batch(400, rng=7)
        real_submit = ProcessPoolExecutor.submit
        submits = []

        def submit(self, fn, *args, **kwargs):
            submits.append(fn)
            if len(submits) == 2:
                raise OSError("handle is closed")
            return real_submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        with make_engine(graph) as eng:
            recovered = eng.generate_batch(400, rng=7)
            stats = eng.stats
        assert len(submits) >= 3  # the failed shard was re-dispatched
        assert stats.restarts >= 1
        assert stats.serial_fallbacks == 0
        assert pools_equal(recovered, baseline)

    def test_recovery_is_deterministic(self, graph):
        def run():
            plan = FaultPlan([FaultSpec("parallel.shard", "crash", at=1)])
            with make_engine(graph) as eng, fault_scope(plan):
                return eng.generate_batch(200, rng=5)

        assert pools_equal(run(), run())


class TestHungWorkers:
    def test_hung_shard_is_killed_and_retried(self, graph):
        with make_engine(graph) as eng:
            baseline = eng.generate_batch(200, rng=3)
        plan = FaultPlan([FaultSpec("parallel.shard", "hang", at=0)])
        with make_engine(graph, shard_deadline_s=0.5) as eng:
            with fault_scope(plan):
                recovered = eng.generate_batch(200, rng=3)
            assert eng.stats.hung_kills >= 1
            assert eng.stats.restarts >= 1
        assert pools_equal(recovered, baseline)

    def test_slow_shard_completes_without_recovery(self, graph):
        with make_engine(graph) as eng:
            baseline = eng.generate_batch(200, rng=3)
        plan = FaultPlan(
            [FaultSpec("parallel.shard", "slow", at=0, delay_s=0.05)]
        )
        with make_engine(graph, shard_deadline_s=30.0) as eng:
            with fault_scope(plan):
                result = eng.generate_batch(200, rng=3)
            assert eng.stats.retries == 0
            assert eng.stats.hung_kills == 0
        assert pools_equal(result, baseline)


class TestQueryDeadlineAtShardJoin:
    def test_expired_deadline_raises_instead_of_waiting_on_hung_shard(
        self, graph
    ):
        plan = FaultPlan(
            [FaultSpec("parallel.shard", "hang", times=FOREVER)]
        )
        with make_engine(graph) as eng:
            with fault_scope(plan):
                with deadline_scope(Deadline(0.3)):
                    with pytest.raises(DeadlineExceeded, match="deadline"):
                        eng.generate_batch(200, rng=1)
