"""Graceful-drain shutdown: close() lets in-flight work finish first.

Every scenario wedges a request mid-execution deterministically by
holding the graph's session lock from the test thread — the request has
passed drain admission but blocks in ``_execute`` — then drives
``close()`` from another thread and observes the ordering guarantees:
new work is refused with 503, the close waits, and the wedged request
still completes against a live session.
"""

import threading
import time

import pytest

from repro.api import EngineConfig, SelfInfMaxQuery
from repro.graph import power_law_digraph, weighted_cascade_probabilities
from repro.models import GAP
from repro.service import ComICServer

GAPS = GAP(q_a=0.3, q_a_given_b=0.8, q_b=0.5, q_b_given_a=0.5)
CONFIG = EngineConfig(engine="imm", max_rr_sets=800)
QUERY = SelfInfMaxQuery(seeds_b=(0, 1), k=3)


def wait_until(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture
def server():
    graph = weighted_cascade_probabilities(power_law_digraph(120, rng=3))
    srv = ComICServer()
    srv.register_graph("g", graph, GAPS, config=CONFIG)
    yield srv
    srv.close()


def start_query(server, payload):
    """Run handle_query in a thread; returns (thread, results list)."""
    results = []

    def run():
        results.append(server.handle_query("g", payload))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, results


class TestGracefulDrain:
    def test_close_waits_for_inflight_query(self, server):
        """A query wedged behind the session lock completes with 200
        before close() reaches the sessions."""
        service = server._service("g")
        session = service.session
        with service.lock:  # wedge: the query admits, then blocks here
            thread, results = start_query(
                server, {"query": QUERY.to_dict(), "rng": 5}
            )
            wait_until(
                lambda: server._inflight == 1, message="query admission"
            )
            closer = threading.Thread(target=server.close, daemon=True)
            closer.start()
            wait_until(lambda: server.draining, message="draining flag")
            # close() must be parked in the drain wait, not past it:
            # the session is still open and the query still in flight.
            time.sleep(0.05)
            assert closer.is_alive()
            assert server.stats.drain_timeouts == 0
        thread.join(timeout=30)
        closer.join(timeout=30)
        assert not thread.is_alive() and not closer.is_alive()
        status, body = results[0]
        assert status == 200 and "error" not in body
        # the drained query really executed against a live session
        assert server.stats.queries == 1
        assert session.stats.queries == 1

    def test_new_work_refused_with_503_while_draining(self, server):
        service = server._service("g")
        with service.lock:
            thread, _ = start_query(
                server, {"query": QUERY.to_dict(), "rng": 5}
            )
            wait_until(
                lambda: server._inflight == 1, message="query admission"
            )
            closer = threading.Thread(target=server.close, daemon=True)
            closer.start()
            wait_until(lambda: server.draining, message="draining flag")
            errors_before = server.stats.errors
            status, body = server.handle_query(
                "g", {"query": QUERY.to_dict(), "rng": 6}
            )
            assert status == 503 and "draining" in body["error"]
            delta_status, delta_body = server.handle_delta(
                "g", {"delta": {}}
            )
            assert delta_status == 503 and "draining" in delta_body["error"]
            pipeline_status, pipeline_body = server.handle_pipeline(
                "g", {"config": {}}
            )
            assert pipeline_status == 503
            assert "draining" in pipeline_body["error"]
            assert server.stats.draining_rejections == 3
            assert server.stats.errors == errors_before + 3
        thread.join(timeout=30)
        closer.join(timeout=30)
        assert not closer.is_alive()

    def test_coalesced_followers_drain_with_their_leader(self, server):
        """Leader and parked followers all count as in-flight: close()
        waits for the whole flight, and everyone gets the envelope."""
        service = server._service("g")
        payload = {"query": QUERY.to_dict(), "rng": 11}
        with service.lock:
            leader_thread, leader_results = start_query(server, payload)
            wait_until(
                lambda: server.stats.flights == 1, message="leadership"
            )
            follower_thread, follower_results = start_query(server, payload)
            wait_until(
                lambda: server._inflight == 2, message="follower admission"
            )
            closer = threading.Thread(target=server.close, daemon=True)
            closer.start()
            wait_until(lambda: server.draining, message="draining flag")
            time.sleep(0.05)
            assert closer.is_alive()  # both requests still in flight
        leader_thread.join(timeout=30)
        follower_thread.join(timeout=30)
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert leader_results[0][0] == 200
        assert follower_results == leader_results  # verbatim envelope
        assert server.stats.coalesced == 1
        assert server.stats.queries == 1  # one execution served both
        assert server.stats.drain_timeouts == 0

    def test_drain_timeout_bounds_a_stuck_request(self, server):
        service = server._service("g")
        service.lock.acquire()
        try:
            thread, results = start_query(
                server, {"query": QUERY.to_dict(), "rng": 5}
            )
            wait_until(
                lambda: server._inflight == 1, message="query admission"
            )
            closer = threading.Thread(
                target=lambda: server.close(drain_timeout_s=0.05),
                daemon=True,
            )
            closer.start()
            wait_until(
                lambda: server.stats.drain_timeouts == 1,
                message="drain timeout",
            )
        finally:
            service.lock.release()
        # past the timeout, close still serialises with the straggler
        # via the graph lock, so both threads wind down cleanly
        thread.join(timeout=30)
        closer.join(timeout=30)
        assert not thread.is_alive() and not closer.is_alive()
        assert len(results) == 1

    def test_close_without_traffic_does_not_wait(self, server):
        start = time.monotonic()
        server.close()
        assert time.monotonic() - start < server.DEFAULT_DRAIN_TIMEOUT_S / 2
        assert server.stats.drain_timeouts == 0
        # idempotent: a second close drains an already-drained server
        server.close()
