"""Query dispatch: the error paths of the fixed objective and regime tables."""

import pytest

from repro.api import (
    ComICSession,
    EngineConfig,
    SelfInfMaxQuery,
    query_from_dict,
)
from repro.api.session import _GENERATORS, _make_generator
from repro.errors import QueryError, RegimeError
from repro.graph import star_digraph
from repro.models import GAP
from repro.rrset.sweep import DEFAULT_SWEEP
from repro.service import ComICServer


class TestErrorPaths:
    def test_unknown_objective_by_name(self):
        with pytest.raises(QueryError, match="unknown objective"):
            query_from_dict({"objective": "totally-bogus"})

    def test_unknown_query_type(self):
        class NotAQuery:
            pass

        session = ComICSession(star_digraph(5), GAP(0.3, 0.8, 0.5, 0.5))
        with pytest.raises(QueryError, match="no objective registered"):
            session.run(NotAQuery())

    def test_session_rejects_unknown_query_type(self):
        session = ComICSession(star_digraph(5), GAP(0.3, 0.8, 0.5, 0.5))
        with pytest.raises(QueryError, match="no objective registered"):
            session.run(object())

    def test_unknown_engine_rejected_at_config(self):
        with pytest.raises(QueryError, match="unknown engine"):
            EngineConfig(engine="celf")

    def test_unknown_regime(self):
        with pytest.raises(QueryError, match="unknown RR-set regime"):
            _make_generator(
                "rr-bogus", star_digraph(4), GAP(0.3, 0.8, 0.5, 0.5), ()
            )

    def test_unknown_regime_via_session(self):
        session = ComICSession(star_digraph(5), GAP(0.3, 0.8, 0.5, 0.5))
        with pytest.raises(QueryError, match="unknown RR-set regime"):
            session.select_seeds(
                "rr-bogus", GAP(0.3, 0.8, 0.5, 0.5), [0], 1
            )

    def test_regime_mismatch_raises_regime_error(self):
        # Non-Q+ GAPs on a SelfInfMax query: the regime guard still fires.
        session = ComICSession(star_digraph(5), GAP(0.8, 0.3, 0.5, 0.5))
        with pytest.raises(RegimeError):
            session.run(SelfInfMaxQuery(seeds_b=(0,), k=1))

    def test_daemon_answers_400_for_unknown_objective(self):
        server = ComICServer()
        server.register_graph("g", star_digraph(5), GAP(0.3, 0.8, 0.5, 0.5))
        try:
            status, body = server.handle_query(
                "g", {"query": {"objective": "totally-bogus"}}
            )
        finally:
            server.close()
        assert status == 400 and "unknown objective" in body["error"]
        assert server.stats.errors == 1


class TestTables:
    def test_every_regime_builds_a_configured_generator(self):
        # Each regime's own GAP conditions: Q+ for RR-SIM(+), q_{B|A} = 1
        # for RR-CIM, one-way competition for RR-Block.
        q_plus = GAP(0.3, 0.8, 0.5, 0.5)
        regime_gaps = {
            "rr-ic": q_plus,
            "rr-sim": q_plus,
            "rr-sim+": q_plus,
            "rr-cim": GAP(0.3, 0.8, 0.5, 1.0),
            "rr-block": GAP(0.6, 0.1, 0.7, 0.7),
        }
        assert set(regime_gaps) == set(_GENERATORS)
        for regime, gaps in regime_gaps.items():
            generator = _make_generator(regime, star_digraph(4), gaps, (0,))
            assert generator.graph.num_nodes == 4
            assert generator.sweep == DEFAULT_SWEEP
