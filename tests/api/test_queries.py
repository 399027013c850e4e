"""Query/config dataclasses: validation and JSON round-trips."""

import pytest

from repro.api import (
    BlockingQuery,
    CompInfMaxQuery,
    EngineConfig,
    MultiItemQuery,
    SelfInfMaxQuery,
    query_from_dict,
    query_from_json,
)
from repro.errors import QueryError
from repro.models import GAP

GAPS = GAP(q_a=0.3, q_a_given_b=0.8, q_b=0.5, q_b_given_a=0.5)

ROUND_TRIP_QUERIES = [
    SelfInfMaxQuery(seeds_b=(3, 1, 4), k=5),
    SelfInfMaxQuery(
        seeds_b=(0,), k=2, gaps=GAPS, use_rr_sim_plus=False,
        evaluation_runs=80, include_greedy_candidate=True, greedy_runs=10,
    ),
    CompInfMaxQuery(seeds_a=(2, 7), k=3, gaps=GAPS, evaluation_runs=50),
    BlockingQuery(seeds_a=(1, 2), k=4, runs=60, candidates=(5, 6, 7)),
    BlockingQuery(seeds_a=(0,), k=1),
    MultiItemQuery(budget=6, runs=30),
    MultiItemQuery(
        budget=2, item=1, fixed_seed_sets=((1, 2), (), (9,)),
        runs=40, candidates=(3, 4),
    ),
]


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "query", ROUND_TRIP_QUERIES, ids=lambda q: type(q).__name__
    )
    def test_from_json_inverts_to_json(self, query):
        assert type(query).from_json(query.to_json()) == query

    @pytest.mark.parametrize(
        "query", ROUND_TRIP_QUERIES, ids=lambda q: type(q).__name__
    )
    def test_generic_dispatch_by_objective_tag(self, query):
        rebuilt = query_from_json(query.to_json())
        assert type(rebuilt) is type(query)
        assert rebuilt == query

    def test_engine_config_round_trip(self):
        config = EngineConfig(
            engine="imm", epsilon=0.25, ell=2.0,
            max_rr_sets=1234, min_rr_sets=56,
        )
        assert EngineConfig.from_json(config.to_json()) == config
        override = EngineConfig(theta_override=999)
        assert EngineConfig.from_json(override.to_json()) == override

    def test_dict_payload_is_plain_json_types(self):
        payload = ROUND_TRIP_QUERIES[1].to_dict()
        assert payload["objective"] == "selfinfmax"
        assert payload["seeds_b"] == [0]
        assert payload["gaps"] == {
            "q_a": 0.3, "q_a_given_b": 0.8, "q_b": 0.5, "q_b_given_a": 0.5,
        }
        assert query_from_dict(payload) == ROUND_TRIP_QUERIES[1]


class TestNormalization:
    def test_seed_lists_become_int_tuples(self):
        query = SelfInfMaxQuery(seeds_b=[3.0, 1], k=2)
        assert query.seeds_b == (3, 1)

    def test_nested_seed_sets_normalized(self):
        query = MultiItemQuery(
            budget=1, item=0, fixed_seed_sets=([1, 2], [3]),
        )
        assert query.fixed_seed_sets == ((1, 2), (3,))


class TestValidation:
    def test_negative_k_rejected(self):
        with pytest.raises(QueryError):
            SelfInfMaxQuery(seeds_b=(0,), k=-1)
        with pytest.raises(QueryError):
            CompInfMaxQuery(seeds_a=(0,), k=-2)
        with pytest.raises(QueryError):
            MultiItemQuery(budget=-1)

    def test_focal_query_needs_fixed_seed_sets(self):
        with pytest.raises(QueryError):
            MultiItemQuery(budget=1, item=0)

    def test_unknown_field_rejected(self):
        with pytest.raises(QueryError, match="unknown"):
            SelfInfMaxQuery.from_dict(
                {"objective": "selfinfmax", "seeds_b": [0], "k": 1, "bogus": 2}
            )

    def test_wrong_objective_tag_rejected(self):
        payload = SelfInfMaxQuery(seeds_b=(0,), k=1).to_dict()
        with pytest.raises(QueryError, match="selfinfmax"):
            CompInfMaxQuery.from_dict(payload)

    def test_untagged_generic_payload_rejected(self):
        with pytest.raises(QueryError, match="objective"):
            query_from_dict({"seeds_b": [0], "k": 1})

    def test_bad_engine_config(self):
        with pytest.raises(QueryError, match="unknown engine"):
            EngineConfig(engine="celf")
        with pytest.raises(QueryError):
            EngineConfig(epsilon=0.0)
        with pytest.raises(QueryError):
            EngineConfig(theta_override=0)
        with pytest.raises(QueryError, match="unknown EngineConfig"):
            EngineConfig.from_dict({"engine": "tim", "bogus": 1})

    def test_string_seeds_rejected(self):
        with pytest.raises(QueryError, match="got a string"):
            SelfInfMaxQuery(seeds_b="012", k=1)

    def test_missing_required_fields_raise_query_error(self):
        with pytest.raises(QueryError, match="invalid SelfInfMaxQuery"):
            query_from_dict({"objective": "selfinfmax"})

    def test_wrong_typed_gaps_rejected_at_construction(self):
        with pytest.raises(QueryError, match="gaps must be a GAP"):
            SelfInfMaxQuery(seeds_b=(0,), k=1, gaps={"q_a": 0.3})
        with pytest.raises(QueryError, match="gaps must be a GAP"):
            CompInfMaxQuery(seeds_a=(0,), k=1, gaps=(0.3, 0.8, 0.5, 0.5))
        with pytest.raises(QueryError, match="gaps must be a GAP"):
            BlockingQuery(seeds_a=(0,), k=1, gaps="Q-")

    def test_theta_override_rejected_for_imm(self):
        with pytest.raises(QueryError, match="theta_override"):
            EngineConfig(engine="imm", theta_override=1000)

    def test_from_tim_options_keeps_every_knob(self):
        from repro.rrset import TIMOptions

        options = TIMOptions(
            epsilon=0.3, ell=2.0, max_rr_sets=900, min_rr_sets=50,
            theta_override=400,
        )
        config = EngineConfig.from_tim_options(options)
        assert config.engine == "tim"
        assert config.tim_options() == options
