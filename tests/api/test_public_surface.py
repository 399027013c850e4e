"""API-surface snapshots: ``__all__`` changes must be deliberate.

Pins ``repro.__all__``, ``repro.api.__all__`` and
``repro.algorithms.__all__``.  If a test here fails you probably added,
renamed or removed a public name.  That can be the right thing to do —
update the snapshot here *and* the docs (README, DESIGN.md API-layer
section) in the same change, and bump ``repro.__version__``'s major
number when a name goes away.
"""

import pytest

import repro
import repro.algorithms
import repro.api

EXPECTED_TOP_LEVEL_ALL = [
    "ActionLogError",
    "BlockingQuery",
    "ComICSession",
    "CompInfMaxQuery",
    "ConvergenceError",
    "DiGraph",
    "DiffusionOutcome",
    "EdgeProbabilityError",
    "EngineConfig",
    "EstimationError",
    "ExperimentError",
    "GAP",
    "GapError",
    "GraphError",
    "InfluenceResult",
    "ItemState",
    "MultiItemQuery",
    "QueryError",
    "RegimeError",
    "ReproError",
    "SeedSetError",
    "SelfInfMaxQuery",
    "TIMOptions",
    "__version__",
    "estimate_boost",
    "estimate_spread",
    "general_tim",
    "simulate",
]

EXPECTED_ALGORITHMS_ALL = [
    "SandwichResult",
    "celf_greedy",
    "celf_plus_plus_greedy",
    "copying_seeds",
    "degree_discount_seeds",
    "estimate_suppression",
    "greedy_compinfmax",
    "greedy_selfinfmax",
    "high_degree_seeds",
    "pagerank_scores",
    "pagerank_seeds",
    "random_seeds",
    "sandwich_select",
    "single_discount_seeds",
    "theorem2_optimal_b_seeds",
    "vanilla_ic_seeds",
]

EXPECTED_ALL = [
    "BlockingQuery",
    "ComICSession",
    "CompInfMaxQuery",
    "DeltaError",
    "DeltaReport",
    "EMResult",
    "EngineConfig",
    "GraphDelta",
    "InfluenceResult",
    "InvalidationReason",
    "LearnedGap",
    "MC_ENGINE",
    "MultiItemQuery",
    "ObjectiveSpec",
    "PipelineConfig",
    "PipelineDebugDB",
    "PipelineError",
    "PipelineResult",
    "PoolInfo",
    "PoolKey",
    "SelfInfMaxQuery",
    "SessionStats",
    "StageRecord",
    "generator_factory",
    "get_spec",
    "known_objectives",
    "known_regimes",
    "query_from_dict",
    "query_from_json",
    "register",
    "register_regime",
    "resolve",
    "run_pipeline",
    "spec_for_query",
    "unregister",
    "unregister_regime",
]


def test_all_is_pinned():
    assert sorted(repro.api.__all__) == EXPECTED_ALL


@pytest.mark.parametrize(
    "module, expected",
    [
        (repro, EXPECTED_TOP_LEVEL_ALL),
        (repro.algorithms, EXPECTED_ALGORITHMS_ALL),
    ],
    ids=["repro", "repro.algorithms"],
)
def test_package_all_is_pinned(module, expected):
    assert sorted(module.__all__) == expected


def test_every_name_resolves():
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None, name


def test_top_level_reexports():
    for name in (
        "ComICSession",
        "EngineConfig",
        "InfluenceResult",
        "SelfInfMaxQuery",
        "CompInfMaxQuery",
        "BlockingQuery",
        "MultiItemQuery",
    ):
        assert getattr(repro, name) is getattr(repro.api, name)
        assert name in repro.__all__


def test_builtin_objectives_registered():
    assert repro.api.known_objectives() == (
        "blocking",
        "compinfmax",
        "multi_item",
        "selfinfmax",
    )
    assert repro.api.known_regimes() == (
        "rr-block", "rr-cim", "rr-ic", "rr-sim", "rr-sim+"
    )
