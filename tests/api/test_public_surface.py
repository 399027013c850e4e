"""API-surface snapshots: ``__all__`` changes must be deliberate.

Pins ``repro.__all__``, ``repro.api.__all__``, ``repro.algorithms.__all__``
and ``repro.rrset.__all__``.  If a test here fails you probably added,
renamed or removed a public name.  That can be the right thing to do —
update the snapshot here *and* the docs (README, DESIGN.md API-layer
section) in the same change, and bump ``repro.__version__``'s major
number when a name goes away.
"""

import pytest

import repro
import repro.algorithms
import repro.api
import repro.rrset

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

EXPECTED_RRSET_ALL = [
    "DEFAULT_CHUNK_STATE_BYTES",
    "IMMOptions",
    "IMMResult",
    "RRBlockGenerator",
    "RRCimGenerator",
    "RRICGenerator",
    "RRLTGenerator",
    "RRSetGenerator",
    "RRSetPool",
    "RRSimGenerator",
    "RRSimPlusGenerator",
    "RRSimProductGenerator",
    "RepairReport",
    "SelectionResult",
    "SweepConfig",
    "TIMOptions",
    "TIMResult",
    "general_imm",
    "general_tim",
    "greedy_max_coverage",
    "make_state",
    "repair_pool",
    "rr_estimate_many",
    "rr_estimate_objective",
    "run_seed_selection",
    "vanilla_lt_seeds",
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
    "MultiItemQuery",
    "PipelineConfig",
    "PipelineDebugDB",
    "PipelineError",
    "PipelineResult",
    "PoolInfo",
    "PoolKey",
    "SelfInfMaxQuery",
    "SessionStats",
    "StageRecord",
    "query_from_dict",
    "query_from_json",
    "run_pipeline",
]


def test_all_is_pinned():
    assert sorted(repro.api.__all__) == EXPECTED_ALL


@pytest.mark.parametrize(
    "module, expected",
    [
        (repro, EXPECTED_TOP_LEVEL_ALL),
        (repro.algorithms, EXPECTED_ALGORITHMS_ALL),
        (repro.rrset, EXPECTED_RRSET_ALL),
    ],
    ids=["repro", "repro.algorithms", "repro.rrset"],
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
    from repro.api.queries import QUERY_TYPES
    from repro.api.session import _GENERATORS, _HANDLERS

    assert sorted(QUERY_TYPES) == [
        "blocking",
        "compinfmax",
        "multi_item",
        "selfinfmax",
    ]
    assert sorted(_GENERATORS) == [
        "rr-block", "rr-cim", "rr-ic", "rr-sim", "rr-sim+"
    ]
    # every query class the wire format can build has a solver
    assert set(_HANDLERS) == set(QUERY_TYPES.values())
