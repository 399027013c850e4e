"""Integration tests for the table/figure runners at miniature scale.

These assert structure (columns, row counts) and the stable qualitative
claims (orderings that survive tiny instances), not the paper's numbers —
EXPERIMENTS.md records the full-scale comparison.
"""

import pytest

from repro.experiments import (
    ExperimentScale,
    figure4_epsilon_effect,
    figure5_selfinfmax_spread,
    figure6_compinfmax_boost,
    figure7a_runtime,
    figure7b_scalability,
    figure8_sa_stress,
    table1_dataset_stats,
    table2_improvement,
    table8_sandwich_ratio,
    tables5to7_learned_gaps,
)
from repro.api import ComICSession, EngineConfig
from repro.datasets import load_dataset
from repro.experiments.figures import FIG_SIM_GAPS, _mid_tier
from repro.rng import derive_seed
from repro.rrset import TIMOptions


@pytest.fixture(scope="module")
def tiny() -> ExperimentScale:
    return ExperimentScale(
        scale=0.015,
        k=3,
        opposite_size=6,
        mid_rank_start=4,
        mc_runs=50,
        tim_options=TIMOptions(theta_override=600),
        datasets=("flixster",),
        seed=7,
    )


class TestTable1:
    def test_structure(self, tiny):
        result = table1_dataset_stats(tiny)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["dataset"] == "flixster"
        assert row["nodes"] == round(12_900 * 0.015)
        assert row["paper_avg_out_degree"] == 14.8


class TestTable2:
    def test_structure_and_positive_copying_gap(self, tiny):
        result = table2_improvement(tiny)
        assert len(result.rows) == 6  # 3 SIM + 3 CIM settings
        problems = {row["problem"] for row in result.rows}
        assert problems == {"SelfInfMax", "CompInfMax"}
        # The stable claim at any scale: GeneralTIM beats Copying of
        # mid-tier seeds for SelfInfMax.
        sim_rows = [r for r in result.rows if r["problem"] == "SelfInfMax"]
        assert all(r["impr_vs_copying_pct"] > 0 for r in sim_rows)


class TestTables5to7:
    def test_recovery(self, tiny):
        result = tables5to7_learned_gaps(tiny, num_users=6000)
        assert len(result.rows) == 12
        recovered = [row["recovered"] for row in result.rows]
        # With 6K users nearly all pairs should recover their ground truth.
        assert sum(recovered) >= len(recovered) - 2


class TestTable8:
    def test_ratios_in_unit_interval(self, tiny):
        result = table8_sandwich_ratio(tiny)
        row = result.rows[0]
        ratio_cols = [c for c in result.columns if c != "dataset"]
        for col in ratio_cols:
            assert 0.0 <= row[col] <= 1.0, col
        # Learned (close) GAPs must give a ratio near 1 (paper: > 0.99).
        assert row["SIM_learn"] > 0.9


class TestFigure4:
    def test_runtime_falls_with_epsilon(self, tiny):
        # Runtime is linear in theta, so the sample count carries the
        # claim without timing noise.  The larger epsilon's theta must sit
        # below the cap (here 1452 < 4000; epsilon 1.0 needs 15586 and
        # clips), or both rows clip to it and compare equal.  A
        # paper-range pair such as (1.0, 2.0) would need a cap near 12000
        # (KPT's pilot budget is a quarter of the cap), ~2.5x the runtime.
        result = figure4_epsilon_effect(
            tiny, epsilons=(1.0, 8.0), max_rr_sets=4000
        )
        assert len(result.rows) == 2
        fast = result.rows[-1]
        slow = result.rows[0]
        assert fast["theta"] < slow["theta"]

    def test_capped_run_reports_theta_required(self, tiny):
        """At a cap of 8000, KPT's pilot budget (2000) runs out, KPT falls
        back to 1.0 and theta clips to the cap; theta_required tells the
        capped run from one that met its target."""
        graph = load_dataset("flixster", scale=tiny.scale, rng=tiny.seed)
        seeds_b = _mid_tier(graph, tiny, derive_seed(tiny.seed, 90))
        results = {}
        for cap in (8000, 12000):
            results[cap] = ComICSession(graph).select_seeds(
                "rr-sim+", FIG_SIM_GAPS, seeds_b, tiny.k,
                EngineConfig(epsilon=2.0, max_rr_sets=cap),
                rng=derive_seed(tiny.seed, 91, 200),
            )
        capped, met = results[8000], results[12000]
        assert capped.kpt == 1.0
        assert capped.theta == 8000 < capped.theta_required
        assert met.kpt > 1.0
        assert met.theta == met.theta_required < 12000


class TestFigure5:
    def test_rr_beats_random_at_full_k(self, tiny):
        result = figure5_selfinfmax_spread(tiny)
        by_method = {
            (r["method"], r["num_seeds"]): r["a_spread"] for r in result.rows
        }
        assert by_method[("RR", tiny.k)] >= by_method[("Random", tiny.k)]

    def test_spread_monotone_in_k_for_rr(self, tiny):
        result = figure5_selfinfmax_spread(tiny)
        rr = sorted(
            (r["num_seeds"], r["a_spread"])
            for r in result.rows
            if r["method"] == "RR"
        )
        values = [v for _, v in rr]
        # Allow tiny MC wiggle.
        assert all(b >= a - 1.0 for a, b in zip(values, values[1:]))


class TestFigure6:
    def test_anchor_reported_and_rr_competitive(self, tiny):
        result = figure6_compinfmax_boost(tiny)
        assert all(r["sigma_a_no_b"] > 0 for r in result.rows)
        by_method = {
            (r["method"], r["num_seeds"]): r["boost"] for r in result.rows
        }
        assert by_method[("RR", tiny.k)] >= by_method[("Random", tiny.k)] - 0.5


class TestFigure7:
    def test_runtime_columns(self, tiny):
        result = figure7a_runtime(tiny, include_greedy=True,
                                  greedy_pool=8, greedy_runs=10)
        row = result.rows[0]
        for col in ("rr_sim_s", "rr_sim_plus_s", "rr_cim_s",
                    "greedy_sim_s", "greedy_cim_s"):
            assert row[col] >= 0.0

    def test_scalability_rows(self, tiny):
        result = figure7b_scalability(tiny, sizes=(200, 400), theta=300)
        assert [r["nodes"] for r in result.rows] == [200, 400]
        assert all(r["rr_sim_plus_s"] >= 0 for r in result.rows)


class TestFigure8:
    def test_structure_and_small_error(self, tiny):
        result = figure8_sa_stress(tiny, greedy_pool=8, greedy_runs=10)
        assert len(result.rows) == 6
        sim_rows = [r for r in result.rows if r["problem"] == "SelfInfMax"]
        # SA stays effective: the winner is never dramatically better than
        # the bound-derived candidates (paper reports <= 0.4% error; tiny
        # scale is noisier, so allow a loose cap).
        assert all(r["sa_relative_error"] <= 0.5 for r in sim_rows)
