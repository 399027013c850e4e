"""General reverse-reachable set framework and the GeneralTIM algorithm (§6).

The key abstraction is :class:`~repro.rrset.base.RRSetGenerator`
(Definition 1 of the paper): a generator samples a possible world lazily and
returns, for a random root ``v``, the set of nodes ``u`` whose singleton
seed set would activate ``v`` in that world.  Under properties (P1)/(P2) —
per-world monotonicity and submodularity of activation — RR-sets satisfy
the activation-equivalence property (Lemmas 4–5) and plugging any generator
into :func:`~repro.rrset.tim.general_tim` yields a
``(1 - 1/e - eps)``-approximation with high probability (Theorem 6).
"""

from repro.rrset.base import RRSetGenerator
from repro.rrset.pool import RRSetPool
from repro.rrset.sweep import (
    DEFAULT_CHUNK_STATE_BYTES,
    SweepConfig,
    make_state,
)
from repro.rrset.rr_ic import RRICGenerator
from repro.rrset.rr_lt import RRLTGenerator, vanilla_lt_seeds
from repro.rrset.rr_sim import RRSimGenerator
from repro.rrset.rr_sim_plus import RRSimPlusGenerator
from repro.rrset.rr_sim_product import RRSimProductGenerator
from repro.rrset.rr_block import RRBlockGenerator
from repro.rrset.rr_cim import RRCimGenerator
from repro.rrset.tim import (
    TIMOptions,
    TIMResult,
    general_tim,
    greedy_max_coverage,
)
from repro.rrset.imm import IMMOptions, IMMResult, general_imm
from repro.rrset.engines import SelectionResult, run_seed_selection
from repro.rrset.estimate import rr_estimate_many, rr_estimate_objective
from repro.rrset.repair import RepairReport, repair_pool

__all__ = [
    "RRSetGenerator",
    "RRSetPool",
    "SweepConfig",
    "DEFAULT_CHUNK_STATE_BYTES",
    "make_state",
    "RepairReport",
    "repair_pool",
    "RRICGenerator",
    "RRLTGenerator",
    "vanilla_lt_seeds",
    "RRSimGenerator",
    "RRSimPlusGenerator",
    "RRSimProductGenerator",
    "RRBlockGenerator",
    "RRCimGenerator",
    "TIMOptions",
    "TIMResult",
    "general_tim",
    "greedy_max_coverage",
    "IMMOptions",
    "IMMResult",
    "general_imm",
    "SelectionResult",
    "run_seed_selection",
    "rr_estimate_objective",
    "rr_estimate_many",
]
