"""Declarative query objects for the four Com-IC optimisation workloads.

Each query is a frozen dataclass that captures *what* to solve — never how
— and round-trips losslessly through JSON (``Query.from_json(q.to_json())
== q``), so queries can be logged, shipped over the wire, and replayed
against any :class:`~repro.api.session.ComICSession` holding the same
network.  The session supplies the graph, default GAPs and engine
configuration; a query may override the GAPs per call (``gaps=``), which
is how sweeps over adoption-probability settings share one session.

The four built-in workloads mirror the paper:

* :class:`SelfInfMaxQuery`  — Problem 1, ``k`` A-seeds given fixed B-seeds;
* :class:`CompInfMaxQuery`  — Problem 2, ``k`` B-seeds boosting fixed A;
* :class:`BlockingQuery`    — Appendix B.4, B-seeds suppressing A (Q-);
* :class:`MultiItemQuery`   — §8 k-item extension (focal or round-robin).

New workloads register their own query type via :mod:`repro.api.registry`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Iterable, Mapping, Optional

from repro.errors import QueryError
from repro.models.gaps import GAP

__all__ = [
    "SelfInfMaxQuery",
    "CompInfMaxQuery",
    "BlockingQuery",
    "MultiItemQuery",
]


def _seed_tuple(name: str, seeds: Iterable[int]) -> tuple[int, ...]:
    if isinstance(seeds, (str, bytes)):
        # A string would silently decompose into per-character "node ids".
        raise QueryError(f"{name} must be an iterable of node ids, got a string")
    try:
        return tuple(int(s) for s in seeds)
    except (TypeError, ValueError) as exc:
        raise QueryError(f"{name} must be an iterable of node ids") from exc


def _gap_to_dict(gaps: Optional[GAP]) -> Optional[dict[str, float]]:
    if gaps is None:
        return None
    return {
        "q_a": gaps.q_a,
        "q_a_given_b": gaps.q_a_given_b,
        "q_b": gaps.q_b,
        "q_b_given_a": gaps.q_b_given_a,
    }


def _gap_from_dict(data: Optional[Mapping[str, float]]) -> Optional[GAP]:
    if data is None:
        return None
    return GAP.from_mapping(data)


class _QueryBase:
    """Shared JSON plumbing; subclasses are frozen dataclasses."""

    #: registry key of the workload; overridden per subclass.
    objective: str = ""

    def to_dict(self) -> dict[str, Any]:
        """A plain-JSON-types dict tagged with the objective name."""
        payload: dict[str, Any] = {"objective": self.objective}
        for f in fields(self):  # type: ignore[arg-type]
            value = getattr(self, f.name)
            if isinstance(value, GAP):
                value = _gap_to_dict(value)
            elif isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            payload[f.name] = value
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "_QueryBase":
        """Rebuild from :meth:`to_dict` output (tag optional but checked)."""
        data = dict(data)
        tag = data.pop("objective", cls.objective)
        if tag != cls.objective:
            raise QueryError(
                f"payload is a {tag!r} query, not {cls.objective!r}"
            )
        field_names = {f.name for f in fields(cls)}  # type: ignore[arg-type]
        unknown = set(data) - field_names
        if unknown:
            raise QueryError(
                f"unknown {cls.__name__} fields: {sorted(unknown)}"
            )
        if "gaps" in data:
            data["gaps"] = _gap_from_dict(data["gaps"])
        try:
            return cls(**data)  # type: ignore[arg-type]
        except TypeError as exc:
            # e.g. a wire payload missing required fields.
            raise QueryError(f"invalid {cls.__name__} payload: {exc}") from exc

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "_QueryBase":
        """Inverse of :meth:`to_json` (``from_json(to_json(q)) == q``)."""
        return cls.from_dict(json.loads(payload))


def _check_budget(name: str, value: int) -> None:
    if value < 0:
        raise QueryError(f"{name} must be non-negative, got {value}")


def _check_min(name: str, value: int, minimum: int = 1) -> None:
    if value < minimum:
        raise QueryError(f"{name} must be >= {minimum}, got {value}")


def _check_gaps(gaps: Optional[GAP]) -> None:
    if gaps is not None and not isinstance(gaps, GAP):
        raise QueryError(
            f"gaps must be a GAP (or None for the session default), got "
            f"{type(gaps).__name__}"
        )


#: Solution routes of the blocking / multi-item workloads: ``"auto"``
#: takes the RR-backed path when the GAP regime supports it and falls
#: back to Monte-Carlo CELF otherwise; ``"rr"`` / ``"mc"`` force a route
#: (``"rr"`` raises when the regime is unsupported).
METHODS = ("auto", "rr", "mc")


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise QueryError(
            f"method must be one of {METHODS}, got {method!r}"
        )


@dataclass(frozen=True)
class SelfInfMaxQuery(_QueryBase):
    """Problem 1: pick ``k`` A-seeds maximising ``sigma_A`` given B-seeds.

    ``gaps=None`` uses the session's GAPs.  ``use_rr_sim_plus`` selects
    RR-SIM+ over RR-SIM; ``evaluation_runs`` / ``include_greedy_candidate``
    / ``greedy_runs`` configure the Sandwich comparison (§6.4).
    """

    objective = "selfinfmax"

    seeds_b: tuple[int, ...]
    k: int
    gaps: Optional[GAP] = None
    use_rr_sim_plus: bool = True
    evaluation_runs: int = 200
    include_greedy_candidate: bool = False
    greedy_runs: int = 50

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds_b", _seed_tuple("seeds_b", self.seeds_b))
        _check_budget("k", self.k)
        _check_gaps(self.gaps)
        _check_min("evaluation_runs", self.evaluation_runs)
        _check_min("greedy_runs", self.greedy_runs)


@dataclass(frozen=True)
class CompInfMaxQuery(_QueryBase):
    """Problem 2: pick ``k`` B-seeds maximising the boost of fixed A-seeds."""

    objective = "compinfmax"

    seeds_a: tuple[int, ...]
    k: int
    gaps: Optional[GAP] = None
    evaluation_runs: int = 200
    include_greedy_candidate: bool = False
    greedy_runs: int = 50

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds_a", _seed_tuple("seeds_a", self.seeds_a))
        _check_budget("k", self.k)
        _check_gaps(self.gaps)
        _check_min("evaluation_runs", self.evaluation_runs)
        _check_min("greedy_runs", self.greedy_runs)


@dataclass(frozen=True)
class BlockingQuery(_QueryBase):
    """Influence blocking (Q-): ``k`` B-seeds suppressing A's spread.

    ``method`` picks the route: ``"rr"`` runs pooled RR-Block max-coverage
    through the session's tim/imm engine (requires one-way competition,
    ``q_{B|∅} = q_{B|A}``), ``"mc"`` the Monte-Carlo CELF greedy, and
    ``"auto"`` (default) the RR route whenever the regime allows it.
    ``runs`` is the Monte-Carlo budget per CELF evaluation (MC route
    only); ``candidates`` optionally restricts the seed pool (``None`` =
    all nodes).  Nodes already in ``seeds_a`` are always excluded from
    the pool — the greedy never wastes budget re-seeding occupied nodes.
    """

    objective = "blocking"

    seeds_a: tuple[int, ...]
    k: int
    gaps: Optional[GAP] = None
    runs: int = 200
    candidates: Optional[tuple[int, ...]] = None
    method: str = "auto"

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds_a", _seed_tuple("seeds_a", self.seeds_a))
        _check_budget("k", self.k)
        _check_gaps(self.gaps)
        _check_min("runs", self.runs)
        _check_method(self.method)
        if self.candidates is not None:
            object.__setattr__(
                self, "candidates", _seed_tuple("candidates", self.candidates)
            )


@dataclass(frozen=True)
class MultiItemQuery(_QueryBase):
    """k-item extension (§8): focal-item greedy or round-robin allocation.

    With ``item`` set, extends that item's seed set by ``budget`` seeds
    while the other items' sets stay fixed (``fixed_seed_sets`` must then
    list one seed tuple per item).  With ``item=None``, allocates
    ``budget`` seeds across all items round-robin, starting from
    ``fixed_seed_sets`` when given (one tuple per item) and from empty
    sets otherwise.  The item model comes from the session
    (``multi_item_gaps``, or the pairwise GAPs lifted via
    ``MultiItemGaps.from_pairwise_gap``).

    ``method`` picks the focal-item route: the focal problem reduces to
    SelfInfMax with the other item's seeds as context, so for two-item
    models in the RR-SIM regime (focal item one-way complemented, its
    fixed seed set empty) ``"rr"`` / eligible ``"auto"`` run pooled
    RR-SIM+ selection through the session's tim/imm engine; ``"mc"`` (and
    every round-robin query) runs the Monte-Carlo greedy.  Candidate
    pools always exclude the focal item's already-fixed seeds.
    """

    objective = "multi_item"

    budget: int
    item: Optional[int] = None
    fixed_seed_sets: Optional[tuple[tuple[int, ...], ...]] = None
    runs: int = 100
    candidates: Optional[tuple[int, ...]] = None
    method: str = "auto"

    def __post_init__(self) -> None:
        _check_budget("budget", self.budget)
        _check_min("runs", self.runs)
        _check_method(self.method)
        if self.item is not None and self.fixed_seed_sets is None:
            raise QueryError("focal-item queries need fixed_seed_sets")
        if self.fixed_seed_sets is not None:
            object.__setattr__(
                self,
                "fixed_seed_sets",
                tuple(
                    _seed_tuple("fixed_seed_sets", s) for s in self.fixed_seed_sets
                ),
            )
        if self.candidates is not None:
            object.__setattr__(
                self, "candidates", _seed_tuple("candidates", self.candidates)
            )
