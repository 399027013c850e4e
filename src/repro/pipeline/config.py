"""`PipelineConfig`: the frozen, JSON-round-trippable pipeline recipe.

One config fixes everything the pipeline may do — which edge-probability
backend fits stage 1 (`"em"` or `"goyal"`) and its knobs, which item pair
stage 2 estimates, which queries stage 3 answers, the engine config those
queries run under, and the master ``seed`` every stage derives its random
stream from.  Like :class:`~repro.api.config.EngineConfig` it round-trips
losslessly through JSON (``from_json(to_json(c)) == c``) and rejects
unknown fields, so configs can be logged, shipped to the daemon
(``POST /pipeline/<graph>``), and replayed byte-identically.

:meth:`PipelineConfig.digest` is the content address the stage cache and
the debug DB key runs by: the SHA-256 of the canonical (sorted-keys,
no-whitespace) JSON, truncated to 16 hex chars — the same discipline as
:meth:`repro.store.PoolKey.digest`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Optional, Union

from repro.api.config import EngineConfig
from repro.api.queries import query_from_dict
from repro.errors import PipelineError

__all__ = ["PipelineConfig", "EDGE_BACKENDS", "canonical_json", "digest_of"]

#: stage-1 edge-probability learners the pipeline can run.
EDGE_BACKENDS = ("em", "goyal")

ItemId = Union[int, str]


def canonical_json(payload: Any) -> str:
    """The canonical JSON text content addresses are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest_of(payload: Any) -> str:
    """16-hex-char SHA-256 of ``payload``'s canonical JSON (PoolKey style)."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one pipeline run is allowed to depend on.

    ``item_a`` / ``item_b`` name the item pair stage 2 estimates (they
    must appear in the action log; ``int`` or ``str`` so the config stays
    JSON-exact).  ``edge_backend`` selects the stage-1 learner: ``"em"``
    (Saito EM over cascade episodes, the ``em_*`` knobs) or ``"goyal"``
    (Goyal et al. counting over the action log, the ``goyal_*`` knobs).
    ``queries`` are the frozen query objects stage 3 answers against the
    fitted network, executed in order under ``engine``; ``seed`` is the
    master seed every stage derives its child stream from.
    """

    item_a: ItemId = "a"
    item_b: ItemId = "b"
    edge_backend: str = "em"
    em_max_iterations: int = 100
    em_tolerance: float = 1e-6
    em_initial: Optional[float] = None
    goyal_window: Optional[float] = None
    goyal_smoothing: float = 0.0
    queries: tuple = ()
    engine: EngineConfig = field(default_factory=EngineConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.edge_backend not in EDGE_BACKENDS:
            raise PipelineError(
                f"unknown edge_backend {self.edge_backend!r}; "
                f"expected one of {EDGE_BACKENDS}"
            )
        for name in ("item_a", "item_b"):
            value = getattr(self, name)
            if not isinstance(value, (int, str)) or isinstance(value, bool):
                raise PipelineError(
                    f"{name} must be an int or str (JSON-exact), got {value!r}"
                )
        if self.item_a == self.item_b:
            raise PipelineError(
                f"item_a and item_b must differ, both are {self.item_a!r}"
            )
        if self.em_max_iterations < 1:
            raise PipelineError(
                f"em_max_iterations must be >= 1, got {self.em_max_iterations}"
            )
        if self.em_tolerance < 0:
            raise PipelineError(
                f"em_tolerance must be non-negative, got {self.em_tolerance}"
            )
        if self.em_initial is not None and not 0.0 < self.em_initial < 1.0:
            raise PipelineError(
                f"em_initial must lie in (0, 1), got {self.em_initial}"
            )
        if self.goyal_window is not None and not self.goyal_window > 0:
            raise PipelineError(
                f"goyal_window must be > 0 (or None), got {self.goyal_window}"
            )
        if self.goyal_smoothing < 0:
            raise PipelineError(
                f"goyal_smoothing must be non-negative, got {self.goyal_smoothing}"
            )
        if not isinstance(self.queries, tuple):
            object.__setattr__(self, "queries", tuple(self.queries))
        for index, query in enumerate(self.queries):
            if not hasattr(query, "to_dict") or not getattr(
                query, "objective", ""
            ):
                raise PipelineError(
                    f"queries[{index}] is not a query object "
                    f"(got {type(query).__name__}); build one from "
                    "repro.api (SelfInfMaxQuery, ...)"
                )
        if not isinstance(self.engine, EngineConfig):
            raise PipelineError(
                f"engine must be an EngineConfig, got {type(self.engine).__name__}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise PipelineError(f"seed must be an int, got {self.seed!r}")

    # ------------------------------------------------------------------
    # JSON round-trip (EngineConfig discipline)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A plain-JSON-types dict; inverse of :meth:`from_dict`."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "queries":
                value = [q.to_dict() for q in value]
            elif f.name == "engine":
                value = value.to_dict()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineConfig":
        """Rebuild from :meth:`to_dict` output; unknown fields are errors."""
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise PipelineError(
                f"unknown PipelineConfig fields: {sorted(unknown)}"
            )
        known: dict[str, Any] = dict(data)
        if "queries" in known:
            payloads = known["queries"]
            if not isinstance(payloads, (list, tuple)):
                raise PipelineError(
                    "queries must be a list of query payloads "
                    "(query.to_dict output)"
                )
            try:
                known["queries"] = tuple(
                    q if hasattr(q, "to_dict") else query_from_dict(q)
                    for q in payloads
                )
            except (TypeError, ValueError) as exc:
                raise PipelineError(f"bad query payload: {exc}") from exc
        if "engine" in known and not isinstance(known["engine"], EngineConfig):
            known["engine"] = EngineConfig.from_dict(known["engine"])
        return cls(**known)

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "PipelineConfig":
        """Inverse of :meth:`to_json` (``from_json(to_json(c)) == c``)."""
        return cls.from_dict(json.loads(payload))

    def digest(self) -> str:
        """Content address of this config (16 hex chars)."""
        return digest_of(self.to_dict())
