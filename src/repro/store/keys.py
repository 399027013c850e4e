"""`PoolKey`: the canonical identity of one cached RR-set pool.

A pool is reusable exactly when it was sampled by the same RR regime,
under the same GAP quadruple, against the same opposite-seed context.
:class:`~repro.api.session.ComICSession` always keyed its in-memory pool
cache by that triple, but the key lived only as an ad-hoc tuple inside
the session — unusable by (and therefore able to silently disagree with)
any second consumer.  With the on-disk :class:`~repro.store.PoolStore`
there *are* two consumers, so the key is now one public frozen dataclass
both share: the session's cache dict hashes it, the store embeds its
:meth:`PoolKey.to_dict` form in every manifest and validates hits against
it, and :meth:`PoolKey.digest` names the entry directory.

Normalisation happens once, in :meth:`PoolKey.make` — opposite seeds are
deduplicated, sorted and widened to ``int``; GAPs are flattened to their
float quadruple — so two keys compare equal iff the pools they name are
interchangeable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Union

from repro.errors import StoreError
from repro.models.gaps import GAP

GapLike = Union[GAP, Iterable[float]]


@dataclass(frozen=True)
class PoolKey:
    """Identity of one RR-set pool: ``(regime, GAPs, opposite seeds)``.

    Frozen and hashable — usable directly as a dict key.  Build through
    :meth:`make` (which normalises) rather than the raw constructor.
    """

    #: RR-set regime name, one of the session's generator table
    #: (``"rr-sim"``, ``"rr-cim"``, ``"rr-block"``, ...).
    regime: str
    #: the GAP quadruple ``(q_a, q_a_given_b, q_b, q_b_given_a)``.
    gaps: tuple[float, float, float, float]
    #: sorted, deduplicated opposite-item seed nodes.
    opposite_seeds: tuple[int, ...]

    @classmethod
    def make(
        cls, regime: str, gaps: GapLike, opposite_seeds: Iterable[int]
    ) -> "PoolKey":
        """Build a normalised key (the only constructor callers need)."""
        if isinstance(gaps, GAP):
            quad = gaps.as_tuple()
        else:
            quad = tuple(float(q) for q in gaps)
            if len(quad) != 4:
                raise StoreError(
                    f"gaps must be a GAP or a float quadruple, got {quad!r}"
                )
        seeds = tuple(sorted({int(s) for s in opposite_seeds}))
        return cls(regime=str(regime), gaps=quad, opposite_seeds=seeds)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON-types view; inverse of :meth:`from_dict`."""
        return {
            "regime": self.regime,
            "gaps": list(self.gaps),
            "opposite_seeds": list(self.opposite_seeds),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PoolKey":
        """Rebuild (and re-normalise) from :meth:`to_dict` output."""
        try:
            return cls.make(
                data["regime"], data["gaps"], data["opposite_seeds"]
            )
        except KeyError as exc:
            raise StoreError(f"pool key payload is missing {exc}") from exc

    def canonical_json(self) -> str:
        """Deterministic JSON encoding (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Stable 16-hex-digit name for this key (store directory name).

        Derived from :meth:`canonical_json` via SHA-256, so it is
        process- and platform-independent.  The graph fingerprint is
        deliberately *not* mixed in: an entry is looked up by key and
        then validated against the manifest's recorded fingerprint, which
        is what lets the store distinguish "never saved" (miss) from
        "saved for a different graph" (invalidation).
        """
        raw = hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()
        return raw[:16]
