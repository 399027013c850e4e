"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch a single base class.  Each subclass corresponds to one layer of the
system (graphs, models, algorithms, learning, experiments).
"""

from __future__ import annotations

from repro.invalidation import InvalidationReason


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Raised for structurally invalid graphs or out-of-range node ids."""


class EdgeProbabilityError(GraphError):
    """Raised when an edge influence probability is outside ``[0, 1]``."""


class GapError(ReproError):
    """Raised for invalid Global Adoption Probability configurations."""


class RegimeError(GapError):
    """Raised when an algorithm requires a GAP regime that does not hold.

    For example :class:`~repro.rrset.rr_sim.RRSimGenerator` requires one-way
    complementarity (``q_a_given_b >= q_a`` and ``q_b_given_a == q_b``); it
    raises :class:`RegimeError` when given other parameters.
    """


class SeedSetError(ReproError):
    """Raised for invalid seed-set arguments (overlap, size, range)."""


class ConvergenceError(ReproError):
    """Raised when an iterative procedure fails to converge."""


class ActionLogError(ReproError):
    """Raised for malformed action logs or impossible event orderings."""


class LogFormatError(ActionLogError):
    """A malformed line in a serialised action log, with its location.

    Raised by :func:`~repro.learning.log_io.load_action_log` so callers
    can report (and tooling can jump to) the offending line: ``path`` and
    ``line_no`` are carried as attributes, and the message is prefixed
    ``path:line_no:`` in the usual compiler style.  Subclasses
    :class:`ActionLogError`, so existing except clauses keep working.
    """

    def __init__(self, path: object, line_no: int, message: str) -> None:
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = int(line_no)


class EstimationError(ReproError):
    """Raised when a statistical estimate cannot be formed (e.g. no data)."""


class ExperimentError(ReproError):
    """Raised by the experiment harness for invalid configurations."""


class PipelineError(ReproError):
    """Raised by the log-to-query pipeline (:mod:`repro.pipeline`).

    Covers invalid pipeline configurations (unknown backend, malformed
    stage knobs), missing inputs (an EM backend with no episode corpus),
    and unusable working directories.
    """


class QueryError(ReproError):
    """Raised by the declarative query API (:mod:`repro.api`).

    Covers malformed queries and configs, unknown objectives / engines /
    RR-set regimes in the registry, and session misuse (e.g. a query that
    needs GAPs on a session constructed without them).
    """


class ParallelError(ReproError):
    """Raised by the multiprocess engine (:mod:`repro.parallel`).

    Covers lifecycle misuse — most importantly reusing a
    :class:`~repro.parallel.ParallelEngine` after :meth:`close` (for
    example via a stale reference to a session pool entry that was
    evicted and reloaded), which used to surface as an inscrutable
    ``BrokenProcessPool`` from the executor internals.
    """


class DeadlineExceeded(ReproError):
    """Cooperative signal that a query's wall-clock budget expired.

    Raised internally at sampling boundaries (TIM/IMM top-ups, parallel
    shard joins) when ``EngineConfig.deadline_s`` runs out.  Callers of
    the query API never see it: :class:`~repro.api.session.ComICSession`
    catches it and returns a best-effort result stamped
    ``degraded=True`` in ``InfluenceResult.diagnostics``.
    """


class DeltaError(ReproError):
    """Raised for invalid graph mutations (:class:`~repro.graph.GraphDelta`).

    Covers malformed delta payloads (bad endpoints or probabilities,
    duplicate edits of one edge) and deltas that do not apply to the
    target graph (removing or reweighting an edge that does not exist,
    adding one that already does, endpoints outside the node range).
    """


class StoreError(ReproError):
    """Raised by the persistent pool store (:mod:`repro.store`).

    Covers unusable store roots, malformed entry directories, and invalid
    save/load arguments.  :class:`StoreIntegrityError` specialises the
    data-doesn't-match-manifest case.
    """


class StoreIntegrityError(StoreError):
    """Raised when a store entry fails validation against its manifest.

    A corrupted column file (checksum or shape mismatch), an unreadable or
    tampered manifest, or a manifest whose cache key / graph fingerprint
    disagrees with what the caller asked for all raise this.  The
    forgiving :meth:`~repro.store.PoolStore.load` entry point catches it
    and reports a miss (counting an invalidation) instead.

    ``reason`` (required) carries the typed
    :class:`~repro.invalidation.InvalidationReason` so reason accounting
    never has to parse the message.
    """

    def __init__(self, message: str, *, reason: InvalidationReason) -> None:
        super().__init__(message)
        self.reason = InvalidationReason(reason)
