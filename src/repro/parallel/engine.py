"""`ParallelEngine`: multiprocess sharded RR-set generation.

RR-set sampling is embarrassingly parallel — every set draws an
independent possible world — yet the batched kernels are single-core
(numpy releases the GIL but one process drives one sweep at a time).
This engine shards a ``generate_batch`` request across worker
*processes*: each worker holds a pickled copy of the wrapped
:class:`~repro.rrset.base.RRSetGenerator` (shipped once, at pool
start-up), runs the regime's existing vectorized kernel on its shard
with its own :class:`numpy.random.SeedSequence` child stream, and
returns the shard's flat CSR columns; the parent folds shards back into
one :class:`~repro.rrset.pool.RRSetPool` with the O(total-size) merge
kernel (:meth:`RRSetPool.extend_pool`).

Design points:

* **It is itself an** :class:`RRSetGenerator` wrapping another one, so
  TIM, IMM and :class:`~repro.api.session.ComICSession` scale across
  cores with zero changes — IMM's incremental top-ups simply arrive as
  sharded batches.  The per-root oracle :meth:`generate` delegates to
  the wrapped generator in-process.
* **Spawn-safe**: workers use the ``spawn`` start method (no fork-time
  state smuggling, works identically on macOS/Windows), receive the
  generator via a pool initializer, and stay resident across calls, so
  interpreter start-up is paid once per worker, not per batch.
* **Deterministic given the seed**: shard ``i`` of a call always draws
  from child stream ``i`` of a sequence derived from the caller's rng,
  and shards are merged in shard order — the output pool is a pure
  function of (generator, workers, rng state), independent of worker
  scheduling, *and of any crash/hang recovery*: a retried shard replays
  the same child stream, so a batch that survives worker deaths is
  byte-identical to an undisturbed one.  It is *not* the same stream
  layout as a serial ``generate_batch`` call, so parallel and serial
  pools are equal in distribution, not element-wise — except on full
  serial fallback, where the caller's rng state is restored first and
  the result is exactly the serial run's.
* **Fault tolerance**: a dead worker pool (``BrokenProcessPool``) or a
  shard that blows through ``shard_deadline_s`` (a hung worker, which is
  killed) triggers a bounded per-shard retry loop on a restarted
  executor with exponential backoff; completed shards are never redone.
  Only after ``max_shard_attempts`` per shard does the call fall back to
  serial in-process generation — with the rng rewound, so even the
  degraded result is deterministic.  ``ParallelStats`` surfaces
  ``retries`` / ``restarts`` / ``hung_kills`` / ``serial_fallbacks``,
  and the session folds them into ``SessionStats`` and each result's
  diagnostics.  Requests smaller than ``min_batch_per_worker * 2`` run
  serially in-process (IPC would beat the savings).
* **Deterministic failure testing**: the shard dispatch consults the
  active :class:`~repro.faults.FaultPlan` (site ``"parallel.shard"``),
  so worker crashes, hangs and slow shards are injected deterministically
  from ordinary tests instead of by racing real process kills.

A query deadline (:func:`repro.deadline.current_deadline`) is honoured
at shard joins: when it expires mid-batch the call raises
:class:`~repro.errors.DeadlineExceeded` without merging partial shards
(the engines catch it and degrade to the samples they already pooled).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from multiprocessing import get_context
from typing import Optional

import numpy as np

from repro import faults
from repro.deadline import current_deadline
from repro.errors import DeadlineExceeded, ParallelError
from repro.rng import SeedLike, make_rng
from repro.rrset.base import RRSetGenerator
from repro.rrset.pool import RRSetPool

#: per-process generator replica, installed by :func:`_initialize_worker`.
_WORKER_GENERATOR: Optional[RRSetGenerator] = None

#: per-process generator cache of *shared*-pool workers, keyed by payload
#: digest: each (worker, generator) pair unpickles once, however many
#: engines time-share the pool.
_WORKER_GENERATORS: dict[str, RRSetGenerator] = {}

#: bound on the shared-worker generator cache (a long-lived service can
#: rotate through many cached pools; dict order is the eviction order).
_WORKER_GENERATOR_CACHE_MAX = 8

#: exit code of a fault-injected worker crash (visible in core dumps/logs).
_CRASH_EXIT_CODE = 13


def _initialize_worker(payload: bytes) -> None:
    """Worker-pool initializer: unpickle the generator replica once."""
    global _WORKER_GENERATOR
    _WORKER_GENERATOR = pickle.loads(payload)


def _resolve_generator(
    payload: Optional[tuple[str, bytes]],
) -> RRSetGenerator:
    """The generator replica a shard should run (worker side).

    ``payload is None`` means a private engine shipped its generator via
    the pool initializer.  Shared-pool engines attach ``(digest, blob)``
    to every task instead (a respawned executor has no initializer
    state); the blob is unpickled once per (worker, digest) and cached.
    """
    if payload is None:
        if _WORKER_GENERATOR is None:  # pragma: no cover - misdispatch guard
            raise RuntimeError("worker has no initialized generator replica")
        return _WORKER_GENERATOR
    digest, blob = payload
    generator = _WORKER_GENERATORS.get(digest)
    if generator is None:
        generator = pickle.loads(blob)
        while len(_WORKER_GENERATORS) >= _WORKER_GENERATOR_CACHE_MAX:
            _WORKER_GENERATORS.pop(next(iter(_WORKER_GENERATORS)))
        _WORKER_GENERATORS[digest] = generator
    return generator


def _generate_shard(
    task: tuple[
        int,
        Optional[np.ndarray],
        np.random.SeedSequence,
        Optional[tuple[str, float]],
        Optional[tuple[str, bytes]],
    ],
) -> tuple[np.ndarray, np.ndarray]:
    """Run one shard in a worker; returns the shard pool's flat columns.

    ``directive`` is the fault-injection instruction the parent attached
    at dispatch (``None`` outside fault tests): ``crash`` kills this
    worker process exactly as a segfault/OOM-kill would, ``hang`` sleeps
    past the parent's shard deadline, ``slow`` sleeps then computes
    normally.  ``payload`` selects the generator replica (see
    :func:`_resolve_generator`).
    """
    count, roots, seed_seq, directive, payload = task
    if directive is not None:
        kind, delay_s = directive
        if kind == "crash":
            os._exit(_CRASH_EXIT_CODE)
        elif kind == "hang":
            time.sleep(delay_s if delay_s > 0 else 3600.0)
        elif kind == "slow":
            time.sleep(delay_s)
    rng = np.random.default_rng(seed_seq)
    generator = _resolve_generator(payload)
    pool = generator.generate_batch(count, rng=rng, roots=roots)
    indptr = np.asarray(pool.indptr)
    if indptr.size and int(indptr[-1]) <= np.iinfo(np.uint32).max:
        # Halve the offset column's IPC bytes: the parent's from_flat
        # adopts uint32 indptr directly and widens lazily on growth.
        indptr = indptr.astype(np.uint32)
    return np.asarray(pool.nodes), indptr


def _worker_ready(deadline: float) -> int:
    """Warm-up task: hold the worker until ``deadline`` (wall clock)."""
    time.sleep(max(0.0, deadline - time.time()))
    return os.getpid()


@dataclass
class ParallelStats:
    """Cumulative fault-recovery accounting of one :class:`ParallelEngine`."""

    #: parallel batches dispatched (serial pass-throughs not counted).
    batches: int = 0
    #: shard re-dispatches after a failed attempt.
    retries: int = 0
    #: worker-pool teardowns forced by a failure (the pool respawns on
    #: the next dispatch).
    restarts: int = 0
    #: shards killed for exceeding ``shard_deadline_s``.
    hung_kills: int = 0
    #: batches completed serially after retries were exhausted.
    serial_fallbacks: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (snapshot/delta arithmetic in the session)."""
        return asdict(self)


class WorkerPool:
    """One spawn-safe process pool time-shared by many :class:`ParallelEngine`\\ s.

    A private engine ships its generator through the pool *initializer*,
    which welds the executor to that one generator — so a session caching
    P pools at ``workers=K`` used to hold P·K resident processes.  A
    ``WorkerPool`` breaks the weld: it owns a bare executor (no
    initializer), and engines sharing it attach their pickled generator
    to each task instead; workers unpickle each distinct generator once
    and cache it (:data:`_WORKER_GENERATORS`), so the per-task cost after
    the first touch is one small digest lookup plus the (unavoidable)
    pickled-blob transfer on the task message.

    Thread-safe: engines may dispatch from different threads (the service
    does).  Failure recovery kills the executor and bumps
    :attr:`generation`; :meth:`kill` accepts the generation the caller
    observed so a slow engine cannot tear down the *replacement* pool
    another engine already respawned.  :meth:`close` is terminal.
    """

    def __init__(self, workers: int) -> None:
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = workers
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._closed = False

    @property
    def workers(self) -> int:
        """Worker-process count of the pool."""
        return self._workers

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (terminal)."""
        return self._closed

    @property
    def generation(self) -> int:
        """Bumped on every kill; identifies the current executor epoch."""
        return self._generation

    def executor(self) -> tuple[ProcessPoolExecutor, int]:
        """The live executor and its generation (spawning it if needed)."""
        with self._lock:
            if self._closed:
                raise ParallelError(
                    "WorkerPool is closed; build a new pool instead of "
                    "reusing one whose workers were shut down"
                )
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self._workers,
                    mp_context=get_context("spawn"),
                )
            return self._executor, self._generation

    def kill(self, generation: Optional[int] = None, *, wait: bool = False) -> None:
        """Tear the executor down (workers terminated, not joined on task).

        ``generation`` (when given) makes the kill conditional: it only
        applies to the epoch the caller actually observed failing, so
        concurrent engines reporting the same broken pool tear it down
        once, and never a fresh replacement.
        """
        with self._lock:
            if generation is not None and generation != self._generation:
                return
            executor, self._executor = self._executor, None
            self._generation += 1
        if executor is None:
            return
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - platform-dependent
                pass
        executor.shutdown(wait=wait, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down for good (idempotent, terminal)."""
        self._closed = True
        self.kill(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "live" if self._executor is not None else "cold"
        )
        return f"WorkerPool(workers={self._workers}, {state})"


class ParallelEngine(RRSetGenerator):
    """Wrap an :class:`RRSetGenerator` with a persistent worker pool.

    ``workers`` is the number of worker processes; ``workers <= 1`` makes
    the engine a transparent serial pass-through.  Workers are spawned
    lazily on the first parallel batch (or eagerly via :meth:`warm_up`).

    ``max_shard_attempts`` bounds how many times one shard is dispatched
    before the whole batch falls back to serial; ``backoff_s`` seeds the
    exponential pause between retry rounds; ``shard_deadline_s`` (when
    set) is the per-round time budget after which outstanding shards are
    presumed hung and their workers killed.

    ``shared_pool`` attaches the engine to a session-wide
    :class:`WorkerPool` instead of private workers: the generator then
    rides on each task (cached worker-side after the first touch) and
    :meth:`close` detaches without killing the shared processes — it is
    how ``workers=K`` stays K processes per session rather than K per
    cached pool.  ``workers`` must match the pool's count.

    :meth:`close` is **terminal**: a closed engine raises
    :class:`~repro.errors.ParallelError` on any further generation call
    instead of resurrecting its pool (stale references to evicted session
    entries used to surface as ``BrokenProcessPool`` here).  Use the
    engine as a context manager when its lifetime is scoped.  Not
    picklable (it owns OS processes).
    """

    def __init__(
        self,
        generator: RRSetGenerator,
        workers: int,
        *,
        min_batch_per_worker: int = 256,
        max_shard_attempts: int = 3,
        backoff_s: float = 0.05,
        shard_deadline_s: Optional[float] = None,
        shared_pool: Optional[WorkerPool] = None,
    ) -> None:
        if isinstance(generator, ParallelEngine):
            raise ValueError("refusing to nest ParallelEngine in ParallelEngine")
        super().__init__(generator.graph)
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shared_pool is not None and shared_pool.workers != workers:
            raise ValueError(
                f"workers={workers} does not match the shared pool's "
                f"{shared_pool.workers} worker processes"
            )
        if min_batch_per_worker < 1:
            raise ValueError(
                f"min_batch_per_worker must be >= 1, got {min_batch_per_worker}"
            )
        if max_shard_attempts < 1:
            raise ValueError(
                f"max_shard_attempts must be >= 1, got {max_shard_attempts}"
            )
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s}")
        if shard_deadline_s is not None and shard_deadline_s <= 0:
            raise ValueError(
                f"shard_deadline_s must be positive (or None), got {shard_deadline_s}"
            )
        self._inner = generator
        self._workers = workers
        self._min_batch = int(min_batch_per_worker)
        self._max_attempts = int(max_shard_attempts)
        self._backoff_s = float(backoff_s)
        self._shard_deadline_s = shard_deadline_s
        self._executor: Optional[ProcessPoolExecutor] = None
        self._shared = shared_pool
        #: shared-pool generation last obtained (scopes conditional kills).
        self._shared_gen = -1
        #: lazily-pickled ``(digest, blob)`` task payload in shared mode.
        self._payload: Optional[tuple[str, bytes]] = None
        self._closed = False
        self.stats = ParallelStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def inner(self) -> RRSetGenerator:
        """The wrapped serial generator."""
        return self._inner

    @property
    def workers(self) -> int:
        """Configured worker-process count."""
        return self._workers

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (terminal)."""
        return self._closed

    @property
    def shared_pool(self) -> Optional[WorkerPool]:
        """The attached shared :class:`WorkerPool`, if any."""
        return self._shared

    # ------------------------------------------------------------------
    # Worker-pool lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ParallelError(
                "ParallelEngine is closed; build a new engine instead of "
                "reusing one whose workers were shut down (e.g. via a stale "
                "reference to an evicted session pool entry)"
            )

    def _ensure_executor(self) -> ProcessPoolExecutor:
        self._check_open()
        if self._shared is not None:
            executor, self._shared_gen = self._shared.executor()
            return executor
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=get_context("spawn"),
                initializer=_initialize_worker,
                initargs=(pickle.dumps(self._inner),),
            )
        return self._executor

    def _task_payload(self) -> Optional[tuple[str, bytes]]:
        """Per-task generator payload: ``None`` for private engines
        (initializer delivered the replica), ``(digest, blob)`` over a
        shared pool.  Content-addressed, so identical generators across
        engines collapse to one worker-side cache slot."""
        if self._shared is None:
            return None
        if self._payload is None:
            blob = pickle.dumps(self._inner)
            self._payload = (hashlib.sha256(blob).hexdigest()[:16], blob)
        return self._payload

    def _kill_executor(self, *, wait: bool = False) -> None:
        """Tear the worker pool down, terminating resident processes.

        Workers are always terminated rather than joined on their current
        task — a hung worker (or one still sleeping off an abandoned
        shard after a deadline expiry) would otherwise block shutdown
        indefinitely.  ``wait=True`` additionally joins the (now dying)
        pool before returning, for deterministic resource release on
        :meth:`close`; recovery paths use ``wait=False`` and respawn.
        On a shared pool the kill is scoped to the generation this
        engine observed failing (a replacement pool survives).
        """
        if self._shared is not None:
            self._shared.kill(self._shared_gen, wait=wait)
            return
        executor, self._executor = self._executor, None
        if executor is None:
            return
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - platform-dependent
                pass
        executor.shutdown(wait=wait, cancel_futures=True)

    def warm_up(self, *, settle_s: float = 1.0) -> None:
        """Spawn the workers now (best effort) instead of on first use.

        Each queued task holds its worker until a common deadline, which
        coaxes the executor into starting every process up front —
        benchmarks call this so the first timed batch does not pay
        interpreter start-up.
        """
        self._check_open()
        if self._workers <= 1:
            return
        executor = self._ensure_executor()
        deadline = time.time() + max(settle_s, 0.0)
        try:
            list(executor.map(_worker_ready, [deadline] * self._workers))
        except BrokenProcessPool:
            self._kill_executor()
            self.stats.restarts += 1

    def close(self) -> None:
        """Shut the worker pool down for good (idempotent, terminal).

        Over a shared pool this only *detaches* — the pool's processes
        belong to its owner (the session) and keep serving other engines.
        """
        self._closed = True
        if self._shared is not None:
            return
        self._kill_executor(wait=True)

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # RRSetGenerator interface
    # ------------------------------------------------------------------
    def generate(
        self, *, rng: SeedLike = None, root: Optional[int] = None
    ) -> np.ndarray:
        """Per-root oracle: delegates to the wrapped generator in-process."""
        self._check_open()
        return self._inner.generate(rng=rng, root=root)

    def generate_batch(
        self,
        count: int,
        *,
        rng: SeedLike = None,
        roots: Optional[np.ndarray] = None,
        out: Optional[RRSetPool] = None,
    ) -> RRSetPool:
        """Generate ``count`` RR-sets, sharded across the worker pool.

        Same contract as the serial engines: ``roots`` pins roots
        (sharded alongside the counts), ``out`` receives a top-up.
        Small batches and a 1-worker engine run serially in-process.
        Worker failures are retried per shard (see class docstring);
        raises :class:`~repro.errors.DeadlineExceeded` when the active
        query deadline expires at a shard join, leaving ``out``
        untouched.
        """
        self._check_open()
        gen = make_rng(rng)
        if roots is not None:
            roots = np.asarray(roots, dtype=np.int64)
            count = int(roots.size)
        count = int(count)
        shards = min(self._workers, max(count // self._min_batch, 1))
        if shards <= 1:
            return self._inner.generate_batch(count, rng=gen, roots=roots, out=out)
        # Remember the caller's stream so an exhausted-retries fallback can
        # rewind and reproduce the *serial* run exactly.
        rng_state = gen.bit_generator.state
        # Child streams are derived from the caller's rng (consuming it, so
        # successive calls differ) and assigned to shards positionally:
        # the merged pool is scheduling-independent, and a retried shard
        # replays the same stream.
        entropy = [int(v) for v in gen.integers(0, 2**32, size=4)]
        children = np.random.SeedSequence(entropy).spawn(shards)
        base, rem = divmod(count, shards)
        counts = [base + 1] * rem + [base] * (shards - rem)
        root_parts: list[Optional[np.ndarray]] = (
            list(np.split(roots, np.cumsum(counts)[:-1]))
            if roots is not None
            else [None] * shards
        )
        results = self._run_shards(counts, root_parts, children)
        if results is None:
            # Retries exhausted: rewind the stream and run the whole batch
            # serially — deterministic, and identical to a serial call.
            gen.bit_generator.state = rng_state
            self.stats.serial_fallbacks += 1
            warnings.warn(
                "parallel RR-set workers kept failing after "
                f"{self._max_attempts} attempts per shard; "
                "this batch ran serially",
                RuntimeWarning,
                stacklevel=2,
            )
            return self._inner.generate_batch(count, rng=gen, roots=roots, out=out)
        pool = out if out is not None else RRSetPool(self._graph.num_nodes)
        for shard_nodes, shard_indptr in results:
            pool.extend_pool(
                RRSetPool.from_flat(
                    self._graph.num_nodes, shard_nodes, shard_indptr,
                    validate=False,
                )
            )
        return pool

    # ------------------------------------------------------------------
    # Shard dispatch with bounded retry
    # ------------------------------------------------------------------
    def _run_shards(
        self,
        counts: list[int],
        root_parts: list[Optional[np.ndarray]],
        children: list[np.random.SeedSequence],
    ) -> Optional[list[tuple[np.ndarray, np.ndarray]]]:
        """Dispatch every shard, retrying failures; ``None`` = give up.

        Completed shards are kept across retry rounds (their seed streams
        are fixed, so re-running the others cannot change them).  Each
        failure event — a broken pool or a shard-deadline expiry — kills
        the executor; the next round lazily respawns it after an
        exponential backoff.
        """
        shards = len(counts)
        results: list[Optional[tuple[np.ndarray, np.ndarray]]] = [None] * shards
        attempts = [0] * shards
        self.stats.batches += 1
        retry_round = 0
        while True:
            pending = [i for i in range(shards) if results[i] is None]
            if not pending:
                return [r for r in results if r is not None]
            if any(attempts[i] >= self._max_attempts for i in pending):
                self._kill_executor()
                return None
            if retry_round > 0:
                time.sleep(min(self._backoff_s * 2 ** (retry_round - 1), 2.0))
            executor = self._ensure_executor()
            futures = {}
            for i in pending:
                if attempts[i] > 0:
                    self.stats.retries += 1
                attempts[i] += 1
                spec = faults.fire("parallel.shard")
                directive = (spec.kind, spec.delay_s) if spec is not None else None
                try:
                    futures[i] = executor.submit(
                        _generate_shard,
                        (
                            counts[i],
                            root_parts[i],
                            children[i],
                            directive,
                            self._task_payload(),
                        ),
                    )
                except (BrokenProcessPool, OSError) as exc:
                    # A worker died while later shards were still being
                    # dispatched (spawning a replacement can then hit the
                    # pool's closed call queue): a failed round like any
                    # other broken pool.
                    futures[i] = Future()
                    futures[i].set_exception(BrokenProcessPool(str(exc)))
                    break
            if self._collect(futures, results):
                retry_round += 1  # a failure round: back off, then retry

    def _collect(
        self,
        futures: dict[int, Future],
        results: list[Optional[tuple[np.ndarray, np.ndarray]]],
    ) -> bool:
        """Harvest one dispatch round into ``results``.

        Returns ``True`` when a failure was detected (and the executor
        killed), ``False`` on a clean round.  Raises
        :class:`~repro.errors.DeadlineExceeded` if the query deadline
        expires while waiting — hung-shard detection is the *shard*
        deadline's job and triggers a retry instead.
        """
        round_start = time.monotonic()
        deadline = current_deadline()
        failed = False
        hung = False
        for i, fut in futures.items():
            if failed:
                break
            timeout: Optional[float] = None
            if self._shard_deadline_s is not None:
                timeout = round_start + self._shard_deadline_s - time.monotonic()
            if deadline is not None:
                remaining = deadline.remaining()
                timeout = remaining if timeout is None else min(timeout, remaining)
            try:
                results[i] = fut.result(
                    timeout=None if timeout is None else max(timeout, 0.0)
                )
            except BrokenProcessPool:
                failed = True
            except FutureTimeoutError:
                if deadline is not None and deadline.expired():
                    # Query budget gone: the engines degrade to what they
                    # already have; workers finish their shards and idle.
                    raise DeadlineExceeded(
                        "query deadline expired waiting for parallel "
                        "RR-set shards"
                    )
                failed = True
                hung = True
        if failed:
            # Keep any shards that did finish before tearing down.
            for i, fut in futures.items():
                if results[i] is None and fut.done():
                    try:
                        results[i] = fut.result(timeout=0)
                    except Exception:
                        pass
            if hung:
                self.stats.hung_kills += sum(
                    1 for i in futures if results[i] is None
                )
            self._kill_executor()
            self.stats.restarts += 1
        return failed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "live" if self._executor is not None else "cold"
        )
        return (
            f"ParallelEngine({type(self._inner).__name__}, "
            f"workers={self._workers}, {state})"
        )
