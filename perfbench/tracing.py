"""Span recorder for the traced benchmark run.

The benchmark never edits the library: a traced run wraps the library's
public entry points from here, patching each name where its caller looks
it up (``repro.api.solvers.estimate_boost``, ``repro.rrset.imm.
greedy_max_coverage``, ``ComICSession.run`` on the class, ...).  Every
wrapped call becomes one span ``(id, parent, op, name, start, end,
attrs)`` on the monotonic ``time.perf_counter`` clock.  Parents come from
a context-var stack, so nested calls in one thread link up; a call on
the server's handler thread (empty stack) links to the client request
span that is in flight, because the benchmark has exactly one client
and one outstanding request.  Spans stay in memory until the run ends.

:func:`install` returns an undo callable that restores every patched
name, so a process can measure untraced, trace, and measure again.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

_clock = time.perf_counter


class Tracer:
    """In-memory span store with a context-var parent stack."""

    def __init__(self) -> None:
        #: spans are recorded only while enabled (the traced half of a run).
        self.enabled = False
        self.spans: list[tuple] = []
        self.op: Optional[int] = None
        #: the client request span in flight (parent of server-thread spans).
        self.remote_parent: Optional[int] = None
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[int]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )

    def _parent(self) -> Optional[int]:
        parent = self._current.get()
        return self.remote_parent if parent is None else parent

    @contextmanager
    def span(self, name: str, *, remote: bool = False, **attrs: Any) -> Iterator[dict]:
        """Record the enclosed block; the yielded dict becomes its attrs.

        ``remote`` marks a client request: spans opened on the server's
        thread while it is in flight become its children.
        """
        if not self.enabled:
            yield attrs
            return
        sid = next(self._ids)
        parent = self._parent()
        token = self._current.set(sid)
        if remote:
            self.remote_parent = sid
        start = _clock()
        try:
            yield attrs
        finally:
            end = _clock()
            self._current.reset(token)
            if remote:
                self.remote_parent = None
            self.spans.append((sid, parent, self.op, name, start, end, attrs))

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs: Optional[Callable[..., dict]] = None,
        *,
        leaf: bool = False,
    ) -> Callable:
        """``fn`` wrapped in a span.

        ``attrs(result, args, kwargs)`` adds attributes after the call.
        A ``leaf`` span does not push itself on the stack: it is for hot
        calls that never contain other spans (the per-chunk coin memo),
        where the two context-var writes would be most of the cost.
        """
        spans = self.spans
        current = self._current

        if leaf:

            @functools.wraps(fn)
            def leaf_wrapper(*args: Any, **kwargs: Any) -> Any:
                parent = current.get()
                start = _clock()
                result = fn(*args, **kwargs)
                spans.append(
                    (0, parent, self.op, name, start, _clock(), None)
                )
                return result

            return leaf_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = next(self._ids)
            parent = self._parent()
            token = current.set(sid)
            start = _clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                current.reset(token)
                extra = attrs(result, args, kwargs) if attrs else None
                spans.append((sid, parent, self.op, name, start, end, extra))

        return wrapper


def _patch(undo: list, owner: Any, attr: str, replacement: Any) -> None:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, replacement)
    undo.append((owner, attr, original))


def _bytes_written() -> int:
    """Bytes this thread has passed to ``write``-family calls so far
    (``wchar`` of ``/proc/thread-self/io``; 0 where that is missing)."""
    try:
        with open("/proc/thread-self/io", "rb") as fh:
            for line in fh:
                if line.startswith(b"wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the library's layer boundaries; returns the undo callable."""
    import repro.api.session as session_mod
    import repro.api.solvers as solvers
    import repro.pipeline.runner as runner
    import repro.rrset.imm as imm
    import repro.rrset.tim as tim
    from repro.graph.delta import GraphDelta
    from repro.rrset.base import RRSetGenerator
    from repro.rrset.pool import ChunkCoinMemo, RRSetPool
    from repro.service.catalog import CatalogedPoolStore
    import repro.service.server as server_mod
    from repro.service.server import ComICServer
    from repro.store.pool_store import PoolStore

    undo: list = []
    wrap = tracer.wrap
    tracer.enabled = True

    # service: the handlers, on the class the HTTP shell calls through,
    # and the pipeline run as the pipeline handler calls it.
    for attr in ("handle_query", "handle_delta", "handle_pipeline",
                 "handle_pipeline_runs"):
        _patch(undo, ComICServer, attr,
               wrap(f"service.{attr}", ComICServer.__dict__[attr]))
    _patch(undo, server_mod, "run_pipeline",
           wrap("pipeline.run", server_mod.run_pipeline))

    # api: one span per query, with this query's pool/sampling counters.
    original_run = session_mod.ComICSession.__dict__["run"]

    @functools.wraps(original_run)
    def traced_run(self, query, *args, **kwargs):
        before = (self.stats.pool_hits, self.stats.pool_misses,
                  self.stats.rr_sets_sampled)
        with tracer.span("session.run", objective=query.objective) as attrs:
            result = original_run(self, query, *args, **kwargs)
            attrs["pool_hits"] = self.stats.pool_hits - before[0]
            attrs["pool_misses"] = self.stats.pool_misses - before[1]
            attrs["rr_sets_sampled"] = self.stats.rr_sets_sampled - before[2]
        return result

    _patch(undo, session_mod.ComICSession, "run", traced_run)
    _patch(undo, session_mod.ComICSession, "apply_delta",
           wrap("session.apply_delta",
                session_mod.ComICSession.__dict__["apply_delta"]))

    # rrset: selection, sampling per generator class, memo, greedy, repair.
    _patch(undo, session_mod, "run_seed_selection",
           wrap("rrset.select", session_mod.run_seed_selection))

    def batch_attrs(result, args, kwargs):
        self_, count = args[0], (args[1] if len(args) > 1 else kwargs.get("count", 0))
        roots = kwargs.get("roots")
        return {
            "regime": type(self_).__name__,
            "sets": int(len(roots) if roots is not None else count),
        }

    classes = [RRSetGenerator]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        if "generate_batch" in cls.__dict__:
            _patch(undo, cls, "generate_batch",
                   wrap("rrset.sample", cls.__dict__["generate_batch"],
                        batch_attrs))
    _patch(undo, ChunkCoinMemo, "lookup_or_draw",
           wrap("rrset.memo", ChunkCoinMemo.__dict__["lookup_or_draw"],
                leaf=True))
    for module in (imm, tim):
        _patch(undo, module, "greedy_max_coverage",
               wrap("rrset.greedy", module.greedy_max_coverage))
    _patch(undo, RRSetPool, "repair",
           wrap("rrset.repair", RRSetPool.__dict__["repair"],
                lambda r, a, k: {"resampled": int(r.resampled) if r else 0}))

    # models: Monte-Carlo evaluation as the solvers call it.
    def mc_attrs(result, args, kwargs):
        return {"runs": int(kwargs.get("runs", 1000))}

    for attr in ("estimate_spread", "estimate_boost", "estimate_suppression"):
        _patch(undo, solvers, attr,
               wrap("models.mc", getattr(solvers, attr), mc_attrs))

    # graph + store.
    _patch(undo, GraphDelta, "apply",
           wrap("graph.delta", GraphDelta.__dict__["apply"]))
    # CatalogedPoolStore.save calls PoolStore.save: only the outermost
    # call is a span, and the write counter is read outside it, so that
    # neither the nesting nor the measuring is charged to store.save_ms.
    saving = threading.local()
    for cls in (PoolStore, CatalogedPoolStore):
        original_save = cls.__dict__["save"]

        def traced_save(self, key, pool, *args, _orig=original_save, **kwargs):
            if getattr(saving, "active", False):
                return _orig(self, key, pool, *args, **kwargs)
            saving.active = True
            try:
                before = _bytes_written()
                with tracer.span("store.save") as attrs:
                    path = _orig(self, key, pool, *args, **kwargs)
                attrs["bytes"] = _bytes_written() - before
            finally:
                saving.active = False
            return path

        _patch(undo, cls, "save", functools.wraps(original_save)(traced_save))

    # learning: EM as the pipeline runner calls it.
    _patch(undo, runner, "em_learn_probabilities",
           wrap("learning.em", runner.em_learn_probabilities,
                lambda r, a, k: {"iterations": int(r.iterations) if r else 0}))

    def restore() -> None:
        tracer.enabled = False
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ----------------------------------------------------------------------
# Reduction: spans -> per-op totals -> per-layer medians
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def per_op_totals(spans: list[tuple]) -> dict[int, dict[str, float]]:
    """For every op, the summed span metrics the per-layer table reads.

    Keys are ``<span name>.ms`` (outermost spans of that name only, so a
    nested call of the same layer is not counted twice),
    ``<span name>.self_ms`` (duration minus the time its children
    cover) and the numeric attributes summed (``rrset.sample.sets``...).
    """
    by_id = {s[0]: s for s in spans if s[0]}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _op, _name, start, end, _attrs in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, parent, op, name, start, end, attrs in spans:
        if op is None:
            continue
        row = out[op]
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[3] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            row[f"{name}.ms"] += (end - start) * 1e3
            if attrs:
                for key, value in attrs.items():
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        row[f"{name}.{key}"] += value
                if name == "session.run":
                    row[f"session.run.{attrs['objective']}.ms"] += (end - start) * 1e3
                if name == "rrset.sample":
                    row[f"rrset.sample.{attrs['regime']}.ms"] += (end - start) * 1e3
        if sid:
            row[f"{name}.self_ms"] += (
                end - start - _covered(children.get(sid, []))
            ) * 1e3
    return out
