#!/usr/bin/env python3
"""The repository benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm-http --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` spends the first half of ``--seconds`` untraced and the
second half traced, and prints the per-layer metrics (plus
``bench.trace_overhead``, the traced over the untraced op median).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON detail record (tail percentile, op count, host probe,
answer digest, problems seen).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: setup_s is the median of this many full setups in one run.
SETUP_REPEATS = 5
#: the tail percentile keeps at least this many ops beyond it.
TAIL_BEYOND = 10
#: host-speed probe repetitions before and after the timed loop.
PROBE_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
    "objective_mc": "nodes",
}
PER_LAYER = {
    "service.rtt_ms": "ms",
    "service.handler_ms": "ms",
    "service.transport_ms": "ms",
    "service.admission_ms": "ms",
    "session.run_ms.selfinfmax": "ms",
    "session.run_ms.compinfmax": "ms",
    "session.run_ms.blocking": "ms",
    "session.pool_hit_rate": "ratio",
    "session.rr_sets_sampled": "count",
    "rrset.sample_ms": "ms",
    "rrset.sets": "count",
    "rrset.memo_ms": "ms",
    "rrset.greedy_ms": "ms",
    "rrset.select_ms": "ms",
    "rrset.repair_ms": "ms",
    "rrset.members_resampled": "count",
    "models.mc_ms": "ms",
    "models.mc_runs": "count",
    "graph.delta_ms": "ms",
    "store.save_ms": "ms",
    "store.bytes_written": "bytes",
    "pipeline.fit_edges_ms": "ms",
    "pipeline.fit_gap_ms": "ms",
    "pipeline.query_ms": "ms",
    "pipeline.warm_ms": "ms",
    "pipeline.stages_skipped": "count",
    "learning.em_iterations": "count",
    "bench.probe_ms": "ms",
    "bench.trace_overhead": "ratio",
}


def probe() -> tuple[float, float]:
    """A fixed pure-Python loop and a fixed numpy kernel, in ms each."""
    import numpy as np

    started = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    middle = time.perf_counter()
    values = np.random.default_rng(0).random(300_000)
    np.sort(values)
    np.cumsum(values[::-1])
    return (middle - started) * 1e3, (time.perf_counter() - middle) * 1e3


def probe_block() -> list[tuple[float, float]]:
    return [probe() for _ in range(PROBE_REPEATS)]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, ops beyond): the highest percentile, in steps
    of 0.1, with at least ``TAIL_BEYOND`` ops strictly beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1], 0
    pct = math.floor(1000.0 * (n - TAIL_BEYOND) / n) / 10.0
    index = max(math.ceil(pct * n / 100.0) - 1, 0)
    return pct, ordered[index], n - 1 - index


def thirds(latencies: list[float]) -> list[float]:
    """Median latency of the first, middle and last third of the ops, in
    order: a run whose ops grow dearer as it goes shows it here."""
    n = len(latencies) // 3
    if n == 0:
        return []
    parts = (latencies[:n], latencies[n:-n], latencies[-n:])
    return [round(statistics.median(part), 3) for part in parts]


def timed_loop(workload, tracer, seconds: float, first: int, min_ops: int):
    """Closed loop: run ops back to back until ``seconds`` have passed and
    at least ``min_ops`` ops are done.  Returns (latencies ms, ops, wall s,
    failed, problems)."""
    before = getattr(workload, "before_op", None)
    after = getattr(workload, "after_op", None)
    latencies: list[float] = []
    ops: list[int] = []
    problems: list[str] = []
    failed = 0
    i = first
    started = time.perf_counter()
    while True:
        if before:
            before(i)
        tracer.op = i
        t0 = time.perf_counter()
        try:
            found = workload.op(i)
        except Exception as exc:  # an op that raises is a failed op
            found = [f"{type(exc).__name__}: {exc}"]
        latencies.append((time.perf_counter() - t0) * 1e3)
        tracer.op = None
        if after:
            after(i)
        ops.append(i)
        if found:
            failed += 1
            problems.extend(f"op {i}: {p}" for p in found[:2])
        i += 1
        if time.perf_counter() - started >= seconds and len(ops) >= min_ops:
            break
    return latencies, ops, time.perf_counter() - started, failed, problems


def layer_metrics(tracer, workload, ops, overhead, probes) -> tuple[dict, dict]:
    """(per-layer metrics, sampling ms per generator class) of the traced ops."""
    from tracing import per_op_totals

    totals = per_op_totals(tracer.spans)
    rows = [totals.get(i, {}) for i in ops]

    def med(fn, among=rows) -> float:
        return float(statistics.median(fn(r) for r in among)) if among else 0.0

    def per_kind(name) -> float:
        """Median over the ops that ran this query kind at all."""
        return med(key(name), [r for r in rows if name in r])

    def key(name):
        return lambda r: r.get(name, 0.0)

    def total(r, names):
        return sum(r.get(f"{name}.ms", 0.0) for name in names)

    def handler(r):
        return total(r, ("service.handle_query", "service.handle_delta",
                         "service.handle_pipeline", "service.handle_pipeline_runs"))

    def admission(r):
        """Handler time outside the call it admits: the session call, or
        the pipeline run (whose queries are session calls of their own).
        The runs listing admits no call and counts as neither."""
        if not handler(r):
            return 0.0
        admitted = ("pipeline.run",) if "pipeline.run.ms" in r else (
            "session.run", "session.apply_delta")
        return handler(r) - total(r, ("service.handle_pipeline_runs",) + admitted)

    hits = sum(r.get("session.run.pool_hits", 0.0) for r in rows)
    lookups = hits + sum(r.get("session.run.pool_misses", 0.0) for r in rows)
    out = {
        "service.rtt_ms": med(key("service.rtt.ms")),
        "service.handler_ms": med(handler),
        "service.transport_ms": med(
            lambda r: r.get("service.rtt.ms", 0.0) - handler(r)
        ),
        "service.admission_ms": med(admission),
        "session.run_ms.selfinfmax": per_kind("session.run.selfinfmax.ms"),
        "session.run_ms.compinfmax": per_kind("session.run.compinfmax.ms"),
        "session.run_ms.blocking": per_kind("session.run.blocking.ms"),
        "session.pool_hit_rate": hits / lookups if lookups else 0.0,
        "session.rr_sets_sampled": med(key("session.run.rr_sets_sampled")),
        "rrset.sample_ms": med(key("rrset.sample.ms")),
        "rrset.sets": med(key("rrset.sample.sets")),
        "rrset.memo_ms": med(key("rrset.memo.ms")),
        "rrset.greedy_ms": med(key("rrset.greedy.ms")),
        "rrset.select_ms": med(key("rrset.select.self_ms")),
        "rrset.repair_ms": med(key("rrset.repair.ms")),
        "rrset.members_resampled": med(key("rrset.repair.resampled")),
        "models.mc_ms": med(key("models.mc.ms")),
        "models.mc_runs": med(key("models.mc.runs")),
        "graph.delta_ms": med(key("graph.delta.ms")),
        "store.save_ms": med(key("store.save.ms")),
        "store.bytes_written": med(key("store.save.bytes")),
        "pipeline.fit_edges_ms": 0.0,
        "pipeline.fit_gap_ms": 0.0,
        "pipeline.query_ms": 0.0,
        "pipeline.warm_ms": 0.0,
        "pipeline.stages_skipped": 0.0,
        "learning.em_iterations": med(key("learning.em.iterations")),
        "bench.probe_ms": statistics.median(p + q for p, q in probes),
        "bench.trace_overhead": overhead,
    }
    if hasattr(workload, "layer_metrics"):
        out.update(workload.layer_metrics(ops))
    regimes = sorted({k for r in rows for k in r if k.startswith("rrset.sample.RR")})
    detail = {
        name[len("rrset.sample."):-len(".ms")]: med(key(name)) for name in regimes
    }
    return out, detail


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    from tracing import Tracer, install
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    tracer = Tracer()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = None
    try:
        setups = []
        for repeat in range(SETUP_REPEATS):
            if workload is not None:
                workload.teardown()
                # Free the torn-down setup now, so that the peak RSS does
                # not depend on when the collector would have run.
                workload = None
                gc.collect()
            workload = cls(args.seed, str(workdir), tracer)
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)

        setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes = probe_block()
        min_ops = workload.min_ops
        if args.trace:
            half = args.seconds / 2.0
            base = timed_loop(workload, tracer, half, 0, min_ops)
            restore = install(tracer)
            try:
                traced = timed_loop(workload, tracer, half, len(base[1]), 1)
            finally:
                restore()
            loops = [base, traced]
        else:
            loops = [timed_loop(workload, tracer, args.seconds, 0, min_ops)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes += probe_block()

        latencies = [x for loop in loops for x in loop[0]]
        attempted = len(latencies)
        failed = sum(loop[3] for loop in loops)
        problems = [p for loop in loops for p in loop[4]]
        objective = None if args.trace else workload.objective()
        answers = json.dumps(sorted(workload.answers.items()))
        inputs = json.dumps(workload.inputs(), sort_keys=True)
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    pct, tail_ms, beyond = tail(loops[0][0])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": attempted,
        "op_tail_percentile": pct,
        "op_tail_ops_beyond": beyond,
        "op_quartiles_ms": statistics.quantiles(loops[0][0], n=4)
        if len(loops[0][0]) > 1 else loops[0][0],
        "op_p50_ms_by_third": thirds(loops[0][0]),
        "error_rate": failed / attempted,
        "problems": problems[:10],
        "setup_samples_s": setups,
        "peak_rss_mb_after_setup": setup_rss_mb,
        "probe_ms": {
            "python": [round(p, 3) for p, _ in probes],
            "numpy": [round(q, 3) for _, q in probes],
        },
        "answers_sha256": hashlib.sha256(answers.encode()).hexdigest(),
        "inputs_sha256": hashlib.sha256(inputs.encode()).hexdigest(),
        "objective_mc": objective,
    }
    if args.trace:
        overhead = statistics.median(loops[1][0]) / statistics.median(loops[0][0])
        values, detail["sample_ms_by_regime"] = layer_metrics(
            tracer, workload, loops[1][1], overhead, probes
        )
        units = PER_LAYER
        detail["spans"] = len(tracer.spans)
        if args.spans:
            fields = ("id", "parent", "op", "name", "start", "end", "attrs")
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(dict(zip(fields, span))) + "\n")
    else:
        lat, ops, wall = loops[0][0], loops[0][1], loops[0][2]
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_ms": statistics.median(lat),
            "op_tail_ms": tail_ms,
            "ops_per_s": len(ops) / wall,
            "peak_rss_mb": peak_rss_mb,
            "success_rate": 1.0 - failed / attempted,
            "objective_mc": objective,
        }
        units = END_TO_END
    print(json.dumps(detail, sort_keys=True))
    correct = failed == 0 and (objective is None or math.isfinite(objective))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("warm-http", "churn-http", "cold-library", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="FILE",
                        help="with --trace 1, write every span as a JSON line to FILE")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no library at {SRC}/repro; run from the root of a "
            "full checkout",
            file=sys.stderr,
        )
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
