#!/usr/bin/env python3
"""Checks of the benchmark itself (not of the library).

From the root of a checkout::

    python3 perfbench/selftest.py smoke [workload ...]
    python3 perfbench/selftest.py determinism [workload ...]

``smoke`` runs every workload briefly, untraced and traced, and checks
that the printed metric names and units are exactly those of
``BENCHMARK.json`` and that no op failed (``error_rate == 0``).

``determinism`` runs each workload twice with one seed and once with
another: the two same-seed runs must give identical inputs, identical
answer seed sets and an identical ``objective_mc``, and the other seed
must give different inputs.

Each check runs ``perfbench/run.py`` in a fresh process, waits for it,
and exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("warm-http", "churn-http", "cold-library", "pipeline")
SMOKE_SECONDS = 2


def run(workload: str, seed: int, trace: int, seconds: float = SMOKE_SECONDS,
        extra: tuple = ()):
    """(detail, result) of one benchmark run; raises if it failed."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"{workload}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def smoke(workloads) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    spans = ROOT / ".perfbench_work" / "smoke-spans.jsonl"
    spans.parent.mkdir(exist_ok=True)
    for workload in workloads:
        for trace in (0, 1):
            detail, result = run(
                workload, 1, trace, extra=("--spans", str(spans)) if trace else ()
            )
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected[trace],
                  f"{workload} trace={trace}: metric names and units match BENCHMARK.json")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace={trace}: result keys")
            check(detail["error_rate"] == 0 and result["failed"] == 0
                  and result["correct"],
                  f"{workload} trace={trace}: error_rate == 0 "
                  f"({result['attempted']} ops, problems {detail['problems']})")
            if trace:
                rows = [json.loads(line) for line in spans.read_text().splitlines()]
                spans.unlink()
                check(len(rows) == detail["spans"] and any(r["op"] is not None for r in rows),
                      f"{workload}: --spans wrote {len(rows)} spans with op ids")
    try:
        spans.parent.rmdir()
    except OSError:
        pass


def determinism(workloads) -> None:
    for workload in workloads:
        first, _ = run(workload, 7, 0, seconds=1)
        again, _ = run(workload, 7, 0, seconds=1)
        other, _ = run(workload, 8, 0, seconds=1)
        check(first["inputs_sha256"] == again["inputs_sha256"],
              f"{workload}: same seed, same inputs")
        check(first["answers_sha256"] == again["answers_sha256"],
              f"{workload}: same seed, same answer seed sets")
        check(first["objective_mc"] == again["objective_mc"],
              f"{workload}: same seed, same objective_mc "
              f"({first['objective_mc']})")
        check(first["inputs_sha256"] != other["inputs_sha256"],
              f"{workload}: another seed, other inputs")


def main(argv) -> int:
    if not argv or argv[0] not in ("smoke", "determinism"):
        print(__doc__, file=sys.stderr)
        return 2
    workloads = argv[1:] or WORKLOADS
    unknown = set(workloads) - set(WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    (smoke if argv[0] == "smoke" else determinism)(workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
