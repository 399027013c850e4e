"""SNAP-style edge-list datasets: real graphs at million-node scale.

The paper's scalability story (§7.3) is told on graphs far larger than
the synthetic Table-1 stand-ins; public million-node networks ship as
SNAP_-style plain-text edge lists — one ``src dst`` pair per line,
``#``-prefixed comments, arbitrary (non-contiguous) node ids.
:func:`load_snap_graph` turns such a file into a
:class:`~repro.graph.DiGraph`: ids are relabelled to ``0..n-1`` with
``np.unique``, self-loops and duplicate edges are dropped, and the
influence probabilities come from the standard schemes of
:mod:`repro.graph.weights`.

Because the repository cannot ship a multi-hundred-MB crawl,
:func:`synthesize_power_law_edges` generates a million-node power-law
edge list *vectorised* (the per-node loop of
:func:`~repro.graph.generators.power_law_digraph` is fine at test scale
and hopeless at 10^6 nodes): out-degrees from the paper's exponent-2.16
discrete power law, uniform random targets, self-loops and duplicates
removed in one ``np.unique`` over flat ``src * n + dst`` keys.  The CLI

.. code-block:: console

    python -m repro.datasets.snap --synthesize 1000000 --out graph.txt

writes exactly the file format the loader reads; the nightly scale
benchmark synthesises (and caches) its 1M-node input this way.

.. _SNAP: https://snap.stanford.edu/data/
"""

from __future__ import annotations

import argparse
import os
import warnings
from typing import Optional, Union

import numpy as np

from repro.errors import ExperimentError
from repro.graph.digraph import DiGraph
from repro.graph.weights import (
    constant_probabilities,
    trivalency_probabilities,
    weighted_cascade_probabilities,
)
from repro.rng import SeedLike, make_rng

PathLike = Union[str, os.PathLike]

SNAP_WEIGHTINGS = ("weighted-cascade", "trivalency", "constant")


def read_snap_edges(path: PathLike) -> tuple[np.ndarray, np.ndarray]:
    """Parse a SNAP-style edge list into raw ``(src, dst)`` id arrays.

    Lines are whitespace-separated ``src dst`` pairs (extra columns are
    ignored — some SNAP dumps carry timestamps); ``#`` comment lines and
    blank lines are skipped.  Ids are returned exactly as written — no
    relabelling, deduplication, or range checks happen here.  An empty
    file (or one of comments only) yields two empty arrays.
    """
    try:
        with warnings.catch_warnings():
            # Empty input is a documented outcome, not a fault.
            warnings.filterwarnings(
                "ignore", message="loadtxt: input contained no data",
                category=UserWarning,
            )
            data = np.loadtxt(
                path, dtype=np.int64, comments="#", usecols=(0, 1), ndmin=2
            )
    except ValueError as exc:
        raise ExperimentError(f"malformed edge list {path}: {exc}") from exc
    if data.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return data[:, 0].copy(), data[:, 1].copy()


def relabel_edges(
    src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map arbitrary node ids onto ``0..n-1``; returns ``(src, dst, ids)``.

    ``ids`` is the sorted array of distinct original ids — ``ids[new]``
    recovers the original id of relabelled node ``new``.  Nodes that
    appear in no edge vanish (a SNAP file carries no isolated nodes
    anyway).
    """
    if np.asarray(src).size and int(min(src.min(), dst.min())) < 0:
        raise ExperimentError("edge list contains negative node ids")
    ids = np.unique(np.concatenate((src, dst)))
    return (
        np.searchsorted(ids, src),
        np.searchsorted(ids, dst),
        ids,
    )


def clean_edges(
    src: np.ndarray, dst: np.ndarray, num_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Drop self-loops and duplicate edges; returns sorted distinct edges.

    One ``np.unique`` over flat ``src * n + dst`` keys — O(m log m) and
    fully vectorised, which is what makes million-edge inputs cheap.
    """
    keep = src != dst
    keys = src[keep] * np.int64(num_nodes) + dst[keep]
    keys = np.unique(keys)
    return keys // num_nodes, keys % num_nodes


def load_snap_graph(
    path: PathLike,
    *,
    weighting: str = "weighted-cascade",
    constant: float = 0.1,
    rng: SeedLike = None,
) -> DiGraph:
    """Load a SNAP-style edge list as a weighted :class:`DiGraph`.

    Node ids are relabelled to ``0..n-1`` (``n`` = number of distinct
    endpoint ids), self-loops and duplicate edges are dropped, and
    ``weighting`` assigns influence probabilities: ``"weighted-cascade"``
    (``1/indeg``), ``"trivalency"`` (seeded by ``rng``), or
    ``"constant"`` (the ``constant`` value on every edge).
    """
    if weighting not in SNAP_WEIGHTINGS:
        raise ExperimentError(
            f"unknown weighting {weighting!r}; available: {SNAP_WEIGHTINGS}"
        )
    raw_src, raw_dst = read_snap_edges(path)
    if raw_src.size == 0:
        raise ExperimentError(f"edge list {path} holds no edges")
    src, dst, ids = relabel_edges(raw_src, raw_dst)
    src, dst = clean_edges(src, dst, ids.size)
    graph = DiGraph.from_arrays(
        ids.size, src, dst, np.ones(src.size, dtype=np.float64)
    )
    if weighting == "weighted-cascade":
        return weighted_cascade_probabilities(graph)
    if weighting == "trivalency":
        return trivalency_probabilities(graph, rng=rng)
    return constant_probabilities(graph, constant)


def synthesize_power_law_edges(
    num_nodes: int,
    *,
    average_degree: float = 5.0,
    exponent: float = 2.16,
    rng: SeedLike = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised million-scale power-law edge sampler.

    Out-degrees follow the paper's truncated discrete power law
    (``P(d) ∝ d^-exponent`` on ``[1, n-1]``, rescaled to the requested
    mean); every out-edge picks a uniform random target.  Self-loops and
    duplicate edges are removed, so the realised average degree runs a
    hair under the request.  Deterministic given ``rng``.
    """
    if num_nodes < 2:
        raise ExperimentError(f"need num_nodes >= 2, got {num_nodes}")
    if exponent <= 1.0:
        raise ExperimentError(f"exponent must exceed 1, got {exponent}")
    if average_degree <= 0:
        raise ExperimentError(
            f"average_degree must be positive, got {average_degree}"
        )
    gen = make_rng(rng)
    support = np.arange(1, num_nodes, dtype=np.float64)
    weights = support ** (-exponent)
    weights /= weights.sum()
    degrees = gen.choice(
        support.astype(np.int64), size=num_nodes, p=weights
    )
    mean = degrees.mean()
    if mean > 0:
        degrees = np.maximum(
            1, np.round(degrees * (average_degree / mean))
        ).astype(np.int64)
    degrees = np.minimum(degrees, num_nodes - 1)
    src = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
    dst = gen.integers(0, num_nodes, size=src.size, dtype=np.int64)
    return clean_edges(src, dst, num_nodes)


def write_snap_edge_list(
    path: PathLike,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    comment: str = "",
) -> None:
    """Write ``src``/``dst`` pairs in the SNAP format the loader reads."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in comment.splitlines():
            handle.write(f"# {line}\n")
        np.savetxt(handle, np.column_stack((src, dst)), fmt="%d")


def _main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.datasets.snap",
        description=(
            "Synthesize a SNAP-style power-law edge list, or report the "
            "size of an existing one."
        ),
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--synthesize",
        type=int,
        metavar="N",
        help="generate an N-node power-law edge list",
    )
    group.add_argument(
        "--info",
        metavar="PATH",
        help="print 'nodes edges' of an existing edge list and exit",
    )
    parser.add_argument("--out", help="output path (required with --synthesize)")
    parser.add_argument(
        "--average-degree", type=float, default=5.0, metavar="D"
    )
    parser.add_argument("--exponent", type=float, default=2.16)
    parser.add_argument("--seed", type=int, default=2016)
    args = parser.parse_args(argv)
    if args.info is not None:
        src, dst, ids = relabel_edges(*read_snap_edges(args.info))
        src, dst = clean_edges(src, dst, max(ids.size, 1))
        print(f"{ids.size} {src.size}")
        return 0
    if args.out is None:
        parser.error("--synthesize requires --out")
    src, dst = synthesize_power_law_edges(
        args.synthesize,
        average_degree=args.average_degree,
        exponent=args.exponent,
        rng=args.seed,
    )
    write_snap_edge_list(
        args.out,
        src,
        dst,
        comment=(
            f"synthetic power-law digraph: n={args.synthesize} "
            f"exponent={args.exponent} average_degree={args.average_degree} "
            f"seed={args.seed}"
        ),
    )
    print(f"{args.out}: {args.synthesize} nodes, {src.size} edges")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(_main())
