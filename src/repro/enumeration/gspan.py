"""Level-synchronous gSpan enumeration driver.

Each DFS level is one Spark job (:func:`repro.enumeration.distributed
.match_level`); the driver streams the level's surviving patterns — in
canonical DFS-code order — to a visitor callback (TED's PatternMaintain, or
a baseline's accumulator), then grows the next frontier by rightmost
extension, keeping only minimal codes (each isomorphism class enumerated
exactly once) and applying support pruning (frequent-subgraph mining) and an
optional ``extend_filter`` (TED's PRM rules).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Callable

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.enumeration.distributed import PatternLevelStats, match_level
from repro.isomorphism.dfscode import DFSCode, edge_lt, is_min


def code_cmp(a: DFSCode, b: DFSCode) -> int:
    """Total order on DFS codes: entry-wise gSpan order, prefix first."""
    for x, y in zip(a, b):
        if x == y:
            continue
        return -1 if edge_lt(x, y) else 1
    return len(a) - len(b)


CODE_KEY = cmp_to_key(code_cmp)


def level1_codes(edges: DataFrame) -> list[DFSCode]:
    """All distinct 1-edge patterns, from one distinct-scan over the edge
    table (labels normalized so ``li <= lj`` — the minimal orientation)."""
    rows = (
        edges.select(
            F.least("ul", "vl").alias("a"), F.col("el"), F.greatest("ul", "vl").alias("b")
        )
        .distinct()
        .collect()
    )
    codes = [((0, 1, r["a"], r["el"], r["b"]),) for r in rows]
    return sorted(codes, key=CODE_KEY)


@dataclass
class EnumStats:
    """Bookkeeping for one enumeration run."""

    n_matched: int = 0          # candidate patterns matched (level-job work)
    n_visited: int = 0          # patterns streamed to the visitor
    n_pruned_support: int = 0   # dropped by the support threshold
    n_pruned_filter: int = 0    # subtrees cut by extend_filter (PRM)
    n_children_nonmin: int = 0  # extensions discarded by the minimality check
    levels: int = 0
    timed_out: bool = False
    truncated: bool = False     # any (pattern, graph) hit the embedding cap
    peak_frontier: int = 0


def enumerate_gspan(
    spark: SparkSession,
    edges: DataFrame,
    *,
    e_max: int,
    min_support_frac: float = 0.0,
    visitor: Callable[[PatternLevelStats], None] | None = None,
    extend_filter: Callable[[PatternLevelStats], bool] | None = None,
    time_limit_s: float | None = None,
    level1: list[PatternLevelStats] | None = None,
) -> EnumStats:
    """Enumerate all (or all frequent) patterns with ``|E| <= e_max``.

    ``min_support_frac`` is the paper's ``sup_min``: patterns occurring in
    fewer than ``ceil(frac * |D|)`` graphs are dropped *and* their subtrees
    pruned (support is anti-monotone under rightmost extension). With
    ``frac = 0`` every pattern with support >= 1 survives — the ALL setting.
    ``|D|`` is the union of the 1-edge patterns' supports: every edge row
    embeds its own 1-edge pattern, so that union is every graph id.

    ``visitor`` sees each surviving pattern exactly once, in canonical
    DFS-code order within each level. ``extend_filter`` decides whether a
    surviving pattern's subtree is explored (TED's PRM hook).

    ``level1`` is the matched first level, ``match_level`` over
    :func:`level1_codes`, for a caller that already has it (TED shares it
    with IPS); without it the first level is scanned and matched here.
    """
    threshold = 1
    t0 = time.perf_counter()
    stats = EnumStats()
    level = level1 if level1 is not None else match_level(spark, edges, level1_codes(edges))
    while level:
        stats.levels += 1
        stats.peak_frontier = max(stats.peak_frontier, len(level))
        if stats.levels == 1 and min_support_frac > 0:
            n_graphs = len(frozenset().union(*(ps.support_gids for ps in level)))
            threshold = max(1, math.ceil(min_support_frac * n_graphs))
        stats.n_matched += len(level)
        children: list[DFSCode] = []
        for ps in sorted(level, key=lambda s: CODE_KEY(s.code)):
            if ps.truncated:
                stats.truncated = True
            if ps.support < threshold:
                stats.n_pruned_support += 1
                continue
            stats.n_visited += 1
            if visitor is not None:
                visitor(ps)
            if len(ps.code) >= e_max:
                continue
            if extend_filter is not None and not extend_filter(ps):
                stats.n_pruned_filter += 1
                continue
            for ext in ps.extensions:
                child = ps.code + (ext,)
                if is_min(child):
                    children.append(child)
                else:
                    stats.n_children_nonmin += 1
        if time_limit_s is not None and time.perf_counter() - t0 > time_limit_s:
            stats.timed_out = True
            break
        level = match_level(spark, edges, sorted(children, key=CODE_KEY)) if children else []
    return stats
