"""The TED framework — Algorithm 3 plus the two optimizations of Section 5.

Variants (paper Section 7 naming):

- ``base``: TED_BASE — level-synchronous enumeration with integrated
  swap-based PatternMaintain; only k patterns (plus one frontier) in memory.
- ``prm``:  BASE + Promising Right-Most Extension (Definition 7) — subtrees
  whose best-possible descendant benefit cannot beat the swap threshold are
  never extended.
- ``ips``:  BASE + Initial Pattern Selection — initial P comes from a
  BFS-style greedy walk over the level-1 roots instead of the first k
  enumerated subgraphs.
- ``ted``:  PRM + IPS (the complete algorithm).

Approximation (Theorem 4): coverage >= OPT/4 under the swap strategy; the
guarantee is independent of stream order, so the level-synchronous stream
(DESIGN.md §3.2) preserves it.
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame, SparkSession

from repro.core.maintain import PatternMaintainer
from repro.core.result import AlgoResult
from repro.enumeration.distributed import PatternLevelStats, match_level
from repro.enumeration.gspan import CODE_KEY, enumerate_gspan, level1_codes
from repro.graphdb.spark_io import per_graph_edge_counts
from repro.isomorphism.dfscode import DFSCode, is_min

VARIANTS = ("base", "prm", "ips", "ted")


def ips_initial_patterns(
    spark: SparkSession,
    edges: DataFrame,
    level1: list[PatternLevelStats],
    *,
    k: int,
    e_max: int,
    e_min: int = 1,
) -> tuple[list[tuple[DFSCode, frozenset[int]]], bool]:
    """Initial Pattern Selection (Section 5.2).

    One greedy chain per matched level-1 root in ``level1``: repeatedly
    extend to the child with the highest coverage while coverage strictly
    improves (and |E| < E_max). All chains advance together, so each BFS
    depth is a single Spark job. Returns the top-k chain ends by coverage as
    (code, cover) pairs, and whether any pattern IPS matched hit the
    embedding cap.
    """

    def rank(ps: PatternLevelStats):
        return -ps.coverage, CODE_KEY(ps.code)

    # Chains have distinct codes at every depth, so a child's prefix
    # ``code[:-1]`` names the one chain it extends.
    chains = [ps for ps in level1 if ps.support > 0]
    ends: list[PatternLevelStats] = []
    truncated = False
    while chains:
        children = [
            child
            for ps in chains
            if len(ps.code) < e_max
            for child in (ps.code + (ext,) for ext in sorted(ps.extensions))
            if is_min(child)
        ]
        best: dict[DFSCode, PatternLevelStats] = {}
        for cs in match_level(spark, edges, children) if children else ():
            truncated |= cs.truncated
            cur = best.get(cs.code[:-1])
            if cur is None or rank(cs) < rank(cur):
                best[cs.code[:-1]] = cs
        grown = []
        for ps in chains:
            ch = best.get(ps.code)
            if ch is not None and ch.coverage > ps.coverage:
                grown.append(ch)
            else:
                ends.append(ps)  # no improving child — chain done
        chains = grown
    ends.sort(key=rank)
    picked = [(ps.code, ps.cover) for ps in ends if len(ps.code) >= e_min][:k]
    return picked, truncated


def ted(
    spark: SparkSession,
    edges: DataFrame,
    *,
    k: int,
    e_max: int,
    e_min: int = 1,
    alpha: float = 1.0,
    variant: str = "ted",
    time_limit_s: float | None = None,
) -> AlgoResult:
    """Run a TED variant and return its result + instrumentation.

    ``e_min`` is the VINCENT pattern budget's minimum pattern size
    (Section 6.2 MinE): patterns with fewer edges are traversed but not
    eligible for P. The discovery problem itself (Definition 3) has no
    minimum, so ``e_min=1`` is the default everywhere except the VQF
    studies.

    Level 1 is matched once and shared by IPS and the enumeration.
    ``time_limit_s`` counts from the start of the call; it is checked only
    between enumeration levels, never inside IPS."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    use_prm = variant in ("prm", "ted")
    use_ips = variant in ("ips", "ted")
    t0 = time.perf_counter()

    edge_counts = per_graph_edge_counts(edges)
    total_edges = sum(edge_counts.values())
    maintainer = PatternMaintainer(k=k, alpha=alpha)
    level1 = match_level(spark, edges, level1_codes(edges))

    ips_truncated = False
    if use_ips:
        seeds, ips_truncated = ips_initial_patterns(
            spark, edges, level1, k=k, e_max=e_max, e_min=e_min
        )
        for code, cover in seeds:
            maintainer.offer(code, cover)

    def visitor(ps: PatternLevelStats) -> None:
        if len(ps.code) < e_min:  # below the pattern budget's MinE
            return
        if ps.code in maintainer:  # already in P (seeded by IPS)
            return
        maintainer.offer(ps.code, ps.cover)

    def prm_filter(ps: PatternLevelStats) -> bool:
        # Definition 7: extend only if even covering every currently
        # uncovered edge of the graphs containing g could beat the swap
        # threshold. Before P is full there is no threshold — always extend.
        if len(maintainer) < k:
            return True
        covered = maintainer.index.covered_per_graph
        bound = sum(edge_counts[g] - covered.get(g, 0) for g in ps.support_gids)
        return bound >= maintainer.swap_threshold()

    enum_stats = enumerate_gspan(
        spark,
        edges,
        e_max=e_max,
        min_support_frac=0.0,
        visitor=visitor,
        extend_filter=prm_filter if use_prm else None,
        time_limit_s=(
            None if time_limit_s is None else time_limit_s - (time.perf_counter() - t0)
        ),
        level1=level1,
    )
    elapsed = time.perf_counter() - t0
    idx = maintainer.index
    return AlgoResult(
        name={"base": "BASE", "prm": "PRM", "ips": "IPS", "ted": "TED"}[variant],
        patterns=maintainer.patterns,
        coverage=idx.cov_total,
        total_edges=total_edges,
        elapsed_s=elapsed,
        timed_out=enum_stats.timed_out,
        index_time_s=idx.maintenance_time_s,
        index_size_bytes=idx.estimated_size_bytes(),
        n_enumerated=enum_stats.n_visited,
        n_pruned=enum_stats.n_pruned_filter,
        n_swaps=maintainer.stats.n_swaps,
        extra={
            "alpha": alpha,
            "k": k,
            "e_max": e_max,
            "levels": enum_stats.levels,
            "peak_frontier": enum_stats.peak_frontier,
            "truncated": enum_stats.truncated or ips_truncated,
        },
    )
