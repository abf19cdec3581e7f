"""Biological-importance repository stand-in (Table 7) + pattern supports.

The paper calls a pattern biologically important if it exists as a compound
in the NIH PubChem repository. Offline substitution: the repository is the
generator's motif library (the chemically-styled structures the synthetic
molecules are built from) — a pattern is "important" iff it is isomorphic to
a library motif. See DESIGN.md §3.7.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.enumeration.distributed import match_level
from repro.graphdb.generator import motif_library
from repro.isomorphism.dfscode import DFSCode, min_code_of_graph


def repository_canon(labeled_edges: bool = False) -> frozenset[DFSCode]:
    """Canonical codes of every repository motif."""
    return frozenset(min_code_of_graph(m) for m in motif_library(labeled_edges))


def has_bio_importance(code: DFSCode, *, labeled_edges: bool = False) -> bool:
    """A pattern is biologically important iff it is (nearly) a registered
    repository structure: subgraph-isomorphic to some motif while missing at
    most 2 of the motif's edges. Exact isomorphism to a small motif (e.g.
    the amine C-N) qualifies; a trivial 1-edge fragment of a 6-ring does
    not. This mirrors "the pattern exists as a compound in PubChem" at the
    granularity our E_max allows (mined patterns are often a ring minus an
    edge)."""
    from repro.isomorphism.matcher import contains

    n = len(code)
    for m in motif_library(labeled_edges):
        if n >= max(1, m.n_edges - 2) and n <= m.n_edges and contains(m, code):
            return True
    return False


def bio_importance_count(
    patterns: list[DFSCode], *, labeled_edges: bool = False
) -> tuple[int, list[DFSCode]]:
    """``(count, hits)``: patterns that are (near-)registered structures."""
    hits = [p for p in patterns if has_bio_importance(p, labeled_edges=labeled_edges)]
    return len(hits), hits


def pattern_supports(
    spark: SparkSession, edges: DataFrame, codes: list[DFSCode]
) -> dict[DFSCode, int]:
    """Support of each pattern over D with one Spark job — used to flag
    infrequent (sup < sup_min) patterns in Table 6's "Yes" column."""
    stats = match_level(spark, edges, codes)
    return {ps.code: ps.support for ps in stats}
