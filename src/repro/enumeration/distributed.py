"""One enumeration level as a distributed Spark scan/aggregate job.

The frontier (a list of DFS codes) is broadcast; the edge table is grouped by
``graph_id`` and each group runs the embedding matcher against every frontier
pattern inside ``applyInPandas`` (Arrow exchange, one task per graph batch).
The job emits one row per (pattern, graph) with embeddings:

    (pattern_id, graph_id, n_emb, covered: array<long>, exts: array<string>,
     truncated: boolean)

``covered`` holds *global* edge keys (``edge_key(gid, eid)``), so cover sets
are disjoint across graphs and per-pattern totals are plain sums. The driver
folds the rows into :class:`PatternLevelStats` for PES-Index maintenance —
the only state that must be sequential (it is the paper's swapping stream).
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    ArrayType,
    BooleanType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from repro.graphdb.model import Graph, edge_key
from repro.graphdb.spark_io import graphs_from_pandas
from repro.isomorphism.dfscode import DFSCode, Edge5, code_to_graph, decode, encode
from repro.isomorphism.matcher import DEFAULT_MAX_EMB, match_stats

LEVEL_SCHEMA = StructType(
    [
        StructField("pattern_id", LongType(), False),
        StructField("graph_id", LongType(), False),
        StructField("n_emb", LongType(), False),
        StructField("covered", ArrayType(LongType(), False), False),
        StructField("exts", ArrayType(StringType(), False), False),
        StructField("truncated", BooleanType(), False),
    ]
)


@dataclass
class PatternLevelStats:
    """Database-wide aggregate for one frontier pattern."""

    code: DFSCode
    support_gids: frozenset[int]      # graphs with >= 1 embedding
    cover: frozenset[int]             # global edge keys = Cov(p, D)
    n_embeddings: int                 # total embeddings across D
    extensions: frozenset[Edge5]      # observed rightmost extensions
    truncated: bool                   # any graph hit the embedding cap

    @property
    def support(self) -> int:
        return len(self.support_gids)

    @property
    def coverage(self) -> int:
        return len(self.cover)


def match_level_df(spark: SparkSession, edges: DataFrame, codes: list[DFSCode]) -> DataFrame:
    """The level job as a DataFrame (schema :data:`LEVEL_SCHEMA`).

    Patterns are prepared (code -> pattern graph) on the driver and shipped
    once per executor via a Spark broadcast; each ``applyInPandas`` group is
    one data graph.
    """
    prepared: list[tuple[int, DFSCode, Graph]] = [
        (pid, code, code_to_graph(code)) for pid, code in enumerate(codes)
    ]
    bc = spark.sparkContext.broadcast(prepared)

    def run_graph(pdf: pd.DataFrame) -> pd.DataFrame:
        (g,) = graphs_from_pandas(pdf)  # one group == one graph
        rows = []
        for pid, code, pat in bc.value:
            ms = match_stats(code, g, max_emb=DEFAULT_MAX_EMB, pattern=pat)
            if ms.n_embeddings == 0:
                continue
            rows.append(
                (
                    pid,
                    g.gid,
                    ms.n_embeddings,
                    [edge_key(g.gid, e) for e in sorted(ms.covered_eids)],
                    sorted(encode((e,)) for e in ms.extensions),
                    ms.truncated,
                )
            )
        return pd.DataFrame(rows, columns=[f.name for f in LEVEL_SCHEMA.fields])

    return edges.groupBy("graph_id").applyInPandas(run_graph, LEVEL_SCHEMA)


def match_level(
    spark: SparkSession, edges: DataFrame, codes: list[DFSCode]
) -> list[PatternLevelStats]:
    """Run the level job and fold rows into per-pattern aggregates.

    Returns one entry per input code, in input order (patterns with zero
    support get empty aggregates).
    """
    pdf = match_level_df(spark, edges, codes).toPandas()
    supports: list[set[int]] = [set() for _ in codes]
    covers: list[set[int]] = [set() for _ in codes]
    n_embs = [0] * len(codes)
    exts: list[set[Edge5]] = [set() for _ in codes]
    trunc = [False] * len(codes)
    for pid, gid, n_emb, covered, ext_strs, truncated in zip(
        pdf["pattern_id"], pdf["graph_id"], pdf["n_emb"], pdf["covered"], pdf["exts"], pdf["truncated"]
    ):
        pid = int(pid)
        supports[pid].add(int(gid))
        covers[pid].update(int(x) for x in covered)
        n_embs[pid] += int(n_emb)
        exts[pid].update(decode(s)[0] for s in ext_strs)
        trunc[pid] = trunc[pid] or bool(truncated)
    return [
        PatternLevelStats(
            code=codes[i],
            support_gids=frozenset(supports[i]),
            cover=frozenset(covers[i]),
            n_embeddings=n_embs[i],
            extensions=frozenset(exts[i]),
            truncated=trunc[i],
        )
        for i in range(len(codes))
    ]
