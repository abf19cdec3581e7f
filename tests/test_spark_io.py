"""Spark edge-table encoding tests, with DuckDB-oracle-checked statistics,
and the shared session configuration they run on."""
import os

import pytest

from repro.graphdb.spark_io import (
    DB_STATS_SQL,
    db_stats,
    graphs_from_pandas,
    per_graph_edge_counts,
    to_edges_df,
    to_edges_pandas,
)
from repro.oracle import assert_equivalent


class TestRoundTrip:
    def test_pandas_round_trip(self, tiny_mol_db):
        pdf = to_edges_pandas(tiny_mol_db)
        back = graphs_from_pandas(pdf)
        assert [(g.gid, g.vlabels, g.edges) for g in back] == [
            (g.gid, g.vlabels, g.edges) for g in tiny_mol_db
        ]

    def test_spark_round_trip(self, spark, tiny_mol_db, tiny_edges):
        back = graphs_from_pandas(tiny_edges.toPandas())
        assert [(g.gid, g.edges) for g in back] == [(g.gid, g.edges) for g in tiny_mol_db]

    def test_schema_columns(self, tiny_edges):
        assert tiny_edges.columns == ["graph_id", "eid", "u", "v", "ul", "vl", "el"]

    def test_row_count_is_total_edges(self, tiny_mol_db, tiny_edges):
        assert tiny_edges.count() == sum(g.n_edges for g in tiny_mol_db)


class TestStats:
    def test_db_stats_against_oracle(self, spark, tiny_mol_db, tiny_edges):
        stats = db_stats(tiny_edges)
        assert_equivalent(stats, DB_STATS_SQL, edges=to_edges_pandas(tiny_mol_db))

    def test_db_stats_values(self, tiny_mol_db, tiny_edges):
        row = db_stats(tiny_edges).collect()[0]
        assert row["n_graphs"] == len(tiny_mol_db)
        assert row["e_max"] == max(g.n_edges for g in tiny_mol_db)
        assert row["v_max"] == max(g.n_vertices for g in tiny_mol_db)
        assert row["total_edges"] == sum(g.n_edges for g in tiny_mol_db)

    def test_per_graph_edge_counts(self, tiny_mol_db, tiny_edges):
        counts = per_graph_edge_counts(tiny_edges)
        assert counts == {g.gid: g.n_edges for g in tiny_mol_db}


def test_session_config_shared_with_jobs(spark):
    """The fixture's session carries the settings ``jobs/_common.get_spark``
    gives every job and the benchmark."""
    conf = spark.conf
    assert conf.get("spark.sql.shuffle.partitions") == os.environ.get(
        "SPARK_SHUFFLE_PARTITIONS", "64"
    )
    assert conf.get("spark.sql.execution.arrow.pyspark.enabled") == "true"
    assert conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1"
