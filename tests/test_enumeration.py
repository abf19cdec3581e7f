"""Distributed enumeration tests: level jobs and gSpan driver vs brute
force, support thresholds, and oracle-checked support aggregation."""
import math

import pytest
from pyspark.sql import functions as F

from repro.enumeration.distributed import match_level, match_level_df
from repro.enumeration.gspan import CODE_KEY, EnumStats, enumerate_gspan, level1_codes
from repro.graphdb.model import edge_key
from repro.graphdb.spark_io import to_edges_df, to_edges_pandas
from repro.isomorphism.bruteforce import (
    canonical_form_bruteforce,
    distinct_patterns_bruteforce,
)
from repro.isomorphism.dfscode import code_to_graph, min_code_of_graph
from repro.isomorphism.matcher import match_stats
from repro.oracle import assert_equivalent
from tests.helpers import tiny_db


class TestLevel1Codes:
    def test_all_triples_present(self, spark, tiny_mol_db, tiny_edges):
        codes = level1_codes(tiny_edges)
        expected = set()
        for g in tiny_mol_db:
            for u, v, el in g.edges:
                a, b = sorted((g.vlabels[u], g.vlabels[v]))
                expected.add(((0, 1, a, el, b),))
        assert set(codes) == expected

    def test_sorted_canonically(self, tiny_edges):
        codes = level1_codes(tiny_edges)
        assert codes == sorted(codes, key=CODE_KEY)

    def test_triples_against_oracle(self, spark, tiny_mol_db, tiny_edges):
        df = (
            tiny_edges.select(
                F.least("ul", "vl").alias("a"),
                F.col("el").alias("el"),
                F.greatest("ul", "vl").alias("b"),
            )
            .distinct()
        )
        assert_equivalent(
            df,
            "SELECT DISTINCT least(ul, vl) AS a, el, greatest(ul, vl) AS b FROM edges",
            edges=to_edges_pandas(tiny_mol_db),
        )


class TestMatchLevel:
    def test_matches_python_matcher(self, spark, tiny_mol_db, tiny_edges):
        codes = level1_codes(tiny_edges)[:6]
        stats = match_level(spark, tiny_edges, codes)
        for ps in stats:
            exp_sup, exp_cov, exp_emb = set(), set(), 0
            exp_ext = set()
            for g in tiny_mol_db:
                ms = match_stats(ps.code, g)
                if ms.n_embeddings:
                    exp_sup.add(g.gid)
                    exp_cov |= {edge_key(g.gid, e) for e in ms.covered_eids}
                    exp_emb += ms.n_embeddings
                    exp_ext |= ms.extensions
            assert ps.support_gids == exp_sup
            assert ps.cover == exp_cov
            assert ps.n_embeddings == exp_emb
            assert ps.extensions == exp_ext

    def test_output_order_matches_input(self, spark, tiny_edges):
        codes = level1_codes(tiny_edges)
        stats = match_level(spark, tiny_edges, codes)
        assert [ps.code for ps in stats] == codes

    def test_level_df_schema(self, spark, tiny_edges):
        codes = level1_codes(tiny_edges)[:2]
        df = match_level_df(spark, tiny_edges, codes)
        assert df.columns == ["pattern_id", "graph_id", "n_emb", "covered", "exts", "truncated"]

    def test_support_aggregation_oracle(self, spark, tiny_mol_db, tiny_edges):
        """Spark countDistinct support aggregate vs DuckDB over the level rows."""
        codes = level1_codes(tiny_edges)
        ldf = match_level_df(spark, tiny_edges, codes).cache()
        agg = ldf.groupBy("pattern_id").agg(
            F.countDistinct("graph_id").alias("support"),
            F.sum(F.size("covered")).alias("coverage"),
        )
        rows = ldf.select("pattern_id", "graph_id", F.size("covered").alias("ncov")).toPandas()
        assert_equivalent(
            agg,
            "SELECT pattern_id, count(DISTINCT graph_id) AS support, sum(ncov) AS coverage "
            "FROM rows GROUP BY pattern_id",
            rows=rows,
        )
        ldf.unpersist()


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestGSpanVsBruteForce:
    def test_same_patterns_supports_covers(self, spark, seed):
        db = tiny_db(seed, n_graphs=6, n_min=4, n_max=7)
        edges = to_edges_df(spark, db)
        seen = {}
        enumerate_gspan(spark, edges, e_max=3, visitor=lambda ps: seen.__setitem__(ps.code, ps))
        bf = distinct_patterns_bruteforce(db, 3)
        assert len(seen) == len(bf)
        bf_keyed = {}
        for canon, occ in bf.items():
            cov = set()
            for gid, esets in occ.items():
                for es in esets:
                    cov |= {edge_key(gid, e) for e in es}
            bf_keyed[canon] = (frozenset(occ), frozenset(cov))
        for code, ps in seen.items():
            canon = canonical_form_bruteforce(code_to_graph(code))
            sup, cov = bf_keyed[canon]
            assert ps.support_gids == sup and ps.cover == cov


class TestSupportThreshold:
    def test_frequent_subset_of_all(self, spark, tiny_edges):
        all_codes, freq_codes = set(), set()
        enumerate_gspan(spark, tiny_edges, e_max=3,
                        visitor=lambda ps: all_codes.add(ps.code))
        enumerate_gspan(spark, tiny_edges, e_max=3, min_support_frac=0.5,
                        visitor=lambda ps: freq_codes.add(ps.code))
        assert freq_codes < all_codes

    def test_threshold_enforced(self, spark, tiny_mol_db, tiny_edges):
        frac = 0.5
        thresh = math.ceil(frac * len(tiny_mol_db))
        sups = []
        enumerate_gspan(spark, tiny_edges, e_max=3, min_support_frac=frac,
                        visitor=lambda ps: sups.append(ps.support))
        assert sups and all(s >= thresh for s in sups)

    def test_antimonotone_no_frequent_child_missed(self, spark, tiny_mol_db, tiny_edges):
        """Every frequent pattern found by ALL-enumeration must also be found
        with support pruning on (anti-monotonicity of support)."""
        frac = 0.4
        thresh = math.ceil(frac * len(tiny_mol_db))
        all_frequent, mined = set(), set()
        enumerate_gspan(
            spark, tiny_edges, e_max=3,
            visitor=lambda ps: all_frequent.add(ps.code) if ps.support >= thresh else None,
        )
        enumerate_gspan(spark, tiny_edges, e_max=3, min_support_frac=frac,
                        visitor=lambda ps: mined.add(ps.code))
        assert mined == all_frequent


class TestControls:
    def test_e_max_respected(self, spark, tiny_edges):
        sizes = []
        enumerate_gspan(spark, tiny_edges, e_max=2, visitor=lambda ps: sizes.append(len(ps.code)))
        assert max(sizes) == 2

    def test_time_limit_flags(self, spark, tiny_edges):
        stats = enumerate_gspan(spark, tiny_edges, e_max=4, time_limit_s=0.0)
        assert stats.timed_out

    def test_extend_filter_prunes(self, spark, tiny_edges):
        unpruned = EnumStats()
        n_all, n_pruned = [], []
        s1 = enumerate_gspan(spark, tiny_edges, e_max=3)
        s2 = enumerate_gspan(spark, tiny_edges, e_max=3, extend_filter=lambda ps: len(ps.code) < 1)
        assert s2.n_visited < s1.n_visited and s2.n_pruned_filter > 0
