"""TED framework tests: variant validity, incremental-vs-recomputed
coverage, the Theorem-4 approximation bound against exact OPT, and the
optimization strategies' behaviour."""
import types

import duckdb
import pytest

from repro.core.baselines import all_g, opt_exact
from repro.core.ted import ips_initial_patterns, ted
from repro.graphdb.model import make_graph
from repro.graphdb.spark_io import to_edges_df, to_edges_pandas
from repro.isomorphism.df_matcher import cover_sql
from repro.isomorphism.dfscode import code_to_graph, is_min
from tests.helpers import tiny_db

K, E_MAX = 3, 3


@pytest.fixture(scope="module", params=["base", "prm", "ips", "ted"])
def variant_result(request, spark, tiny_edges):
    return ted(spark, tiny_edges, k=K, e_max=E_MAX, variant=request.param)


class TestVariantValidity:
    def test_at_most_k_patterns(self, variant_result):
        assert 1 <= len(variant_result.patterns) <= K

    def test_patterns_within_e_max(self, variant_result):
        assert all(len(c) <= E_MAX for c in variant_result.patterns)

    def test_patterns_are_minimal_codes(self, variant_result):
        assert all(is_min(c) for c in variant_result.patterns)

    def test_patterns_connected(self, variant_result):
        assert all(code_to_graph(c).is_connected() for c in variant_result.patterns)

    def test_coverage_rate_in_unit_interval(self, variant_result):
        assert 0 < variant_result.coverage_rate <= 1

    def test_incremental_coverage_matches_recomputation(self, tiny_mol_db, variant_result):
        """|Cov(P, D)| recounted in DuckDB by the join-based matcher's SQL,
        independent of the Python matcher the level jobs run."""
        con = duckdb.connect()
        try:
            con.register("edges", to_edges_pandas(tiny_mol_db))
            covered = set()
            for code in variant_result.patterns:
                covered.update(con.execute(cover_sql(code)).fetchall())
        finally:
            con.close()
        assert len(covered) == variant_result.coverage

    def test_instrumentation_populated(self, variant_result):
        assert variant_result.elapsed_s > 0
        assert variant_result.index_size_bytes > 0
        assert variant_result.n_enumerated > 0


class TestApproximationBound:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_ted_at_least_quarter_of_opt(self, spark, seed):
        db = tiny_db(seed, n_graphs=6, n_min=4, n_max=7)
        edges = to_edges_df(spark, db)
        opt = opt_exact(spark, edges, k=K, e_max=E_MAX)
        for variant in ("base", "ted"):
            r = ted(spark, edges, k=K, e_max=E_MAX, variant=variant)
            assert r.coverage >= opt.coverage / 4, (
                f"{variant}: {r.coverage} < OPT/4 = {opt.coverage / 4}"
            )

    @pytest.mark.parametrize("seed", [11, 12])
    def test_ted_within_opt(self, spark, seed):
        db = tiny_db(seed, n_graphs=6, n_min=4, n_max=7)
        edges = to_edges_df(spark, db)
        opt = opt_exact(spark, edges, k=K, e_max=E_MAX)
        r = ted(spark, edges, k=K, e_max=E_MAX)
        assert r.coverage <= opt.coverage


class TestOptimizations:
    def test_prm_prunes_without_losing_coverage(self, spark, tiny_edges):
        base = ted(spark, tiny_edges, k=K, e_max=E_MAX, variant="base")
        prm = ted(spark, tiny_edges, k=K, e_max=E_MAX, variant="prm")
        # Theorem 3: pruning must not hurt quality (level-sync adaptation:
        # allow tiny slack; on these DBs it is exact — see DESIGN.md §3.3).
        assert prm.coverage >= 0.95 * base.coverage
        assert prm.n_enumerated <= base.n_enumerated

    def test_full_ted_coverage_at_least_base_minus_slack(self, spark, tiny_edges):
        base = ted(spark, tiny_edges, k=K, e_max=E_MAX, variant="base")
        full = ted(spark, tiny_edges, k=K, e_max=E_MAX, variant="ted")
        assert full.coverage >= 0.95 * base.coverage

    def test_ips_produces_k_disjoint_initial_patterns(self, spark, tiny_edges, tiny_level1):
        init, _ = ips_initial_patterns(spark, tiny_edges, tiny_level1, k=K, e_max=E_MAX)
        codes = [c for c, _ in init]
        assert 1 <= len(codes) <= K and len(set(codes)) == len(codes)
        assert all(is_min(c) and len(c) <= E_MAX for c in codes)

    def test_ips_initial_patterns_sorted_by_coverage(self, spark, tiny_edges, tiny_level1):
        init, _ = ips_initial_patterns(spark, tiny_edges, tiny_level1, k=K, e_max=E_MAX)
        sizes = [len(cov) for _, cov in init]
        assert sizes == sorted(sizes, reverse=True)

    def test_ips_truncation_reported_when_prm_stops_at_level1(self, spark):
        """K14 on C with an N and an O pendant on every C: IPS's chain meets
        the embedding cap, while PRM stops the enumeration at level 1 before
        it does. The truncated cover IPS saw must still be reported."""
        n = 14
        vlabels = ["C"] * n + ["N"] * n + ["O"] * n
        es = [(u, v, "a") for u in range(n) for v in range(u + 1, n)]
        es += [(u, n + u, "b") for u in range(n)] + [(u, 2 * n + u, "c") for u in range(n)]
        edges = to_edges_df(spark, [make_graph(0, vlabels, es)])
        r = ted(spark, edges, k=1, e_max=4, variant="ted")
        assert r.n_pruned > 0 and r.extra["levels"] == 1
        assert r.extra["truncated"]

    def test_invalid_variant_raises(self, spark, tiny_edges):
        with pytest.raises(ValueError):
            ted(spark, tiny_edges, k=K, e_max=E_MAX, variant="bogus")


class TestVsGreedyAll:
    def test_ted_close_to_all_g(self, spark, tiny_edges):
        """Paper Result 1: TED comparable to ALL_g in coverage."""
        allg = all_g(spark, tiny_edges, k=K, e_max=E_MAX)
        r = ted(spark, tiny_edges, k=K, e_max=E_MAX)
        assert r.coverage >= 0.85 * allg.coverage


def test_ted_module_not_shadowed_by_package():
    """``repro.core`` must not rebind its ``ted`` submodule to the function."""
    import repro.core.ted as m

    assert isinstance(m, types.ModuleType)
    assert callable(m.ted) and callable(m.ips_initial_patterns)
