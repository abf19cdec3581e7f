"""Exp 2 / Figures 11–12 — baseline comparison as the database grows and as
per-graph size grows.

Figure 11 shape: ALL_g's time explodes with |D| (INF on AIDS10K/40K in the
paper) while TED grows steadily; TED's coverage stays comparable to ALL_g.
Figure 12 shape: greedy methods blow up with the max number of nodes per
graph; TED holds comparable coverage; coverage rate rises slightly with
graph size."""
from __future__ import annotations

from _common import cached_edges, compare_algorithms, emit, get_spark, render_table

from repro.core.baselines import all_g, fsg_g
from repro.core.ted import ted
from repro.graphdb.generator import molecule_db

K, E_MAX = 5, 4
SIZES = (100, 200, 400)
TIME_LIMIT = 900.0
NODE_BUCKETS = ((0, 20), (20, 50), (50, 1000))


def run_scale(spark, sizes=SIZES) -> list[dict]:
    rows = []
    for n in sizes:
        with cached_edges(spark, molecule_db("aids_lite", n, seed=0)) as edges:
            for r in compare_algorithms(spark, edges, k=K, e_max=E_MAX, time_limit_s=TIME_LIMIT):
                rows.append({"|D|": n, **r.row()})
    return rows


def run_node_buckets(spark, *, per_bucket: int = 100) -> list[dict]:
    """Figure 12: partition PubChem-lite graphs by node count."""
    pool = molecule_db("pubchem_lite", 2000, seed=1)
    rows = []
    for lo, hi in NODE_BUCKETS:
        sub = [g for g in pool if lo < g.n_vertices <= hi][:per_bucket]
        if len(sub) < 10:
            continue
        sub = [g.relabel(i) for i, g in enumerate(sub)]
        with cached_edges(spark, sub) as edges:
            for r in [
                ted(spark, edges, k=K, e_max=E_MAX, time_limit_s=TIME_LIMIT),
                all_g(spark, edges, k=K, e_max=E_MAX, time_limit_s=TIME_LIMIT),
                fsg_g(spark, edges, k=K, e_max=E_MAX, sup_min=0.1, time_limit_s=TIME_LIMIT),
            ]:
                rows.append({"nodes_in": f"({lo},{hi}]", "n_graphs": len(sub), **r.row()})
    return rows


def main() -> None:
    spark = get_spark("exp2_baselines")
    out = render_table(run_scale(spark), "Exp 2 (Fig 11) — Baselines vs database size")
    out += "\n" + render_table(run_node_buckets(spark), "Exp 2 (Fig 12) — Effect of max nodes per graph")
    emit("exp2_baselines", out)
    spark.stop()


if __name__ == "__main__":
    main()
