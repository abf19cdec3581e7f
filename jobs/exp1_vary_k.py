"""Exp 1 / Figure 9 — effect of the number of patterns k.

Coverage rate and processing time vs k for TED and the four baselines on
AIDS-lite (paper: AIDS5K; repro scale ~200 graphs). Shape claims: coverage
and time grow with k; TED tracks ALL_g's coverage at lower time; greedy
variants cost more time than swap variants."""
from __future__ import annotations

from _common import cached_edges, compare_algorithms, emit, get_spark, render_table

from repro.graphdb.generator import molecule_db

E_MAX = 4
KS = (1, 3, 5, 7, 9)
TIME_LIMIT = 1200.0


def run(spark, *, n_graphs: int = 200, e_max: int = E_MAX, ks=KS) -> list[dict]:
    rows = []
    with cached_edges(spark, molecule_db("aids_lite", n_graphs, seed=0)) as edges:
        for k in ks:
            for r in compare_algorithms(spark, edges, k=k, e_max=e_max, time_limit_s=TIME_LIMIT):
                rows.append({"k": k, **r.row()})
    return rows


def main() -> None:
    spark = get_spark("exp1_vary_k")
    emit("exp1_vary_k", render_table(run(spark), "Exp 1 (Fig 9) — Effect of Number of Patterns k"))
    spark.stop()


if __name__ == "__main__":
    main()
