"""Exp 1 / Figure 10 — effect of the maximum pattern size E_max.

Shape claims: processing time grows with E_max for every method, fastest
growth for ALL_g (which the paper reports as INF at E_max=15); coverage rate
fluctuates in a narrow band; TED stays close to ALL_g's coverage."""
from __future__ import annotations

from _common import cached_edges, compare_algorithms, emit, get_spark, render_table

from repro.graphdb.generator import molecule_db

K = 5
EMAXES = (2, 3, 4, 5)
TIME_LIMIT = 900.0


def run(spark, *, n_graphs: int = 150, emaxes=EMAXES) -> list[dict]:
    rows = []
    with cached_edges(spark, molecule_db("aids_lite", n_graphs, seed=0)) as edges:
        for e_max in emaxes:
            for r in compare_algorithms(spark, edges, k=K, e_max=e_max, time_limit_s=TIME_LIMIT):
                rows.append({"e_max": e_max, **r.row()})
    return rows


def main() -> None:
    spark = get_spark("exp1_vary_emax")
    emit("exp1_vary_emax", render_table(run(spark), "Exp 1 (Fig 10) — Effect of Maximum Pattern Size E_max"))
    spark.stop()


if __name__ == "__main__":
    main()
