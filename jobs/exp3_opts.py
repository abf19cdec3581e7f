"""Exp 3 / Figure 14 — effect of the optimization strategies.

BASE vs PRM (BASE+pruning) vs TED (PRM+IPS). Shape claims: time decreases
BASE -> PRM -> TED with no coverage loss."""
from __future__ import annotations

from _common import cached_edges, emit, get_spark, render_table

from repro.core.ted import ted
from repro.graphdb.generator import molecule_db

K, E_MAX = 5, 4


def run(spark, *, n_graphs: int = 200) -> list[dict]:
    with cached_edges(spark, molecule_db("aids_lite", n_graphs, seed=0)) as edges:
        return [
            ted(spark, edges, k=K, e_max=E_MAX, variant=v).row()
            for v in ("base", "prm", "ted")
        ]


def main() -> None:
    spark = get_spark("exp3_opts")
    emit("exp3_opts", render_table(run(spark), "Exp 3 (Fig 14) — Effect of Optimization Strategies"))
    spark.stop()


if __name__ == "__main__":
    main()
