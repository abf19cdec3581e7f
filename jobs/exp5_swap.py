"""Exp 5 / Figure 15 — effect of the swapping criteria.

Runs TED and the swap-based baselines under Swap_1 (alpha=1), Swap_2
(alpha=0) and Swap_alpha (alpha=0.5). Shape claim: TED beats the baselines
on coverage and time under every criterion."""
from __future__ import annotations

from _common import cached_edges, emit, get_spark, render_table

from repro.core.baselines import all_t, fsg_t
from repro.core.ted import ted
from repro.graphdb.generator import molecule_db

K, E_MAX = 5, 4
ALPHAS = {"Swap_1": 1.0, "Swap_2": 0.0, "Swap_a(0.5)": 0.5}


def run(spark, *, n_graphs: int = 150) -> list[dict]:
    rows = []
    for ds in ("aids_lite", "emol_lite"):
        with cached_edges(spark, molecule_db(ds, n_graphs, seed=0)) as edges:
            for crit, alpha in ALPHAS.items():
                for r in [
                    ted(spark, edges, k=K, e_max=E_MAX, alpha=alpha),
                    all_t(spark, edges, k=K, e_max=E_MAX, alpha=alpha),
                    fsg_t(spark, edges, k=K, e_max=E_MAX, sup_min=0.1, alpha=alpha),
                ]:
                    rows.append({"dataset": ds, "criterion": crit, **r.row()})
    return rows


def main() -> None:
    spark = get_spark("exp5_swap")
    emit("exp5_swap", render_table(run(spark), "Exp 5 (Fig 15) — Effect of Swapping Criteria"))
    spark.stop()


if __name__ == "__main__":
    main()
