"""Exp 2 / Figure 13 — comparison with the optimal solution on small
databases (paper: PubChem100 and AIDS100; ratio TED/OPT >= 0.945)."""
from __future__ import annotations

from _common import cached_edges, emit, get_spark, render_table

from repro.core.baselines import all_g, fsg_g, opt_exact
from repro.core.ted import ted
from repro.graphdb.generator import molecule_db

K, E_MAX = 5, 3


def run(spark, *, n_graphs: int = 100) -> list[dict]:
    rows = []
    for ds in ("pubchem_lite", "aids_lite"):
        with cached_edges(spark, molecule_db(ds, n_graphs, seed=0)) as edges:
            opt = opt_exact(spark, edges, k=K, e_max=E_MAX)
            for r in [
                opt,
                ted(spark, edges, k=K, e_max=E_MAX),
                all_g(spark, edges, k=K, e_max=E_MAX),
                fsg_g(spark, edges, k=K, e_max=E_MAX, sup_min=0.1),
            ]:
                rows.append(
                    {
                        "dataset": f"{ds}{n_graphs}",
                        **r.row(),
                        "ratio_to_opt": round(r.coverage / opt.coverage, 3),
                    }
                )
    return rows


def main() -> None:
    spark = get_spark("exp2_opt")
    emit(
        "exp2_opt",
        render_table(run(spark), "Exp 2 (Fig 13) — vs optimal solution")
        + "\nPaper: TED/OPT coverage ratio >= 0.945 on PubChem100 and AIDS100.\n",
    )
    spark.stop()


if __name__ == "__main__":
    main()
