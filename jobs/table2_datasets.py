"""Table 2 — dataset statistics.

Generates the three synthetic stand-in databases at reproduction scale and
reports E_max / V_max / E_avg / V_avg / |D| via the oracle-checked Spark
aggregate, next to the paper's numbers for the real datasets.
"""
from __future__ import annotations

from _common import emit, get_spark, render_table

from repro.graphdb.generator import molecule_db
from repro.graphdb.spark_io import db_stats, to_edges_df

#: (profile, n_graphs at repro scale, paper row for the real dataset)
DATASETS = [
    ("aids_lite", 2000, dict(name="AIDS", e_max=251, v_max=222, e_avg=27.3, v_avg=25.4, d="40K")),
    ("emol_lite", 1000, dict(name="eMol", e_max=104, v_max=100, e_avg=15.9, v_avg=15.5, d="10K")),
    ("pubchem_lite", 1000, dict(name="PubChem", e_max=838, v_max=801, e_avg=43.8, v_avg=42.3, d="1M")),
]


def run(spark, scale: float = 1.0) -> list[dict]:
    rows = []
    for profile, n, paper in DATASETS:
        db = molecule_db(profile, max(10, int(n * scale)), seed=0)
        r = db_stats(to_edges_df(spark, db)).collect()[0]
        rows.append(
            {
                "dataset": f"{profile} (paper: {paper['name']})",
                "|D|": f"{r['n_graphs']} (paper {paper['d']})",
                "E_max": f"{r['e_max']} (paper {paper['e_max']})",
                "V_max": f"{r['v_max']} (paper {paper['v_max']})",
                "E_avg": f"{r['e_avg']} (paper {paper['e_avg']})",
                "V_avg": f"{r['v_avg']} (paper {paper['v_avg']})",
            }
        )
    return rows


def main() -> None:
    spark = get_spark("table2")
    rows = run(spark)
    emit("table2_datasets", render_table(rows, "Table 2 — Datasets (synthetic stand-ins)"))
    spark.stop()


if __name__ == "__main__":
    main()
