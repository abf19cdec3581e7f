"""Tables 3 and 4 together — one set of TED runs feeds both (size and
maintenance time of the PES-Index)."""
from __future__ import annotations

import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent))
from _common import emit, get_spark, render_table  # noqa: E402
from pes_tables import run_pes_experiments  # noqa: E402

PAPER3 = (
    "Paper (real datasets, Java): AIDS10K 234 KB (5.39%), AIDS40K 1008 KB (5.31%), "
    "eMol5K 89 KB (5.40%), eMol10K 157 KB (5.39%), PubChem10K 428 KB (5.80%), "
    "PubChem23K 1157 KB (7.58%)."
)
PAPER4 = (
    "Paper (real datasets, Java): AIDS10K 0.5 s (6.86%), AIDS40K 1.88 s (1.00%), "
    "eMol5K 0.25 s (4.12%), eMol10K 0.37 s (3.63%), PubChem10K 1.1 s (0.78%), "
    "PubChem23K 2.85 s (1.39%)."
)


def main() -> None:
    spark = get_spark("table34")
    rows = run_pes_experiments(spark)
    t3 = [
        {k: r[k] for k in ("dataset", "n_graphs", "index_kb", "index_pct_of_dataset")}
        for r in rows
    ]
    t4 = [
        {
            k: r[k]
            for k in ("dataset", "n_graphs", "index_time_s", "index_time_pct_of_total", "total_time_s")
        }
        for r in rows
    ]
    emit("table3_pes_size", render_table(t3, "Table 3 — Size of PES-Index") + "\n" + PAPER3 + "\n")
    emit("table4_pes_time", render_table(t4, "Table 4 — Maintenance Time of PES-Index") + "\n" + PAPER4 + "\n")
    spark.stop()


if __name__ == "__main__":
    main()
