"""VQF studies — Tables 5, 6 and 7 and Exp 7 / Figure 17 from one set of
mined pattern sets per dataset.

Each dataset's three compared pattern sets (FS / CATAPULT-lite / TED) are
mined once and every table is derived from them:

- Table 5: the query workload. The paper's queries are real PubChem
  compounds (CIDs, |E| in [30, 62]) — external data. Our synthetic graphs
  are smaller, so queries are sampled connected subgraphs with |E| in
  [12, 24]; the table reports their identifiers (seed-derived) and sizes
  next to the paper's.
- Table 6: number of patterns used in VQF (|P_U|) per query, with "Yes"
  when at least one infrequent (sup < 0.2) pattern is usable, plus the step
  counts behind the paper's Figure 16 (QFT itself needs humans; Steps
  drives it).
- Table 7: patterns with biological importance per pattern set on PubChem.
  "Exists in the PubChem repository" becomes "isomorphic to a motif in the
  generator's motif library" (DESIGN.md §3.7).
- Figure 17: RR = (Steps_FS - Steps_TED) / Steps_FS averaged over a query
  set with fraction rho of infrequent queries, on AIDS. Shape claims:
  RR < 0 at rho = 0 (all queries frequent — FS wins), RR increases with rho
  and crosses 0 around rho ~= 0.2.

The claims under test (TED's patterns cover more of a query than
FS/CATAPULT, and infrequent patterns help) are size-relative.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from _common import cached_edges, emit, get_spark, render_table

from repro.core.ted import ted
from repro.graphdb.generator import molecule_db
from repro.graphdb.model import Graph
from repro.isomorphism.dfscode import DFSCode, encode
from repro.vqf.catapult import catapult_lite
from repro.vqf.fs import top_k_frequent
from repro.vqf.queries import query_set, sample_query
from repro.vqf.repository import bio_importance_count, pattern_supports
from repro.vqf.steps import formulation_steps, reduction_ratio, usable_patterns

K_PATTERNS = 12
E_MAX = 4
E_MIN = 2              # VINCENT pattern budget MinE (Section 6.2): canned
                       # patterns must beat edge-at-a-time, so >= 2 edges
Q_EDGE_RANGE = (12, 24)
N_TABLE_QUERIES = 5    # Tables 5 and 6: queries per dataset
SUP_MIN_FS = 0.2       # FS mining threshold
SUP_INFREQUENT = 0.2   # a pattern with sup < 20% counts as infrequent
RHOS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
N_RR_QUERIES = 20      # Figure 17 queries per rho; paper uses 100,
                       # reduced with the dataset scale

PAPER5 = (
    "Paper (CID, |E|): PubChem Q1 169132(34) Q2 20497364(30) Q3 493570(47) "
    "Q4 135398658(52) Q5 3324(42); AIDS Q1 135398740(32) Q2 565070(34) "
    "Q3 102034018(35) Q4 14852846(30) Q5 154402349(62)."
)
PAPER6 = (
    "Paper |P_U| (PubChem / AIDS): Q1 FS 2/1, CATAPULT 2/2, TED 5/3; "
    "Q2 3/1, 3/1, 5*(Yes)/2; Q3 3/2, 4/1, 6(Yes)/4; Q4 4/1, 5/2, 7(Yes)/3; "
    "Q5 2/2, 2/3, 5(Yes)/6(Yes). Shape claim: TED usable-pattern counts "
    "exceed FS and CATAPULT, and TED uses infrequent patterns."
)
PAPER7 = "Paper counts (PubChem): FS 5, CATAPULT 8, TED 8."

#: result name -> (title, paper note)
TABLES = {
    "table5_queries": ("Table 5 — Queries (sampled substitutes)", PAPER5),
    "table6_vqf": ("Table 6 — Patterns Used in VQF (|P_U|, Yes = infrequent usable)", PAPER6),
    "table7_bio": ("Table 7 — Patterns with Biological Importance (motif-library stand-in)", PAPER7),
    "exp7_rr": ("Exp 7 (Fig 17) — Reduction Ratio vs rho", None),
}


@dataclass
class VqfSetup:
    dataset: str
    db: list[Graph]
    edges: object  # cached Spark DataFrame
    pattern_sets: dict[str, list[DFSCode]]  # FS / CATAPULT / TED
    queries: list[Graph]


@contextmanager
def build_setup(spark, dataset: str, *, n_graphs: int = 300, seed: int = 0):
    """Mine the three pattern sets and sample the Table 5 queries; the edge
    table stays cached until the block exits."""
    db = molecule_db(dataset, n_graphs, seed=seed)
    with cached_edges(spark, db) as edges:
        fs = [
            c
            for c, _ in top_k_frequent(
                spark, edges, k=K_PATTERNS, e_max=E_MAX, e_min=E_MIN, sup_min=SUP_MIN_FS
            )
        ]
        cat = [
            c
            for c, _ in catapult_lite(
                spark, edges, k=K_PATTERNS, e_max=E_MAX, e_min=E_MIN, sup_min=0.1
            )
        ]
        ted_r = ted(spark, edges, k=K_PATTERNS, e_max=E_MAX, e_min=E_MIN)
        queries = [
            sample_query(db, e_min=Q_EDGE_RANGE[0], e_max=Q_EDGE_RANGE[1], seed=seed * 100 + i)
            for i in range(N_TABLE_QUERIES)
        ]
        yield VqfSetup(
            dataset=dataset,
            db=db,
            edges=edges,
            pattern_sets={"FS": fs, "CATAPULT": cat, "TED": ted_r.patterns},
            queries=queries,
        )


def table5_rows(setup: VqfSetup) -> list[dict]:
    return [
        {
            "dataset": setup.dataset,
            "query": f"Q{i}",
            "id": f"sampled(seed={i - 1})",
            "|E|": q.n_edges,
            "|V|": q.n_vertices,
        }
        for i, q in enumerate(setup.queries, 1)
    ]


def table6_rows(spark, setup: VqfSetup) -> list[dict]:
    n_db = len(setup.db)
    sup_cache = {
        name: pattern_supports(spark, setup.edges, codes)
        for name, codes in setup.pattern_sets.items()
    }
    rows = []
    for qi, q in enumerate(setup.queries, 1):
        row = {"dataset": setup.dataset, "query": f"Q{qi}", "|E(Q)|": q.n_edges}
        for name, codes in setup.pattern_sets.items():
            usable = usable_patterns(codes, q)
            infreq = any(sup_cache[name][c] < SUP_INFREQUENT * n_db for c in usable)
            steps, _ = formulation_steps(codes, q)
            row[name] = f"{len(usable)}{' (Yes)' if infreq else ''} [steps {steps}]"
        rows.append(row)
    return rows


def table7_rows(setup: VqfSetup) -> list[dict]:
    rows = []
    for name, codes in setup.pattern_sets.items():
        n, hits = bio_importance_count(codes)
        rows.append(
            {
                "pattern_set": name,
                "n_patterns": len(codes),
                "with_bio_importance": n,
                "hits": "; ".join(encode(h) for h in hits) or "-",
            }
        )
    return rows


def fig17_rows(setup: VqfSetup, rhos=RHOS) -> list[dict]:
    fs, ted_codes = setup.pattern_sets["FS"], setup.pattern_sets["TED"]
    rows = []
    for rho in rhos:
        qs = query_set(setup.db, fs, n_queries=N_RR_QUERIES, rho=rho, seed=int(rho * 10))
        rrs = []
        for q in qs:
            s_fs, _ = formulation_steps(fs, q)
            s_ted, _ = formulation_steps(ted_codes, q)
            rrs.append(reduction_ratio(s_fs, s_ted))
        rows.append({"rho": rho, "avg_RR": round(sum(rrs) / len(rrs), 3), "n_queries": len(qs)})
    return rows


def run(spark, *, n_graphs: int = 300) -> dict[str, list[dict]]:
    """Rows of every table, keyed by result name. Tables 5 and 6 cover
    PubChem then AIDS; Table 7 is PubChem and Figure 17 is AIDS."""
    rows = {name: [] for name in TABLES}
    for ds in ("pubchem_lite", "aids_lite"):
        with build_setup(spark, ds, n_graphs=n_graphs) as setup:
            rows["table5_queries"] += table5_rows(setup)
            rows["table6_vqf"] += table6_rows(spark, setup)
            if ds == "pubchem_lite":
                rows["table7_bio"] = table7_rows(setup)
            else:
                rows["exp7_rr"] = fig17_rows(setup)
    return rows


def main() -> None:
    spark = get_spark("vqf_studies")
    for name, table_rows in run(spark).items():
        title, paper = TABLES[name]
        text = render_table(table_rows, title)
        emit(name, text + "\n" + paper + "\n" if paper else text)
    spark.stop()


if __name__ == "__main__":
    main()
