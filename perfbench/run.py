#!/usr/bin/env python3
"""TED benchmark: one workload, one process, a closed loop with one client.

Run from the repository root::

    python3 perfbench/run.py --workload ted-aids --seed 0 --seconds 25 --trace 0

Each run sets up a local SparkSession through ``jobs/_common.get_spark`` on
``local[<nproc>]``, builds the workload's database, warms up, then calls the
workload's algorithm one call at a time for ``--seconds`` seconds. Every
call's output is checked (see :func:`check_call`), and the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``run_s``,
``setup_s``, ``driver_peak_rss_mb``, ``coverage``), measured with no tracing.
With ``--trace 1`` the calls alternate between untraced and traced, and the
metrics are the per-layer split of the traced calls (see ``tracing.py`` and
``README.md``). A run whose output is wrong prints ``"correct": false`` and
exits with code 1.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import re
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOBS = ROOT / "jobs"
SCRATCH = ROOT / ".perfbench_tmp"

K, E_MAX = 5, 4
#: Set-ups per run after the first (whose JVM launch is reported apart).
SETUP_REPEATS = 3
#: Do not start another measured call once this many seconds have passed
#: since the process started, so a run ends well inside three minutes.
DEADLINE_S = 130.0


@dataclass(frozen=True)
class Workload:
    profile: str
    n_graphs: int
    algorithm: str  # "ted" or "all_g"


#: Why each workload is here is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    "ted-aids": Workload("aids_lite", 200, "ted"),
    "allg-pubchem": Workload("pubchem_lite", 100, "all_g"),
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def configure_environment() -> None:
    """Pin the Spark configuration and keep every file inside the checkout.

    Must run before pyspark is imported: the JVM and the Python workers it
    forks inherit this environment, which is how the workers find ``repro``
    (the package is not installed).
    """
    for d in ("tmp", "spark"):
        (SCRATCH / d).mkdir(parents=True, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    os.environ.pop("SPARK_SHUFFLE_PARTITIONS", None)
    os.environ.update(
        SPARK_MASTER=f"local[{nproc}]",
        SPARK_DRIVER_MEM="2g",
        SPARK_LOCAL_DIRS=str(SCRATCH / "spark"),
        TMPDIR=str(SCRATCH / "tmp"),
        JAVA_TOOL_OPTIONS=f"-Djava.io.tmpdir={SCRATCH / 'tmp'} -XX:-UsePerfData",
        PYSPARK_PYTHON=sys.executable,
        PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        ),
    )
    sys.path[:0] = [str(SRC), str(JOBS), str(HERE)]


def relabel(graphs, seed: int):
    """The workload's input for ``seed``: an isomorphic copy of the
    generated database with vertex ids, edge ids, graph order and graph ids
    drawn from ``seed`` (seed 0 is the generator's own numbering).

    Patterns and coverage do not depend on the numbering, so every seed has
    the same expected output and the same amount of work, while the edge
    table, its partitioning, the matcher's traversal order and every cover
    key change with the seed.
    """
    import numpy as np

    from repro.graphdb.model import Graph

    if seed == 0:
        return graphs
    rng = np.random.default_rng(seed)
    out = []
    for gid, src in enumerate(rng.permutation(len(graphs))):
        g = graphs[src]
        perm = rng.permutation(g.n_vertices)
        vlabels = [""] * g.n_vertices
        for v, lab in enumerate(g.vlabels):
            vlabels[perm[v]] = lab
        edges = [
            (int(min(perm[u], perm[v])), int(max(perm[u], perm[v])), el)
            for u, v, el in g.edges
        ]
        order = rng.permutation(len(edges))
        out.append(Graph(gid, tuple(vlabels), tuple(edges[i] for i in order)))
    return out


def set_up(spark, wl: Workload, seed: int):
    """One set-up: SparkSession, database, cached edge table.

    Returns ``(spark, graphs, edges, phase seconds)``. The previous session,
    if any, is stopped first, outside the timed region.
    """
    from _common import get_spark

    from repro.graphdb.generator import molecule_db
    from repro.graphdb.spark_io import to_edges_df

    if spark is not None:
        spark.stop()
    t0 = time.perf_counter()
    spark = get_spark("perfbench")
    t1 = time.perf_counter()
    generated = molecule_db(wl.profile, wl.n_graphs, seed=0)
    t2 = time.perf_counter()
    graphs = relabel(generated, seed)
    t3 = time.perf_counter()
    edges = to_edges_df(spark, graphs).cache()
    edges.count()
    t4 = time.perf_counter()
    phases = {
        "spark.session_s": t1 - t0,
        "graphdb.generate_s": t2 - t1,
        "graphdb.to_edges_df_s": t4 - t3,
    }
    phases["setup_s"] = sum(phases.values())
    return spark, graphs, edges, phases


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait for it to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)


def algorithm(wl: Workload):
    """The workload's call, as ``f(spark, edges) -> AlgoResult``."""
    from repro.core.baselines import all_g
    from repro.core.ted import ted

    if wl.algorithm == "ted":
        return lambda spark, edges: ted(spark, edges, k=K, e_max=E_MAX, variant="ted")
    return lambda spark, edges: all_g(spark, edges, k=K, e_max=E_MAX)


# -- driver memory ------------------------------------------------------------
def reset_peak_rss() -> None:
    """Lower the kernel's RSS high-water mark to the current RSS, so that a
    call's peak is not masked by an earlier call's."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024


# -- correctness ----------------------------------------------------------------
def duckdb_coverage(graphs, patterns) -> int:
    """``|Cov(P, D)|`` recounted by DuckDB from the edge table, through the
    relational matcher's SQL: independent of the Python matcher."""
    import duckdb

    from repro.graphdb.spark_io import to_edges_pandas
    from repro.isomorphism.df_matcher import cover_sql

    con = duckdb.connect()
    try:
        con.register("edges", to_edges_pandas(graphs))
        covered: set[tuple[int, int]] = set()
        for code in patterns:
            covered.update(con.execute(cover_sql(code)).fetchall())
    finally:
        con.close()
    return len(covered)


def check_call(result, expected, recount) -> list[str]:
    """Reasons the call's output is wrong; empty when it is right."""
    from repro.isomorphism.dfscode import encode

    problems = []
    if result.timed_out:
        problems.append("timed out")
    if result.extra.get("truncated"):
        problems.append("embedding cap hit (cover sets truncated)")
    patterns = sorted(encode(p) for p in result.patterns)
    if patterns != sorted(expected["patterns"]):
        problems.append(f"patterns differ from the expected record: {patterns}")
    if result.coverage != expected["coverage"]:
        problems.append(f"coverage {result.coverage} != expected {expected['coverage']}")
    if result.coverage != recount:
        problems.append(f"coverage {result.coverage} != DuckDB recount {recount}")
    return problems


def median(xs):
    return statistics.median(xs) if xs else 0.0


# -- main --------------------------------------------------------------------------
def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "repro").is_dir() or not (JOBS / "_common.py").is_file():
        print(f"perfbench: {ROOT} holds no src/repro or jobs/_common.py", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    configure_environment()
    spark = None
    try:
        # The first set-up pays the JVM launch; the median of the others is setup_s.
        setups = []
        for _ in range(1 + SETUP_REPEATS):
            spark, graphs, edges, phases = set_up(spark, wl, args.seed)
            setups.append(phases)
        return measure(args, wl, expected, t_start, spark, graphs, edges, setups)
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(SCRATCH, ignore_errors=True)


def measure(args, wl, expected, t_start, spark, graphs, edges, setups) -> int:
    """Warm up, run the closed loop, check every call, print the result."""
    cold, warm = setups[0], setups[1:]
    sc = spark.sparkContext
    print(f"# workload={args.workload} seed={args.seed} master={sc.master} "
          f"defaultParallelism={sc.defaultParallelism} "
          f"nproc={len(os.sched_getaffinity(0))} graphs={len(graphs)} "
          f"edges={sum(g.n_edges for g in graphs)}", flush=True)

    # Warm-up: one level job starts a Python worker and compiles the job's
    # code paths in the JVM.
    from repro.enumeration.distributed import match_level
    from repro.enumeration.gspan import level1_codes

    match_level(spark, edges, level1_codes(edges))

    call = algorithm(wl)
    trace = None
    if args.trace:
        from tracing import LayerTrace

        trace = LayerTrace(spark)
    times, traced_times, rss, results = [], [], [], []
    failed: set[int] = set()  # indices into results
    layer_records, first_traced = [], None
    t_loop = time.perf_counter()
    while True:
        traced = trace is not None and len(times) > len(traced_times)
        gc.collect()
        try:
            if traced:
                result, wall = trace.run(lambda: call(spark, edges))
                if first_traced is None:
                    first_traced = len(results)
                layer_records.append(trace.layer_metrics(result, wall))
                traced_times.append(wall)
            else:
                reset_peak_rss()
                t0 = time.perf_counter()
                result = call(spark, edges)
                wall = time.perf_counter() - t0
                rss.append(peak_rss_mb())
                times.append(wall)
            results.append(result)
        except Exception as exc:  # a failed call is counted, not fatal
            print(f"# call failed: {exc!r}", file=sys.stderr)
            failed.add(len(results))
            results.append(None)
        now = time.perf_counter()
        enough = now - t_loop >= args.seconds and (
            trace is None or (times and traced_times)
        )
        if enough or now - t_start + (now - t_loop) / len(results) > DEADLINE_S:
            break

    # Guard, outside the timed region.
    recounts: dict[tuple, int] = {}
    for i, r in enumerate(results):
        if r is None:
            continue
        key = tuple(sorted(r.patterns))
        if key not in recounts:
            recounts[key] = duckdb_coverage(graphs, r.patterns)
        problems = check_call(r, expected, recounts[key])
        for p in problems:
            print(f"# GUARD FAILED: {p}", file=sys.stderr)
        if problems:
            failed.add(i)

    if trace is not None:
        from tracing import per_layer_metrics, replay_matcher

        if not layer_records:
            raise RuntimeError("no traced call completed")
        # The driver replays the first traced call's frontiers; it must find
        # the pairs and embeddings the level jobs returned.
        replay = replay_matcher(trace.frontiers, graphs)
        first = layer_records[0]
        for job, mine in (("match_level.rows", "matcher.hit_pairs"),
                          ("match_level.embeddings", "matcher.embeddings")):
            if first[job] != replay[mine]:
                print(f"# GUARD FAILED: {job}={first[job]} but {mine}={replay[mine]}",
                      file=sys.stderr)
                failed.add(first_traced)
        metrics = per_layer_metrics(layer_records, replay, times, cold, warm)
    else:
        coverage = next((r.coverage for r in results if r is not None), 0)
        metrics = {
            "run_s": (median(times), "s"),
            "setup_s": (median([s["setup_s"] for s in warm]), "s"),
            "driver_peak_rss_mb": (median(rss), "MB"),
            "coverage": (coverage, "edges"),
        }
        print(f"# run_s: {len(times)} calls {[round(t, 3) for t in times]}; "
              f"setup_s: cold {cold['setup_s']:.3f}, warm "
              f"{[round(s['setup_s'], 3) for s in warm]}")

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    correct = not failed
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
