"""Shared helpers for spark-submit entrypoints, and the repository's one
SparkSession configuration.

Each job is a function taking a SparkSession and returning printable rows,
wrapped in a ``main()`` that builds its session with :func:`get_spark` when
run standalone (``spark-submit jobs/<name>.py`` or ``python
jobs/<name>.py``). The test suite's ``spark`` fixture (root ``conftest.py``)
and ``perfbench/run.py`` build theirs with the same function.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > 48g fallback.

    The cgroup read is best-effort: some container runtimes do not pass
    the host limit through their sysfs emulation. An unbounded
    value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit)
    is treated as absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


def get_spark(app_name: str):
    """Local SparkSession: master, driver memory, shuffle partitions, Arrow,
    and broadcast joins disabled.

    Master and driver memory are read at JVM launch, not from SparkConf, so
    they go into ``PYSPARK_SUBMIT_ARGS`` before the first session in the
    process is created; later calls reuse the running JVM. Broadcast joins
    are disabled so the join-based matcher exercises the shuffle path at
    test scale.
    """
    os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def render_table(rows: list[dict], title: str) -> str:
    """GitHub-markdown table from a list of uniform dicts."""
    if not rows:
        return f"## {title}\n\n(no rows)\n"
    cols = list(rows[0])
    lines = [f"## {title}", "", "| " + " | ".join(cols) + " |",
             "|" + "|".join("---" for _ in cols) + "|"]
    for r in rows:
        lines.append("| " + " | ".join(str(r.get(c, "")) for c in cols) + " |")
    return "\n".join(lines) + "\n"


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under results/<name>.md."""
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.md").write_text(text)
    print(f"[written] results/{name}.md", file=sys.stderr)
