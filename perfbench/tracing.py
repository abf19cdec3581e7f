"""Per-layer tracing for the TED benchmark, done from outside the program.

:class:`LayerTrace` rebinds the public functions of each layer in the
modules that imported them by name, so that every call made by ``ted`` or
``all_g`` passes through a span. Spans are kept in memory: per span name, the
number of calls, the total seconds and the self seconds (total minus the time
covered by child spans). Rebinding is undone by :meth:`LayerTrace.uninstall`,
so untraced calls in the same process run the program's own functions.

Layers and the functions wrapped for them:

- ``graphdb``: ``per_graph_edge_counts`` (in ``core.ted`` and ``core.baselines``);
- ``enumeration.gspan``: ``enumerate_gspan`` and ``level1_codes``;
- ``enumeration.distributed``: ``match_level``, and inside it the Spark job
  (``match_level_df(...).toPandas()``), so the rest of ``match_level`` is the
  driver-side fold;
- ``isomorphism.dfscode``: ``is_min``;
- ``core.ted``: ``ips_initial_patterns``;
- ``core.maintain``: ``PatternMaintainer.offer`` (PES-Index work included);
- ``maxcover.greedy``: ``greedy_max_cover``.

The n-th traced call runs under the Spark job group ``call-<n>``, and each
``match_level`` call in it under its own group, ``call-<n>.ips-<i>`` or
``call-<n>.level-<i>``. Job, stage and task counts are read back from
``SparkContext.statusTracker()``.
"""
from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict

import pyarrow as pa

from repro.core.maintain import PatternMaintainer
from repro.isomorphism.dfscode import code_to_graph
from repro.isomorphism.matcher import DEFAULT_MAX_EMB, match_stats

GSPAN = importlib.import_module("repro.enumeration.gspan")
DISTRIBUTED = importlib.import_module("repro.enumeration.distributed")
# ``import repro.core.ted`` would yield the function ``ted``, which
# ``repro.core.__init__`` re-exports under the module's name.
TED = importlib.import_module("repro.core.ted")
BASELINES = importlib.import_module("repro.core.baselines")

#: Span name of the benchmark's own bookkeeping inside a traced call; its
#: time is excluded from the traced run time and from every layer.
ACCOUNTING = "bench.accounting"

#: Layers of the self-time split, with the spans whose self time each owns.
SPLIT = {
    "graphdb": ("graphdb.edge_counts",),
    "gspan": ("gspan.enumerate", "gspan.level1"),
    "distributed_job": ("distributed.job",),
    "distributed_fold": ("distributed.match_level",),
    "dfscode": ("dfscode.is_min",),
    "ted_ips": ("ted.ips",),
    "maintain": ("maintain.offer",),
    "greedy": ("greedy.max_cover",),
}


class LayerTrace:
    """Spans, counters and Spark job groups for traced algorithm calls."""

    def __init__(self, spark) -> None:
        self.sc = spark.sparkContext
        self._patches: list[tuple[object, str, object, object]] = []
        self._n_calls = 0
        self._add_patches()
        self.reset()

    # -- spans -------------------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded by the previous traced call."""
        self._stack: list[list] = []  # [name, start, child seconds]
        self.count: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        self.frontiers: list[tuple[tuple, bool, int]] = []
        self.groups: list[str] = []
        self.enum_stats = None
        self._in_ips = False
        self._call_group = ""

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.count[name] += 1
        self.total[name] += dur
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    # -- rebinding ---------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), new))

    def _add_patches(self) -> None:
        for mod in (TED, BASELINES):
            self._patch(mod, "per_graph_edge_counts",
                        self.wrap("graphdb.edge_counts", mod.per_graph_edge_counts))
            self._patch(mod, "enumerate_gspan", self._enumerate(mod.enumerate_gspan))
        for mod in (GSPAN, TED):
            self._patch(mod, "level1_codes", self.wrap("gspan.level1", mod.level1_codes))
            self._patch(mod, "match_level", self._match_level(mod.match_level))
            self._patch(mod, "is_min", self.wrap("dfscode.is_min", mod.is_min))
        self._patch(TED, "ips_initial_patterns", self._ips(TED.ips_initial_patterns))
        self._patch(DISTRIBUTED, "match_level_df", self._match_level_df(DISTRIBUTED.match_level_df))
        self._patch(PatternMaintainer, "offer", self.wrap("maintain.offer", PatternMaintainer.offer))
        self._patch(BASELINES, "greedy_max_cover",
                    self.wrap("greedy.max_cover", BASELINES.greedy_max_cover))

    def install(self) -> None:
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def _enumerate(self, fn):
        traced = self.wrap("gspan.enumerate", fn)

        def enumerate_gspan(*args, **kwargs):
            self.enum_stats = traced(*args, **kwargs)
            return self.enum_stats

        return enumerate_gspan

    def _ips(self, fn):
        traced = self.wrap("ted.ips", fn)

        def ips_initial_patterns(*args, **kwargs):
            self._in_ips = True
            try:
                return traced(*args, **kwargs)
            finally:
                self._in_ips = False

        return ips_initial_patterns

    def _match_level(self, fn):
        traced = self.wrap("distributed.match_level", fn)

        def match_level(spark, edges, codes, **kwargs):
            kind = "ips" if self._in_ips else "level"
            group = f"{self._call_group}.{kind}-{self.counters[kind + '.jobs']}"
            self.counters[kind + ".jobs"] += 1
            self.counters[kind + ".codes"] += len(codes)
            self.groups.append(group)
            self.frontiers.append((
                tuple(codes),
                kwargs.get("want_extensions", True),
                kwargs.get("max_emb", DEFAULT_MAX_EMB),
            ))
            self.sc.setJobGroup(group, group)
            try:
                return traced(spark, edges, codes, **kwargs)
            finally:
                self.sc.setJobGroup(self._call_group, self._call_group)

        return match_level

    def _match_level_df(self, fn):
        trace = self

        class Collect:
            """Stands in for the level DataFrame; ``match_level`` only
            calls ``toPandas`` on it."""

            def __init__(self, df) -> None:
                self.df = df

            def toPandas(self):
                trace.enter("distributed.job")
                try:
                    pdf = self.df.toPandas()
                finally:
                    trace.exit()
                trace.enter(ACCOUNTING)
                try:
                    c = trace.counters
                    c["rows"] += len(pdf)
                    c["cover_keys"] += int(pdf["covered"].map(len).sum())
                    c["embeddings"] += int(pdf["n_emb"].sum())
                    c["collect_bytes"] += pa.Table.from_pandas(pdf, preserve_index=False).nbytes
                finally:
                    trace.exit()
                return pdf

        def match_level_df(*args, **kwargs):
            return Collect(fn(*args, **kwargs))

        return match_level_df

    # -- one traced call ---------------------------------------------------
    def run(self, call):
        """Run ``call()`` traced; returns its result and wall seconds."""
        self.reset()
        self._call_group = f"call-{self._n_calls}"
        self._n_calls += 1
        self.sc.setJobGroup(self._call_group, self._call_group)
        self.install()
        self.enter("call")
        t0 = time.perf_counter()
        try:
            result = call()
        finally:
            wall = time.perf_counter() - t0
            self.exit()
            self.uninstall()
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        return result, wall

    def layer_metrics(self, result, wall: float) -> dict:
        """Everything the last traced call recorded, as ``name -> value``."""
        tot, own, cnt, c = self.total, self.self_s, self.count, self.counters
        es = self.enum_stats
        run_s = wall - tot[ACCOUNTING]
        m = {
            "trace.run_s": run_s,
            "trace.accounting_s": tot[ACCOUNTING],
            "graphdb.edge_counts_s": tot["graphdb.edge_counts"],
            "gspan.levels": es.levels if es else 0,
            "gspan.peak_frontier": es.peak_frontier if es else 0,
            "gspan.codes_matched": es.n_matched if es else 0,
            "gspan.children_nonmin": es.n_children_nonmin if es else 0,
            "gspan.level1_s": tot["gspan.level1"],
            "match_level.calls": cnt["distributed.match_level"],
            "match_level.s": tot["distributed.match_level"] - tot[ACCOUNTING],
            "match_level.job_s": tot["distributed.job"],
            "match_level.fold_s": own["distributed.match_level"],
            "match_level.rows": c["rows"],
            "match_level.cover_keys": c["cover_keys"],
            "match_level.collect_bytes": c["collect_bytes"],
            "match_level.embeddings": c["embeddings"],
            "is_min.calls": cnt["dfscode.is_min"],
            "is_min.s": tot["dfscode.is_min"],
            "ips.s": tot["ted.ips"],
            "ips.jobs": c["ips.jobs"],
            "ips.codes": c["ips.codes"],
            "prm.pruned": result.n_pruned,
            "pes.s": result.index_time_s,
            "pes.bytes": result.index_size_bytes,
            "maintain.offers": cnt["maintain.offer"],
            "maintain.swaps": result.n_swaps,
            "greedy.s": tot["greedy.max_cover"],
            **self.spark_counts(),
        }
        attributed = 0.0
        for layer, spans in SPLIT.items():
            s = sum(own[n] for n in spans)
            attributed += s
            m[f"split.{layer}_s"] = s
            m[f"split.{layer}_share"] = s / run_s
        m["split.unattributed_s"] = run_s - attributed
        m["split.unattributed_share"] = (run_s - attributed) / run_s
        return m

    def spark_counts(self) -> dict[str, int]:
        """Jobs, stages run and tasks completed under the last call's groups."""
        tracker = self.sc.statusTracker()
        jobs = stages = tasks = 0
        for group in [self._call_group, *self.groups]:
            for jid in tracker.getJobIdsForGroup(group):
                jobs += 1
                info = tracker.getJobInfo(jid)
                for sid in info.stageIds if info else ():
                    st = tracker.getStageInfo(sid)
                    if st is not None and st.numCompletedTasks > 0:
                        stages += 1
                        tasks += st.numCompletedTasks
        return {"spark.jobs": jobs, "spark.stages": stages, "spark.tasks": tasks}


def replay_matcher(frontiers, graphs) -> dict[str, float]:
    """Match every captured frontier against every graph in the driver,
    single-threaded: the matcher's work without Spark around it."""
    pairs = hits = embeddings = truncated = 0
    t0 = time.perf_counter()
    for codes, want_ext, max_emb in frontiers:
        for code in codes:
            pat = code_to_graph(code)
            for g in graphs:
                ms = match_stats(code, g, want_extensions=want_ext, max_emb=max_emb, pattern=pat)
                pairs += 1
                if ms.n_embeddings:
                    hits += 1
                    embeddings += ms.n_embeddings
                    truncated += ms.truncated
    return {
        "matcher.replay_s": time.perf_counter() - t0,
        "matcher.pairs": pairs,
        "matcher.hit_pairs": hits,
        "matcher.hit_ratio": hits / pairs if pairs else 0.0,
        "matcher.embeddings": embeddings,
        "matcher.truncated_pairs": truncated,
    }


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_share", "_ratio", "speedup")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def per_layer_metrics(records, replay, untraced_times, cold, warm) -> dict:
    """``name -> (value, unit)`` for a traced run. Times and ratios are
    medians over the traced calls; counts come from the first call, since
    they repeat exactly. ``cold`` and ``warm`` are the set-up phase times."""
    first = records[0]
    m = {}
    for name in first:
        values = [r[name] for r in records]
        m[name] = statistics.median(values) if _unit(name) in ("s", "ratio") else first[name]
    m.update(replay)
    m["match_level.driver_speedup"] = replay["matcher.replay_s"] / first["match_level.job_s"]
    untraced = statistics.median(untraced_times) if untraced_times else 0.0
    m["trace.untraced_run_s"] = untraced
    m["trace.overhead_s"] = m["trace.run_s"] - untraced
    m["setup.cold_s"] = cold["setup_s"]
    for name in ("spark.session_s", "graphdb.generate_s", "graphdb.to_edges_df_s"):
        m[name] = statistics.median([s[name] for s in warm])
    return {n: (v, _unit(n)) for n, v in m.items()}
