"""The benchmark's layer tracer (``perfbench/tracing.py``) against the
program: it rebinds layer functions by name, so a call made around it
escapes the trace. Loaded by path, as ``perfbench/run.py`` loads it."""
import importlib.util
from pathlib import Path

import pytest

from repro.core.ted import ted

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_ted_matches_driver_replay(spark, tiny_mol_db, tiny_edges, tracing):
    trace = tracing.LayerTrace(spark)
    result, wall = trace.run(lambda: ted(spark, tiny_edges, k=3, e_max=3, variant="ted"))
    m = trace.layer_metrics(result, wall)
    replay = tracing.replay_matcher(trace.frontiers, tiny_mol_db)
    assert m["match_level.rows"] > 0
    assert m["match_level.rows"] == replay["matcher.hit_pairs"]
    assert m["match_level.embeddings"] == replay["matcher.embeddings"]
    # TED scans and matches level 1 once, for IPS and the enumeration both.
    assert trace.count["gspan.level1"] == 1
