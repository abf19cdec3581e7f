"""Shared fixtures for Spark-dependent tests: one tiny molecule database and
its cached edge DataFrame, reused across the whole session."""
import pytest

from repro.enumeration.distributed import match_level
from repro.enumeration.gspan import level1_codes
from repro.graphdb.generator import molecule_db
from repro.graphdb.spark_io import to_edges_df


@pytest.fixture(scope="session")
def tiny_mol_db():
    """12 small eMol-lite molecules — the standard correctness workload."""
    return molecule_db("emol_lite", 12, seed=42)


@pytest.fixture(scope="session")
def tiny_edges(spark, tiny_mol_db):
    df = to_edges_df(spark, tiny_mol_db).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def tiny_level1(spark, tiny_edges):
    """The matched 1-edge patterns of ``tiny_edges``, as TED hands them to IPS."""
    return match_level(spark, tiny_edges, level1_codes(tiny_edges))
