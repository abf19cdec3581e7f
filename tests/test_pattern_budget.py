"""Tests for the VQF pattern-budget (MinE) plumbing and FS maximality."""
import pytest

from repro.core.ted import ips_initial_patterns, ted
from repro.enumeration.gspan import enumerate_gspan
from repro.isomorphism.dfscode import code_to_graph
from repro.isomorphism.matcher import contains
from repro.vqf.catapult import catapult_lite
from repro.vqf.fs import _maximal, top_k_frequent


class TestEmin:
    def test_ted_respects_e_min(self, spark, tiny_edges):
        r = ted(spark, tiny_edges, k=3, e_max=3, e_min=2)
        assert r.patterns and all(len(c) >= 2 for c in r.patterns)

    def test_ted_e_min_default_allows_single_edges(self, spark, tiny_edges):
        r = ted(spark, tiny_edges, k=3, e_max=3)
        assert r.patterns  # no size constraint by default

    def test_ips_respects_e_min(self, spark, tiny_edges, tiny_level1):
        init, _ = ips_initial_patterns(spark, tiny_edges, tiny_level1, k=3, e_max=3, e_min=2)
        assert all(len(c) >= 2 for c, _ in init)

    def test_fs_respects_e_min(self, spark, tiny_edges):
        pats = top_k_frequent(spark, tiny_edges, k=6, e_max=3, e_min=2, sup_min=0.3)
        assert all(len(c) >= 2 for c, _ in pats)

    def test_catapult_respects_e_min(self, spark, tiny_edges):
        pats = catapult_lite(spark, tiny_edges, k=6, e_max=3, e_min=2, sup_min=0.2)
        assert all(len(c) >= 2 for c, _ in pats)

    def test_e_min_coverage_not_higher(self, spark, tiny_edges):
        """Restricting the candidate space cannot increase coverage."""
        free = ted(spark, tiny_edges, k=3, e_max=3)
        constrained = ted(spark, tiny_edges, k=3, e_max=3, e_min=2)
        assert constrained.coverage <= free.coverage


class TestFsMaximality:
    def test_returned_patterns_are_maximal(self, spark, tiny_edges):
        sup_min = 0.3
        pats = top_k_frequent(spark, tiny_edges, k=20, e_max=3, sup_min=sup_min)
        all_frequent = []
        enumerate_gspan(
            spark, tiny_edges, e_max=3, min_support_frac=sup_min,
            visitor=lambda ps: all_frequent.append(ps.code),
        )
        for code, _ in pats:
            bigger = [c for c in all_frequent if len(c) == len(code) + 1]
            assert not any(contains(code_to_graph(b), code) for b in bigger)

    def test_maximal_filter_unit(self):
        # C-C is contained in C-C-C -> dropped; C-C-C survives
        cc = ((0, 1, "C", "-", "C"),)
        ccc = ((0, 1, "C", "-", "C"), (1, 2, "C", "-", "C"))
        out = _maximal([(cc, 5), (ccc, 4)])
        assert out == [(ccc, 4)]

    def test_maximal_keeps_incomparable(self):
        cc = ((0, 1, "C", "-", "C"),)
        nn = ((0, 1, "N", "-", "N"),)
        out = _maximal([(cc, 5), (nn, 4)])
        assert out == [(cc, 5), (nn, 4)]
