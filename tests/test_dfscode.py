"""Tests for gSpan DFS-code machinery — cross-checked against brute force."""
import pytest

from repro.graphdb.model import make_graph
from repro.isomorphism.bruteforce import canonical_form_bruteforce
from repro.isomorphism.dfscode import (
    code_to_graph,
    decode,
    edge_lt,
    encode,
    is_min,
    min_code_of_graph,
    rightmost_path,
)
from tests.helpers import random_connected_graph


class TestEdgeOrder:
    def test_forward_smaller_target_first(self):
        assert edge_lt((0, 2, "C", "-", "C"), (0, 3, "C", "-", "C"))

    def test_forward_same_target_deeper_source_first(self):
        assert edge_lt((2, 3, "C", "-", "C"), (0, 3, "C", "-", "C"))

    def test_backward_before_forward_from_same_vertex(self):
        # backward (2,0) vs forward (2,3): backward first
        assert edge_lt((2, 0, "C", "-", "C"), (2, 3, "C", "-", "C"))

    def test_forward_before_backward_of_later_vertex(self):
        # forward (0,1) precedes backward (2,0)
        assert edge_lt((0, 1, "C", "-", "C"), (2, 0, "C", "-", "C"))

    def test_backward_smaller_target_first(self):
        assert edge_lt((3, 0, "C", "-", "C"), (3, 1, "C", "-", "C"))

    def test_label_tiebreak(self):
        assert edge_lt((0, 1, "C", "-", "C"), (0, 1, "C", "-", "N"))
        assert edge_lt((0, 1, "C", "-", "N"), (0, 1, "N", "-", "C"))

    @pytest.mark.parametrize("seed", range(20))
    def test_total_order_on_sampled_tuples(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        tuples = []
        for _ in range(12):
            j = int(rng.integers(1, 5))
            fwd = rng.random() < 0.6
            if fwd:
                i = int(rng.integers(0, j))
            else:
                i, j = j, int(rng.integers(0, j))
            tuples.append((i, j, "CN"[rng.integers(0, 2)], "-", "CN"[rng.integers(0, 2)]))
        for a in tuples:
            assert not edge_lt(a, a)  # irreflexive
            for b in tuples:
                if a != b:
                    assert edge_lt(a, b) != edge_lt(b, a)  # antisymmetric


class TestRightmostPath:
    def test_single_edge(self):
        assert rightmost_path(((0, 1, "C", "-", "C"),)) == [0, 1]

    def test_path_graph(self):
        code = ((0, 1, "C", "-", "C"), (1, 2, "C", "-", "C"))
        assert rightmost_path(code) == [0, 1, 2]

    def test_branch_goes_through_latest_forward_chain(self):
        # star: 0-1, 0-2 — rightmost path is 0,2
        code = ((0, 1, "C", "-", "C"), (0, 2, "C", "-", "N"))
        assert rightmost_path(code) == [0, 2]

    def test_backward_edge_does_not_change_path(self):
        code = ((0, 1, "C", "-", "C"), (1, 2, "C", "-", "C"), (2, 0, "C", "-", "C"))
        assert rightmost_path(code) == [0, 1, 2]


class TestCodeGraphRoundTrip:
    @pytest.mark.parametrize("seed", range(25))
    def test_code_to_graph_isomorphic_to_source(self, seed):
        g = random_connected_graph(seed)
        code = min_code_of_graph(g)
        back = code_to_graph(code)
        assert canonical_form_bruteforce(back) == canonical_form_bruteforce(g)

    def test_encode_decode_round_trip(self):
        code = ((0, 1, "C", "-", "C"), (1, 2, "C", "1", "N"), (2, 0, "N", "-", "C"))
        assert decode(encode(code)) == code


class TestMinimality:
    @pytest.mark.parametrize("seed", range(60))
    def test_min_code_is_canonical(self, seed):
        """Isomorphic graphs (random relabelings) share one minimal code."""
        import numpy as np

        g = random_connected_graph(seed)
        code = min_code_of_graph(g)
        assert is_min(code)
        rng = np.random.default_rng(seed + 10_000)
        perm = list(rng.permutation(g.n_vertices))
        g2 = make_graph(
            1,
            [g.vlabels[perm.index(i)] for i in range(g.n_vertices)],
            [(perm[u], perm[v], el) for u, v, el in g.edges],
        )
        assert min_code_of_graph(g2) == code

    @pytest.mark.parametrize("seed", range(30))
    def test_canonical_separates_nonisomorphic(self, seed):
        g1 = random_connected_graph(seed)
        g2 = random_connected_graph(seed + 500)
        same_bf = canonical_form_bruteforce(g1) == canonical_form_bruteforce(g2)
        assert (min_code_of_graph(g1) == min_code_of_graph(g2)) == same_bf

    def test_non_minimal_code_detected(self):
        # Path C-C-N: minimal code starts at the C-N end... both orientations
        # share labels; build one starting with the "wrong" first entry.
        bad = ((0, 1, "N", "-", "C"), (1, 2, "C", "-", "C"))
        assert not is_min(bad)
        good = ((0, 1, "C", "-", "C"), (1, 2, "C", "-", "N"))
        assert is_min(good)

    def test_triangle_min_code(self):
        g = make_graph(0, ["C", "C", "C"], [(0, 1), (1, 2), (0, 2)])
        code = min_code_of_graph(g)
        assert code == ((0, 1, "C", "-", "C"), (1, 2, "C", "-", "C"), (2, 0, "C", "-", "C"))

    def test_min_code_requires_edges(self):
        with pytest.raises(ValueError):
            min_code_of_graph(make_graph(0, ["C"], []))
