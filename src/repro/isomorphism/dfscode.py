"""gSpan DFS codes: representation, lexicographic order, minimality.

A DFS code is a tuple of 5-tuples ``(i, j, li, el, lj)`` describing edges in
DFS discovery order over pattern vertices ``0..n-1``; ``i < j`` is a forward
edge (``j`` is a newly discovered vertex), ``i > j`` a backward edge. The
*minimal* DFS code of a graph under the gSpan order is a canonical form:
two labeled graphs are isomorphic iff their minimal codes are equal. gSpan
enumerates each isomorphism class exactly once by only growing codes that
remain minimal (``is_min``).

Reference: Yan & Han, "gSpan: Graph-Based Substructure Pattern Mining",
ICDM 2002 (paper's [9]).
"""
from __future__ import annotations

from repro.graphdb.model import Graph, make_graph

#: One DFS-code entry: (i, j, label_i, edge_label, label_j).
Edge5 = tuple[int, int, str, str, str]
#: A full DFS code.
DFSCode = tuple[Edge5, ...]


def edge_lt(a: Edge5, b: Edge5) -> bool:
    """gSpan lexicographic order on DFS-code entries (``a < b``).

    Structural order on ``(i, j)`` first (forward/backward rules of the gSpan
    paper), then label order ``(li, el, lj)`` when structure ties.
    """
    ia, ja, ib, jb = a[0], a[1], b[0], b[1]
    if (ia, ja) != (ib, jb):
        fa, fb = ia < ja, ib < jb
        if fa and fb:  # both forward
            return ja < jb or (ja == jb and ia > ib)
        if not fa and not fb:  # both backward
            return ia < ib or (ia == ib and ja < jb)
        if not fa:  # a backward, b forward
            return ia < jb
        return ja <= ib  # a forward, b backward
    return a[2:] < b[2:]


def code_to_graph(code: DFSCode, gid: int = -1) -> Graph:
    """Materialize the pattern graph described by a DFS code."""
    n = max(max(i, j) for i, j, *_ in code) + 1
    vlabels = [""] * n
    edges = []
    for i, j, li, el, lj in code:
        vlabels[i] = li
        vlabels[j] = lj
        edges.append((i, j, el))
    return make_graph(gid, vlabels, edges)


def rightmost_path(code: DFSCode) -> list[int]:
    """Pattern-vertex ids on the rightmost path, root first.

    The rightmost vertex is the latest-discovered vertex; the path follows
    forward edges back to the root. Depends only on the code, not on any
    particular embedding.
    """
    rm = max(max(i, j) for i, j, *_ in code)
    path = [rm]
    cur = rm
    for i, j, *_ in reversed(code):
        if i < j and j == cur:  # forward edge ending at cur
            path.append(i)
            cur = i
    path.reverse()
    if path[0] != 0:
        raise ValueError(f"malformed code (rightmost path {path}): {code}")
    return path


def _min_first_entry(g: Graph) -> tuple[Edge5, list[tuple[list[int], dict[int, int], frozenset[int]]]]:
    """Minimal first code entry over all edge orientations + its embeddings.

    An embedding here is ``(vmap, inv, used_eids)`` mapping pattern vertices
    onto ``g`` itself (the min-code search walks the pattern's own graph).
    """
    best: tuple[str, str, str] | None = None
    states: list[tuple[list[int], dict[int, int], frozenset[int]]] = []
    for eid, (u, v, el) in enumerate(g.edges):
        for a, b in ((u, v), (v, u)):
            key = (g.vlabels[a], el, g.vlabels[b])
            if best is None or key < best:
                best = key
                states = [([a, b], {a: 0, b: 1}, frozenset([eid]))]
            elif key == best:
                states.append(([a, b], {a: 0, b: 1}, frozenset([eid])))
    assert best is not None, "graph has no edges"
    return (0, 1, *best), states


def min_code_of_graph(g: Graph) -> DFSCode:
    """The canonical (minimal) DFS code of ``g``: two graphs have the same
    minimal code iff they are isomorphic.

    Grows the code one entry at a time, keeping every embedding of the
    current minimal prefix and picking the globally minimal rightmost
    extension at each step — the greedy choice is globally optimal because
    DFS-code comparison is lexicographic in the entry sequence.
    """
    if g.n_edges == 0:
        raise ValueError("DFS codes are defined for graphs with >= 1 edge")
    first, states = _min_first_entry(g)
    code: list[Edge5] = [first]
    while len(code) < g.n_edges:
        rmpath = rightmost_path(tuple(code))
        rmpath_set = set(rmpath)
        rmv = rmpath[-1]
        n_mapped = len(states[0][0])
        best: Edge5 | None = None
        best_children: list[tuple[list[int], dict[int, int], frozenset[int]]] = []
        for vmap, inv, used in states:
            # Backward extensions: rightmost vertex -> earlier rightmost-path vertex.
            gv = vmap[rmv]
            for nbr, el, eid in g.adj[gv]:
                if eid in used:
                    continue
                j = inv.get(nbr)
                if j is None or j not in rmpath_set or j == rmv:
                    continue
                t: Edge5 = (rmv, j, g.vlabels[gv], el, g.vlabels[nbr])
                if best is None or edge_lt(t, best):
                    best, best_children = t, [(vmap, inv, used | {eid})]
                elif t == best:
                    best_children.append((vmap, inv, used | {eid}))
            # Forward extensions: any rightmost-path vertex -> new vertex.
            for pi in rmpath:
                gv2 = vmap[pi]
                for nbr, el, eid in g.adj[gv2]:
                    if eid in used or nbr in inv:
                        continue
                    t = (pi, n_mapped, g.vlabels[gv2], el, g.vlabels[nbr])
                    if best is None or edge_lt(t, best):
                        best = t
                        best_children = [
                            (vmap + [nbr], {**inv, nbr: n_mapped}, used | {eid})
                        ]
                    elif t == best:
                        best_children.append(
                            (vmap + [nbr], {**inv, nbr: n_mapped}, used | {eid})
                        )
        assert best is not None, "connected graph must always extend"
        code.append(best)
        # Dedupe identical embeddings (symmetric graphs produce repeats).
        seen: set[tuple[tuple[int, ...], frozenset[int]]] = set()
        states = []
        for vmap, inv, used in best_children:
            key = (tuple(vmap), used)
            if key not in seen:
                seen.add(key)
                states.append((vmap, inv, used))
    return tuple(code)


def is_min(code: DFSCode) -> bool:
    """True iff ``code`` is the canonical minimal code of its own graph."""
    return min_code_of_graph(code_to_graph(code)) == code


def encode(code: DFSCode) -> str:
    """Serialize a code to a compact string (for Arrow columns / broadcast)."""
    return ";".join(f"{i},{j},{li},{el},{lj}" for i, j, li, el, lj in code)


def decode(s: str) -> DFSCode:
    """Inverse of :func:`encode`."""
    out = []
    for part in s.split(";"):
        i, j, li, el, lj = part.split(",")
        out.append((int(i), int(j), li, el, lj))
    return tuple(out)
