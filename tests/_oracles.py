"""Independent oracles and fixture graphs used by the tests.

The oracles deliberately avoid the implementation paths they check: cutset
detection is replayed against explicit cycle enumeration and against the
parity of every face of a plane embedding, planar embedded graphs come from
Delaunay triangulations with angle-sorted rotations or from networkx's
planarity test, and vertex connectivity is answered by networkx's
flow-based routine.

The cycle enumerations ``six_cycles_dfs`` and ``induced_four_cycles_by_has_edge``
are depth-first forms of the solver's ``six_cycles`` and
``induced_four_cycles``, kept as references for the order of their lists.

The fixture builders give the small named graphs (cycles, complete and
complete bipartite graphs) the tests decide by hand, ``complement`` flips
every variable of an assignment, and ``random_e4_formula_unfiltered`` draws
E4 formulas that the reduction may refuse.
"""

from __future__ import annotations

import math
import random

import networkx as nx

from pmcut.formula import FormulaError, NaeFormula
from pmcut.graphs import Graph, PlaneEmbedding, is_planar_embedding


def cycle_graph(k: int) -> Graph:
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> Graph:
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def complement(a: tuple) -> tuple:
    return tuple(1 - b for b in a)


def random_e4_formula_unfiltered(n: int, rng: random.Random) -> NaeFormula:
    """Random E4 instance on n variables (n a multiple of 3), reducible or not.

    It shuffles as pmcut's random_e4_formula does and redraws only a shuffle
    that puts a variable twice into one clause, so its incidence graph may be
    disconnected or have variable cutvertices.  Up to its first formula it
    consumes rng exactly as random_e4_formula does.
    """
    if n % 3 or n <= 0:
        raise FormulaError("n must be a positive multiple of 3")
    while True:
        slots = [i for i in range(1, n + 1) for _ in range(4)]
        rng.shuffle(slots)
        triples = iter(slots)
        try:
            return NaeFormula(n, tuple(zip(triples, triples, triples)))
        except FormulaError:  # a clause repeats a variable
            continue


def all_simple_cycles(g: Graph) -> list[list[int]]:
    """Every simple cycle as an edge-id list (each cycle once)."""
    cycles: list[list[int]] = []
    for s in range(g.n):
        stack = [(s, [s], [])]
        while stack:
            v, path_v, path_e = stack.pop()
            for e, w in zip(g.inc[v], g.adj[v]):
                if w == s and len(path_v) >= 3 and path_v[1] < v:
                    cycles.append(path_e + [e])
                elif w > s and w not in path_v:
                    stack.append((w, path_v + [w], path_e + [e]))
    return cycles


def cutset_by_cycle_enumeration(g: Graph, m) -> bool:
    mset = set(m)
    if not mset:
        return False
    return all(sum(1 for e in cyc if e in mset) % 2 == 0 for cyc in all_simple_cycles(g))


def is_cutset_via_cycle_basis(g: Graph, emb: PlaneEmbedding, m) -> bool:
    """Cutset test by facial parity: every face meets m in an even number of edges.

    The bounded faces of a plane graph form a cycle basis, and the unbounded
    face is the sum of the bounded ones, so checking every face walk is
    equivalent.  Edge e flips the parity of the faces of its darts 2e and
    2e + 1.  The faces of a non-plane rotation system do not span the cycle
    space, so it raises ValueError, as is_planar_embedding's errors do.
    """
    if not is_planar_embedding(g, emb):
        raise ValueError("is_cutset_via_cycle_basis requires a plane embedding")
    mset = set(m)
    if not mset:
        return False
    face = emb.face
    odd = bytearray(emb.face_count)
    for e in mset:
        odd[face[2 * e]] ^= 1
        odd[face[2 * e + 1]] ^= 1
    return 1 not in odd


def random_connected_graph(n: int, extra: int, rng: random.Random) -> Graph:
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    attempts = 0
    while len(edges) < n - 1 + extra and attempts < 10 * extra + 20:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def random_planar_embedded(n_points: int, rng: random.Random,
                           keep: float = 0.75) -> tuple[Graph, PlaneEmbedding]:
    """Random connected plane graph: thinned Delaunay triangulation with
    rotations read off the point coordinates."""
    import numpy as np
    from scipy.spatial import Delaunay

    while True:
        pts = [(rng.random(), rng.random()) for _ in range(n_points)]
        try:
            tri = Delaunay(np.array(pts))
        except Exception:
            continue
        edges = set()
        for simplex in tri.simplices:
            for a in range(3):
                u, v = int(simplex[a]), int(simplex[(a + 1) % 3])
                edges.add((min(u, v), max(u, v)))
        edges = sorted(edges)
        order = list(range(len(edges)))
        rng.shuffle(order)
        kept = set(edges)
        for k in order:
            if rng.random() > keep and len(kept) > n_points - 1:
                cand = kept - {edges[k]}
                if Graph(n_points, sorted(cand)).is_connected():
                    kept = cand
        g = Graph(n_points, sorted(kept))
        return g, planar_rotation_from_coords(g, pts)


def nx_three_connected(g: Graph) -> bool:
    if g.n < 4:
        return False
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    if not nx.is_connected(h):
        return False
    return nx.node_connectivity(h) >= 3


def nx_plane_embedding(g: Graph):
    """networkx's plane embedding of g as a rotation system, or None when g
    is not planar."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    planar, emb = nx.check_planarity(h)
    if not planar:
        return None
    return PlaneEmbedding(g, (tuple(g.edge_id(v, w) for w in emb.neighbors_cw_order(v))
                              for v in range(g.n)))


def planar_rotation_from_coords(g: Graph, coords) -> PlaneEmbedding:
    rotations = []
    for v in range(g.n):
        x, y = coords[v]
        ends = sorted(zip(g.inc[v], g.adj[v]), key=lambda ew: -math.atan2(
            coords[ew[1]][1] - y, coords[ew[1]][0] - x))
        rotations.append(tuple(e for e, _ in ends))
    return PlaneEmbedding(g, rotations)


def induced_four_cycles_by_has_edge(g: Graph) -> list[tuple[int, int, int, int]]:
    """Reference for pmcut.solver.induced_four_cycles: the same loops, with
    every adjacency asked of Graph.has_edge."""
    out = []
    for a in range(g.n):
        nbrs = [x for x in g.adj[a] if x > a]
        for i in range(len(nbrs)):
            for k in range(i + 1, len(nbrs)):
                u, w = nbrs[i], nbrs[k]
                if g.has_edge(u, w):
                    continue
                for b in g.adj[u]:
                    if b > a and b in g.adj[w] and not g.has_edge(a, b):
                        out.append((a, u, b, w))
    return out


def six_cycles_dfs(g: Graph) -> list[tuple[int, ...]]:
    """Reference for pmcut.solver.six_cycles: a depth-five walk from each
    least vertex s over ``reversed(adj[...])``, pruned from the closing end,
    giving the cycles (s, a, b, c, d, w) with a < w in depth-first order."""
    adj = g.adj
    out = []
    for s in range(g.n):
        ends = [w for w in adj[s] if w > s]
        if len(ends) < 2:
            continue
        fifth = {d for w in ends for d in adj[w] if d > s}
        fourth = {c for d in fifth for c in adj[d] if c > s}
        for a in reversed(adj[s]):
            if a <= s:
                continue
            for b in reversed(adj[a]):
                if b <= s:
                    continue
                for c in reversed(adj[b]):
                    if c == a or c not in fourth:
                        continue
                    for d in reversed(adj[c]):
                        if d == a or d == b or d not in fifth:
                            continue
                        for w in reversed(adj[d]):
                            if w > a and w != b and w != c and w in ends:
                                out.append((s, a, b, c, d, w))
    return out
