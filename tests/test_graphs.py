import gc
import math
import random
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmcut.graphs as graphs_module
import pmcut.reduction as reduction_module
from pmcut.formula import (
    NaeFormula,
    ag23_formula,
    canonical_n3_formula,
    random_e4_formula,
    solve_nae_bruteforce,
)
from pmcut.graphs import (
    Cut,
    Graph,
    PlaneEmbedding,
    cube_graph,
    cut_from_edge_set,
    face_darts,
    is_3_connected,
    is_bipartite,
    is_cubic,
    is_perfect_matching,
    is_planar_embedding,
    parse_cut,
    parse_graph,
    parse_matching,
    random_cubic_graph,
    serialize_cut,
    serialize_graph,
    serialize_matching,
)
from pmcut.reduction import build_h, layout, planarize, reduce_formula
from pmcut.solver import find_pmc, lemma_oracles, pmc_from_assignment

from _catalog import connected_cubic_catalog
from _oracles import (
    complete_bipartite_graph,
    complete_graph,
    cutset_by_cycle_enumeration,
    cycle_graph,
    is_cutset_via_cycle_basis,
    nx_plane_embedding,
    nx_three_connected,
    planar_rotation_from_coords,
    random_connected_graph,
    random_planar_embedded,
)

Q3_COORDS = [(2, 2), (-2, 2), (-2, -2), (2, -2), (1, 1), (-1, 1), (-1, -1), (1, -1)]


def q3_embedded():
    g = cube_graph()
    return g, planar_rotation_from_coords(g, Q3_COORDS)


def c4_embedded():
    g = cycle_graph(4)
    coords = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    return g, planar_rotation_from_coords(g, coords)


def test_graph_construction_validates():
    with pytest.raises(ValueError, match="loop"):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError, match="parallel"):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="range"):
        Graph(2, [(0, 2)])


def test_adjacency_sorted():
    g = Graph(4, [(2, 3), (0, 3), (0, 1)])
    assert g.adj[0] == (1, 3)
    assert g.adj[3] == (0, 2)
    assert g.edges[0] == (2, 3)  # stable indices follow construction order


def test_shuffled_edges_give_the_same_graph_and_faces():
    # Sorted input takes the build's linear path, any other order its global
    # sort; both must give the same adjacency, the same incidences up to the
    # edge relabelling, and the same face walks.
    rng = random.Random(47)
    for trial in range(60):
        if trial % 2:
            g = random_connected_graph(rng.randrange(2, 30), rng.randrange(0, 40), rng)
            emb = None
        else:
            g, emb = random_planar_embedded(rng.randrange(4, 14), rng)
        perm = list(range(g.m))
        rng.shuffle(perm)  # new edge k is old edge perm[k], in either direction
        g2 = Graph(g.n, [g.edges[e][::rng.choice((1, -1))] for e in perm])
        new_of = {old: new for new, old in enumerate(perm)}
        assert g2.edges == tuple(g.edges[e] for e in perm)
        assert g2.adj == g.adj
        assert g2.inc == tuple(tuple(new_of[e] for e in inc) for inc in g.inc)
        if emb is not None:
            emb2 = PlaneEmbedding(g2, (tuple(new_of[e] for e in rot) for rot in emb.rotations))
            walks2 = [[(v, perm[e]) for v, e in walk] for walk in face_darts(g2, emb2)]
            assert walks2 == face_darts(g, emb)
            assert serialize_graph(g2, emb2) == serialize_graph(g, emb)


def test_is_cubic():
    assert is_cubic(cube_graph())
    assert not is_cubic(Graph(2, [(0, 1)]))


def test_is_bipartite():
    assert is_bipartite(cube_graph()) is not None
    assert is_bipartite(complete_graph(4)) is None
    cut = is_bipartite(cycle_graph(6))
    assert cut is not None and len(cut.side_a()) == 3


def test_is_bipartite_disconnected():
    two_even = Graph(10, [(0, 1), (1, 2), (2, 3), (0, 3),
                          (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (4, 9)])
    cut = is_bipartite(two_even)
    assert cut is not None
    assert all(cut.sides[u] != cut.sides[v] for u, v in two_even.edges)
    even_and_triangle = Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)])
    assert is_bipartite(even_and_triangle) is None


def test_faces_c4():
    g, emb = c4_embedded()
    faces = face_darts(g, emb)
    assert sorted(len(f) for f in faces) == [4, 4]


def test_faces_q3():
    g, emb = q3_embedded()
    faces = face_darts(g, emb)
    assert sorted(len(f) for f in faces) == [4] * 6
    assert is_planar_embedding(g, emb)


def test_faces_k4():
    g = complete_graph(4)
    coords = [(0, 2), (-2, -1), (2, -1), (0, 0)]
    emb = planar_rotation_from_coords(g, coords)
    faces = face_darts(g, emb)
    assert sorted(len(f) for f in faces) == [3, 3, 3, 3]
    assert is_planar_embedding(g, emb)


def test_faces_use_each_dart_once():
    rng = random.Random(11)
    for _ in range(25):
        g, emb = random_planar_embedded(rng.randrange(5, 11), rng)
        faces = face_darts(g, emb)
        assert sum(len(f) for f in faces) == 2 * g.m
        assert is_planar_embedding(g, emb)


def test_k5_never_embeds():
    g = complete_graph(5)
    rng = random.Random(3)
    for _ in range(12):
        rotations = []
        for v in range(5):
            rot = list(g.inc[v])
            rng.shuffle(rot)
            rotations.append(tuple(rot))
        assert not is_planar_embedding(g, PlaneEmbedding(g, rotations))


def test_embedding_check_rejects_bad_rotation():
    g, emb = c4_embedded()
    rots = emb.rotations
    rot0 = rots[0]
    foreign = next(e for e in range(g.m) if e not in rot0)
    bad_systems = [(bad_rot,) + rots[1:] for bad_rot in [
        rot0[:1],  # too short
        (rot0[0], rot0[0]),  # an edge twice
        (rot0[0], foreign),  # an edge not at vertex 0
        (),  # empty at a vertex of degree 2
        (rot0[0], -1),  # not an edge index
        (rot0[0], g.m),
    ]]
    # vertices 2 and 3 trade edges 1-2 and 0-3: every count is right and no
    # dart comes up twice, but each of those rotations holds a foreign edge
    e12, e03 = g.edge_id(1, 2), g.edge_id(0, 3)
    swap = {e12: e03, e03: e12}
    bad_systems.append(rots[:2] + tuple(tuple(swap.get(e, e) for e in rots[v]) for v in (2, 3)))
    for rotations in bad_systems:
        with pytest.raises(ValueError, match="permutation"):
            PlaneEmbedding(g, rotations)


def test_dart_table_built_once_per_graph_and_embedding(monkeypatch):
    import pmcut.graphs as graphs

    built = []
    real = graphs._dart_successors
    monkeypatch.setattr(graphs, "_dart_successors",
                        lambda g, rotations: built.append(rotations) or real(g, rotations))
    g = cube_graph()
    emb = planar_rotation_from_coords(g, Q3_COORDS)
    assert built == [emb.rotations]
    # every reader looks the faces up; 3-connectivity reads the edge list
    vertical = [g.edge_id(i, i + 4) for i in range(4)]
    assert is_planar_embedding(g, emb) and is_3_connected(g)
    assert is_cutset_via_cycle_basis(g, emb, vertical)
    walks = face_darts(g, emb)
    text = serialize_graph(g, emb)
    assert len(built) == 1
    # an equal embedding that is another object is built, and validated, again
    twin = PlaneEmbedding(g, emb.rotations)
    assert face_darts(g, twin) == walks and len(built) == 2
    # reading a file builds the embedding read, for the graph read
    g2, emb2 = parse_graph(text)
    assert emb2.graph is g2 and is_planar_embedding(g2, emb2) and len(built) == 3
    # an embedding belongs to the Graph object it was built with, even when
    # another object holds the same edges
    for use in (is_planar_embedding, face_darts, serialize_graph,
                lambda g, emb: is_cutset_via_cycle_basis(g, emb, vertical)):
        with pytest.raises(ValueError, match="another Graph"):
            use(g2, emb)
    assert len(built) == 3


def test_lone_vertex_is_planar():
    # no darts, one face: V - E + F = 1 - 0 + 1
    g = Graph(1, [])
    assert is_planar_embedding(g, PlaneEmbedding(g, ((),)))


def test_is_planar_embedding_requires_connected():
    g = Graph(2, [])
    with pytest.raises(ValueError, match="connected"):
        is_planar_embedding(g, PlaneEmbedding(g, ((), ())))


def test_three_connected_basics():
    assert is_3_connected(cube_graph()) and is_3_connected(complete_graph(4))
    assert is_3_connected(complete_bipartite_graph(3, 3))  # cubic, not planar
    # two K4s with one edge each removed, joined by two edges: a 2-edge-cut
    two = Graph(8, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                    (4, 6), (4, 7), (5, 6), (5, 7), (6, 7), (0, 4), (1, 5)])
    assert is_cubic(two) and not is_3_connected(two)
    assert not is_3_connected(Graph(8, [(a + 4 * c, b + 4 * c) for c in (0, 1)
                                        for a, b in complete_graph(4).edges]))


def test_three_connected_rejects_non_cubic_input():
    k4_minus = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    for g in (k4_minus, cycle_graph(5), complete_graph(5), Graph(20001, [])):
        with pytest.raises(ValueError, match="cubic"):
            is_3_connected(g)


def _subdivided_join(g1: Graph, g2: Graph, k: int) -> Graph:
    """Subdivide the edges at vertex 0 towards its first k neighbours in g1
    and in g2, and join the new vertices pairwise: a cubic graph whose k
    joining edges form a cut (a bridge for k = 1)."""
    n = g1.n + g2.n + 2 * k
    edges = []
    new = g1.n + g2.n
    for g, base in ((g1, 0), (g2, g1.n)):
        cut = {g.edge_id(0, w) for w in g.adj[0][:k]}
        edges += [(base + u, base + v) for i, (u, v) in enumerate(g.edges) if i not in cut]
        for j, w in enumerate(g.adj[0][:k]):
            edges += [(base, new + j), (new + j, base + w)]
        new += k
    edges += [(g1.n + g2.n + j, g1.n + g2.n + k + j) for j in range(k)]
    return Graph(n, edges)


def test_three_connected_agrees_with_flow_oracle():
    # random cubic graphs, and pairs of them joined across a planted bridge
    # or 2-edge-cut; mostly non-planar
    rng = random.Random(17)
    answers = set()
    for i in range(60):
        g = random_cubic_graph(rng.choice([6, 8, 10, 12]), rng)
        if i % 3:
            g = _subdivided_join(g, random_cubic_graph(rng.choice([4, 6, 8]), rng), i % 3)
        answers.add(is_3_connected(g))
        assert is_3_connected(g) == nx_three_connected(g)
    assert answers == {True, False}


def test_cubic_edge_connectivity_path_agrees():
    # plain random cubic graphs, larger than above, against networkx
    rng = random.Random(23)
    for _ in range(120):
        g = random_cubic_graph(rng.choice([8, 10, 12, 14, 16, 20]), rng)
        assert is_3_connected(g) == nx_three_connected(g)


class _CollidingRandom:
    """Stands in for random.Random: every back edge gets the label 1."""

    def __init__(self, seed):
        pass

    def getrandbits(self, k):
        return 1


def test_three_connected_exact_when_every_label_collides(monkeypatch):
    # with one label on every back edge, tree edges read 0 or 1: every graph
    # leaves the fast path, and each answer rests on the parity walk alone
    import pmcut.graphs as graphs

    monkeypatch.setattr(graphs, "random", SimpleNamespace(Random=_CollidingRandom))
    answers = set()
    for level in connected_cubic_catalog(12):
        for g in level:
            answers.add(is_3_connected(g))
            assert is_3_connected(g) == nx_three_connected(g)
    assert answers == {True, False}
    k4 = complete_graph(4)
    for k in (1, 2):
        g = _subdivided_join(k4, k4, k)
        assert not is_3_connected(g) and not nx_three_connected(g)


def test_three_connected_on_reductions():
    arts = [reduce_formula(canonical_n3_formula()), reduce_formula(ag23_formula()),
            reduce_formula(random_e4_formula(9, random.Random(9)))]
    for art in arts:
        assert is_3_connected(art.graph)
    # networkx's flow routine takes minutes at thousands of vertices, so it
    # reads the smallest; on a cubic graph edge connectivity is vertex
    # connectivity, and networkx decides it about seven times faster
    small = arts[0].graph
    h = nx.Graph(small.edges)
    assert nx.is_k_edge_connected(h, 3)


def test_three_connected_on_planar_catalog():
    counts = {True: 0, False: 0}
    for level in connected_cubic_catalog(12):
        for g in level:
            emb = nx_plane_embedding(g)
            if emb is None:
                continue
            exact = is_3_connected(g)
            assert exact == nx_three_connected(g)
            counts[exact] += 1
    assert counts == {True: 23, False: 23}


def test_three_connected_planted_cuts():
    k4 = complete_graph(4)
    for k in (1, 2):
        g = _subdivided_join(k4, k4, k)
        emb = nx_plane_embedding(g)
        assert is_cubic(g) and emb is not None and is_planar_embedding(g, emb)
        assert not is_3_connected(g) and not nx_three_connected(g)


def _plane_ladder(k: int, base: int) -> dict[int, list[int]]:
    """Circular ladder on 2k vertices, outer rail base..base+k-1 and inner rail
    base+k..base+2k-1, as counterclockwise neighbour rotations."""
    nbrs = {}
    for i in range(k):
        a, b = base + i, base + k + i
        nxt, prv = (i + 1) % k, (i - 1) % k
        nbrs[a] = [base + nxt, b, base + prv]
        nbrs[b] = [a, base + k + nxt, base + k + prv]
    return nbrs


def _embedded(nbrs: dict[int, list[int]]) -> tuple[Graph, PlaneEmbedding]:
    g = Graph(len(nbrs), sorted({(min(v, w), max(v, w)) for v in nbrs for w in nbrs[v]}))
    return g, PlaneEmbedding(g, (tuple(g.edge_id(v, w) for w in nbrs[v])
                                 for v in range(g.n)))


def test_three_connected_large_plane_ladders():
    ladder, emb = _embedded(_plane_ladder(10_002, 0))
    assert ladder.n == 20_004 and is_planar_embedding(ladder, emb)
    assert is_3_connected(ladder)
    # two ladders, each with outer rail edge 0-1 removed, joined across:
    # 0 to the other's 1 and 1 to the other's 0, a plane 2-edge-cut
    k = 5_001
    nbrs = _plane_ladder(k, 0) | _plane_ladder(k, 2 * k)
    for a, b in ((0, 2 * k), (2 * k, 0)):
        nbrs[a][0] = b + 1
        nbrs[a + 1][2] = b
    two, emb = _embedded(nbrs)
    assert two.n == 20_004 and is_cubic(two) and is_planar_embedding(two, emb)
    assert not is_3_connected(two)


def test_is_perfect_matching():
    q3 = cube_graph()
    vertical = [q3.edge_id(i, i + 4) for i in range(4)]
    assert is_perfect_matching(q3, vertical)
    assert not is_perfect_matching(q3, [])
    k2 = Graph(2, [(0, 1)])
    assert is_perfect_matching(k2, [0])


def test_cut_from_edge_set_examples():
    c4 = cycle_graph(4)
    cut = cut_from_edge_set(c4, [0, 2])
    assert cut is not None and len(cut.side_a()) == 2

    c6 = cycle_graph(6)
    assert cut_from_edge_set(c6, [0, 2, 4]) is None

    q3 = cube_graph()
    vertical = [q3.edge_id(i, i + 4) for i in range(4)]
    cut = cut_from_edge_set(q3, vertical)
    assert cut is not None
    assert set(cut.side_a()) in ({0, 1, 2, 3}, {4, 5, 6, 7})


def test_cut_from_edge_set_empty_is_rejected():
    assert cut_from_edge_set(cycle_graph(4), []) is None


def test_ids_outside_the_edge_range_name_no_edge():
    q3 = cube_graph()
    assert cut_from_edge_set(q3, {99}) is None
    assert cut_from_edge_set(q3, {-1}) is None
    assert cut_from_edge_set(q3, frozenset({-1})) is None
    assert q3._cut == ()  # refused before anything is stored
    assert not is_perfect_matching(q3, [8, 9, 10, -1])  # -1 would index edge 11
    assert not is_perfect_matching(q3, [99])
    assert is_perfect_matching(q3, [8, 9, 10, 11])


def test_cut_memo_keeps_the_last_two_frozensets():
    q3 = cube_graph()
    vertical = frozenset(q3.edge_id(i, i + 4) for i in range(4))
    cut = cut_from_edge_set(q3, vertical)
    assert cut is not None and q3._cut == ((vertical, cut),)
    assert cut_from_edge_set(q3, vertical) is cut
    assert cut_from_edge_set(q3, frozenset(vertical)) is cut  # an equal key reads the slot

    bottom_top = frozenset(q3.edge_id(*e) for e in ((0, 1), (2, 3), (4, 5), (6, 7)))
    other = cut_from_edge_set(q3, bottom_top)  # a different set walks again
    assert other is not None and other != cut
    assert q3._cut == ((bottom_top, other), (vertical, cut))
    assert cut_from_edge_set(q3, vertical) is cut  # the older entry still answers
    assert q3._cut == ((bottom_top, other), (vertical, cut))  # and a read writes nothing

    # a set or a list is answered but not stored
    assert cut_from_edge_set(q3, set(vertical)) == cut
    assert cut_from_edge_set(q3, sorted(vertical)) == cut
    assert q3._cut == ((bottom_top, other), (vertical, cut))

    not_a_cutset = frozenset({q3.edge_id(0, 1)})
    assert cut_from_edge_set(q3, not_a_cutset) is None
    # a None answer is kept, and the oldest entry goes
    assert q3._cut == ((not_a_cutset, None), (bottom_top, other))
    assert cut_from_edge_set(q3, not_a_cutset) is None


def test_cut_memo_walks_each_frozenset_once(monkeypatch):
    q3 = cube_graph()
    m = frozenset(q3.edge_id(i, i + 4) for i in range(4))
    walks = []
    real = graphs_module._parity_sides

    def counted(g, flip):
        walks.append(flip)
        return real(g, flip)

    monkeypatch.setattr(graphs_module, "_parity_sides", counted)
    first = cut_from_edge_set(q3, m)
    for _ in range(3):
        assert cut_from_edge_set(q3, m) is first
    assert walks == [m]
    cut_from_edge_set(q3, list(m))
    cut_from_edge_set(q3, list(m))
    assert len(walks) == 3


def test_cut_memo_walks_a_witness_once_around_a_second_one(monkeypatch):
    """find_pmc's witness m, the witness w rebuilt from a brute-force
    assignment, then the lemma oracles on m: one walk per witness."""
    f = random_e4_formula(6, random.Random(1))
    art = reduce_formula(f)
    g = art.graph
    w = pmc_from_assignment(art, solve_nae_bruteforce(f))
    walks = []
    real = graphs_module._parity_sides

    def counted(g, flip):
        walks.append(flip)
        return real(g, flip)

    monkeypatch.setattr(graphs_module, "_parity_sides", counted)
    m = find_pmc(g)
    assert m is not None and w != m
    assert cut_from_edge_set(g, w) is not None
    assert lemma_oracles(g, m).ok
    assert walks == [m, w]


def test_cut_memo_under_racing_threads():
    """Threads sharing one graph, each asking about several frozensets in
    turn, always read the answer a fresh walk gives."""
    rng = random.Random(7)
    g = random_cubic_graph(200, rng)
    keys = [frozenset(_cutset(g, Cut(tuple(rng.randrange(2) for _ in range(g.n)))))
            for _ in range(4)]
    keys += [frozenset(rng.sample(range(g.m), 100)) for _ in range(2)]
    expected = [cut_from_edge_set(g, list(m)) for m in keys]
    wrong = []

    def ask(offset):
        for k in range(300):
            i = (k + offset) % len(keys)
            if cut_from_edge_set(g, keys[i]) != expected[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


def test_cut_memo_still_refuses_a_disconnected_graph():
    two_edges = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        cut_from_edge_set(two_edges, frozenset({0, 1}))
    with pytest.raises(ValueError):
        cut_from_edge_set(two_edges, frozenset({0, 1}))
    assert two_edges._cut == ()


def _cutset(g: Graph, cut: Cut) -> frozenset:
    return frozenset(e for e, (u, v) in enumerate(g.edges) if cut.sides[u] != cut.sides[v])


def test_cut_matches_cycle_enumeration():
    rng = random.Random(41)
    for _ in range(150):
        g = random_connected_graph(rng.randrange(4, 13), rng.randrange(1, 8), rng)
        m = [e for e in range(g.m) if rng.random() < 0.4]
        if not m:
            continue
        got = cut_from_edge_set(g, m) is not None
        want = cutset_by_cycle_enumeration(g, m)
        assert got == want
        if got:
            cut = cut_from_edge_set(g, m)
            assert _cutset(g, cut) == frozenset(m)


def test_cycle_basis_examples():
    g, emb = c4_embedded()
    assert is_cutset_via_cycle_basis(g, emb, [0, 2])
    c6 = cycle_graph(6)
    emb6 = planar_rotation_from_coords(
        c6, [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)])
    assert not is_cutset_via_cycle_basis(c6, emb6, [0, 2, 4])
    q3, embq = q3_embedded()
    vertical = [q3.edge_id(i, i + 4) for i in range(4)]
    assert is_cutset_via_cycle_basis(q3, embq, vertical)


def test_cycle_basis_agrees_with_parity_bfs():
    # facial parity and the parity BFS decide the same sets on plane graphs
    rng = random.Random(43)
    for _ in range(200):
        g, emb = random_planar_embedded(rng.randrange(5, 12), rng)
        m = [e for e in range(g.m) if rng.random() < 0.4]
        if not m:
            continue
        assert is_cutset_via_cycle_basis(g, emb, m) == (cut_from_edge_set(g, m) is not None)


def test_cycle_basis_refuses_non_plane_rotations():
    # the faces of a rotation system that is not plane do not span the cycle
    # space, and their parities would pass sets that are no cutsets
    rng = random.Random(53)
    for g in (complete_graph(5), complete_bipartite_graph(3, 3)):
        for _ in range(200):
            rotations = [rng.sample(inc, len(inc)) for inc in g.inc]
            emb = PlaneEmbedding(g, rotations)
            m = [e for e in range(g.m) if rng.random() < 0.5]
            with pytest.raises(ValueError, match="plane embedding"):
                is_cutset_via_cycle_basis(g, emb, m)


def test_same_side():
    # C4's edges 0 and 2 are 0-1 and 2-3: 1 and 2 share a side, 0 and 1 do not
    c4 = cycle_graph(4)
    cut = cut_from_edge_set(c4, [0, 2])
    assert cut.sides == (0, 1, 1, 0)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_cut_roundtrip_property(data):
    # the cutset of any proper bipartition is recognised, and the recovered
    # cut is the original one up to swapping the two sides
    rng = random.Random(data.draw(st.integers(0, 2 ** 30)))
    g = random_connected_graph(rng.randrange(3, 12), rng.randrange(1, 8), rng)
    sides = tuple(data.draw(st.integers(0, 1)) for _ in range(g.n))
    if len(set(sides)) < 2:
        return
    m = _cutset(g, Cut(sides))
    if not m:
        return
    got = cut_from_edge_set(g, m)
    assert got is not None
    assert got.sides in (sides, tuple(1 - s for s in sides))


def test_graph_file_roundtrip():
    g, emb = q3_embedded()
    text = serialize_graph(g, emb)
    g2, emb2 = parse_graph(text)
    assert g2.edges == tuple(sorted(g.edges))
    assert emb2 is not None
    assert is_planar_embedding(g2, emb2)
    assert serialize_graph(g2, emb2) == text


def test_graph_file_temporaries_stay_small():
    """Writing AG(2,3)'s reduction (a 0.17 MB file) allocates at most six
    times the file at once, as tracemalloc counts it; a list of every line
    alive at once took ten times."""
    art = reduce_formula(ag23_formula())
    tracemalloc.start()
    try:
        text = serialize_graph(art.graph, art.embedding)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(text)


def test_graph_file_plain():
    g = cube_graph()
    g2, emb2 = parse_graph(serialize_graph(g))
    assert emb2 is None and g2.edges == tuple(sorted(g.edges))


def test_matching_and_cut_files():
    q3 = cube_graph()
    vertical = frozenset(q3.edge_id(i, i + 4) for i in range(4))
    assert parse_matching(serialize_matching(q3, vertical), q3) == vertical
    cut = cut_from_edge_set(q3, vertical)
    assert parse_cut(serialize_cut(cut), q3.n) in (cut, Cut(tuple(1 - s for s in cut.sides)))


def _with_indented_comments(text):
    """Every line of text followed by an indented comment, a tabbed bare '#'
    and a blank line."""
    return "".join(f"{ln}\n  # note\n\t#\n\n" for ln in text.splitlines())


def test_parsers_skip_indented_comments():
    assert parse_graph("graph 2 1\n  # note\n0 1\n")[0].edges == ((0, 1),)
    g, emb = q3_embedded()
    text = serialize_graph(g, emb)
    g2, emb2 = parse_graph(_with_indented_comments(text))
    assert serialize_graph(g2, emb2) == text
    vertical = frozenset(g.edge_id(i, i + 4) for i in range(4))
    assert parse_matching(_with_indented_comments(serialize_matching(g, vertical)), g) == vertical
    cut = cut_from_edge_set(g, vertical)
    assert parse_cut(_with_indented_comments(serialize_cut(cut)), g.n) == parse_cut(serialize_cut(cut), g.n)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_graph("nope")
    with pytest.raises(ValueError):
        parse_matching("nope", cube_graph())


def test_header_with_an_isolated_vertex_is_refused_before_allocating():
    # V > 2E leaves a vertex without an edge; the header alone decides it
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"header 'graph 100000000 0' has V > 2E"):
        parse_graph("graph 100000000 0\n")
    assert time.perf_counter() - start < 0.1
    g, emb = parse_graph("graph 2 1\n0 1\n")  # V = 2E is a matching
    assert g.edges == ((0, 1),) and emb is None


@pytest.mark.parametrize("parse,text,match", [
    (lambda t: parse_cut(t, 8), "cut 3\n0\n99\n", "out of range"),
    (lambda t: parse_cut(t, 8), "cut 4\n0\n1\n", "header says 4"),
    (lambda t: parse_cut(t, 8), "cut 2\n0\n0\n", "listed twice"),
    (lambda t: parse_matching(t, cube_graph()), "matching 1\n0 2\n", "not an edge"),
    (lambda t: parse_matching(t, cube_graph()), "matching 1\n0 1 2\n", "line '0 1 2' must be '<u> <v>'"),
    (lambda t: parse_matching(t, cube_graph()), "matching x\n0 1\n", "header 'matching x'"),
    (lambda t: parse_cut(t, 8), "cut 1\n0 1\n", "line '0 1' must be one vertex"),
    (lambda t: parse_cut(t, 8), "cut 1 2\n0\n", "header 'cut 1 2'"),
], ids=["cut-out-of-range", "cut-truncated", "cut-duplicate", "matching-non-edge",
        "matching-three-fields", "matching-bad-header", "cut-two-fields", "cut-bad-header"])
def test_cut_and_matching_files_reject_bad_input(parse, text, match):
    with pytest.raises(ValueError, match=match):
        parse(text)


# --- the collector pause in the builders ---------------------------------------

def _planned(f):
    hb = build_h(f)
    return hb, layout(hb)


# Each builder once on good input and once on each ValueError it raises,
# directly or from a nested builder.
_BUILDS = {
    "Graph": (lambda: Graph(3, [(0, 1), (1, 2)]), None),
    "Graph-loop": (lambda: Graph(2, [(0, 0)]), "loop"),
    # cycle_graph(4) numbers its edges 0-1, 1-2, 2-3, 3-0 as 0, 1, 2, 3
    "PlaneEmbedding": (lambda: PlaneEmbedding(cycle_graph(4), [(0, 3), (0, 1), (1, 2), (2, 3)]), None),
    "PlaneEmbedding-not-a-permutation":
        (lambda: PlaneEmbedding(cycle_graph(4), [(0, 0), (0, 1), (1, 2), (2, 3)]), "permutation"),
    "parse_graph": (lambda: parse_graph(serialize_graph(*q3_embedded())), None),
    "parse_graph-V>2E": (lambda: parse_graph("graph 3 1\n0 1\n"), "V > 2E"),
    "parse_graph-loop": (lambda: parse_graph("graph 2 1\n1 1\n"), "loop"),
    "parse_graph-not-a-permutation":
        (lambda: parse_graph("graph 3 2\n0 1\n1 2\nembedding\nrot 0 1 0\nrot 1 2 0 0\nrot 2 1 1\n"),
         "permutation"),
    "planarize": (lambda: planarize(*_planned(canonical_n3_formula())), None),
    "reduce_formula": (lambda: reduce_formula(canonical_n3_formula()), None),
    "reduce_formula-not-e4": (lambda: reduce_formula(NaeFormula(3, ((1, 2, 3),))), "4n/3"),
}


@pytest.mark.parametrize("collector_on", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", list(_BUILDS))
def test_builders_restore_the_collector_state(case, collector_on):
    build, error = _BUILDS[case]
    was_on = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    try:
        if error is None:
            build()
        else:
            with pytest.raises(ValueError, match=error):
                build()
        assert gc.isenabled() is collector_on
    finally:
        (gc.enable if was_on else gc.disable)()


def _collector_state_seen_by(monkeypatch, module, name) -> list:
    seen = []
    real = getattr(module, name)

    def spy(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return seen


def test_nested_builds_leave_the_collector_paused(monkeypatch):
    """planarize calls is_cubic after building its Graph and
    is_planar_embedding after its PlaneEmbedding; parse_graph builds its
    PlaneEmbedding after its Graph.  Each must still see the collector off."""
    assert gc.isenabled()
    planned = _planned(canonical_n3_formula())
    after_graph = _collector_state_seen_by(monkeypatch, reduction_module, "is_cubic")
    after_embedding = _collector_state_seen_by(monkeypatch, reduction_module, "is_planar_embedding")
    art = planarize(*planned)
    assert after_graph == [False] and after_embedding == [False] and gc.isenabled()

    text = serialize_graph(art.graph, art.embedding)
    before_embedding = _collector_state_seen_by(monkeypatch, graphs_module, "PlaneEmbedding")
    parse_graph(text)
    assert before_embedding == [False] and gc.isenabled()


def test_no_collection_starts_inside_a_builder():
    """A build of the seeded n = 30 reduction (23992 vertices) starts no
    collection.  Without the pause each of these builds starts some."""
    assert gc.isenabled()
    f = random_e4_formula(30, random.Random(1))
    planned = _planned(f)
    art = reduce_formula(f)
    g, emb = art.graph, art.embedding
    text = serialize_graph(g, emb)
    # as lists, so that the constructor makes a tuple of each
    rotation_lists = [list(r) for r in emb.rotations]
    builds = {
        "reduce_formula": lambda: reduce_formula(f),
        "planarize": lambda: planarize(*planned),
        "parse_graph": lambda: parse_graph(text),
        "Graph": lambda: Graph(g.n, g.edges),
        "PlaneEmbedding": lambda: PlaneEmbedding(g, rotation_lists),
    }
    building = []
    started = []  # (build or None, generation) of each collection started

    def count(phase, info):
        if phase == "start":
            started.append((building[-1] if building else None, info["generation"]))

    gc.callbacks.append(count)
    try:
        for name, build in builds.items():
            # A collection owed by earlier allocations would start at the
            # first allocation of the call, before the pause: pay it first.
            gc.collect()
            building.append(name)
            try:
                build()
            finally:
                building.pop()
    finally:
        gc.callbacks.remove(count)
    assert (None, 2) in started  # the callback saw the explicit collections
    assert [s for s in started if s[0] is not None] == []
