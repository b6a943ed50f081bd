import hashlib
import random
import tracemalloc

import pytest

from pmcut.formula import ag23_formula, canonical_n3_formula, random_e4_formula
from pmcut.gadgets import (
    build_clause_gadget,
    build_crossing_gadget,
    build_variable_gadget,
    census_types,
    enumerate_local_pmcs,
)
from pmcut.graphs import (
    is_3_connected,
    is_bipartite,
    is_cubic,
    is_planar_embedding,
    parse_graph,
    serialize_graph,
)
from pmcut.reduction import (
    ReductionError,
    build_h,
    layout,
    reduce_formula,
    serialize_provenance,
    wiring_events,
)


_PASS_THROUGH = {"u1": "v1", "u2": "v2", "u1'": "v1'", "u2'": "v2'"}


def _trace_wires(art):
    """Every wire (i, j, sub), sub in t/b, traced in the graph: the vertices
    where it meets a gadget boundary, from its variable end through the
    port it enters and the port it leaves in each crossing to its clause
    end.  For occurrence (i, j) at slot r and port p, a wire starts at
    variable i's t{r}/b{r}, crosses the one connector there, steps inside
    each crossing from the port it enters to that port's pass-through
    partner, and must stop at clause j's t'{p}/b'{p}."""
    vg, cg, xg = build_variable_gadget(), build_clause_gadget(), build_crossing_gadget()
    g, info = art.graph, art.vertex_info

    def hop(v):  # across the one connector at v
        out = [w for w in g.adj[v] if info[w][:2] != info[v][:2]]
        assert len(out) == 1
        return out[0]

    routes = {}
    for (i, j), (r, p) in art.plan.slots.items():
        for sub in "tb":
            route = [info.start("variable", i) + vg.names[f"{sub}{r}"]]
            w = hop(route[0])
            while info[w][0] == "crossing":
                base = info.start("crossing", info[w][1])
                entered = {base + xg.names[u]: u for u in _PASS_THROUGH}
                assert w in entered and len(route) <= 2 * art.q
                route += [w, base + xg.names[_PASS_THROUGH[entered[w]]]]
                w = hop(route[-1])
            assert w == info.start("clause", j) + cg.names[f"{sub}'{p}"]
            route.append(w)
            routes[(i, j, sub)] = tuple(route)
    return routes


def test_h_bundles_have_two_edges(canonical_artifact):
    """Each occurrence is two wires, traced in the graph from its variable
    slot to its clause port, and the connectors they cross are exactly the
    artifact's connectors, each labelled with its wire's variable."""
    art = canonical_artifact
    occurrences = {(i, j) for j, clause in enumerate(art.formula.clauses, 1) for i in clause}
    routes = _trace_wires(art)
    assert set(routes) == {(i, j, sub) for i, j in occurrences for sub in "tb"}
    assert len(routes) == 24
    crossed = []
    for (i, j, _), route in routes.items():
        assert art.vertex_info[route[0]][:2] == ("variable", i)
        assert art.vertex_info[route[-1]][:2] == ("clause", j)
        crossed += [(min(u, v), max(u, v), i) for u, v in zip(route[::2], route[1::2])]
    assert sorted(crossed) == list(art.connectors)


def test_h_rejects_bad_formulas():
    from pmcut.formula import NaeFormula

    with pytest.raises(Exception):
        build_h(NaeFormula(3, ((1, 2, 3),) * 3))  # not E4
    block1 = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (3, 4, 5)]
    block2 = [(6, 7, 8), (6, 7, 9), (6, 8, 9), (7, 8, 9), (6, 7, 5), (8, 9, 5)]
    with pytest.raises(ReductionError, match="cutvertices"):
        build_h(NaeFormula(9, tuple(block1 + block2)))
    with pytest.raises(ReductionError, match="connected"):
        build_h(NaeFormula(6, ((1, 2, 3),) * 4 + ((4, 5, 6),) * 4))
    with pytest.raises(ReductionError, match="empty"):
        build_h(NaeFormula(0, ()))


def test_wiring_events_trivial_cases():
    assert wiring_events([0], [0]) == []                # single bundle: 0 quadruples
    assert wiring_events([0, 1], [0, 1]) == []          # aligned pair
    assert wiring_events([1, 0], [0, 1]) == [(1, 0)]    # one inversion, one quadruple
    ev = wiring_events([2, 1, 0], [0, 1, 2])
    assert len(ev) == 3                                 # full reversal: all pairs cross


def test_wiring_events_count_inversions():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randrange(2, 12)
        target = list(range(n))
        rng.shuffle(target)
        ev = wiring_events(list(range(n)), target)
        inv = sum(1 for i in range(n) for k in range(i + 1, n)
                  if target[i] > target[k])
        assert len(ev) == inv
        assert len({frozenset(e) for e in ev}) == len(ev)


def test_layout_invariants(canonical_artifact):
    art = canonical_artifact
    assert len(art.plan.exit_order) == 12
    assert len(art.crossings) == 18  # router inversion count for the canonical instance
    pairs = set()
    for (i1, j1), (i2, j2) in art.crossings:
        assert i1 != i2 and j1 != j2
        pairs.add(frozenset(((i1, j1), (i2, j2))))
    assert len(pairs) == len(art.crossings)


def test_same_gadget_bundles_never_invert():
    rng = random.Random(77)
    for n in (6, 9):
        f = random_e4_formula(n, rng)
        hb = build_h(f)
        entry_slot = {ij: k for k, ij in enumerate(hb.entry_order)}
        for x, (i1, j1) in enumerate(hb.exit_order):
            for y in range(x + 1, len(hb.exit_order)):
                i2, j2 = hb.exit_order[y]
                if i1 == i2 or j1 == j2:
                    assert entry_slot[(i1, j1)] < entry_slot[(i2, j2)]


def _crossings(f, var_order, clause_order):
    """Two-layer crossings under a layout order, bottom to top: occurrence
    pairs whose variable and clause positions are in opposite orders."""
    pv = {x: k for k, x in enumerate(var_order)}
    pc = {x: k for k, x in enumerate(clause_order)}
    occ = [(pv[i], pc[j]) for j, clause in enumerate(f.clauses, 1) for i in clause]
    return sum(1 for a, b in occ for c, d in occ if a < c and b > d)


def _index_order_crossings(f):
    return _crossings(f, range(f.n, 0, -1), range(1, f.m + 1))


def _sweep(f, var_order, clause_order):
    """One barycenter sweep: clauses by the position sum of their variables,
    then variables by the position sum of their clauses, both stable."""
    pv = {x: k for k, x in enumerate(var_order)}
    clause_order = sorted(clause_order, key=lambda j: sum(pv[i] for i in f.clauses[j - 1]))
    pc = {x: k for k, x in enumerate(clause_order)}
    var_order = sorted(var_order, key=lambda i: sum(pc[j] for j in f.occurrences(i)))
    return tuple(var_order), tuple(clause_order)


def _check_fixed_point(f):
    """The layout is a fixed point of one more sweep and has no more
    crossings than the index order; returns both crossing counts."""
    hb = build_h(f)
    assert _sweep(f, hb.var_order, hb.clause_order) == (hb.var_order, hb.clause_order)
    q, q0 = _crossings(f, hb.var_order, hb.clause_order), _index_order_crossings(f)
    assert q <= q0
    return q, q0


def test_barycenter_never_adds_crossings(canonical_artifact):
    assert canonical_artifact.q == _index_order_crossings(canonical_artifact.formula) == 18
    assert _check_fixed_point(canonical_artifact.formula) == (18, 18)
    rng = random.Random(50)
    before = after = 0
    for k in range(50):
        f = random_e4_formula((6, 9, 12)[k % 3], rng)
        q, q0 = _check_fixed_point(f)
        assert len(layout(build_h(f))) == q
        before += q0
        after += q
    assert after < before
    for n in (30, 48):  # build_h only: no graph is assembled
        q, q0 = _check_fixed_point(random_e4_formula(n, random.Random(n)))
        assert q < q0


def test_size_law_and_edge_delta(canonical_artifact):
    art = canonical_artifact
    f = art.formula
    assert art.graph.n == 36 * f.n + 112 * f.m + 16 * art.q
    # H is cubic on 36n + 112m vertices; each splice adds 16 vertices and
    # 24 edges (8 half-wires + 20 internal - 4 wires)
    assert art.graph.m == 3 * (36 * f.n + 112 * f.m) // 2 + 24 * art.q
    assert 2 * art.graph.m == 3 * art.graph.n


def test_barnette_certification(canonical_artifact):
    g = canonical_artifact.graph
    assert is_cubic(g)
    assert is_bipartite(g) is not None
    assert is_planar_embedding(g, canonical_artifact.embedding)
    assert is_3_connected(g)


def test_reduce_is_deterministic():
    f = canonical_n3_formula()
    a1 = reduce_formula(f)
    a2 = reduce_formula(f)
    assert serialize_graph(a1.graph, a1.embedding) == serialize_graph(a2.graph, a2.embedding)
    assert serialize_provenance(a1) == serialize_provenance(a2)


def test_every_vertex_in_exactly_one_gadget(canonical_artifact):
    art = canonical_artifact
    assert len(art.vertex_info) == art.graph.n
    counts = {}
    for kind, idx, _ in art.vertex_info:
        counts[(kind, idx)] = counts.get((kind, idx), 0) + 1
    for (kind, _), c in counts.items():
        assert c == {"variable": 36, "clause": 112, "crossing": 16}[kind]


def test_vertex_info_reads_the_block_layout(canonical_artifact):
    """Indexing, negative ids and iteration agree, and each gadget's
    vertices are its template's, named in template order."""
    art = canonical_artifact
    info = art.vertex_info
    entries = tuple(info)
    assert len(entries) == len(info) == art.graph.n
    assert all(info[v] == entries[v] for v in range(len(info)))
    assert info[-1] == entries[-1] and info[-len(info)] == entries[0]
    for v in (len(info), -len(info) - 1):
        with pytest.raises(IndexError):
            info[v]
    names = {t.kind: t.vertex_names for t in (build_variable_gadget(), build_clause_gadget(),
                                              build_crossing_gadget())}
    base = 0
    for kind, count in (("variable", art.formula.n), ("clause", art.formula.m),
                        ("crossing", art.q)):
        for k in range(1, count + 1):
            size = len(names[kind])
            assert info.start(kind, k) == base
            assert entries[base:base + size] == tuple((kind, k, name) for name in names[kind])
            base += size
        for k in (0, count + 1):
            with pytest.raises(KeyError):
                info.start(kind, k)
    assert base == len(info)


@pytest.mark.parametrize("formula", [canonical_n3_formula, ag23_formula])
def test_gadget_edges_are_the_graphs_edge_ids(formula):
    """gadget_edges[(kind, k)][le] is the global id of template edge le of
    gadget (kind, k), the int object g.inc holds, for every gadget."""
    art = reduce_formula(formula())
    g = art.graph
    templates = {t.kind: t for t in (build_variable_gadget(), build_clause_gadget(),
                                     build_crossing_gadget())}
    counts = {"variable": art.formula.n, "clause": art.formula.m, "crossing": art.q}
    assert set(art.gadget_edges) == {(kind, k) for kind, count in counts.items()
                                     for k in range(1, count + 1)}
    for (kind, k), edges in art.gadget_edges.items():
        base = art.vertex_info.start(kind, k)
        t = templates[kind]
        assert len(edges) == t.graph.m
        for le, (u, v) in enumerate(t.graph.edges):
            assert edges[le] == g.edge_id(base + u, base + v)
            assert any(e is edges[le] for e in g.inc[base + u])


def test_restrictions_read_through_gadget_edges(canonical_artifact, variable_gadget,
                                                clause_gadget, crossing_gadget):
    """Each restriction is its template's typed census element, as
    census_types reads it, mapped through the gadget's edge table: the
    variable's forced set, clause types 1-3 and the crossing's P1 and P2;
    each S2 ring is the template's, moved to the gadget's first vertex."""
    art = canonical_artifact
    table = {t.kind: census_types(t, enumerate_local_pmcs(t))
             for t in (variable_gadget, clause_gadget, crossing_gadget)}

    def local(kind, k, t):  # restriction t of gadget (kind, k) in template edge ids
        edges = art.restriction(kind, k, t)
        return {le for le, e in enumerate(art.gadget_edges[(kind, k)]) if e in edges}

    assert {kind for kind, _ in art.gadget_edges} == set(table)
    for kind, k in art.gadget_edges:
        for t, want in table[kind].items():
            assert local(kind, k, t) == want
    for i in range(1, art.formula.n + 1):
        base = art.vertex_info.start("variable", i)
        assert art.s2(i) == tuple(base + lv for lv in variable_gadget.marks["S2"])
    for kind, k, t in (("variable", 1, 0), ("variable", 1, 2), ("clause", 1, 4),
                       ("crossing", 1, 3), ("crossing", art.q + 1, 1)):
        with pytest.raises(KeyError):
            art.restriction(kind, k, t)


# sha256 of what a reduction returns and writes, taken before vertex_info and
# the crossings' P1/P2 sets were derived on demand: repr(tuple(vertex_info)),
# repr of every crossing's sorted P1 and P2 edge ids, the graph file with its
# embedding block, and the provenance file
REDUCTION_SHA256 = {
    "n3": ("9ec6bd1703f0f8cf295b28acf4fe1b587e6674c46c3701a3f9f32a222743a691",
           "9f8ad382e0cb44f95bb75622fce596114acaada45c74809c9635298f0cb63e72",
           "309f58213577102dc41c2ac986778446acc5175cc299f74409971de0898eb4d2",
           "a0abf173968d8c9e7668cbc3527c99fb37aaba9c06586cc7b8093a8c445587e1"),
    "ag23": ("29c6f7761ccfaae4225358304e0a0a167837546329b0ddc2e32f92a5def9f8ff",
             "a1a391804a31d04c11996e870d512de8ddb529ec3559995d581779edd64a67d2",
             "886a8e10498a4a99e2bd25f31e1e6ecfe34826e7880f12089b4ef2eb9682b55b",
             "42cc6ecf0e3e981f2ed214cb3442ec1f0c21aa5d3fb045ec7d6f5a10ca4ed11c"),
    "n30": ("1ce7b022b69f4fb71e52e12813216ea2c6d1e07c92c477d42170255a8a615525",
            "84fb13db2661d8a943cb54ffb4244f3ed2ecfb71f6bcaf8f8103d5aca159b7d1",
            "845e28270a34ec3244b762fa8f23ce42d0739bcaa0799b4188e24a9425fc5073",
            "120d8ec1b016ee56dea1e88db4201ca4b06d434e601ed419ea000ba0ae56a9ee"),
}


def test_reduction_outputs_pinned():
    formulas = {"n3": canonical_n3_formula(), "ag23": ag23_formula(),
                "n30": random_e4_formula(30, random.Random(1))}
    got = {}
    for name, f in formulas.items():
        art = reduce_formula(f)
        p1_p2 = [tuple(sorted(art.restriction("crossing", k, t)) for t in (1, 2))
                 for k in range(1, art.q + 1)]
        texts = (repr(tuple(art.vertex_info)), repr(p1_p2),
                 serialize_graph(art.graph, art.embedding), serialize_provenance(art))
        got[name] = tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts)
    assert got == REDUCTION_SHA256


def test_reduction_artifact_stays_small():
    """The artifact of the seeded n = 30 reduction keeps under 432 bytes a
    vertex, as tracemalloc counts what reduce_formula leaves allocated:
    418.7 on Python 3.10, 428.8 on 3.11 and 3.12 and 428.6 on 3.13.  A
    record object per crossing, and a bundle table with its own copy of the
    plan's positions, took 423.4 on 3.10 and 433.3-433.4 on 3.11-3.13.
    Forced sets and clause types mapped in advance, a tuple of edge ids per
    crossing record, and wire routes and connectors with ints of their own
    took 447 on 3.10 and 459 on 3.11-3.13, and a (kind, index, name) tuple
    per vertex with two frozensets per crossing 586-595."""
    f = random_e4_formula(30, random.Random(1))
    reduce_formula(canonical_n3_formula())  # the templates are built once, and cached
    tracemalloc.start()
    try:
        art = reduce_formula(f)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 432 * art.graph.n


def test_connector_edges_have_labels(canonical_artifact):
    art = canonical_artifact
    gadget_of = [info[:2] for info in art.vertex_info]
    intra = sum(1 for u, v in art.graph.edges if gadget_of[u] == gadget_of[v])
    assert intra + len(art.connectors) == art.graph.m
    for u, v, var in art.connectors:
        assert gadget_of[u] != gadget_of[v]
        assert 1 <= var <= art.formula.n


def test_connectors_share_the_graphs_ints(canonical_artifact):
    """A connector's ends are the int objects the graph holds for them."""
    g = canonical_artifact.graph
    for u, v, _ in canonical_artifact.connectors:
        a, b = g.edges[g.edge_id(u, v)]
        assert a is u and b is v


def test_wire_routes_traverse_even_crossover_squares(canonical_artifact, crossing_gadget):
    """Each wire passes an even number of crossover squares, two per spliced
    gadget, along a two-edge subpath of each."""
    art = canonical_artifact
    g = art.graph
    square_of = {}
    for k in range(1, art.q + 1):
        base = art.vertex_info.start("crossing", k)
        for sq in ("BL", "BR", "TL", "TR"):
            for lv in crossing_gadget.marks[sq]:
                square_of[base + lv] = (k, sq)
    for route in _trace_wires(art).values():
        squares_on_wire = 0
        for k in range(1, len(route) - 1, 2):
            pin, pout = route[k], route[k + 1]
            path = _shortest_path(g, pin, pout)
            touched = {square_of[v] for v in path if v in square_of}
            assert len(touched) == 2
            squares_on_wire += 2
            for _, sq in touched:
                members = [v for v in path if v in square_of and square_of[v][1] == sq]
                assert len(members) == 3  # a two-edge subpath of the square
        assert squares_on_wire % 2 == 0


def _shortest_path(g, a, b):
    prev = {a: a}
    frontier = [a]
    while frontier and b not in prev:
        nxt = []
        for v in frontier:
            for w in g.adj[v]:
                if w not in prev:
                    prev[w] = v
                    nxt.append(w)
        frontier = nxt
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return path[::-1]


def test_gadget_adjacency_multigraph_bridgeless(canonical_artifact):
    art = canonical_artifact
    gadget_ids = sorted({info[:2] for info in art.vertex_info})
    gid = {k: i for i, k in enumerate(gadget_ids)}
    multi = {}
    for u, v, _ in art.connectors:
        a = gid[art.vertex_info[u][:2]]
        b = gid[art.vertex_info[v][:2]]
        key = (min(a, b), max(a, b))
        multi[key] = multi.get(key, 0) + 1
    # a bridge would be an adjacency carried by a single connector edge that
    # disconnects; all adjacencies carry the two parallel wires of a bundle
    assert all(c >= 2 for c in multi.values())


def test_crossing_records_match_splice_orientation(canonical_artifact):
    art = canonical_artifact
    xg = build_crossing_gadget()
    routes = _trace_wires(art)
    for k, ((i1, j1), (i2, j2)) in enumerate(art.crossings, 1):
        base = art.vertex_info.start("crossing", k)
        for wire, route_key in (("u1", "b"), ("u2", "t")):
            port = base + xg.names[wire]
            assert port in routes[(i1, j1, route_key)]
        for wire, route_key in (("u1'", "b"), ("u2'", "t")):
            port = base + xg.names[wire]
            assert port in routes[(i2, j2, route_key)]


def test_random_instances_certify(random_instances):
    for f in random_instances[:4]:
        art = reduce_formula(f)
        assert art.graph.n == 36 * f.n + 112 * f.m + 16 * art.q
        assert is_cubic(art.graph)
        assert is_planar_embedding(art.graph, art.embedding)


def test_provenance_serialization(canonical_artifact):
    text = serialize_provenance(canonical_artifact)
    lines = text.splitlines()
    assert lines[0].startswith("vertex 0 variable 1 ")
    assert any(ln.startswith("connector ") and " var " in ln for ln in lines)
    assert any(ln.startswith("crossing 1 bundles ") for ln in lines)
    s2_lines = [ln for ln in lines if ln.startswith("s2 ")]
    assert len(s2_lines) == canonical_artifact.formula.n
    assert all(len(ln.split()) == 8 for ln in s2_lines)


def test_graph_file_roundtrip_preserves_embedding(canonical_artifact, tmp_path):
    art = canonical_artifact
    text = serialize_graph(art.graph, art.embedding)
    g2, emb2 = parse_graph(text)
    assert g2.n == art.graph.n
    assert is_planar_embedding(g2, emb2)
