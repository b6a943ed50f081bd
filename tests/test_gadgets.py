import dataclasses
from collections import Counter

import pytest

from pmcut.gadgets import (
    CENSUS_SIZES,
    FigureError,
    census_types,
    clause_type,
    crossing_type_sets,
    enumerate_local_pmcs,
    side_relations,
)
from pmcut.graphs import cut_from_edge_set, face_darts, is_bipartite, is_perfect_matching


# --- shape ---------------------------------------------------------------------

def test_variable_gadget_shape(variable_gadget):
    g = variable_gadget.graph
    assert g.n == 36 and len(variable_gadget.ports) == 8
    assert Counter(g.degree(v) for v in range(g.n)) == {3: 28, 2: 8}
    assert 3 * 28 + 2 * 8 == 2 * g.m
    assert len(variable_gadget.red_edges) == 18


def test_clause_gadget_shape(clause_gadget):
    g = clause_gadget.graph
    assert g.n == 112 and len(clause_gadget.ports) == 6
    assert Counter(g.degree(v) for v in range(g.n)) == {3: 106, 2: 6}


def test_crossing_gadget_shape(crossing_gadget):
    g = crossing_gadget.graph
    assert g.n == 16 and g.m == 20 and len(crossing_gadget.ports) == 8
    assert Counter(g.degree(v) for v in range(g.n)) == {3: 8, 2: 8}


def test_gadgets_bipartite(variable_gadget, clause_gadget, crossing_gadget):
    for gadget in (variable_gadget, clause_gadget, crossing_gadget):
        assert is_bipartite(gadget.graph) is not None


def test_local_embeddings_and_exposed_paths(variable_gadget, clause_gadget, crossing_gadget):
    for gadget in (variable_gadget, clause_gadget, crossing_gadget):
        g = gadget.graph
        walks = [[v for v, _ in walk] for walk in face_darts(g, gadget.embedding)]
        assert sum(len(w) for w in walks) == 2 * g.m
        assert g.n - g.m + len(walks) == 2
        ports = set(gadget.ports)
        outer = [w for w in walks if ports <= set(w)]
        assert len(outer) == 1
        walk = outer[0]
        assert len(walk) == len(set(walk))
        pos = [k for k, v in enumerate(walk) if v in ports]
        for a, b in zip(pos, pos[1:] + [pos[0] + len(walk)]):
            assert (b - a + 1) % 2 == 0  # even number of vertices per exposed path


def test_port_cyclic_orders(variable_gadget, clause_gadget):
    # variable gadget: anchor pairs adjacent, occurrence slots in cyclic order
    names = [variable_gadget.vertex_names[p] for p in variable_gadget.ports]
    ring = {frozenset((names[i], names[(i + 1) % 8])) for i in range(8)}
    for s in "1234":
        assert frozenset((f"t{s}", f"b{s}")) in ring
    slots = [int(n[1]) for n in names]
    order = tuple(dict.fromkeys(slots))
    doubled = order + order
    assert any(doubled[i:i + 4] in ((1, 2, 3, 4), (1, 4, 3, 2)) for i in range(4))
    # clause gadget: each variable's two anchors adjacent on the outer face
    cnames = [clause_gadget.vertex_names[p] for p in clause_gadget.ports]
    cring = {frozenset((cnames[i], cnames[(i + 1) % 6])) for i in range(6)}
    pairs = {frozenset(("u1", "F6.l")),       # t'b, b'b
             frozenset(("F6.b", "F6'.b")),    # t'c, b'c
             frozenset(("F1.t", "F1'.t"))}    # b'a, t'a
    assert pairs <= cring


# --- censuses --------------------------------------------------------------------

def test_variable_census_is_red_set(variable_gadget):
    census = enumerate_local_pmcs(variable_gadget)
    assert census == [variable_gadget.red_edges]
    assert census_types(variable_gadget, census) == {1: variable_gadget.red_edges}


def test_clause_type_sets(clause_gadget):
    """The type-i restriction's edges inside U are a set L_i of 10 edges
    covering U, and its edges inside V are L_i's mirror R_i."""
    g = clause_gadget.graph
    types = census_types(clause_gadget, enumerate_local_pmcs(clause_gadget))
    u_vertices = set(clause_gadget.marks["U"])
    v_vertices = set(clause_gadget.marks["V"])
    for c in types.values():
        l_set = {e for e in c if set(g.edges[e]) <= u_vertices}
        r_set = {e for e in c if set(g.edges[e]) <= v_vertices}
        assert len(l_set) == 10
        covered = {w for e in l_set for w in g.edges[e]}
        assert covered == u_vertices
        # R mirrors L through the u->v renaming
        mirrored = set()
        for e in l_set:
            a, b = g.edges[e]
            na = clause_gadget.vertex_names[a].replace("u", "v")
            nb = clause_gadget.vertex_names[b].replace("u", "v")
            mirrored.add(g.edge_id(clause_gadget.names[na], clause_gadget.names[nb]))
        assert mirrored == r_set


def test_census_types_rejects_a_variable_red_set_off_its_census(variable_gadget):
    census = enumerate_local_pmcs(variable_gadget)
    mutant = dataclasses.replace(variable_gadget,
                                 red_edges=variable_gadget.red_edges - {min(census[0])})
    with pytest.raises(FigureError, match="variable gadget: its census of 1 "):
        census_types(mutant, enumerate_local_pmcs(mutant))


def test_census_types_rejects_a_crossing_census_without_p1(crossing_gadget):
    p1, _ = crossing_type_sets(crossing_gadget)
    census = [c for c in enumerate_local_pmcs(crossing_gadget) if c != p1]
    with pytest.raises(FigureError, match="crossing gadget: its census of 7 "):
        census_types(crossing_gadget, census)
    # the size alone does not pass it: P1 swapped for a second copy of P2
    census.append(crossing_type_sets(crossing_gadget)[1])
    with pytest.raises(FigureError, match="crossing gadget: its census of 8 "):
        census_types(crossing_gadget, census)


def test_census_types_rejects_a_repeated_or_fourth_clause_element(clause_gadget):
    census = enumerate_local_pmcs(clause_gadget)
    with pytest.raises(FigureError, match="clause gadget: its census of 3 "):
        census_types(clause_gadget, [census[0], census[0], census[2]])
    with pytest.raises(FigureError, match="clause gadget: its census of 4 "):
        census_types(clause_gadget, census + [census[0]])


def test_clause_census_three_types(clause_gadget):
    census = enumerate_local_pmcs(clause_gadget)
    assert len(census) == 3
    types = {clause_type(clause_gadget, c) for c in census}
    assert types == {1, 2, 3}
    assert list(census_types(clause_gadget, census).values()) == census
    for c in census:
        assert clause_gadget.red_edges <= c  # D block red edges always selected


def test_censuses_ascend(variable_gadget, clause_gadget, crossing_gadget):
    """Every census lists distinct restrictions in ascending order of their
    sorted edge indices, whatever order the search finds them in."""
    for gadget in (variable_gadget, clause_gadget, crossing_gadget):
        census = enumerate_local_pmcs(gadget)
        assert len(set(census)) == len(census) == CENSUS_SIZES[gadget.kind]
        assert census == sorted(census, key=sorted), gadget.kind


def test_type1_square_orientations_match_drawing(clause_gadget):
    """The type-1 restriction selects the squares exactly as drawn: F1/F4/F6
    keep their right-top and left-bottom sides, F2/F3/F5 the other pair,
    mirrored on the primed side."""
    g = clause_gadget.graph
    census = enumerate_local_pmcs(clause_gadget)
    type1 = next(c for c in census if clause_type(clause_gadget, c) == 1)
    drawn = {"F1": ("rt", "lb"), "F2": ("br", "tl"), "F3": ("br", "tl"),
             "F4": ("rt", "lb"), "F5": ("br", "tl"), "F6": ("rt", "lb")}
    for sq, pairs in drawn.items():
        for prime in ("", "'"):
            want = {
                g.edge_id(clause_gadget.names[f"{sq}{prime}.{a}"],
                          clause_gadget.names[f"{sq}{prime}.{b}"])
                for a, b in pairs
            }
            assert want <= type1, (sq, prime)


def test_crossing_p_sets_match_drawing(crossing_gadget):
    """P1 and P2 select the drawn diamond sides: P2 takes each diamond's
    central-face pair, P1 the other pair."""
    g = crossing_gadget.graph
    p1, p2 = crossing_type_sets(crossing_gadget)
    drawn_p1 = {"BL": ("br", "tl"), "TL": ("lb", "rt"),
                "BR": ("lb", "rt"), "TR": ("tl", "br")}
    for sq, pairs in drawn_p1.items():
        want = {g.edge_id(crossing_gadget.names[f"{sq}.{a}"],
                          crossing_gadget.names[f"{sq}.{b}"]) for a, b in pairs}
        assert want <= p1, sq
        assert not (want & p2), sq


def test_clause_census_square_structure(clause_gadget):
    g = clause_gadget.graph
    for c in enumerate_local_pmcs(clause_gadget):
        for name in [f"F{i}" for i in range(1, 7)] + [f"F{i}'" for i in range(1, 7)]:
            square = clause_gadget.marks[name]
            ring = set(square)
            inside = [e for e in c if set(g.edges[e]) <= ring]
            outgoing = [e for e in c if len(set(g.edges[e]) & ring) == 1]
            assert len(inside) == 2 and not outgoing


def test_clause_census_no_uv_outgoing(clause_gadget):
    g = clause_gadget.graph
    for name in ("U", "V"):
        block = set(clause_gadget.marks[name])
        for c in enumerate_local_pmcs(clause_gadget):
            assert not [e for e in c if len(set(g.edges[e]) & block) == 1]


def test_d_red_edges_form_matching(clause_gadget):
    g = clause_gadget.graph
    touched = Counter()
    for e in clause_gadget.red_edges:
        touched.update(g.edges[e])
    assert all(c == 1 for c in touched.values())
    assert set(clause_gadget.marks["D"]) <= set(touched)


def test_crossing_census(crossing_gadget):
    census = enumerate_local_pmcs(crossing_gadget)
    # locally admissible selections: one opposite pair per diamond with an
    # even number of central-face picks (8 of the 16 raw pair choices)
    assert len(census) == 8
    p1, p2 = crossing_type_sets(crossing_gadget)
    assert p1 in census and p2 in census
    assert census_types(crossing_gadget, census) == {1: p1, 2: p2}
    g = crossing_gadget.graph
    for c in census:
        for sq in ("BL", "BR", "TL", "TR"):
            ring = set(crossing_gadget.marks[sq])
            inside = [e for e in c if set(g.edges[e]) <= ring]
            assert len(inside) == 2  # every crossover square carries two edges


def test_crossing_p_sets_are_square_matchings(crossing_gadget):
    g = crossing_gadget.graph
    for p in crossing_type_sets(crossing_gadget):
        assert len(p) == 8
        touched = Counter()
        for e in p:
            touched.update(g.edges[e])
        assert all(c == 1 for c in touched.values()) and len(touched) == 16


# --- side relations ---------------------------------------------------------------

def test_variable_ports_all_same_side(variable_gadget):
    [red] = enumerate_local_pmcs(variable_gadget)
    table = side_relations(variable_gadget, red)
    values = {table[f"{k}{s}"] for k in "tb" for s in "1234"}
    assert len(values) == 1


def test_crossing_side_relations(crossing_gadget):
    p1, p2 = crossing_type_sets(crossing_gadget)
    t1 = side_relations(crossing_gadget, p1)
    horizontals = ["u1", "u2", "v1", "v2"]
    verticals = ["u1'", "u2'", "v1'", "v2'"]
    assert len({t1[p] for p in horizontals + verticals}) == 1
    t2 = side_relations(crossing_gadget, p2)
    assert len({t2[p] for p in horizontals}) == 1
    assert len({t2[p] for p in verticals}) == 1
    assert t2["u1"] != t2["u1'"]


def test_clause_side_relations(clause_gadget):
    census = enumerate_local_pmcs(clause_gadget)
    seen = {}
    for c in census:
        t = clause_type(clause_gadget, c)
        side = cut_from_edge_set(clause_gadget.graph, c).sides
        u1, u8, u14 = (side[clause_gadget.names[n]] for n in ("u1", "u8", "u14"))
        # exactly one of the three is separated, depending on the type
        seen[t] = (u1, u8, u14)
        assert side[clause_gadget.names["t'c"]] == u14
        assert side[clause_gadget.names["b'a"]] == u8
        for x in "abc":
            assert side[clause_gadget.names[f"t'{x}"]] == side[clause_gadget.names[f"b'{x}"]]
    assert seen[1][0] != seen[1][1] and seen[1][1] == seen[1][2]
    assert seen[2][2] != seen[2][0] and seen[2][0] == seen[2][1]
    assert seen[3][1] != seen[3][0] and seen[3][0] == seen[3][2]


def test_side_relations_rejects_bad_restriction(variable_gadget, crossing_gadget):
    with pytest.raises(ValueError, match="matching"):
        side_relations(variable_gadget, frozenset())
    # flipping one diamond of P1 to its other opposite pair keeps a perfect
    # matching but puts an odd number of its edges on the central face
    g = crossing_gadget.graph
    bl = set(crossing_gadget.marks["BL"])
    ring = frozenset(e for e, (a, b) in enumerate(g.edges) if a in bl and b in bl)
    p1, _ = crossing_type_sets(crossing_gadget)
    flipped = p1 ^ ring
    assert len(ring) == 4 and is_perfect_matching(g, flipped)
    with pytest.raises(ValueError, match="parity"):
        side_relations(crossing_gadget, flipped)
