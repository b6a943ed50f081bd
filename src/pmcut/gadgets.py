"""The three gadgets of the reduction, transcribed from their drawings.

Each gadget is a graph fragment whose drawing we reproduce exactly: vertex
coordinates, bent edges, and the direction in which each port's connector
stub leaves.  The rotation system (clockwise around each vertex) is computed
from that geometry, so the local embeddings are planar by construction and
the assembled instance can be certified by an Euler check alone.

Correctness of the transcription is not assumed: ``census_types`` checks each
gadget's census of admissible local restrictions against the census theorem,
the one place the theorem is checked, and the tests pin down vertex counts,
degree profiles, bipartiteness and the side relations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import (STUB, EdgeSet, Graph, PlaneEmbedding, cut_from_edge_set, face_darts,
                     is_bipartite, is_perfect_matching, is_planar_embedding)
from .solver import enumerate_pmcs

Coord = tuple[float, float]


@dataclass(frozen=True)
class Gadget:
    """A fragment with named vertices, degree-2 ports, and a local embedding.

    ``rotations`` contains a STUB sentinel at each port marking where the
    future connector edge sits in the clockwise order; ``embedding`` is the
    fragment's embedding with those stubs dropped.  ``ports`` lists the port
    vertices in the cyclic order they appear on the outer face.
    ``vertex_names`` holds each vertex's primary name, the first registered;
    aliases (like u1 = t'b) come later and are found only in ``names``.
    """

    kind: str
    graph: Graph
    ports: tuple[int, ...]
    names: dict
    vertex_names: tuple[str, ...]
    marks: dict
    red_edges: EdgeSet
    rotations: tuple[tuple[int, ...], ...]
    embedding: PlaneEmbedding


class FigureError(RuntimeError):
    """A gadget drawing or its census is wrong; the drawings are constants,
    so this is always a bug."""


class _FigureBuilder:
    """Accumulates vertices, drawn polylines, and stub directions."""

    def __init__(self, kind: str):
        self.kind = kind
        self._ids: dict[tuple[int, int], int] = {}
        self.names: dict[str, int] = {}
        self.marks: dict[str, tuple[int, ...]] = {}
        self.edges: list[tuple[int, int]] = []
        self._edge_dirs: dict[tuple[int, int], tuple[Coord, Coord]] = {}
        self.red: set[int] = set()
        self.stubs: dict[int, Coord] = {}

    @staticmethod
    def _key(xy: Coord) -> tuple[int, int]:
        return (round(xy[0] * 2), round(xy[1] * 2))

    def vertex(self, xy: Coord, name: Optional[str] = None) -> int:
        k = self._key(xy)
        if k not in self._ids:
            self._ids[k] = len(self._ids)
        v = self._ids[k]
        if name is not None:
            if name in self.names and self.names[name] != v:
                raise FigureError(f"name {name} rebound")
            self.names[name] = v
        return v

    def mark(self, label: str, coords: Iterable[Coord]) -> None:
        self.marks[label] = tuple(self.vertex(c) for c in coords)

    def path(self, coords: list[Coord], red: bool = False) -> None:
        """A drawn polyline; registered coordinates are vertices, others bends."""
        run: list[Coord] = []
        anchors: list[int] = []
        for xy in coords:
            run.append(xy)
            if self._key(xy) in self._ids:
                anchors.append(len(run) - 1)
        if len(anchors) < 2:
            raise FigureError("path must visit at least two vertices")
        for a, b in zip(anchors, anchors[1:]):
            seg = run[a:b + 1]
            self._add_edge(seg, red)

    def ring(self, coords: list[Coord]) -> None:
        self.path(list(coords) + [coords[0]])

    def _add_edge(self, seg: list[Coord], red: bool) -> None:
        u = self.vertex(seg[0])
        v = self.vertex(seg[-1])
        if u == v:
            raise FigureError(f"degenerate edge at {seg[0]}")
        key = (min(u, v), max(u, v))
        if key in self._edge_dirs:
            return  # figures draw a few segments twice
        du = (seg[1][0] - seg[0][0], seg[1][1] - seg[0][1])
        dv = (seg[-2][0] - seg[-1][0], seg[-2][1] - seg[-1][1])
        self._edge_dirs[key] = (du, dv) if u < v else (dv, du)
        self.edges.append(key)
        if red:
            self.red.add(len(self.edges) - 1)

    def stub(self, name: str, direction: Coord) -> None:
        self.stubs[self.names[name]] = direction

    def build(self) -> Gadget:
        g = Graph(len(self._ids), self.edges)
        rotations = []
        for v in range(g.n):
            items: list[tuple[float, int]] = []
            for e in g.inc[v]:
                u, w = g.edges[e]
                du, dw = self._edge_dirs[(u, w)]
                d = du if v == u else dw
                items.append((math.atan2(d[1], d[0]), e))
            if v in self.stubs:
                d = self.stubs[v]
                items.append((math.atan2(d[1], d[0]), STUB))
            items.sort(key=lambda t: -t[0])  # clockwise
            angles = [a for a, _ in items]
            if len(set(angles)) != len(angles):
                raise FigureError(f"coincident edge directions at vertex {v}")
            rotations.append(tuple(e for _, e in items))
        emb = PlaneEmbedding(g, (tuple(e for e in rot if e != STUB) for rot in rotations))
        primary: dict[int, str] = {}
        for name, v in self.names.items():
            primary.setdefault(v, name)
        gadget = Gadget(
            kind=self.kind,
            graph=g,
            ports=_outer_face_port_order(emb, tuple(sorted(self.stubs))),
            names=dict(self.names),
            vertex_names=tuple(primary[v] for v in range(g.n)),
            marks=dict(self.marks),
            red_edges=frozenset(self.red),
            rotations=tuple(rotations),
            embedding=emb,
        )
        _check_gadget(gadget)
        return gadget


def _outer_face_port_order(emb: PlaneEmbedding, ports: tuple[int, ...]) -> tuple[int, ...]:
    port_set = set(ports)
    hits = []
    for walk in face_darts(emb.graph, emb):
        seen = [v for v, _ in walk if v in port_set]
        if set(seen) == port_set:
            ordered = list(dict.fromkeys(seen))
            if len(ordered) == len(ports):
                hits.append(tuple(ordered))
    if len(hits) != 1:
        raise FigureError(f"expected a unique outer face with all ports, got {len(hits)}")
    return hits[0]


def _check_gadget(gadget: Gadget) -> None:
    g = gadget.graph
    ports = set(gadget.ports)
    for v in range(g.n):
        want = 2 if v in ports else 3
        if g.degree(v) != want:
            raise FigureError(f"{gadget.kind}: vertex {v} has degree {g.degree(v)}, wanted {want}")
    if is_bipartite(g) is None:
        raise FigureError(f"{gadget.kind}: fragment is not bipartite")
    if not is_planar_embedding(g, gadget.embedding):
        raise FigureError(f"{gadget.kind}: local embedding fails the Euler check")


# --- variable gadget (five linked rings, eight anchors) ------------------------

_S_RINGS = [
    [(0, 0), (0.5, 0.5), (1, 0.5), (1.5, 0), (1, -0.5), (0.5, -0.5)],
    [(3, 0), (3.5, 0.5), (4, 0.5), (4.5, 0), (4, -0.5), (3.5, -0.5)],
    [(6, 0), (6.5, 0.5), (7, 0.5), (7.5, 0), (7, -0.5), (6.5, -0.5)],
    [(9, 0), (9.5, 0.5), (10, 0), (9.5, -0.5)],
    [(11, 0), (11.5, 0.5), (12, 0.5), (12.5, 0), (12, -0.5), (11.5, -0.5)],
]

_VAR_ANCHORS = [  # (name, coord); slots 1..4 hold the four occurrences in clause order
    ("b1", (-1, -2)), ("t1", (-0.5, -2)),
    ("b2", (5, -2)), ("t2", (5.5, -2)),
    ("b3", (8, -2)), ("t3", (8.5, -2)),
    ("b4", (13, -2)), ("t4", (13.5, -2)),
]

_VAR_RED_CHAINS = [
    [(0, 0), (-0.5, 0), (-0.5, -2)],                 # S1 -> t1
    [(0.5, 0.5), (-1, 0.5), (-1, -2)],               # S1 -> b1
    [(0.5, -0.5), (0.5, -1.5), (5, -1.5), (5, -2)],  # S1 -> b2
    [(1, 0.5), (3.5, 0.5)],
    [(1.5, 0), (3, 0)],
    [(1, -0.5), (3.5, -0.5)],
    [(4, 0.5), (6.5, 0.5)],
    [(4, -0.5), (6.5, -0.5)],
    [(4.5, 0), (6, 0)],
    [(7, -0.5), (7, -1.5), (5.5, -1.5), (5.5, -2)],  # S3 -> t2
    [(7, 0.5), (8, 0.5), (8, 0), (9, 0)],            # S3 -> S4
    [(7.5, 0), (7.5, -1.5), (8, -1.5), (8, -2)],     # S3 -> b3
    [(11, 0), (10, 0)],
    [(11.5, 0.5), (9.5, 0.5)],
    [(11.5, -0.5), (9.5, -0.5)],
    [(12, -0.5), (12, -1.5), (8.5, -1.5), (8.5, -2)],  # S5 -> t3
    [(12, 0.5), (13.5, 0.5), (13.5, -2)],              # S5 -> t4
    [(12.5, 0), (13, 0), (13, -2)],                    # S5 -> b4
]


def build_variable_gadget() -> Gadget:
    """36 vertices: rings S1..S5 plus four anchor pairs; the red set is forced.

    Anchor slots 1..4 hold the four occurrences in ascending clause order.
    """
    b = _FigureBuilder("variable")
    for k, ring in enumerate(_S_RINGS, 1):
        for idx, xy in enumerate(ring):
            b.vertex(xy, f"S{k}.{idx}")
        b.mark(f"S{k}", ring)
    for name, xy in _VAR_ANCHORS:
        b.vertex(xy, name)
    for k, ring in enumerate(_S_RINGS, 1):
        b.ring(ring)
    for slot in range(1, 5):
        b.path([dict(_VAR_ANCHORS)[f"b{slot}"], dict(_VAR_ANCHORS)[f"t{slot}"]])
    for chain in _VAR_RED_CHAINS:
        b.path(chain, red=True)
    for name, _ in _VAR_ANCHORS:
        b.stub(name, (0, -1))
    return b.build()


# --- clause gadget (two mirrored subdivided cubes, square chain, D block) -------

_U_COORDS = [
    (0, 6), (1, 6), (2, 6), (3, 6), (5, 6), (6, 6), (7, 6), (8, 6),
    (8, 5), (8, 4), (8, 3), (8, 2), (8, 1), (8, 0),
    (6, 1.5), (4, 3), (5, 3), (6, 3), (5, 4.5), (6, 4.5),
]

_F_CENTERS = [(8, 13.5), (8, 11.5), (8, 9.5), (8, 7.5), (8, -2), (8, -6)]

_D1_RING = [(9, -4), (9, -4.5), (9.5, -4.5), (10, -4), (9.5, -3.5), (9, -3.5)]
_D2_RING = [(11, -4), (11.5, -4.5), (12.5, -4.5), (13, -4), (12.5, -3.5), (11.5, -3.5)]

_D_RED_LEFT = [
    [(8, -4), (9, -4)],
    [(10, -4), (11, -4)],
    [(9.5, -4.5), (11.5, -4.5)],
    [(9.5, -3.5), (11.5, -3.5)],
    [(9, -4.5), (8, -4.5)],
    [(9, -3.5), (8, -3.5)],
]


def _mirror(xy: Coord) -> Coord:
    return (24 - xy[0], xy[1])


def _square(center: Coord) -> dict[str, Coord]:
    x, y = center
    return {"b": (x, y - 0.5), "r": (x + 0.5, y), "t": (x, y + 0.5), "l": (x - 0.5, y)}


def build_clause_gadget() -> Gadget:
    """112 vertices; the three admissible restrictions encode the clause types.

    Anchor slots a < b < c follow the drawing (u1 is t'b).
    """
    b = _FigureBuilder("clause")
    for k, xy in enumerate(_U_COORDS, 1):
        b.vertex(xy, f"u{k}")
        b.vertex(_mirror(xy), f"v{k}")
    b.mark("U", _U_COORDS)
    b.mark("V", [_mirror(xy) for xy in _U_COORDS])
    for i, c in enumerate(_F_CENTERS, 1):
        sq = _square(c)
        sqm = {k: _mirror(xy) for k, xy in sq.items()}
        for corner in "brtl":
            b.vertex(sq[corner], f"F{i}.{corner}")
            b.vertex(sqm[corner], f"F{i}'.{corner}")
        b.mark(f"F{i}", [sq[c2] for c2 in "brtl"])
        b.mark(f"F{i}'", [sqm[c2] for c2 in "brtl"])
    for k, xy in enumerate([(8, -4.5), (8, -4), (8, -3.5)], 1):
        b.vertex(xy, f"d{k}")
        b.vertex(_mirror(xy), f"d{k}'")
    for idx, xy in enumerate(_D1_RING):
        b.vertex(xy, f"D1.{idx}")
        b.vertex(_mirror(xy), f"D3.{idx}")
    for idx, xy in enumerate(_D2_RING):
        b.vertex(xy, f"D2.{idx}")
    b.mark("D1", _D1_RING)
    b.mark("D2", _D2_RING)
    b.mark("D3", [_mirror(xy) for xy in _D1_RING])
    b.mark("D", _D1_RING + _D2_RING + [_mirror(xy) for xy in _D1_RING])
    # w1..w6 are the corners of F4/F4' used by the eight-cycle argument
    for name, coord in [
        ("w1", (8, 7)), ("w2", (8.5, 7.5)), ("w3", (15.5, 7.5)),
        ("w4", (16, 7)), ("w5", (7.5, 7.5)), ("w6", (16.5, 7.5)),
    ]:
        b.vertex(coord, name)

    u = dict(enumerate(_U_COORDS, 1))
    cube_paths = [
        [u[k] for k in (1, 2, 3, 4, 5, 6, 7, 8)],
        [u[k] for k in (8, 9, 10, 11, 12, 13, 14)],
        [u[k] for k in (14, 15, 16, 1)],
        [u[k] for k in (16, 17, 18)], [u[k] for k in (18, 11)],
        [u[k] for k in (5, 19, 17)],
        [u[k] for k in (6, 20, 18)],
        [u[k] for k in (19, 20)],
    ]
    for p in cube_paths:
        b.path(p)
        b.path([_mirror(xy) for xy in p])
    for c in _F_CENTERS:
        sq = _square(c)
        ring = [sq[c2] for c2 in "brtl"]
        b.ring(ring)
        b.ring([_mirror(xy) for xy in ring])
    for k in (9, 10, 12, 13):
        b.path([u[k], _mirror(u[k])])
    for c in _F_CENTERS:
        sq = _square(c)
        b.path([sq["r"], _mirror(sq["r"])])  # F_i.r -- F_i'.l
    chain_pairs = [
        [(8, 13), (8, 12)], [(8, 11), (8, 10)], [(8, 9), (8, 8)], [(8, 7), (8, 6)],
        [(8, -1.5), (8, 0)],
        [(8, -2.5), (8, -3.5)], [(8, -3.5), (8, -4)], [(8, -4), (8, -4.5)],
        [(8, -4.5), (8, -5.5)],
        [(7.5, -2), (6, -2), (6, 1.5)],
        [(7.5, 13.5), (1, 6)], [(7.5, 11.5), (2, 6)],
        [(7.5, 9.5), (3, 6)], [(7.5, 7.5), (7, 6)],
    ]
    for p in chain_pairs:
        b.path(p)
        b.path([_mirror(xy) for xy in p])
    b.path([(24, 6), (24, -6), (16.5, -6)])  # v1 -- F6'.r
    b.ring(_D1_RING)
    b.ring([_mirror(xy) for xy in _D1_RING])
    b.ring(_D2_RING)
    for p in _D_RED_LEFT:
        b.path(p, red=True)
        b.path([_mirror(xy) for xy in p], red=True)

    # ports: the figure's anchor assignment
    b.names["t'b"] = b.names["u1"]
    b.names["b'b"] = b.names["F6.l"]
    b.names["t'c"] = b.names["F6.b"]
    b.names["b'c"] = b.names["F6'.b"]
    b.names["b'a"] = b.names["F1.t"]
    b.names["t'a"] = b.names["F1'.t"]
    b.stub("t'b", (0, -1))
    b.stub("b'b", (-1, 0))
    b.stub("t'c", (0, -1))
    b.stub("b'c", (0, -1))
    b.stub("b'a", (0, 1))
    b.stub("t'a", (0, 1))
    return b.build()


# --- crossing gadget (four diamonds) --------------------------------------------

_CROSS_SQUARES = {"BL": (2, 2), "BR": (4, 2), "TL": (2, 4), "TR": (4, 4)}

# Port of each wire end, with the direction its stub leaves: the horizontal
# wires run u1->v1 (bottom) and u2->v2 (top), the vertical ones u1'->v1'
# (left) and u2'->v2' (right).
_CROSS_PORTS = [
    ("u1", "BL.l", (-1, 0)), ("v1'", "BL.b", (0, -1)),
    ("v1", "BR.r", (1, 0)), ("v2'", "BR.b", (0, -1)),
    ("u2", "TL.l", (-1, 0)), ("u1'", "TL.t", (0, 1)),
    ("v2", "TR.r", (1, 0)), ("u2'", "TR.t", (0, 1)),
]

# Each diamond has one side on the central face; the restriction P2 selects
# the opposite-edge pair containing that side, P1 selects the other pair.
_CROSS_CENTRAL = {"BL": ("r", "t"), "BR": ("t", "l"), "TL": ("b", "r"), "TR": ("l", "b")}


def build_crossing_gadget() -> Gadget:
    b = _FigureBuilder("crossing")
    for sq, c in _CROSS_SQUARES.items():
        corners = _square(c)
        for corner in "brtl":
            b.vertex(corners[corner], f"{sq}.{corner}")
        b.mark(sq, [corners[c2] for c2 in "brtl"])
    for sq, c in _CROSS_SQUARES.items():
        corners = _square(c)
        b.ring([corners[c2] for c2 in "lbrt"])
    b.path([_square(_CROSS_SQUARES["BL"])["r"], _square(_CROSS_SQUARES["BR"])["l"]])
    b.path([_square(_CROSS_SQUARES["BL"])["t"], _square(_CROSS_SQUARES["TL"])["b"]])
    b.path([_square(_CROSS_SQUARES["TL"])["r"], _square(_CROSS_SQUARES["TR"])["l"]])
    b.path([_square(_CROSS_SQUARES["BR"])["t"], _square(_CROSS_SQUARES["TR"])["b"]])
    for wire, corner, direction in _CROSS_PORTS:
        b.names[wire] = b.names[corner]
        b.stub(wire, direction)
    return b.build()


def crossing_type_sets(gadget: Gadget) -> tuple[EdgeSet, EdgeSet]:
    """(P1, P2): the two restrictions that wire sides through the gadget."""
    g = gadget.graph
    p1, p2 = set(), set()
    for sq, (ca, cb) in _CROSS_CENTRAL.items():
        corners = {c: gadget.names[f"{sq}.{c}"] for c in "brtl"}
        central = g.edge_id(corners[ca], corners[cb])
        opposite = {"b": "t", "t": "b", "l": "r", "r": "l"}
        central_mate = g.edge_id(corners[opposite[ca]], corners[opposite[cb]])
        ring = ["l", "b", "r", "t", "l"]
        all_edges = {g.edge_id(corners[ring[i]], corners[ring[i + 1]]) for i in range(4)}
        p2 |= {central, central_mate}
        p1 |= all_edges - {central, central_mate}
    return frozenset(p1), frozenset(p2)


# --- clause types -----------------------------------------------------------------

_L_PAIRS = {
    1: [(1, 2), (3, 4), (5, 19), (6, 20), (7, 8), (9, 10),
        (16, 17), (18, 11), (12, 13), (15, 14)],
    2: [(1, 2), (3, 4), (5, 6), (7, 8), (19, 20), (9, 10),
        (16, 15), (17, 18), (11, 12), (14, 13)],
    3: [(2, 3), (4, 5), (6, 7), (8, 9), (1, 16), (19, 17),
        (20, 18), (10, 11), (12, 13), (15, 14)],
}


def clause_type(gadget: Gadget, restriction: EdgeSet) -> Optional[int]:
    """Type i in 1..3 if the restriction's trace on the U and V edges is the
    set L_i on the u-vertices and its mirror R_i on the v-vertices, else None."""
    g, names = gadget.graph, gadget.names
    uv = set(gadget.marks["U"]) | set(gadget.marks["V"])
    trace = {e for e in restriction if g.edges[e][0] in uv and g.edges[e][1] in uv}
    for i, pairs in _L_PAIRS.items():
        if trace == {g.edge_id(names[f"{s}{a}"], names[f"{s}{b}"])
                     for s in "uv" for a, b in pairs}:
            return i
    return None


# --- census and side relations ----------------------------------------------------

def enumerate_local_pmcs(gadget: Gadget) -> list[EdgeSet]:
    """All restrictions that perfectly match the fragment and respect parity.

    Connector edges do not exist in the fragment, so ports must be matched
    internally.  The search yields in ascending order of the sorted edge
    indices: all perfect matchings of one graph have the same size, and
    taking the lowest open edge In before Out lists sets of one size in
    that order.
    """
    return enumerate_pmcs(gadget.graph)


# Number of admissible local restrictions of each gadget, by the census theorem.
CENSUS_SIZES = {"variable": 1, "clause": 3, "crossing": 8}


def census_types(gadget: Gadget, census: list[EdgeSet]) -> dict[int, EdgeSet]:
    """Check a gadget's census against the census theorem and return the
    restrictions the reduction uses, keyed by type.

    The variable gadget's census is its forced red set alone (type 1).  The
    clause gadget's holds one restriction of each clause type 1..3, keyed in
    census order.  The crossing gadget's holds P1 and P2 (types 1 and 2)
    among its elements.  Any other census raises FigureError.
    """
    if gadget.kind == "clause":
        types = {clause_type(gadget, c): c for c in census}
        typed = set(types) == set(_L_PAIRS)
    else:
        sets = (gadget.red_edges,) if gadget.kind == "variable" else crossing_type_sets(gadget)
        types = dict(enumerate(sets, 1))
        typed = set(sets) <= set(census)
    if len(census) != CENSUS_SIZES[gadget.kind] or not typed:
        raise FigureError(f"{gadget.kind} gadget: its census of {len(census)} "
                          "restrictions fails the census theorem")
    return types


def side_relations(gadget: Gadget, restriction: EdgeSet) -> dict[str, int]:
    """Side bit of every named port under an admissible restriction."""
    g = gadget.graph
    if not is_perfect_matching(g, restriction):
        raise ValueError("restriction is not a perfect matching of the fragment")
    cut = cut_from_edge_set(g, restriction)
    if cut is None:
        raise ValueError("restriction is not parity-consistent")
    return {name: cut.sides[v] for name, v in gadget.names.items() if v in gadget.ports}
