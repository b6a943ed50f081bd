"""Compile a formula into a perfect-matching-cut instance on a Barnette graph.

Pipeline: ``build_h`` plans the intermediate graph H, in which variable
gadgets are wired to clause gadgets by one bundle of two parallel connector
edges per occurrence; it fixes the layout order, the channel orders and the
gadget slots, which name the two ends of every wire, but assembles no graph.
``layout`` routes the bundles through the channel between the two gadget
columns as a wiring diagram whose adjacent swaps are exactly the bundle
crossings, and ``planarize`` splices a crossing gadget into each swap and
assembles the final graph, the only graph the reduction builds, together with
a rotation system stitched from the gadget-local embeddings.  The graph is
checked for cubicity and the size law, and the rotation system is certified
by the Euler formula, before an artifact is returned.

The gadget columns follow a layout order chosen by barycenter sweeps
(``_layout_order``), and the gadget slots follow the layout: exits run
bottom-to-top through the variables in layout order, each variable's slots
1..4 in clause layout order; entries run bottom-to-top through the clauses in
layout order, each clause's ports c, b, a in variable layout order, which is
the clause figure's own anchor stacking.  Bundles of one gadget therefore
never cross, and the crossings are exactly the two-layer crossings of the
incidence graph under the layout order.  Any order is sound: the variable
gadget puts all its anchors on one side, and the three clause types are
symmetric under relabelling the ports.  ``plan.slots`` records the
(slot, port) of every occurrence; vertex ids, ``vertex_info`` and provenance
keep index order.

A bundle is named everywhere by its occurrence (i, j), and a crossing by the
(lower, upper) pair of the bundles it splices.

The artifact keeps one edge table per gadget, ``gadget_edges``, and reads
every gadget restriction of the witness maps through it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from operator import itemgetter

from .formula import NaeFormula, incidence_graph, variable_cutvertices
from .gadgets import (
    Gadget,
    build_clause_gadget,
    build_crossing_gadget,
    build_variable_gadget,
    census_types,
    enumerate_local_pmcs,
)
from .graphs import (
    STUB,
    EdgeSet,
    Graph,
    PlaneEmbedding,
    _without_gc,
    is_cubic,
    is_planar_embedding,
)

VARIABLE_SIZE = 36
CLAUSE_SIZE = 112
CROSSING_SIZE = 16


class ReductionError(ValueError):
    """A formula the reduction refuses; a failed check of what the
    reduction builds is a RuntimeError instead."""


class VertexInfo(Sequence):
    """``(kind, index, name)`` of every vertex, as a read-only sequence.

    Vertex ids run through the variable, clause and crossing gadgets in
    blocks, each block the copies of one template in index order, so an
    entry is computed from its id and never stored, and ``start`` gives each
    gadget's first vertex id.  Iteration walks the blocks.  Length, indexing
    by vertex id and iteration match the tuple of one tuple per vertex that
    it stands for.
    """

    __slots__ = ("_blocks", "_len")

    def __init__(self, counts: tuple[int, int, int]):
        blocks = []
        start = 0
        for t, count in zip(_templates(), counts):
            stop = start + count * len(t.vertex_names)
            blocks.append((t.kind, count, start, stop, t.vertex_names))
            start = stop
        self._blocks = tuple(blocks)
        self._len = start

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, v: int) -> tuple[str, int, str]:
        if v < 0:
            v += self._len
        if v >= 0:
            for kind, _, start, stop, names in self._blocks:
                if v < stop:
                    k, r = divmod(v - start, len(names))
                    return kind, k + 1, names[r]
        raise IndexError("vertex id out of range")

    def __iter__(self):
        return chain.from_iterable(product((kind,), range(1, count + 1), names)
                                   for kind, count, _, _, names in self._blocks)

    def start(self, kind: str, k: int) -> int:
        """The first vertex id of gadget (kind, k), k counted from 1."""
        for b_kind, count, start, _, names in self._blocks:
            if b_kind == kind and 1 <= k <= count:
                return start + (k - 1) * len(names)
        raise KeyError((kind, k))


@dataclass(frozen=True)
class HBuild:
    """The plan of H that ``layout`` and ``planarize`` read; no graph is built.

    Each occurrence (i, j) is one bundle of two wires, t above b.  Its
    positions in ``exit_order`` and ``entry_order`` are its bundle's
    positions in the two columns, and ``slots`` fixes both ends of its
    wires: occurrence (i, j) at slot r and port p runs from variable i's
    ``t{r}``/``b{r}`` to clause j's ``t'{p}``/``b'{p}``."""

    formula: NaeFormula
    var_order: tuple[int, ...]     # bottom to top
    clause_order: tuple[int, ...]  # bottom to top
    exit_order: list               # occurrences (var, clause) bottom to top at the variables
    entry_order: list              # the same at the clauses
    slots: dict                    # (var, clause) -> (variable slot 1..4, clause port a/b/c)


@dataclass(frozen=True)
class ReductionArtifact:
    """The compiled instance and the provenance of each part of it.

    ``plan`` is the ``HBuild`` the instance was assembled from.  Crossing
    gadget k, k counted from 1, splices the bundles ``crossings[k - 1]``:
    the lower occurrence passes through its ports u1, u2 -> v1, v2 and the
    upper one through u1', u2' -> v1', v2'.  Its vertices start at
    ``vertex_info.start("crossing", k)``.

    ``gadget_edges`` maps each gadget (kind, k) to the global ids of its
    template's edges in local edge order, the int objects ``graph.inc``
    holds.  The restrictions the witness maps use are read through it and
    the S2 rings through the block layout of ``vertex_info`` (see
    ``VertexInfo``), so the artifact keeps no edge set and no table per
    vertex beyond the graph and its embedding.
    """

    formula: NaeFormula
    graph: Graph
    embedding: PlaneEmbedding
    vertex_info: VertexInfo
    connectors: tuple[tuple[int, int, int], ...]
    gadget_edges: dict
    plan: HBuild
    crossings: tuple  # (lower, upper) occurrence pair of each crossing gadget

    @property
    def q(self) -> int:
        """The number of crossing gadgets."""
        return len(self.crossings)

    def restriction(self, kind: str, k: int, t: int) -> EdgeSet:
        """Global edge set of restriction t of gadget (kind, k): a variable
        gadget's forced set (t = 1), a clause gadget's type t (1..3), or a
        crossing gadget's P1 or P2 (t = 1, 2)."""
        return frozenset(map(self.gadget_edges[(kind, k)].__getitem__,
                             _local_restrictions()[kind][t]))

    def s2(self, i: int) -> tuple[int, ...]:
        """Vertex ids of variable i's S2 ring."""
        base = self.vertex_info.start("variable", i)
        return tuple(base + lv for lv in _templates()[0].marks["S2"])


@lru_cache(maxsize=1)
def _templates() -> tuple[Gadget, Gadget, Gadget]:
    return build_variable_gadget(), build_clause_gadget(), build_crossing_gadget()


@lru_cache(maxsize=1)
def _rotation_readers() -> dict[str, tuple[tuple[int, ...], tuple]]:
    """Template kind -> (stubbed vertices, one itemgetter per vertex).

    A placed copy's row lists the global ids of the template's edges in
    local edge order, then one slot for each stubbed vertex, in the order
    given, holding that vertex's connector.  The k-th getter reads local
    vertex k's rotation out of that row, a stub from its vertex's slot.
    """
    readers = {}
    for t in _templates():
        stubbed = tuple(v for v, rot in enumerate(t.rotations) if STUB in rot)
        slot = {v: t.graph.m + k for k, v in enumerate(stubbed)}
        readers[t.kind] = (stubbed, tuple(
            itemgetter(*(slot[v] if le == STUB else le for le in rot))
            for v, rot in enumerate(t.rotations)))
    return readers


@lru_cache(maxsize=1)
def _local_restrictions() -> dict[str, dict[int, EdgeSet]]:
    """Template kind -> type -> restriction, in local edge ids, as
    ``census_types`` reads them from each template's checked census."""
    return {t.kind: census_types(t, enumerate_local_pmcs(t)) for t in _templates()}


def _validate(f: NaeFormula) -> None:
    f.validate_e4()
    if not f.clauses:
        raise ReductionError("the formula is empty: no clauses to reduce")
    if not incidence_graph(f).is_connected():
        raise ReductionError("incidence graph must be connected")
    cuts = variable_cutvertices(f)
    if cuts:
        raise ReductionError(f"variable cutvertices present: {cuts}; split first")


def _positions(order) -> dict:
    return {x: k for k, x in enumerate(order)}


def _channel_orders(f: NaeFormula, var_order, clause_order) -> tuple[list, list]:
    """Occurrences (var, clause) bottom to top at the variable column (exits)
    and at the clause column (entries): grouped by gadget in layout order, and
    inside a gadget in the other column's layout order."""
    pv, pc = _positions(var_order), _positions(clause_order)
    occ = [(i, j) for j, clause in enumerate(f.clauses, 1) for i in clause]
    exit_order = sorted(occ, key=lambda ij: (pv[ij[0]], pc[ij[1]]))
    entry_order = sorted(occ, key=lambda ij: (pc[ij[1]], pv[ij[0]]))
    return exit_order, entry_order


def _layout_order(f: NaeFormula) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Variable and clause orders, bottom to top, by barycenter sweeps.

    Starting from the index order (variables descending, clauses ascending),
    each sweep stably sorts the clauses by the mean position of their
    variables, then the variables by the mean position of their clauses
    (every clause has 3 variables and every variable 4 clauses, so sums order
    like means; ties keep the current position; Sugiyama, Tagawa & Toda
    1981, Eades & Wormald 1994).  The sweeps run until a pair of orders
    repeats, and that pair is the layout.  A sweep is a function of the pair
    it starts from, so some pair repeats after finitely many sweeps; on
    seeded formulas up to n = 48 the first repeat is always a fixed point,
    one that a further sweep leaves as it is.
    """
    var_order = list(range(f.n, 0, -1))
    clause_order = list(range(1, f.m + 1))
    clause_vars = dict(enumerate(f.clauses, 1))
    var_clauses = {i: f.occurrences(i) for i in var_order}
    seen = set()
    state = (tuple(var_order), tuple(clause_order))
    while state not in seen:
        seen.add(state)
        for layer, other, members in ((clause_order, var_order, clause_vars),
                                      (var_order, clause_order, var_clauses)):
            pos = _positions(other)
            layer.sort(key=lambda x: sum(pos[y] for y in members[x]))
        state = (tuple(var_order), tuple(clause_order))
    return state


def _slot_table(exit_order: list, entry_order: list) -> dict:
    """(var, clause) -> (variable-gadget slot 1..4, clause-gadget port a/b/c).

    Slots count a variable's four exits bottom to top, so they follow the
    clause layout order; a clause's three entries take ports c, b, a bottom
    to top, so the ports follow the variable layout order.
    """
    port = {ij: "cba"[k % 3] for k, ij in enumerate(entry_order)}
    return {ij: (k % 4 + 1, port[ij]) for k, ij in enumerate(exit_order)}


def build_h(f: NaeFormula) -> HBuild:
    """Plan H: layout and channel orders and gadget slots."""
    _validate(f)
    var_order, clause_order = _layout_order(f)
    exit_order, entry_order = _channel_orders(f, var_order, clause_order)
    slots = _slot_table(exit_order, entry_order)
    return HBuild(f, var_order, clause_order, exit_order, entry_order, slots)


def wiring_events(tracks: list, target: dict | list) -> list[tuple]:
    """Bubble the bottom-to-top track order into target order.

    Each swap is one crossing of the two bundles involved, recorded as
    (lower, upper) with the lower bundle moving up.  Only an inverted pair
    swaps, and it is in order afterwards, so a pair swaps at most once and the
    number of events equals the inversion count.
    """
    tracks = list(tracks)
    events: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for pos in range(len(tracks) - 1):
            lo, hi = tracks[pos], tracks[pos + 1]
            if target[lo] > target[hi]:
                events.append((lo, hi))
                tracks[pos], tracks[pos + 1] = hi, lo
                changed = True
    return events


def layout(hb: HBuild) -> tuple:
    """Route the bundles from exit to entry order as a wiring diagram; each
    swap is one crossing, a (lower, upper) pair of occurrences, in router
    order."""
    crossings = tuple(wiring_events(hb.exit_order, _positions(hb.entry_order)))
    for (i1, j1), (i2, j2) in crossings:
        if i1 == i2 or j1 == j2:
            raise RuntimeError("bundles of a shared gadget may not cross")
    return crossings


@_without_gc
def planarize(hb: HBuild, crossings: tuple) -> ReductionArtifact:
    """Splice a crossing gadget into each swap and certify the embedding.

    Every edge, template edge or connector, is listed once, and one sort of
    that list gives the graph its edge order: an edge's global id is its
    rank in the sort, and no edge is looked up in the graph for its id.
    """
    f = hb.formula
    vg, cg, xg = _templates()
    n, m = f.n, f.m
    q = len(crossings)
    vertex_info = VertexInfo((n, m, q))
    # (kind, k) -> (template, first vertex id) for every gadget
    placed = {(t.kind, k): (t, vertex_info.start(t.kind, k))
              for t, count in zip((vg, cg, xg), (n, m, q)) for k in range(1, count + 1)}

    # A wire runs from its variable slot to its clause port (hb.slots) and
    # through each crossing on its bundle, from the port it enters to that
    # port's partner; each hop between gadgets is one connector.
    events_of: dict[tuple, list[tuple[int, int]]] = {ij: [] for ij in hb.exit_order}
    for k, (lo, hi) in enumerate(crossings, 1):
        events_of[lo].append((k, 0))
        events_of[hi].append((k, 1))
    port_of = {
        (0, "b"): ("u1", "v1"), (0, "t"): ("u2", "v2"),
        (1, "b"): ("u1'", "v1'"), (1, "t"): ("u2'", "v2'"),
    }
    pairs = [(base + u, base + v) for t, base in placed.values() for u, v in t.graph.edges]
    connector_vars: list[int] = []
    for (i, j), (r, p) in hb.slots.items():
        for sub in ("b", "t"):
            route = [placed[("variable", i)][1] + vg.names[f"{sub}{r}"]]
            for k, role in events_of[(i, j)]:
                base = placed[("crossing", k)][1]
                pin, pout = port_of[(role, sub)]
                route += [base + xg.names[pin], base + xg.names[pout]]
            route.append(placed[("clause", j)][1] + cg.names[f"{sub}'{p}"])
            for k in range(0, len(route), 2):
                u, v = route[k], route[k + 1]
                pairs.append((min(u, v), max(u, v)))
            connector_vars += [i] * (len(route) // 2)

    # Graph numbers its edges in the order given, so the sort fixes every
    # edge id: pairs[order[r]] becomes edge r.
    order = sorted(range(len(pairs)), key=pairs.__getitem__)
    g = Graph(len(vertex_info), map(pairs.__getitem__, order))
    if not is_cubic(g):
        raise RuntimeError("assembled graph is not cubic")
    if g.n != VARIABLE_SIZE * n + CLAUSE_SIZE * m + CROSSING_SIZE * q:
        raise RuntimeError("assembled graph failed the size law")

    # eid[i] is the id of pairs[i], its rank in the sort, read as the int
    # object g.inc holds, so the rotations and edge tables kept below share
    # g's ints instead of adding one per edge.
    eid = [0] * len(pairs)
    for row in g.inc:
        for e in row:
            eid[order[e]] = e
    del order, pairs

    # global index of each template edge, per placed gadget, in the order
    # pairs lists them: gadget after gadget, then the connectors, whose
    # ends are read from g so that they are g's ints too
    gadget_edges = {}
    start = 0
    for key, (t, _) in placed.items():
        gadget_edges[key] = tuple(eid[start:start + t.graph.m])
        start += t.graph.m
    connectors: list[tuple[int, int, int]] = []
    connector_at: dict[int, int] = {}
    for e, i in zip(eid[start:], connector_vars):
        u, v = g.edges[e]
        connectors.append((u, v, i))
        connector_at[u] = connector_at[v] = e
    del eid
    rotations: list[tuple[int, ...]] = [()] * g.n
    readers = _rotation_readers()
    for key, (template, base) in placed.items():
        stubbed, getters = readers[template.kind]
        row = gadget_edges[key] + tuple(connector_at[base + v] for v in stubbed)
        rotations[base:base + len(getters)] = [get(row) for get in getters]
    embedding = PlaneEmbedding(g, rotations)
    if not is_planar_embedding(g, embedding):
        raise RuntimeError("rotation system failed the Euler certification")

    return ReductionArtifact(
        formula=f,
        graph=g,
        embedding=embedding,
        vertex_info=vertex_info,
        connectors=tuple(sorted(connectors)),
        gadget_edges=gadget_edges,
        plan=hb,
        crossings=crossings,
    )


@_without_gc
def reduce_formula(f: NaeFormula) -> ReductionArtifact:
    """Full pipeline; deterministic for a fixed formula.

    The collector is paused for the whole pipeline, not just in planarize:
    at n = 30, build_h and layout would otherwise each start collections.
    """
    hb = build_h(f)
    return planarize(hb, layout(hb))


# --- provenance file ------------------------------------------------------------

def serialize_provenance(art: ReductionArtifact) -> str:
    lines = []
    for vid, (kind, idx, name) in enumerate(art.vertex_info):
        lines.append(f"vertex {vid} {kind} {idx} {name}")
    for u, v, i in art.connectors:
        lines.append(f"connector {u} {v} var {i}")
    for k, ((i1, j1), (i2, j2)) in enumerate(art.crossings, 1):
        lines.append(f"crossing {k} bundles {i1},{j1} {i2},{j2}")
    for i in range(1, art.formula.n + 1):
        lines.append(f"s2 {i} " + " ".join(map(str, art.s2(i))))
    return "\n".join(lines) + "\n"
