"""Undirected graphs with indexed edges, rotation-system embeddings, and cut machinery.

Everything here is immutable after construction and safe to share between
threads.  A ``Graph`` memoises answers in two slots: its connectivity, on
first use, and the cuts of the last two frozensets that ``cut_from_edge_set``
decided on it, so the several checks of a witness, and of a second one
checked between them, walk each once.  Each slot is written by one
assignment of answers that depend on the graph and the keys alone, so
threads racing on a slot store correct answers and readers never see half
of one.  Edge indices are stable: edge ``i`` is ``graph.edges[i]``.

The builders (``Graph``, ``PlaneEmbedding``, ``parse_graph``, and
``planarize`` and ``reduce_formula`` in ``pmcut.reduction``) pause the
cyclic garbage collector while they run, because its passes over the tables
they allocate find nothing to free.  The pause is process-wide: while one
thread builds, no thread's garbage cycles are collected, and a thread that
calls ``gc.disable()`` during another thread's build can find the collector
re-enabled when that build ends.

Darts.  Edge ``e`` carries two darts: dart ``2e`` leaves ``edges[e][0]`` and
dart ``2e + 1`` leaves ``edges[e][1]``, so dart ``d`` leaves
``edges[d >> 1][d & 1]`` and ``d ^ 1`` is its reverse.  A rotation system is
read as one permutation ``succ`` of the darts (Mohar & Thomassen, *Graphs on
Surfaces*, §3.2): for the dart ``d`` arriving at ``w`` along ``e``,
``succ[d]`` is the dart leaving ``w`` along the edge after ``e`` in
``rotations[w]``.  The cycles of ``succ`` are the face walks.

A ``PlaneEmbedding`` is validated and labelled with its faces once, when it
is built for one ``Graph`` object; its readers look the labels up.

3-connectivity reads the edge list alone, never an embedding, so plain edge
lists and embedded graphs get the same exact answer.
"""

from __future__ import annotations

import functools
import gc
import random
from array import array
from dataclasses import dataclass
from itertools import combinations
from typing import Container, Iterable, Optional

EdgeSet = frozenset  # of edge indices

#: Sentinel used in gadget-local rotations for a connector edge that does not
#: exist yet.  Never appears in a finished PlaneEmbedding.
STUB = -1


def _without_gc(build):
    """build, run with the cyclic garbage collector paused if it is on.

    The builders wrapped allocate tens of thousands of tuples and lists that
    live on in what they return, so every pass of the collector during the
    build walks a heap of acyclic tables and frees nothing.  The collector
    is re-enabled in a finally, even when build raises; a call made while it
    is off (a nested build, or a caller that turned it off) leaves it alone.
    Never wrap a generator: the collector would stay paused across yields.
    """
    @functools.wraps(build)
    def call(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()
    return call


class Graph:
    """Simple undirected graph; vertices 0..n-1, edges indexed in list order.

    Two slots memoise answers about the graph, never part of its structure:
    ``_connected`` holds is_connected's answer once asked, and ``_cut`` the
    pairs (key, answer) of the last two frozensets that cut_from_edge_set
    decided, newest first, each answer a Cut or None.  Each slot is replaced
    by one assignment of one tuple, so a thread reads either the old pairs or
    the new ones, all correct.
    """

    __slots__ = ("n", "edges", "adj", "inc", "_eid", "_connected", "_cut")

    @_without_gc
    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        self.n = n
        eid: dict[tuple[int, int], int] = {}
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u > v:
                u, v = v, u
            if (u, v) in eid:
                raise ValueError(f"parallel edge ({u},{v})")
            eid[(u, v)] = len(eid)
        self.edges: tuple[tuple[int, int], ...] = tuple(eid)
        self._eid = eid
        self._connected: Optional[bool] = None
        self._cut: tuple[tuple[frozenset, Optional[Cut]], ...] = ()
        # Walking the edges in lexicographic order lists each vertex's smaller
        # neighbours and then its larger ones, each ascending, so adj comes
        # out sorted.  One global sort gives that order; on input already in
        # it (planarize and parse_graph) the sort is a single linear pass.
        order = sorted(range(len(eid)), key=self.edges.__getitem__)
        adj: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[int]] = [[] for _ in range(n)]
        for i in order:
            u, v = self.edges[i]
            adj[u].append(v)
            adj[v].append(u)
            inc[u].append(i)
            inc[v].append(i)
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self.inc: tuple[tuple[int, ...], ...] = tuple(map(tuple, inc))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edge_id(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self._eid[(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._eid

    def is_connected(self) -> bool:
        if self._connected is None:
            self._connected = len(connected_components(self)) <= 1
        return self._connected

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Cut:
    """Vertex bipartition; sides[v] is 0 (side A) or 1 (side B)."""

    sides: tuple[int, ...]

    def side_a(self) -> tuple[int, ...]:
        return tuple(v for v, s in enumerate(self.sides) if s == 0)


class PlaneEmbedding:
    """Rotation system of the Graph object ``graph``: ``rotations[v]`` is the
    clockwise cyclic order of the edges at ``v``.

    The constructor raises ValueError unless each rotation permutes its
    vertex's edges, then walks the cycles of ``succ`` once, in the order of
    ``face_darts``: ``face[d]`` is the face of dart ``d`` and ``walk`` lists
    the darts face after face, both 32-bit arrays that callers must not
    change.  Functions given an embedding and another graph raise ValueError.
    """

    __slots__ = ("graph", "rotations", "face", "walk", "face_count")

    @_without_gc
    def __init__(self, g: Graph, rotations: Iterable[Iterable[int]]):
        rotations = tuple(map(tuple, rotations))
        succ, order = _dart_successors(g, rotations)
        face = array("i", [-1]) * len(succ)
        walk = array("i")
        f = 0
        for d in order:
            if face[d] >= 0:
                continue
            while face[d] < 0:
                face[d] = f
                walk.append(d)
                d = succ[d]
            f += 1
        self.graph = g
        self.rotations = rotations
        self.face = face
        self.walk = walk
        self.face_count = f


def _own(g: Graph, emb: PlaneEmbedding) -> PlaneEmbedding:
    """emb, after checking that it was built for the Graph object g."""
    if emb.graph is not g:
        raise ValueError("the embedding was built for another Graph object")
    return emb


def _dart_successors(g: Graph, rotations: tuple) -> tuple[list[int], list[int]]:
    """The dart permutation ``succ`` of the rotation system (see the module
    docstring), and every dart in rotation order: vertex by vertex, the darts
    leaving it along its rotation.

    One pass builds and validates it: each rotation has deg(v) entries, each
    entry is an edge at v, and no dart is filled twice, so each rotation
    permutes its vertex's edges.  Raises ValueError otherwise.
    """
    if len(rotations) != g.n:
        raise ValueError("rotation count differs from vertex count")
    edges, inc = g.edges, g.inc
    m = len(edges)
    succ = [-1] * (2 * m)
    order: list[int] = []
    for w, rot in enumerate(rotations):
        if len(rot) != len(inc[w]):
            raise _not_a_permutation(w)
        out = []
        for e in rot:
            if not 0 <= e < m:
                raise _not_a_permutation(w)
            a, b = edges[e]
            if a == w:
                out.append(2 * e)
            elif b == w:
                out.append(2 * e + 1)
            else:
                raise _not_a_permutation(w)
        if out:
            prev = out[-1]
            for d in out:
                if succ[prev ^ 1] != -1:
                    raise _not_a_permutation(w)
                succ[prev ^ 1] = d
                prev = d
            order += out
    return succ, order


def _not_a_permutation(v: int) -> ValueError:
    return ValueError(f"rotation at vertex {v} is not a permutation of its incident edges")


def is_cubic(g: Graph) -> bool:
    return all(len(a) == 3 for a in g.adj)


def connected_components(g: Graph, skip: int = -1) -> list[list[int]]:
    """Vertex lists of the components of g minus vertex ``skip``, ordered by
    their smallest vertex, each list in search order."""
    seen = [False] * g.n
    if skip >= 0:
        seen[skip] = True
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for a in comp:
            for b in g.adj[a]:
                if not seen[b]:
                    seen[b] = True
                    comp.append(b)
        comps.append(comp)
    return comps


def _parity_sides(g: Graph, flip: Container[int]) -> Optional[Cut]:
    """Sides from a walk over every component, each started on side 0: an
    edge in ``flip`` changes side and any other edge keeps it.  None when
    some edge contradicts the sides already given."""
    sides = [-1] * g.n
    for s in range(g.n):
        if sides[s] != -1:
            continue
        sides[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w, e in zip(g.adj[v], g.inc[v]):
                want = sides[v] ^ (e in flip)
                if sides[w] == -1:
                    sides[w] = want
                    stack.append(w)
                elif sides[w] != want:
                    return None
    return Cut(tuple(sides))


def is_bipartite(g: Graph) -> Optional[Cut]:
    """2-coloring of g as a Cut, or None if an odd cycle exists."""
    return _parity_sides(g, range(g.m))


def face_darts(g: Graph, emb: PlaneEmbedding) -> list[list[tuple[int, int]]]:
    """Face walks of the rotation system, each as a list of darts (vertex, edge).

    A dart is an edge leaving a vertex; every dart is used by exactly one
    walk, so the walk lengths sum to 2*E.  Each walk follows the dart
    successor table of the module docstring: from a dart into w along e, the
    next dart leaves w along the edge after e in w's rotation.  Walks start
    at the first unused dart in rotation order (vertex 0's rotation first).
    """
    face = _own(g, emb).face
    edges = g.edges
    faces: list[list[tuple[int, int]]] = [[] for _ in range(emb.face_count)]
    for d in emb.walk:
        faces[face[d]].append((edges[d >> 1][d & 1], d >> 1))
    return faces


def is_planar_embedding(g: Graph, emb: PlaneEmbedding) -> bool:
    """Euler check V - E + F = 2. Requires a connected graph.

    F counts the faces of the rotation system; a lone vertex has no darts
    and one face.
    """
    _own(g, emb)
    if not g.is_connected():
        raise ValueError("is_planar_embedding requires a connected graph")
    return g.n - g.m + max(emb.face_count, 1) == 2


def _in_edge_range(g: Graph, ids) -> bool:
    """True iff every id of the non-empty collection ids is in 0..m-1."""
    return min(ids) >= 0 and max(ids) < len(g.edges)


def is_perfect_matching(g: Graph, m: Iterable[int]) -> bool:
    """True iff m lists edge ids of g that cover every vertex exactly once;
    an id outside 0..m-1 makes it False."""
    ids = list(m)
    if ids and not _in_edge_range(g, ids):
        return False
    ends = [x for e in ids for x in g.edges[e]]
    return len(ends) == g.n and len(set(ends)) == g.n


def cut_from_edge_set(g: Graph, m: Iterable[int]) -> Optional[Cut]:
    """The cut whose cutset is m, or None if m is not a cutset.

    Parity BFS: crossing an edge of m flips side, any other edge keeps it.
    The empty set is rejected (a cut must be proper), and so is a set with
    an id outside 0..m-1, which names no edge.  The answer for a frozenset
    is kept on g, in its ``_cut`` slot (see Graph), so asking again about
    either of the last two frozensets decided reads the slot instead of
    walking: a witness checked by find_pmc, the witness map and the lemma
    oracles is walked once, even when another witness is checked between
    them.  Any other iterable is answered but not stored.
    """
    if not g.is_connected():
        raise ValueError("cut_from_edge_set requires a connected graph")
    key = m if isinstance(m, frozenset) else None
    if key is not None:
        memo = g._cut
        for k, cut in memo:
            if k is key or k == key:
                return cut
    mset = m if key is not None else set(m)
    if not mset or not _in_edge_range(g, mset):
        return None
    cut = _parity_sides(g, mset)
    if key is not None:
        g._cut = ((key, cut),) + memo[:1]
    return cut


# --- 3-connectivity -----------------------------------------------------------

def is_3_connected(g: Graph) -> bool:
    """True iff the cubic graph g has V >= 4 and no pair of vertices
    disconnects it.  Raises ValueError on non-cubic input.

    In a cubic graph vertex and edge connectivity coincide, so this asks for
    no bridge and no 2-edge-cut, and a bridge needs no test of its own: the
    other two edges at one of its ends form a 2-edge-cut.  Each non-tree
    edge of a BFS spanning tree gets a random 64-bit label, and a tree edge
    the XOR of the non-tree edges whose tree cycles contain it; any rooted
    spanning tree would do.  Every cycle meets a cutset in an even number of
    edges, so the labels of a cutset XOR to 0: the two edges of a 2-edge-cut
    have equal labels.  Distinct labels therefore mean yes.  Otherwise each
    pair of edges with equal labels is tried as a cutset by the parity walk,
    and the answer is no only if one is.  The answer is exact; only the
    running time depends on the (deterministic) seed.
    """
    if not is_cubic(g):
        raise ValueError("is_3_connected takes cubic graphs only")
    if g.n < 4 or not g.is_connected():
        return False
    rng = random.Random(0x3EC0 ^ (g.n << 16) ^ g.m)
    parent = [-1] * g.n
    parent_edge = [-1] * g.n
    seen = bytearray(g.n)
    seen[0] = 1
    acc = [0] * g.n
    label = [0] * g.m
    visited_order = [0]
    for v in visited_order:  # grows as it is read: a BFS queue
        for e, w in zip(g.inc[v], g.adj[v]):
            if not seen[w]:
                seen[w] = 1
                parent[w] = v
                parent_edge[w] = e
                visited_order.append(w)
    for e, (u, v) in enumerate(g.edges):
        if parent_edge[u] == e or parent_edge[v] == e:
            continue  # tree edge
        r = rng.getrandbits(64)
        label[e] = r
        acc[u] ^= r
        acc[v] ^= r
    for v in reversed(visited_order):
        pe = parent_edge[v]
        if pe == -1:
            continue
        label[pe] = acc[v]
        acc[parent[v]] ^= acc[v]
    if len(set(label)) == g.m:
        return True
    groups: dict[int, list[int]] = {}
    for e, x in enumerate(label):
        groups.setdefault(x, []).append(e)
    return all(_parity_sides(g, pair) is None
               for es in groups.values() for pair in combinations(es, 2))


# --- file formats -------------------------------------------------------------

def _data_lines(text: str) -> list[str]:
    """Stripped lines of a graph, matching or cut file, without blank lines
    and '#' comments (which may be indented)."""
    return [s for ln in text.splitlines() if (s := ln.strip()) and s[0] != "#"]


def serialize_graph(g: Graph, emb: Optional[PlaneEmbedding] = None) -> str:
    """Graph file: header, lex-sorted edge lines, optional embedding block.

    Edge indices in the embedding block refer to the (sorted) file order.
    """
    # Each block is joined as soon as it is built, and order is dropped before
    # the rotation lines are built, so that one block's lines at most are
    # alive at once.  A list of every line would take ten times the file's
    # size: 1.8 MB traced for the 0.17 MB file of AG(2,3)'s reduction, where
    # this takes 0.9 MB.
    order = sorted(range(g.m), key=g.edges.__getitem__)
    blocks = [f"graph {g.n} {g.m}\n",
              "".join([f"{u} {v}\n" for u, v in map(g.edges.__getitem__, order)])]
    if emb is not None:
        _own(g, emb)
        label = [""] * g.m  # edge index -> its index in the file, as text
        for new, old in enumerate(order):
            label[old] = str(new)
        del order
        blocks.append("embedding\n")
        blocks.append("".join([f"rot {v} {len(rot)} {' '.join(map(label.__getitem__, rot))}\n"
                               for v, rot in enumerate(emb.rotations)]))
    return "".join(blocks)


@_without_gc
def parse_graph(text: str) -> tuple[Graph, Optional[PlaneEmbedding]]:
    """Graph and optional embedding of a graph file; ValueError on bad input.

    A header with V > 2E is refused before anything is allocated: such a
    graph has an isolated vertex.  With V <= 2E, and a short file refused as
    truncated, the memory used stays proportional to the file's size.
    """
    lines = _data_lines(text)
    if not lines or not lines[0].startswith("graph "):
        raise ValueError("graph file must start with 'graph <V> <E>'")
    try:
        _, ns, ms = lines[0].split()
        n, m = int(ns), int(ms)
    except ValueError:
        raise ValueError(f"header {lines[0]!r} must be 'graph <V> <E>'") from None
    if n < 0 or m < 0:
        raise ValueError(f"negative count in header {lines[0]!r}")
    if n > 2 * m:
        raise ValueError(f"header {lines[0]!r} has V > 2E, so a vertex is isolated")
    try:
        edges = [(int(u), int(v)) for u, v in map(str.split, lines[1:1 + m])]
    except ValueError:
        for ln in lines[1:1 + m]:
            try:
                u, v = map(int, ln.split())
            except ValueError:
                raise ValueError(f"edge line {ln!r} must be '<u> <v>'") from None
        raise
    if len(edges) != m:
        raise ValueError("graph file truncated")
    g = Graph(n, edges)
    rest = lines[1 + m:]
    if not rest:
        return g, None
    if rest[0] != "embedding":
        raise ValueError(f"unexpected line {rest[0]!r}")
    rotations: dict[int, tuple[int, ...]] = {}
    for ln in rest[1:]:
        parts = ln.split()
        if parts[0] != "rot":
            raise ValueError(f"unexpected line {ln!r}")
        if len(parts) < 3:
            raise ValueError(f"rotation line {ln!r} needs 'rot <v> <degree> ...'")
        try:
            v, d = int(parts[1]), int(parts[2])
            rot = tuple(map(int, parts[3:]))
        except ValueError:
            raise ValueError(f"rotation line {ln!r} must hold integers") from None
        if not 0 <= v < n:
            raise ValueError(f"rotation vertex {v} out of range")
        if v in rotations:
            raise ValueError(f"rotation of vertex {v} listed twice")
        if len(rot) != d:
            raise ValueError(f"rotation degree mismatch at vertex {v}")
        rotations[v] = rot
    return g, PlaneEmbedding(g, (rotations.get(v, ()) for v in range(n)))


def serialize_matching(g: Graph, m: Iterable[int]) -> str:
    pairs = sorted(g.edges[e] for e in m)
    lines = [f"matching {len(pairs)}"] + [f"{u} {v}" for u, v in pairs]
    return "\n".join(lines) + "\n"


def parse_matching(text: str, g: Graph) -> EdgeSet:
    """Edge set of a matching file: 'matching <k>', then k lines 'u v', each
    an edge of g and none listed twice.  Raises ValueError otherwise."""
    lines = _data_lines(text)
    if not lines or not lines[0].startswith("matching "):
        raise ValueError("matching file must start with 'matching <k>'")
    try:
        _, ks = lines[0].split()
        k = int(ks)
    except ValueError:
        raise ValueError(f"header {lines[0]!r} must be 'matching <k>'") from None
    out = set()
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ValueError(f"matching line {ln!r} must be '<u> <v>'") from None
        if not g.has_edge(u, v):
            raise ValueError(f"matching pair {u} {v} is not an edge")
        e = g.edge_id(u, v)
        if e in out:
            raise ValueError(f"matching pair {u} {v} listed twice")
        out.add(e)
    if len(out) != k:
        raise ValueError(f"matching file lists {len(out)} pairs, its header says {k}")
    return frozenset(out)


def serialize_cut(cut: Cut) -> str:
    a = cut.side_a()
    lines = [f"cut {len(a)}"] + [str(v) for v in a]
    return "\n".join(lines) + "\n"


def parse_cut(text: str, n: int) -> Cut:
    """Cut of a cut file: 'cut <k>', then the k vertices of side A, one a
    line, each in 0..n-1 and none listed twice.  Raises ValueError otherwise."""
    lines = _data_lines(text)
    if not lines or not lines[0].startswith("cut "):
        raise ValueError("cut file must start with 'cut <|A|>'")
    try:
        _, ks = lines[0].split()
        k = int(ks)
    except ValueError:
        raise ValueError(f"header {lines[0]!r} must be 'cut <|A|>'") from None
    a = set()
    for ln in lines[1:]:
        try:
            v = int(ln)
        except ValueError:
            raise ValueError(f"cut line {ln!r} must be one vertex") from None
        if not 0 <= v < n:
            raise ValueError(f"cut vertex {v} out of range")
        if v in a:
            raise ValueError(f"cut vertex {v} listed twice")
        a.add(v)
    if len(a) != k:
        raise ValueError(f"cut file lists {len(a)} vertices, its header says {k}")
    return Cut(tuple(0 if v in a else 1 for v in range(n)))


# --- example graphs -----------------------------------------------------------

def cube_graph() -> Graph:
    """Q3 with vertices 0..3 on the bottom face and 4..7 above them."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3),
             (4, 5), (5, 6), (6, 7), (4, 7),
             (0, 4), (1, 5), (2, 6), (3, 7)]
    return Graph(8, edges)


def random_cubic_graph(n: int, rng: random.Random) -> Graph:
    """Random connected simple cubic graph on n vertices (n even) by pairing."""
    if n % 2 or n < 4:
        raise ValueError("cubic graphs need an even vertex count >= 4")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = [(points[i], points[i + 1]) for i in range(0, len(points), 2)]
        try:
            g = Graph(n, pairs)
        except ValueError:  # a loop or a parallel pair
            continue
        if g.is_connected():
            return g
