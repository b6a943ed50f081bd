"""Undirected graphs with indexed edges, rotation-system embeddings, and cut machinery.

Everything here is immutable after construction and safe to share between
threads.  A ``Graph`` memoises answers in two slots: its connectivity, on
first use, and the cuts of the last two frozensets that ``cut_from_edge_set``
decided on it, so the several checks of a witness, and of a second one
checked between them, walk each once.  Each slot is written by one
assignment of answers that depend on the graph and the keys alone, so
threads racing on a slot store correct answers and readers never see half
of one.  Edge indices are stable: edge ``i`` is ``graph.edges[i]``, and
``edge_id`` finds it by bisecting the sorted ``adj``, with no pair table.

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

A ``PlaneEmbedding`` is validated, and its faces counted, once, when it is
built for one ``Graph`` object: the Euler check reads the count.  No dart
keeps a face label; ``face_darts`` rebuilds ``succ`` and walks the faces
whenever it is called.

3-connectivity reads the edge list alone, never an embedding, so plain edge
lists and embedded graphs get the same exact answer.
"""

from __future__ import annotations

import functools
import gc
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, filterfalse, islice, repeat
from typing import Container, Iterable, Optional

EdgeSet = frozenset  # of edge indices


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
    """Simple undirected graph; vertices 0..n-1, edges indexed in list order:
    ``edges[i]`` is edge i's ends (u, v) with u < v, ``adj[v]`` lists v's
    neighbours ascending and ``inc[v][k]`` is the edge from v to adj[v][k].
    Each vertex id is one int object, which ``edges`` and ``adj`` share
    however the input pairs were made.

    Two slots memoise answers about the graph, never part of its structure:
    ``_connected`` holds is_connected's answer once asked, and ``_cut`` the
    pairs (key, answer) of the last two frozensets that cut_from_edge_set
    decided, newest first, each answer a Cut or None.  Each slot is replaced
    by one assignment of one tuple, so a thread reads either the old pairs or
    the new ones, all correct.
    """

    __slots__ = ("n", "edges", "adj", "inc", "_connected", "_cut")

    @_without_gc
    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        self.n = n
        ids = list(range(n))  # ids[v] is vertex v's one int object
        pairs: list[tuple[int, int]] = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            pairs.append((ids[u], ids[v]) if u < v else (ids[v], ids[u]))
        del ids
        self.edges: tuple[tuple[int, int], ...] = tuple(pairs)
        del pairs
        self._connected: Optional[bool] = None
        self._cut: tuple[tuple[frozenset, Optional[Cut]], ...] = ()
        # Walking the edges in lexicographic order lists each vertex's smaller
        # neighbours and then its larger ones, each ascending, so adj comes
        # out sorted and a repeated pair lands next to its twin.  On input in
        # that order (planarize, parse_graph) the sort is one linear pass.
        edges = self.edges
        order = sorted(range(len(edges)), key=edges.__getitem__)
        adj: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[int]] = [[] for _ in range(n)]
        last = None
        for i in order:
            if edges[i] == last:
                raise ValueError(f"parallel edge ({last[0]},{last[1]})")
            u, v = last = edges[i]
            adj[u].append(v)
            adj[v].append(u)
            inc[u].append(i)
            inc[v].append(i)
        # Each row becomes a tuple in place, which frees its list, so that no
        # table is held as lists and as tuples at once.
        del order
        for v in range(n):
            adj[v] = tuple(adj[v])
            inc[v] = tuple(inc[v])
        self.adj: tuple[tuple[int, ...], ...] = tuple(adj)
        self.inc: tuple[tuple[int, ...], ...] = tuple(inc)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edge_id(self, u: int, v: int) -> int:
        """Index of edge {u, v}, bisected from adj[u]; KeyError if there is none."""
        if 0 <= u < self.n:
            row = self.adj[u]
            k = bisect_left(row, v)
            if k < len(row) and row[k] == v:
                return self.inc[u][k]
        raise KeyError((u, v))

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
    vertex's edges, then counts the cycles of ``succ``, the faces, into
    ``face_count``; the Euler check needs nothing more, so no dart table
    outlives it.  ``face_darts`` walks the faces again when they are asked
    for.  Functions given an embedding and another graph raise ValueError.
    """

    __slots__ = ("graph", "rotations", "face_count")

    @_without_gc
    def __init__(self, g: Graph, rotations: Iterable[Iterable[int]]):
        rotations = tuple(map(tuple, rotations))
        succ = _dart_successors(g, rotations)
        seen = bytearray(len(succ))
        f = 0
        for d in range(len(succ)):
            if not seen[d]:
                f += 1
                while not seen[d]:
                    seen[d] = 1
                    d = succ[d]
        self.graph = g
        self.rotations = rotations
        self.face_count = f


def _own(g: Graph, emb: PlaneEmbedding) -> PlaneEmbedding:
    """emb, after checking that it was built for the Graph object g."""
    if emb.graph is not g:
        raise ValueError("the embedding was built for another Graph object")
    return emb


def _dart_successors(g: Graph, rotations: tuple) -> array:
    """The dart permutation ``succ`` of the rotation system (see the module
    docstring), as an array of machine ints: 4 bytes a dart, where a list
    would also hold an int object for nearly every dart.

    One pass builds and validates it: each rotation has deg(v) entries, each
    entry is an edge at v, and no dart is filled twice, so each rotation
    permutes its vertex's edges.  Raises ValueError otherwise.
    """
    if len(rotations) != g.n:
        raise ValueError("rotation count differs from vertex count")
    edges, inc = g.edges, g.inc
    m = len(edges)
    succ = array("i", [-1]) * (2 * m)
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
    return succ


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
    The embedding keeps no dart table, so each call rebuilds ``succ``.
    """
    succ = _dart_successors(g, _own(g, emb).rotations)
    edges = g.edges
    seen = bytearray(len(succ))
    faces: list[list[tuple[int, int]]] = []
    for w, rot in enumerate(emb.rotations):
        for e in rot:
            d = 2 * e + (edges[e][0] != w)  # the dart leaving w along e
            if seen[d]:
                continue
            walk = []
            while not seen[d]:
                seen[d] = 1
                walk.append((edges[d >> 1][d & 1], d >> 1))
                d = succ[d]
            faces.append(walk)
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
    edge of a BFS spanning tree gets a random 60-bit label, and a tree edge
    the XOR of the non-tree edges whose tree cycles contain it; any rooted
    spanning tree would do.  Every cycle meets a cutset in an even number of
    edges, so the labels of a cutset XOR to 0: the two edges of a 2-edge-cut
    have equal labels.  Distinct labels therefore mean yes.  Otherwise each
    pair of edges with equal labels is tried as a cutset by the parity walk,
    and the answer is no only if one is.  The answer is exact; only the
    running time depends on the (deterministic) seed.

    The odd and the even labels are checked for repeats in two sets built
    one after the other, so no set holds more than about half of them.  A
    60-bit label is a two-digit int, 32 bytes, where a 64-bit one takes 48
    in the allocator.
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
        r = rng.getrandbits(60)
        label[e] = r
        acc[u] ^= r
        acc[v] ^= r
    for v in reversed(visited_order):
        pe = parent_edge[v]
        if pe == -1:
            continue
        label[pe] = acc[v]
        acc[parent[v]] ^= acc[v]
    del parent, parent_edge, acc, visited_order, seen  # before the label sets
    odd = (1).__and__
    if len(set(filter(odd, label))) + len(set(filterfalse(odd, label))) == g.m:
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

    It holds one copy of each table at a time.  Lines are popped off the end
    of the reversed line list, so each is freed once it is parsed; the edge
    lines go straight into ``Graph``, with no list of parsed pairs.  Each
    rotation entry is the int object that ``g.inc`` holds for its edge, not
    an int of its own.  So at its peak it holds the rotation lines and the
    graph under construction: 11.1 MB traced for the 1.1 MB file of the
    seeded n = 30 reduction, which keeps 9.4 MB.
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
    if len(lines) < 1 + m:
        raise ValueError("graph file truncated")
    lines.reverse()
    lines.pop()
    try:
        g = Graph(n, ((int(u), int(v)) for u, v in map(str.split, map(list.pop, repeat(lines, m)))))
    except ValueError:
        for ln in islice(_data_lines(text), 1, 1 + m):
            try:
                u, v = map(int, ln.split())
            except ValueError:
                raise ValueError(f"edge line {ln!r} must be '<u> <v>'") from None
        raise
    if not lines:
        return g, None
    if lines[-1] != "embedding":
        raise ValueError(f"unexpected line {lines[-1]!r}")
    lines.pop()
    ids = [0] * m  # ids[e] is the int object that g.inc holds for edge e
    for row in g.inc:
        for e in row:
            ids[e] = e
    rotations: list[Optional[tuple[int, ...]]] = [None] * n
    while lines:
        ln = lines.pop()
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
        if rotations[v] is not None:
            raise ValueError(f"rotation of vertex {v} listed twice")
        if len(rot) != d:
            raise ValueError(f"rotation degree mismatch at vertex {v}")
        # A line with a minus sign is kept as read, because ids[e] would
        # read a negative e from the end; so is an id >= m.  PlaneEmbedding
        # refuses both.
        if "-" not in ln:
            try:
                rot = tuple(map(ids.__getitem__, rot))
            except IndexError:
                pass
        rotations[v] = rot
    del ids
    return g, PlaneEmbedding(g, (r or () for r in rotations))


def serialize_matching(g: Graph, m: Iterable[int]) -> str:
    """Matching file of the edge ids m: 'matching <k>', then the k edges as
    lex-sorted 'u v' lines.  Raises ValueError for an id outside 0..m-1,
    which names no edge."""
    ids = list(m)
    if ids and not _in_edge_range(g, ids):
        raise ValueError(f"matching lists an edge id outside 0..{g.m - 1}")
    pairs = sorted(map(g.edges.__getitem__, ids))
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
        try:
            e = g.edge_id(u, v)
        except KeyError:
            raise ValueError(f"matching pair {u} {v} is not an edge") from None
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
