"""Exhaustive catalog of connected cubic graphs up to isomorphism.

Level n is generated from level n-2 by subdividing two distinct edges and
joining the subdivision vertices, from level n-4 by replacing an edge with a
diamond (K4 minus an edge), and from pairs of smaller levels by a bridge
join (subdivide one edge in each part, connect the subdivision vertices;
every cubic graph with a bridge splits this way).  Duplicates are removed
with a canonical form computed by colour refinement plus individualisation.
Completeness of the operation set is enforced by the known class counts
(1, 2, 5, 19, 85, 509, 4060 for 4..16 vertices), which the tests assert.
"""

from __future__ import annotations

from functools import lru_cache

from pmcut.graphs import Graph

KNOWN_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509, 16: 4060}


def _refine(n: int, adj: list[tuple[int, ...]], colors: list[int]) -> list[int]:
    """Colour refinement to the coarsest stable partition, relabelled 0..k-1
    in the order of the (colour, neighbour colours) keys.  Each key holds the
    vertex's colour, so a round only splits classes; a round that leaves their
    number unchanged leaves the partition as it was, and it is stable."""
    classes = len(set(colors))
    while True:
        keys = [(colors[v], tuple(sorted(map(colors.__getitem__, adj[v])))) for v in range(n)]
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [order[k] for k in keys]
        if len(order) == classes:
            return new
        colors, classes = new, len(order)


def _distance_profile(n: int, adj: list[tuple[int, ...]]) -> list[int]:
    """Initial colouring that splits regular graphs: per-vertex sorted BFS
    distance multiset plus local triangle count."""
    profiles = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if dist[w] == -1:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        tri = 0
        nbrs = adj[s]
        for i in range(len(nbrs)):
            for k in range(i + 1, len(nbrs)):
                if nbrs[k] in adj[nbrs[i]]:
                    tri += 1
        profiles.append((tri, tuple(sorted(dist))))
    order = {p: i for i, p in enumerate(sorted(set(profiles)))}
    return [order[p] for p in profiles]


def _certificate(n: int, adj: list[tuple[int, ...]], colors: list[int]) -> bytes:
    pos = [0] * n
    for rank, v in enumerate(sorted(range(n), key=colors.__getitem__)):
        pos[v] = rank
    bits = bytearray((n * (n - 1) // 2 + 7) // 8)
    for v in range(n):
        pv = pos[v]
        for w in adj[v]:
            pw = pos[w]
            if pv < pw:
                idx = pv * (2 * n - pv - 1) // 2 + (pw - pv - 1)
                bits[idx >> 3] |= 1 << (idx & 7)
    return bytes(bits)


def canonical_form(g: Graph) -> bytes:
    """Least certificate over the individualisation-refinement tree."""
    n = g.n
    adj = [tuple(a) for a in g.adj]
    best: list[bytes | None] = [None]

    def descend(colors: list[int]) -> None:
        colors = _refine(n, adj, colors)
        counts: dict[int, list[int]] = {}
        for v in range(n):
            counts.setdefault(colors[v], []).append(v)
        cell = next((vs for _, vs in sorted(counts.items()) if len(vs) > 1), None)
        if cell is None:
            cert = _certificate(n, adj, colors)
            if best[0] is None or cert < best[0]:
                best[0] = cert
            return
        for v in cell:
            child = [2 * c for c in colors]
            child[v] -= 1
            descend(child)

    descend(_distance_profile(n, adj))
    return best[0]


def _edge_pair_expansions(g: Graph) -> list[Graph]:
    out = []
    n = g.n
    for e1 in range(g.m):
        for e2 in range(e1 + 1, g.m):
            a, b = g.edges[e1]
            c, d = g.edges[e2]
            x, y = n, n + 1
            edges = [g.edges[k] for k in range(g.m) if k not in (e1, e2)]
            edges += [(a, x), (x, b), (c, y), (y, d), (x, y)]
            out.append(Graph(n + 2, edges))
    return out


def _diamond_expansions(g: Graph) -> list[Graph]:
    out = []
    n = g.n
    x, p, q, y = n, n + 1, n + 2, n + 3
    for e in range(g.m):
        u, v = g.edges[e]
        edges = [g.edges[k] for k in range(g.m) if k != e]
        edges += [(u, x), (x, p), (x, q), (p, q), (p, y), (q, y), (y, v)]
        out.append(Graph(n + 4, edges))
    return out


def _bridge_joins(g1: Graph, g2: Graph) -> list[Graph]:
    out = []
    n1 = g1.n
    for e1 in range(g1.m):
        a, b = g1.edges[e1]
        for e2 in range(g2.m):
            c, d = g2.edges[e2]
            x, y = n1 + g2.n, n1 + g2.n + 1
            edges = [g1.edges[k] for k in range(g1.m) if k != e1]
            edges += [(n1 + u, n1 + v) for k, (u, v) in enumerate(g2.edges) if k != e2]
            edges += [(a, x), (x, b), (n1 + c, y), (y, n1 + d), (x, y)]
            out.append(Graph(n1 + g2.n + 2, edges))
    return out


@lru_cache(maxsize=None)
def connected_cubic_catalog(max_vertices: int) -> tuple[tuple[Graph, ...], ...]:
    """Levels (n=4, 6, ...) of pairwise non-isomorphic connected cubic graphs.

    Each call extends the cached catalog two vertices smaller by one level,
    so catalogs of different sizes share their levels."""
    if max_vertices < 6:
        return ((Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),),)
    levels = list(connected_cubic_catalog(max_vertices - 2))
    n = 2 + 2 * len(levels)
    candidates = [h for g in levels[-1] for h in _edge_pair_expansions(g)]
    if len(levels) >= 2:
        candidates += [h for g in levels[-2] for h in _diamond_expansions(g)]
    for i1 in range(len(levels)):
        n1 = 4 + 2 * i1
        n2 = (n + 2) - 2 - n1
        if n2 < n1:
            break
        i2 = (n2 - 4) // 2
        if i2 >= len(levels):
            continue
        for g1 in levels[i1]:
            for g2 in levels[i2]:
                candidates += _bridge_joins(g1, g2)
    seen: dict[bytes, Graph] = {}
    for h in candidates:
        key = canonical_form(h)
        if key not in seen:
            seen[key] = h
    levels.append(tuple(seen[k] for k in sorted(seen)))
    return tuple(levels)
