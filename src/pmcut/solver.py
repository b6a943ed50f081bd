"""Exact perfect-matching-cut search, witness mappings, and lemma oracles.

The complete solver interleaves two closures over a tri-state edge labelling
(undecided / in / out):

* matching closure: a matched vertex excludes its other edges, and a vertex
  with a single non-excluded edge left must use it;
* parity closure: vertices start in the classes of the vertex rows (each
  vertex has exactly one neighbour across the cut, one GF(2) equation each,
  solved once by _parity_classes), an in-edge makes its endpoints
  opposite-side, an out-edge makes them same-side, tracked by union-find with
  parity; once two adjacent vertices are related, the edge between them is
  decided.

These two rules subsume the published 4-cycle and 6-cycle propagation facts,
which are kept separately as oracles (`lemma_oracles`) and never hand-coded
into the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, TYPE_CHECKING

from .formula import nae_satisfies
from .graphs import EdgeSet, Graph, connected_components, cut_from_edge_set, is_perfect_matching

if TYPE_CHECKING:  # pragma: no cover
    from .reduction import ReductionArtifact

DEFAULT_BUDGET = 2_000_000
MAX_BRUTEFORCE_VERTICES = 24

_UNDEC, _IN, _OUT = 0, 1, 2


class BudgetExhausted(RuntimeError):
    """Search stopped because the node budget ran out: not a 'no' answer."""


def _parity_classes(g: Graph) -> Optional[tuple[list[int], bytearray]]:
    """Each vertex's key and side constant under the vertex rows, or None if
    no side vector satisfies them.

    A perfect matching cut has exactly one neighbour of each vertex v across,
    so its side vector s satisfies one row over GF(2) per vertex: the sum over
    v's neighbours x of s_v ^ s_x is 1.  Positions count down the BFS order of
    connected_components, and the rows are eliminated in ascending position,
    pivoting on their lowest position.  A row's vertices are BFS neighbours,
    so each echelon row spans a window of positions (185 on AG(2,3), 308 on
    the seeded n = 30 reduction), and it is stored as an int shifted down to
    its pivot, in a list indexed by position.  Back-substitution from the
    highest pivot down writes each vertex's side as a constant xor a sum of
    free variables; that sum, an int with one bit per free variable, is its
    key.  Two vertices with equal keys have the xor of their constants as
    their relative side in every solution; two with different keys have both
    relative sides.
    """
    n = g.n
    order = [v for comp in reversed(connected_components(g)) for v in reversed(comp)]
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    piv = [0] * n
    rhs = bytearray(n)
    for v in order:
        ps = [pos[x] for x in g.adj[v]]
        if len(ps) & 1:
            ps.append(pos[v])
        if not ps:
            return None  # 0 = 1
        base = min(ps)
        r = 0
        for p in ps:
            r ^= 1 << (p - base)
        c = 1
        while piv[base]:
            r ^= piv[base]
            c ^= rhs[base]
            if not r:
                if c:
                    return None
                break
            low = (r & -r).bit_length() - 1
            r >>= low
            base += low
        else:
            piv[base] = r
            rhs[base] = c
    key = [0] * n
    side = bytearray(n)
    free = 0
    for p in range(n - 1, -1, -1):
        r = piv[p]
        if not r:
            key[p] = 1 << free
            free += 1
            continue
        r >>= 1
        kp, c, q = 0, rhs[p], p + 1
        while r:
            low = (r & -r).bit_length() - 1
            q += low
            kp ^= key[q]
            c ^= side[q]
            r >>= low + 1
            q += 1
        key[p], side[p] = kp, c
    return [key[p] for p in pos], bytearray(side[p] for p in pos)


class _PmcSearch:
    """Backtracking with unit propagation; branches lowest edge first, In before Out.

    Parity is a weighted quick-find.  Every vertex v holds root[v], the root
    of its component, and par[v], its side relative to that root, so a find is
    one list index.  A component's size is the length of its vertex list
    comp_verts[r].  The constructor seeds the components with the classes of
    the vertex rows (_parity_classes), each rooted at its least vertex with
    side 0, and writes no trail entry for them; comp_verts holds () for every
    other vertex, which never becomes a root.  AG(2,3)'s 4356 vertices start
    in 1040 classes.

    A union of roots ru and rv whose list is no longer than ru's relabels
    rv's side, the list comp_verts[rv], into ru, XOR-ing each par with the
    union's flip bit; the flip bit stays readable as par[rv], since rv is on
    its own list with side 0.  ru's list grows by a copy of rv's, and rv
    keeps its own list intact: no union touches it while rv is not a root.
    So undoing the union relabels the last len(comp_verts[rv])
    entries of ru's list back to rv, flips them again and cuts them off.
    Each vertex is relabelled O(log n) times along one branch.

    A union fires two rules, both from one scan (_scan) over the small side's
    incidences, run before the relabel so that root[y] == ru means exactly
    "y was on the old big side":

    * closing edges: an undecided edge (w, x) with w on the small side is
      decided (In if its ends end up opposite-side, Out if same-side) when x
      is on the big side.  Every edge that the union puts inside one
      component joins the two old sides, so it is seen from its small-side
      end; edges already inside a component were decided when they got
      there.
    * related partners: an unmatched vertex x with two undecided edges
      e = (x, w) and f = (x, y) whose far ends w and y are in one component:
      if w and y are same-side, matching either would make them opposite, so
      e and f go out; if they are opposite-side, x must match one of them, so
      x's other undecided edges go out.  A union relates exactly the pairs
      with w on the small side and y on the big side; every other related
      pair was related by an earlier union, which fired the rule on it while
      e and f were already undecided and x unmatched, since assignments and
      unions are only ever undone together.  Once the rule has fired for e,
      e is Out or x keeps only e and f, so the scan moves to w's next edge.
      The rule runs only at x with rem[x] >= 3.  With two live edges, the
      step of the Out that lowered rem[x] to 2 runs pair parity at x, which
      relates w and y opposite itself, so the rule would decide nothing that
      pair parity does not; with one there is no pair.  The ends of an In
      edge count as matched during its union: the matching rule puts all
      their other edges Out anyway.

    No union fired the rules on the seeded classes, so _root_fixpoint runs
    the same scan on each class of two or more vertices, against the class's
    own root with flip 0: its closing edges are the edges inside the class,
    and its related pairs are the pairs inside it.  A singleton class has no
    closing edge and no related pair.

    A literal is decided when it is queued, as MiniSat's uncheckedEnqueue
    does (Eén & Sörensson, SAT 2003): its state and trail entry are written
    at once, an Out lowers rem at both ends, and an In sets the flag
    matched[v] at both ends, a conflict if either is matched already.  An In
    is only ever assigned with both ends unmatched, so undoing it clears both
    flags.  Both rules decide what they find as they scan, so an edge that
    one of them has decided is skipped by every later test of state.  One
    stack, queue, holds the decided literals whose steps are still to run:
    the parity step at the edge's ends (a union or a check), then the
    matching rule.  The caller's literals, what the scans decide and the
    matching rule's consequences all go on it, and each literal is pushed
    and popped at most once.  rem and matched count decided literals whose
    steps have not run yet, which only brings a consequence forward.  The
    loop runs until the stack is empty or a conflict shows, so the order of
    the pops changes neither the fixpoint nor whether there is a conflict;
    the node counts and witnesses pinned in the tests check that.  A
    conflict leaves the literals it did not reach on the stack, and _undo_to
    drops them with their assignments.  On AG(2,3) the whole refutation pops
    10.2k literals.  The loop tests roots itself and calls _union only to
    join two components.

    Edges and vertices are ints in flat tables, and the search builds no table
    of neighbours: each scan walks the graph's own incidence tuple inc[w] and
    reads the far end of an undecided edge e as xr[e] ^ w, where xr[e] is the
    xor of e's two ends; a popped literal reads its two ends from the graph's
    own edges tuple.  inc[w] lists w's edges in the order of adj[w], so a
    scan visits the incidences a per-vertex tuple of (edge, neighbour) pairs
    would list, in the same order.  One list of m ints takes the place of
    those tuples: on the seeded n = 30 reduction (23,992 vertices, 5347
    classes) the constructor leaves 128 bytes per vertex allocated on Python
    3.11, where the tuples took it to about 440.  The stack and the trail
    hold ints: a stacked e means e In, ~e means e Out; a trail entry e >= 0
    undoes the assignment of e, and ~rv undoes the union of root rv, whose big
    root is root[rv] and whose flip bit is par[rv].
    """

    def __init__(self, g: Graph):
        n = g.n
        self.edges = g.edges
        self.xr = [u ^ v for u, v in g.edges]
        self.inc = g.inc
        self.state = bytearray(g.m)
        self.matched = [False] * n
        self.rem = [len(es) for es in g.inc]
        self.root = root = list(range(n))
        self.par = par = [0] * n
        self.comp_verts = comp_verts = [()] * n
        classes = _parity_classes(g)
        self.consistent = classes is not None
        # rows with no solution leave one class per vertex; the root fixpoint
        # then answers no
        key, side = classes or (root, bytes(n))
        first: dict[int, int] = {}
        for v in range(n):
            r = first.setdefault(key[v], v)
            if r == v:
                comp_verts[v] = [v]
            else:
                root[v] = r
                par[v] = side[v] ^ side[r]
                comp_verts[r].append(v)
        self.trail: list[int] = []
        self.queue: list[int] = []
        self.nodes = 0

    def _union(self, u: int, v: int, parity: int) -> bool:
        """Join the components of u and v, which the caller has found to have
        different roots, with parity as u's side relative to v's."""
        root, par, comp_verts = self.root, self.par, self.comp_verts
        ru, rv = root[u], root[v]
        flip = par[u] ^ par[v] ^ parity
        if len(comp_verts[ru]) < len(comp_verts[rv]):
            ru, rv = rv, ru
        small = comp_verts[rv]
        if not self._scan(small, ru, flip):
            return False
        for w in small:
            root[w] = ru
            par[w] ^= flip
        comp_verts[ru] += small
        self.trail.append(~rv)
        return True

    def _scan(self, verts: list, ru: int, flip: int) -> bool:
        """Fire the closing-edge and related-partner rules for the vertices
        verts, with sides par[w] ^ flip, against the component of root ru;
        False on a conflict."""
        state, matched, inc, xr, rem = self.state, self.matched, self.inc, self.xr, self.rem
        root, par, trail, queue = self.root, self.par, self.trail, self.queue
        for w in verts:
            pw = par[w] ^ flip
            for e in inc[w]:
                if state[e]:
                    continue
                x = xr[e] ^ w
                if root[x] == ru:
                    if pw != par[x]:
                        if matched[w] or matched[x]:
                            return False
                        state[e] = _IN
                        matched[w] = matched[x] = True
                        queue.append(e)
                    else:
                        state[e] = _OUT
                        rem[w] -= 1
                        rem[x] -= 1
                        queue.append(~e)
                    trail.append(e)
                    continue  # x's edges into ru's component are decided
                if matched[x] or rem[x] < 3:
                    continue
                for f in inc[x]:
                    if f == e or state[f]:
                        continue
                    y = xr[f] ^ x
                    if root[y] != ru:
                        continue
                    if pw != par[y]:
                        for h in inc[x]:
                            if h != e and h != f and not state[h]:
                                state[h] = _OUT
                                rem[x] -= 1
                                rem[xr[h] ^ x] -= 1
                                trail.append(h)
                                queue.append(~h)
                    else:
                        state[e] = state[f] = _OUT
                        rem[x] -= 2
                        rem[w] -= 1
                        rem[y] -= 1
                        trail += e, f
                        queue += ~e, ~f
                    break
        return True

    def _propagate(self, lits: list) -> bool:
        """Decide the caller's literals, which are distinct and undecided, and
        run every step until the stack is empty; False on a conflict."""
        state, edges, inc, xr = self.state, self.edges, self.inc, self.xr
        matched, rem, trail = self.matched, self.rem, self.trail
        root, par, union, queue = self.root, self.par, self._union, self.queue
        for lit in lits:
            e, val = (lit, _IN) if lit >= 0 else (~lit, _OUT)
            u, v = edges[e]
            if val == _IN:
                if matched[u] or matched[v]:
                    return False
                matched[u] = matched[v] = True
            else:
                rem[u] -= 1
                rem[v] -= 1
            state[e] = val
            trail.append(e)
            queue.append(lit)
        while queue:
            e = queue.pop()
            if e >= 0:
                u, v = edges[e]
                if root[u] != root[v]:
                    if not union(u, v, 1):
                        return False
                elif par[u] == par[v]:
                    return False
                for w in (u, v):
                    for e2 in inc[w]:
                        if not state[e2]:
                            state[e2] = _OUT
                            rem[w] -= 1
                            rem[xr[e2] ^ w] -= 1
                            trail.append(e2)
                            queue.append(~e2)
            else:
                u, v = edges[~e]
                if root[u] != root[v]:
                    if not union(u, v, 0):
                        return False
                elif par[u] != par[v]:
                    return False
                for w in (u, v):
                    if not matched[w]:
                        r = rem[w]
                        if r == 0:
                            return False
                        if r == 1:
                            for e2 in inc[w]:
                                if not state[e2]:
                                    x = xr[e2] ^ w
                                    if matched[x]:
                                        return False
                                    state[e2] = _IN
                                    matched[w] = matched[x] = True
                                    trail.append(e2)
                                    queue.append(e2)
                                    break
                        elif r == 2:
                            # pair parity: whichever edge w takes, the other
                            # stays Out, so w's two partners are opposite-side
                            a = -1
                            for e2 in inc[w]:
                                if not state[e2]:
                                    if a < 0:
                                        a = xr[e2] ^ w
                                    else:
                                        b = xr[e2] ^ w
                                        break
                            if root[a] != root[b]:
                                if not union(a, b, 1):
                                    return False
                            elif par[a] == par[b]:
                                return False
        return True

    def _undo_to(self, mark: int) -> None:
        trail, state, edges, comp_verts = self.trail, self.state, self.edges, self.comp_verts
        matched, rem, root, par = self.matched, self.rem, self.root, self.par
        for t in reversed(trail[mark:]):
            if t >= 0:
                u, v = edges[t]
                if state[t] == _IN:
                    matched[u] = matched[v] = False
                else:
                    rem[u] += 1
                    rem[v] += 1
                state[t] = _UNDEC
            else:
                rv = ~t
                ru, flip = root[rv], par[rv]
                verts = comp_verts[ru]
                k = len(verts) - len(comp_verts[rv])
                for w in verts[k:]:
                    root[w] = rv
                    par[w] ^= flip
                del verts[k:]
        del trail[mark:]
        # a conflict leaves the literals it did not reach on the stack
        self.queue.clear()

    def _root_fixpoint(self) -> bool:
        """Propagate a fresh search's root: run the union's scan on each
        seeded class of two or more vertices against its own root, which
        decides its closing edges and related partners, then propagate.  A
        singleton class has neither, and the vertex rows already hold what a
        vertex with one or two edges implies.  False means there is no
        solution."""
        if not (self.consistent and self.rem):
            return False
        for r, verts in enumerate(self.comp_verts):
            if len(verts) > 1 and not self._scan(verts, r, 0):
                return False
        return self._propagate([])

    def solutions(self, budget: Optional[int]) -> Iterator[EdgeSet]:
        """Every perfect matching cut, depth first in the canonical order.

        The stack holds an (edge, trail mark) pair for each In decision whose
        Out branch is still open.  A conflict or a solution pops the deepest
        pair, undoes the trail to its mark and decides that edge Out.
        """
        state, trail, m = self.state, self.trail, len(self.state)
        if not self._root_fixpoint():
            return
        stack: list[tuple[int, int]] = []
        ok = True
        while True:
            e = state.find(_UNDEC) if ok else -1
            if e >= 0:
                stack.append((e, len(trail)))
                lit = e
            else:
                if ok:
                    yield frozenset(i for i in range(m) if state[i] == _IN)
                if not stack:
                    return
                e, mark = stack.pop()
                self._undo_to(mark)
                lit = ~e
            self.nodes += 1
            if budget is not None and self.nodes > budget:
                raise BudgetExhausted(f"node budget {budget} exhausted")
            ok = self._propagate([lit])


def find_pmc(g: Graph, budget: Optional[int] = DEFAULT_BUDGET) -> Optional[EdgeSet]:
    """First perfect matching cut in the canonical search order, or None.

    Raises BudgetExhausted when the node budget runs out, which is a distinct
    outcome from a completed 'no', and RuntimeError if the witness found fails
    its independent perfect matching cut check, which would be a solver bug.
    """
    if not g.is_connected():
        raise ValueError("find_pmc requires a connected graph")
    m = next(_PmcSearch(g).solutions(budget), None)
    if m is not None and not (is_perfect_matching(g, m) and cut_from_edge_set(g, m) is not None):
        raise RuntimeError("find_pmc's witness is not a perfect matching cut")
    return m


def enumerate_pmcs(g: Graph, budget: Optional[int] = DEFAULT_BUDGET) -> list[EdgeSet]:
    """Every perfect matching cut of g (cutset understood per component), in
    the canonical search order; raises BudgetExhausted as find_pmc does."""
    return list(_PmcSearch(g).solutions(budget))


def pmcs_bruteforce(g: Graph) -> Iterator[EdgeSet]:
    """Oracle: every perfect matching of g that is a cutset, matching the
    lowest unmatched vertex first along its edges in ``g.inc`` order."""
    if g.n > MAX_BRUTEFORCE_VERTICES:
        raise ValueError(f"brute force guard: {g.n} > {MAX_BRUTEFORCE_VERTICES} vertices")
    if not g.is_connected():
        raise ValueError("the brute-force oracle requires a connected graph")
    matched = [False] * g.n
    chosen: list[int] = []

    def extend(v: int) -> Iterator[EdgeSet]:
        while v < g.n and matched[v]:
            v += 1
        if v == g.n:
            if cut_from_edge_set(g, chosen) is not None:
                yield frozenset(chosen)
            return
        matched[v] = True
        for e, w in zip(g.inc[v], g.adj[v]):
            if not matched[w]:
                matched[w] = True
                chosen.append(e)
                yield from extend(v + 1)
                chosen.pop()
                matched[w] = False
        matched[v] = False

    yield from extend(0)


def find_pmc_bruteforce(g: Graph) -> Optional[EdgeSet]:
    """The first perfect matching cut of the oracle, or None."""
    return next(pmcs_bruteforce(g), None)


# --- witness mappings --------------------------------------------------------------

def assignment_from_pmc(artifact: "ReductionArtifact", m: EdgeSet) -> tuple:
    """Read off each variable's side from its S2 ring under the cut of m."""
    g = artifact.graph
    if not is_perfect_matching(g, m):
        raise ValueError("witness is not a perfect matching")
    cut = cut_from_edge_set(g, m)
    if cut is None:
        raise ValueError("witness is not a cutset")
    bits = []
    for i in range(1, artifact.formula.n + 1):
        sides = {cut.sides[v] for v in artifact.s2(i)}
        if len(sides) != 1:
            raise ValueError(f"S2 ring of variable {i} is not monochromatic")
        bits.append(sides.pop())
    return tuple(bits)


def pmc_from_assignment(artifact: "ReductionArtifact", a: tuple) -> EdgeSet:
    """Assemble the witness matching from per-gadget restrictions.

    Variable gadgets contribute their forced red sets; a crossing gadget takes
    its side-preserving restriction P1 iff its two variables agree under a,
    else P2; a clause gadget takes the type separating its minority
    variable, read through the ports a/b/c of the plan's slot table.
    a must be a NAE-satisfying assignment with entries 0 and 1.
    """
    f = artifact.formula
    if not nae_satisfies(f, a):
        raise ValueError("assignment is not NAE-satisfying")
    chosen: set[int] = set()
    for i in range(1, f.n + 1):
        chosen |= artifact.restriction("variable", i, 1)
    for k, ((i1, _), (i2, _)) in enumerate(artifact.crossings, 1):
        chosen |= artifact.restriction("crossing", k, 1 if a[i1 - 1] == a[i2 - 1] else 2)
    port_var = {(j, p): i for (i, j), (_, p) in artifact.plan.slots.items()}
    for j in range(1, f.m + 1):
        va, vb, vc = (port_var[(j, p)] for p in "abc")
        sides = (a[va - 1], a[vb - 1], a[vc - 1])
        if sides[1] != sides[0] and sides[1] != sides[2]:
            t = 1  # b alone
        elif sides[0] == sides[1]:
            t = 2  # c alone
        else:
            t = 3  # a alone
        chosen |= artifact.restriction("clause", j, t)
    return frozenset(chosen)


# --- lemma oracles -----------------------------------------------------------------

@dataclass
class LemmaReport:
    """Violations of the structural facts a verified witness must satisfy."""

    four_cycle: list = field(default_factory=list)
    square_propagation: list = field(default_factory=list)
    hex_three_out: list = field(default_factory=list)
    hex_square_pattern: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.four_cycle or self.square_propagation or self.hex_three_out
                    or self.hex_square_pattern)


def induced_four_cycles(g: Graph) -> list[tuple[int, int, int, int]]:
    """Induced 4-cycles as vertex tuples (a, u, b, w), each found once from its
    least vertex a, with u < w; linear-time on cubic graphs."""
    adj = g.adj
    out = []
    for a in range(g.n):
        adj_a = adj[a]
        if len(adj_a) < 2 or adj_a[-2] <= a:
            continue  # a needs two neighbours above it
        nbrs = [x for x in adj_a if x > a]
        for i in range(len(nbrs)):
            for k in range(i + 1, len(nbrs)):
                u, w = nbrs[i], nbrs[k]
                adj_w = adj[w]
                if u in adj_w:
                    continue
                for b in adj[u]:
                    if b > a and b in adj_w and b not in adj_a:
                        out.append((a, u, b, w))
    return out


def six_cycles(g: Graph) -> list[tuple[int, ...]]:
    """All 6-vertex cycles, one orientation each (min vertex first).

    A cycle (s, a, b, c, d, w) has s as its least vertex and a < w.  The
    search meets in the middle: from each s it lists the three-paths
    s-a-b-c through vertices above s, sorted by their far end c, and pairs
    two paths s-a-b-c and s-w-d-c with the same c and disjoint interiors,
    the one with the smaller second vertex as a.  Each cycle is found once,
    split at c, the vertex opposite s.  A cubic graph has at most 12 such
    paths from each s, where a depth-five walk has up to 48.

    Each s's cycles are listed in descending order of (a, b, c, d, w).  Every
    ``adj[v]`` is ascending, so that is the order of their positions in
    ``reversed(adj[...])`` at every depth: the pop order of a stack-based
    depth-first search from s.
    """
    adj = g.adj
    out = []
    for s in range(g.n):
        adj_s = adj[s]
        if len(adj_s) < 2 or adj_s[-2] <= s:
            continue  # s needs two neighbours above it
        paths = []
        for a in adj_s:
            if a > s:
                for b in adj[a]:
                    if b > s:
                        for c in adj[b]:
                            if c > s and c != a:
                                paths.append((c, a, b))
        paths.sort()
        found = []
        start = 0
        for k in range(1, len(paths)):
            c, a, b = paths[k]
            if c != paths[k - 1][0]:
                start = k
                continue
            for _, w, d in paths[start:k]:
                if w != a and d != a and w != b and d != b:
                    found.append((s, a, b, c, d, w) if a < w else (s, w, d, c, b, a))
        if found:
            found.sort(reverse=True)
            out += found
    return out


def lemma_oracles(g: Graph, m: EdgeSet) -> LemmaReport:
    """Check the paper's four square and hexagon lemmas on a perfect matching
    cut: the 4-cycle dichotomy, square propagation, three outgoing edges of a
    hexagon, and the hexagon-with-squares pattern.  The cut itself is decided
    by cut_from_edge_set, which rejects m here if it is no cutset, and which
    reads its answer off g when m is one of the last two frozensets decided
    there.

    Accepts gadget fragments too (ports of degree 2 with their connector
    edges absent); the checks degrade to the forms the proofs actually use.
    """
    adj, inc, edges = g.adj, g.inc, g.edges
    if any(len(a) > 3 for a in adj):
        raise ValueError("lemma oracles expect maximum degree 3")
    if not is_perfect_matching(g, m):
        raise ValueError("m is not a perfect matching")
    if cut_from_edge_set(g, m) is None:
        raise ValueError("m is not a cutset")
    report = LemmaReport()
    mdeg = [0] * g.n  # edges of m at each vertex
    for e in m:
        u, v = edges[e]
        mdeg[u] += 1
        mdeg[v] += 1

    # Squares are indexed once: their vertex sets, their hits (an edge of m
    # inside), the squares at each vertex and the squares through each edge.
    # The vertex set of an induced 4-cycle fixes it, so an index names a square.
    squares = induced_four_cycles(g)
    vsets = []
    square_hit = []
    by_vertex: dict[int, list[int]] = {}
    squares_by_edge: dict[int, list[tuple[int, ...]]] = {}
    for i, cyc in enumerate(squares):
        a, u, b, w = cyc
        es = (inc[a][adj[a].index(u)], inc[u][adj[u].index(b)],
              inc[b][adj[b].index(w)], inc[w][adj[w].index(a)])
        inside = [k for k in range(4) if es[k] in m]
        # A square has no chord, so its m-degrees count each inside edge of
        # m twice and each outgoing one once.  With maximum degree 3 each
        # square vertex has at most one outgoing edge, so "every vertex
        # leaves by an edge of m" means four outgoing edges in m.
        out_in = mdeg[a] + mdeg[u] + mdeg[b] + mdeg[w] - 2 * len(inside)
        if not inside:
            bad = out_in != 4
        elif len(inside) == 2:
            bad = inside[1] - inside[0] != 2 or out_in > 0  # opposite edges only
        else:
            bad = True
        if bad:
            report.four_cycle.append(cyc)
        vsets.append(set(cyc))
        square_hit.append(bool(inside))
        for v in cyc:
            by_vertex.setdefault(v, []).append(i)
        for e in es:
            squares_by_edge.setdefault(e, []).append(cyc)

    for i, c1 in enumerate(squares):
        vs1, hit = vsets[i], square_hit[i]
        paired = set()
        # The iteration order of this set fixes the order of the report;
        # building the same set another way can reorder it.
        for w in {x for v in vs1 for x in adj[v]} - vs1:
            for j in by_vertex.get(w, ()):
                if j in paired or not vsets[j].isdisjoint(vs1):
                    continue
                paired.add(j)
                if square_hit[j] != hit:
                    report.square_propagation.append((c1, squares[j]))

    has = m.__contains__
    for cyc in six_cycles(g):
        # es[k] joins cyc[k] and cyc[k + 1]; outgoing lists the edges that
        # leave the hexagon
        es = []
        outgoing = []
        for v, y in zip(cyc, cyc[1:] + cyc[:1]):
            for e, x in zip(inc[v], adj[v]):
                if x == y:
                    es.append(e)
                elif x not in cyc:
                    outgoing.append(e)
        out_in = sum(map(has, outgoing))
        hit = any(map(has, es))
        if out_in >= 3 and (hit or out_in != len(outgoing)):
            report.hex_three_out.append(cyc)
        if not hit:
            continue
        # hexagon-with-squares: every hexagon edge but one opposite pair sits
        # in an induced 4-cycle that avoids the two hexagon vertices next to
        # the edge's ends, which is what the outgoing-edge argument needs.
        # Edge k joins cyc[k] and cyc[k + 1], so those vertices are cyc[k - 1]
        # and cyc[k + 2] (= cyc[k - 4]), and the edge opposite edge k is
        # edge k + 3: the pattern holds when two of the three opposite pairs
        # are in such squares.
        in_square = [
            any(cyc[k - 1] not in sq and cyc[k - 4] not in sq
                for sq in squares_by_edge.get(e, ()))
            for k, e in enumerate(es)
        ]
        if sum(in_square[k] and in_square[k + 3] for k in range(3)) >= 2:
            report.hex_square_pattern.append(cyc)
    return report
