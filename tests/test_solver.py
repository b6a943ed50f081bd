import copy
import hashlib
import itertools
import random
import tracemalloc

import networkx as nx
import pytest

from pmcut.formula import (
    ag23_formula,
    canonical_n3_formula,
    nae_satisfies,
    random_e4_formula,
    solve_nae_bruteforce,
)
from pmcut.gadgets import build_clause_gadget, build_variable_gadget, enumerate_local_pmcs
from pmcut.graphs import (
    Cut,
    Graph,
    cube_graph,
    cut_from_edge_set,
    is_perfect_matching,
    random_cubic_graph,
)
from pmcut.reduction import build_h, reduce_formula
from pmcut.solver import (
    _IN,
    _OUT,
    PROBE_AFTER_DECISIONS_OF_ONE_EDGE,
    BudgetExhausted,
    _PmcSearch,
    assignment_from_pmc,
    enumerate_pmcs,
    find_pmc,
    find_pmc_bruteforce,
    induced_four_cycles,
    lemma_oracles,
    pmc_from_assignment,
    pmcs_bruteforce,
    six_cycles,
)

from _oracles import (
    complement,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    induced_four_cycles_by_edge_set,
    six_cycles_dfs,
)


# sha256 of the comma-joined sorted edge ids of find_pmc's canonical n=3 witness
CANONICAL_N3_WITNESS_SHA256 = "cbb3dac0569fd98bc2948b9cf8a64e902da59be92bf22d0b74d3f754843d2466"

# (n, seed) of random_e4_formula(n, Random(seed)) -> node count and witness
# sha256 of one search of its reduction, stopping at the first witness
SEEDED_SEARCH_PINS = {
    (6, 0): (129, "187b56def130d3c83f39e6a3c892944ef860e2340f3bfbd860cfe8c63c62e814"),
    (9, 9): (210, "f25d0d083ec0819e68b6f062f64a2bb2271b33882cd5fd1b7d67100fb20d23d2"),
    (12, 12): (180, "964579c46fbf790b689a01b22d448aeea002e615bd87cff9e325e5b6a3b593a8"),
}


def verified(g, m):
    return m is not None and is_perfect_matching(g, m) and cut_from_edge_set(g, m) is not None


def first_witness(g):
    """Node count and first witness (or None) of one complete search."""
    search = _PmcSearch(g)
    m = next(search.solutions(None), None)
    return search.nodes, m


def witness_sha256(m):
    return hashlib.sha256(",".join(map(str, sorted(m))).encode()).hexdigest()


def test_fixed_fixtures():
    q3 = cube_graph()
    m = find_pmc(q3)
    assert verified(q3, m)
    assert find_pmc_bruteforce(q3) == m == frozenset({0, 2, 4, 6})  # canonical witness
    assert find_pmc(complete_graph(4)) is None
    assert find_pmc_bruteforce(complete_graph(4)) is None
    assert find_pmc(complete_bipartite_graph(3, 3)) is None
    assert find_pmc_bruteforce(complete_bipartite_graph(3, 3)) is None
    assert find_pmc(cycle_graph(6)) is None
    assert find_pmc_bruteforce(cycle_graph(6)) is None
    assert verified(cycle_graph(4), find_pmc(cycle_graph(4)))


def test_enumerate_pmcs_c4():
    assert enumerate_pmcs(cycle_graph(4)) == [frozenset({0, 2}), frozenset({1, 3})]


def test_single_edge_graph():
    from pmcut.graphs import Graph

    k2 = Graph(2, [(0, 1)])
    assert find_pmc(k2) == frozenset({0}) == find_pmc_bruteforce(k2)


def test_bruteforce_guard():
    rng = random.Random(0)
    with pytest.raises(ValueError, match="guard"):
        find_pmc_bruteforce(random_cubic_graph(26, rng))


def test_find_pmc_requires_connected():
    from pmcut.graphs import Graph

    with pytest.raises(ValueError, match="connected"):
        find_pmc(Graph(2, []))


def test_budget_exhaustion_is_distinct():
    art = reduce_formula(canonical_n3_formula())
    with pytest.raises(BudgetExhausted):
        find_pmc(art.graph, budget=3)
    assert find_pmc(art.graph, budget=None) is not None


def test_enumeration_budget_is_the_search_budget():
    art = reduce_formula(canonical_n3_formula())
    with pytest.raises(BudgetExhausted):
        enumerate_pmcs(art.graph, budget=3)


def test_random_agreement_small():
    rng = random.Random(97)
    for _ in range(80):
        g = random_cubic_graph(rng.choice([8, 10, 12, 14, 16]), rng)
        m1 = find_pmc(g)
        m2 = find_pmc_bruteforce(g)
        assert (m1 is None) == (m2 is None)
        if m1 is not None:
            assert verified(g, m1) and verified(g, m2)


def random_bounded_graph(n, max_deg, planted, rng):
    """Connected graph on n (even) vertices with maximum degree <= max_deg.

    When planted, the sides are the even and the odd vertices, 2i is matched
    to 2i+1, and every other edge joins two vertices of one side, so that
    matching is a perfect matching cut.  Labels are shuffled at the end so the
    planted matching has no index pattern.
    """
    deg = [0] * n
    edges = set()

    def add(u, v):
        if u != v and deg[u] < max_deg and deg[v] < max_deg and (min(u, v), max(u, v)) not in edges:
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
            return True
        return False

    if planted:
        for i in range(0, n, 2):
            add(i, i + 1)
        for i in range(2, n, 2):  # tie each pair to an earlier one inside a side
            side = rng.randrange(2)
            while not add(i + side, rng.randrange(0, i, 2) + side):
                side = rng.randrange(2)
        for _ in range(rng.randint(n, 4 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u % 2 == v % 2:
                add(u, v)
    else:
        for v in range(1, n):
            while not add(v, rng.randrange(v)):
                pass
        for _ in range(rng.randint(n, 4 * n)):
            add(rng.randrange(n), rng.randrange(n))
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in sorted(edges)])


def enumeration_graphs():
    """The 600 seeded graphs of the enumeration test, half with a planted
    perfect matching cut, with maximum degree 3 to 5."""
    rng = random.Random(2302)
    return [random_bounded_graph(rng.randrange(4, 13, 2), rng.choice([3, 4, 5]), k % 2 == 0, rng)
            for k in range(600)]


def test_enumeration_agrees_with_bruteforce_beyond_degree_3():
    witnessed_high_degree = 0
    for g in enumeration_graphs():
        assert g.is_connected()
        pmcs = enumerate_pmcs(g)
        assert len(set(pmcs)) == len(pmcs)
        assert pmcs == sorted(pmcs, key=lambda s: tuple(sorted(s)))
        assert set(pmcs) == set(pmcs_bruteforce(g))
        if pmcs:
            assert find_pmc(g) == pmcs[0]
            witnessed_high_degree += max(map(len, g.adj)) > 3
        else:
            assert find_pmc(g) is None
    assert witnessed_high_degree >= 100


def check_undo_restores_fresh_tables():
    """An exhaustive search undone to the empty trail leaves every table as a
    fresh search has it: labels, sides, vertex lists and assignments."""
    rng = random.Random(7079)
    tables = ("root", "par", "comp_verts", "state", "matched", "rem")
    nodes = 0
    for k in range(200):
        if k % 2:
            g = random_cubic_graph(rng.choice([8, 10, 12, 14, 16]), rng)
        else:
            g = random_bounded_graph(rng.randrange(4, 17, 2), 3, k % 4 == 0, rng)
        search = _PmcSearch(g)
        for _ in search.solutions(None):
            pass
        nodes += search.nodes
        search._undo_to(0)
        assert search.trail == []
        fresh = _PmcSearch(g)
        for name in tables:
            assert getattr(search, name) == getattr(fresh, name), name
    return nodes


def test_undo_restores_fresh_tables():
    assert check_undo_restores_fresh_tables() > 300


def naive_closure(g, literals):
    """Edge labels of the closure of the four propagation rules over the
    literals (e In, ~e Out), recomputed from scratch, or None on a conflict.

    Each round runs one parity BFS over the decided edges and the pair parity
    links, then applies matching, parity, pair parity and related partners to
    the labels the round started with."""
    state = bytearray(g.m)
    for lit in literals:
        e, val = (lit, _IN) if lit >= 0 else (~lit, _OUT)
        state[e] = val
    while True:
        forced = {}
        links = [[] for _ in range(g.n)]

        def link(x, y, parity):
            links[x].append((y, parity))
            links[y].append((x, parity))

        unmatched = []
        for v in range(g.n):
            ins = [e for e in g.inc[v] if state[e] == _IN]
            free = [(e, x) for e, x in zip(g.inc[v], g.adj[v]) if not state[e]]
            if len(ins) > 1 or not ins and not free:
                return None
            if ins:
                for e, _ in free:
                    forced.setdefault(e, set()).add(_OUT)
                continue
            unmatched.append((v, free))
            if len(free) == 1:
                forced.setdefault(free[0][0], set()).add(_IN)
            elif len(free) == 2:
                link(free[0][1], free[1][1], 1)
        for e, (u, v) in enumerate(g.edges):
            if state[e]:
                link(u, v, int(state[e] == _IN))
        comp, side = [-1] * g.n, [0] * g.n
        for s in range(g.n):
            if comp[s] != -1:
                continue
            comp[s], order = s, [s]
            for x in order:
                for y, parity in links[x]:
                    if comp[y] == -1:
                        comp[y], side[y] = s, side[x] ^ parity
                        order.append(y)
                    elif side[y] != side[x] ^ parity:
                        return None
        for e, (u, v) in enumerate(g.edges):
            if not state[e] and comp[u] == comp[v]:
                forced.setdefault(e, set()).add(_IN if side[u] != side[v] else _OUT)
        for x, free in unmatched:
            for (e, w), (f, y) in itertools.combinations(free, 2):
                if comp[w] != comp[y]:
                    continue
                out = [e, f] if side[w] == side[y] else [h for h, _ in free if h not in (e, f)]
                for h in out:
                    forced.setdefault(h, set()).add(_OUT)
        changed = False
        for e, vals in forced.items():
            if len(vals) > 1 or state[e] and state[e] not in vals:
                return None
            if not state[e]:
                state[e] = vals.pop()
                changed = True
        if not changed:
            return state


def propagation_graph(k, rng):
    """The k-th seeded graph of the propagation tests: cubic for odd k, and
    of maximum degree 3 to 5 for even k, with a planted perfect matching cut
    when k is a multiple of 4."""
    if k % 2:
        return random_cubic_graph(rng.choice([8, 10, 12, 14, 16]), rng)
    return random_bounded_graph(rng.randrange(8, 17, 2), rng.choice([3, 4, 5]), k % 4 == 0, rng)


def test_propagation_reaches_the_naive_fixpoint():
    """The root fixpoint plus up to three random literals, propagated by the
    kernel, conflicts exactly when the naive closure does, and otherwise
    labels every edge as it does."""
    rng = random.Random(1500)
    clean = 0
    for k in range(1500):
        g = propagation_graph(k, rng)
        search = _PmcSearch(g)
        if not search._root_fixpoint():
            assert naive_closure(g, []) is None
            continue
        free = [e for e in range(g.m) if not search.state[e]]
        literals = [e if rng.random() < 0.5 else ~e
                    for e in rng.sample(free, min(len(free), rng.randint(0, 3)))]
        ok = search._propagate(list(literals))
        closure = naive_closure(g, literals)
        assert ok == (closure is not None)
        if ok:
            assert search.state == closure
            clean += 1
    assert clean > 300


def test_propagation_ignores_the_order_of_its_literals():
    """The root fixpoint plus the same one to six literals, propagated in
    three shuffled orders, ends with the same labels each time or conflicts
    each time: pop order moves neither the fixpoint nor the conflict."""
    rng = random.Random(2024)
    clean = conflicts = 0
    for k in range(500):
        g = propagation_graph(k, rng)
        fixpoint = _PmcSearch(g)
        if not fixpoint._root_fixpoint():
            continue
        free = [e for e in range(g.m) if not fixpoint.state[e]]
        if not free:
            continue
        literals = [e if rng.random() < 0.5 else ~e
                    for e in rng.sample(free, min(len(free), rng.randint(1, 6)))]
        outcomes = set()
        for _ in range(3):
            rng.shuffle(literals)
            search = _PmcSearch(g)
            assert search._root_fixpoint()
            outcomes.add(bytes(search.state) if search._propagate(list(literals)) else None)
        assert len(outcomes) == 1
        if None in outcomes:
            conflicts += 1
        else:
            clean += 1
    # the root fixpoint leaves few of these small graphs much to decide
    assert clean > 20 and conflicts > 200


def test_undo_after_a_conflict_restores_the_tables():
    """A propagation that conflicts leaves decided literals it never popped
    on the trail, and may stop inside a union's scan, before that union is
    on the trail.  Undoing to the mark taken before it restores all six
    tables and empties the stacks.  Each graph is walked down from its root
    fixpoint by random literals until both values of one edge conflict."""
    rng = random.Random(4242)
    tables = ("root", "par", "comp_verts", "state", "matched", "rem")
    conflicts = in_scan = 0
    for k in range(300):
        g = propagation_graph(k, rng)
        search = _PmcSearch(g)
        union = search._union

        def watched(u, v, parity):
            nonlocal in_scan
            joining = search.root[u] != search.root[v]
            ok = union(u, v, parity)
            in_scan += joining and not ok
            return ok

        def attempt(propagate, *literals):
            nonlocal conflicts
            before = {name: copy.deepcopy(getattr(search, name)) for name in tables}
            mark = len(search.trail)
            if propagate(*literals):
                return True
            conflicts += 1
            search._undo_to(mark)
            assert len(search.trail) == mark
            assert search.queue == search.forced == []
            for name in tables:
                assert getattr(search, name) == before[name], name
            return False

        search._union = watched
        if not attempt(search._root_fixpoint):
            continue
        propagate = search._propagate
        while not all(search.state):
            free = [e for e in range(g.m) if not search.state[e]]
            literals = [e if rng.random() < 0.5 else ~e
                        for e in rng.sample(free, min(len(free), rng.randint(1, 3)))]
            if not (attempt(propagate, literals) or attempt(propagate, literals[:1])
                    or attempt(propagate, [~literals[0]])):
                break
    assert conflicts > 400 and in_scan > 100


def test_canonical_search_pinned():
    nodes, m = first_witness(reduce_formula(canonical_n3_formula()).graph)
    assert nodes == 33
    assert witness_sha256(m) == CANONICAL_N3_WITNESS_SHA256


@pytest.mark.parametrize("n,seed", sorted(SEEDED_SEARCH_PINS))
def test_seeded_search_pinned(n, seed):
    g = reduce_formula(random_e4_formula(n, random.Random(seed))).graph
    nodes, m = first_witness(g)
    assert verified(g, m)
    assert (nodes, witness_sha256(m)) == SEEDED_SEARCH_PINS[(n, seed)]


def test_find_pmc_raises_when_its_witness_check_fails(monkeypatch):
    """The witness check is an explicit raise, so it holds under python -O too."""
    monkeypatch.setattr("pmcut.solver.cut_from_edge_set", lambda g, m: None)
    with pytest.raises(RuntimeError, match="not a perfect matching cut"):
        find_pmc(cube_graph())


def test_solver_witness_deterministic():
    g = cube_graph()
    assert find_pmc(g) == find_pmc(g) == frozenset({0, 2, 4, 6})


def test_witness_independent_of_budget():
    art = reduce_formula(canonical_n3_formula())
    m1 = find_pmc(art.graph, budget=None)
    m2 = find_pmc(art.graph, budget=10_000)
    assert m1 == m2
    rng = random.Random(3)
    for _ in range(20):
        g = random_cubic_graph(rng.choice([10, 12, 14]), rng)
        assert find_pmc(g, budget=None) == find_pmc(g, budget=500_000)


# --- witness mappings ---------------------------------------------------------

def test_roundtrip_canonical():
    f = canonical_n3_formula()
    art = reduce_formula(f)
    a = solve_nae_bruteforce(f)
    m = pmc_from_assignment(art, a)
    assert verified(art.graph, m)
    back = assignment_from_pmc(art, m)
    assert back in (a, complement(a))
    m2 = find_pmc(art.graph)
    assert verified(art.graph, m2)
    assert nae_satisfies(f, assignment_from_pmc(art, m2))
    for i in range(1, 4):
        # the solver's witness restricts to each variable gadget's forced set
        assert art.restriction("variable", i, 1) <= m2


def test_pmc_from_complement_assignment():
    f = canonical_n3_formula()
    art = reduce_formula(f)
    a = solve_nae_bruteforce(f)
    m1 = pmc_from_assignment(art, a)
    m2 = pmc_from_assignment(art, complement(a))
    assert verified(art.graph, m1) and verified(art.graph, m2)
    for i in range(1, 4):
        red = art.restriction("variable", i, 1)
        assert red <= m1 and red <= m2


def test_pmc_from_all_equal_assignment_fails():
    art = reduce_formula(canonical_n3_formula())
    with pytest.raises(ValueError, match="NAE"):
        pmc_from_assignment(art, (0, 0, 0))


@pytest.mark.parametrize("a,bad", [((0, 1, 2), "entry 3 is 2"), ((0, 1, -1), "entry 3 is -1"),
                                   ((0.5, 1, 0), "entry 1 is 0.5")])
def test_pmc_from_assignment_rejects_entries_other_than_0_and_1(canonical_artifact, a, bad):
    with pytest.raises(ValueError, match=bad):
        pmc_from_assignment(canonical_artifact, a)


def test_assignment_from_non_pmc_rejected():
    art = reduce_formula(canonical_n3_formula())
    with pytest.raises(ValueError):
        assignment_from_pmc(art, frozenset({0}))
    m = find_pmc(art.graph)
    corrupted = frozenset(set(m) ^ {next(iter(m))})
    with pytest.raises(ValueError):
        assignment_from_pmc(art, corrupted)


@pytest.mark.parametrize("n,seed", [(6, 0), (6, 1), (9, 1)])
def test_witness_maps_under_reordered_layout(n, seed):
    """Clause ports follow the layout order, not the clause's index order."""
    f = random_e4_formula(n, random.Random(seed))
    art = reduce_formula(f)
    index_ports = {(i, j): "abc"[k] for j, clause in enumerate(f.clauses, 1)
                   for k, i in enumerate(sorted(clause))}
    assert build_h(f).var_order != tuple(range(n, 0, -1))
    assert any(art.plan.slots[ij][1] != p for ij, p in index_ports.items())
    for a in itertools.product((0, 1), repeat=n):
        if not nae_satisfies(f, a):
            continue
        m = pmc_from_assignment(art, a)
        assert verified(art.graph, m)
        assert assignment_from_pmc(art, m) in (a, complement(a))
    m = find_pmc(art.graph)
    assert verified(art.graph, m)
    assert nae_satisfies(f, assignment_from_pmc(art, m))


def test_anchor_sides_under_witness():
    f = canonical_n3_formula()
    art = reduce_formula(f)
    m = find_pmc(art.graph)
    cut = cut_from_edge_set(art.graph, m)
    vg, cg = build_variable_gadget(), build_clause_gadget()
    for i in range(1, 4):
        vbase = art.vertex_info.start("variable", i)
        anchors = []
        for (var, j), (r, p) in art.plan.slots.items():
            if var == i:  # both ends of the occurrence's two wires
                cbase = art.vertex_info.start("clause", j)
                anchors += [vbase + vg.names[f"t{r}"], vbase + vg.names[f"b{r}"],
                            cbase + cg.names[f"t'{p}"], cbase + cg.names[f"b'{p}"]]
        assert len(anchors) == 4 * len(f.occurrences(i))
        assert len({cut.sides[v] for v in anchors}) == 1


def test_unsat_instance_refuted():
    ag = ag23_formula()
    assert solve_nae_bruteforce(ag) is None
    art = reduce_formula(ag)
    assert art.q == 168  # barycenter layout; 305 under the index order
    nodes, m = first_witness(art.graph)
    assert m is None  # complete refutation, no budget excuse
    # 1292 without the restart
    assert nodes == 220


def decided(search):
    return len(search.state) - search.state.count(0)


def test_restart_probes_from_the_last_root_level_state(monkeypatch):
    """The restart keeps the Out decisions taken with an empty decision
    stack, so its probe pass starts with more edges decided than the root
    fixpoint decides.  The pass on AG(2,3) is pinned exactly: its node, the
    edges decided and the trail length before it, its propagations, its trail
    entries propagated plus undone, and the edges decided after it.  The
    trigger counts In decisions, so a change to the branching order or to
    what propagation decides moves these numbers."""
    g = reduce_formula(ag23_formula()).graph
    fixpoint = _PmcSearch(g)
    assert fixpoint._root_fixpoint()
    assert fixpoint.state.count(0) == len(fixpoint.state) == 6534
    seen = []
    probe = _PmcSearch._probe

    def counted(self, implied):
        propagate, undo = self._propagate, self._undo_to
        cost = [0, 0]

        def counted_propagate(queue):
            mark = len(self.trail)
            ok = propagate(queue)
            cost[0] += 1
            cost[1] += len(self.trail) - mark
            return ok

        def counted_undo(mark):
            cost[1] += len(self.trail) - mark
            undo(mark)

        seen.append((self.nodes, decided(self), len(self.trail)))
        self._propagate, self._undo_to = counted_propagate, counted_undo
        ok = probe(self, implied)
        del self._propagate, self._undo_to
        seen.append((*cost, decided(self)))
        return ok

    monkeypatch.setattr(_PmcSearch, "_probe", counted)
    assert first_witness(g)[1] is None
    # 264 propagations and 40248 entries when the pass probes every
    # undecided edge; it ends with the same 2694 edges decided
    assert seen == [(204, 2034, 5517), (207, 22326, 2694)]


def test_refutation_trail_pinned():
    """The kernel's cost on AG(2,3) over the whole refutation: trail entries
    propagated plus undone, those written by propagations that end in a
    conflict, and literals popped.  A literal is decided when it is queued,
    so the trail holds the literals a conflict leaves unpopped too; each
    decided literal is pushed once and popped unless a conflict stops the
    propagation first.  Deciding each literal at its pop instead popped 65876
    literals, 31619 of them already decided, and moved 85041 and 9610."""
    g = reduce_formula(ag23_formula()).graph
    search = _PmcSearch(g)
    propagate, undo = search._propagate, search._undo_to
    moved = conflicting = popped = 0

    def pending():
        return len(search.queue) + len(search.forced)

    def counted_propagate(queue):
        nonlocal moved, conflicting, popped
        mark, before = len(search.trail), pending()
        ok = propagate(queue)
        written = search.trail[mark:]
        moved += len(written)
        if not ok:
            conflicting += len(written)
        # entries >= 0 are decided literals, the rest unions
        popped += before + sum(t >= 0 for t in written) - pending()
        return ok

    def counted_undo(mark):
        nonlocal moved
        moved += len(search.trail) - mark
        undo(mark)

    search._propagate, search._undo_to = counted_propagate, counted_undo
    assert next(search.solutions(None), None) is None
    assert (search.nodes, moved, conflicting, popped) == (220, 125776, 31285, 31878)


@pytest.fixture(params=[0, 2])
def forced_restart(request, monkeypatch):
    """Every search restarts with root probing at its first backtrack (0, as
    1 does: every decision reaches it), or at its first backtrack after some
    edge has been decided In a second time (2).  Returns the threshold and a
    list that gets one entry per probe pass run."""
    passes = []
    probe = _PmcSearch._probe

    def counted(self, implied):
        passes.append(1)
        return probe(self, implied)

    monkeypatch.setattr("pmcut.solver.PROBE_AFTER_DECISIONS_OF_ONE_EDGE", request.param)
    monkeypatch.setattr(_PmcSearch, "_probe", counted)
    return request.param, passes


def test_restart_keeps_enumeration_order(monkeypatch, forced_restart,
                                         variable_gadget, clause_gadget, crossing_gadget):
    graphs = [variable_gadget.graph, clause_gadget.graph, crossing_gadget.graph]
    graphs += enumeration_graphs()
    with monkeypatch.context() as never_restart:
        never_restart.setattr("pmcut.solver.PROBE_AFTER_DECISIONS_OF_ONE_EDGE", float("inf"))
        plain = [enumerate_pmcs(g) for g in graphs]
    threshold, passes = forced_restart
    assert passes == []
    assert [enumerate_pmcs(g) for g in graphs] == plain
    assert [len(pmcs) for pmcs in plain[:3]] == [1, 3, 8]
    # propagation leaves these small graphs few decisions to repeat
    assert len(passes) > (200 if threshold == 0 else 1)


def test_restart_keeps_witness_pins(forced_restart):
    pins = [(canonical_n3_formula(), CANONICAL_N3_WITNESS_SHA256)]
    pins += [(random_e4_formula(n, random.Random(seed)), sha)
             for (n, seed), (_, sha) in SEEDED_SEARCH_PINS.items()]
    for f, sha in pins:
        g = reduce_formula(f).graph
        _, m = first_witness(g)
        assert verified(g, m) and witness_sha256(m) == sha
    assert len(forced_restart[1]) == len(pins)
    assert find_pmc(cube_graph()) == frozenset({0, 2, 4, 6})


def test_undo_restores_fresh_tables_after_restart(forced_restart):
    check_undo_restores_fresh_tables()
    threshold, passes = forced_restart
    assert len(passes) > (100 if threshold == 0 else 1)


@pytest.mark.parametrize("formula", [
    canonical_n3_formula(),
    random_e4_formula(6, random.Random(0)),
    random_e4_formula(6, random.Random(1)),
    random_e4_formula(9, random.Random(9)),
    ag23_formula(),
], ids=["canonical", "n6-s0", "n6-s1", "n9-s9", "ag23"])
def test_root_probing_puts_every_connector_out(formula):
    """No connector edge lies in a perfect matching cut, and one probe pass at
    the root shows it for each of them without the search knowing connectors."""
    art = reduce_formula(formula)
    search = _PmcSearch(art.graph)
    assert search._root_fixpoint() and search._probe(bytearray(len(search.state)))
    connectors = [art.graph.edge_id(u, v) for u, v, _ in art.connectors]
    assert all(search.state[e] == _OUT for e in connectors)


# (n, seed) -> node count and witness sha256 of searches that ran out of a
# 15k-node budget without root probing (n = 24 s = 7 did not, in 1231 nodes).
SEEDED_SAT_PINS = {
    (24, 1): (492, "0a9afd43c227f925a615f7aa99294e4bddae4d46ba0caec9215d233be955d2d2"),
    (24, 7): (539, "d4a47b0d3caed8afaf49c2ea2eebdb0f97c3dc2a3e4670bdee11805253728891"),
    (30, 1): (543, "199a4b833c2eec7c62304294eb11b38ea714aa380cf129dfa3945b850431caf9"),
}


@pytest.mark.parametrize("n,seed", sorted(SEEDED_SAT_PINS))
def test_seeded_sat_search_within_budget(n, seed):
    g = reduce_formula(random_e4_formula(n, random.Random(seed))).graph
    search = _PmcSearch(g)
    m = next(search.solutions(15_000))
    assert verified(g, m)
    assert (search.nodes, witness_sha256(m)) == SEEDED_SAT_PINS[(n, seed)]


@pytest.fixture(scope="module")
def restarting_graphs():
    """AG(2,3) and the SEEDED_SAT_PINS reductions, whose searches restart."""
    formulas = [ag23_formula()]
    formulas += [random_e4_formula(n, random.Random(seed)) for n, seed in sorted(SEEDED_SAT_PINS)]
    return [reduce_formula(f).graph for f in formulas]


def searched_with_probes(monkeypatch, g, skip):
    """Nodes, the state after each probe pass and the first witness of one
    search of g; without skip, the pass probes every undecided edge."""
    states = []
    probe = _PmcSearch._probe

    def recorded(self, implied):
        ok = probe(self, implied if skip else bytearray(len(implied)))
        states.append(bytes(self.state))
        return ok

    with monkeypatch.context() as patched:
        patched.setattr(_PmcSearch, "_probe", recorded)
        search = _PmcSearch(g)
        m = next(search.solutions(15_000), None)
    return search.nodes, states, m


@pytest.mark.parametrize("threshold", [PROBE_AFTER_DECISIONS_OF_ONE_EDGE, 0, 2])
def test_probe_skips_change_only_cost(monkeypatch, restarting_graphs, threshold):
    """Skipping the edges that the search already propagated In, since the
    stack was last empty, leaves the probe pass's result and the search as
    they are when the pass probes every undecided edge."""
    monkeypatch.setattr("pmcut.solver.PROBE_AFTER_DECISIONS_OF_ONE_EDGE", threshold)
    for g in restarting_graphs:
        skipping = searched_with_probes(monkeypatch, g, True)
        assert len(skipping[1]) == 1
        assert skipping == searched_with_probes(monkeypatch, g, False)


def test_search_tables_stay_small(restarting_graphs):
    """A search holds under 170 bytes per vertex on the seeded n = 30
    reduction, as tracemalloc counts what its constructor leaves allocated:
    flat tables, one flag per vertex for matched and one one-vertex list per
    vertex, with an edge's far end read from the xor of its ends and its two
    ends from the graph's edges.  Copying those ends into two lists and
    keeping a size per vertex took it to 185-190; a tuple of (edge,
    neighbour) pairs per vertex would raise it to about 440."""
    g = restarting_graphs[-1]
    assert g.n == 23_992
    tracemalloc.start()
    try:
        search = _PmcSearch(g)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert search.nodes == 0
    assert held / g.n < 170


# --- lemma oracles -------------------------------------------------------------

def test_cycle_enumerators():
    q3 = cube_graph()
    assert len(induced_four_cycles(q3)) == 6
    assert len(six_cycles(q3)) == 16


def _canonical_cycle(cyc: list[int]) -> tuple[int, ...]:
    """Least vertex first, then its smaller cycle neighbour."""
    k = cyc.index(min(cyc))
    c = cyc[k:] + cyc[:k]
    return tuple(c) if c[1] < c[-1] else (c[0],) + tuple(reversed(c[1:]))


def test_cycle_enumerators_agree_with_networkx(variable_gadget, clause_gadget, crossing_gadget):
    rng = random.Random(53)
    graphs = [cube_graph(), variable_gadget.graph, clause_gadget.graph, crossing_gadget.graph]
    graphs += [random_cubic_graph(rng.choice([8, 10, 12, 16, 20, 24]), rng) for _ in range(40)]
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        cycles = [_canonical_cycle(c) for c in nx.simple_cycles(h, length_bound=6)]
        hexagons = sorted(c for c in cycles if len(c) == 6)
        squares = sorted(c for c in cycles if len(c) == 4
                         and not h.has_edge(c[0], c[2]) and not h.has_edge(c[1], c[3]))
        assert sorted(six_cycles(g)) == hexagons
        assert sorted(induced_four_cycles(g)) == squares
    assert sum(len(induced_four_cycles(g)) for g in graphs) > 20


@pytest.mark.parametrize("n", [3, 6, 12])
def test_cycle_enumerations_keep_the_depth_first_order(n, variable_gadget, clause_gadget,
                                                      crossing_gadget):
    """The meet-in-the-middle hexagons and the square loops list the same
    cycles in the same order as the depth-first references."""
    rng = random.Random(n)
    graphs = [reduce_formula(random_e4_formula(n, rng)).graph]
    graphs += [random_cubic_graph(rng.randrange(8, 41, 2), rng) for _ in range(12)]
    if n == 3:
        graphs += [cube_graph(), variable_gadget.graph, clause_gadget.graph, crossing_gadget.graph]
    for g in graphs:
        assert six_cycles(g) == six_cycles_dfs(g)
        assert induced_four_cycles(g) == induced_four_cycles_by_edge_set(g)


def test_oracles_on_q3():
    q3 = cube_graph()
    assert lemma_oracles(q3, find_pmc(q3)).ok


def test_oracles_on_census_elements(variable_gadget, clause_gadget, crossing_gadget):
    for gadget in (variable_gadget, clause_gadget, crossing_gadget):
        for c in enumerate_local_pmcs(gadget):
            assert lemma_oracles(gadget.graph, c).ok


def test_oracles_reject_corrupted_witness():
    q3 = cube_graph()
    m = set(find_pmc(q3))
    m.discard(0)
    m.add(1)
    with pytest.raises(ValueError):
        lemma_oracles(q3, frozenset(m))


def test_each_lemma_report_can_fire(monkeypatch):
    """With lemma_oracles' input checks made to accept, hand-built edge sets
    that are no perfect matching cut trip all four reports."""
    q3 = cube_graph()
    monkeypatch.setattr("pmcut.solver.cut_from_edge_set", lambda g, m: Cut((0,) * g.n))
    monkeypatch.setattr("pmcut.solver.is_perfect_matching", lambda g, m: True)
    e = q3.edge_id
    # one edge inside the bottom square, none inside the top one beside it
    report = lemma_oracles(q3, frozenset({e(0, 1)}))
    assert report.four_cycle and report.square_propagation
    # hexagon 1-2-3-7-4-5 misses 0 and 6; three of its six outgoing edges are in m
    assert lemma_oracles(q3, frozenset({e(0, 1), e(0, 3), e(0, 4)})).hex_three_out
    # hexagon 0..5 with rungs i-(i+6) and rails 6-7-8, 9-10-11: its edges but
    # the opposite pair (2, 3), (5, 0) sit in squares outside it
    ladders = Graph(12, [(i, (i + 1) % 6) for i in range(6)] + [(i, i + 6) for i in range(6)]
                    + [(6, 7), (7, 8), (9, 10), (10, 11)])
    assert lemma_oracles(ladders, frozenset({ladders.edge_id(0, 1)})).hex_square_pattern


def test_oracles_on_reduction_witness():
    art = reduce_formula(canonical_n3_formula())
    m = find_pmc(art.graph)
    assert lemma_oracles(art.graph, m).ok
    assert lemma_oracles(art.graph, pmc_from_assignment(art, (0, 1, 1))).ok


# sha256 over the four report lists of every lemma_oracles call in
# test_lemma_reports_pinned, in call order, then the canonical six_cycles list
LEMMA_REPORTS_SHA256 = "03ee0042e3740eae49bbf0d5cb4ef76f46a79284353f48c8c9e09f232238e6c2"


def test_lemma_reports_pinned(monkeypatch, variable_gadget, clause_gadget, crossing_gadget):
    """Witnesses, seeded non-witness edge sets and the canonical hexagon list
    give the reports and the order they had before the oracle was rewritten."""
    digest = hashlib.sha256()
    fired = [0] * 4

    def record(g, m):
        r = lemma_oracles(g, m)
        lists = (r.four_cycle, r.square_propagation, r.hex_three_out, r.hex_square_pattern)
        digest.update(repr(lists).encode())
        for k, xs in enumerate(lists):
            fired[k] += bool(xs)

    q3 = cube_graph()
    canonical = reduce_formula(canonical_n3_formula()).graph
    for g in (q3, canonical):
        record(g, find_pmc(g))

    real_cut = cut_from_edge_set
    monkeypatch.setattr("pmcut.solver.is_perfect_matching", lambda g, m: True)
    monkeypatch.setattr("pmcut.solver.cut_from_edge_set",
                        lambda g, m: real_cut(g, m) or Cut(tuple(v & 1 for v in range(g.n))))
    # the hexagon-with-squares graph of test_each_lemma_report_can_fire
    ladders = Graph(12, [(i, (i + 1) % 6) for i in range(6)] + [(i, i + 6) for i in range(6)]
                    + [(6, 7), (7, 8), (9, 10), (10, 11)])
    rng = random.Random(0x1E44)
    for g in (q3, ladders, variable_gadget.graph, clause_gadget.graph, crossing_gadget.graph):
        for k in range(24):
            p = (0.15, 0.3, 0.5)[k % 3]
            record(g, frozenset(e for e in range(g.m) if rng.random() < p))
    digest.update(repr(six_cycles(canonical)).encode())
    assert fired == [120, 80, 57, 64]
    assert digest.hexdigest() == LEMMA_REPORTS_SHA256
