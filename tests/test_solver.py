import copy
import hashlib
import itertools
import random
import tracemalloc

import networkx as nx
import pytest

from pmcut.formula import (
    NaeFormula,
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
from pmcut.reduction import _layout_order, reduce_formula
from pmcut.solver import (
    _IN,
    _OUT,
    BudgetExhausted,
    _PmcSearch,
    _parity_classes,
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
    vertex_row_classes,
)


# sha256 of the comma-joined sorted edge ids of find_pmc's canonical n=3 witness
CANONICAL_N3_WITNESS_SHA256 = "cbb3dac0569fd98bc2948b9cf8a64e902da59be92bf22d0b74d3f754843d2466"

# (n, seed) of random_e4_formula(n, Random(seed)) -> node count and witness
# sha256 of one search of its reduction, stopping at the first witness
SEEDED_SEARCH_PINS = {
    (6, 0): (2, "187b56def130d3c83f39e6a3c892944ef860e2340f3bfbd860cfe8c63c62e814"),
    (9, 9): (3, "f25d0d083ec0819e68b6f062f64a2bb2271b33882cd5fd1b7d67100fb20d23d2"),
    (12, 12): (6, "964579c46fbf790b689a01b22d448aeea002e615bd87cff9e325e5b6a3b593a8"),
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
        find_pmc(art.graph, budget=1)
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
    for k in range(1000):
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
    # the root classes leave the first 200 graphs 84 nodes in all
    assert check_undo_restores_fresh_tables() > 300


def row_solutions(g):
    """Every side vector, as an int with bit v for vertex v, that satisfies
    the vertex rows: each vertex has an odd number of neighbours across."""
    nbrs = [sum(1 << x for x in g.adj[v]) for v in range(g.n)]
    return [s for s in range(1 << g.n)
            if all(((s if s >> v & 1 == 0 else ~s) & nbrs[v]).bit_count() & 1
                   for v in range(g.n))]


def test_parity_classes_agree_with_every_solution_of_the_rows():
    """Two vertices share a key exactly when their relative side is the same
    in every side vector that satisfies the vertex rows, and that side is the
    xor of their constants; None comes exactly when there is no such vector.
    Half the graphs are drawn edge by edge, so some are disconnected or have
    isolated vertices."""
    rng = random.Random(3613)
    consistent = 0
    for k in range(300):
        n = rng.randrange(2, 13)
        if k % 2:
            g = random_bounded_graph(n + n % 2, rng.choice([3, 4, 5]), k % 4 == 1, rng)
        else:
            p = rng.random()
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        solutions = row_solutions(g)
        classes = _parity_classes(g)
        assert (classes is None) == (not solutions)
        if classes is None:
            continue
        consistent += 1
        key, side = classes
        for u, v in itertools.combinations(range(g.n), 2):
            relative = {(s >> u ^ s >> v) & 1 for s in solutions}
            assert (key[u] == key[v]) == (len(relative) == 1)
            if key[u] == key[v]:
                assert relative == {side[u] ^ side[v]}
    assert consistent > 60


def spliced_formula(n, seed):
    """The seeded formula and AG(2,3), shifted past it, with the seeded first
    clause {x, y, z} and AG(2,3)'s first line {a, b, c} swapped for {x, y, c}
    and {a, b, z}: E4 and unsatisfiable."""
    f, ag = random_e4_formula(n, random.Random(seed)), ag23_formula()
    (x, y, z), (a, b, c) = f.clauses[0], tuple(i + n for i in ag.clauses[0])
    lines = [tuple(i + n for i in line) for line in ag.clauses[1:]]
    return NaeFormula(n + 9, ((x, y, c), (a, b, z)) + f.clauses[1:] + tuple(lines))


@pytest.mark.parametrize("formula", [
    canonical_n3_formula(),
    ag23_formula(),
    random_e4_formula(6, random.Random(1)),
    random_e4_formula(9, random.Random(1)),
    random_e4_formula(12, random.Random(1)),
    random_e4_formula(21, random.Random(1)),
    spliced_formula(21, 1),
], ids=["canonical", "ag23", "n6-s1", "n9-s1", "n12-s1", "n21-s1", "spliced-n30-s1"])
def test_vertex_rows_leave_17_free_variables_per_clause_pair(formula):
    """The vertex rows of every reduction measured have 17m/2 free
    variables, so a perfect matching cut's sides have that many degrees of
    freedom before any edge is decided.  It is a measured invariant of the
    construction, not a claim of the paper.  Each free variable's key is one
    bit, and the keys of the others are sums of those bits."""
    formula.validate_e4()
    key, _ = _parity_classes(reduce_formula(formula).graph)
    assert max(key).bit_length() == 17 * formula.m // 2


def naive_closure(g, literals):
    """Edge labels of the closure of the four propagation rules over the
    literals (e In, ~e Out) and the classes of the vertex rows, recomputed
    from scratch, or None on a conflict or when the rows have no solution.

    Each round runs one parity BFS over the decided edges, the pair parity
    links and the links of each vertex to its class's least vertex, then
    applies matching, parity, pair parity and related partners to the labels
    the round started with."""
    classes = vertex_row_classes(g)
    if classes is None:
        return None
    label, relative = classes
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
        for v in range(g.n):
            link(v, label[v], relative[v])
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
    for k in range(3500):
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
    # the root fixpoint refutes most of these small graphs or leaves them
    # little to decide: 500 graphs gave 9 clean cases and 46 conflicts
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
    for k in range(4000):
        g = propagation_graph(k, rng)
        search = _PmcSearch(g)
        union = search._union

        def watched(u, v, parity):
            nonlocal in_scan
            ok = union(u, v, parity)
            in_scan += not ok
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
            assert search.queue == []
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
    # the root classes refute most of these graphs at the root: the first 300
    # gave 237 conflicts, 10 of them inside a union's scan
    assert conflicts > 400 and in_scan > 100


def test_canonical_search_pinned():
    nodes, m = first_witness(reduce_formula(canonical_n3_formula()).graph)
    assert nodes == 2
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
    # switching a square with two opposite edges in m gives another perfect
    # matching, which is no cutset
    g = art.graph
    switched = next(m ^ square for square in (
        frozenset(g.edge_id(*pair) for pair in zip(cyc, cyc[1:] + cyc[:1]))
        for cyc in induced_four_cycles(g)) if len(m & square) == 2)
    assert is_perfect_matching(g, switched) and cut_from_edge_set(g, switched) is None
    with pytest.raises(ValueError, match="witness is not a cutset"):
        assignment_from_pmc(art, switched)


@pytest.mark.parametrize("n,seed", [(6, 0), (6, 1), (9, 1)])
def test_witness_maps_under_reordered_layout(n, seed):
    """Clause ports follow the layout order, not the clause's index order."""
    f = random_e4_formula(n, random.Random(seed))
    art = reduce_formula(f)
    index_ports = {(i, j): "abc"[k] for j, clause in enumerate(f.clauses, 1)
                   for k, i in enumerate(sorted(clause))}
    assert _layout_order(f)[0] != tuple(range(n, 0, -1))
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
    assert nodes == 16


def test_refutation_trail_pinned():
    """The kernel's cost on AG(2,3) over the whole refutation: trail entries
    propagated plus undone, those written by propagations that end in a
    conflict, and literals popped.  A literal is decided when it is queued,
    so the trail holds the literals a conflict leaves unpopped too; each
    decided literal is pushed once and popped unless a conflict stops the
    propagation first.  The root's scan of the seeded classes writes its
    entries before the first propagation, so they count as popped but not
    as propagated."""
    g = reduce_formula(ag23_formula()).graph
    search = _PmcSearch(g)
    propagate, undo = search._propagate, search._undo_to
    moved = conflicting = popped = 0

    def counted_propagate(queue):
        nonlocal moved, conflicting, popped
        mark, before = len(search.trail), len(search.queue)
        ok = propagate(queue)
        written = search.trail[mark:]
        moved += len(written)
        if not ok:
            conflicting += len(written)
        # entries >= 0 are decided literals, the rest unions
        popped += before + sum(t >= 0 for t in written) - len(search.queue)
        return ok

    def counted_undo(mark):
        nonlocal moved
        moved += len(search.trail) - mark
        undo(mark)

    search._propagate, search._undo_to = counted_propagate, counted_undo
    assert next(search.solutions(None), None) is None
    assert (search.nodes, moved, conflicting, popped) == (16, 36721, 16564, 10194)


@pytest.mark.parametrize("formula", [
    canonical_n3_formula(),
    random_e4_formula(6, random.Random(0)),
    random_e4_formula(6, random.Random(1)),
    random_e4_formula(9, random.Random(9)),
    ag23_formula(),
], ids=["canonical", "n6-s0", "n6-s1", "n9-s9", "ag23"])
def test_root_probing_puts_every_connector_out(formula):
    """No connector edge lies in a perfect matching cut, and the root fixpoint
    alone shows it for each of them, with no probe and without the search
    knowing connectors."""
    art = reduce_formula(formula)
    search = _PmcSearch(art.graph)
    assert search._root_fixpoint()
    connectors = [art.graph.edge_id(u, v) for u, v, _ in art.connectors]
    assert all(search.state[e] == _OUT for e in connectors)


# (n, seed) -> node count and witness sha256 of searches on the larger seeded
# reductions, which a search without the root classes took 492-543 nodes on
SEEDED_SAT_PINS = {
    (24, 1): (13, "0a9afd43c227f925a615f7aa99294e4bddae4d46ba0caec9215d233be955d2d2"),
    (24, 7): (10, "d4a47b0d3caed8afaf49c2ea2eebdb0f97c3dc2a3e4670bdee11805253728891"),
    (30, 1): (84, "199a4b833c2eec7c62304294eb11b38ea714aa380cf129dfa3945b850431caf9"),
}


@pytest.mark.parametrize("n,seed", sorted(SEEDED_SAT_PINS))
def test_seeded_sat_search_within_budget(n, seed):
    g = reduce_formula(random_e4_formula(n, random.Random(seed))).graph
    search = _PmcSearch(g)
    m = next(search.solutions(15_000))
    assert verified(g, m)
    assert (search.nodes, witness_sha256(m)) == SEEDED_SAT_PINS[(n, seed)]


def test_search_tables_stay_small(monkeypatch):
    """A search holds under 170 bytes per vertex on the seeded n = 30
    reduction, as tracemalloc counts what its constructor leaves allocated:
    flat tables, one flag per vertex for matched and one vertex list per
    class of the vertex rows, with an edge's far end read from the xor of its
    ends and its two ends from the graph's edges.  One one-vertex list per
    vertex, before the classes, held 151-156.  Copying those ends into two lists and
    keeping a size per vertex took it to 185-190; a tuple of (edge,
    neighbour) pairs per vertex would raise it to about 440.  The classes are
    solved before tracing starts, since the constructor keeps none of the
    elimination's temporaries and tracing them takes most of the time."""
    g = reduce_formula(random_e4_formula(30, random.Random(1))).graph
    assert g.n == 23_992
    classes = _parity_classes(g)
    monkeypatch.setattr("pmcut.solver._parity_classes", lambda g: classes)
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
    k4 = complete_graph(4)
    matching = frozenset({k4.edge_id(0, 1), k4.edge_id(2, 3)})
    assert is_perfect_matching(k4, matching)
    with pytest.raises(ValueError, match="m is not a cutset"):
        lemma_oracles(k4, matching)
    with pytest.raises(ValueError, match="maximum degree 3"):
        lemma_oracles(complete_graph(5), frozenset())


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
