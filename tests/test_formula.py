import hashlib
import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmcut import solve_nae
from pmcut.formula import (
    FormulaError,
    NaeFormula,
    ag23_formula,
    canonical_n3_formula,
    incidence_graph,
    nae_satisfies,
    parse_formula,
    random_e4_formula,
    serialize_formula,
    solve_nae_bruteforce,
    split_variable_cutvertices,
    variable_cutvertices,
)
from pmcut.graphs import random_cubic_graph

from _oracles import complement, random_e4_formula_unfiltered

N3_TEXT = "nae3sat-e4 3 4\n1 2 3\n1 2 3\n1 2 3\n1 2 3\n"


def test_parse_smallest_legal_instance():
    f = parse_formula(N3_TEXT)
    assert f == NaeFormula(3, ((1, 2, 3),) * 4)
    f.validate_e4()


def test_parse_rejects_repeated_literal():
    bad = N3_TEXT.replace("1 2 3\n", "1 1 2\n", 1)
    with pytest.raises(FormulaError, match="distinct"):
        parse_formula(bad)


def test_parse_rejects_wrong_occurrence_count():
    text = "nae3sat-e4 3 4\n1 2 3\n1 2 3\n1 2 3\n1 3 2\n"
    parse_formula(text)  # reordered triple is still the same occurrence profile
    text = "nae3sat-e4 6 8\n" + "1 2 3\n" * 4 + "4 5 6\n" * 3 + "1 4 5\n"
    with pytest.raises(FormulaError, match="occurs"):
        parse_formula(text)


def test_parse_reports_line_numbers():
    with pytest.raises(FormulaError, match="line 3"):
        parse_formula("nae3sat-e4 3 4\n1 2 3\n1 2\n1 2 3\n1 2 3\n")
    with pytest.raises(FormulaError, match=r"line 5: clause \(1, 2, 4\) out of range for n=3"):
        parse_formula("nae3sat-e4 3 4\n1 2 3\n1 2 3\n1 2 3\n1 2 4\n")


def test_parse_rejects_non_multiple_of_three():
    with pytest.raises(FormulaError):
        parse_formula("nae3sat-e4 4 5\n" + "1 2 3\n" * 5)


def test_generated_instance_parses(tmp_path):
    f = random_e4_formula(6, random.Random(1))
    assert parse_formula(serialize_formula(f)) == f


def test_comments_and_roundtrip():
    text = "# comment\n" + N3_TEXT
    f = parse_formula(text)
    assert parse_formula(serialize_formula(f)) == f


def test_nae_satisfies_basics():
    f = canonical_n3_formula()
    assert nae_satisfies(f, (0, 1, 1))
    assert not nae_satisfies(f, (0, 0, 0))
    assert not nae_satisfies(f, (1, 1, 1))


@pytest.mark.parametrize("a,bad", [((0, 1, 2), "entry 3 is 2"), ((0, 1, -1), "entry 3 is -1"),
                                   ((0.5, 1, 0), "entry 1 is 0.5")])
def test_nae_satisfies_rejects_entries_other_than_0_and_1(a, bad):
    with pytest.raises(FormulaError, match=bad):
        nae_satisfies(canonical_n3_formula(), a)


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2 ** 9 - 1))
def test_complement_closure(bits):
    f = ag23_formula()
    a = tuple((bits >> i) & 1 for i in range(f.n))
    assert nae_satisfies(f, a) == nae_satisfies(f, complement(a))


def test_bruteforce_canonical_assignment():
    # exhaustion with variable 1 pinned to side A visits (0,0,0) then (0,1,0)
    assert solve_nae_bruteforce(canonical_n3_formula()) == (0, 1, 0)


def test_bruteforce_empty_formula():
    assert solve_nae_bruteforce(NaeFormula(0, ())) == ()


def test_bruteforce_guard():
    f = NaeFormula(30, tuple((1 + 3 * (k % 10), 2 + 3 * (k % 10), 3 + 3 * (k % 10))
                             for k in range(40)))
    with pytest.raises(FormulaError, match="guard"):
        solve_nae_bruteforce(f)


def test_dpll_agrees_with_bruteforce():
    """The DPLL returns brute force's first assignment, or None with it, on
    seeded E4 formulas and on denser random ones, many unsatisfiable."""
    rng = random.Random(18)
    unsat = 0
    for k in range(400):
        if k % 2:
            f = random_e4_formula_unfiltered(rng.choice([3, 6, 9, 12, 15, 18]), rng)
        else:
            n = rng.randint(3, 18)
            f = NaeFormula(n, tuple(tuple(rng.sample(range(1, n + 1), 3))
                                    for _ in range(rng.randint(n, 4 * n))))
        a = solve_nae(f)
        assert a == solve_nae_bruteforce(f)
        unsat += a is None
    assert unsat > 40
    assert solve_nae(ag23_formula()) is None
    assert solve_nae(NaeFormula(0, ())) == ()


@pytest.mark.parametrize("n", [27, 48, 300])
def test_dpll_beyond_the_bruteforce_guard(n):
    f = random_e4_formula_unfiltered(n, random.Random(n))
    assert nae_satisfies(f, solve_nae(f))


def test_ag23_is_unsat_e4():
    ag = ag23_formula()
    ag.validate_e4()
    assert solve_nae_bruteforce(ag) is None
    assert incidence_graph(ag).is_connected()
    assert variable_cutvertices(ag) == ()


def test_no_unsat_e4_instance_below_nine_variables():
    """Exhaust every E4 instance with n=6 (up to clause order); all are
    satisfiable, so the n=9 affine-plane fixture is the smallest unsatisfiable
    one among n in {3, 6, 9}."""
    assert solve_nae_bruteforce(canonical_n3_formula()) is not None
    types = list(combinations(range(1, 7), 3))
    sat = unsat = 0

    cur: list[tuple[int, int, int]] = []

    def dfs(idx, remaining, deg):
        nonlocal sat, unsat
        if remaining == 0:
            if all(d == 4 for d in deg[1:]):
                if solve_nae_bruteforce(NaeFormula(6, tuple(cur))) is not None:
                    sat += 1
                else:
                    unsat += 1
            return
        if idx == len(types):
            return
        if sum(4 - d for d in deg[1:]) != 3 * remaining:
            return
        t = types[idx]
        for c in range(min(remaining, min(4 - deg[v] for v in t)), -1, -1):
            for v in t:
                deg[v] += c
            cur.extend([t] * c)
            dfs(idx + 1, remaining - c, deg)
            del cur[len(cur) - c:]
            for v in t:
                deg[v] -= c

    dfs(0, 8, [0] * 7)
    assert sat == 2905 and unsat == 0


def test_canonical_is_the_only_n3_instance():
    # with three variables every clause must be {1,2,3}, so the canonical
    # instance is the only E4 formula on n=3 up to clause reordering
    triples = [(x, y, z) for x in range(1, 4) for y in range(1, 4) for z in range(1, 4)
               if len({x, y, z}) == 3]
    assert {tuple(sorted(t)) for t in triples} == {(1, 2, 3)}
    canonical_n3_formula().validate_e4()


def test_incidence_graph_shape():
    f = canonical_n3_formula()
    g = incidence_graph(f)
    assert g.n == 7
    assert all(g.degree(v) == 4 for v in range(3))
    assert all(g.degree(v) == 3 for v in range(3, 7))


def test_split_no_cutvertex_is_identity():
    f = canonical_n3_formula()
    assert split_variable_cutvertices(f) == [f]


def _two_block_formula():
    """Two E4-ish blocks sharing variable 5, which is an incidence cutvertex."""
    block1 = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (3, 4, 5)]
    block2 = [(6, 7, 8), (6, 7, 9), (6, 8, 9), (7, 8, 9), (6, 7, 5), (8, 9, 5)]
    return NaeFormula(9, tuple(block1 + block2))


def test_split_two_blocks():
    f = _two_block_formula()
    f.validate_e4()
    assert variable_cutvertices(f) == (5,)
    parts = split_variable_cutvertices(f)
    assert len(parts) == 2
    for part in parts:
        assert variable_cutvertices(part) == ()
    # one extra variable node per split performed
    assert sum(p.n for p in parts) == f.n + (len(parts) - 1)
    # conjunction of satisfiability is preserved
    whole = solve_nae_bruteforce(f) is not None
    split_sat = all(solve_nae_bruteforce(p) is not None for p in parts)
    assert whole == split_sat


def test_variable_cutvertices_agree_with_networkx():
    """Full E4 formulas and sub-formulas with about 30% of clauses dropped."""
    rng = random.Random(4242)
    with_cuts = 0
    for k in range(600):
        f = random_e4_formula_unfiltered(rng.choice([3, 6, 9, 12, 15]), rng)
        if k % 2:
            f = NaeFormula(f.n, tuple(c for c in f.clauses if rng.random() >= 0.3))
        g = incidence_graph(f)
        h = nx.Graph(g.edges)
        h.add_nodes_from(range(g.n))
        expected = tuple(sorted(v + 1 for v in nx.articulation_points(h) if v < f.n))
        assert variable_cutvertices(f) == expected
        with_cuts += bool(expected)
    assert with_cuts >= 10


def test_split_empty_formula():
    f = NaeFormula(0, ())
    assert split_variable_cutvertices(f) == [f]


def test_split_disconnected_components():
    # two disjoint copies of the canonical instance: still E4, but the
    # incidence graph is disconnected; components are handled independently
    f = NaeFormula(6, ((1, 2, 3),) * 4 + ((4, 5, 6),) * 4)
    f.validate_e4()
    assert not incidence_graph(f).is_connected()
    parts = split_variable_cutvertices(f)
    assert len(parts) == 2
    assert all(p == canonical_n3_formula() for p in parts)


# sha256 over the reprs of every output of test_seeded_generators_pinned, in order
GENERATORS_SHA256 = "0509ffe1e9117c94524f38899db6bd7fcfe9d4a2d7adf4df794be194280bc66c"


def test_seeded_generators_pinned():
    """Seeded formulas (reducible and unfiltered), seeded cubic graphs
    and the splits of seeded formulas and sub-formulas are pinned, so a change
    to a generator's or the splitter's checks that re-generates or re-splits
    any instance moves the digest."""
    digest = hashlib.sha256()
    rng = random.Random(0x5EED)
    parts = 0
    for k in range(120):
        n = rng.randrange(3, 49, 3)
        f = (random_e4_formula if k % 2 else random_e4_formula_unfiltered)(n, rng)
        g = random_cubic_graph(rng.randrange(4, 27, 2), rng)
        drop = (0.3, 0.5, 0.7)[k % 3]
        sub = NaeFormula(f.n, tuple(c for c in f.clauses if rng.random() >= drop))
        split = split_variable_cutvertices(f) + split_variable_cutvertices(sub)
        parts += len(split)
        digest.update(repr((f, g.n, g.edges, split)).encode())
    assert parts > 400
    assert digest.hexdigest() == GENERATORS_SHA256


def test_random_e4_profile():
    rng = random.Random(5)
    for n in (6, 9):
        f = random_e4_formula(n, rng)
        f.validate_e4()
        counts = f.occurrence_counts()
        assert all(counts[i] == 4 for i in range(1, n + 1))
        assert variable_cutvertices(f) == ()
