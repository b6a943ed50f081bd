"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Shared heavy work (reductions, solver runs, the cubic catalog)
lives in session fixtures so the criteria can also be run individually.
"""

import itertools
import random
import time

import pytest

from pmcut.formula import (
    canonical_n3_formula,
    nae_satisfies,
    random_e4_formula,
    solve_nae_bruteforce,
)
from pmcut.gadgets import (
    FigureError,
    build_clause_gadget,
    build_crossing_gadget,
    build_variable_gadget,
    census_types,
    enumerate_local_pmcs,
    side_relations,
)
from pmcut.graphs import (
    cube_graph,
    cut_from_edge_set,
    is_3_connected,
    is_bipartite,
    is_cubic,
    is_perfect_matching,
    is_planar_embedding,
    random_cubic_graph,
)
from pmcut.reduction import reduce_formula
from pmcut.solver import find_pmc, find_pmc_bruteforce, lemma_oracles, \
    assignment_from_pmc, enumerate_pmcs, pmc_from_assignment

from _catalog import KNOWN_COUNTS, connected_cubic_catalog
from _oracles import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_cutset_via_cycle_basis,
    random_planar_embedded,
)

pytestmark = pytest.mark.acceptance


def _report(name: str, ok: bool) -> None:
    print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="session")
def gadget_censuses():
    t0 = time.time()
    gadgets = {
        "variable": build_variable_gadget(),
        "clause": build_clause_gadget(),
        "crossing": build_crossing_gadget(),
    }
    censuses = {k: enumerate_local_pmcs(g) for k, g in gadgets.items()}
    return gadgets, censuses, time.time() - t0


@pytest.fixture(scope="session")
def certified_instances(random_instances):
    """Criterion 4 workload: artifacts plus their Barnette verdicts."""
    t0 = time.time()
    rows = []
    for f in [canonical_n3_formula()] + random_instances:
        art = reduce_formula(f)
        rows.append({
            "formula": f,
            "artifact": art,
            "cubic": is_cubic(art.graph),
            "bipartite": is_bipartite(art.graph) is not None,
            "planar": is_planar_embedding(art.graph, art.embedding),
            "three_connected": is_3_connected(art.graph),
            "size_law": art.graph.n == 36 * f.n + 112 * f.m + 16 * art.q,
        })
    return rows, time.time() - t0


@pytest.fixture(scope="session")
def roundtrip_results(certified_instances):
    """Criterion 5 workload: solver and witness mappings on each instance."""
    rows, _ = certified_instances
    t0 = time.time()
    out = []
    for row in rows:
        f, art = row["formula"], row["artifact"]
        sat = solve_nae_bruteforce(f)
        m = find_pmc(art.graph)  # default budget; BudgetExhausted would fail loudly
        rec = {"formula": f, "artifact": art, "sat": sat, "pmc": m}
        if m is not None:
            rec["recovered"] = assignment_from_pmc(art, m)
        if sat is not None:
            rec["constructed"] = pmc_from_assignment(art, sat)
        out.append(rec)
    return out, time.time() - t0


@pytest.fixture(scope="session")
def catalog_results():
    """Criterion 6 workload: exhaustive and randomized solver agreement."""
    t0 = time.time()
    levels = connected_cubic_catalog(16)
    witnesses = []
    agree = True
    for level in levels:
        for g in level:
            m1 = find_pmc(g)
            m2 = find_pmc_bruteforce(g)
            agree &= (m1 is None) == (m2 is None)
            for m in (m1, m2):
                if m is not None:
                    agree &= is_perfect_matching(g, m)
                    agree &= cut_from_edge_set(g, m) is not None
            if m1 is not None:
                witnesses.append((g, m1))
    rng = random.Random(20240817)
    randoms = []
    for _ in range(200):
        g = random_cubic_graph(rng.choice([8, 10, 12, 14, 16, 18, 20, 22, 24]), rng)
        m1 = find_pmc(g)
        m2 = find_pmc_bruteforce(g)
        agree &= (m1 is None) == (m2 is None)
        if m1 is not None:
            witnesses.append((g, m1))
        randoms.append(g)
    counts = [len(level) for level in levels]
    return {"levels": levels, "counts": counts, "agree": agree,
            "witnesses": witnesses, "elapsed": time.time() - t0}


def test_criterion_1_gadget_sizes(gadget_censuses):
    gadgets, _, _ = gadget_censuses
    t0 = time.time()
    ok = gadgets["variable"].graph.n == 36 and len(gadgets["variable"].ports) == 8
    ok &= gadgets["clause"].graph.n == 112 and len(gadgets["clause"].ports) == 6
    ok &= gadgets["crossing"].graph.n == 16
    ok &= all(len(gadgets["crossing"].marks[sq]) == 4 for sq in ("BL", "BR", "TL", "TR"))
    ok &= time.time() - t0 < 1.0
    _report("criterion 1 (gadget size laws)", ok)


def test_criterion_2_census_theorems(gadget_censuses):
    gadgets, censuses, elapsed = gadget_censuses
    try:
        for kind, gadget in gadgets.items():
            census_types(gadget, censuses[kind])
        ok = True
    except FigureError:
        ok = False
    ok &= elapsed < 60.0  # clause census bound
    _report("criterion 2 (census theorems)", ok)


def test_criterion_3_side_relations(gadget_censuses):
    gadgets, censuses, _ = gadget_censuses
    var = gadgets["variable"]
    table = side_relations(var, censuses["variable"][0])
    ok = len({table[f"{k}{s}"] for k in "tb" for s in "1234"}) == 1

    clause = gadgets["clause"]
    separated = {}
    for t, c in census_types(clause, censuses["clause"]).items():
        side = cut_from_edge_set(clause.graph, c).sides
        u1, u8, u14 = (side[clause.names[x]] for x in ("u1", "u8", "u14"))
        lone = [x for x, s in (("u1", u1), ("u8", u8), ("u14", u14))
                if (u1, u8, u14).count(s) == 1]
        separated[t] = lone
    ok &= separated == {1: ["u1"], 2: ["u14"], 3: ["u8"]}

    cross = gadgets["crossing"]
    p1, p2 = census_types(cross, censuses["crossing"]).values()
    t1, t2 = side_relations(cross, p1), side_relations(cross, p2)
    bundle_a = ["u1", "u2", "v1", "v2"]
    bundle_b = ["u1'", "u2'", "v1'", "v2'"]
    ok &= len({t1[p] for p in bundle_a + bundle_b}) == 1
    ok &= len({t2[p] for p in bundle_a}) == 1
    ok &= len({t2[p] for p in bundle_b}) == 1
    ok &= t2["u1"] != t2["u1'"]
    _report("criterion 3 (side relations)", ok)


def test_criterion_4_barnette_certification(certified_instances):
    rows, elapsed = certified_instances
    ok = len(rows) == 21
    for row in rows:
        ok &= row["cubic"] and row["bipartite"] and row["planar"]
        ok &= row["three_connected"] and row["size_law"]
    ok &= elapsed < 300.0
    _report(f"criterion 4 (Barnette certification, {elapsed:.1f}s)", ok)


def test_criterion_5_theorem_roundtrip(roundtrip_results):
    rows, elapsed = roundtrip_results
    ok = True
    for rec in rows:
        sat, m = rec["sat"], rec["pmc"]
        ok &= (sat is None) == (m is None)
        if m is not None:
            f, art = rec["formula"], rec["artifact"]
            ok &= nae_satisfies(f, rec["recovered"])
            built = rec["constructed"]
            ok &= is_perfect_matching(art.graph, built)
            ok &= cut_from_edge_set(art.graph, built) is not None
    ok &= elapsed < 600.0
    _report(f"criterion 5 (theorem roundtrip, {elapsed:.1f}s)", ok)


def test_criterion_6_solver_oracle_equivalence(catalog_results):
    ok = catalog_results["counts"] == [KNOWN_COUNTS[n] for n in range(4, 17, 2)]
    ok &= catalog_results["agree"]
    ok &= find_pmc(cube_graph()) is not None
    ok &= find_pmc(complete_graph(4)) is None
    ok &= find_pmc(complete_bipartite_graph(3, 3)) is None
    ok &= find_pmc(cycle_graph(6)) is None
    ok &= find_pmc(cycle_graph(4)) is not None
    _report(f"criterion 6 (solver equivalence, {catalog_results['elapsed']:.1f}s)", ok)


def test_criterion_7_lemma_oracle_suite(gadget_censuses, roundtrip_results,
                                        catalog_results):
    t0 = time.time()
    gadgets, censuses, _ = gadget_censuses
    ok = True
    for kind, census in censuses.items():
        for c in census:
            ok &= lemma_oracles(gadgets[kind].graph, c).ok
    for rec in roundtrip_results[0]:
        art = rec["artifact"]
        for key in ("pmc", "constructed"):
            if rec.get(key) is not None:
                ok &= lemma_oracles(art.graph, rec[key]).ok
    for g, m in catalog_results["witnesses"]:
        ok &= lemma_oracles(g, m).ok

    rng = random.Random(0xFACADE)
    pairs = 0
    while pairs < 1000:
        g, emb = random_planar_embedded(rng.randrange(5, 13), rng)
        for _ in range(5):
            m = [e for e in range(g.m) if rng.random() < 0.4]
            if not m:
                continue
            ok &= (is_cutset_via_cycle_basis(g, emb, m)
                   == (cut_from_edge_set(g, m) is not None))
            pairs += 1
    _report(f"criterion 7 (lemma oracle suite, {time.time() - t0:.1f}s)", ok)


def test_criterion_8_parsimony():
    """The reduction is a bijection between NAE assignments up to complement
    and perfect matching cuts: enumerate_pmcs finds half as many cuts as
    there are NAE assignments, and the two witness maps invert each other on
    every cut it finds."""
    t0 = time.time()
    formulas = [canonical_n3_formula()]
    formulas += [random_e4_formula(6, random.Random(seed)) for seed in range(1, 6)]
    formulas += [random_e4_formula(9, random.Random(seed)) for seed in (1, 2)]
    ok = True
    cuts = 0
    for f in formulas:
        art = reduce_formula(f)
        nae = sum(nae_satisfies(f, a) for a in itertools.product((0, 1), repeat=f.n))
        pmcs = enumerate_pmcs(art.graph)
        ok &= len(pmcs) == nae // 2
        ok &= all(pmc_from_assignment(art, assignment_from_pmc(art, m)) == m for m in pmcs)
        cuts += len(pmcs)
    ok &= cuts > len(formulas)
    _report(f"criterion 8 (parsimony, {cuts} cuts, {time.time() - t0:.1f}s)", ok)
