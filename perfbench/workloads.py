"""Workload inputs, the step list of one operation, and the answer checks.

An operation takes one formula through its workload's whole step list.  It
fails when a step raises, refuses, runs out of search budget or gives an
answer that its reference contradicts; a failed operation is counted, never
dropped.  The references are independent of the code under test: the
brute-force NAE solver for every verdict, the size law |V| = 36n + 112m + 16q,
the Barnette property the construction guarantees, a direct parity walk for
every matching cut, and field-by-field comparison for every file round trip.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from pmcut.solver import BudgetExhausted

DEFAULT_SEED = 1
# n = 18 would straddle is_3_connected's 20000-vertex guard (about a third of
# seeds compile under it), so whether it is refused would depend on the seed.
# From n = 21 up every seed is refused, and n = 15 stays well below.
COMPILE_SIZES = (9, 12, 15, 21, 24, 30)
# find_pmc's time to a first witness varies from one instance to the next:
# fourfold at n = 12, with a coefficient of variation of 0.4 at n = 9 and
# 0.24 at n = 6.  Only n = 6 averages out over the instances a run can afford.
ROUNDTRIP_SIZES = (6, 6, 6, 6)
# Ladders per untraced run.  Compile time grows with the crossing count and
# roundtrip time with search depth, both of which vary from seed to seed;
# several ladders per run average that out.  A traced run uses the first.
LADDERS = {"compile": 3, "refute": 1, "roundtrip": 18}

# Failure kinds that are outcomes the program reports about itself; any
# other failure is a wrong answer or a crash, which makes the run incorrect.
REPORTED_FAILURES = ("refused", "budget")


@dataclass
class OpResult:
    m: int
    failures: list[tuple[str, str]] = field(default_factory=list)
    artifact: object = None
    graph_text: str | None = None

    def fail(self, kind: str, detail: str) -> None:
        self.failures.append((kind, detail))


def _ladder(api, workload: str, rng: random.Random) -> list:
    fm = api.formula
    if workload == "compile":
        return [fm.random_e4_formula(n, rng) for n in COMPILE_SIZES]
    if workload == "refute":
        return [fm.ag23_formula()]
    # All SAT by definition of the workload: redraw any UNSAT instance.
    out = [fm.canonical_n3_formula()]
    for n in ROUNDTRIP_SIZES:
        f = fm.random_e4_formula(n, rng)
        while fm.solve_nae_bruteforce(f) is None:
            f = fm.random_e4_formula(n, rng)
        out.append(f)
    return out


def make_inputs(api, workload: str, seed: int) -> list[list]:
    """The workload's ladders of formulas; the same seed gives the same ladders."""
    rng = random.Random(seed)
    return [_ladder(api, workload, rng) for _ in range(LADDERS[workload])]


# Local perfect-matching-cut restrictions of the variable, clause and
# crossing gadgets, as the construction proves them.
CENSUS_SIZES = (1, 3, 8)


def census(api) -> tuple[int, ...]:
    """Build the three gadgets and count each one's local census."""
    gd = api.gadgets
    return tuple(len(gd.enumerate_local_pmcs(build()))
                 for build in (gd.build_variable_gadget, gd.build_clause_gadget,
                               gd.build_crossing_gadget))


# --- references ---------------------------------------------------------------

def _same_graph(g, emb, g2, emb2) -> bool:
    """Equal vertex count, edge set and clockwise rotations (as endpoint pairs)."""
    if g.n != g2.n or sorted(g.edges) != sorted(g2.edges) or emb2 is None:
        return False
    return all([g.edges[e] for e in emb.rotations[v]] == [g2.edges[e] for e in emb2.rotations[v]]
               for v in range(g.n))


def _is_matching_cut(g, m) -> bool:
    """Each vertex on exactly one edge of m, and sides 2-colour consistently
    when edges of m flip side and all other edges keep it."""
    cover = [0] * g.n
    for e in m:
        for v in g.edges[e]:
            cover[v] += 1
    if not m or any(c != 1 for c in cover):
        return False
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] != -1:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for e, w in zip(g.inc[v], g.adj[v]):
                want = side[v] ^ (e in m)
                if side[w] == -1:
                    side[w] = want
                    stack.append(w)
                elif side[w] != want:
                    return False
    return True


def _nae(f, a) -> bool:
    return all(len({a[x - 1] for x in c}) == 2 for c in f.clauses)


# --- steps ----------------------------------------------------------------------

def _reduce(api, f, res: OpResult):
    art = api.reduction.reduce_formula(f)
    if art.graph.n != 36 * f.n + 112 * f.m + 16 * art.q:
        res.fail("wrong", f"size law: |V|={art.graph.n} with q={art.q}")
    res.artifact = art
    return art


def _check_witness(api, g, m, what: str, res: OpResult) -> None:
    ok = api.graphs.is_perfect_matching(g, m) and api.graphs.cut_from_edge_set(g, m) is not None
    if not (ok and _is_matching_cut(g, m)):
        res.fail("wrong", f"{what} is not a perfect matching cut")


def compile_op(api, f, text: str) -> OpResult:
    """parse, reduce, write both files, read the graph back, certify, render."""
    res = OpResult(f.m)
    parsed = api.formula.parse_formula(text)
    if (parsed.n, parsed.clauses) != (f.n, f.clauses):
        res.fail("wrong", "formula file did not round-trip")
    art = _reduce(api, parsed, res)
    gr = api.graphs
    res.graph_text = gr.serialize_graph(art.graph, art.embedding)
    prov = api.reduction.serialize_provenance(art)
    g = art.graph
    if sum(line.startswith("vertex ") for line in prov.splitlines()) != g.n:
        res.fail("wrong", "provenance file does not list every vertex")
    g2, emb2 = gr.parse_graph(res.graph_text)
    if not _same_graph(g, art.embedding, g2, emb2):
        res.fail("wrong", "graph file did not round-trip")
    if not gr.is_cubic(g):
        res.fail("wrong", "not cubic")
    cut = gr.is_bipartite(g)
    if cut is None or any(cut.sides[u] == cut.sides[v] for u, v in g.edges):
        res.fail("wrong", "not bipartite")
    if not gr.is_planar_embedding(g, art.embedding):
        res.fail("wrong", "embedding fails the Euler check")
    try:
        if not gr.is_3_connected(g):
            res.fail("wrong", "not 3-connected")
    except ValueError as exc:
        res.fail("refused", str(exc))
    svg = api.render.render_svg(art)
    dot = api.render.render_dot(art)
    # Each occurrence is a two-wire bundle; every crossing splits two bundles.
    if svg.count('class="crossing"') != art.q or dot.count(" -- ") != 6 * f.m + 4 * art.q:
        res.fail("wrong", "rendering lost crossings or connectors")
    return res


def _decide(api, f, art, res: OpResult):
    """find_pmc on the compiled graph, checked against brute force on the formula."""
    a = api.formula.solve_nae_bruteforce(f)
    try:
        m = api.solver.find_pmc(art.graph)
    except BudgetExhausted as exc:
        res.fail("budget", str(exc))
        return a, None
    if (m is None) != (a is None):
        res.fail("wrong", f"find_pmc says {'no' if m is None else 'yes'}, brute force disagrees")
        return a, None
    return a, m


def refute_op(api, f, text: str) -> OpResult:
    """reduce, exhaustive find_pmc that must answer no, brute-force agreement."""
    res = OpResult(f.m)
    art = _reduce(api, f, res)
    a, m = _decide(api, f, art, res)
    if a is not None:
        res.fail("wrong", "refute instance is satisfiable")
    return res


def _witness_steps(api, f, art, res: OpResult) -> None:
    a, m = _decide(api, f, art, res)
    if m is None:
        return
    g = art.graph
    _check_witness(api, g, m, "found witness", res)
    b = api.solver.assignment_from_pmc(art, m)
    if not (api.formula.nae_satisfies(f, b) and _nae(f, b)):
        res.fail("wrong", "decoded assignment is not NAE-satisfying")
    w = api.solver.pmc_from_assignment(art, a)
    _check_witness(api, g, w, "rebuilt witness", res)
    if not api.solver.lemma_oracles(g, m).ok:
        res.fail("wrong", "lemma oracles report a violation")


def roundtrip_op(api, f, text: str) -> OpResult:
    """reduce, decide, then both witness maps and the lemma oracles."""
    res = OpResult(f.m)
    _witness_steps(api, f, _reduce(api, f, res), res)
    return res


def full_op(api, f, text: str) -> OpResult:
    res = compile_op(api, f, text)
    _witness_steps(api, f, res.artifact, res)
    return res


# The warm-up operation runs every step of every workload.
OPS = {"compile": compile_op, "refute": refute_op, "roundtrip": roundtrip_op,
       "warmup": full_op}


def run_op(api, kind: str, f, text: str) -> OpResult:
    """One operation; an exception in a step is a failure of that operation."""
    try:
        return OPS[kind](api, f, text)
    except Exception as exc:  # noqa: BLE001 - a crash is recorded as a failed operation
        res = OpResult(f.m)
        res.fail("error", f"{type(exc).__name__}: {exc}")
        return res
