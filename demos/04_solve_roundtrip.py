"""Solving: both witness directions, and a complete refutation.

The solver interleaves matching closure with parity closure over a trail;
the published 4-cycle and 6-cycle facts are never hand-coded but re-emerge
as oracles checked on every witness.
"""

from pmcut import (
    ag23_formula,
    assignment_from_pmc,
    canonical_n3_formula,
    cut_from_edge_set,
    find_pmc,
    find_pmc_bruteforce,
    is_perfect_matching,
    lemma_oracles,
    nae_satisfies,
    pmc_from_assignment,
    reduce_formula,
    solve_nae_bruteforce,
)
from pmcut.graphs import cube_graph

# Small fixtures first: the cube has a perfect matching cut, K4 does not.
q3 = cube_graph()
print("Q3 witness:", sorted(find_pmc(q3)), "oracle agrees:",
      find_pmc_bruteforce(q3) == find_pmc(q3))

# The full theorem on the canonical instance, in both directions.
f = canonical_n3_formula()
art = reduce_formula(f)

a = solve_nae_bruteforce(f)
m = pmc_from_assignment(art, a)
print(f"\nassignment {a} -> witness of {len(m)} edges")
print("  perfect matching:", is_perfect_matching(art.graph, m))
print("  cutset:", cut_from_edge_set(art.graph, m) is not None)

found = find_pmc(art.graph)
print(f"\nsolver on {art.graph.n} vertices: witness of {len(found)} edges")
back = assignment_from_pmc(art, found)
print("  decoded assignment:", back, "satisfies:", nae_satisfies(f, back))
print("  lemma oracles:", "pass" if lemma_oracles(art.graph, found).ok else "FAIL")

# Refutation: the affine-plane instance is unsatisfiable, so its reduction
# has no perfect matching cut; the search proves it exhaustively.
ag = ag23_formula()
art_ag = reduce_formula(ag)
res = find_pmc(art_ag.graph)
print(f"\nAG(2,3) reduction ({art_ag.graph.n} vertices): witness={res}")
