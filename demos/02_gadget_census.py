"""Gadgets: build the three fragments and enumerate their local restrictions.

A census element is a choice of edges that perfectly matches the whole
fragment (ports included) and crosses every cycle an even number of times.
The counts 1 / 3 / 8 are the structural heart of the reduction, and
``census_types`` checks each census against that theorem: a broken census
raises here.
"""

from pmcut import (
    build_clause_gadget,
    build_crossing_gadget,
    build_variable_gadget,
    census_types,
    enumerate_local_pmcs,
    side_relations,
)

var = build_variable_gadget()
print(f"variable gadget: {var.graph.n} vertices, {var.graph.m} edges, "
      f"{len(var.ports)} anchors")
census = enumerate_local_pmcs(var)
forced = census_types(var, census)[1]
print("  admissible restrictions:", len(census))
print("  equals the forced red set:", census == [forced])
table = side_relations(var, forced)
print("  all anchors same side:", len(set(table.values())) == 1)

clause = build_clause_gadget()
print(f"\nclause gadget: {clause.graph.n} vertices, {len(clause.ports)} anchors")
census = enumerate_local_pmcs(clause)
print("  admissible restrictions:", len(census))
for t, c in census_types(clause, census).items():
    print(f"  restriction of type {t}: {len(c)} edges, D-block reds inside:",
          clause.red_edges <= c)

cross = build_crossing_gadget()
print(f"\ncrossing gadget: {cross.graph.n} vertices in four diamonds")
census = enumerate_local_pmcs(cross)
p1, p2 = census_types(cross, census).values()
print("  admissible restrictions:", len(census))
print("  side-preserving P1 and side-flipping P2 among them:",
      p1 in census and p2 in census)
t2 = side_relations(cross, p2)
print("  under P2 the two wire pairs land on opposite sides:",
      t2["u1"] != t2["u1'"])
