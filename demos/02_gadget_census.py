"""Gadgets: build the three fragments and enumerate their local restrictions.

A census element is a choice of edges that perfectly matches the whole
fragment (ports included) and crosses every cycle an even number of times.
The counts 1 / 3 / 8 are the structural heart of the reduction.
"""

from pmcut import (
    build_clause_gadget,
    build_crossing_gadget,
    build_variable_gadget,
    clause_type,
    crossing_type_sets,
    enumerate_local_pmcs,
    side_relations,
)

var = build_variable_gadget()
print(f"variable gadget: {var.graph.n} vertices, {var.graph.m} edges, "
      f"{len(var.ports)} anchors")
census = enumerate_local_pmcs(var)
print("  admissible restrictions:", len(census))
print("  equals the forced red set:", census[0] == var.red_edges)
table = side_relations(var, census[0])
print("  all anchors same side:", len(set(table.values())) == 1)

clause = build_clause_gadget()
print(f"\nclause gadget: {clause.graph.n} vertices, {len(clause.ports)} anchors")
census = enumerate_local_pmcs(clause)
print("  admissible restrictions:", len(census))
for c in census:
    print(f"  restriction of type {clause_type(clause, c)}: {len(c)} edges, D-block reds inside:",
          clause.red_edges <= c)

cross = build_crossing_gadget()
print(f"\ncrossing gadget: {cross.graph.n} vertices in four diamonds")
census = enumerate_local_pmcs(cross)
p1, p2 = crossing_type_sets(cross)
print("  admissible restrictions:", len(census))
print("  side-preserving P1 and side-flipping P2 among them:",
      p1 in census and p2 in census)
t2 = side_relations(cross, p2)
print("  under P2 the two wire pairs land on opposite sides:",
      t2["u1"] != t2["u1'"])
