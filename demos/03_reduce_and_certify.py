"""Reduction: compile a formula and certify the output is Barnette."""

from pmcut import (
    build_crossing_gadget,
    build_h,
    build_variable_gadget,
    canonical_n3_formula,
    is_3_connected,
    is_bipartite,
    is_cubic,
    is_planar_embedding,
    layout,
    reduce_formula,
)

f = canonical_n3_formula()

# Step 1: plan H, in which each occurrence is a pair of parallel connector
# wires from a variable gadget to a clause gadget; no graph is built yet.
hb = build_h(f)
print("occurrences (var, clause), bottom to top at the variables:", hb.exit_order)
# Each column lists its bundles gadget by gadget, in layout order.
variables = tuple(dict.fromkeys(i for i, _ in hb.exit_order))
clauses = tuple(dict.fromkeys(j for _, j in hb.entry_order))
print("layout order, bottom to top: variables", variables, "clauses", clauses)

# Step 2: route the twelve wire bundles; swaps in the wiring diagram are
# exactly the bundle crossings.
crossings = layout(hb)
print(f"bundles: {len(hb.exit_order)}, crossings q = {len(crossings)}")

# Step 3: splice a 16-vertex gadget into each crossing and certify.
art = reduce_formula(f)
g = art.graph
print(f"\nG: {g.n} vertices = 36*{f.n} + 112*{f.m} + 16*{art.q}")
faces = art.embedding.face_count
print("faces:", faces, "-> Euler characteristic", g.n - g.m + faces)
print("cubic:", is_cubic(g))
print("bipartite:", is_bipartite(g) is not None)
print("planar (certified rotation system):", is_planar_embedding(g, art.embedding))
print("3-connected (exact, from the edge list):", is_3_connected(g))

# Provenance: every vertex knows its gadget and local name.
kind, idx, name = art.vertex_info[0]
print(f"\nvertex 0 sits in {kind} gadget {idx} as {name}")
print("connector edges:", len(art.connectors))

# Trace the t-wire of variable 1 into clause 1 from its variable slot: cross
# a connector, and inside each crossing gadget step from the port the wire
# enters to that port's partner, until a connector lands in the clause.
xg = build_crossing_gadget()
through = {xg.names[u]: xg.names[v]
           for u, v in (("u1", "v1"), ("u2", "v2"), ("u1'", "v1'"), ("u2'", "v2'"))}
mate = {}
for u, v, _ in art.connectors:
    mate[u], mate[v] = v, u
r, _ = art.plan.slots[(1, 1)]
v = art.vertex_info.start("variable", 1) + build_variable_gadget().names[f"t{r}"]
wire = [(v, mate[v])]
while art.vertex_info[mate[v]][0] == "crossing":
    base = art.vertex_info.start("crossing", art.vertex_info[mate[v]][1])
    v = base + through[mate[v] - base]
    wire.append((v, mate[v]))
print("connectors of the t-wire of variable 1 into clause 1:", wire)
