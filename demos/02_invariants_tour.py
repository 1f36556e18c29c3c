"""Every invariant of one surface, with its independent cross-check.

The closed forms carry the census; each has a second computation path
(Smith normal form, exact linear solve, tabulated series forms, chain
determinants) that we run side by side here.
"""

from fiqs import (
    DefiningMatrix,
    chain_determinant,
    class_group,
    class_group_oracle,
    classify,
    degree,
    degree_from_eta,
    local_gorenstein,
    local_gorenstein_oracle,
    local_orders,
    log_canonicity,
    picard_index,
    picard_index_from_eta,
    resolution_graph,
    surface_record,
)

for m in (DefiningMatrix(1, 2, -6), DefiningMatrix(2, 1, 0, -2), DefiningMatrix(3, 3, 1, -2, -2)):
    key = classify(m)
    print(f"rho = {m.rho}: matrix params {m.params()}  ->  {key.series.tag} eta={key.eta()}")

    cg, cg2 = class_group(m), class_group_oracle(m)
    print(f"  class group      Z^{cg.free_rank} x Z/{cg.torsion_order}   (smith oracle: Z^{cg2.free_rank} x Z/{cg2.torsion_order})")

    ip, im = local_gorenstein(m)
    op, om = local_gorenstein_oracle(m, "plus"), local_gorenstein_oracle(m, "minus")
    print(f"  local gorenstein ({ip}, {im})   (solve oracle: ({op}, {om}))")
    print(f"  local orders     {local_orders(m)}")

    print(f"  degree           {degree(m)}   (series form: {degree_from_eta(key)})")
    print(f"  log canonicity   {log_canonicity(m)}")
    print(f"  picard index     {picard_index(m)}   (series form: {picard_index_from_eta(key)})")

    graph = resolution_graph(key)
    orders = local_orders(m)
    for label, chain in graph.chains.items():
        det = chain_determinant(chain)
        note = "smooth" if not chain else f"det {det} = cl {orders[label]}"
        print(f"  resolution {label:3s}   {list(chain)}  ({note})")
    print()

print("The whole bundle at once:")
rec = surface_record(classify(DefiningMatrix(3, 3, 1, -2, -2)))
print(f"  {rec}")
# A record stores its local orders (x+, x-, x0, ...); the key and the orders
# fix the local data and the chains, which are built when read.
print(f"  rec.local      = {rec.local}")
print(f"  rec.resolution = {rec.resolution}")
