"""
From a power table to a geometric presentation
==============================================

A table of loop-power coefficients determines a chain of polynomials
g_0, ..., g_{2n}. The even-indexed entries are the factors of a
hypersurface u*v = g_0 g_2 ... g_{2n}, each adjacent pair in the chain
marks a curve, and the whole package comes with a quiver presentation
whose relations generate the same ideal as the potential derivatives.
"""

from qpcalc import (
    QQ,
    a3_realize,
    contraction_relations,
    emit_presentation,
    h_row,
    jacobi_relations,
    potential_from_kappa,
    same_ideal_below,
    solve_g_system,
)

# quadratic entries at every slot, one cubic correction in the middle
n = 3
table = {
    (1, 2): QQ(-1, 2),
    (3, 2): QQ(-1, 2),
    (5, 2): QQ(-1, 2),
    (2, 2): QQ(-1),
    (4, 2): QQ(-1),
    (2, 3): QQ(1),
}

gs = solve_g_system(n, table)
for k, g in enumerate(gs):
    print(f"g_{k} =", g)

pres = emit_presentation(gs)
print("hypersurface:", pres["hypersurface"])
print("modules:", pres["modules"])
for curve in pres["curves"]:
    print(f"curve {curve['index']}:", curve["type"], curve.get("loop", ""))

# the two-parameter rows reproduce known factor tables bit for bit
data = a3_realize(kappa1=QQ(1), p=2, kappa2=QQ(1, 3), q=2)
print("realized factors:", data["h"])
print("table row matches:", data["h"] == [str(h) for h in h_row(1, QQ(1, 3))])

# the presentation relations and the potential derivatives agree below
# the working degree
relations = [el for _label, el in contraction_relations(n, table, 12)]
q3 = relations[0].quiver
f = potential_from_kappa(q3, 12, table)
print("same ideal as the derivatives:", same_ideal_below(q3, relations, jacobi_relations(f), 12))
