"""
Monomialising a Type A potential
================================

A potential that contains every consecutive product x_i'x_{i+1} can be
rewritten, one substitution at a time, until only pure powers x_i^j
remain next to the middle terms. The composite substitution witnesses
the equivalence, and the quotient dimensions never move.
"""

from qpcalc import (
    Potential,
    QQ,
    add_loop,
    eliminate_loop,
    extract_monomial,
    fingerprint,
    jdim,
    monomialize,
    type_a_report,
    x_monomial,
    double_an,
)

q = double_an(2)  # two vertices, loops at both ends, slots 1..3
D = 12


def term(spec, coeff=1):
    return x_monomial(q, D, spec, QQ(coeff))


# middles plus two cubes and one word that is not a pure power
f = (
    term([(1, False), (2, False)])          # x1 x2
    + term([(2, True), (3, False)])         # x2' x3
    + term([(1, False)] * 3)                # x1^3
    + term([(3, False)] * 3)                # x3^3
    + term([(1, False), (1, False), (2, False)])  # x1^2 x2, must dissolve
)
print("recognition:", type_a_report(f).kind)

g, table, witness = monomialize(f)
# dissolving x1^2 x2 feeds back into higher powers of x1 at every degree,
# so the table carries a truncated tail of correction coefficients
print("power table:", {k: str(v) for k, v in sorted(table.items())})
print("witness reproduces the output:", witness.apply_potential(f) == g)
print("counts preserved:", jdim(f).counts == jdim(g).counts)
print("dimension:", jdim(g).value, jdim(g).certificate)

# loop transfer: trade a vertex without a loop for one with a loop square
# of coefficient -1/2, then eliminate it again
qa = double_an(3, loopless=[1, 2, 3])
h = (
    x_monomial(qa, D, [(1, True), (2, False)], QQ(1))
    + x_monomial(qa, D, [(1, True)] * 2, QQ(1))
    + x_monomial(qa, D, [(2, False)] * 3, QQ(1))
)
before = fingerprint(h)
with_loop = add_loop(h, 2)
print("new loop coefficient:", extract_monomial(with_loop)[(2, 2)])
back = eliminate_loop(with_loop, 2)
print("round trip keeps the fingerprint:", fingerprint(back) == before == fingerprint(with_loop))
