"""
A confluent rewriting system on a cyclic quiver
===============================================

On a cycle of n+1 vertices with both arrow directions and a full loop
family at each vertex, the defining relations orient into a rewriting
system with no unresolvable overlaps. Its irreducible words form a
basis: an arrow run followed by a weakly increasing loop run. The
graded counts obey a linear recursion certified by an exact complex.
"""

from qpcalc import appendix_checks, appendix_quiver, exactness_check

n = 2
D = 10

q = appendix_quiver(n)
print(f"cyclic quiver: {len(q.vertices)} vertices, {len(q.arrows)} arrows")

checks = appendix_checks(n, D)
print("overlap ambiguities:", checks["overlaps"]["count"],
      "all resolvable:", checks["overlaps"]["pass"])
print("completion adds nothing:", checks["completion_fixpoint"]["pass"])
print("irreducible words match the predicted shape:", checks["basis"]["pass"])
print("graded counts:", checks["counts"])
print("four-step recursion holds:", checks["recursion"]["pass"])

# the recursion comes from a five-term complex of right-multiplication
# maps which is exact in the middle degrees
exact = exactness_check(n, D)
print("complex exact through degree", D, ":", exact["pass"])

# the same package goes through for longer cycles
for bigger in (1, 3, 4):
    report = appendix_checks(bigger, 8)
    print(f"n={bigger}:", "pass" if report["pass"] else report)
