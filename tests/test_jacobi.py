import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qpcalc.jacobi as jacobi
from qpcalc.cycles import Potential, canonical_cycle, x_monomial
from qpcalc.field import QQ, PreconditionError
from qpcalc.jacobi import (
    EXACT,
    LOWER_BOUND,
    all_paths,
    fingerprint,
    jacobi_relations,
    jdim,
    jdim_oracle,
    same_ideal_below,
    vertex_commutativity,
)
from qpcalc.quiver import double_an
from qpcalc.rewrite import system_from_relations


def path(q, names):
    """The word through the named arrows, in order."""
    arrows = [q.by_name[n] for n in names]
    return (arrows[0].tail, tuple(a.index for a in arrows))


def base_quiver():
    return double_an(3, loopless=[1, 2, 3])


def xy_potential(q, D, kx=1, kxy=1, ky=1, px=2, py=2):
    """kx * x^px + kxy * x y + ky * y^py on the loopless 3-vertex quiver."""
    f = Potential(q, D)
    if kx:
        f = f + x_monomial(q, D, [(1, True)] * px, kx)
    if kxy:
        f = f + x_monomial(q, D, [(1, True), (2, False)], kxy)
    if ky:
        f = f + x_monomial(q, D, [(2, False)] * py, ky)
    return f


def test_derivative_relations_shape():
    q = base_quiver()
    f = xy_potential(q, 12)
    rels = jacobi_relations(f)
    assert len(rels) == 4
    by_lead = {min(q.weight_of(w) for w in r.terms) for r in rels}
    assert by_lead == {3}


SRC = Path(__file__).resolve().parent.parent / "src"

# the README's double_an(2) example, whose full algebra reads (30, LowerBound) at D = 8,
# then an element on another quiver handed to the rewriting engine, then a loop
# index past n and n = 0 given to the cyclic quiver, then loop insertion and
# elimination on a monomial potential with a loop at vertex 1 only (powers x_1^3
# and x_2^3, so no loop square) and on its non-monomial double
PRECONDITION_SCRIPT = """
from qpcalc import add_loop, double_an, eliminate_loop, jdim, x_monomial
from qpcalc.appendix import appendix_quiver, exactness_check
from qpcalc.field import PreconditionError
from qpcalc.monomial import potential_from_kappa
from qpcalc.rewrite import ReductionSystem
from qpcalc.series import NCElement
q, D = double_an(2), 8
f = (x_monomial(q, D, [(1, False), (2, False)]) + x_monomial(q, D, [(2, True), (3, False)])
     + x_monomial(q, D, [(1, False)] * 3) + x_monomial(q, D, [(3, False)] * 3))
system = ReductionSystem(q, D)
other = NCElement.lazy(double_an(3), D, 1)
mono = potential_from_kappa(double_an(2, [2]), D, {(1, 3): 1, (2, 3): 1})
for call in (lambda: jdim(f, quotient_vertices=(99,)).as_pair(),
             lambda: system.reduce(other), lambda: system.add_relation(other),
             lambda: appendix_quiver(2).loop(0, 5), lambda: exactness_check(0, 8),
             lambda: add_loop(mono.scale(2), 2), lambda: add_loop(mono, 1),
             lambda: eliminate_loop(mono.scale(2), 1), lambda: eliminate_loop(mono, 2),
             lambda: eliminate_loop(mono, 1)):
    try:
        print(call())
    except PreconditionError as exc:
        print("PreconditionError:", exc)
"""


def test_deleting_an_unknown_vertex_is_rejected():
    q = base_quiver()
    with pytest.raises(PreconditionError, match=r"no vertices \[99\] to delete"):
        jdim(xy_potential(q, 8), quotient_vertices=(99,))


def test_unknown_vertex_check_survives_optimize():
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", PRECONDITION_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines() == [
            "PreconditionError: no vertices [99] to delete",
            "PreconditionError: the element and the reduction system are on different quivers",
            "PreconditionError: the element and the reduction system are on different quivers",
            "PreconditionError: loop index 5 is outside 0..2",
            "PreconditionError: the cyclic quiver needs n >= 1, not 0",
            "PreconditionError: input must be monomial",
            "PreconditionError: vertex 1 is not a loopless vertex",
            "PreconditionError: input must be monomial",
            "PreconditionError: vertex 2 carries no loop",
            "PreconditionError: loop square coefficient must be invertible",
        ]


def test_vertex_deletion_quotient_dimension_six():
    q = base_quiver()
    for lam in (1, 2, QQ(1, 4)):
        f = xy_potential(q, 12, ky=lam)
        left = jdim(f, 12, quotient_vertices=[1])
        right = jdim(f, 12, quotient_vertices=[3])
        assert left.as_pair() == (6, EXACT)
        assert right.as_pair() == (6, EXACT)


def test_full_dimension_twenty_at_lambda_one():
    q = base_quiver()
    f = xy_potential(q, 12)
    report = jdim(f, 12)
    assert report.as_pair() == (20, EXACT)


def test_oracle_agrees_on_twenty():
    q = base_quiver()
    f = xy_potential(q, 12)
    rels = jacobi_relations(f)
    assert jdim_oracle(q, rels, 12) == 20
    assert jdim(f, 12).value == 20


def test_pure_xy_quotient_is_4p_minus_2():
    q = base_quiver()
    for p in (2, 3):
        f = xy_potential(q, 12, ky=0, px=p)
        right = jdim(f, 12, quotient_vertices=[3])
        assert right.as_pair() == (4 * p - 2, EXACT)


def test_infinite_families_report_growing_lower_bounds():
    q = base_quiver()
    f = xy_potential(q, 12, ky=QQ(1, 4))  # det-zero base potential
    totals = [jdim(f, D).value for D in (8, 10, 12)]
    assert totals[0] < totals[1] < totals[2]
    assert all(jdim(f, D).certificate == LOWER_BOUND for D in (8, 10, 12))


def test_fingerprint_orders_end_quotients():
    q = base_quiver()
    f = xy_potential(q, 10, px=2, py=3)  # x^2 + xy + y^3
    fp = fingerprint(f, 10)
    assert fp.total[1] == EXACT
    assert fp.ends[0][0] == 6  # 4p-2 with p=2
    assert fp.ends[1][0] == 10  # 4q-2 with q=3


def test_commutativity_witness_without_middle_term():
    q = base_quiver()
    f = xy_potential(q, 5, kxy=0)  # x^2 + y^2, no mixed term
    report = vertex_commutativity(f, truncation=5)
    assert not report.commutes
    assert report.vertex == 2
    w = path(q, ["b1", "a1", "a2", "b2"])
    x_then_y = report.witness.coeff(w)
    assert x_then_y != 0


def test_commutativity_passes_with_middle_term():
    q = base_quiver()
    f = xy_potential(q, 8)
    assert vertex_commutativity(f, truncation=8).commutes


def test_same_ideal_mutual_reduction():
    q = base_quiver()
    f = xy_potential(q, 10)
    rels = jacobi_relations(f)
    scaled = [r.scale(QQ(3, 2)) for r in reversed(rels)]
    assert same_ideal_below(q, rels, scaled, 10)
    other = jacobi_relations(xy_potential(q, 10, ky=5))
    assert not same_ideal_below(q, rels, other, 10)


def test_one_completion_per_jdim(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[1])
        return system_from_relations(*args)

    monkeypatch.setattr(jacobi, "system_from_relations", counting)
    f = xy_potential(base_quiver(), 12)
    assert jdim(f, 12).as_pair() == (20, EXACT)
    assert calls == [12]
    assert jdim(f, 12, quotient_vertices=[1]).as_pair() == (6, EXACT)
    assert calls == [12, 12]


def _two_completion_certificate(quiver, relations, D):
    """The rule jdim used to apply: a closed window at D, then a rerun at
    D + 2 that is closed too and only pads the counts with zeros."""
    gap = max(a.weight for a in quiver.arrows)

    def run(t):
        system = system_from_relations(quiver, t, [r.truncate(t) for r in relations])
        counts = system.irreducible_counts(t)
        top = max((i for i, c in enumerate(counts) if c), default=-1)
        return counts, top + gap + 2 <= t

    counts, closed = run(D)
    if not closed:
        return LOWER_BOUND
    recounts, re_closed = run(D + 2)
    return EXACT if re_closed and recounts == counts + [0, 0] else LOWER_BOUND


@st.composite
def small_potential(draw):
    """2-5 random cycles of length 2-4 on double_an(2..3), D = 6..9."""
    n = draw(st.integers(2, 3))
    loopless = draw(st.sets(st.integers(1, n)))
    q = double_an(n, loopless)
    D = draw(st.integers(6, 9))
    cycles = sorted({canonical_cycle(q, w) for w in all_paths(q, 5)
                     if len(w[1]) >= 2 and q.head_of(w) == w[0]})
    f = Potential(q, D)
    for word in draw(st.lists(st.sampled_from(cycles), min_size=2, max_size=5, unique=True)):
        f.add_cycle(word, QQ(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), draw(st.integers(1, 3))))
    return f


@settings(max_examples=50, deadline=None, database=None)
@given(small_potential())
def test_single_completion_matches_oracle_and_rerun(f):
    D = f.truncation
    relations = jacobi_relations(f)
    report = jdim(f, D)
    assert sum(report.counts) == report.value == jdim_oracle(f.quiver, relations, D)
    assert report.certificate == _two_completion_certificate(f.quiver, relations, D)
