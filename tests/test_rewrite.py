import random

import pytest
from hypothesis import given, settings, strategies as st

from qpcalc.appendix import appendix_system
from qpcalc.cycles import Potential
from qpcalc.field import QQ, PreconditionError
from qpcalc.jacobi import all_paths, jacobi_relations
from qpcalc.linalg import combine
from qpcalc.monomial import potential_from_kappa
from qpcalc.quiver import Quiver, double_an
from qpcalc.series import NCElement
from qpcalc.rewrite import ReductionSystem, system_from_relations
from qpcalc.subst import Substitution


def two_loop_quiver():
    return Quiver([1], [("u", 1, 1, 1), ("v", 1, 1, 1)])


def word(q, names):
    arrows = [q.by_name[n] for n in names]
    return (arrows[0].tail, tuple(a.index for a in arrows))


def test_rule_orientation_minimal_word_is_lead():
    q = two_loop_quiver()
    D = 6
    uv = NCElement.from_word(q, D, word(q, ["u", "v"]))
    vu = NCElement.from_word(q, D, word(q, ["v", "u"]))
    sys = ReductionSystem(q, D)
    sys.add_relation(uv - vu)
    (rule,) = sys.rules.values()
    assert q.format_word(rule.lead) == "u*v"


def test_commuting_loops_normal_forms():
    # one vertex, two commuting loops: normal forms are v^j u^i, so
    # dim per degree d is d + 1
    q = two_loop_quiver()
    D = 7
    uv = NCElement.from_word(q, D, word(q, ["u", "v"]))
    vu = NCElement.from_word(q, D, word(q, ["v", "u"]))
    sys = system_from_relations(q, D, [uv - vu])
    counts = sys.irreducible_counts(D)
    assert counts == [1, 2, 3, 4, 5, 6, 7]


def test_monomial_relations_dimension_six():
    q = double_an(2, loopless=[1, 2])
    D = 10
    r1 = NCElement.from_word(q, D, word(q, ["b1", "a1", "b1"]))
    r2 = NCElement.from_word(q, D, word(q, ["a1", "b1", "a1"]))
    sys = system_from_relations(q, D, [r1, r2])
    counts = sys.irreducible_counts(D)
    assert sum(counts) == 6
    # no irreducible word in the window below D one wider than the heaviest lead
    top = max(q.weight_of(rule.lead) for rule in sys.rules.values())
    assert not any(counts[D - top - 1:])


def test_completion_finds_consequences():
    # u^2 = v and uv = vu force everything into powers of u
    q = two_loop_quiver()
    D = 8
    uu = NCElement.from_word(q, D, word(q, ["u", "u"]))
    v = NCElement.from_word(q, D, word(q, ["v"]))
    uv = NCElement.from_word(q, D, word(q, ["u", "v"]))
    vu = NCElement.from_word(q, D, word(q, ["v", "u"]))
    sys = system_from_relations(q, D, [uu - v, uv - vu])
    # v reduces to u^2, so the algebra is k[u]: one word per degree
    counts = sys.irreducible_counts(D)
    assert counts == [1, 1, 1, 1, 1, 1, 1, 1]
    nf_v = sys.reduce(v)
    assert nf_v == sys.reduce(uu)


def test_reduction_is_confluent_after_completion():
    q = double_an(3, loopless=[1, 2, 3])
    D = 9
    # mixed relations with overlaps
    x2 = NCElement.from_word(q, D, word(q, ["b1", "a1", "b1"]), 2)
    xy = NCElement.from_word(q, D, word(q, ["a2", "b2", "b1"]))
    r1 = x2 + xy
    r2 = NCElement.from_word(q, D, word(q, ["b2", "b1", "a1"])) + NCElement.from_word(
        q, D, word(q, ["b2", "a2", "b2"]), QQ(1, 3)
    )
    sys = system_from_relations(q, D, [r1, r2])
    rng = random.Random(20240817)
    probe_words = [
        word(q, ["b1", "a1", "b1", "a1"]),
        word(q, ["a2", "b2", "b1", "a1"]),
        word(q, ["b2", "a2", "b2", "a2"]),
        word(q, ["b1", "a1", "a2", "b2", "b1"]),
    ]
    for w in probe_words:
        el = NCElement.from_word(q, D, w)
        det = sys.reduce(el)
        for _ in range(5):
            assert sys.reduce_random(el, rng) == det


def test_interreduction_keeps_leads_irreducible():
    q = two_loop_quiver()
    D = 8
    u3 = NCElement.from_word(q, D, word(q, ["u", "u", "u"]))
    short_rel = NCElement.from_word(q, D, word(q, ["u", "u"]))
    # u^3 = v (lead v: u^2 = 0 reduces its tail) and u^3 = v^4 (lead u^3:
    # u^2 = 0 makes the lead reducible, so the rule is retired); together
    # with u^2 = 0 each forces its right-hand side to vanish
    for rhs in (["v"], ["v"] * 4):
        rhs_el = NCElement.from_word(q, D, word(q, rhs))
        sys = ReductionSystem(q, D)
        sys.add_relation(u3 - rhs_el)
        sys.add_relation(short_rel)
        sys.complete()
        for rule in sys.rules.values():
            # no lead may contain another lead
            others = [r.lead[1] for r in sys.rules.values() if r is not rule]
            ids = rule.lead[1]
            for o in others:
                assert not any(ids[i : i + len(o)] == o for i in range(len(ids)))
        assert sys.reduce(rhs_el).is_zero()


def _record_searches(monkeypatch):
    """Patch ``_find_redex`` to log (word, redex) for every word searched."""
    searched = []
    find_redex = ReductionSystem._find_redex

    def recording(self, w):
        redex = find_redex(self, w)
        searched.append((w, redex))
        return redex

    monkeypatch.setattr(ReductionSystem, "_find_redex", recording)
    return searched


def _replay(system, start, searched, out):
    """Replay one reduction's searches with ``_rewrite_once`` as the step.

    Checks that no word is searched twice, that every contribution lands
    on a word not yet searched (so a word's coefficient is final at its
    turn), that exactly the words with a nonzero coefficient are searched,
    and that the output is the irreducible ones. Returns the words whose
    contributions cancelled, none of which was searched.
    """
    order = {}
    for i, (w, _redex) in enumerate(searched):
        assert order.setdefault(w, i) == i, f"{w} searched twice"
    coeff = dict(start)
    for i, (w, redex) in enumerate(searched):
        if redex is not None:
            for u, c in system._rewrite_once(w, *redex).items():
                assert order.get(u, len(searched)) > i
                coeff[u] = coeff.get(u, 0) + coeff[w] * c
    assert {u for u, c in coeff.items() if c} == order.keys()
    assert out == {w: coeff[w] for w, redex in searched if redex is None}
    return {u for u, c in coeff.items() if not c}


def test_each_word_is_rewritten_once(monkeypatch):
    # a descending loop run before two arrow pairs: its leftmost-redex
    # rewriting is one long chain of coefficient-1 steps
    system = appendix_system(2, 16)
    q = system.quiver
    word = (0, (q.loop(0, 2), q.loop(0, 1), q.loop(0, 0), q.a(0), q.b(0), q.a(0), q.b(0)))
    searched = _record_searches(monkeypatch)
    nf = system.normal_form_word(word)
    assert len(searched) > 10
    _replay(system, {word: 1}, searched, nf)

    # every reduction of a Type A completion, S-polynomials included: about
    # three in four reduce to zero, and in some the two sides cancel at a
    # reducible word, which is then never searched
    reduce = ReductionSystem.reduce
    seen = {"zero": 0, "cancelled reducible": 0}

    def replaying(self, el):
        searched.clear()
        out = reduce(self, el)
        cancelled = _replay(self, el.truncate(self.truncation).terms, list(searched), out.terms)
        if out.is_zero():
            seen["zero"] += 1
            seen["cancelled reducible"] += any(self._find_redex(u) is not None for u in cancelled)
        return out

    monkeypatch.setattr(ReductionSystem, "reduce", replaying)
    q = double_an(2)
    f = potential_from_kappa(q, 8, {(1, 3): QQ(1), (2, 3): QQ(-1), (3, 3): QQ(1, 2)})
    system_from_relations(q, 8, jacobi_relations(f))
    assert seen["zero"] > 10 and seen["cancelled reducible"]


def test_elements_on_another_quiver_are_rejected():
    system = ReductionSystem(two_loop_quiver(), 6)
    other = NCElement.lazy(double_an(2), 6, 1)
    for call in (system.reduce, system.add_relation):
        with pytest.raises(PreconditionError, match="different quivers"):
            call(other)


def test_reduce_leaves_no_zero_and_nothing_heavy():
    q = two_loop_quiver()
    D = 6
    uv = NCElement.from_word(q, D, word(q, ["u", "v"]))
    vu = NCElement.from_word(q, D, word(q, ["v", "u"]))
    sys = system_from_relations(q, D, [uv - vu])
    big = D + 3
    terms = {
        word(q, ["u", "v"]): 1,  # cancels against vu below
        word(q, ["v", "u"]): -1,
        word(q, ["u", "u", "v"]): QQ(2, 3),  # normal form v u u
        word(q, ["u"] * D): 5,  # weight D: gone
        word(q, ["u", "v"] * 4): 1,  # weight 8: gone
    }
    out = sys.reduce(NCElement(q, big, terms))
    assert out.truncation == D
    assert all(c != 0 for c in out.terms.values())
    assert all(q.weight_of(w) < D for w in out.terms)
    assert out.terms == {word(q, ["v", "u", "u"]): QQ(2, 3)}


def test_rewrites_are_cut_by_weight_not_length():
    # x weighs 1 and y weighs 2: the rule x y -> x^4 adds one to the weight
    # and two to the length, so x x y (weight 4, length 3) rewrites to x^5,
    # which a cut by length would keep at D = 5
    q = Quiver([1], [("x", 1, 1, 1), ("y", 1, 1, 2)])
    for D, expected in ((5, {}), (6, {word(q, ["x"] * 5): 1})):
        sys = ReductionSystem(q, D)
        sys.add_relation(NCElement.from_word(q, D, word(q, ["x", "y"]))
                         - NCElement.from_word(q, D, word(q, ["x"] * 4)))
        xxy = NCElement.from_word(q, D, word(q, ["x", "x", "y"]))
        assert sys.reduce(xxy).terms == expected


def test_ambiguities_report_unresolved_words_before_completion():
    q = two_loop_quiver()
    D = 8
    sys = ReductionSystem(q, D)
    sys.add_relation(NCElement.from_word(q, D, word(q, ["u"] * 3)))
    sys.add_relation(NCElement.from_word(q, D, word(q, ["u", "u", "v"]))
                     - NCElement.from_word(q, D, word(q, ["v"] * 3)))
    resolved = sorted((q.format_word(w), sys.reduce(s).is_zero()) for w, s in sys.ambiguities())
    assert resolved == [("u*u*u*u", True), ("u*u*u*u*u", True),
                        ("u*u*u*u*v", False), ("u*u*u*v", False)]
    # reading the ambiguities leaves them queued for completion
    assert len(list(sys.ambiguities())) == 4


def _occurs(short, ids):
    return any(ids[i : i + len(short)] == short for i in range(len(ids) - len(short) + 1))


@st.composite
def random_relations(draw):
    """1-4 relations of 1-3 paths of weight 1-4 with shared ends, on
    double_an(2..3) with any loopless set, at D = 5..8, and probe words."""
    n = draw(st.integers(2, 3))
    q = double_an(n, draw(st.sets(st.integers(1, n))))
    D = draw(st.integers(5, 8))
    by_ends = {}
    for w in all_paths(q, 5):
        if w[1]:
            by_ends.setdefault((w[0], q.head_of(w)), []).append(w)
    rels = []
    for _ in range(draw(st.integers(1, 4))):
        words = draw(st.lists(st.sampled_from(by_ends[draw(st.sampled_from(sorted(by_ends)))]),
                              min_size=1, max_size=3, unique=True))
        rels.append(NCElement(q, D, {w: QQ(draw(st.sampled_from([-2, -1, 1, 2])),
                                           draw(st.integers(1, 3))) for w in words}))
    probes = draw(st.lists(st.sampled_from([w for w in all_paths(q, D) if w[1]]),
                           min_size=1, max_size=5))
    return q, D, rels, probes


def _trie_leads(node, prefix=()):
    """(lead ids, rule id) for every leaf of a lead trie."""
    for a, child in node.items():
        if isinstance(child, int):
            yield prefix + (a,), child
        else:
            assert child, "an emptied trie node was left behind"
            yield from _trie_leads(child, prefix + (a,))


@settings(max_examples=50, deadline=None, database=None)
@given(random_relations(), st.randoms(use_true_random=False))
def test_rules_stay_interreduced_and_complete_to_confluence(case, rng):
    q, D, rels, probes = case
    sys = ReductionSystem(q, D)
    for rel in rels:
        sys.add_relation(rel)
        live = {rid: r.lead[1] for rid, r in sys.rules.items()}
        assert {rid: lead for lead, rid in _trie_leads(sys._trie)} == live
        leads = list(live.values())
        for i, a in enumerate(leads):
            assert not any(_occurs(b, a) for j, b in enumerate(leads) if j != i)
    # the overlap words are where an incomplete system first differs
    overlaps = [w for w, _s in sys.ambiguities()]
    sys.complete()
    for w in probes + overlaps + [r.lead for r in sys.rules.values()]:
        el = NCElement.from_word(q, D, w)
        assert sys.reduce(el) == sys.reduce_random(el, rng)


def _irreducible_words(sys, D):
    """The brute-force reference: every path below D with no redex."""
    return [w for w in all_paths(sys.quiver, D) if sys._find_redex(w) is None]


@settings(max_examples=50, deadline=None, database=None)
@given(random_relations())
def test_irreducible_table_lists_each_irreducible_word_once(case):
    # with the arrow ids as caller state each word is its own key, counted once
    q, D, rels, _probes = case
    sys = ReductionSystem(q, D)
    for rel in rels:
        sys.add_relation(rel)
    sys.complete()
    table = sys.irreducible_table(D, (), lambda ids, a: ids + (a,))
    assert set(table.values()) == {1}
    # a lazy path has ids () and sits at its head
    listed = [((q.arrows[ids[0]].tail if ids else head, ids), head, weight)
              for head, weight, ids in table]
    assert all(q.head_of(w) == head and q.weight_of(w) == weight for w, head, weight in listed)
    assert sorted(w for w, _head, _weight in listed) == sorted(_irreducible_words(sys, D))


@settings(max_examples=50, deadline=None, database=None)
@given(random_relations())
def test_irreducible_table_counts_the_listed_words(case):
    # the count table against the brute-force words, with the last arrow
    # id as a caller automaton so caller states are checked as well
    q, D, rels, _probes = case
    sys = ReductionSystem(q, D)
    for rel in rels:
        sys.add_relation(rel)
    sys.complete()
    tallies = {}
    for w in _irreducible_words(sys, D):
        key = (q.head_of(w), q.weight_of(w), w[1][-1] if w[1] else None)
        tallies[key] = tallies.get(key, 0) + 1
    assert sys.irreducible_table(D, None, lambda _last, a: a) == tallies
    plain = {}
    for (head, weight, _last), count in tallies.items():
        plain[head, weight, None] = plain.get((head, weight, None), 0) + count
    assert sys.irreducible_table(D) == plain
    assert sys.irreducible_counts(D) == [sum(c for (_h, wt, _s), c in plain.items() if wt == weight)
                                         for weight in range(D)]


COEFFS = [QQ(p, r) for p in (-2, -1, 1, 2) for r in (1, 3)]


def _element(draw, q, D, words):
    return NCElement(q, D, {w: draw(st.sampled_from(COEFFS))
                            for w in draw(st.lists(st.sampled_from(words), max_size=6))})


@st.composite
def sparse_sum_cases(draw):
    """random_relations() plus, on its quiver and truncation: two elements
    sharing some words with opposite coefficients, a potential, and a
    substitution that adds longer parallel paths to some arrows."""
    q, D, rels, probes = draw(random_relations())
    paths = [w for w in all_paths(q, D) if w[1]]
    a = _element(draw, q, D, paths)
    shared = draw(st.lists(st.sampled_from(sorted(a.terms)), unique=True)) if a.terms else []
    b = _element(draw, q, D, paths) - NCElement(q, D, {w: a.terms[w] for w in shared})
    cycles = [w for w in paths if q.head_of(w) == w[0]]
    f = Potential(q, D)
    for w in draw(st.lists(st.sampled_from(cycles), max_size=6)):
        f.add_cycle(w, draw(st.sampled_from(COEFFS)))
    images = {}
    for arrow in draw(st.sets(st.sampled_from(q.arrows))):
        longer = [w for w in paths if len(w[1]) >= 2 and w[0] == arrow.tail
                  and q.head_of(w) == arrow.head]
        extra = _element(draw, q, D, longer) if longer else NCElement(q, D)
        images[arrow.index] = NCElement.from_word(q, D, (arrow.tail, (arrow.index,))) + extra
    return q, D, rels, probes, a, b, f, Substitution(q, D, images)


@settings(max_examples=50, deadline=None, database=None)
@given(sparse_sum_cases())
def test_sparse_sums_leave_no_zero_and_nothing_heavy(case):
    q, D, rels, probes, a, b, f, s = case
    sys = system_from_relations(q, D, rels)

    def clean(terms):
        assert all(c != 0 for c in terms.values())
        assert all(q.weight_of(w) < D for w in terms)
        return terms

    for el in (a + b, a - b, b - a, a * b, b * a, a.scale(QQ(2, 3)), a.scale(0),
               f + f, f - f.scale(QQ(1, 2)), s.apply_element(a), s.apply_potential(f),
               sys.reduce(a), sys.reduce(a * b)):
        clean(el.terms)
    assert not (a - a).terms and not (f - f).terms
    for arrow in q.arrows:
        clean(f.cyclic_derivative(arrow.name).terms)
    # a substituted arrow minus its longer paths: those paths cancel in the image
    for index, image in s.images.items():
        arrow = q.arrows[index]
        one_arrow = NCElement.from_word(q, D, (arrow.tail, (index,)))
        clean(s.apply_element(one_arrow.scale(2) - image).terms)
    for rel in rels:
        assert not clean(sys.reduce(rel).terms)
    assert clean(combine(a.terms, sys.normal_form_word)) == sys.reduce(a).terms
    assert combine({0: QQ(1), 1: QQ(-1)}, lambda _key: clean(b.terms)) == {}
    # one new word per tail word that fits below the truncation
    for w in probes + list(a.terms) + [r.lead for r in sys.rules.values()]:
        redex = sys._find_redex(w)
        if redex is None:
            continue
        room = D - q.weight_of(w)
        out = clean(sys._rewrite_once(w, *redex))
        assert len(out) == sum(1 for _ids, _c, gain in sys.rules[redex[1]].steps if gain < room)


def test_weight_preserving_rules_skip_the_weight_sum(monkeypatch):
    system = appendix_system(3, 14)
    q = system.quiver
    assert system.rules and not any(rule.raises for rule in system.rules.values())
    words = [(0, (q.loop(0, 3), q.loop(0, 1), q.a(0), q.b(0), q.a(0))),
             (1, (q.b(0), q.b(3), q.loop(3, 1), q.a(3), q.a(0)))]
    calls = []
    weight_of = Quiver.weight_of

    def counting(self, w):
        calls.append(w)
        return weight_of(self, w)

    monkeypatch.setattr(Quiver, "weight_of", counting)
    rewrites = 0
    for w in words:
        while (redex := system._find_redex(w)) is not None:
            # follow the first word of each expansion down the chain
            w = next(iter(system._rewrite_once(w, *redex)))
            rewrites += 1
    assert rewrites > 5 and not calls

    # a rule whose tail is heavier than its lead still sums the weight
    lq = Quiver([1], [("x", 1, 1, 1), ("y", 1, 1, 1)])
    raising = ReductionSystem(lq, 6)
    raising.add_relation(NCElement.from_word(lq, 6, word(lq, ["x"]))
                         - NCElement.from_word(lq, 6, word(lq, ["y", "y"])))
    assert [rule.raises for rule in raising.rules.values()] == [True]
    xyx = word(lq, ["x", "y", "x"])
    calls.clear()
    assert raising._rewrite_once(xyx, *raising._find_redex(xyx)) == {word(lq, ["y", "y", "y", "x"]): 1}
    assert calls == [xyx]


@st.composite
def type_a_cases(draw):
    """A Type A potential on double_an(2..3) at D = 6..9: the consecutive
    products, some pure powers x_i^j (j = 3, 4) and up to four cycles of
    weight 3-5, with random coefficients; and 1-4 elements on its quiver."""
    n = draw(st.integers(2, 3))
    q = double_an(n)
    D = draw(st.integers(6, 9))
    powers = draw(st.sets(st.tuples(st.integers(1, q.m), st.integers(3, 4)), max_size=4))
    f = potential_from_kappa(q, D, {ij: draw(st.sampled_from(COEFFS)) for ij in sorted(powers)})
    paths = [w for w in all_paths(q, D) if w[1]]
    cycles = [w for w in paths if q.head_of(w) == w[0] and 3 <= q.weight_of(w) <= 5]
    for w in draw(st.lists(st.sampled_from(cycles), max_size=4)):
        f.add_cycle(w, draw(st.sampled_from(COEFFS)))
    elements = [_element(draw, q, D, paths) for _ in range(draw(st.integers(1, 4)))]
    return f, elements


@settings(max_examples=30, deadline=None, database=None)
@given(type_a_cases(), st.randoms(use_true_random=False))
def test_reduce_matches_the_per_word_sum_and_random_schedules(case, rng):
    f, elements = case
    q, D = f.quiver, f.truncation
    system = ReductionSystem(q, D)
    for rel in jacobi_relations(f):
        if rel.is_zero():
            continue
        system.add_relation(rel)
        # part-way through completion the output is still irreducible and
        # still the per-word sum, though not yet unique
        for el in elements:
            out = system.reduce(el)
            assert all(system._find_redex(w) is None for w in out.terms)
            assert out.terms == combine(el.terms, system.normal_form_word)
    system.complete()
    for el in elements:
        out = system.reduce(el)
        assert out.terms == combine(el.terms, system.normal_form_word)
        assert out == system.reduce_random(el, rng)
