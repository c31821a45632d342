"""Cyclic loop quiver: confluent system, basis counts, exact complex."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from qpcalc.appendix import (
    BAD,
    EMPTY,
    _RightAction,
    _terms,
    appendix_checks,
    appendix_quiver,
    appendix_system,
    basis_shape_step,
    euler_count,
    exactness_check,
    expected_count,
    irreducible_words_oracle,
    is_basis_word,
)
from qpcalc.jacobi import all_paths
from qpcalc.linalg import accumulate
from qpcalc.rewrite import ReductionSystem
from qpcalc.series import NCElement


def test_quiver_shape():
    q = appendix_quiver(2)
    assert len(q.arrows) == 9 + 6
    assert all(q.arrows[q.loop(t, i)].weight == 2 for t in range(3) for i in range(3))
    assert q.arrows[q.a(2)].head == 0 and q.arrows[q.b(2)].tail == 0
    # descending loop ids within a vertex orient the commutators
    assert q.loop(0, 2) < q.loop(0, 1) < q.loop(0, 0)


def test_weight_counts_each_loop_twice():
    q = appendix_quiver(2)
    words = [
        (0, (q.loop(0, 1),)),
        (0, (q.a(0), q.loop(1, 2), q.b(0))),
        (1, (q.loop(1, 0), q.loop(1, 2), q.a(1), q.b(1))),
    ]
    for w in words:
        assert q.weight_of(w) == sum(q.arrows[i].weight for i in w[1])
    assert [q.weight_of(w) for w in words] == [2, 4, 6]


def test_reduce_loop_past_arrow_pair():
    system = appendix_system(2, 12)
    q = system.quiver
    el = NCElement.from_word(q, 12, (0, (q.loop(0, 1), q.a(0), q.b(0))))
    out = system.reduce(el)
    assert out.terms == {(0, (q.loop(0, 0), q.loop(0, 1))): 1}


def test_reduce_double_wrap_example():
    # b0 bn J an a0 with J a loop run at vertex n lands at l(1,0) J_1 l(1,n)
    system = appendix_system(2, 14)
    q = system.quiver
    word = (1, (q.b(0), q.b(2), q.loop(2, 1), q.a(2), q.a(0)))
    out = system.reduce(NCElement.from_word(q, 14, word))
    assert out.terms == {(1, (q.loop(1, 0), q.loop(1, 1), q.loop(1, 2))): 1}


def test_irreducible_word_stays_put():
    system = appendix_system(2, 12)
    q = system.quiver
    word = (0, (q.a(0), q.a(1), q.loop(2, 0), q.loop(2, 2)))
    el = NCElement.from_word(q, 12, word)
    assert system.reduce(el) == el


def test_loop_loop_arrow_overlap_resolves_to_shared_word():
    system = appendix_system(2, 12)
    q = system.quiver
    word = (0, (q.loop(0, 2), q.loop(0, 1), q.a(0)))
    spolys = [s for w, s in system.ambiguities() if w == word]
    assert len(spolys) == 1
    # both one-step rewrites of the word reduce alike, to a0 l(1,1) l(1,2)
    assert system.reduce(spolys[0]).is_zero()
    expected = {(0, (q.a(0), q.loop(1, 1), q.loop(1, 2))): 1}
    assert system.reduce(NCElement.from_word(q, 12, word)).terms == expected


def test_checks_report_small():
    rep = appendix_checks(2, 8)
    assert rep["pass"]
    assert rep["counts"] == [1, 2, 5, 8, 14, 20, 30, 40, 55]
    assert rep["overlaps"]["count"] == 45 and not rep["overlaps"]["witnesses"]
    assert rep["completion_fixpoint"]["pass"]


def test_basis_predicate_is_oracle_membership(monkeypatch):
    # every path below the bound, reducible words and mixed arrow runs included
    monkeypatch.setenv("QP_MAX_PATHS", "100000")
    for n, bound in [(1, 11), (2, 9), (3, 8), (4, 7)]:
        q = appendix_quiver(n)
        oracle = set()
        for head in range(n + 1):
            for weight in range(bound):
                oracle.update(irreducible_words_oracle(q, head, weight))
        for w in all_paths(q, bound):
            assert is_basis_word(q, w) == (w in oracle), q.format_word(w)


def test_basis_shape_automaton_is_the_predicate(monkeypatch):
    # every path of weight <= 8, arrow runs of both kinds and loops in every order
    monkeypatch.setenv("QP_MAX_PATHS", "200000")
    for n in range(1, 5):
        q = appendix_quiver(n)
        step = basis_shape_step(q)
        paths = all_paths(q, 9)
        assert len(paths) > 1000
        for w in paths:
            state = EMPTY
            for a in w[1]:
                state = step(state, a)
            assert (state != BAD) == is_basis_word(q, w), q.format_word(w)


def test_expected_count_is_oracle_size():
    for n in range(1, 5):
        q = appendix_quiver(n)
        for weight in range(15):
            for head in range(n + 1):
                words = irreducible_words_oracle(q, head, weight)
                assert expected_count(n, weight) == len(words) == len(set(words))


def _without_a0_b0(relations):
    # a0 b0 = l(0,0) goes, so a0 b0 and its extensions stay irreducible: extra words
    def broken(q, truncation):
        a0_b0 = (0, (q.a(0), q.b(0)))
        return [r for r in relations(q, truncation) if a0_b0 not in r.terms]
    return broken


def _killing_a_loop(relations):
    # l(0,2) = 0 makes every basis word through it reducible: missing words
    def broken(q, truncation):
        return relations(q, truncation) + [NCElement.from_word(q, truncation, (0, (q.loop(0, 2),)))]
    return broken


@pytest.mark.parametrize("breaking", [_without_a0_b0, _killing_a_loop])
def test_streamed_basis_witnesses_match_set_comparison(monkeypatch, breaking):
    import qpcalc.appendix as appendix

    monkeypatch.setattr(appendix, "appendix_relations", breaking(appendix.appendix_relations))
    n, D = 2, 8
    report = appendix_checks(n, D)
    assert not report["basis"]["pass"]

    # the set comparison the streamed tallies replace, on the brute-force
    # irreducible words (22,143 paths lie below weight D + 1)
    monkeypatch.setenv("QP_MAX_PATHS", "30000")
    system = appendix_system(n, D + 3)
    system.complete()
    q = system.quiver
    found = {}
    for word in all_paths(q, D + 1):
        if system._find_redex(word) is None:
            found.setdefault((q.head_of(word), q.weight_of(word)), set()).add(word)
    witnesses = []
    for head in range(n + 1):
        for weight in range(D + 1):
            oracle = set(irreducible_words_oracle(q, head, weight))
            got = found.get((head, weight), set())
            if oracle != got:
                witnesses.append({"head": head, "degree": weight,
                                  "missing": len(oracle - got), "extra": len(got - oracle)})
    assert witnesses
    assert report["basis"]["witnesses"] == witnesses
    assert report["counts"] == [len(found.get((0, d), ())) for d in range(D + 1)]


def test_euler_counts():
    assert [euler_count(2, d) for d in range(6)] == [1, 0, 1, 0, 1, 0]
    assert [euler_count(1, d) for d in range(6)] == [1, 0, 0, 0, 0, 0]
    assert euler_count(3, 4) == 3  # monomials of weight 4 in two variables


def test_expected_count_matches_engine_for_n3():
    system = appendix_system(3, 8)
    q = system.quiver
    counts = [0] * 8
    for w in all_paths(q, 8):
        if q.head_of(w) == 2 and system._find_redex(w) is None:
            counts[q.weight_of(w)] += 1
    assert counts == [expected_count(3, d) for d in range(8)]


# per-degree (dims, ranks) of the five-term complex; `qp diamond` prints
# only the verdict, so these pins are what catches a wrong rank
EXACTNESS_TABLES = {
    (2, 10): [((1, 4, 16, 14, 1), (1, 3, 13)), ((2, 10, 28, 20, 0), (2, 8, 20)),
              ((5, 16, 40, 30, 1), (5, 11, 29)), ((8, 28, 60, 40, 0), (8, 20, 40)),
              ((14, 40, 80, 55, 1), (14, 26, 54)), ((20, 60, 110, 70, 0), (20, 40, 70)),
              ((30, 80, 140, 91, 1), (30, 50, 90))],
    (3, 9): [((1, 4, 20, 20, 3), (1, 3, 17)), ((2, 12, 40, 30, 0), (2, 10, 30)),
             ((6, 20, 60, 50, 4), (6, 14, 46)), ((10, 40, 100, 70, 0), (10, 30, 70)),
             ((20, 60, 140, 105, 5), (20, 40, 100)), ((30, 100, 210, 140, 0), (30, 70, 140))],
    (4, 10): [((1, 4, 24, 27, 6), (1, 3, 21)), ((2, 14, 54, 42, 0), (2, 12, 42)),
              ((7, 24, 84, 77, 10), (7, 17, 67)), ((12, 54, 154, 112, 0), (12, 42, 112)),
              ((27, 84, 224, 182, 15), (27, 57, 167)), ((42, 154, 364, 252, 0), (42, 112, 252)),
              ((77, 224, 504, 378, 21), (77, 147, 357))],
}


def test_exactness_small():
    ex = exactness_check(2, 8)
    assert ex["pass"]
    assert ex["degrees"][0]["dims"] == (1, 4, 16, 14, 1)
    assert ex["degrees"][0]["ranks"] == (1, 3, 13)
    for (n, D), table in EXACTNESS_TABLES.items():
        ex = exactness_check(n, D)
        assert ex["pass"]
        assert [(e["dims"], e["ranks"]) for _d, e in sorted(ex["degrees"].items())] == table


def test_corner_loop_multiplication_injective():
    system = appendix_system(2, 12)
    q = system.quiver
    # no rule lead ends with a top-index loop, so appending one keeps
    # irreducibility and distinctness
    top = {q.loop(t, 2) for t in range(3)}
    assert all(r.lead[1][-1] not in top for r in system.rules.values())
    images = set()
    for w in irreducible_words_oracle(q, 0, 4) + irreducible_words_oracle(q, 0, 5):
        prod = q.concat(w, (0, (q.loop(0, 2),)))
        out = system.reduce(NCElement.from_word(q, 12, prod))
        assert out.terms == {prod: 1}
        images.add(prod)
    n4 = len(irreducible_words_oracle(q, 0, 4)) + len(irreducible_words_oracle(q, 0, 5))
    assert len(images) == n4


def test_confluence_under_random_schedules():
    system = appendix_system(2, 12)
    q = system.quiver
    rng = random.Random(20240825)
    words = [
        (0, (q.loop(0, 1), q.a(0), q.b(0), q.a(0), q.a(1))),
        (1, (q.b(0), q.b(2), q.loop(2, 1), q.a(2), q.a(0))),
        (2, (q.loop(2, 2), q.loop(2, 0), q.a(2), q.b(2))),
    ]
    for w in words:
        el = NCElement.from_word(q, 12, w)
        expected = system.reduce(el)
        for _ in range(20):
            assert system.reduce_random(el, rng) == expected


@lru_cache(maxsize=None)
def _system_below_14(n):
    return appendix_system(n, 14)


@lru_cache(maxsize=None)
def _action_below_14(n):
    # one table per system, so later examples also read entries earlier ones filled
    return _RightAction(_system_below_14(n))


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_normal_forms_fold_one_arrow_at_a_time(data):
    # NF(u·a·b) = NF(NF(u·a)·b) on the confluent system, and the right-action
    # table's entries for u·a and u·a·b are the engine's NF of the whole product
    n = data.draw(st.integers(1, 4))
    system = _system_below_14(n)
    q = system.quiver
    head = data.draw(st.integers(0, n))
    weight = data.draw(st.integers(0, 13))
    tail, ids = data.draw(st.sampled_from(irreducible_words_oracle(q, head, weight)))
    a = data.draw(st.sampled_from(q.arrows_by_tail[head])).index
    b = data.draw(st.sampled_from(q.arrows_by_tail[q.arrows[a].head])).index

    def nf(word):
        # zero at or above the truncation
        return system.normal_form_word(word) if q.weight_of(word) < 14 else {}

    folded = {}
    for v, c in nf((tail, ids + (a,))).items():
        accumulate(folded, c, nf((v[0], v[1] + (b,))))
    assert folded == nf((tail, ids + (a, b)))
    for arrows in ((a,), (a, b)):
        entry = _terms(_action_below_14(n).fold(tail, ids, weight, arrows))
        assert {(tail, v): c for v, c in entry.items()} == nf((tail, ids + arrows))


def test_exactness_searches_each_word_once(monkeypatch):
    # every (basis word, arrow) product is searched and rewritten once per
    # check, however many products share it as a prefix
    import qpcalc.appendix as appendix

    searched = []
    find_redex = ReductionSystem._find_redex
    build = appendix.appendix_system

    def recording(self, word):
        searched.append(word)
        return find_redex(self, word)

    def built(n, truncation):
        system = build(n, truncation)
        searched.clear()  # building reduces the relations, whose words the check meets again
        return system

    monkeypatch.setattr(ReductionSystem, "_find_redex", recording)
    monkeypatch.setattr(appendix, "appendix_system", built)
    assert exactness_check(3, 9)["pass"]
    assert searched and len(searched) == len(set(searched))


def test_exactness_enumerates_each_basis_once(monkeypatch):
    import qpcalc.appendix as appendix

    calls = []
    oracle = appendix.irreducible_words_oracle

    def counting(q, head, weight):
        calls.append((head, weight))
        return oracle(q, head, weight)

    monkeypatch.setattr(appendix, "irreducible_words_oracle", counting)
    assert exactness_check(3, 9)["pass"]
    # six bases at each of six degrees, but only 26 distinct (head, weight)
    assert len(calls) == len(set(calls)) == 26
    # the memo lives in one call: a second check enumerates again
    exactness_check(3, 9)
    assert len(calls) == 52
