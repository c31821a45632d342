"""Cyclic loop quiver: confluent system, basis counts, exact complex."""

import random

from qpcalc.appendix import (
    appendix_checks,
    appendix_quiver,
    appendix_system,
    euler_count,
    exactness_check,
    expected_count,
    irreducible_words_oracle,
)
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


def test_euler_counts():
    assert [euler_count(2, d) for d in range(6)] == [1, 0, 1, 0, 1, 0]
    assert [euler_count(1, d) for d in range(6)] == [1, 0, 0, 0, 0, 0]
    assert euler_count(3, 4) == 3  # monomials of weight 4 in two variables


def test_expected_count_matches_engine_for_n3():
    system = appendix_system(3, 8)
    counts = system.irreducible_counts(8, head=2)
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
