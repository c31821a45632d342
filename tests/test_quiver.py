from qpcalc.quiver import double_an


def path(q, names):
    """The word through the named arrows, in order."""
    arrows = [q.by_name[n] for n in names]
    return (arrows[0].tail, tuple(a.index for a in arrows))


def test_fully_looped_three_vertex_layout():
    q = double_an(3)
    # slots: loop@1, edge(1,2), loop@2, edge(2,3), loop@3
    assert q.m == 5
    assert [q.is_loop(i) for i in range(1, 6)] == [True, False, True, False, True]
    assert q.left_vertex(2) == 1 and q.right_vertex(2) == 2
    assert q.left_vertex(4) == 2 and q.right_vertex(4) == 3
    assert q.left_vertex(3) == q.right_vertex(3) == 2
    names = [a.name for a in q.arrows]
    assert names == ["a1", "a2", "b2", "a3", "a4", "b4", "a5"]


def test_loopless_everywhere_layout():
    q = double_an(3, loopless=[1, 2, 3])
    assert q.m == 2
    assert [a.name for a in q.arrows] == ["a1", "b1", "a2", "b2"]
    # x_1' and x_2 are both cycles at vertex 2
    assert q.xprime_word(1)[0] == 2
    assert q.x_word(2)[0] == 2


def test_word_composition_and_weight():
    q = double_an(2)
    w = path(q, ["a2", "b2"])
    assert w[0] == 1 and q.head_of(w) == 1
    assert q.weight_of(w) == 2
    assert q.concat(path(q, ["a2"]), path(q, ["a2"])) is None  # 1->2 then 1->2 does not compose


def test_x_degree_counts_follow_a_occurrences():
    q = double_an(3, loopless=[1, 2, 3])
    w = path(q, ["b1", "a1", "a2", "b2"])  # x*y based at vertex 2
    assert q.x_degrees(w) == (1, 1)


def test_mixed_loop_counts():
    q = double_an(2)  # slots: loop@1, edge(1,2), loop@2
    w = path(q, ["a1", "a1", "a2", "a3", "b2"])
    assert q.x_degrees(w) == (2, 1, 1)


def _all_doubled_quivers(max_n=4):
    for n in range(1, max_n + 1):
        for mask in range(1 << n):
            yield double_an(n, [v for v in range(1, n + 1) if mask >> (v - 1) & 1])


def test_x_power_is_iterated_x_letter():
    for q in _all_doubled_quivers():
        for i in range(1, q.m + 1):
            word = (q.left_vertex(i), ())
            for k in range(5):
                assert q.x_power(i, k) == word
                word = q.concat(word, q.x_word(i))


def test_loop_slot_finds_the_loop_at_a_vertex():
    for q in _all_doubled_quivers():
        for v in q.vertices:
            loops = [i for i in range(1, q.m + 1) if q.is_loop(i) and q.left_vertex(i) == v]
            assert q.loop_slot(v) == (loops[0] if loops else None)
            assert len(loops) == (0 if v in q.loopless else 1)
