import json

import pytest

from qpcalc.cycles import Potential, x_monomial
from qpcalc.field import QQ
from qpcalc.quiver import double_an
from qpcalc.serialize import (
    SchemaError,
    kappa_from_json,
    kappa_to_json,
    potential_from_json,
    potential_to_json,
    substitution_to_json,
)
from qpcalc.subst import Substitution
from qpcalc.series import NCElement


def sample_potential(D=10):
    q = double_an(3, loopless=[1, 2, 3])
    f = Potential(q, D)
    f = f + x_monomial(q, D, [(1, True)] * 2, QQ(1))
    f = f + x_monomial(q, D, [(1, True), (2, False)], QQ(1))
    f = f + x_monomial(q, D, [(2, False)] * 3, QQ(-2, 7))
    return f


def test_potential_round_trip():
    f = sample_potential()
    data = potential_to_json(f)
    g = potential_from_json(data)
    assert g.truncation == f.truncation
    assert g.terms == f.terms
    # emission is canonical: stable under a serialize/parse cycle
    assert potential_to_json(g) == data


def test_terms_sorted_by_length_then_index():
    data = potential_to_json(sample_potential())
    lengths = [len(t["arrows"]) for t in data["terms"]]
    assert lengths == sorted(lengths)
    assert data["terms"][0]["coeff"] in ("1", "-2/7")
    assert json.dumps(data)  # JSON-serializable throughout


def test_schema_violations_are_reported():
    with pytest.raises(SchemaError):
        potential_from_json([])
    with pytest.raises(SchemaError):
        potential_from_json({"quiver": {"n": 0}, "truncation": 8, "terms": []})
    base = {"quiver": {"n": 2, "loopless": []}, "truncation": 8}
    with pytest.raises(SchemaError):
        potential_from_json({**base, "terms": [{"coeff": "1", "arrows": ["zz"]}]})
    with pytest.raises(SchemaError):
        # open path, not a cycle
        potential_from_json({**base, "terms": [{"coeff": "1", "arrows": ["a2"]}]})
    with pytest.raises(SchemaError):
        potential_from_json({**base, "terms": [{"coeff": 1.5, "arrows": ["a1"]}]})


POTENTIAL_DOC = {"quiver": {"n": 2, "loopless": [1]}, "truncation": 8,
                 "terms": [{"coeff": "1", "arrows": ["a2", "a2"]}]}
KAPPA_DOC = {"n": 2, "kappa": [{"i": 1, "j": 3, "coeff": "2/3"}]}


@pytest.mark.parametrize("load, doc, path", [
    (potential_from_json, POTENTIAL_DOC, ("quiver", "n")),
    (potential_from_json, POTENTIAL_DOC, ("quiver", "loopless", 0)),
    (potential_from_json, POTENTIAL_DOC, ("truncation",)),
    (kappa_from_json, KAPPA_DOC, ("n",)),
    (kappa_from_json, KAPPA_DOC, ("kappa", 0, "i")),
    (kappa_from_json, KAPPA_DOC, ("kappa", 0, "j")),
], ids=["quiver.n", "loopless", "truncation", "kappa.n", "kappa.i", "kappa.j"])
def test_booleans_are_not_integers(load, doc, path):
    load(doc)
    bad = json.loads(json.dumps(doc))
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = True
    with pytest.raises(SchemaError):
        load(bad)


def test_kappa_round_trip():
    n, table = kappa_from_json({"n": 2, "kappa": [
        {"i": 1, "j": 3, "coeff": "2/3"},
        {"i": 2, "j": 2, "coeff": "-1"},
        {"i": 3, "j": 4, "coeff": "0"},
    ]})
    assert n == 2
    assert table == {(1, 3): QQ(2, 3), (2, 2): QQ(-1)}
    assert kappa_to_json(table) == [
        {"i": 1, "j": 3, "coeff": "2/3"},
        {"i": 2, "j": 2, "coeff": "-1"},
    ]
    with pytest.raises(SchemaError):
        kappa_from_json({"n": 2, "kappa": [{"i": 9, "j": 2, "coeff": "1"}]})


def test_substitution_emission_shape():
    q = double_an(3, loopless=[1, 2, 3])
    a1 = q.by_name["a1"]
    image = NCElement.from_word(q, 8, (1, (a1.index,))) + NCElement.from_word(
        q, 8, (1, (a1.index, a1.index + 1, a1.index)), QQ(1, 2)
    )
    sub = Substitution(q, 8, {a1.index: image})
    data = substitution_to_json(sub)
    assert set(data["arrows"]) == {"a1"}
    assert data["arrows"]["a1"][0] == {"coeff": "1", "arrows": ["a1"]}
    assert data["arrows"]["a1"][1]["arrows"] == ["a1", "b1", "a1"]
