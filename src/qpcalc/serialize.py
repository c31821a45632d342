"""JSON schemas for potentials, coefficient tables, and substitutions.

The on-disk potential format is

    {"quiver": {"n": 3, "loopless": [1, 2, 3]},
     "truncation": 12,
     "terms": [{"coeff": "1/4", "arrows": ["a1", "b1", "a1", "b1"]}, ...]}

with rationals as decimal-free "p/q" strings and arrows named by slot
(a1, b1, a2, ...). Emission is canonical: every cycle appears as its
minimal rotation and terms are sorted by (path length, index sequence),
so identical potentials always serialize to identical bytes. The
realization pipeline reads a pure-power coefficient table instead:

    {"n": 3, "kappa": [{"i": 2, "j": 3, "coeff": "1"}, ...]}
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .field import QQ, rational, rational_str
from .quiver import DoubledPathQuiver, double_an
from .cycles import Potential
from .series import NCElement
from .subst import Substitution


class SchemaError(ValueError):
    """The input does not match the documented JSON schema."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _is_int(value) -> bool:
    """A JSON integer; bool is a subclass of int in Python but not one in JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def _rational_field(entry, key: str) -> QQ:
    value = entry.get(key)
    _require(isinstance(value, str), f"'{key}' must be a 'p/q' string")
    try:
        return rational(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {value!r}: {exc}") from None


def quiver_from_json(data) -> DoubledPathQuiver:
    _require(isinstance(data, dict), "'quiver' must be an object")
    n = data.get("n")
    _require(_is_int(n) and n >= 1, "'quiver.n' must be a positive integer")
    loopless = data.get("loopless", [])
    _require(
        isinstance(loopless, list) and all(_is_int(v) for v in loopless),
        "'quiver.loopless' must be a list of integers",
    )
    _require(
        set(loopless) <= set(range(1, n + 1)),
        f"'quiver.loopless' entries must lie in 1..{n}",
    )
    return double_an(n, loopless)


def quiver_to_json(quiver: DoubledPathQuiver) -> Dict[str, object]:
    return {"n": quiver.n, "loopless": sorted(quiver.loopless)}


def _word_from_entry(quiver: DoubledPathQuiver, entry) -> Tuple[Tuple, QQ]:
    _require(isinstance(entry, dict), "each term must be an object")
    names = entry.get("arrows")
    _require(
        isinstance(names, list) and names and all(isinstance(s, str) for s in names),
        "'arrows' must be a nonempty list of arrow names",
    )
    unknown = [s for s in names if s not in quiver.by_name]
    _require(not unknown, f"unknown arrow names {unknown}")
    arrows = [quiver.by_name[s] for s in names]
    for before, after in zip(arrows, arrows[1:]):
        _require(before.head == after.tail,
                 f"arrows do not compose: non-composable at {after.name}")
    word = (arrows[0].tail, tuple(a.index for a in arrows))
    _require(
        quiver.head_of(word) == word[0],
        f"term {'*'.join(names)} is not a closed cycle",
    )
    return word, _rational_field(entry, "coeff")


def potential_from_json(data, truncation: Optional[int] = None) -> Potential:
    """Parse a potential; `truncation` overrides the stored one."""
    _require(isinstance(data, dict), "potential file must hold a JSON object")
    for key in ("quiver", "truncation", "terms"):
        _require(key in data, f"missing key '{key}'")
    quiver = quiver_from_json(data["quiver"])
    stored = data["truncation"]
    _require(_is_int(stored) and stored >= 2, "'truncation' must be an integer >= 2")
    effective = truncation if truncation is not None else stored
    terms = data["terms"]
    _require(isinstance(terms, list), "'terms' must be a list")
    f = Potential(quiver, effective)
    for entry in terms:
        word, coeff = _word_from_entry(quiver, entry)
        f.add_cycle(word, coeff)
    return f


def potential_to_json(f: Potential) -> Dict[str, object]:
    return {
        "quiver": quiver_to_json(f.quiver),
        "truncation": f.truncation,
        "terms": element_to_json(f),
    }


def element_to_json(el: NCElement) -> List[Dict[str, object]]:
    """Term list of a path series (lazy paths rendered as ['eV']), in
    ``sorted_items`` order; that is (length, ids, tail) on the unit-weight
    doubled quivers, the only ones serialised."""
    out = []
    for (tail, ids), coeff in el.sorted_items():
        names = [el.quiver.arrows[i].name for i in ids] if ids else [f"e{tail}"]
        out.append({"coeff": rational_str(coeff), "arrows": names})
    return out


def substitution_to_json(sub: Substitution) -> Dict[str, object]:
    images = {}
    for index in sorted(sub.images):
        name = sub.quiver.arrows[index].name
        images[name] = element_to_json(sub.images[index])
    return {"truncation": sub.truncation, "arrows": images}


def kappa_from_json(data) -> Tuple[int, Dict[Tuple[int, int], QQ]]:
    _require(isinstance(data, dict), "coefficient file must hold a JSON object")
    for key in ("n", "kappa"):
        _require(key in data, f"missing key '{key}'")
    n = data["n"]
    _require(_is_int(n) and n >= 1, "'n' must be a positive integer")
    entries = data["kappa"]
    _require(isinstance(entries, list), "'kappa' must be a list")
    table: Dict[Tuple[int, int], QQ] = {}
    for entry in entries:
        _require(isinstance(entry, dict), "each kappa entry must be an object")
        i, j = entry.get("i"), entry.get("j")
        _require(_is_int(i) and 1 <= i <= 2 * n - 1, f"slot index {i} outside 1..{2 * n - 1}")
        _require(_is_int(j) and j >= 2, f"power {j} below 2")
        _require((i, j) not in table, f"duplicate kappa entry ({i},{j})")
        coeff = _rational_field(entry, "coeff")
        if coeff != 0:
            table[(i, j)] = coeff
    return n, table


def kappa_to_json(table: Dict[Tuple[int, int], QQ]) -> List[Dict[str, object]]:
    """The entry list of a power table, the file's "kappa" list, sorted by (i, j)."""
    return [{"i": i, "j": j, "coeff": rational_str(c)} for (i, j), c in sorted(table.items())]
