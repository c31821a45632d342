"""Truncated rewriting in path algebras.

Rules are oriented by one local order on words:

    K(w) = (weighted degree, -arrow count, index sequence), ascending.

On quivers whose arrows all weigh 1 this is plain (length, lex). Each
rule sends its lead word to a combination of strictly K-larger words, so
any rewrite chain strictly climbs K and must stop below the truncation.

Completion processes every overlap ambiguity whose combined word still
weighs less than the truncation; dropped ones only involve words at or
above it, so on exit normal forms below the truncation are unique. The
rule set is kept interreduced throughout, which also rules out inclusion
ambiguities.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .field import ONE, QQ, ZERO
from .quiver import Quiver, Word
from .series import NCElement


class Rule:
    __slots__ = ("lead", "tail")

    def __init__(self, lead: Word, tail: NCElement):
        self.lead = lead
        self.tail = tail

    def as_element(self) -> NCElement:
        lead_el = NCElement.from_word(self.tail.quiver, self.tail.truncation, self.lead)
        return lead_el - self.tail

    def __repr__(self) -> str:
        q = self.tail.quiver
        return f"{q.format_word(self.lead)} -> {self.tail!r}"


class ReductionSystem:
    def __init__(self, quiver: Quiver, truncation: int):
        self.quiver = quiver
        self.truncation = truncation
        self.rules: Dict[int, Rule] = {}
        self._next_id = 0
        self._by_first: Dict[int, List[int]] = {}
        self._by_last: Dict[int, List[int]] = {}
        self._overlap_queue: deque = deque()
        self._nf_cache: Dict[Word, Dict[Word, QQ]] = {}

    # -- order ----------------------------------------------------------------

    def key(self, word: Word):
        return (self.quiver.weight_of(word), -len(word[1]), word[1])

    def _min_word(self, el: NCElement) -> Word:
        return min(el.terms, key=self.key)

    # -- rule management --------------------------------------------------------

    def _index_rule(self, rid: int) -> None:
        ids = self.rules[rid].lead[1]
        self._by_first.setdefault(ids[0], []).append(rid)
        self._by_last.setdefault(ids[-1], []).append(rid)

    def _unindex_rule(self, rid: int) -> None:
        ids = self.rules[rid].lead[1]
        self._by_first[ids[0]].remove(rid)
        self._by_last[ids[-1]].remove(rid)

    def add_relation(self, el: NCElement) -> Optional[int]:
        """Absorb one relation; returns the new rule id (None if it reduced away)."""
        assert el.quiver is self.quiver
        el = self.reduce(el.truncate(self.truncation))
        if el.is_zero():
            return None
        lead = self._min_word(el)
        assert lead[1], "a relation with a lazy lead collapses a vertex"
        coeff = el.terms[lead]
        tail = NCElement(self.quiver, self.truncation)
        tail.terms = {w: -c / coeff for w, c in el.terms.items() if w != lead}
        rid = self._next_id
        self._next_id += 1
        self.rules[rid] = Rule(lead, tail)
        self._index_rule(rid)
        self._nf_cache.clear()
        self._enqueue_overlaps(rid)
        self._interreduce(rid)
        return rid

    def _interreduce(self, new_rid: int) -> None:
        """Restore: no lead reducible by another rule, all tails fully reduced."""
        dirty = True
        while dirty:
            dirty = False
            for rid in list(self.rules):
                if rid not in self.rules or rid == new_rid:
                    continue
                rule = self.rules[rid]
                if self._find_redex(rule.lead, skip_rid=rid) is not None:
                    # lead became reducible: retire and re-absorb the relation
                    el = rule.as_element()
                    self._unindex_rule(rid)
                    del self.rules[rid]
                    self._nf_cache.clear()
                    self.add_relation(el)
                    dirty = True
                    break
            else:
                for rid, rule in self.rules.items():
                    reduced = self.reduce(rule.tail)
                    if reduced.terms != rule.tail.terms:
                        rule.tail = reduced
                        self._nf_cache.clear()

    # -- redex search -------------------------------------------------------------

    def _find_redex(self, word: Word, skip_rid: Optional[int] = None):
        """Leftmost position carrying a lead; K-least lead there. None if irreducible."""
        ids = word[1]
        for pos in range(len(ids)):
            best = None
            for rid in self._by_first.get(ids[pos], ()):
                if rid == skip_rid:
                    continue
                lead_ids = self.rules[rid].lead[1]
                if ids[pos : pos + len(lead_ids)] == lead_ids:
                    if best is None or self.key(self.rules[rid].lead) < self.key(self.rules[best].lead):
                        best = rid
            if best is not None:
                return (pos, best)
        return None

    def _suffix_redex(self, ids: Tuple[int, ...]) -> bool:
        """True when some lead is a suffix of ids (only check needed while extending)."""
        for rid in self._by_last.get(ids[-1], ()):
            lead_ids = self.rules[rid].lead[1]
            if len(lead_ids) <= len(ids) and ids[-len(lead_ids) :] == lead_ids:
                return True
        return False

    def _rewrite_once(self, word: Word, pos: int, rid: int) -> Dict[Word, QQ]:
        tail_vertex, ids = word
        rule = self.rules[rid]
        lead_len = len(rule.lead[1])
        out: Dict[Word, QQ] = {}
        cap = self.truncation
        for (mt, mids), coeff in rule.tail.terms.items():
            new = (tail_vertex, ids[:pos] + mids + ids[pos + lead_len :])
            if self.quiver.weight_of(new) >= cap:
                continue
            old = out.get(new)
            if old is None:
                out[new] = coeff
            else:
                s = old + coeff
                if s:
                    out[new] = s
                else:
                    del out[new]
        return out

    # -- normal forms ---------------------------------------------------------------

    def normal_form_word(self, word: Word) -> Dict[Word, QQ]:
        cache = self._nf_cache
        hit = cache.get(word)
        if hit is not None:
            return hit
        stack = [word]
        while stack:
            w = stack[-1]
            if w in cache:
                stack.pop()
                continue
            redex = self._find_redex(w)
            if redex is None:
                cache[w] = {w: ONE}
                stack.pop()
                continue
            expansion = self._rewrite_once(w, *redex)
            missing = [u for u in expansion if u not in cache]
            if missing:
                stack.extend(missing)
                continue
            acc: Dict[Word, QQ] = {}
            for u, c in expansion.items():
                for v, cv in cache[u].items():
                    # irreducible words cache the shared ONE: skip that product
                    t = c if cv is ONE else c * cv
                    old = acc.get(v)
                    if old is None:
                        acc[v] = t
                    else:
                        s = old + t
                        if s:
                            acc[v] = s
                        else:
                            del acc[v]
            cache[w] = acc
            stack.pop()
        return cache[word]

    def reduce(self, el: NCElement) -> NCElement:
        assert el.quiver is self.quiver
        out: Dict[Word, QQ] = {}
        for word, coeff in el.truncate(self.truncation).terms.items():
            for v, cv in self.normal_form_word(word).items():
                t = coeff if cv is ONE else coeff * cv
                old = out.get(v)
                if old is None:
                    out[v] = t
                else:
                    s = old + t
                    if s:
                        out[v] = s
                    else:
                        del out[v]
        res = NCElement(self.quiver, self.truncation)
        res.terms = out
        return res

    def reduce_random(self, el: NCElement, rng) -> NCElement:
        """Reduce with a randomized redex schedule (no memoization)."""
        terms: Dict[Word, QQ] = dict(el.truncate(self.truncation).terms)
        while True:
            redexes = []
            for word in terms:
                ids = word[1]
                for pos in range(len(ids)):
                    for rid in self._by_first.get(ids[pos], ()):
                        lead_ids = self.rules[rid].lead[1]
                        if ids[pos : pos + len(lead_ids)] == lead_ids:
                            redexes.append((word, pos, rid))
            if not redexes:
                break
            word, pos, rid = redexes[rng.randrange(len(redexes))]
            coeff = terms.pop(word)
            for new, c in self._rewrite_once(word, pos, rid).items():
                acc = terms.get(new, ZERO) + coeff * c
                if acc == 0:
                    terms.pop(new, None)
                else:
                    terms[new] = acc
        return NCElement(self.quiver, self.truncation, terms)

    # -- completion -------------------------------------------------------------------

    def _enqueue_overlaps(self, rid: int) -> None:
        lead = self.rules[rid].lead[1]
        for other, rule in list(self.rules.items()):
            olead = rule.lead[1]
            kmax = min(len(lead), len(olead))
            if other == rid:
                kmax = len(lead)  # self-overlap: proper suffix = proper prefix
            for k in range(1, kmax):
                if lead[-k:] == olead[:k]:
                    self._overlap_queue.append((rid, other, k))
                if other != rid and olead[-k:] == lead[:k]:
                    self._overlap_queue.append((other, rid, k))

    def _spolynomial(self, rid1: int, rid2: int, k: int) -> Optional[NCElement]:
        r1 = self.rules.get(rid1)
        r2 = self.rules.get(rid2)
        if r1 is None or r2 is None:
            return None
        lead1, lead2 = r1.lead, r2.lead
        if lead1[1][-k:] != lead2[1][:k]:
            return None  # stale descriptor after interreduction
        composite = (lead1[0], lead1[1] + lead2[1][k:])
        if self.quiver.weight_of(composite) >= self.truncation:
            return None
        prefix_ids = lead1[1][: len(lead1[1]) - k]
        suffix_ids = lead2[1][k:]
        left = NCElement(self.quiver, self.truncation)
        for (mt, mids), coeff in r1.tail.terms.items():
            w = (lead1[0], mids + suffix_ids)
            if self.quiver.weight_of(w) < self.truncation:
                left.terms[w] = left.terms.get(w, ZERO) + coeff
        right = NCElement(self.quiver, self.truncation)
        for (mt, mids), coeff in r2.tail.terms.items():
            w = (lead1[0], prefix_ids + mids)
            if self.quiver.weight_of(w) < self.truncation:
                right.terms[w] = right.terms.get(w, ZERO) + coeff
        return left - right

    def complete(self, max_rules: Optional[int] = None) -> None:
        """Process all overlaps below the truncation; confluence then holds there."""
        while self._overlap_queue:
            rid1, rid2, k = self._overlap_queue.popleft()
            s = self._spolynomial(rid1, rid2, k)
            if s is None:
                continue
            s = self.reduce(s)
            if not s.is_zero():
                self.add_relation(s)
                if max_rules is not None and len(self.rules) > max_rules:
                    raise RuntimeError("completion exceeded the rule budget")

    # -- irreducible words ------------------------------------------------------------

    def iter_irreducible(self, max_weight: int, head: Optional[int] = None, tails: Optional[Iterable[int]] = None):
        """All rule-irreducible words of weight < max_weight (DFS extension).

        Every proper prefix of an irreducible word is irreducible, so only
        suffix redexes need checking as words grow.
        """
        quiver = self.quiver
        start_vertices = tuple(tails) if tails is not None else quiver.vertices
        arrows_by_tail = quiver.arrows_by_tail
        stack = [((v, ()), 0, v) for v in start_vertices]
        while stack:
            word, weight, at = stack.pop()
            if head is None or at == head:
                yield word, weight
            for arrow in arrows_by_tail[at]:
                w2 = weight + arrow.weight
                if w2 >= max_weight:
                    continue
                ids = word[1] + (arrow.index,)
                if self._suffix_redex(ids):
                    continue
                stack.append(((word[0], ids), w2, arrow.head))

    def irreducible_counts(self, max_weight: int, head: Optional[int] = None) -> List[int]:
        counts = [0] * max_weight
        for _w, weight in self.iter_irreducible(max_weight, head=head):
            counts[weight] += 1
        return counts


def system_from_relations(quiver: Quiver, truncation: int, relations: Iterable[NCElement]) -> ReductionSystem:
    sys = ReductionSystem(quiver, truncation)
    for rel in relations:
        if not rel.is_zero():
            sys.add_relation(rel)
    sys.complete()
    return sys


@dataclass
class Overlap:
    """Words p, q, r with pq and qr both rule leads; the ambiguity is pqr."""

    left: Word
    middle: Word
    right: Word
    rule_left: int
    rule_right: int

    def word(self) -> Word:
        return (self.left[0], self.left[1] + self.middle[1] + self.right[1])


def overlaps(system: ReductionSystem) -> List[Overlap]:
    """Every overlap ambiguity between rule leads, self-overlaps included.

    Inclusion ambiguities cannot occur in an interreduced system; their
    absence is asserted.
    """
    q = system.quiver
    out: List[Overlap] = []
    for rid1, r1 in system.rules.items():
        t1, ids1 = r1.lead
        for rid2, r2 in system.rules.items():
            ids2 = r2.lead[1]
            for k in range(1, min(len(ids1), len(ids2)) + 1):
                if ids1[-k:] != ids2[:k]:
                    continue
                if k == len(ids1) or k == len(ids2):
                    assert rid1 == rid2 and k == len(ids1) == len(ids2), \
                        "inclusion ambiguity in an interreduced system"
                    continue
                p = (t1, ids1[: len(ids1) - k])
                middle = (q.head_of(p), ids1[len(ids1) - k:])
                r = (q.head_of(r1.lead), ids2[k:])
                out.append(Overlap(p, middle, r, rid1, rid2))
    return out


def check_resolvable(overlap: Overlap, system: ReductionSystem
                     ) -> Tuple[bool, NCElement, NCElement]:
    """Reduce the ambiguity both ways; resolvable when the normal forms agree."""
    q = system.quiver
    D = system.truncation
    tail1 = system.rules[overlap.rule_left].tail
    tail2 = system.rules[overlap.rule_right].tail
    r_el = NCElement.from_word(q, D, overlap.right)
    p_el = NCElement.from_word(q, D, overlap.left)
    left_nf = system.reduce(tail1 * r_el)
    right_nf = system.reduce(p_el * tail2)
    return left_nf == right_nf, left_nf, right_nf
