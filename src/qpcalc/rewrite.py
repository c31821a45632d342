"""Truncated rewriting in path algebras.

Rules are oriented by one local order on words:

    K(w) = (weighted degree, -arrow count, index sequence), ascending.

On quivers whose arrows all weigh 1 this is plain (length, lex). Each
rule sends its lead word to a combination of strictly K-larger words, so
any rewrite chain strictly climbs K and must stop below the truncation.

The rule set is interreduced on leads only: no lead occurs inside
another. Before ``add_relation`` inserts a rule it retires every rule
whose lead contains the new lead, so this holds even inside the call.
Hence there are no inclusion ambiguities, and at most one lead matches
at any position of a word. Tails are not kept irreducible, and need not
be: by Bergman's diamond lemma (Adv. Math. 29, 1978) normal forms are
unique once the rules terminate and every overlap ambiguity resolves,
and neither needs irreducible tails. A reducible tail word is rewritten
when a reduction meets it.

Completion processes every overlap ambiguity whose combined word still
weighs less than the truncation; dropped ones only involve words at or
above it, so on exit normal forms below the truncation are unique.

Leads are kept in one trie over their arrow ids. A node is a dict from
arrow id to child; a lead ends at an int, its rule id. Since no lead is
a prefix of another, a node is either a leaf or a dict, and a walk from
one position stops at the only lead that can match there.
``_find_redex`` walks it afresh from each position of a word.

Irreducible words have one walker, ``irreducible_table``. It grows words
one arrow at a time and carries, with each word, the trie nodes its
suffixes have reached (the root among them), so the one new check per
extension, whether a lead ends at the new arrow, is one step from each
carried node (``_advance``). Every proper prefix of an irreducible word
is irreducible, so no other check is needed. Words that end at the same
vertex with the same carried nodes extend alike, so the walk runs weight
by weight over those states, interned, with their word counts: the
Ufnarovski graph of the lead set (V. A. Ufnarovskii, Math. Notes 31,
1982). A caller may run its own automaton alongside and read the counts
by (head, weight, caller state); ``irreducible_counts`` uses none, and
the cyclic-quiver basis check runs one for the basis shape. Its cost
follows the number of states, not the number of words.

A caller who needs the words themselves lists them through the ids
state: with ``start=()`` and ``step=lambda ids, a: ids + (a,)`` the
caller state is the word's arrow ids, so each word is its own key,
counted once, and its tail is ``arrows[ids[0]].tail`` (a lazy path has
ids () and sits at its head). ``jacobi.vertex_commutativity`` takes its
cycles so.

A rewrite step never merges two words, so ``_rewrite_once`` stores each
new word without summing. No tail word is lazy: arrows weigh at least 1,
so a lazy word weighs 0 and would be the lead, and ``add_relation``
rejects lazy leads. A word that is not lazy is fixed by its arrow ids,
so distinct tail words have distinct ids, and splicing distinct ids
between the same prefix and suffix gives distinct words.

Rewriting assumes every word it is given weighs less than the
truncation, as ``reduce`` guarantees by truncating first. A new word
weighs its parent plus its step's gain (``Rule.steps``); only a rule
with a positive gain (``Rule.raises``) can cross the truncation.

Reduction runs in ascending K, in one loop, ``_drain``, that ``reduce``
and ``normal_form_word`` share: the K-smallest pending word goes next.
Every rewrite strictly raises K, so every contribution to a word comes
from a K-smaller word and is in when the word's turn comes. No word is
rewritten twice in one reduction, and a word whose contributions cancel
is never rewritten: about three in four S-polynomials of a completion
reduce to zero, and their two sides cancel before they expand. A step
replaces c·NF(w) by c times the sum of NF over w's leftmost one-step
expansion, which defines NF, so the result is the leftmost-redex normal
form extended linearly, before completion as after it.

No normal form is kept between reductions: a rule insertion can make it
stale, and even a cache that kept every entry still valid would save
only 22% of the rewrites on the benchmark's ``dimensions`` workload
(105,431 against 82,261 over blocks 0-3 at seed 1), less than finding
the stale entries cost.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from .field import ONE, QQ, ZERO, PreconditionError
from .linalg import accumulate
from .quiver import Quiver, Word
from .series import NCElement


class Rule:
    """lead -> tail, never changed once made."""

    __slots__ = ("lead", "tail", "steps", "raises")

    def __init__(self, lead: Word, tail: NCElement):
        self.lead = lead
        self.tail = tail
        # per tail word: its arrows, its coefficient (a unit one as the shared
        # ONE, whose product the rewriting loop skips), and what a rewrite adds
        # to the weight
        weight_of = tail.quiver.weight_of
        lead_weight = weight_of(lead)
        self.steps = [(w[1], ONE if c == 1 else c, weight_of(w) - lead_weight)
                      for w, c in tail.terms.items()]
        # only a rule with a heavier tail word can push a rewrite past the truncation
        self.raises = any(gain > 0 for _ids, _c, gain in self.steps)

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
        self._trie: Dict[int, object] = {}
        self._overlap_queue: deque = deque()

    # -- order ----------------------------------------------------------------

    def key(self, word: Word):
        return (self.quiver.weight_of(word), -len(word[1]), word[1])

    # -- rule management --------------------------------------------------------

    def add_relation(self, el: NCElement) -> Optional[int]:
        """Absorb one relation; returns its rule id (None if it reduced away).

        A worklist: each relation is reduced, and before its rule goes in,
        every rule whose lead contains the new lead is retired and its
        relation queued. Raises PreconditionError when the relation is on
        another quiver (``reduce`` checks), or when a lead is a lazy path,
        which would collapse its vertex.
        """
        first: Optional[int] = None
        pending = [el]
        while pending:
            rel = self.reduce(pending.pop())
            if rel.is_zero():
                continue
            lead = min(rel.terms, key=self.key)
            if not lead[1]:
                raise PreconditionError("a relation with a lazy lead collapses a vertex")
            for rid in [rid for rid, rule in self.rules.items() if _occurs(lead[1], rule.lead[1])]:
                rule = self.rules[rid]
                pending.append(rule.as_element())
                _trie_remove(self._trie, rule.lead[1])
                del self.rules[rid]
            coeff = rel.terms.pop(lead)
            rel.terms = {w: -c / coeff for w, c in rel.terms.items()}
            rid = self._next_id
            self._next_id += 1
            self.rules[rid] = Rule(lead, rel)
            _trie_insert(self._trie, lead[1], rid)
            self._enqueue_overlaps(rid)
            if first is None:
                first = rid
        return first

    # -- redex search -------------------------------------------------------------

    def _find_redex(self, word: Word):
        """Leftmost position carrying a lead, with that lead's rule; None if none.

        Leads never contain one another, so at most one matches at a position.
        """
        ids = word[1]
        trie = self._trie
        n = len(ids)
        for pos in range(n):
            node = trie.get(ids[pos])
            j = pos + 1
            while node is not None:
                if node.__class__ is int:
                    return (pos, node)
                if j == n:
                    break
                node = node.get(ids[j])
                j += 1
        return None

    def _rewrite_once(self, word: Word, pos: int, rid: int) -> Dict[Word, QQ]:
        tail_vertex, ids = word
        rule = self.rules[rid]
        before, after = ids[:pos], ids[pos + len(rule.lead[1]):]
        # a new word weighs weight(word) + gain, and is kept below the truncation;
        # word weighs less than it, so the room is at least 1 and no gain <= 0 is dropped
        room = self.truncation - self.quiver.weight_of(word) if rule.raises else 1
        out: Dict[Word, QQ] = {}
        # distinct tail words give distinct new words (module docstring), so none merge
        for mids, coeff, gain in rule.steps:
            if gain < room:
                out[tail_vertex, before + mids + after] = coeff
        return out

    # -- normal forms ---------------------------------------------------------------

    def _drain(self, pending: Dict[Word, QQ], keep: int) -> Dict[Word, QQ]:
        """Reduce ``pending`` in ascending K until ``keep`` words are left in it,
        and return the irreducible words passed. A cancelled word is skipped
        at its turn."""
        weight_of = self.quiver.weight_of
        heap = [(weight_of(w), -len(w[1]), w[1], w) for w in pending]
        heapify(heap)
        find_redex, rules, truncation = self._find_redex, self.rules, self.truncation
        out: Dict[Word, QQ] = {}
        while len(heap) > keep:
            weight, _n, ids, word = heappop(heap)
            coeff = pending.pop(word)
            if not coeff:
                continue
            redex = find_redex(word)
            if redex is None:
                out[word] = coeff
                continue
            pos, rid = redex
            rule = rules[rid]
            before, after = ids[:pos], ids[pos + len(rule.lead[1]):]
            room = truncation - weight  # a new word weighs weight + gain
            for mids, c, gain in rule.steps:
                if gain < room:
                    new_ids = before + mids + after
                    new = (word[0], new_ids)
                    share = coeff if c is ONE else coeff * c
                    old = pending.get(new)
                    if old is None:
                        pending[new] = share
                        heappush(heap, (weight + gain, -len(new_ids), new_ids, new))
                    else:
                        pending[new] = old + share
        return out

    def normal_form_word(self, word: Word) -> Dict[Word, QQ]:
        """Normal form of one word, which must weigh less than the truncation."""
        return self._drain({word: ONE}, 0)

    def reduce(self, el: NCElement) -> NCElement:
        if el.quiver is not self.quiver:
            raise PreconditionError("the element and the reduction system are on different quivers")
        pending = el.truncate(self.truncation).terms
        terms = self._drain(pending, 1)
        # one word w is left with its final coefficient c: the rest is c·NF(w),
        # asked of normal_form_word, the method the benchmark's trace counts
        for word, coeff in pending.items():
            if coeff:
                accumulate(terms, coeff, self.normal_form_word(word))
        res = NCElement(self.quiver, self.truncation)
        res.terms = terms
        return res

    def reduce_random(self, el: NCElement, rng) -> NCElement:
        """Reduce with a randomized redex schedule: the oracle for ``reduce``."""
        terms: Dict[Word, QQ] = el.truncate(self.truncation).terms
        while True:
            # scans the rules themselves, not the trie the engine searches
            redexes = []
            for word in terms:
                ids = word[1]
                for rid, rule in self.rules.items():
                    lead_ids = rule.lead[1]
                    for pos in range(len(ids) - len(lead_ids) + 1):
                        if ids[pos : pos + len(lead_ids)] == lead_ids:
                            redexes.append((word, pos, rid))
            if not redexes:
                break
            word, pos, rid = redexes[rng.randrange(len(redexes))]
            coeff = terms.pop(word)
            accumulate(terms, coeff, self._rewrite_once(word, pos, rid))
        return NCElement(self.quiver, self.truncation, terms)

    # -- completion -------------------------------------------------------------------

    def _enqueue_overlaps(self, rid: int) -> None:
        lead = self.rules[rid].lead[1]
        for other, rule in self.rules.items():
            olead = rule.lead[1]
            # k stays below both lengths: an overlap, never an inclusion
            for k in range(1, min(len(lead), len(olead))):
                if lead[-k:] == olead[:k]:
                    self._overlap_queue.append((rid, other, k))
                if other != rid and olead[-k:] == lead[:k]:
                    self._overlap_queue.append((other, rid, k))

    def _spolynomial(self, rid1: int, rid2: int, k: int) -> Optional[Tuple[Word, NCElement]]:
        """The ambiguity word of two leads overlapping in k arrows, and its S-polynomial.

        None once either rule is retired (a live rule keeps its lead), or
        when the word weighs at least the truncation.
        """
        r1 = self.rules.get(rid1)
        r2 = self.rules.get(rid2)
        if r1 is None or r2 is None:
            return None
        lead1, lead2 = r1.lead, r2.lead
        composite = (lead1[0], lead1[1] + lead2[1][k:])
        if self.quiver.weight_of(composite) >= self.truncation:
            return None
        prefix_ids = lead1[1][: len(lead1[1]) - k]
        suffix_ids = lead2[1][k:]
        # the constructor drops cancelled words and words of weight >= D
        terms = {(lead1[0], mids + suffix_ids): c for (_, mids), c in r1.tail.terms.items()}
        for (_, mids), c in r2.tail.terms.items():
            w = (lead1[0], prefix_ids + mids)
            terms[w] = terms.get(w, ZERO) - c
        return composite, NCElement(self.quiver, self.truncation, terms)

    def ambiguities(self) -> Iterator[Tuple[Word, NCElement]]:
        """Yield (word, S-polynomial) for every live queued ambiguity; the queue stays."""
        for descriptor in self._overlap_queue:
            amb = self._spolynomial(*descriptor)
            if amb is not None:
                yield amb

    def complete(self) -> None:
        """Process all overlaps below the truncation; confluence then holds there."""
        while self._overlap_queue:
            amb = self._spolynomial(*self._overlap_queue.popleft())
            if amb is not None:
                self.add_relation(amb[1])

    # -- irreducible words ------------------------------------------------------------

    def irreducible_table(self, max_weight: int, start: Hashable = None,
                          step: Optional[Callable[[Hashable, int], Hashable]] = None
                          ) -> Dict[Tuple[int, int, Hashable], int]:
        """Irreducible words of weight < max_weight counted by (head, weight, caller state).

        The caller's automaton starts every word, the lazy paths included,
        in ``start`` and reads its arrow ids through ``step``; without one
        every word stays in ``start``. No word is built: the count runs
        weight by weight over pairs of a state and a caller state. A state
        is a vertex with the tuple of trie nodes the word's suffixes reach
        (module docstring). It is interned by the identity of its last
        node, the deepest, which fixes the others: they are the nodes of
        the shorter suffixes, and each of those is a suffix of the deepest
        one's. The pair decides which extensions stay irreducible and what
        the caller sees next, so words that agree on it are counted
        together. Arrows must weigh at least 1. Interning pays where words share
        states: the n = 4, D = 14 cyclic-quiver basis check counts 22,440 words in
        470 entries in 0.7 ms, against 24 ms listing them (Python 3.11, 2 vCPUs).
        """
        vertices = self.quiver.vertices
        arrows_by_tail = self.quiver.arrows_by_tail
        trie = self._trie
        # per interned state: its vertex and trie nodes, the lazy paths first
        states: List[Tuple[int, tuple]] = [(v, (trie,)) for v in vertices]
        interned = {(v, id(trie)): s for s, v in enumerate(vertices)}
        # state -> (arrow weight, next state, arrow id) for each arrow out of
        # its vertex at which no lead ends
        moves: Dict[int, List[Tuple[int, int, int]]] = {}
        layers: List[Dict[tuple, int]] = [{} for _ in range(max_weight)]
        if max_weight > 0:
            layers[0] = {(s, start): 1 for s in range(len(vertices))}
        table: Dict[Tuple[int, int, Hashable], int] = {}
        for weight, layer in enumerate(layers):
            # arrows weigh at least 1, so nothing extends the top layer
            top = weight + 1 == max_weight
            for (s, c), count in layer.items():
                key = (states[s][0], weight, c)
                table[key] = table.get(key, 0) + count
                if top:
                    continue
                out = moves.get(s)
                if out is None:
                    vertex, nodes = states[s]
                    out = moves[s] = []
                    for arrow in arrows_by_tail[vertex]:
                        reached = _advance(trie, nodes, arrow.index)
                        if reached is None:
                            continue
                        ident = (arrow.head, id(reached[-1]))
                        t = interned.get(ident)
                        if t is None:
                            t = interned[ident] = len(states)
                            states.append((arrow.head, reached))
                        out.append((arrow.weight, t, arrow.index))
                for aw, t, a in out:
                    w2 = weight + aw
                    if w2 < max_weight:
                        nxt = (t, c if step is None else step(c, a))
                        target = layers[w2]
                        target[nxt] = target.get(nxt, 0) + count
        return table

    def irreducible_counts(self, max_weight: int) -> List[int]:
        counts = [0] * max_weight
        for (_head, weight, _c), count in self.irreducible_table(max_weight).items():
            counts[weight] += count
        return counts


def _advance(trie: Dict[int, object], nodes: tuple, a: int) -> Optional[tuple]:
    """The trie nodes a word's suffixes reach once arrow a is appended, the root
    first; None when a lead ends at a (a step from one of ``nodes`` to a leaf)."""
    reached = [trie]
    for node in nodes:
        child = node.get(a)
        if child is None:
            continue
        if child.__class__ is int:
            return None
        reached.append(child)
    return tuple(reached)


def _occurs(lead: Tuple[int, ...], ids: Tuple[int, ...]) -> bool:
    n = len(lead)
    return any(ids[i : i + n] == lead for i in range(len(ids) - n + 1))


def _trie_insert(root: Dict[int, object], ids: Tuple[int, ...], rid: int) -> None:
    node = root
    for a in ids[:-1]:
        node = node.setdefault(a, {})
    node[ids[-1]] = rid


def _trie_remove(root: Dict[int, object], ids: Tuple[int, ...]) -> None:
    """Remove a lead and prune the nodes it leaves empty."""
    path = []
    node = root
    for a in ids[:-1]:
        path.append((node, a))
        node = node[a]
    del node[ids[-1]]
    for parent, a in reversed(path):
        if parent[a]:
            break
        del parent[a]


def system_from_relations(quiver: Quiver, truncation: int, relations: Iterable[NCElement]) -> ReductionSystem:
    sys = ReductionSystem(quiver, truncation)
    for rel in relations:
        if not rel.is_zero():
            sys.add_relation(rel)
    sys.complete()
    return sys
