"""Layer tracing from outside the program, for the benchmark's traced run.

:class:`Tracer` replaces selected public functions and methods of the
``qpcalc`` modules with timing wrappers and restores the originals on
:meth:`Tracer.uninstall`. A module-level function is replaced in every
``qpcalc`` module that holds it by name (``qpcalc.cli.jdim`` as well as
``qpcalc.jacobi.jdim``); a method is replaced on its class.

Each wrapped call is a span: name, start, duration and the enclosing span.
Self time is the duration minus the time the span's wrapped children
cover. Hot leaves (functions called hundreds of thousands of times per job
that call no other wrapped function) are not kept as spans: their count and
summed time are added to the enclosing span. All calls, hot or not, feed
the per-name totals in :attr:`Tracer.stats`.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional

# (module, attribute, span name, hot leaf). "Class.method" patches the class.
TRACED = [
    ("cli", "main", "cli.main", False),
    ("serialize", "potential_from_json", "serialize.load", False),
    ("serialize", "kappa_from_json", "serialize.load", False),
    ("serialize", "potential_to_json", "serialize.emit", False),
    ("serialize", "substitution_to_json", "serialize.emit", False),
    ("jacobi", "jdim", "jacobi.jdim", False),
    ("rewrite", "system_from_relations", "rewrite.system_from_relations", False),
    ("rewrite", "ReductionSystem.add_relation", "rewrite.add_relation", False),
    ("rewrite", "ReductionSystem.complete", "rewrite.complete", False),
    ("rewrite", "ReductionSystem.reduce", "rewrite.reduce", False),
    ("rewrite", "ReductionSystem.normal_form_word", "rewrite.normal_form_word", True),
    ("rewrite", "ReductionSystem.irreducible_counts", "rewrite.irreducible_counts", False),
    ("subst", "compose", "subst.compose", False),
    ("subst", "compose_chain", "subst.compose_chain", False),
    ("subst", "Substitution.apply_potential", "subst.apply_potential", False),
    ("subst", "Substitution.apply_element", "subst.apply_element", False),
    ("subst", "Substitution.apply_word", "subst.apply_word", False),
    ("series", "NCElement.__mul__", "series.mul", True),
    ("series", "NCElement.__add__", "series.add", True),
    ("cycles", "Potential.add_cycle", "cycles.add_cycle", True),
    ("cycles", "Potential.cyclic_derivative", "cycles.cyclic_derivative", False),
    ("monomial", "monomialize", "monomial.monomialize", False),
    ("a3", "classify", "a3.classify", False),
    ("a3", "normalize", "a3.normalize", False),
    ("realize", "solve_g_system", "realize.solve_g_system", False),
    ("realize", "emit_presentation", "realize.emit_presentation", False),
    ("realize", "contraction_relations", "realize.contraction_relations", False),
    ("appendix", "appendix_system", "appendix.appendix_system", False),
    ("appendix", "exactness_check", "appendix.exactness_check", False),
    ("appendix", "appendix_checks", "appendix.appendix_checks", False),
    ("linalg", "RowSpace.insert", "linalg.insert", False),
    ("linalg", "RowSpace.reduce", "linalg.reduce", True),
]

# spans kept in memory for the trace file; calls beyond this still count
MAX_SPANS = 50_000


class _Frame:
    __slots__ = ("span_id", "child", "leaves")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child = 0.0
        self.leaves: Optional[Dict[str, List[float]]] = None


class Tracer:
    def __init__(self):
        # name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        # counters read from arguments and results
        self.counts: Dict[str, int] = {"add_relation.useful": 0, "rules_final": 0,
                                       "compose_chain.steps": 0}
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self._stack: List[_Frame] = [_Frame(-1)]
        self._next_id = 0
        self._undo: List[tuple] = []

    # -- installation -----------------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "qpcalc" or key.startswith("qpcalc.")]
        for module_name, attr, name, hot in TRACED:
            home = importlib.import_module(f"qpcalc.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(original, name, hot))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, hot)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key: str, wrapper: Callable) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    # -- the wrapper ----------------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, hot: bool) -> Callable:
        stack = self._stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        counts = self.counts
        clock = time.perf_counter
        post = _POST_HOOKS.get(name)
        spans = self.spans

        def traced(*args, **kwargs):
            if hot:
                frame = _Frame(-1)
            else:
                frame = _Frame(self._next_id)
                self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1]
                parent.child += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame.child
                if hot:
                    if parent.leaves is None:
                        parent.leaves = {}
                    leaf = parent.leaves.setdefault(name, [0, 0.0])
                    leaf[0] += 1
                    leaf[1] += duration
                elif len(spans) < MAX_SPANS:
                    spans.append((frame.span_id, parent.span_id, name, start, duration,
                                  duration - frame.child, frame.leaves))
                else:
                    self.spans_dropped += 1
            if post is not None:
                post(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reporting ------------------------------------------------------------------------

    def trace_document(self) -> Dict[str, object]:
        """Per-name totals plus the kept spans, for the results file."""
        return {
            "totals": {name: {"calls": int(s[0]), "total_s": s[1], "self_s": s[2]}
                       for name, s in sorted(self.stats.items())},
            "span_fields": ["id", "parent", "name", "start_s", "duration_s", "self_s", "leaves"],
            "spans": [list(span) for span in self.spans],
            "spans_dropped": self.spans_dropped,
        }


def _count_useful(counts, args, result) -> None:
    if result is not None:
        counts["add_relation.useful"] += 1


def _count_rules(counts, args, result) -> None:
    counts["rules_final"] += len(result.rules)


def _count_steps(counts, args, result) -> None:
    counts["compose_chain.steps"] += len(args[0])


_POST_HOOKS = {
    "rewrite.add_relation": _count_useful,
    "rewrite.system_from_relations": _count_rules,
    "appendix.appendix_system": _count_rules,
    "subst.compose_chain": _count_steps,
}
