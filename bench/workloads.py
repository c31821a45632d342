"""Seeded input generators and job lists for the three benchmark workloads.

The generators write plain JSON documents and never import ``qpcalc``: the
program under test sees only the files. Arrow names follow the documented
layout of ``double_an(n, loopless)``: at each vertex v = 1..n first the loop
slot (absent when v is loopless), then the edge slot between v and v + 1;
slot i owns arrow ``a<i>`` (and ``b<i>`` for an edge slot).

A job is a dict with

* ``argv``: the ``qp`` argument list (input paths relative to the work dir);
* ``kind``: the subcommand, used for semantic checks and per-subcommand
  timings;
* ``expect_exit``: the exit code the job must return, or ``None`` when the
  code follows from the output itself (``qp jdim``: 0 iff every status is
  exact).

Parameters and the reasons for them are in ``bench/NOTES.md``.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from typing import Dict, List, Tuple

WORKLOADS = ("dimensions", "normal-forms", "geometry")

# coefficients: small nonzero rationals with mixed denominators
_COEFFS = [Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3)]


def _coeff(rng: random.Random) -> str:
    c = rng.choice(_COEFFS)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# -- Type A potentials on double_an(n) (a loop at every vertex) ----------------------


def _slots(n: int) -> List[Tuple[str, int]]:
    """(kind, left vertex) for slots 1..2n-1 of double_an(n)."""
    out = []
    for v in range(1, n + 1):
        out.append(("loop", v))
        if v < n:
            out.append(("pair", v))
    return out


def _x_letter(n: int, i: int) -> List[str]:
    """x_i: the loop itself, or a_i b_i based at the left vertex."""
    return [f"a{i}"] if _slots(n)[i - 1][0] == "loop" else [f"a{i}", f"b{i}"]


def _x_prime_letter(n: int, i: int) -> List[str]:
    """x_i': the loop itself, or b_i a_i based at the right vertex."""
    return [f"a{i}"] if _slots(n)[i - 1][0] == "loop" else [f"b{i}", f"a{i}"]


def _closed_x_word(rng: random.Random, n: int, x_degree: int) -> List[str]:
    """A random closed walk using ``x_degree`` a-arrows (loops and right steps).

    The walk never goes left of its start; every cycle has such a rotation.
    """
    slots = _slots(n)
    loop_slot = {v: i for i, (kind, v) in enumerate(slots, start=1) if kind == "loop"}
    edge_slot = {v: i for i, (kind, v) in enumerate(slots, start=1) if kind == "pair"}
    start = rng.randint(1, n)
    v, budget, names = start, x_degree, []
    while budget:
        moves = ["loop"]
        if v < n:
            moves.append("right")
        if v > start:
            moves.append("left")
        move = rng.choice(moves)
        if move == "loop":
            names.append(f"a{loop_slot[v]}")
            budget -= 1
        elif move == "right":
            names.append(f"a{edge_slot[v]}")
            v += 1
            budget -= 1
        else:
            v -= 1
            names.append(f"b{edge_slot[v]}")
    while v > start:
        v -= 1
        names.append(f"b{edge_slot[v]}")
    return names


def type_a_shape(rng: random.Random, n: int) -> List[List[str]]:
    """Terms of a Type A potential on double_an(n): every middle x_i' x_{i+1},
    one pure power x_i^p per slot with p in 3..5, and 2-5 random closed
    x-words of x-degree 3-4."""
    m = 2 * n - 1
    terms = [_x_prime_letter(n, i) + _x_letter(n, i + 1) for i in range(1, m)]
    terms += [_x_letter(n, i) * rng.randint(3, 5) for i in range(1, m + 1)]
    terms += [_closed_x_word(rng, n, rng.randint(3, 4)) for _ in range(rng.randint(2, 5))]
    return terms


# -- two-loop potentials on the loopless three-vertex path -----------------------------

_X = ["b1", "a1"]  # x = x_1' at vertex 2
_Y = ["a2", "b2"]  # y = x_2 at vertex 2


def two_loop_shape(rng: random.Random, truncation: int) -> List[List[str]]:
    """Terms xy, x^p and y^q (p, q in 2..3) and 2-4 random words in x, y of
    degree 3 .. (truncation - 2) / 2."""
    terms = [_X + _Y, _X * rng.randint(2, 3), _Y * rng.randint(2, 3)]
    top = (truncation - 2) // 2
    for _ in range(rng.randint(2, 4)):
        letters = [rng.choice((_X, _Y)) for _ in range(rng.randint(3, top))]
        terms.append([a for letter in letters for a in letter])
    return terms


def potential(n: int, loopless: List[int], truncation: int, shape: List[List[str]],
              rng: random.Random) -> Dict[str, object]:
    """A potential document with a random nonzero coefficient on every term."""
    return {
        "quiver": {"n": n, "loopless": loopless},
        "truncation": truncation,
        "terms": [{"coeff": _coeff(rng), "arrows": arrows} for arrows in shape],
    }


# -- power tables for qp realize ----------------------------------------------------------


def power_shape(rng: random.Random, n: int, count: int) -> List[Tuple[int, int]]:
    """``count`` distinct higher powers (i, j), j in 3..4, on slots 1..2n-1."""
    return sorted(rng.sample([(i, j) for i in range(1, 2 * n) for j in (3, 4)], count))


def power_table(n: int, shape: List[Tuple[int, int]], rng: random.Random) -> Dict[str, object]:
    return {"n": n, "kappa": [{"i": i, "j": j, "coeff": _coeff(rng)} for i, j in shape]}


# -- job lists ----------------------------------------------------------------------------
#
# Each workload has a fixed pool of job templates: subcommand, sizes and
# the shape of the input (which terms a potential has, which powers a table
# has), drawn once from a constant design seed. The run seed draws every
# coefficient and the order of the jobs. A block is one pass over the whole
# pool with fresh coefficients, and the worker runs whole blocks, so every
# run executes every template the same number of times.
#
# Why: the cost of one job depends mostly on the input's shape and spans a
# factor of ten or more between shapes of one size. With fresh shapes for
# every seed, the spread of the end-to-end figures across seeds was twice
# the spread between runs of one seed. Generic coefficients leave the cost
# nearly unchanged.


def _write(workdir: str, name: str, doc: Dict[str, object]) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return name


def _job(argv: List[str], kind: str, expect_exit) -> Dict[str, object]:
    return {"argv": argv, "kind": kind, "expect_exit": expect_exit}


# (n, D) of the jdim templates, each used JDIM_SHAPES times: D = 9 on n = 3
# gives a mix of Exact and LowerBound certificates, D = 8 is almost always
# LowerBound
JDIM_SIZES = [(3, 9), (3, 8), (4, 8)]
JDIM_SHAPES = 6

# (n, D) of the monomialize templates and the classify truncation, each
# used NORMAL_FORM_SHAPES times
MONOMIALIZE_SIZES = [(2, 8), (3, 7)]
CLASSIFY_TRUNCATION = 12
NORMAL_FORM_SHAPES = 15

# (check, n, D) for qp diamond; the cyclic quiver has no free parameters
DIAMOND_CASES = [
    ("exactness", 2, 12), ("exactness", 3, 12), ("exactness", 4, 12),
    ("basis", 2, 14), ("basis", 3, 14), ("basis", 4, 14),
]
REALIZE_N = 3
REALIZE_POWERS = 3
REALIZE_SHAPES = 16


def templates(workload: str) -> List[Tuple]:
    """The workload's job templates; the same for every run seed."""
    rng = random.Random(f"{workload}:design")
    if workload == "dimensions":
        return [("jdim", n, D, type_a_shape(rng, n))
                for n, D in JDIM_SIZES for _ in range(JDIM_SHAPES)]
    if workload == "normal-forms":
        pool = []
        for _ in range(NORMAL_FORM_SHAPES):
            pool += [("monomialize", n, D, type_a_shape(rng, n)) for n, D in MONOMIALIZE_SIZES]
            pool.append(("classify", 3, CLASSIFY_TRUNCATION,
                         two_loop_shape(rng, CLASSIFY_TRUNCATION)))
        return pool
    pool = [("diamond", n, D, check) for check, n, D in DIAMOND_CASES]
    pool += [("realize", REALIZE_N, None, power_shape(rng, REALIZE_N, REALIZE_POWERS))
             for _ in range(REALIZE_SHAPES)]
    return pool


def _instantiate(template: Tuple, rng: random.Random, workdir: str, name: str
                 ) -> Dict[str, object]:
    kind, n, D, shape = template
    if kind == "jdim":
        path = _write(workdir, name, potential(n, [], D, shape, rng))
        argv = ["jdim", "--input", path, "--quotient-vertex", "1", "--quotient-vertex", str(n)]
        return _job(argv, kind, None)
    if kind == "monomialize":
        path = _write(workdir, name, potential(n, [], D, shape, rng))
        return _job(["monomialize", "--input", path, "--emit-substitution"], kind, 0)
    if kind == "classify":
        path = _write(workdir, name, potential(n, [1, 2, 3], D, shape, rng))
        return _job(["a3", "classify", "--input", path, "--emit-substitution"], kind, 0)
    if kind == "diamond":
        return _job(["diamond", "--n", str(n), "--max-degree", str(D), "--check", shape], kind, 0)
    path = _write(workdir, name, power_table(n, shape, rng))
    return _job(["realize", "--input", path], kind, 0)


# blocks generated per run: more than an untraced window of 30 s completes
# here; a longer window starts again from block 0
BLOCKS = 24


def make_blocks(workload: str, seed: int, workdir: str) -> List[List[Dict[str, object]]]:
    """Write the workload's inputs for ``seed`` into ``workdir``; return its blocks."""
    pool = templates(workload)
    rng = random.Random(f"{workload}:{seed}")
    blocks = []
    for b in range(BLOCKS):
        order = rng.sample(range(len(pool)), len(pool))
        blocks.append([_instantiate(pool[t], rng, workdir, f"b{b:02d}-t{t:03d}.json")
                       for t in order])
    return blocks
