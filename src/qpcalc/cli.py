"""The `qp` command line tool.

One executable fronts every pipeline: Jacobi dimensions, Type A
recognition and monomialization, hypersurface realization, the two-cycle
classification with its flops and orbits, and the cyclic-quiver basis and
exactness checks. All input and output is JSON with sorted keys and
"p/q" rationals, so identical invocations produce identical bytes.

``qp realize`` looks its steps up on the ``qpcalc.realize`` module at each
call, so it uses whatever that module holds at that moment.

Exit codes: 0 on success, 1 on malformed input or violated preconditions,
2 when the computation is inconclusive (a lower-bound-only dimension, a
failed verification check).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Dict, List, Optional, Sequence

from . import realize
from .a3 import (
    NotOnQ,
    apq_orbit,
    class_potential,
    classify,
    derived_orbit,
    flop,
    gv_set,
    scaling,
)
from .appendix import appendix_checks, exactness_check
from .cycles import Potential
from .field import QQ, ZERO, PreconditionError, rational, rational_str
from .jacobi import EXACT, DimensionReport, jdim
from .monomial import monomialize, type_a_report
from .serialize import (
    SchemaError,
    element_to_json,
    kappa_from_json,
    kappa_to_json,
    potential_from_json,
    potential_to_json,
    substitution_to_json,
)


class CLIError(Exception):
    """Bad invocation or unreadable input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract says 1
        raise CLIError(message)


def _emit(payload: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CLIError(f"{path}: not valid JSON: {exc}") from None


def _check_degree(d: int) -> None:
    if d < 4:
        raise CLIError(f"max degree must be at least 4, got {d}")


def _load_potential(args) -> Potential:
    f = potential_from_json(_load_json(args.input), args.max_degree)
    _check_degree(f.truncation)
    return f


def _status(report: DimensionReport) -> str:
    return "exact" if report.certificate == EXACT else "lower_bound"


def _params_json(params) -> List[object]:
    return [p if isinstance(p, int) else rational_str(p) for p in params]


# -- subcommands ---------------------------------------------------------------------


def cmd_jdim(args) -> int:
    f = _load_potential(args)
    report = jdim(f)
    all_exact = report.certificate == EXACT
    quotients: Dict[str, object] = {}
    for v in args.quotient_vertex:
        sub = jdim(f, quotient_vertices=(v,))
        quotients[str(v)] = {
            "status": _status(sub),
            "dim": sub.value,
            "per_degree": list(sub.counts),
        }
        all_exact = all_exact and sub.certificate == EXACT
    _emit({
        "status": _status(report),
        "dim": report.value,
        "per_degree": list(report.counts),
        "max_degree": f.truncation,
        "quotients": quotients,
    })
    return 0 if all_exact else 2


def cmd_monomialize(args) -> int:
    f = _load_potential(args)
    g, table, sub = monomialize(f)
    soundness = sub.apply_potential(f) == g
    before, after = jdim(f), jdim(g)
    dim_invariant = before.counts == after.counts and before.certificate == after.certificate
    payload: Dict[str, object] = {
        "kappa": kappa_to_json(table),
        "trusted_below": f.truncation,
        "checks": {"soundness": soundness, "dim_invariant": dim_invariant},
    }
    if args.emit_substitution:
        payload["substitution"] = substitution_to_json(sub)
    _emit(payload)
    return 0 if soundness and dim_invariant else 2


def cmd_typea_check(args) -> int:
    f = _load_potential(args)
    report = type_a_report(f)
    _emit({
        "verdict": report.kind,
        "missing": list(report.missing_middles),
        "loop_squares": list(report.loop_squares),
        "middle_coeffs": {
            str(i): rational_str(c) for i, c in sorted(report.middle_coeffs.items())
        },
    })
    return 0


def cmd_realize(args) -> int:
    if args.max_degree < 1:
        raise CLIError(f"max degree must be at least 1, got {args.max_degree}")
    n, table = kappa_from_json(_load_json(args.input))
    anchor = args.anchor
    gs = realize.solve_g_system(n, table, anchor)
    data = realize.emit_presentation(gs)
    arrows = []
    for t in range(n + 1):
        arrows.append({"name": f"a{t}", "tail": t, "head": (t + 1) % (n + 1)})
        arrows.append({"name": f"b{t}", "tail": (t + 1) % (n + 1), "head": t})
    loops = []
    if data["vertex0"]["type"] == "(-2,0)":
        loops.append({"vertex": 0, "label": data["vertex0"]["loop"]})
    for curve in data["curves"]:
        if curve["type"] == "(-2,0)":
            loops.append({"vertex": curve["index"], "label": curve["loop"]})
    relations = [
        {"label": label, "terms": element_to_json(el)}
        for label, el in realize.contraction_relations(n, table, args.max_degree)
    ]
    _emit({
        "anchor": anchor,
        "gs": [realize.monomial_strings(g) for g in gs],
        "equation": data["hypersurface"],
        "modules": data["modules"],
        "bundles": [curve["type"] for curve in data["curves"]],
        "nccr": {"vertices": list(range(n + 1)), "arrows": arrows, "loops": loops},
        "relations": relations,
    })
    return 0


def _load_two_cycle(args) -> Potential:
    f = _load_potential(args)
    # the crossing xy is the consecutive product x_1' x_2; classify rejects
    # a potential without it, or on another quiver
    crossing = type_a_report(f).middle_coeffs.get(1, ZERO)
    if crossing not in (0, 1):
        f = scaling(f.quiver, f.truncation, 1 / crossing, QQ(1)).apply_potential(f)
    return f


def cmd_a3_classify(args) -> int:
    f = _load_two_cycle(args)
    cls = classify(f)
    payload: Dict[str, object] = {
        "family": cls.family,
        "params": _params_json(cls.parameters),
        "normal_form": potential_to_json(class_potential(cls, f.truncation)),
        "normalizer": {
            "available": cls.exact_normalizer is not None,
            "scale": rational_str(cls.normalizer_scale),
        },
    }
    if args.emit_substitution and cls.exact_normalizer is not None:
        payload["substitution"] = substitution_to_json(cls.exact_normalizer)
    _emit(payload)
    return 0


def cmd_a3_flop(args) -> int:
    f = _load_two_cycle(args)
    result = flop(classify(f), args.curve)
    if isinstance(result, NotOnQ):
        _emit({"curve": args.curve, "offQ": True})
    else:
        _emit({
            "curve": args.curve,
            "offQ": False,
            "family": result.family,
            "params": _params_json(result.parameters),
        })
    return 0


def cmd_a3_orbit(args) -> int:
    f = _load_two_cycle(args)
    cls = classify(f)
    members, off_q = derived_orbit(cls)
    _emit({
        "family": cls.family,
        "params": _params_json(cls.parameters),
        "orbit": [
            {"family": m.family, "params": _params_json(m.parameters)} for m in members
        ],
        "offQ": off_q,
        "gv": gv_set(cls),
    })
    return 0


def cmd_a3_apq(args) -> int:
    try:
        mu = rational(args.mu)
    except (ValueError, ZeroDivisionError) as exc:
        raise CLIError(f"bad rational {args.mu!r}: {exc}") from None
    info = apq_orbit(args.p, args.q, mu)
    payload: Dict[str, object] = {"p": args.p, "q": args.q, "mu": rational_str(mu),
                                  "kind": info["kind"]}
    if "mu_values" in info:
        payload["mu_values"] = [rational_str(v) for v in info["mu_values"]]
    if "members" in info:
        payload["members"] = [list(m) for m in info["members"]]
        payload["offQ"] = bool(info["off_q"])
    if "lambda" in info:
        payload["lambda"] = rational_str(info["lambda"])
    _emit(payload)
    return 0


def cmd_diamond(args) -> int:
    _check_degree(args.max_degree)
    if args.check == "exactness":
        report = exactness_check(args.n, args.max_degree)
        passed, witnesses = report["pass"], report["witnesses"]
    else:
        report = appendix_checks(args.n, args.max_degree)
        section = report[args.check]
        passed, witnesses = section["pass"], list(section["witnesses"])
        if args.check == "overlaps":
            passed = passed and report["completion_fixpoint"]["pass"]
    _emit({
        "check": args.check,
        "n": args.n,
        "D": args.max_degree,
        "pass": bool(passed),
        "witnesses": witnesses,
    })
    return 0 if passed else 2


# -- argument plumbing ----------------------------------------------------------------


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="path to a JSON input file")
    parser.add_argument("--max-degree", type=int, default=None,
                        help="truncation override (default: the file's)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qp", description="potentials on doubled paths: "
                     "dimensions, monomialization, realization, classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jdim", help="dimension of the cycle-derivative quotient")
    _add_input(p)
    p.add_argument("--quotient-vertex", type=int, action="append", default=[],
                   help="also report the dimension after deleting this vertex")
    p.set_defaults(func=cmd_jdim)

    p = sub.add_parser("monomialize", help="reduce a Type A potential to pure powers")
    _add_input(p)
    p.add_argument("--emit-substitution", action="store_true",
                   help="include the composite change of arrows")
    p.set_defaults(func=cmd_monomialize)

    p = sub.add_parser("typea-check", help="Type A recognition with evidence")
    _add_input(p)
    p.set_defaults(func=cmd_typea_check)

    p = sub.add_parser("realize", help="hypersurface presentation from a power table")
    p.add_argument("--input", required=True, help="path to a coefficient-table JSON file")
    p.add_argument("--anchor", type=int, default=0, help="anchor slot (default 0)")
    p.add_argument("--max-degree", type=int, default=12,
                   help="truncation for the emitted relations")
    p.set_defaults(func=cmd_realize)

    a3 = sub.add_parser("a3", help="two-cycle classification, flops, orbits")
    a3sub = a3.add_subparsers(dest="a3_command", required=True)

    p = a3sub.add_parser("classify", help="family and parameters of a potential")
    _add_input(p)
    p.add_argument("--emit-substitution", action="store_true",
                   help="include the normalizing change of arrows when rational")
    p.set_defaults(func=cmd_a3_classify)

    p = a3sub.add_parser("flop", help="class of the algebra across one curve")
    _add_input(p)
    p.add_argument("--curve", type=int, required=True, choices=(1, 2, 3))
    p.set_defaults(func=cmd_a3_flop)

    p = a3sub.add_parser("orbit", help="closure under flops at all three curves")
    _add_input(p)
    p.set_defaults(func=cmd_a3_orbit)

    p = a3sub.add_parser("apq", help="orbit data for the two-parameter family")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mu", required=True, help="rational parameter, e.g. 2 or 3/4")
    p.set_defaults(func=cmd_a3_apq)

    p = sub.add_parser("diamond", help="cyclic-quiver rewriting checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=12)
    p.add_argument("--check", required=True,
                   choices=("overlaps", "basis", "recursion", "exactness"))
    p.set_defaults(func=cmd_diamond)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: every parse starts a fresh namespace."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except CLIError as exc:
        print(f"qp: error: {exc}", file=sys.stderr)
        return 1
    except SchemaError as exc:
        print(f"qp: schema error: {exc}", file=sys.stderr)
        return 1
    except (PreconditionError, AssertionError) as exc:
        print(f"qp: precondition failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"qp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
