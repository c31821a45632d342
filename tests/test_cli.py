import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qpcalc
from qpcalc import realize
from qpcalc.cli import main
from qpcalc.field import rational
from qpcalc.rewrite import ReductionSystem
from qpcalc.series import NCElement
from qpcalc.serialize import potential_from_json
from qpcalc.subst import Substitution

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def two_cycle_file(tmp_path, kx="1", kxy="1", ky="1", extra=(), truncation=12):
    """x^2 + xy + y^2 shaped input on the loopless 3-vertex quiver."""
    terms = []
    if kx != "0":
        terms.append({"coeff": kx, "arrows": ["a1", "b1", "a1", "b1"]})
    if kxy != "0":
        terms.append({"coeff": kxy, "arrows": ["b1", "a1", "a2", "b2"]})
    if ky != "0":
        terms.append({"coeff": ky, "arrows": ["a2", "b2", "a2", "b2"]})
    terms.extend(extra)
    return write(tmp_path, "f.json", {
        "quiver": {"n": 3, "loopless": [1, 2, 3]},
        "truncation": truncation,
        "terms": terms,
    })


# rational and negative coefficients on powers 2-5 of the full 3-vertex doubled path
MIXED_KAPPA_INPUT = {
    "n": 3,
    "kappa": [
        {"i": 1, "j": 3, "coeff": "-2/3"},
        {"i": 2, "j": 2, "coeff": "-1"},
        {"i": 2, "j": 4, "coeff": "3/2"},
        {"i": 3, "j": 5, "coeff": "5/7"},
        {"i": 4, "j": 4, "coeff": "-3"},
        {"i": 5, "j": 2, "coeff": "1/2"},
        {"i": 5, "j": 3, "coeff": "-1/4"},
    ],
}

# a Type A potential on the fully looped 2-vertex quiver, not yet monomial
TYPE_A_INPUT = {
    "quiver": {"n": 2, "loopless": []},
    "truncation": 12,
    "terms": [
        {"coeff": "1", "arrows": ["a1", "a2", "b2"]},
        {"coeff": "1", "arrows": ["b2", "a2", "a3"]},
        {"coeff": "1", "arrows": ["a1", "a1", "a1"]},
        {"coeff": "1/2", "arrows": ["a1", "a2", "b2", "a1"]},
    ],
}

# the power table of x^3 + xy lifted to the full 3-vertex doubled path
KAPPA_INPUT = {
    "n": 3,
    "kappa": [
        {"i": 1, "j": 2, "coeff": "-1/2"},
        {"i": 2, "j": 2, "coeff": "-1"},
        {"i": 3, "j": 2, "coeff": "-1/2"},
        {"i": 4, "j": 2, "coeff": "-1"},
        {"i": 5, "j": 2, "coeff": "-1/2"},
        {"i": 2, "j": 3, "coeff": "1"},
    ],
}


def test_jdim_exact_with_quotients(tmp_path, capsys):
    path = two_cycle_file(tmp_path)
    code, payload = run(capsys, "jdim", "--input", path,
                        "--quotient-vertex", "1", "--quotient-vertex", "3")
    assert code == 0
    assert payload["status"] == "exact"
    assert payload["dim"] == 20
    assert sum(payload["per_degree"]) == 20
    assert payload["quotients"]["1"]["dim"] == 6
    assert payload["quotients"]["3"]["dim"] == 6


def test_jdim_quotient_vertex_outside_the_quiver_exits_one(tmp_path, capsys):
    path = two_cycle_file(tmp_path)
    assert main(["jdim", "--input", path, "--quotient-vertex", "99"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qp: precondition failed: no vertices [99] to delete\n"


def test_jdim_lower_bound_exits_two(tmp_path, capsys):
    path = two_cycle_file(tmp_path, kx="0", ky="0", truncation=10)
    code, payload = run(capsys, "jdim", "--input", path)
    assert code == 2
    assert payload["status"] == "lower_bound"


def test_monomialize_emits_kappa_and_witness(tmp_path, capsys):
    path = write(tmp_path, "g.json", TYPE_A_INPUT)
    code, payload = run(capsys, "monomialize", "--input", path, "--emit-substitution")
    assert code == 0
    assert payload["checks"] == {"soundness": True, "dim_invariant": True}
    table = {(e["i"], e["j"]): e["coeff"] for e in payload["kappa"]}
    assert table[(1, 3)] == "1"
    assert all(i in (1, 3) or j > 2 for (i, j) in table)
    assert "a1" in payload["substitution"]["arrows"]


def test_typea_check_verdicts(tmp_path, capsys):
    good = two_cycle_file(tmp_path)
    code, payload = run(capsys, "typea-check", "--input", good)
    assert code == 0
    assert payload["verdict"] == "ReducedTypeA"
    assert payload["missing"] == []

    bad = two_cycle_file(tmp_path, kxy="0")
    code, payload = run(capsys, "typea-check", "--input", bad)
    assert code == 0
    assert payload["verdict"] == "NotTypeA"
    assert 1 in payload["missing"]


def test_realize_presentation_fields(tmp_path, capsys):
    path = write(tmp_path, "k.json", KAPPA_INPUT)
    code, payload = run(capsys, "realize", "--input", path, "--anchor", "2")
    assert code == 0
    assert payload["gs"][2] == ["y"] and payload["gs"][3] == ["x"]
    assert payload["equation"].startswith("u*v =")
    assert payload["bundles"] == ["(-1,-1)", "(-1,-1)", "(-1,-1)"]
    assert payload["nccr"]["vertices"] == [0, 1, 2, 3]
    assert len(payload["nccr"]["arrows"]) == 8
    assert payload["nccr"]["loops"] == []
    assert len(payload["relations"]) == 7


def test_a3_classify_normal_form_reparses(tmp_path, capsys):
    path = two_cycle_file(tmp_path)
    code, payload = run(capsys, "a3", "classify", "--input", path,
                        "--emit-substitution")
    assert code == 0
    assert payload["family"] == 1
    assert payload["params"] == ["1"]
    assert payload["normalizer"] == {"available": True, "scale": "1"}
    assert "substitution" in payload
    reparsed = potential_from_json(payload["normal_form"])
    assert reparsed.truncation == 12 and len(reparsed.terms) == 3


def test_a3_classify_rescales_the_crossing_term(tmp_path, capsys):
    path = two_cycle_file(tmp_path, kxy="3")
    code, payload = run(capsys, "a3", "classify", "--input", path)
    assert code == 0
    assert payload["family"] == 1
    assert payload["params"] == ["1/9"]


def test_a3_inputs_that_classify_rejects_exit_one(tmp_path, capsys):
    # classify states the checks for a missing crossing term and for another
    # quiver (here with a crossing 2, which qp rescales first), and every a3
    # subcommand reports them as such
    other = {**TYPE_A_INPUT, "terms": [{"coeff": "2", "arrows": ["a1", "a2", "b2"]}]}
    cases = [(two_cycle_file(tmp_path, kxy="0"), "missing consecutive products at (1,)"),
             (write(tmp_path, "other.json", other),
              "classification expects the loopless three-vertex doubled path")]
    for path, message in cases:
        for argv in (["classify"], ["flop", "--curve", "1"], ["orbit"]):
            assert main(["a3", *argv, "--input", path]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"qp: precondition failed: {message}\n"


def _substitution_from_json(quiver, data):
    """Rebuild an emitted substitution from its arrow-name image lists."""
    images = {}
    for name, terms in data["arrows"].items():
        el = {}
        for term in terms:
            arrows = [quiver.by_name[a] for a in term["arrows"]]
            el[(arrows[0].tail, tuple(a.index for a in arrows))] = rational(term["coeff"])
        images[quiver.by_name[name].index] = NCElement(quiver, data["truncation"], el)
    return Substitution(quiver, data["truncation"], images)


# x^2 y rides along so the witness has a funnel step to replay
X2Y = {"coeff": "1", "arrows": ["b1", "a1", "b1", "a1", "a2", "b2"]}


@pytest.mark.parametrize("kx, kxy, ky", [
    ("9", "1", "1/3"),
    pytest.param("1", "3", "1", marks=pytest.mark.xfail(
        strict=True, reason="the witness misses the crossing rescale (ROADMAP item 2, "
        "first FOUND in CHANGES.md); the fix re-pins the bench digests")),
])
def test_a3_classify_witness_reproduces_the_normal_form(tmp_path, capsys, kx, kxy, ky):
    path = two_cycle_file(tmp_path, kx=kx, kxy=kxy, ky=ky, extra=[X2Y])
    code, payload = run(capsys, "a3", "classify", "--input", path, "--emit-substitution")
    assert code == 0 and payload["normalizer"]["available"]
    f = potential_from_json(json.loads(Path(path).read_text()))
    sub = _substitution_from_json(f.quiver, payload["substitution"])
    normal_form = potential_from_json(payload["normal_form"])
    scale = rational(payload["normalizer"]["scale"])
    # the two documents parse to distinct quiver objects, so compare the term dicts
    assert sub.apply_potential(f).terms == normal_form.scale(scale).terms


def test_a3_flop_and_orbit(tmp_path, capsys):
    path = two_cycle_file(tmp_path)
    code, payload = run(capsys, "a3", "flop", "--input", path, "--curve", "2")
    assert code == 0
    assert payload == {"curve": 2, "offQ": False, "family": 1, "params": ["1/16"]}

    code, payload = run(capsys, "a3", "orbit", "--input", path)
    assert code == 0
    values = {tuple(m["params"]) for m in payload["orbit"]}
    assert values == {("1",), ("-3/4",), ("-1/12",), ("1/3",), ("3/16",), ("1/16",)}
    assert payload["offQ"] == 0
    assert payload["gv"] == [1, 1, 1, 1, 1, 1]


def test_orbit_family_and_diamond_n_are_library_preconditions(tmp_path, capsys):
    # x^2 + xy is family 5, outside derived_orbit's finite families; n = 0 has no
    # cyclic quiver. The library states both checks, and qp reports them as such
    cases = [(["a3", "orbit", "--input", two_cycle_file(tmp_path, ky="0")],
              "orbit is defined for the finite-dimensional families")]
    cases += [(["diamond", "--n", "0", "--check", check], "the cyclic quiver needs n >= 1, not 0")
              for check in ("overlaps", "basis", "recursion", "exactness")]
    for argv, message in cases:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qp: precondition failed: {message}\n"


def test_a3_apq_orbit(capsys):
    code, payload = run(capsys, "a3", "apq", "--p", "2", "--q", "2", "--mu", "2")
    assert code == 0
    assert payload["mu_values"] == ["-1", "1/2", "2"]
    assert payload["lambda"] == "1/2"

    code, payload = run(capsys, "a3", "apq", "--p", "3", "--q", "2", "--mu", "1")
    assert code == 0
    assert payload["members"] == [[2, 3], [3, 2]]
    assert payload["offQ"] is True

    # p^(q/p) = 2^513 is beyond the range of a float; the root stays exact
    code, payload = run(capsys, "a3", "apq", "--p", "4", "--q", "1026", "--mu", "1")
    assert code == 0
    assert payload["lambda"] == f"1/{2**513 * 1026}"


def test_diamond_check_passes(capsys):
    code, payload = run(capsys, "diamond", "--n", "2", "--max-degree", "8",
                        "--check", "overlaps")
    assert code == 0
    assert payload["pass"] is True
    assert payload["witnesses"] == []
    assert payload["n"] == 2 and payload["D"] == 8


def test_diamond_overlaps_fail_when_none_are_read(capsys, monkeypatch):
    monkeypatch.setattr(ReductionSystem, "ambiguities", lambda self: iter(()))
    code, payload = run(capsys, "diamond", "--n", "2", "--max-degree", "8",
                        "--check", "overlaps")
    assert code == 2
    assert payload["pass"] is False


def test_each_workload_kind_calls_normal_form_word(tmp_path, capsys, monkeypatch):
    # the benchmark's traced run counts ReductionSystem.normal_form_word and
    # requires a nonzero count on every workload; tier-1 runs no traced bench
    calls = []
    normal_form_word = ReductionSystem.normal_form_word

    def counting(self, word):
        calls.append(word)
        return normal_form_word(self, word)

    monkeypatch.setattr(ReductionSystem, "normal_form_word", counting)
    for argv in (["jdim", "--input", two_cycle_file(tmp_path)],
                 ["monomialize", "--input", write(tmp_path, "g.json", TYPE_A_INPUT),
                  "--emit-substitution"],
                 ["diamond", "--n", "2", "--max-degree", "8", "--check", "exactness"]):
        calls.clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert calls, f"qp {argv[0]} never called normal_form_word"


def test_malformed_inputs_exit_one(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["jdim", "--input", str(empty)]) == 1
    assert "error" in capsys.readouterr().err

    blank = write(tmp_path, "blank.json", {})
    assert main(["jdim", "--input", str(blank)]) == 1
    capsys.readouterr()

    broken = write(tmp_path, "broken.json", {
        "quiver": {"n": 3, "loopless": [1, 2, 3]},
        "truncation": 12,
        "terms": [{"coeff": "1", "arrows": ["a1", "a2"]}],
    })
    assert main(["jdim", "--input", str(broken)]) == 1
    capsys.readouterr()

    assert main(["nosuch"]) == 1
    capsys.readouterr()


def _qp(*argv, optimize=False, setup=""):
    """Run qp in a fresh interpreter; ``setup`` runs first in the same process."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    flags = ["-O"] if optimize else []
    entry = (["-c", f"{setup}\nimport sys\nfrom qpcalc.cli import main\nsys.exit(main())"]
             if setup else ["-m", "qpcalc.cli"])
    return subprocess.run([sys.executable, *flags, *entry, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_monomialize_precondition_survives_optimize(tmp_path):
    """Under python -O a violated precondition still exits 1 with a message."""
    path = two_cycle_file(tmp_path, kxy="0")  # not Type A
    proc = _qp("monomialize", "--input", path, optimize=True)
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert proc.stderr.startswith("qp: precondition failed: missing consecutive products")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_monomialize_pass_bound_survives_optimize(tmp_path):
    """Under python -O the normalization loops still stop at MAX_PASSES and exit 1."""
    path = write(tmp_path, "g.json", TYPE_A_INPUT)  # the x_1^2 x_2 term needs a funnel pass
    proc = _qp("monomialize", "--input", path, optimize=True,
               setup="import qpcalc.monomial as m\nm.MAX_PASSES = 1")
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert proc.stderr == "qp: precondition failed: junk of degree 3 left after 1 passes\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("p, q, mu", [("2", "2", "1"), ("3", "2", "5"), ("3", "0", "1"),
                                      ("0", "3", "1"), ("-2", "3", "1"), ("1", "1", "1")])
def test_apq_out_of_range_survives_optimize(p, q, mu):
    """Under python -O an apq parameter outside the range still exits 1, as without -O."""
    argv = ("a3", "apq", "--p", p, "--q", q, "--mu", mu)
    plain, optimized = _qp(*argv), _qp(*argv, optimize=True)
    for proc in (plain, optimized):
        assert proc.returncode == 1, proc.stderr[-2000:]
        assert proc.stdout == ""
    expected = "qp: precondition failed: parameters outside the finite-dimensional range\n"
    assert plain.stderr == optimized.stderr == expected


@pytest.mark.parametrize("degree", ["0", "-3"])
def test_realize_degree_below_one_survives_optimize(tmp_path, degree):
    """Under python -O a realize truncation below 1 still exits 1 and names the value."""
    path = write(tmp_path, "k.json", KAPPA_INPUT)
    proc = _qp("realize", "--input", path, "--max-degree", degree, optimize=True)
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert proc.stderr == f"qp: error: max degree must be at least 1, got {degree}\n"
    assert proc.stdout == ""


def test_non_composable_term_survives_optimize(tmp_path):
    """Under python -O a term whose arrows do not compose still exits 1."""
    path = write(tmp_path, "nc.json", {
        "quiver": {"n": 2, "loopless": []},
        "truncation": 6,
        "terms": [{"coeff": "1", "arrows": ["a2", "a1", "b2"]}],
    })
    proc = _qp("jdim", "--input", path, optimize=True)
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert proc.stderr.startswith("qp: schema error: arrows do not compose")
    assert proc.stdout == ""


def test_one_arrow_cycle_survives_optimize(tmp_path):
    """Under python -O a relation with a lazy lead still exits 1, as without -O."""
    path = write(tmp_path, "one.json", {
        "quiver": {"n": 2, "loopless": []},
        "truncation": 6,
        "terms": [{"coeff": "1", "arrows": ["a1"]}, {"coeff": "1", "arrows": ["a2", "b2"]}],
    })
    plain, optimized = _qp("jdim", "--input", path), _qp("jdim", "--input", path, optimize=True)
    for proc in (plain, optimized):
        assert proc.returncode == 1, proc.stderr[-2000:]
        assert proc.stdout == ""
    expected = "qp: precondition failed: a relation with a lazy lead collapses a vertex\n"
    assert plain.stderr == optimized.stderr == expected


def test_parser_state_does_not_leak_between_calls(tmp_path, capsys):
    # one parser serves every call; appended options must not pile up
    path = two_cycle_file(tmp_path, truncation=6)
    for vertices in (["1", "3"], ["2"], []):
        argv = ["jdim", "--input", path]
        for v in vertices:
            argv += ["--quotient-vertex", v]
        _code, payload = run(capsys, *argv)
        assert sorted(payload["quotients"]) == vertices


def test_good_call_after_parse_failure_exits_zero(tmp_path, capsys):
    path = two_cycle_file(tmp_path, truncation=6)
    assert main(["jdim", "--input", path, "--quotient-vertex", "1",
                 "--quotient-vertex", "one"]) == 1
    assert "invalid int value" in capsys.readouterr().err
    code, payload = run(capsys, "a3", "apq", "--p", "2", "--q", "2", "--mu", "2")
    assert code == 0 and payload["mu_values"] == ["-1", "1/2", "2"]
    _code, payload = run(capsys, "jdim", "--input", path)
    assert payload["quotients"] == {}


def test_output_bytes_are_stable(tmp_path, capsys):
    path = two_cycle_file(tmp_path)
    main(["jdim", "--input", path])
    first = capsys.readouterr().out
    main(["jdim", "--input", path])
    second = capsys.readouterr().out
    assert first == second


_X, _Y = ["b1", "a1"], ["a2", "b2"]

# inputs whose normalisation runs many substitution steps: a degenerate
# square with junk in degrees 3-5, and a Type A potential with longer cycles
SHUFFLED_INPUTS = {
    "a3 classify": {"quiver": {"n": 3, "loopless": [1, 2, 3]}, "truncation": 12, "terms": [
        {"coeff": c, "arrows": [a for letter in letters for a in letter]} for c, letters in (
            ("1", (_X, _X)), ("1", (_X, _Y)), ("1/4", (_Y, _Y)), ("2/3", (_X, _X, _X)),
            ("-1", (_X, _X, _Y)), ("3", (_X, _Y, _Y)), ("1/2", (_X, _Y, _X, _Y)),
            ("-2", (_Y, _Y, _Y)), ("5", (_X,) * 4), ("-1/3", (_X, _X, _Y, _Y)), ("1", (_X,) * 5))]},
    "monomialize": {**TYPE_A_INPUT, "truncation": 10, "terms": TYPE_A_INPUT["terms"] + [
        {"coeff": "-1", "arrows": ["a3", "a3", "a3", "a3"]},
        {"coeff": "2/3", "arrows": ["a2", "b2", "a2", "b2"]},
        {"coeff": "3", "arrows": ["a1", "a1", "a2", "a3", "b2"]},
        {"coeff": "-1/2", "arrows": ["a2", "a3", "a3", "b2", "a1"]}]},
}


@pytest.mark.parametrize("case", sorted(SHUFFLED_INPUTS))
@settings(max_examples=8, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_stdout_does_not_depend_on_term_order(tmp_path, capsys, case, data):
    # sums keep terms in insertion order, which follows the input's order;
    # every printed list is sorted, so that order must not reach stdout
    doc = SHUFFLED_INPUTS[case]
    argv = case.split() + ["--emit-substitution", "--input"]
    assert main(argv + [write(tmp_path, "f.json", doc)]) == 0
    expected = capsys.readouterr().out
    shuffled = {**doc, "terms": data.draw(st.permutations(doc["terms"]))}
    assert main(argv + [write(tmp_path, "f.json", shuffled)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("degree", [2, 3])
def test_low_truncation_rejected(tmp_path, capsys, degree):
    path = two_cycle_file(tmp_path)
    assert main(["jdim", "--input", path, "--max-degree", str(degree)]) == 1
    assert "at least 4" in capsys.readouterr().err


def _pinned_argv(tmp_path, case):
    """Full argv for one pinned case; a case name starts with its subcommand."""
    if case == "monomialize":
        return ["monomialize", "--input", write(tmp_path, "g.json", TYPE_A_INPUT),
                "--emit-substitution"]
    if case == "a3 classify":
        return ["a3", "classify", "--input", two_cycle_file(tmp_path), "--emit-substitution"]
    if case == "jdim exact":
        return ["jdim", "--input", two_cycle_file(tmp_path),
                "--quotient-vertex", "1", "--quotient-vertex", "3"]
    if case == "diamond overlaps":
        return ["diamond", "--n", "2", "--max-degree", "8", "--check", "overlaps"]
    if case == "jdim lower_bound":
        # x^2 + xy + y^2/4 is infinite-dimensional; deleting vertex 1 is not
        return ["jdim", "--input", two_cycle_file(tmp_path, ky="1/4", truncation=10),
                "--quotient-vertex", "1"]
    if case == "realize mixed":
        return ["realize", "--input", write(tmp_path, "k.json", MIXED_KAPPA_INPUT),
                "--anchor", "3"]
    return ["realize", "--input", write(tmp_path, "k.json", KAPPA_INPUT), "--anchor", "2"]


# SHA-256 of stdout; refactors must leave every byte of these outputs alone
PINNED_STDOUT = {
    "monomialize": "902bb174f1660dc39f942518c3d4cf42f6b4691e9a1a0a29162147064ef40968",
    "a3 classify": "f3e1c8a51a4055e2e9d096c1e07be715e5c8216b2a1aee10c83f3b8e853e09f8",
    "diamond overlaps": "0a38b73f694ea823bab0031ccea168b41ebcda6d65db94fbccf917000cdfa5e5",
    "realize": "39a05f5d3b76168a5f36960cd089c6320dff26b1bd0d39d994d5f9b30301fd78",
    "realize mixed": "d7ee710fcbc3d0b1b775d5217f30ab6b60de17829b808954c5466ec2dd182065",
    "jdim exact": "dc3f4536cf46164ec14a6c4ac42b137c4af098fe4c17437b3a05ec122a0fc730",
    "jdim lower_bound": "8387cd30962a58b94f8eba8d069a272a53b94bc88d662ad5526bd384a0c1e6af",
}

# a lower-bound dimension is inconclusive; every other pinned case exits 0
PINNED_EXIT = {"jdim lower_bound": 2}


@pytest.mark.parametrize("case", sorted(PINNED_STDOUT))
def test_stdout_bytes_are_pinned(tmp_path, capsys, case):
    assert main(_pinned_argv(tmp_path, case)) == PINNED_EXIT.get(case, 0)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_STDOUT[case]


# -- the package runs without sympy -----------------------------------------------------

NO_SYMPY_SCRIPT = """
import contextlib, hashlib, io, json, sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
from qpcalc.cli import main

paths = json.loads(sys.argv[1])

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()

codes = [
    run("jdim", "--input", paths["two_cycle"])[0],
    run("monomialize", "--input", paths["type_a"])[0],
    run("a3", "classify", "--input", paths["two_cycle"])[0],
    run("diamond", "--n", "2", "--max-degree", "8", "--check", "overlaps")[0],
]
print(codes)
print(*run("realize", "--input", paths["kappa"], "--anchor", "2"))
"""


def test_every_subcommand_runs_without_sympy(tmp_path):
    # a fresh interpreter, with sympy blocked before the package is imported
    paths = {
        "two_cycle": two_cycle_file(tmp_path, truncation=8),
        "type_a": write(tmp_path, "g.json", TYPE_A_INPUT),
        "kappa": write(tmp_path, "k.json", KAPPA_INPUT),
    }
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", NO_SYMPY_SCRIPT, json.dumps(paths)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == ["[0, 0, 0, 0]", f"0 {PINNED_STDOUT['realize']}"]


def test_package_names_resolve_and_are_listed():
    listed = dir(qpcalc)
    for name in qpcalc.__all__:
        assert getattr(qpcalc, name) is not None
        assert name in listed
    assert qpcalc.solve_g_system is realize.solve_g_system
    namespace = {}
    exec("from qpcalc import *", namespace)
    assert set(qpcalc.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        qpcalc.no_such_name


def test_realize_sees_a_patched_solver(tmp_path, capsys, monkeypatch):
    # qp realize looks the solver up when it runs, so a patch of the module
    # attribute (the benchmark tracer makes one) is what it calls
    calls = []
    original = realize.solve_g_system

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(realize, "solve_g_system", counting)
    code, payload = run(capsys, "realize", "--input", write(tmp_path, "k.json", KAPPA_INPUT),
                        "--anchor", "2")
    assert code == 0 and payload["gs"][2] == ["y"]
    assert len(calls) == 1
