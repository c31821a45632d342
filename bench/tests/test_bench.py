"""Tests of the benchmark itself: generators, tracer hygiene, oracle spot-check.

Run from the repository root (outside tier-1; the oracle checks take about
half a minute)::

    python3 -m pytest -q bench/tests
"""

import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import qpcalc.cli  # noqa: E402
import qpcalc.jacobi  # noqa: E402
import qpcalc.monomial  # noqa: E402
import qpcalc.a3  # noqa: E402
import qpcalc.subst  # noqa: E402
from qpcalc.jacobi import jacobi_relations, jdim, jdim_oracle  # noqa: E402
from qpcalc.serialize import potential_from_json  # noqa: E402


def _jdim_inputs(truncation=None):
    """(template index, potential) for every jdim template at one seed."""
    rng = random.Random(0)
    for index, (_kind, n, D, shape) in enumerate(workloads.templates("dimensions")):
        yield index, potential_from_json(workloads.potential(n, [], D, shape, rng), truncation)


def test_same_seed_same_inputs_other_seed_other_coefficients(tmp_path):
    runs = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        workdir = tmp_path / label
        workdir.mkdir()
        blocks = workloads.make_blocks("dimensions", seed, str(workdir))
        runs[label] = (blocks, {p.name: p.read_text() for p in workdir.iterdir()})
    assert runs["a"] == runs["b"]
    assert runs["a"][1] != runs["c"][1]
    # the template pool is the same for every seed
    shapes = lambda files: sorted(json.dumps([t["arrows"] for t in json.loads(text)["terms"]])
                                  for text in files.values())
    assert shapes(runs["a"][1]) == shapes(runs["c"][1])


def test_oracle_spot_check_at_reduced_truncation():
    """jdim's count equals the rewriting-free oracle on every jdim template."""
    for index, f in _jdim_inputs(truncation=7):
        report = jdim(f)
        assert sum(report.counts) == report.value
        assert report.value == jdim_oracle(f.quiver, jacobi_relations(f), 7), index


def test_oracle_agrees_with_exact_certificates():
    """The first two templates certified Exact at their own truncation."""
    checked = 0
    for index, f in _jdim_inputs():
        report = jdim(f)
        if report.certificate != "Exact":
            continue
        assert report.value == jdim_oracle(f.quiver, jacobi_relations(f), f.truncation), index
        checked += 1
        if checked == 2:
            break
    assert checked == 2


def _qp(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = qpcalc.cli.main(argv)
    return code, out.getvalue()


def test_tracer_wraps_every_importer_and_restores(tmp_path):
    originals = {
        "cli.jdim": qpcalc.cli.jdim,
        "jacobi.jdim": qpcalc.jacobi.jdim,
        "monomial.compose_chain": qpcalc.monomial.compose_chain,
        "a3.compose_chain": qpcalc.a3.compose_chain,
        "mul": qpcalc.subst.NCElement.__mul__,
    }
    rng = random.Random(1)
    _kind, n, D, shape = next(t for t in workloads.templates("normal-forms") if t[0] == "monomialize")
    path = tmp_path / "f.json"
    path.write_text(json.dumps(workloads.potential(n, [], D, shape, rng)))
    argv = ["monomialize", "--input", str(path), "--emit-substitution"]
    plain = _qp(argv)

    tracer = Tracer()
    tracer.install()
    try:
        assert qpcalc.cli.jdim is qpcalc.jacobi.jdim
        assert qpcalc.cli.jdim.__wrapped__ is originals["cli.jdim"]
        assert qpcalc.monomial.compose_chain.__wrapped__ is originals["monomial.compose_chain"]
        assert qpcalc.a3.compose_chain.__wrapped__ is originals["a3.compose_chain"]
        traced = _qp(argv)
    finally:
        tracer.uninstall()

    assert traced == plain  # tracing leaves the output bytes unchanged
    assert qpcalc.cli.jdim is originals["cli.jdim"]
    assert qpcalc.jacobi.jdim is originals["jacobi.jdim"]
    assert qpcalc.monomial.compose_chain is originals["monomial.compose_chain"]
    assert qpcalc.a3.compose_chain is originals["a3.compose_chain"]
    assert qpcalc.subst.NCElement.__mul__ is originals["mul"]
    assert tracer.stats["monomial.monomialize"][0] == 1
    assert tracer.stats["jacobi.jdim"][0] == 2  # the dim_invariant check
    assert tracer.counts["compose_chain.steps"] > 0
    for name, (calls, total, self_s) in tracer.stats.items():
        assert 0 <= self_s <= total + 1e-9, name
    # hot leaves are folded into their parent span
    assert not any(span[2] == "series.mul" for span in tracer.spans)
    assert any(span[6] and "series.mul" in span[6] for span in tracer.spans)


def test_fails_without_the_program(tmp_path):
    """In a directory with only the benchmark, a run exits nonzero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "geometry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    metrics = result["metrics"]
    assert (metrics["subst.compose.calls"]["value"] > 0) == (workload == "normal-forms")
    assert (metrics["realize.solve_g_system.calls"]["value"] > 0) == (workload == "geometry")
    if workload == "dimensions":
        assert metrics["jacobi.completions_per_jdim"]["value"] > 1
    assert metrics["trace.overhead_ratio"]["value"] > 0
