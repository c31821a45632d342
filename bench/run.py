"""Benchmark for the ``qp`` command line: three fixed workloads, checked outputs.

Run from the repository root::

    python3 bench/run.py --workload dimensions --seed 1 --seconds 30 --trace 0

The seed generates the workload's JSON inputs (``bench/workloads.py``) in a
scratch directory under ``bench/.work``. A fresh worker process
(``bench/worker.py``) imports ``qpcalc.cli`` from ``src/``, loads the
inputs and runs the job blocks as a closed loop with one client; every
job's output is checked. With ``--trace 0`` the run reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics from a traced second half
(``bench/tracer.py``). Each metric is printed on its own line with its unit,
then the run environment, and last one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full record (environment, every job, trace totals and spans) is written
to ``bench/results/<workload>-seed<seed>-trace<0|1>.json``. The metric
definitions, workload choices and expected layer-to-metric effects are in
``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from tracer import TRACED  # noqa: E402

# seed whose first jobs' stdout digests are pinned in reference_digests.json
DEFAULT_SEED = 1
# worker start-ups timed per run; setup_s is their median
SETUP_SAMPLES = 9
# job_tail_s leaves at least TAIL_BEYOND job runs beyond it
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# -- worker processes -------------------------------------------------------------------------


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence timings, repeat across runs
    return env


def _run_worker(workdir: str, args: List[str], timeout: float) -> Tuple[float, str]:
    """Run one worker to its end; return its set-up time and its stdout after ``ready``.

    The worker is killed and waited for on every way out of this function.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py")] + args,
        cwd=workdir, env=_worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline().strip() == "ready"
        setup = time.perf_counter() - start
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if not ready or proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err.strip()}")
    return setup, out


def run_workers(workdir: str, seconds: float, trace: int) -> Tuple[List[float], Dict[str, object]]:
    """One measuring worker, with set-up-only workers before and after it.

    Set-up samples taken on both sides of the measurement are less likely
    to share one passing load on the machine than samples taken in a row.
    """
    setup_only = ["--seconds", "0", "--trace", "0", "--setup-only"]
    setups = [_run_worker(workdir, setup_only, 60)[0] for _ in range(SETUP_SAMPLES // 2)]
    measure = ["--seconds", str(seconds), "--trace", str(trace)]
    # a worker that has not finished by then has a runaway job: kill it, fail the run
    setup, out = _run_worker(workdir, measure, 2 * seconds + 100)
    setups.append(setup)
    setups += [_run_worker(workdir, setup_only, 60)[0]
               for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)]
    return setups, json.loads(out.strip().splitlines()[-1])


# -- end-to-end metrics -----------------------------------------------------------------------


def jobs_per_s(phase: Dict[str, object]) -> float:
    """Jobs completed / wall time of the window (whole blocks only)."""
    return len(phase["records"]) / phase["wall_s"]


def tail(times: List[float]) -> Tuple[float, float]:
    """job_tail_s and its percentile: the time with TAIL_BEYOND job runs beyond it."""
    ordered = sorted(times)
    rank = len(ordered) - 1 - TAIL_BEYOND
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(setups: List[float], result: Dict[str, object], attempted: int, failed: int
               ) -> Dict[str, Tuple[float, str]]:
    times = [record["seconds"] for record in result["untraced"]["records"]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (jobs_per_s(result["untraced"]), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail(times)[0], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }


# -- per-layer metrics ------------------------------------------------------------------------


class Trace:
    """Read access to one traced run: tracer totals, counters and job records."""

    def __init__(self, result: Dict[str, object]):
        self.totals = result["trace"]["totals"]
        self.counts = result["trace_counts"]
        self.untraced = result["untraced"]
        self.traced = result["traced"]

    def calls(self, name: str) -> int:
        return self.totals.get(name, {}).get("calls", 0)

    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(self, name: str) -> float:
        return self.totals.get(name, {}).get("total_s", 0.0)

    def p50(self, kind: str, jobs: Dict[str, dict]) -> float:
        times = [r["seconds"] for r in self.untraced["records"] if jobs[_key(r)]["kind"] == kind]
        return statistics.median(times) if times else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _key(record: Dict[str, object]) -> str:
    return "%d/%d" % tuple(record["job"])


def _layer(prefix: str) -> List[str]:
    return sorted({name for _m, _a, name, _h in TRACED if name.startswith(prefix + ".")})


ALL = set(workloads.WORKLOADS)
DIM, NF, GEO = "dimensions", "normal-forms", "geometry"

# name -> (unit, workloads on which the value must not be zero, value)
LayerFn = Callable[[Trace, Dict[str, dict]], float]
PER_LAYER: Dict[str, Tuple[str, set, LayerFn]] = {}


def _declare(name: str, unit: str, expect: set, fn: LayerFn) -> None:
    PER_LAYER[name] = (unit, expect, fn)


for _kind, _where in (("jdim", {DIM}), ("monomialize", {NF}), ("classify", {NF}),
                      ("diamond", {GEO}), ("realize", {GEO})):
    _declare(f"cli.{_kind}.p50_s", "s", _where, lambda t, j, k=_kind: t.p50(k, j))


def _calls_and_self(name: str, expect: set, with_calls: bool = True) -> None:
    if with_calls:
        _declare(f"{name}.calls", "count", expect, lambda t, j: t.calls(name))
    _declare(f"{name}.self_s", "s", expect, lambda t, j: t.self_s(name))


_calls_and_self("jacobi.jdim", {DIM, NF})
_declare("jacobi.completions_per_jdim", "ratio", {DIM, NF},
         lambda t, j: _ratio(t.calls("rewrite.system_from_relations"), t.calls("jacobi.jdim")))
_calls_and_self("rewrite.add_relation", ALL)
_declare("rewrite.add_relation.useful_ratio", "ratio", ALL,
         lambda t, j: _ratio(t.counts["add_relation.useful"], t.calls("rewrite.add_relation")))
_calls_and_self("rewrite.complete", ALL, with_calls=False)
_calls_and_self("rewrite.reduce", ALL)
_calls_and_self("rewrite.normal_form_word", ALL)
_calls_and_self("rewrite.irreducible_counts", {DIM, NF}, with_calls=False)
_declare("rewrite.rules_final", "count", ALL, lambda t, j: t.counts["rules_final"])
_calls_and_self("subst.compose", {NF})
_declare("subst.compose_chain.calls", "count", {NF}, lambda t, j: t.calls("subst.compose_chain"))
_declare("subst.compose_chain.steps", "count", {NF}, lambda t, j: t.counts["compose_chain.steps"])
_declare("subst.compose_chain.total_s", "s", {NF}, lambda t, j: t.total_s("subst.compose_chain"))
for _name in ("subst.apply_potential", "subst.apply_element", "subst.apply_word"):
    _calls_and_self(_name, {NF})
_calls_and_self("series.mul", {NF, GEO})
_calls_and_self("series.add", ALL)
_calls_and_self("cycles.add_cycle", {DIM, NF})
_calls_and_self("cycles.cyclic_derivative", {DIM, NF}, with_calls=False)
_declare("monomial.monomialize.total_s", "s", {NF}, lambda t, j: t.total_s("monomial.monomialize"))
_calls_and_self("monomial.monomialize", {NF}, with_calls=False)
_declare("a3.classify.total_s", "s", {NF}, lambda t, j: t.total_s("a3.classify"))
_calls_and_self("a3.normalize", {NF}, with_calls=False)
_calls_and_self("realize.solve_g_system", {GEO})
for _name in ("realize.emit_presentation", "realize.contraction_relations",
              "appendix.exactness_check", "appendix.appendix_checks"):
    _calls_and_self(_name, {GEO}, with_calls=False)
_calls_and_self("linalg.insert", {GEO})
_calls_and_self("linalg.reduce", {GEO})
_calls_and_self("serialize.load", ALL, with_calls=False)
_calls_and_self("serialize.emit", {NF}, with_calls=False)
_declare("serialize.stdout_bytes", "bytes", ALL,
         lambda t, j: sum(r["bytes"] for r in t.traced["records"]))
# busy time per layer: the self time of every traced function in it
for _layer_name, _where in (("cli", ALL), ("serialize", ALL), ("jacobi", {DIM, NF}),
                            ("rewrite", ALL), ("subst", {NF}), ("series", ALL),
                            ("cycles", {DIM, NF}), ("monomial", {NF}), ("a3", {NF}),
                            ("realize", {GEO}), ("appendix", {GEO}), ("linalg", {GEO})):
    _declare(f"{_layer_name}.self_s", "s", _where,
             lambda t, j, p=_layer_name: t.self_s(*_layer(p)))
_declare("python.gc_s", "s", ALL, lambda t, j: t.untraced["gc_s"])
_declare("python.gc_collections", "count", ALL, lambda t, j: t.untraced["gc_collections"])
_declare("trace.overhead_ratio", "ratio", ALL,
         lambda t, j: _ratio(jobs_per_s(t.traced), jobs_per_s(t.untraced)))


def per_layer(result: Dict[str, object], jobs: Dict[str, dict], workload: str
              ) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    trace = Trace(result)
    metrics, problems = {}, []
    for name, (unit, expect, fn) in PER_LAYER.items():
        value = fn(trace, jobs)
        metrics[name] = (value, unit)
        if workload in expect and not value:
            problems.append(f"{name} reads zero on {workload}")
    return metrics, problems


# -- output checks ------------------------------------------------------------------------------


def check_records(result: Dict[str, object], workload: str, seed: int) -> Tuple[int, int, List[str]]:
    """Job runs attempted and failed, and one reason per failed run."""
    phases = [result["untraced"]] + ([result["traced"]] if "traced" in result else [])
    reference = _reference(workload) if seed == DEFAULT_SEED else {}
    first_digest: Dict[str, str] = {}
    attempted, failed, problems = 0, 0, []
    for phase in phases:
        for record in phase["records"]:
            attempted += 1
            key = _key(record)
            reason = record["error"]
            if reason is None and key in reference and record["digest"] != reference[key]:
                reason = "stdout digest differs from the reference"
            if reason is None and first_digest.setdefault(key, record["digest"]) != record["digest"]:
                reason = "stdout differs from an earlier run of the same job"
            if reason is not None:
                failed += 1
                problems.append(f"job {key}: {reason}")
    return attempted, failed, problems


def _reference(workload: str) -> Dict[str, str]:
    with open(os.path.join(BENCH, "reference_digests.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


# -- environment --------------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- main ---------------------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="qp benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the finally clauses that stop the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isdir(os.path.join(ROOT, "src", "qpcalc")):
        print(f"bench: no qpcalc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workdir = os.path.join(BENCH, ".work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        blocks = workloads.make_blocks(args.workload, args.seed, workdir)
        with open(os.path.join(workdir, "jobs.json"), "w", encoding="utf-8") as fh:
            json.dump(blocks, fh)
        setups, result = run_workers(workdir, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = {f"{b}/{k}": job for b, block in enumerate(blocks) for k, job in enumerate(block)}
    attempted, failed, problems = check_records(result, args.workload, args.seed)
    if args.trace:
        metrics, layer_problems = per_layer(result, jobs, args.workload)
        problems += layer_problems
    else:
        metrics = end_to_end(setups, result, attempted, failed)

    blocks_run = len(result["untraced"]["block_walls_s"])
    samples = len(result["untraced"]["records"])
    tail_pct = tail([record["seconds"] for record in result["untraced"]["records"]])[1]
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "backend": result["backend"], "nproc": os.cpu_count(), "commit": git_commit(),
        "blocks_untraced": blocks_run, "jobs_per_block": len(blocks[0]),
        "job_runs_untraced": samples, "job_tail_percentile": tail_pct,
        "error_rate": failed / attempted,
        "units": {name: unit for name, (_v, unit) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:.6g} {unit}")
    if not args.trace:
        print(f"{'(job_tail_s percentile, samples)':42s} p{tail_pct:.1f} of "
              f"{samples} job runs, {TAIL_BEYOND} beyond it ({blocks_run} blocks)")
        print(f"{'(error_rate)':42s} {failed / attempted:.6g} ratio")
    print("env " + json.dumps(env, sort_keys=True))
    for problem in problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)

    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    record_path = os.path.join(BENCH, "results",
                               f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "setup_samples_s": setups, "problems": problems,
                   "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
                   "result": result}, fh)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
