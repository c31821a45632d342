"""Benchmark worker: one fresh process, no threads, one closed-loop client.

Usage (started by ``bench/run.py``, from the work directory that holds the
generated inputs and ``jobs.json``)::

    python3 worker.py --seconds S --trace 0|1 [--setup-only]

Set-up imports ``qpcalc.cli`` and loads every input file, then prints
``ready`` on stdout so the parent can time it. The worker then runs the
job blocks as a closed loop: each job is a ``qpcalc.cli.main(argv)`` call
with stdout captured, and the next job starts only when the previous one
returned. Whole blocks run until ``S`` seconds have passed. With
``--trace 1`` the loop runs for S/2 seconds untraced and then for S/2
seconds under :class:`tracer.Tracer`. The last stdout line is a JSON
document with every job record and, when traced, the tracer's totals.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from typing import Dict, List, Optional


def check_output(job: Dict[str, object], code: int, out: str) -> Optional[str]:
    """Why the job's output is wrong, or None when every check holds."""
    try:
        payload = json.loads(out)
    except ValueError:
        return f"stdout is not JSON (exit {code})"
    kind = job["kind"]
    expect = job["expect_exit"]
    if kind == "jdim":
        reports = [payload] + list(payload["quotients"].values())
        for report in reports:
            if report["dim"] != sum(report["per_degree"]):
                return "dim != sum(per_degree)"
        expect = 0 if all(r["status"] == "exact" for r in reports) else 2
    elif kind == "monomialize":
        checks = payload["checks"]
        if not (checks["soundness"] and checks["dim_invariant"]):
            return f"checks failed: {checks}"
    elif kind == "diamond":
        if payload["pass"] is not True:
            return "diamond check did not pass"
    elif kind == "classify":
        if payload["family"] not in range(1, 8):
            return f"unknown family {payload['family']}"
    elif kind == "realize":
        if not payload["gs"] or not payload["relations"]:
            return "empty realization"
    if code != expect:
        return f"exit code {code}, expected {expect}"
    return None


class GCClock:
    """Collections and seconds spent in the cyclic garbage collector."""

    def __init__(self):
        self.collections = 0
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1


def run_job(main, job: Dict[str, object]) -> Dict[str, object]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(job["argv"]))
        error = None
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        code, error = None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = out.getvalue()
    if error is None:
        try:
            error = check_output(job, code, text)
        except (KeyError, TypeError) as exc:
            error = f"output lacks {exc!r}"
    if error is not None and err.getvalue():
        error += " | stderr: " + err.getvalue().strip()[-300:]
    return {
        "seconds": seconds,
        "exit": code,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "bytes": len(text.encode("utf-8")),
        "error": error,
    }


def closed_loop(blocks: List[List[Dict[str, object]]], seconds: float) -> Dict[str, object]:
    """Run whole blocks in order, wrapping around, until ``seconds`` have passed."""
    import qpcalc.cli as cli

    records, block_walls = [], []
    gc_clock = GCClock()
    gc.callbacks.append(gc_clock)
    start = time.perf_counter()
    try:
        b = 0
        while True:
            block_start = time.perf_counter()
            for k, job in enumerate(blocks[b % len(blocks)]):
                record = run_job(cli.main, job)  # looked up per call: the tracer patches it
                record["job"] = [b % len(blocks), k]
                records.append(record)
            block_walls.append(time.perf_counter() - block_start)
            b += 1
            if time.perf_counter() - start >= seconds:
                break
    finally:
        gc.callbacks.remove(gc_clock)
    return {
        "wall_s": time.perf_counter() - start,
        "block_walls_s": block_walls,
        "records": records,
        "gc_s": gc_clock.seconds,
        "gc_collections": gc_clock.collections,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import qpcalc.cli  # noqa: F401  (set-up: the import is what is timed)
    from qpcalc.field import QQ

    with open("jobs.json", encoding="utf-8") as fh:
        blocks = json.load(fh)
    for block in blocks:
        for job in block:
            argv_ = job["argv"]
            if "--input" in argv_:
                with open(argv_[argv_.index("--input") + 1], encoding="utf-8") as fh:
                    json.load(fh)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result: Dict[str, object] = {"backend": f"{QQ.__module__}.{QQ.__qualname__}"}
    window = args.seconds / 2 if args.trace else args.seconds
    result["untraced"] = closed_loop(blocks, window)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            result["traced"] = closed_loop(blocks, window)
        finally:
            tracer.uninstall()
        result["trace"] = tracer.trace_document()
        result["trace_counts"] = tracer.counts
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
