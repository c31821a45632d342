"""Pin the stdout digests of the first jobs of every workload at the default seed.

Run from the repository root, only when ``qp`` output is meant to change::

    python3 bench/record_reference.py

It writes ``bench/reference_digests.json``: for each workload, the SHA-256
of the stdout of each of the first REFERENCE_BLOCKS blocks' jobs (keyed
``"<block>/<job>"``), as ``bench/worker.py`` captures it. ``bench/run.py``
compares every run at the default seed against it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import workloads  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402
from worker import run_job  # noqa: E402

# blocks pinned per workload; a run at the default seed compares those it runs
REFERENCE_BLOCKS = 2


def main() -> int:
    from qpcalc.cli import main as qp_main

    here = os.getcwd()
    scratch = os.path.join(BENCH, ".work")
    os.makedirs(scratch, exist_ok=True)
    digests = {}
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=scratch) as workdir:
            blocks = workloads.make_blocks(workload, DEFAULT_SEED, workdir)
            os.chdir(workdir)
            try:
                pinned = {}
                for b, block in enumerate(blocks[:REFERENCE_BLOCKS]):
                    for k, job in enumerate(block):
                        record = run_job(qp_main, job)
                        if record["error"] is not None:
                            raise SystemExit(f"{workload} job {b}/{k}: {record['error']}")
                        pinned[f"{b}/{k}"] = record["digest"]
            finally:
                os.chdir(here)
        digests[workload] = pinned
        print(f"{workload}: {len(pinned)} digests", file=sys.stderr)
    with open(os.path.join(BENCH, "reference_digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
