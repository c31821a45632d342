"""Replay the benchmark's pinned jobs in-process against their stdout digests.

``bench/reference_digests.json`` holds the SHA-256 of the stdout of every job
of the first two blocks of each workload at the benchmark's default seed, as
``bench/worker.run_job`` captures it. Any change to ``qp`` output on those
170 jobs fails here, not only when the benchmark runs. Those jobs stop at
D = 12, so one more pin holds ``qp monomialize`` at D = 14 on a larger input.
"""

import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from qpcalc.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
REFERENCE = json.loads((BENCH / "reference_digests.json").read_text())
# bench/run.py's DEFAULT_SEED, the seed the reference was recorded at
SEED = 1


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _bench_module("workloads")
worker = _bench_module("worker")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pinned_bench_jobs_keep_their_stdout(tmp_path, monkeypatch, workload):
    pinned = REFERENCE[workload]
    blocks = workloads.make_blocks(workload, SEED, str(tmp_path))
    monkeypatch.chdir(tmp_path)  # job argv name their inputs relative to the work dir
    digests = {}
    for b in sorted({int(key.split("/")[0]) for key in pinned}):
        for k, job in enumerate(blocks[b]):
            record = worker.run_job(main, job)
            assert record["error"] is None, f"{workload} job {b}/{k}: {record['error']}"
            digests[f"{b}/{k}"] = record["digest"]
    assert digests == pinned


# SHA-256 of `qp monomialize --emit-substitution` stdout on the scale potential
# at D = 14, recorded before substitutions filtered words by their gain
SCALE_MONOMIALIZE_D14 = "fff056ebda837361431635f0629df040891aa1be33d7720fda6abc3468685cf9"


def test_scale_monomialize_keeps_its_stdout(tmp_path, capsys):
    # the scale potential: type_a_shape on double_an(4), shape seed 5 and
    # coefficient seed 7, where most words of each step skip the product
    shape = workloads.type_a_shape(random.Random(5), 4)
    doc = workloads.potential(4, [], 14, shape, random.Random(7))
    path = tmp_path / "scale.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    assert main(["monomialize", "--input", str(path), "--emit-substitution"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SCALE_MONOMIALIZE_D14
