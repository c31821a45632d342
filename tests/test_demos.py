"""Every walkthrough in demos/ runs to completion against the package in src/, without sympy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


# runs a demo as __main__ with sympy blocked: the package needs nothing beyond itself
NO_SYMPY = 'import runpy, sys; sys.modules["sympy"] = None; runpy.run_path(sys.argv[1], run_name="__main__")'


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", NO_SYMPY, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
