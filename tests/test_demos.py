"""Every script in demos/ runs to completion and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zzl

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    src = Path(zzl.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # run the demo in the suite's own mode, so `python -O -m pytest` runs
    # it with asserts stripped too
    optimize = ["-O"] * sys.flags.optimize
    out = subprocess.run(
        [sys.executable, *optimize, str(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
