"""Every demo script runs to completion, the way a user runs it from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no demos/*.py found"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
