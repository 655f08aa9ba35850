"""Each demo prints, byte for byte, the output recorded in tests/data/demos."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_pinned(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    run = subprocess.run([sys.executable, str(demo)], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == (ROOT / "tests" / "data" / "demos" / f"{demo.stem}.txt").read_text()
