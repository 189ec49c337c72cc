"""The narrative demos run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 05 is left out: it rewrites results/claim_experiment.json.
DEMOS = [
    "01_walk_spectra.py",
    "02_series_encoding.py",
    "03_filter_steps.py",
    "04_failure_mechanisms.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
