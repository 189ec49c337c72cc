"""The narrative demos run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 05 is run into a temporary file below: by default it rewrites
# results/claim_experiment.json.
DEMOS = [
    "01_walk_spectra.py",
    "02_series_encoding.py",
    "03_filter_steps.py",
    "04_failure_mechanisms.py",
]


def run_demo(demo, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr


def test_claim_record_is_demo_05_output_byte_for_byte(tmp_path):
    # the benchmark's claim check reads the committed record's bytes
    out = tmp_path / "claim_experiment.json"
    proc = run_demo("05_full_experiment.py", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (ROOT / "results" / "claim_experiment.json").read_bytes()
