"""The demos run to the end.

Each demo runs as its own process, as a user would start it, so a break in
the public API they use fails here rather than only when someone runs them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "01_simulate_and_inspect.py", "02_detection.py", "03_tracking.py",
    "04_benchmark.py", "05_realtime_pipeline.py", "06_avoidance_forecast.py",
])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
