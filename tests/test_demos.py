"""The demos and README's library tour run to the end.

Each runs as its own process, as a user would start it, so a break in the
public API they use fails here rather than only when someone runs them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*argv) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", [
    "01_simulate_and_inspect.py", "02_detection.py", "03_tracking.py",
    "04_benchmark.py", "05_realtime_pipeline.py", "06_avoidance_forecast.py",
])
def test_demo_runs(demo):
    proc = run_python(str(ROOT / "demos" / demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_library_tour_runs():
    section = (ROOT / "README.md").read_text().split("\n## Library tour\n", 1)[1]
    tour = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python("-c", tour)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
