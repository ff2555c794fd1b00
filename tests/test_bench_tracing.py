"""The benchmark's tracer (bench/tracing.py) wraps functions by name, so every
name it lists has to stay importable."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tracer_installs():
    # what `bench/run.py --trace 1` does before its first pass
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    code = "import tracing; tracing.install(tracing.Recorder())"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
