"""The benchmark's tracer (bench/tracing.py) wraps functions by name, so every
name it lists has to stay importable."""

import importlib
import importlib.util
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


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_in_its_layer():
    # each name in LAYERS resolves in src/, as a function defined in the
    # module of its layer (or a method in that module's class), so the
    # tracer attributes its spans to the right layer; a deleted or moved
    # name is listed here rather than breaking `bench/run.py --trace 1`
    problems = []
    for layer, paths in _tracing_module().LAYERS.items():
        home = importlib.import_module("eisenlab." + layer)
        for path in paths:
            owner, _, name = path.rpartition(".")
            scope = getattr(home, owner, None) if owner else home
            fn = vars(scope).get(name) if scope is not None else None
            if not callable(fn) or fn.__module__ != home.__name__:
                problems.append(f"{layer}.{path}")
    assert problems == []
