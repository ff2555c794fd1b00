"""One pass of one workload in a fresh interpreter, as a CLI user runs it.

Started by run.py with a JSON config as its only argument.  A fresh process
means the dlog lru_cache, the Heilbronn cache and BLAS all start cold.  No
thread-count variable is set.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest peak resident set of this process or any of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _blas_facts() -> dict:
    import ctypes

    import numpy

    facts = {"numpy": numpy.__version__, "blas": None, "blas_threads": None}
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def main() -> int:
    config = json.loads(sys.argv[1])
    root = Path(config["root"])
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))

    import numpy  # noqa: F401
    import sympy  # noqa: F401

    import eisenlab
    import eisenlab.massey.selftest  # noqa: F401
    import eisenlab.sweep  # noqa: F401

    setup_done = time.monotonic()
    if not Path(eisenlab.__file__).resolve().is_relative_to(src):
        print(f"eisenlab was imported from {eisenlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    if config.get("setup_only"):
        print(json.dumps({"setup_done": setup_done}))
        return 0

    import tracing
    import workloads

    reference = workloads.load_reference()
    run_dir = root / ".bench_build" / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    workload, seed = config["workload"], config["seed"]
    rec = None
    if config["trace"]:
        rec = tracing.Recorder()
        tracing.install(rec)

    cpu0 = _cpu_s()
    start = time.perf_counter()
    outputs, items, extra = workloads.run_pass(workload, seed, config["pass"], rec, run_dir)
    problems = workloads.check(workload, outputs, reference)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0

    for item in items:
        if "error" in item:
            problems.setdefault(item["id"], item["error"])
    attempted = len(set(reference[workload]) | set(outputs) | {item["id"] for item in items})
    result = {
        "setup_done": setup_done,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "item_times": {item["id"]: item["elapsed"] for item in items if "error" not in item and not item.get("untimed")},
        "digest": workloads.digest(outputs),
        "extra": extra,
        "machine": _blas_facts(),
    }
    if rec is not None:
        result["layers"] = tracing.layer_metrics(rec.spans, tracing.finish_counts(rec))
        result["layers"]["hecke.eisenstein.localize.useful_ratio"] = workloads.localize_useful_ratio(outputs)
        spans_path = run_dir / f"spans-{workload}-seed{seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)
        result["spans_file"] = str(spans_path.relative_to(root))
        result["span_count"] = len(rec.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
