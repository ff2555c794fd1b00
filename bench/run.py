"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload hecke-large --seed 1 --seconds 20 --trace 0

Each pass runs in a fresh Python process (see worker.py).  Untraced
(--trace 0): passes repeat until --seconds is used up (at least one), and the
last line of stdout is a JSON object with every end-to-end metric.  Traced
(--trace 1): one untraced and one traced pass of the same items; the last
line holds every per-layer metric, including the tracing overhead.  The line
before it holds details: machine facts, sample counts, problems.

Exit status: 0 when every item matched the reference, 1 when some item
failed (the result is still printed), 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0


class HarnessError(Exception):
    """The benchmark itself could not run."""


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile (nearest rank) with at least ten samples beyond it."""
    for q in range(99, 49, -1):
        if n - math.ceil(q * n / 100) >= 10:
            return q
    return None


def pair_times(samples: list[float]) -> dict:
    """Median and tail of per-item times; the tail is the maximum when there
    are too few samples for a percentile with ten beyond it."""
    ordered = sorted(samples)
    q = tail_percentile(len(ordered))
    tail = ordered[math.ceil(q * len(ordered) / 100) - 1] if q else ordered[-1]
    return {"p50": statistics.median(ordered), "tail": tail, "tail_percentile": q or 100, "samples": len(ordered)}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def machine_facts() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "load1_before": os.getloadavg()[0],
        "git_commit": _git_commit(),
    }


def run_child(config: dict, deadline: float) -> dict:
    """Run worker.py in its own process group; kill the whole group when done."""
    config = {"root": str(ROOT), **config}
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(config)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # leftover pool workers, if any
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        raise HarnessError(f"pass {config} did not finish in time")
    if proc.returncode != 0 or not out.strip():
        raise HarnessError(f"pass {config} exited with status {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result.pop("setup_done") - start
    return result


def untraced(args, deadline: float) -> tuple[dict, dict, list]:
    setups = [run_child({"setup_only": True}, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(run_child({"workload": args.workload, "seed": args.seed, "pass": len(passes), "trace": 0}, deadline))
        took = time.monotonic() - began
        if time.monotonic() - start + took > args.seconds:
            break
    setups += [p["setup_s"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    samples = [t for p in passes for t in p["item_times"].values()]
    if not samples:
        raise HarnessError(f"no item finished: {sorted(k for p in passes for k in p['problems'])}")
    pairs = pair_times(samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "verified_frac": (1 - failed / attempted, "ratio"),
        "pair_p50_s": (pairs["p50"], "s"),
        "pair_tail_s": (pairs["tail"], "s"),
    }
    details = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "failed_frac": failed / attempted,
        "pair_samples": pairs["samples"],
        "pair_tail_percentile": pairs["tail_percentile"],
        "extra": [p["extra"] for p in passes],
        "item_times": [p["item_times"] for p in passes],
    }
    return metrics, details, passes


def traced(args, deadline: float) -> tuple[dict, dict, list]:
    config = {"workload": args.workload, "seed": args.seed, "pass": 0}
    plain = run_child({**config, "trace": 0}, deadline)
    spanned = run_child({**config, "trace": 1}, deadline)
    units = {name: unit for name, unit, _ in tracing.metric_names()}
    layers = {name: spanned["layers"].get(name, 0) for name in units}
    layers["sweep.pool_idle_frac"] = plain["extra"].get("pool_idle_frac", 0.0)
    layers["trace.overhead_s"] = spanned["wall_s"] - plain["wall_s"]
    layers["trace.overhead_frac"] = layers["trace.overhead_s"] / plain["wall_s"]
    metrics = {name: (value, units[name]) for name, value in layers.items()}
    details = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": spanned["wall_s"],
        "outputs_identical": plain["digest"] == spanned["digest"],
        "spans": spanned["span_count"],
        "spans_file": spanned["spans_file"],
        "workers": spanned["extra"].get("workers"),
    }
    spanned["attempted"] += 1  # the comparison of the two passes' outputs
    if plain["digest"] != spanned["digest"]:
        spanned["problems"]["traced-vs-untraced"] = "traced pass produced different outputs"
        spanned["failed"] += 1
    return metrics, details, [plain, spanned]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eisenlab" / "__init__.py").is_file():
        print(f"no eisenlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    machine = machine_facts()
    if machine["load1_before"] > (machine["nproc"] or 1):
        print(f"warning: load {machine['load1_before']:.2f} exceeds nproc at start", file=sys.stderr)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        metrics, details, passes = (traced if args.trace else untraced)(args, deadline)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    machine.update(passes[-1]["machine"])
    machine["load1_after"] = os.getloadavg()[0]
    machine["loaded"] = machine["load1_before"] > (machine["nproc"] or 1)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = {k: v for p in passes for k, v in p["problems"].items()}
    for item_id, reason in problems.items():
        print(f"FAILED {item_id}: {reason}", file=sys.stderr)
    details.update({"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine})
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
