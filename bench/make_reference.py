"""Regenerate bench/reference.json from the current sources.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are trusted: every benchmark run
compares against this file.  The Massey self-test is run for three seeds;
only counts that cannot depend on the seed, and agree across them, are stored.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402

MASSEY_SEEDS = (1, 2, 3)
# skipped draws make this count depend on the seed
SEED_DEPENDENT_COUNTS = ("defining-system law iff deformation is a homomorphism",)


def _outputs(workload: str, seed: int) -> dict:
    run_dir = BENCH.parent / ".bench_build" / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    outputs, items, _ = workloads.run_pass(workload, seed, 0, None, run_dir)
    errors = [item for item in items if "error" in item]
    if errors:
        raise SystemExit(f"{workload}: items raised:\n" + "\n".join(e["error"] for e in errors))
    return outputs


def main() -> int:
    reference = {}
    for workload in workloads.WORKLOADS:
        if workload != "massey-quick":
            reference[workload] = _outputs(workload, 0)
            continue
        runs = [_outputs(workload, seed)["massey"] for seed in MASSEY_SEEDS]
        if not all(run["ok"] and run["passed"] == runs[0]["passed"] for run in runs):
            raise SystemExit("massey self-test failed or its properties differ across seeds")
        counts = {
            name: count
            for name, count in runs[0]["counts"].items()
            if name not in SEED_DEPENDENT_COUNTS and all(run["counts"].get(name) == count for run in runs)
        }
        reference[workload] = {"massey": {"passed": runs[0]["passed"], "counts": counts}}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
