"""Regenerate the Massey self-test fixture ``tests/data/massey_selftest.json``.

It holds ``ok``, ``passed``, ``failed`` and ``counts`` of ``run_selftest``
for the quick runs at seeds 1, 9 and 20250809 and the full run at seed
20250809, one entry per run.  ``tests/test_massey.py`` compares fresh runs
with it field by field; it is never regenerated at test time.  A change
that means to alter the self-test's output regenerates the file and says
which fields moved.

Run from the repository root (a few seconds):

    PYTHONPATH=src python tests/make_selftest_fixture.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os

from eisenlab.massey.selftest import run_selftest

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "massey_selftest.json")
FIXTURE_RUNS = ((1, True), (9, True), (20250809, True), (20250809, False))


def run_key(seed: int, quick: bool) -> str:
    return f"{seed}-{'quick' if quick else 'full'}"


def selftest_row(seed: int, quick: bool) -> dict:
    """One run as the fixture stores it."""
    res = run_selftest(seed, quick=quick)
    return {"ok": res.ok, "passed": res.passed, "failed": res.failed, "counts": res.counts}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=FIXTURE)
    args = parser.parse_args()
    rows = {run_key(seed, quick): selftest_row(seed, quick) for seed, quick in FIXTURE_RUNS}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(rows)} runs to {args.out}")


if __name__ == "__main__":
    main()
