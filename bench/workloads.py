"""The benchmark's workloads, their item order, and the correctness gate.

Every workload is a closed loop: one process runs a fixed item set,
one call after another.  The seed permutes item order (and is the Massey
seed); it never changes which items run.  For `sweep-p5` the permuted order
is the order `run_sweep` submits pairs to its pool, so pairs of similar size
are spread over the whole run instead of meeting one slow stretch of the
machine together.

Outputs are compared against `reference.json`, generated at the parent commit
by `make_reference.py`, with timing fields left out.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
import traceback
from dataclasses import asdict
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

WORKLOADS = {
    # dense large-N Hecke path, including the paper's showcase pair (3001,5)
    "hecke-large": {"pairs": ((3001, 5), (3671, 5)), "with_hecke": True},
    # the user's `eisenlab sweep`: pool, many small matrices, records I/O, stats, verify
    "sweep-p5": {"p": 5, "max_N": 2000},
    # invariants only at p^t = 343: full-pivot Howell membership and the binomial transform
    "invariants-deep": {"pairs": ((1373, 7),), "with_hecke": False},
    # Massey calculus self-test; the only workload that reaches the massey layers
    "massey-quick": {},
}

# acceptance-suite golden values (tests/test_acceptance.py) for pairs the workloads run
GOLDEN = {
    "3001,5": {
        "e": 6,
        "t_seq": [3, 2, 2, 1, 1, 1, 0],
        "np_vertices": [[0, 3], [1, 2], [3, 1], [6, 0]],
        "components": [1, 2, 3],
        "ord_1": 7,
    },
    "3671,5": {"e": 5, "ord_1": 3},
    "181,5": {"e": 3, "ord_1": 3},
    "751,5": {"e": 2, "components": [1, 1]},
}

# record fields (top level or inside diagnostics) that hold timings only
TIMING_FIELDS = ("elapsed", "stages", "timings")


def item_order(items, seed: int, pass_index: int = 0) -> list:
    """The items of one pass, in the order the seed gives them."""
    items = list(items)
    random.Random(seed * 1_000_003 + pass_index).shuffle(items)
    return items


def normalize(row) -> dict:
    """A record as persisted (JSON-native), without timing-only fields."""
    data = json.loads(row.to_json())
    for name in TIMING_FIELDS:
        data.pop(name, None)
        data.get("diagnostics", {}).pop(name, None)
    return data


def _plain(obj) -> dict:
    return json.loads(json.dumps(asdict(obj), sort_keys=True, default=str))


def _guarded(item_id: str, items: list, fn):
    """Run one item; record its time, or the exception it raised."""
    start = time.perf_counter()
    try:
        out = fn()
    except Exception:  # a failing item is counted, and the pass goes on
        items.append({"id": item_id, "elapsed": time.perf_counter() - start, "error": traceback.format_exc()})
        return None
    items.append({"id": item_id, "elapsed": time.perf_counter() - start})
    return out


def run_pass(workload: str, seed: int, pass_index: int, rec, run_dir: Path):
    """Run one pass.  Returns (outputs by item id, item timings, extra figures).

    Every call into eisenlab goes through a module attribute, so the
    wrappers `tracing.install` puts there see it.
    """
    from eisenlab import records, sweep
    from eisenlab.massey import selftest

    spec = WORKLOADS[workload]
    outputs: dict = {}
    items: list = []
    extra: dict = {}
    if "pairs" in spec:
        for N, p in item_order(spec["pairs"], seed, pass_index):
            key = f"{N},{p}"
            if rec is not None:
                rec.trace_id = key
            row = _guarded(key, items, lambda: sweep.compute_record(N, p, with_hecke=spec["with_hecke"]))
            if row is not None:
                outputs[key] = normalize(row)
    elif workload == "sweep-p5":
        path = run_dir / f"sweep-{os.getpid()}.jsonl"
        path.unlink(missing_ok=True)
        workers = min(2, os.cpu_count() or 1)
        targets = item_order(sweep.sweep_primes(spec["p"], spec["max_N"]), seed, pass_index)
        sweep_primes = sweep.sweep_primes
        sweep.sweep_primes = lambda p, max_N: list(targets)
        start = time.perf_counter()
        try:
            done = _guarded("run_sweep", items, lambda: sweep.run_sweep(spec["p"], spec["max_N"], str(path), workers=workers))
        finally:
            sweep.sweep_primes = sweep_primes
        sweep_wall = time.perf_counter() - start
        rows = []
        if done is not None:
            items.pop()  # the sweep's own time is not a per-pair sample
            rows = records.read_records(str(path))
        path.unlink(missing_ok=True)
        for row in rows:
            outputs[f"{row.N},{row.p}"] = normalize(row)
            items.append({"id": f"{row.N},{row.p}", "elapsed": row.elapsed})
        if rec is not None:
            rec.trace_id = "stats"
        stats = _guarded("stats", items, lambda: sweep.stats_from_records(rows))
        if rec is not None:
            rec.trace_id = "verify"
        report = _guarded("verify", items, lambda: sweep.verify_records(rows))
        for item in items[-2:]:
            item["untimed"] = True
        if stats is not None:
            outputs["stats"] = _plain(stats)
        if report is not None:
            outputs["verify"] = _plain(report)
        busy = sum(row.elapsed for row in rows)
        extra = {"workers": workers, "sweep_wall_s": sweep_wall, "pool_idle_frac": 1 - busy / (workers * sweep_wall)}
    else:
        res = _guarded("massey", items, lambda: selftest.run_selftest(seed, quick=True))
        if res is not None:
            outputs["massey"] = {"ok": res.ok, "passed": res.passed, "failed": res.failed, "counts": res.counts}
    return outputs, items, extra


def digest(outputs: dict) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def localize_useful_ratio(outputs: dict) -> float:
    """q-steps that shrank W over q-steps tried, read from each record's localization audit."""
    tried = shrank = 0
    for data in outputs.values():
        audit = (data.get("diagnostics") or {}).get("localization") or []
        for (_, before), (_, after) in zip(audit, audit[1:]):
            tried += 1
            shrank += after < before
    return shrank / tried if tried else 0.0


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _golden_problems(key: str, data: dict) -> list[str]:
    want = GOLDEN.get(key, {})
    got = {
        "e": data.get("e"),
        "t_seq": data.get("t_seq"),
        "np_vertices": data.get("np_vertices"),
        "components": sorted(c["degree"] for c in data.get("components") or []),
        "ord_1": data.get("ord_zeta_s", {}).get("1"),
    }
    return [f"golden {name}: want {value}, got {got[name]}" for name, value in want.items() if got[name] != value]


def check(workload: str, outputs: dict, reference: dict) -> dict[str, str]:
    """Items whose output is missing or differs from the reference, with the reason."""
    expected = reference[workload]
    problems: dict[str, str] = {}
    for item_id, want in expected.items():
        got = outputs.get(item_id)
        if got is None:
            problems[item_id] = "no output"
        elif item_id == "massey":
            if not got["ok"] or got["failed"] or got["passed"] != want["passed"]:
                problems[item_id] = f"self-test failed: {got['failed']}"
            elif any(got["counts"].get(name) != count for name, count in want["counts"].items()):
                problems[item_id] = f"counts differ: {got['counts']}"
        elif got != want:
            diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            problems[item_id] = f"differs from reference in {diff}"
        else:
            golden = _golden_problems(item_id, got) if item_id in GOLDEN else []
            if golden:
                problems[item_id] = "; ".join(golden)
    for item_id in outputs:
        if item_id not in expected:
            problems[item_id] = "not in the reference"
    if workload == "sweep-p5":
        for item_id, got in outputs.items():
            if "," in item_id and got.get("t_seq") and got["t_seq"][0] != got["t"]:
                problems[item_id] = "congruence-number law t_1 = v_p(N-1) fails"
    return problems
