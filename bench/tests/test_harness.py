"""Tests for the benchmark harness itself.

    python3 -m pytest bench/tests -q
"""

import copy
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_perturbed_reference_record_counts_as_failed():
    reference = workloads.load_reference()
    outputs = copy.deepcopy(reference["hecke-large"])
    assert workloads.check("hecke-large", outputs, reference) == {}
    outputs["3001,5"]["e"] += 1
    problems = workloads.check("hecke-large", outputs, reference)
    assert list(problems) == ["3001,5"]
    assert "'e'" in problems["3001,5"]


def test_missing_item_and_failed_self_test_count_as_failed():
    reference = workloads.load_reference()
    outputs = copy.deepcopy(reference["invariants-deep"])
    outputs.popitem()
    assert len(workloads.check("invariants-deep", outputs, reference)) == 1
    massey = {"massey": {**reference["massey-quick"]["massey"], "ok": False, "failed": ["x"]}}
    assert "massey" in workloads.check("massey-quick", massey, reference)


def test_reference_holds_golden_values():
    reference = workloads.load_reference()
    for workload, items in reference.items():
        for item_id in set(items) & set(workloads.GOLDEN):
            assert workloads._golden_problems(item_id, items[item_id]) == []
    assert reference["massey-quick"]["massey"]["counts"]["defining systems at k=5"] == 125


def _span(name, start, end, span_id, parent):
    return [name, start, end, span_id, parent, None, None]


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("a", 0.0, 10.0, 1, None),
        _span("b", 1.0, 3.0, 2, 1),
        _span("b", 2.0, 5.0, 3, 1),  # overlaps its sibling (parallel workers)
        _span("c", 2.5, 4.0, 4, 3),
        _span("d", 8.0, 12.0, 5, 1),  # runs past its parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0 - 1.5)
    assert selfs[4] == pytest.approx(1.5)
    metrics = tracing.layer_metrics(spans, {})
    assert metrics["b.calls"] == 2
    assert metrics["b.self_s"] == pytest.approx(3.5)
    assert metrics["b.total_s"] == pytest.approx(5.0)


def test_total_time_does_not_count_recursion_twice():
    spans = [_span("f", 0.0, 4.0, 1, None), _span("f", 1.0, 2.0, 2, 1)]
    metrics = tracing.layer_metrics(spans, {})
    assert metrics["f.total_s"] == pytest.approx(4.0)
    assert metrics["f.self_s"] == pytest.approx(4.0)


def test_tail_percentile_rule():
    assert run.tail_percentile(73) == 86
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(19) is None
    samples = [float(i) for i in range(1, 74)]
    times = run.pair_times(samples)
    assert times["tail"] == 63.0  # ten samples above it
    assert times["p50"] == 37.0
    assert run.pair_times([2.0, 1.0])["tail"] == 2.0


@pytest.mark.parametrize("items", [workloads.WORKLOADS["hecke-large"]["pairs"], list(range(11, 2000, 10))])
def test_seed_changes_order_but_not_item_set(items):
    orders = {tuple(workloads.item_order(items, seed)) for seed in range(10)}
    assert len(orders) > 1
    assert {tuple(sorted(order)) for order in orders} == {tuple(sorted(items))}
    assert workloads.item_order(items, 3) == workloads.item_order(items, 3)
    assert workloads.item_order(items, 3, pass_index=1) != workloads.item_order(items, 3) or len(items) < 3


def test_metric_names_are_unique_and_within_limits():
    names = [name for name, _, _ in tracing.metric_names()]
    assert len(names) == len(set(names)) <= 128
    assert all(len(name) <= 64 for name in names)
