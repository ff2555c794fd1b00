"""Spans recorded from outside the program, and the per-layer metrics derived from them.

`install` replaces each function in `LAYERS` with a timing wrapper wherever a
caller looks it up: in every `eisenlab` module namespace that holds the
function (the defining module for intra-module calls, importing modules and
package re-exports), and on the class for `ManinSpace` methods.  Nothing
inside `src/` changes.

A span is `[name, start, end, span_id, parent_id, trace_id, info]`: times from
`time.perf_counter` (CLOCK_MONOTONIC, comparable across processes on Linux),
ids unique across processes, the trace id names the (N,p) pair or the Massey
property being computed, and `info` holds sizes read from the call's operands.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

import numpy as np

# layer (module under eisenlab) -> traced functions and the stats reported for them
LAYERS = {
    "hecke.manin": ("build_manin_space", "ManinSpace.hecke_full", "ManinSpace.hecke_on_plus"),
    "hecke.eisenstein": ("eisenstein_local_factor", "generator_check", "component_slopes"),
    "corering.linalg": (
        "unit_echelon",
        "kernel_of_free_summand",
        "restrict_operator",
        "berkowitz_charpoly",
        "howell_solve",
        "howell_membership",
        "kernel_spanning_set",
    ),
    "corering.dlog": ("build_dlog_table",),
    "corering.newton": (
        "t_sequence",
        "newton_polygon",
        "hensel_lift_coprime",
        "hensel_split_distinguished",
        "unit_window_factor",
    ),
    "invariants": ("merel_report", "zeta_report", "ord_zeta", "lecouturier_check"),
    "massey.cochains": ("cup", "coboundary", "vanishes_in_h2", "random_cocycle", "all_cocycles"),
    "massey.products": ("massey_power_vanishes", "coordinate_relation", "power_defining_systems"),
    "massey.selftest": ("run_selftest",),
    "records": ("append_records", "read_records"),
    "sweep": ("compute_record", "stats_from_records", "verify_records"),
}

# leaf kernels report computed work instead of inclusive time
_KERNEL_LAYERS = {"corering.linalg"}
_SENTINEL_LAYERS = {"corering.newton"}


def _shape(x) -> tuple[int, int]:
    shape = np.shape(x)
    return (shape[0], shape[1] if len(shape) > 1 else 1)


def _elimination_work(m: int, n: int, pivots: int) -> dict:
    """Dense elimination: each pivot updates the m x n int64 matrix once."""
    return {"ops": 2 * pivots * m * n, "bytes": 16 * pivots * m * n}


def _full_pivot_work(A, M: int) -> dict:
    """Full-pivot forward pass: up to min(m, n) pivots, each scanning the
    trailing block once per valuation level (M levels) and updating it."""
    m, n = _shape(A)
    r = min(m, n)
    return {"ops": r * m * n * (2 + M), "bytes": 8 * r * m * n * (2 + M)}


def _linalg_info(name: str, args, kwargs, result) -> dict:
    if name == "unit_echelon":
        m, n = _shape(args[0])
        return _elimination_work(m, n, len(result[1]))
    if name == "kernel_of_free_summand":
        m, n = _shape(args[0])
        return _elimination_work(m, n, n - result.shape[1])
    if name == "restrict_operator":
        m, k = _shape(args[1])
        product = {"ops": 2 * m * m * k, "bytes": 8 * (m * m + 2 * m * k)}
        solve = _elimination_work(m, 2 * k, k)
        return {key: product[key] + solve[key] for key in product}
    if name == "berkowitz_charpoly":
        n = _shape(args[0])[0]
        # step i: i - 1 products with the i x i leading block, plus the border
        ops = sum(2 * i * i * (i - 1) + 2 * i * (i + 1) for i in range(1, n))
        return {"ops": ops, "bytes": sum(8 * i * i * (i - 1) for i in range(1, n))}
    # howell_solve, howell_membership, kernel_spanning_set
    return _full_pivot_work(args[0], kwargs.get("mod", args[-1]).M)


def _info_for(layer: str, name: str):
    """Callback (args, kwargs, result) -> span info, or None."""
    if layer == "corering.linalg":
        return lambda args, kwargs, result: _linalg_info(name, args, kwargs, result)
    if name == "build_manin_space":
        return lambda args, kwargs, result: {"dim": result.dim, "relation_rank": result.relation_rank}
    if name == "ManinSpace.hecke_full":
        return lambda args, kwargs, result: {"key": [args[0].N, kwargs.get("ell", args[-1])]}
    return None


class Recorder:
    """In-memory span store for one process; forked pool workers inherit a copy."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list = []
        self.trace_id = None
        self.counts: dict[str, int] = {}
        self.dlog_cache_info = None  # set by install()
        self._serial = 0
        self._labelled = 0

    def wrap(self, name: str, fn, info=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec._serial += 1
            span_id = (os.getpid(), rec._serial)
            parent = rec.stack[-1] if rec.stack else None
            rec.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec.stack.pop()
            span = [name, start, end, span_id, parent, rec.trace_id, None]
            rec.spans.append(span)
            if info is not None:
                span[6] = info(args, kwargs, result)
            return result

        return traced

    def label_pending(self, trace_id: str):
        """Give spans recorded since the last label the trace id `trace_id`."""
        for span in self.spans[self._labelled :]:
            if span[5] is None:
                span[5] = trace_id
        self._labelled = len(self.spans)

    def add_counts(self, counts: dict):
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


def _eisenlab_modules():
    return [m for name, m in sys.modules.items() if name == "eisenlab" or name.startswith("eisenlab.")]


def _replace_everywhere(original, replacement):
    for module in _eisenlab_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: Recorder):
    """Wrap every function in LAYERS, and hook the places where trace ids and
    pool-worker spans cross into this process."""
    from eisenlab.corering import dlog

    rec.dlog_cache_info = dlog.build_dlog_table.cache_info
    for layer, functions in LAYERS.items():
        home = importlib.import_module("eisenlab." + layer)
        for path in functions:
            name = f"{layer}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, attr, rec.wrap(name, vars(cls)[attr], _info_for(layer, path)))
            else:
                original = getattr(home, path)
                _replace_everywhere(original, rec.wrap(name, original, _info_for(layer, path)))

    from eisenlab import sweep
    from eisenlab.massey import selftest

    # Massey spans belong to the property recorded after them
    record = selftest.SelftestResult.record

    def labelled_record(result, name, *args, **kwargs):
        rec.label_pending(name)
        return record(result, name, *args, **kwargs)

    selftest.SelftestResult.record = labelled_record

    # append_records: bytes written, and spans shipped back from pool workers
    traced_append = sweep.append_records

    def append_and_collect(path, rows):
        rows = list(rows)
        for row in rows:
            shipped = row.__dict__.pop("_bench_trace", None)
            if shipped is not None:
                rec.spans.extend(shipped["spans"])
                rec.add_counts(shipped["counts"])
        before = os.path.getsize(path) if os.path.exists(path) else 0
        traced_append(path, rows)
        rec.spans[-1][6] = {"bytes": os.path.getsize(path) - before}  # the span just closed

    _replace_everywhere(traced_append, append_and_collect)

    # each sweep task names its pair; a forked worker ships its spans with the record
    worker = sweep._worker

    @functools.wraps(worker)
    def traced_worker(args):
        rec.trace_id = f"{args[0]},{args[1]}"
        if os.getpid() == rec.pid:
            return worker(args)
        mark = len(rec.spans)
        before = rec.dlog_cache_info()
        row = worker(args)
        after = rec.dlog_cache_info()
        row.__dict__["_bench_trace"] = {
            "spans": rec.spans[mark:],
            "counts": {"dlog_hits": after.hits - before.hits, "dlog_misses": after.misses - before.misses},
        }
        del rec.spans[mark:]
        return row

    sweep._worker = traced_worker


def finish_counts(rec: Recorder) -> dict:
    """Counts shipped from workers plus this process's own dlog cache counts."""
    own = rec.dlog_cache_info()
    counts = dict(rec.counts)
    counts["dlog_hits"] = counts.get("dlog_hits", 0) + own.hits
    counts["dlog_misses"] = counts.get("dlog_misses", 0) + own.misses
    return counts


def self_times(spans: list[list]) -> dict:
    """span_id -> span duration minus the union of its children's intervals."""
    children: dict = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[1], span[2]))
    out = {}
    for span in spans:
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span[3], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span[3]] = (end - start) - covered
    return out


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, functions in LAYERS.items():
        for path in functions:
            base = f"{layer}.{path}"
            out.append((f"{base}.calls", "count", "lower"))
            if layer not in _KERNEL_LAYERS | _SENTINEL_LAYERS:
                out.append((f"{base}.total_s", "s", "lower"))
            out.append((f"{base}.self_s", "s", "lower"))
            if layer in _KERNEL_LAYERS:
                out.append((f"{base}.ops", "ops", "lower"))
                out.append((f"{base}.bytes", "B", "lower"))
        if layer == "hecke.manin":
            out += [
                ("hecke.manin.ManinSpace.hecke_full.distinct_ratio", "ratio", "higher"),
                ("hecke.manin.dim", "count", "lower"),
                ("hecke.manin.relation_rank", "count", "lower"),
            ]
        elif layer == "hecke.eisenstein":
            out.append(("hecke.eisenstein.localize.useful_ratio", "ratio", "higher"))
        elif layer == "corering.dlog":
            out += [
                ("corering.dlog.build_dlog_table.cache_hits", "count", "higher"),
                ("corering.dlog.build_dlog_table.cache_misses", "count", "lower"),
            ]
        elif layer == "invariants":
            out.append(("invariants.ord_zeta.membership_tests", "count", "lower"))
        elif layer == "records":
            out.append(("records.append_records.bytes", "B", "lower"))
        elif layer == "sweep":
            out.append(("sweep.pool_idle_frac", "ratio", "lower"))
    out += [("trace.overhead_s", "s", "lower"), ("trace.overhead_frac", "ratio", "lower")]
    return out


def layer_metrics(spans: list[list], counts: dict) -> dict:
    """Per-function calls, total and self time, computed work and sizes.

    Total time counts a span only when no ancestor has the same name, so
    recursion is not counted twice.
    """
    by_id = {span[3]: span for span in spans}
    selfs = self_times(spans)

    def ancestors(span):
        parent = span[4]
        while parent is not None and parent in by_id:
            yield by_id[parent]
            parent = by_id[parent][4]

    values: dict[str, float] = {}

    def add(key, value):
        values[key] = values.get(key, 0) + value

    hecke_keys = set()
    for span in spans:
        name = span[0]
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", selfs[span[3]])
        if all(a[0] != name for a in ancestors(span)):
            add(f"{name}.total_s", span[2] - span[1])
        info = span[6] or {}
        if "ops" in info:
            add(f"{name}.ops", info["ops"])
            add(f"{name}.bytes", info["bytes"])
        if "dim" in info:
            values["hecke.manin.dim"] = max(values.get("hecke.manin.dim", 0), info["dim"])
            values["hecke.manin.relation_rank"] = max(
                values.get("hecke.manin.relation_rank", 0), info["relation_rank"]
            )
        if "key" in info:
            hecke_keys.add(tuple(info["key"]))
        if "bytes" in info and name == "records.append_records":
            add("records.append_records.bytes", info["bytes"])
        if name == "corering.linalg.howell_membership" and any(
            a[0] == "invariants.ord_zeta" for a in ancestors(span)
        ):
            add("invariants.ord_zeta.membership_tests", 1)

    hecke_calls = values.get("hecke.manin.ManinSpace.hecke_full.calls", 0)
    values["hecke.manin.ManinSpace.hecke_full.distinct_ratio"] = (
        len(hecke_keys) / hecke_calls if hecke_calls else 0.0
    )
    ord_calls = values.get("invariants.ord_zeta.calls", 0)
    values["invariants.ord_zeta.membership_tests"] = (
        values.get("invariants.ord_zeta.membership_tests", 0) / ord_calls if ord_calls else 0.0
    )
    values["corering.dlog.build_dlog_table.cache_hits"] = counts.get("dlog_hits", 0)
    values["corering.dlog.build_dlog_table.cache_misses"] = counts.get("dlog_misses", 0)
    return values
