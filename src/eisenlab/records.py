"""Persisted result rows: one JSON object per line, resumable and diffable.

Valuations that are only bounded below serialize as {"geq": M}; a true
infinity as the string "inf"; never as sentinel integers.  A record without
Hecke data (e is null) is an invariants-only row.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable

from .corering.zmod import AtLeast

SCHEMA_VERSION = 1


def encode_valuation(v) -> Any:
    if isinstance(v, AtLeast):
        return {"geq": v.bound}
    if isinstance(v, float):
        if v == float("inf"):
            return "inf"
        raise ValueError(f"non-integer valuation {v}")
    return int(v)


def decode_valuation(v) -> Any:
    if isinstance(v, dict):
        return AtLeast(int(v["geq"]))
    if v == "inf":
        return float("inf")
    return int(v)


@dataclass
class ResultRecord:
    """One (N, p) row; all fields JSON-native (valuations pre-encoded)."""

    N: int
    p: int
    t: int
    schema_version: int = SCHEMA_VERSION
    merel_value: int | None = None
    merel_is_power_s: dict[str, bool] = field(default_factory=dict)
    merel_log_sum_s: dict[str, int] = field(default_factory=dict)
    ord_zeta_s: dict[str, Any] = field(default_factory=dict)
    ord_cap: int | None = None
    lecouturier_ok: bool | None = None
    e: int | None = None
    ell_used: int | None = None
    precision: int | None = None
    f_coeffs: list[int] | None = None
    t_seq: list[int] | None = None
    np_vertices: list[list[int]] | None = None
    components: list[dict] | None = None
    diagnostics: dict = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)
    elapsed: float | None = None

    @property
    def key(self) -> tuple[int, int]:
        return (self.N, self.p)

    @property
    def invariants_only(self) -> bool:
        return self.e is None

    def ord_1(self):
        return decode_valuation(self.ord_zeta_s["1"]) if "1" in self.ord_zeta_s else None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "ResultRecord":
        data = json.loads(line)
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {version}")
        return cls(**data)


def _repair_tail(path: str) -> None:
    """Cut an unterminated last line, left by an interrupted write, back to
    the last newline, so that the next append starts a line of its own.  A
    last line that is a whole record and only lacks its newline gets one."""
    try:
        fh = open(path, "rb+")
    except FileNotFoundError:
        return
    with fh:
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        data = fh.read()
        keep = data.rfind(b"\n") + 1
        try:
            json.loads(data[keep:])
        except ValueError:
            fh.truncate(keep)
        else:
            fh.write(b"\n")
        fh.flush()
        os.fsync(fh.fileno())


def append_records(path: str, records: Iterable[ResultRecord]) -> None:
    _repair_tail(path)
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")
            fh.flush()
        os.fsync(fh.fileno())


def read_records(path: str) -> list[ResultRecord]:
    """All records in `path`.  A torn last line (no newline, not valid JSON)
    is skipped with a warning; a malformed line anywhere else raises."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            try:
                out.append(ResultRecord.from_json(line))
            except json.JSONDecodeError:
                if raw.endswith("\n"):
                    raise
                warnings.warn(f"{path}: skipping torn last line from an interrupted write")
    return out


def existing_keys(path: str) -> set[tuple[int, int]]:
    """Keys of the records in `path` (none when it does not exist), read as
    `read_records` reads them."""
    if not os.path.exists(path):
        return set()
    return {rec.key for rec in read_records(path)}
