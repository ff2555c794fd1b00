"""Regenerate the golden records fixture ``tests/data/records_n10000.jsonl.gz``.

It holds every record for p in {5, 7, 11, 13} and prime N = 1 mod p below
10000 (733 rows): one JSON object per line, every field except ``elapsed``,
sorted keys, ordered by (p, N).  The tests compare freshly computed records
with it field by field; it is never regenerated at test time.  A change that
means to alter a record regenerates the file and lists each changed row.

``sweep_table`` computes the rows this script writes; the acceptance suite
calls it once per test session and checks every row it returns against the
file.

Run from the repository root (about 33 s on two cores of a 2-vCPU VM):

    PYTHONPATH=src python tests/make_records_fixture.py [--workers 2] [--out PATH]
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import sys
import tempfile

from eisenlab.records import ResultRecord, read_records
from eisenlab.sweep import run_sweep

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "records_n10000.jsonl.gz")
FIXTURE_PRIMES = (5, 7, 11, 13)
FIXTURE_BOUND = 10000


def fixture_row(rec: ResultRecord) -> dict:
    """A record as the fixture stores it: its JSON fields, ``elapsed`` removed."""
    row = json.loads(rec.to_json())
    del row["elapsed"]
    return row


def load_fixture(path: str = FIXTURE) -> dict[tuple[int, int], dict]:
    """The fixture's rows keyed by (N, p)."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    return {(row["N"], row["p"]): row for row in rows}


def mismatches(rec: ResultRecord, fixture: dict[tuple[int, int], dict]) -> list[str]:
    """One "(N, p, field): got != want" line per field of ``rec`` that differs
    from its fixture row."""
    want = fixture.get(rec.key)
    if want is None:
        return [f"({rec.N}, {rec.p}): no fixture row"]
    got = fixture_row(rec)

    def text(row, name):  # JSON text, so that 1 and true, or 2 and 2.0, differ
        return json.dumps(row.get(name), sort_keys=True)

    return [
        f"({rec.N}, {rec.p}, {name}): {text(got, name)} != {text(want, name)}"
        for name in sorted(got.keys() | want.keys())
        if text(got, name) != text(want, name)
    ]


def sweep_table(directory: str, workers: int = 2) -> dict[int, list[ResultRecord]]:
    """Sweep every p in FIXTURE_PRIMES to FIXTURE_BOUND into records files
    in ``directory`` and read the rows back, keyed by p."""
    table = {}
    for p in FIXTURE_PRIMES:
        path = os.path.join(directory, f"p{p}.jsonl")
        run_sweep(p, FIXTURE_BOUND, path, workers=workers)
        table[p] = read_records(path)
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--out", default=FIXTURE)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        table = sweep_table(tmp, workers=args.workers)
    rows = [fixture_row(rec) for recs in table.values() for rec in recs]
    rows.sort(key=lambda row: (row["p"], row["N"]))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        for row in rows:
            fh.write((json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n").encode())
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
