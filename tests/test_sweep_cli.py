import ctypes
import dataclasses
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import eisenlab
from eisenlab import sweep
from eisenlab.cli import main
from eisenlab.corering import linalg
from eisenlab.records import ResultRecord, append_records, read_records
from eisenlab.sweep import (
    compute_record,
    run_sweep,
    stats_from_records,
    sweep_primes,
    verify_records,
)


def test_sweep_primes_counts():
    assert len(sweep_primes(5, 10000)) == 306
    assert len(sweep_primes(7, 10000)) == 203
    assert len(sweep_primes(11, 10000)) == 125
    assert len(sweep_primes(13, 10000)) == 99
    assert sweep_primes(5, 100) == [11, 31, 41, 61, 71]


def test_compute_record_smoke():
    rec = compute_record(31, 5)
    assert rec.e == 2
    assert rec.ord_zeta_s["1"] == 2
    assert rec.merel_is_power_s["1"] is True
    assert rec.lecouturier_ok
    assert rec.diagnostics["generator_checks"]["2"] in (True, False)


def test_run_sweep_and_resume(tmp_path):
    out = tmp_path / "p5.jsonl"
    n = run_sweep(5, 150, str(out), workers=1)
    assert n == 7  # 11, 31, 41, 61, 71, 101, 131
    rows = read_records(str(out))
    assert {r.N for r in rows} == {11, 31, 41, 61, 71, 101, 131}
    # resume adds nothing
    assert run_sweep(5, 150, str(out), resume=True, workers=1) == 0
    # resume after extending the bound adds exactly the new primes
    assert run_sweep(5, 200, str(out), resume=True, workers=1) == 3  # 151, 181, 191
    rows2 = read_records(str(out))
    assert {r.N for r in rows2} == {11, 31, 41, 61, 71, 101, 131, 151, 181, 191}
    # fresh full run produces byte-identical records up to timing
    # (order-insensitive comparison)
    out2 = tmp_path / "p5b.jsonl"
    run_sweep(5, 200, str(out2), workers=1)

    def canonical(path):
        rows = []
        for rec in read_records(str(path)):
            rec.elapsed = None
            rows.append(rec.to_json())
        return sorted(rows)

    assert canonical(out) == canonical(out2)


def test_resume_rejects_malformed_middle_line(tmp_path):
    out = tmp_path / "p5.jsonl"
    run_sweep(5, 60, str(out), workers=1)  # 11, 31, 41
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(1, '{"N": 191, "p":\n')
    out.write_text("".join(lines), encoding="utf-8")
    before = out.read_bytes()
    with pytest.raises(json.JSONDecodeError):
        run_sweep(5, 100, str(out), resume=True, workers=1)  # 61 and 71 are due
    assert out.read_bytes() == before


def test_stats_fold(tmp_path):
    out = tmp_path / "p5.jsonl"
    run_sweep(5, 200, str(out), workers=1)
    rows = read_records(str(out))
    table = stats_from_records(rows)
    assert table.p == 5
    assert table.n == 10
    assert sum(table.counts.values()) == table.n
    # r values are three-decimal strings summing to ~1
    total = sum(float(v) for v in table.r.values())
    assert abs(total - 1.0) < 5e-3
    assert table.g[1] == "0.800"
    # recomputing from disk matches in-memory (pure fold)
    assert stats_from_records(read_records(str(out))).r == table.r


def test_stats_rejects_mixed_p(tmp_path):
    out = tmp_path / "mix.jsonl"
    run_sweep(5, 60, str(out), workers=1)
    run_sweep(7, 60, str(out), resume=True, workers=1)
    with pytest.raises(ValueError):
        stats_from_records(read_records(str(out)))


def test_verify_on_small_sweep(tmp_path):
    out = tmp_path / "p5.jsonl"
    run_sweep(5, 200, str(out), workers=1)
    report = verify_records(read_records(str(out)))
    assert report.ok, report.fatal_failures
    assert report.checked == 10
    assert report.conjecture_rank2_violations == []


# -- CLI ----------------------------------------------------------------------


def test_cli_invariants_json(capsys):
    rc = main(["invariants", "--N", "337", "--p", "7", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["merel_value"] == 227
    assert data["merel_is_power_s"]["1"] is False


def test_cli_hecke_human(capsys):
    rc = main(["hecke", "--N", "31", "--p", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "e = rank of the cuspidal Eisenstein completion = 2" in out
    assert "Massey power" in out


def test_cli_hecke_trivial_pair(capsys):
    rc = main(["hecke", "--N", "13", "--p", "5"])
    assert rc == 0
    assert "e = 0" in capsys.readouterr().out


def test_cli_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["hecke", "--N", "31"])  # missing --p
    assert exc.value.code == 2


def test_cli_compute_error(capsys):
    rc = main(["hecke", "--N", "32", "--p", "5"])  # N not prime
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_cli_verify_rejects_non_integer_valuation(tmp_path, capsys):
    # a valuation is an int or {"geq": M}; an "inf" written by hand is refused
    rec = ResultRecord(N=31, p=5, t=1, merel_is_power_s={"1": True}, ord_zeta_s={"1": "inf"}, e=2)
    path = tmp_path / "rows.jsonl"
    path.write_text(rec.to_json() + "\n")
    assert main(["verify", "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "'inf'" in lines[0]



@pytest.mark.parametrize(
    "argv",
    [
        ["--N", "11", "--p", "5", "--s-max", "-1"],  # p**-1 would be the float 0.2
        ["--N", "11", "--p", "5", "--s-max", "0"],  # would silently mean every s
        ["--N", "21", "--p", "7"],  # N not prime
        ["--N", "11", "--p", "4"],  # p not prime
        ["--N", "11", "--p", "3"],  # p not > 3
    ],
)
def test_cli_invariants_rejects_bad_input(tmp_path, capsys, argv):
    out = tmp_path / "rows.jsonl"
    assert main(["invariants", *argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("ell", ["4", "9", "-3", "0"])
def test_cli_hecke_rejects_non_prime_ell(tmp_path, capsys, ell):
    out = tmp_path / "rows.jsonl"
    assert main(["hecke", "--N", "31", "--p", "5", "--ell", ell, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"ell = {ell} " in err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_sweep_rejects_workers_below_one(tmp_path, capsys, workers):
    out = tmp_path / "rows.jsonl"
    argv = ["sweep", "--p", "5", "--max-N", "120", "--out", str(out), "--workers", workers]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"workers = {workers} " in captured.err
    assert not out.exists()
    with pytest.raises(ValueError, match="workers"):
        run_sweep(5, 120, str(out), workers=int(workers))
    assert not out.exists()


def test_cli_sweep_stats_verify(tmp_path, capsys):
    out = str(tmp_path / "rows.jsonl")
    rc = main(["sweep", "--p", "5", "--max-N", "120", "--out", out])
    assert rc == 0
    rc = main(["stats", "--in", out])
    assert rc == 0
    stats_out = capsys.readouterr().out
    assert "r(d)" in stats_out
    rc = main(["verify", "--in", out])
    assert rc == 0
    verify_out = capsys.readouterr().out
    assert "pass" in verify_out


def test_cli_verify_json_encodes_exception_ords(tmp_path, capsys):
    # one rank != ord_1 row with ord_1 an AtLeast, one with an int
    rec = compute_record(31, 5)
    rows = [
        rec,
        dataclasses.replace(rec, e=3, ord_zeta_s={**rec.ord_zeta_s, "1": {"geq": 2}}),
        dataclasses.replace(rec, N=41, e=3),
    ]
    out = str(tmp_path / "rows.jsonl")
    append_records(out, rows)
    assert main(["verify", "--in", out, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "checked": 3,
        "ok": True,
        "fatal": [],
        "informational": [
            "(N,p)=(31,5): e=3 != ord_1=>=2 (not in the published list)",
            "(N,p)=(41,5): e=3 != ord_1=2 (not in the published list)",
            "rank-2 conjecture violations: [(31, 5), (41, 5)]",
        ],
        "rank_ord_exceptions": [[31, 5, 3, ">=2"], [41, 5, 3, "2"]],
        "conjecture_rank2_violations": [[31, 5], [41, 5]],
    }


def test_cli_massey_selftest_quick(capsys):
    rc = main(["massey-selftest", "--quick", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["seed"] == 20250809
    assert any("k=5" in k for k in data["counts"])


def test_run_sweep_multiworker(tmp_path):
    out = tmp_path / "mw.jsonl"
    n = run_sweep(5, 100, str(out), workers=2)
    assert n == 5
    rows = read_records(str(out))
    assert {r.N for r in rows} == {11, 31, 41, 61, 71}
    assert all(r.e is not None for r in rows)


_GET_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads():
    fn = linalg._openblas_function(_GET_THREADS)
    fn.restype = ctypes.c_int
    return fn()


class _ProbingPool(ProcessPoolExecutor):
    """The sweep's pool, asked for a worker's BLAS thread count before it shuts down."""

    seen = []

    def __exit__(self, *exc):
        _ProbingPool.seen.append(self.submit(_blas_threads).result(timeout=60))
        return super().__exit__(*exc)


def test_import_pins_one_blas_thread():
    # a fresh interpreter, as the CLI and spawned pool workers start, with
    # numpy left to its default thread count
    if linalg._openblas_function(_GET_THREADS) is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(eisenlab.__file__).resolve().parents[1])
    code = (
        "import ctypes, eisenlab\n"
        "from eisenlab.corering.linalg import _openblas_function\n"
        f"fn = _openblas_function({_GET_THREADS!r})\n"
        "fn.restype = ctypes.c_int\n"
        "print(fn())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


def test_sweep_workers_use_one_blas_thread(tmp_path, monkeypatch):
    if linalg._openblas_function(_GET_THREADS) is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", _ProbingPool)
    _ProbingPool.seen.clear()
    assert run_sweep(5, 50, str(tmp_path / "blas.jsonl"), workers=2) == 3
    assert _ProbingPool.seen == [1]


def test_cli_out_flag_appends_record(tmp_path):
    out = str(tmp_path / "one.jsonl")
    assert main(["invariants", "--N", "31", "--p", "5", "--out", out, "--json"]) == 0
    assert main(["hecke", "--N", "31", "--p", "5", "--out", out, "--json"]) == 0
    rows = read_records(out)
    assert len(rows) == 2
    assert rows[0].e is None and rows[1].e is not None
    assert rows[1].e == 2
