import ctypes
import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import eisenlab
import eisenlab.hecke.eisenstein as eisenstein
from eisenlab import sweep
from eisenlab.cli import main
from eisenlab.corering import linalg
from eisenlab.corering.newton import NewtonPolygon
from eisenlab.invariants import is_good_prime
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
    assert _canonical(out) == _canonical(out2)


def _canonical(path):
    """The records in ``path`` as sorted JSON lines, without their timing."""
    rows = []
    for rec in read_records(str(path)):
        rec.elapsed = None
        rows.append(rec.to_json())
    return sorted(rows)


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
    # rows where p does not divide N - 1 have no rank to count, and verify
    # does not check them either
    for N in ("13", "17"):
        assert main(["hecke", "--N", N, "--p", "5", "--out", str(out), "--json"]) == 0
    rows = read_records(str(out))
    assert len(rows) == 12 and verify_records(rows).checked == table.n
    assert stats_from_records(rows) == table


def test_stats_rejects_mixed_p(tmp_path):
    out = tmp_path / "mix.jsonl"
    run_sweep(5, 60, str(out), workers=1)
    run_sweep(7, 60, str(out), resume=True, workers=1)
    with pytest.raises(ValueError):
        stats_from_records(read_records(str(out)))


def test_stats_rejects_no_records(tmp_path, capsys):
    with pytest.raises(ValueError, match="^no records$"):
        stats_from_records([])
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["stats", "--in", str(path)]) == 3
    assert capsys.readouterr().err == "error: no records\n"
    # rows written by `invariants` carry no rank to count
    path = tmp_path / "invariants.jsonl"
    assert main(["invariants", "--N", "31", "--p", "5", "--out", str(path), "--json"]) == 0
    capsys.readouterr()
    assert main(["stats", "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no records with Hecke rank data\n"


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


def test_cli_reports_a_hecke_failure_as_a_compute_error(capsys, monkeypatch):
    # a failure inside the Hecke pipeline is one error line and exit 3
    def fail(*args):
        raise eisenstein.MismatchError("planted")

    monkeypatch.setattr(eisenstein, "_generator_checks", fail)
    assert main(["hecke", "--N", "181", "--p", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: planted\n"


def test_cli_verify_reports_a_missing_file(tmp_path, capsys):
    assert main(["verify", "--in", str(tmp_path / "missing.jsonl")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("i/o error: ") and "missing.jsonl" in lines[0]


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
    "field,value,shown",
    [
        ("ord_zeta_s", {"1": {"ge": 3}}, "{'ge': 3}"),  # a bound under the wrong key
        ("e", "2", "'2'"),  # a rank written as a string
    ],
    ids=["ord-without-geq", "string-rank"],
)
def test_cli_verify_rejects_mistyped_rows(tmp_path, capsys, field, value, shown):
    # a hand-written row whose field has the wrong type is refused on reading:
    # one error line and exit 3, not a traceback from the verifier
    data = json.loads(ResultRecord(N=31, p=5, t=1, merel_is_power_s={"1": True}, ord_zeta_s={"1": 2}, e=2).to_json())
    data[field] = value
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(data) + "\n")
    assert main(["verify", "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and shown in lines[0]


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


@pytest.mark.parametrize("p", ["0", "-5", "4", "9"])
def test_cli_sweep_rejects_p_not_a_prime_above_3(tmp_path, p):
    # for p <= 0, N = k p + 1 never reaches the bound, so the CLI runs in a
    # subprocess with a timeout: a regression fails here instead of hanging
    out = tmp_path / "rows.jsonl"
    env = dict(os.environ, PYTHONPATH=str(Path(eisenlab.__file__).resolve().parents[1]))
    argv = ["-m", "eisenlab.cli", "sweep", "--p", p, "--max-N", "100", "--out", str(out)]
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"error: p = {p} must be a prime > 3\n"
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
    # one rank != ord_1 row with ord_1 an AtLeast, one with an int; the
    # ords are tampered, so each row's Hecke data still re-derives, and the
    # row moved to N = 41 carries the generator checks of (41, 5)
    rec = compute_record(31, 5)
    checks_41 = {str(q): is_good_prime(q, 41, 5) for q in (2, 3, 5, 7)}
    rows = [
        rec,
        dataclasses.replace(rec, ord_zeta_s={**rec.ord_zeta_s, "1": {"geq": 3}}),
        dataclasses.replace(
            rec,
            N=41,
            ord_zeta_s={**rec.ord_zeta_s, "1": 3},
            diagnostics={**rec.diagnostics, "generator_checks": checks_41},
        ),
    ]
    out = str(tmp_path / "rows.jsonl")
    append_records(out, rows)
    assert main(["verify", "--in", out, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "checked": 3,
        "ok": True,
        "fatal": [],
        "informational": [
            "(N,p)=(31,5): e=2 != ord_1=>=3 (not in the published list)",
            "(N,p)=(41,5): e=2 != ord_1=3 (not in the published list)",
            "rank-2 conjecture violations: [(31, 5), (41, 5)]",
        ],
        "rank_ord_exceptions": [[31, 5, 2, ">=3"], [41, 5, 2, "3"]],
        "conjecture_rank2_violations": [[31, 5], [41, 5]],
    }


_TAMPERED = {
    # case: (field, value, the start of the FATAL line after the (N, p) tag)
    "f0-valuation": ("f_coeffs", [475, 425, 330, 1], "f_coeffs has v_p(f(0)) = 2, not t = 1"),
    "f0-zero": ("f_coeffs", [0, 425, 330, 1], "f_coeffs at precision 4 cannot be re-derived (PrecisionExhausted"),
    "not-distinguished": ("f_coeffs", [595, 426, 330, 1], "f_coeffs is not a reduced distinguished polynomial"),
    "rank": ("e", 4, "e = 4 but f_coeffs has degree 3"),
    "t-sequence": ("t_seq", [1, 1, 0, 0], "t_seq = [1, 1, 0, 0] but f_coeffs gives [1, 1, 1, 0]"),
    "polygon": ("np_vertices", [[0, 1], [1, 1], [3, 0]], "np_vertices = [[0, 1], [1, 1], [3, 0]] but f_coeffs gives"),
    "components": (
        "components",
        [{"degree": 3, "resolved": False, "slope": [1, 3]}],
        "components = [{'degree': 3, 'resolved': False, 'slope': [1, 3]}] but f_coeffs gives",
    ),
    "no-precision": ("precision", None, "precision is missing"),
    "zero-precision": ("precision", 0, "f_coeffs at precision 0 cannot be re-derived"),
    # refused before 5^(10^7) is built, which takes seconds
    "huge-precision": (
        "precision",
        10**7,
        "f_coeffs at precision 10000000 cannot be re-derived (ValueError: p^M = 5^10000000 does not fit",
    ),
    "t": ("t", 2, "t = 2 but v_p(N - 1) = 1"),
    "merel-power": ("merel_is_power_s", {"1": False}, "e=3 but Merel p-th power status is False"),
    "ord-1": ("ord_zeta_s", {"1": 1}, "e=3 but ord_1=1"),
    "log-identities": ("lecouturier_ok", False, "discrete-log identity suite failed"),
}


@pytest.mark.parametrize("case", [None, *_TAMPERED])
def test_cli_verify_rederives_hecke_data(tmp_path, capsys, case):
    # verify re-derives t_seq, the polygon and the components from f_coeffs:
    # a row tampered in any Hecke field exits 4 with a FATAL line naming
    # (N, p, field), never a traceback; the row as computed exits 0
    row = json.loads(compute_record(181, 5).to_json())
    assert row["f_coeffs"] == [595, 425, 330, 1] and row["precision"] == 4
    path = tmp_path / "rows.jsonl"
    if case is not None:
        field, value, _ = _TAMPERED[case]
        row[field] = value
    path.write_text(json.dumps(row) + "\n")
    rc = main(["verify", "--in", str(path)])
    captured = capsys.readouterr()
    assert captured.err == ""
    fatal = [line for line in captured.out.splitlines() if line.startswith("  FATAL: ")]
    if case is None:
        assert rc == 0 and fatal == []
        return
    assert rc == 4
    start = f"  FATAL: (N,p)=(181,5): {_TAMPERED[case][2]}"
    assert any(line.startswith(start) for line in fatal), fatal


def test_verify_reports_a_hecke_failure_in_the_rederivation(monkeypatch):
    # a Hecke failure while re-deriving a row is its one FATAL line
    rec = compute_record(181, 5)

    def fail(*args):
        raise eisenstein.MismatchError("planted")

    monkeypatch.setattr(NewtonPolygon, "segments", fail)
    assert verify_records([rec]).fatal_failures == [
        "(N,p)=(181,5): f_coeffs at precision 4 cannot be re-derived (MismatchError: planted)"
    ]


def test_verify_ties_t_to_N():
    # a row's t must be v_p(N - 1), else e, f and the t-sequence, which the
    # re-derivation checks against t, are tied to nothing: (31, 5) relabelled
    # N = 3001 re-derives cleanly, and a t = 0 row with a rank skips every
    # other check
    rec = compute_record(31, 5)
    assert verify_records([rec]).ok
    moved = ResultRecord.from_json(rec.to_json().replace('"N":31,', '"N":3001,'))
    report = verify_records([moved])
    assert report.fatal_failures == ["(N,p)=(3001,5): t = 1 but v_p(N - 1) = 3"]
    assert report.checked == 1
    trivial = compute_record(13, 5)
    assert (trivial.t, trivial.e) == (0, 0)
    assert verify_records([trivial]).ok and verify_records([trivial]).checked == 0
    trivial.e = 2
    report = verify_records([trivial])
    assert report.fatal_failures == ["(N,p)=(13,5): t = 0 but e = 2"]
    assert report.checked == 0
    trivial.e, trivial.t = 0, 1
    assert verify_records([trivial]).fatal_failures[0] == "(N,p)=(13,5): t = 1 but v_p(N - 1) = 0"
    one = ResultRecord(N=1, p=5, t=0)
    assert verify_records([one]).fatal_failures == [
        "(N,p)=(1,5): t = 0 but v_p(N - 1) is undefined (valuation of 0 is not an integer)"
    ]


def _set(*path_value):
    *path, value = path_value

    def edit(row):
        for key in path[:-1]:
            row = row[key]
        row[path[-1]] = value

    return edit


def _drop(*path):
    def edit(row):
        for key in path[:-1]:
            row = row[key]
        del row[path[-1]]

    return edit


# at (181, 5) the good primes below 10 are 2, 3, 4, 5, 8 and 9
_GOOD_PRIME_TAMPERED = {
    "ell bad": (_set("ell_used", 7), ["ell_used = 7 is not a good prime for (N, p)"]),
    "ell not prime": (_set("ell_used", 4), ["ell_used = 4 is not a good prime for (N, p)"]),
    "ell is N": (_set("ell_used", 181), ["ell_used = 181 is not a good prime for (N, p)"]),
    "ell missing": (_set("ell_used", None), ["ell_used is missing"]),
    "verdict flipped": (
        _set("diagnostics", "generator_checks", "7", True),
        ["generator_checks[7] = True but is_good_prime gives False"],
    ),
    "verdict not a bool": (
        _set("diagnostics", "generator_checks", "2", 1),
        ["generator_checks[2] = 1 but is_good_prime gives True"],
    ),
    "prime dropped": (
        _drop("diagnostics", "generator_checks", "7"),
        ["generator_checks holds ['2', '3', '5'], not ['2', '3', '5', '7']"],
    ),
    "prime added": (
        _set("diagnostics", "generator_checks", "11", False),
        ["generator_checks holds ['11', '2', '3', '5', '7'], not ['2', '3', '5', '7']"],
    ),
    "checks missing": (_drop("diagnostics", "generator_checks"), ["diagnostics.generator_checks is missing"]),
}


@pytest.mark.parametrize("case", [None, *_GOOD_PRIME_TAMPERED])
def test_cli_verify_checks_good_prime_fields(tmp_path, capsys, case):
    # ell_used must be a good prime, and the stored generator checks exactly
    # Mazur's verdicts at 2, 3, 5, 7: a row tampered in either exits 4 with
    # the FATAL lines naming what is wrong
    row = json.loads(compute_record(181, 5).to_json())
    assert row["ell_used"] == 2
    assert row["diagnostics"]["generator_checks"] == {"2": True, "3": True, "5": True, "7": False}
    if case is not None:
        _GOOD_PRIME_TAMPERED[case][0](row)
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(row) + "\n")
    rc = main(["verify", "--in", str(path)])
    captured = capsys.readouterr()
    assert captured.err == ""
    fatal = [line for line in captured.out.splitlines() if line.startswith("  FATAL: ")]
    want = [] if case is None else _GOOD_PRIME_TAMPERED[case][1]
    assert fatal == [f"  FATAL: (N,p)=(181,5): {msg}" for msg in want]
    assert rc == (4 if want else 0)


def test_cli_verify_rejects_rows_whose_pair_is_not_valid(tmp_path, capsys):
    # hand-written t = 0 rows skip every Hecke check, so N and p are checked
    # on their own: p = 9 is not prime and N = 15 is composite
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(ResultRecord(N=N, p=p, t=0).to_json() + "\n" for N, p in ((3001, 9), (15, 5))))
    assert main(["verify", "--in", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    fatal = [line for line in captured.out.splitlines() if line.startswith("  FATAL: ")]
    assert fatal == [
        "  FATAL: (N,p)=(3001,9): p = 9 must be a prime > 3",
        "  FATAL: (N,p)=(15,5): N = 15 must be prime",
    ]


@pytest.mark.parametrize(
    "N, shown",
    [
        (185, ["N = 185 must be prime", "t = 1 but v_p(N - 1) = 0"]),
        (2001, ["N = 2001 must be prime", "t = 1 but v_p(N - 1) = 3"]),
    ],
)
def test_cli_verify_recheck_skips_rows_whose_pair_is_not_valid(tmp_path, capsys, N, shown):
    # the discrete-log recheck needs a valid pair; such a row is already fatal
    path = tmp_path / "rows.jsonl"
    path.write_text(dataclasses.replace(compute_record(181, 5), N=N).to_json() + "\n")
    outputs = []
    for extra in ([], ["--recheck-logs"]):
        assert main(["verify", "--in", str(path), *extra]) == 4
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    fatal = [line for line in outputs[1].splitlines() if line.startswith("  FATAL: ")]
    assert fatal == [f"  FATAL: (N,p)=({N},5): {msg}" for msg in shown]


@pytest.mark.parametrize("form", ["json", "human"])
def test_cli_massey_selftest_quick(capsys, form):
    rc = main(["massey-selftest", "--quick", *(["--json"] if form == "json" else [])])
    assert rc == 0
    out = capsys.readouterr().out
    if form == "json":
        data = json.loads(out)
        assert data["ok"] is True
        assert data["seed"] == 20250809
        assert any("k=5" in k for k in data["counts"])
        return
    lines = out.splitlines()
    assert lines[0] == "seed: 20250809"
    assert len(lines) > 2 and all(line.startswith("  PASS ") for line in lines[1:-1])
    assert lines[-1].startswith("  defining-system counts: {") and "k=5" in lines[-1]


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


_sweep_worker = sweep._worker


def _probing_worker(args):
    """The sweep's worker, noting in each record the BLAS thread count of
    the process that computed it."""
    rec = _sweep_worker(args)
    rec.flags.append(f"blas-threads={_blas_threads()} pid={os.getpid()}")
    return rec


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
    monkeypatch.setattr(sweep, "_worker", _probing_worker)
    assert run_sweep(5, 50, str(tmp_path / "blas.jsonl"), workers=2) == 3
    seen = [flag.split() for rec in read_records(str(tmp_path / "blas.jsonl")) for flag in rec.flags]
    assert {threads for threads, _ in seen} == {"blas-threads=1"}
    assert f"pid={os.getpid()}" not in {pid for _, pid in seen}


def _failing_worker(args):
    """A planted sweep worker: it logs each call to a file, fails at
    N = 11, the first pair, and holds every other pair until a release
    file appears, then logs the release."""
    log, release = os.environ["EISENLAB_TEST_CALL_LOG"], os.environ["EISENLAB_TEST_RELEASE"]
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(f"{args[0]}\n")
    if args[0] == 11:
        raise ArithmeticError("planted failure at N = 11")
    while not os.path.exists(release):
        time.sleep(0.01)
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(f"released-{args[0]}\n")
    return _sweep_worker(args)


def test_sweep_stops_its_workers_on_a_failure(tmp_path, monkeypatch):
    # the first failed pair ends the sweep while the other pairs are held:
    # no pending pair is started (each worker takes at most one held pair,
    # so only the first workers + 1 tasks can start), and the held ones
    # are terminated, so releasing them afterwards logs nothing.  A valve
    # releases them after 10 s, so a pool that waits for its pairs fails
    # the test instead of hanging it.
    calls, release = tmp_path / "calls.log", tmp_path / "release"
    monkeypatch.setenv("EISENLAB_TEST_CALL_LOG", str(calls))
    monkeypatch.setenv("EISENLAB_TEST_RELEASE", str(release))
    monkeypatch.setattr(sweep, "_worker", _failing_worker)
    valve = threading.Timer(10.0, release.touch)
    valve.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="planted failure"):
            run_sweep(5, 8000, str(tmp_path / "rows.jsonl"), workers=2)
        elapsed = time.perf_counter() - start
    finally:
        valve.cancel()
    release.touch()
    time.sleep(0.5)
    started = calls.read_text(encoding="utf-8").split()
    assert elapsed < 10.0
    assert len(sweep_primes(5, 8000)) == 246
    assert "11" in started
    assert set(started) <= {"11", "31", "41"}, started  # the first three pairs, none released


def test_sweep_reports_a_worker_killed_outright(tmp_path):
    # a worker killed by SIGKILL (as the out-of-memory killer does) ends
    # the sweep with BrokenProcessPool; run in its own session under a
    # timeout, since a pool that replaces the worker waits forever
    out = tmp_path / "rows.jsonl"
    env = dict(os.environ, PYTHONPATH=str(Path(eisenlab.__file__).resolve().parents[1]))
    code = (
        "import os, signal\n"
        "from eisenlab import sweep\n"
        "real = sweep._worker\n"
        "def dying(args):\n"
        "    if args[0] == 11:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return real(args)\n"
        "sweep._worker = dying\n"
        f"sweep.run_sweep(5, 200, {str(out)!r}, workers=2)\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the session, workers included
        except ProcessLookupError:
            pass
        proc.wait()
    assert proc.returncode == 1
    assert "BrokenProcessPool" in err.splitlines()[-1]


def test_cli_sweep_stops_on_two_sigints_and_resumes(tmp_path):
    # two SIGINTs to the sweep's own process, 50 ms apart, once it has
    # written its first record (a pool that waits for its pending pairs
    # hangs here): it exits, leaves whole records (and at most a torn last
    # line), and --resume completes it to what a fresh sweep writes
    out = tmp_path / "rows.jsonl"
    env = dict(os.environ, PYTHONPATH=str(Path(eisenlab.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "eisenlab.cli", "sweep", "--p", "5", "--max-N", "4000", "--out", str(out), "--workers", "2"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        assert proc.stdout.readline() == "sweep p=5, N < 4000: 134 primes\n"
        assert " e=" in proc.stdout.readline()  # a record line
        os.kill(proc.pid, signal.SIGINT)
        time.sleep(0.05)
        os.kill(proc.pid, signal.SIGINT)
        proc.communicate(timeout=20)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the session, workers included
        except ProcessLookupError:
            pass
        proc.wait()
    assert proc.returncode == -signal.SIGINT
    lines = out.read_text(encoding="utf-8").split("\n")  # the last is "" or torn
    done = [ResultRecord.from_json(line) for line in lines[:-1]]
    assert 1 <= len(done) < 134
    resumed = subprocess.run([*argv, "--resume"], env=env, capture_output=True, text=True, timeout=300)
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout.endswith(f"wrote {134 - len(done)} new records to {out}\n")
    fresh = tmp_path / "fresh.jsonl"
    assert run_sweep(5, 4000, str(fresh), workers=2) == 134
    assert _canonical(out) == _canonical(fresh)


def test_cli_sweep_ignores_sigint_after_the_first(tmp_path, monkeypatch):
    # run_sweep, called from the main thread with Python's default SIGINT
    # handler: the first SIGINT raises KeyboardInterrupt; a second one while
    # the sweep unwinds (and shuts its pool down) is ignored, and the
    # caller's handler is back afterwards
    seen = []

    def interrupted_worker(args):
        try:
            signal.raise_signal(signal.SIGINT)
        except KeyboardInterrupt:
            signal.raise_signal(signal.SIGINT)  # raises again if not ignored
            seen.append(signal.getsignal(signal.SIGINT))
            raise

    monkeypatch.setattr(sweep, "_worker", interrupted_worker)
    before = signal.getsignal(signal.SIGINT)
    assert before is signal.default_int_handler
    with pytest.raises(KeyboardInterrupt):
        run_sweep(5, 100, str(tmp_path / "rows.jsonl"), workers=1)
    assert seen == [signal.SIG_IGN]
    assert signal.getsignal(signal.SIGINT) is before


def test_run_sweep_keeps_a_callers_sigint_handler(tmp_path, monkeypatch):
    # a caller that handles SIGINT itself keeps its handler during the call
    def own(signum, frame):
        pass

    seen = []

    def probing_worker(args):
        seen.append(signal.getsignal(signal.SIGINT))
        return _sweep_worker(args)

    monkeypatch.setattr(sweep, "_worker", probing_worker)
    previous = signal.signal(signal.SIGINT, own)
    try:
        assert run_sweep(5, 50, str(tmp_path / "rows.jsonl"), workers=1) == 3
        assert signal.getsignal(signal.SIGINT) is own
    finally:
        signal.signal(signal.SIGINT, previous)
    assert seen == [own] * 3


def test_cli_out_flag_appends_record(tmp_path):
    out = str(tmp_path / "one.jsonl")
    assert main(["invariants", "--N", "31", "--p", "5", "--out", out, "--json"]) == 0
    assert main(["hecke", "--N", "31", "--p", "5", "--out", out, "--json"]) == 0
    rows = read_records(out)
    assert len(rows) == 2
    assert rows[0].e is None and rows[1].e is not None
    assert rows[1].e == 2
