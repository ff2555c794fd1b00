"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every criterion runs in the default suite.  The ``table`` fixture sweeps all
733 pairs with p in {5, 7, 11, 13}, N < 10000, once per test session (about
33 s on a 2-vCPU VM, with two workers); criteria 4, 5, 6 and 8 and the
verifier check read their rows from it.  Criterion 8 checks every row
against the golden records fixture and the verifier, and reproduces the
published statistics tables for p = 11, 13.
"""

import json
import time

import numpy as np
import pytest

from eisenlab.corering import is_power
from eisenlab.hecke import eisenstein_local_factor
from eisenlab.invariants import (
    is_good_prime,
    lecouturier_check,
    merel_number,
    ord_zeta,
)
from eisenlab.massey.selftest import run_selftest
from eisenlab.records import ResultRecord, decode_valuation
from eisenlab.sweep import (
    KNOWN_RANK_ORD_EXCEPTIONS,
    compute_record,
    stats_from_records,
    sweep_primes,
    verify_records,
)
from make_records_fixture import FIXTURE_PRIMES, load_fixture, mismatches, sweep_table

GOLDEN_RANK_ORD = {
    # criterion 2: (N, p) -> (e, ord_1 or None if unchecked here)
    (181, 5): (3, 3),
    (1571, 5): (3, None),
    (2621, 5): (3, None),
    (3671, 5): (5, 3),
    (3001, 5): (6, 7),
}

GOLDEN_POLYGON = {
    # criterion 3: (N, p) -> (e, ord_1 or None, np vertices or None, components)
    (3001, 5): (6, None, ((0, 3), (1, 2), (3, 1), (6, 0)), (1, 2, 3)),
    (751, 5): (2, None, None, (1, 1)),
    (5651, 5): (4, 5, None, (1, 3)),
    (6451, 5): (3, None, None, (1, 2)),
}

_report_cache: dict = {}


def _golden_report(N, p, ell=None):
    key = (N, p, ell)
    if key not in _report_cache:
        _report_cache[key] = eisenstein_local_factor(N, p, ell=ell)
    return _report_cache[key]


@pytest.fixture(scope="session")
def table(tmp_path_factory) -> dict[int, list[ResultRecord]]:
    """The sweep's rows for every p in FIXTURE_PRIMES, N < 10000, keyed by p."""
    return sweep_table(str(tmp_path_factory.mktemp("table")))


def _announce(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}", flush=True)


def test_criterion_01_merel_golden():
    start = time.perf_counter()
    assert merel_number(337) == 227
    assert is_power(227, 337, 7) is False
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(1, f"merel_number(337) = 227, not a 7th power [{elapsed:.2f}s]")


def test_criterion_02_rank_ord_golden_rows():
    lines = []
    for (N, p), (e_want, ord_want) in GOLDEN_RANK_ORD.items():
        start = time.perf_counter()
        rep = _golden_report(N, p)
        assert rep.e == e_want, (N, p, rep.e, e_want)
        if ord_want is not None:
            assert ord_zeta(N, p, 1) == ord_want, (N, p)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, (N, p, elapsed)
        lines.append(f"({N},{p}): e={rep.e} [{elapsed:.1f}s]")
    _announce(2, "; ".join(lines))


def test_criterion_03_newton_polygons_and_components():
    lines = []
    for (N, p), (e_want, ord_want, np_want, comps_want) in GOLDEN_POLYGON.items():
        start = time.perf_counter()
        rep = _golden_report(N, p)
        assert rep.e == e_want, (N, p, rep.e)
        if np_want is not None:
            assert rep.np_vertices == np_want, (N, p, rep.np_vertices)
        degs = tuple(sorted(c.degree for c in rep.components))
        assert degs == comps_want, (N, p, degs)
        if ord_want is not None:
            assert ord_zeta(N, p, 1) == ord_want
        elapsed = time.perf_counter() - start
        assert elapsed < 15 * 60, (N, p, elapsed)
        lines.append(f"({N},{p}): e={rep.e} comps={degs} [{elapsed:.0f}s]")
    _announce(3, "; ".join(lines))


def test_golden_record_2663_11():
    # the one pair with p in {11, 13}, N < 10000 whose products pass the
    # float64 bound k * (p^M - 1)^2 < 2^53: 28 of them, at 11^7, take
    # matmul_mod's split path
    rec = compute_record(2663, 11)
    assert rec.precision == 7
    assert (rec.e, rec.t_seq, rec.np_vertices) == (1, [3, 0], [[0, 3], [1, 0]])
    assert rec.components == [{"slope": [3, 1], "degree": 1, "resolved": True}]
    assert rec.ord_zeta_s == {"1": 1, "2": 1, "3": 1}


def test_criterion_04_congruence_number_law(table):
    start = time.perf_counter()
    rows = table[5]
    for rec in rows:
        assert rec.t_seq[0] == rec.t, (rec.N, rec.t_seq, rec.t)
        assert rec.diagnostics["f0_valuation"] == rec.t, rec.N
    elapsed = time.perf_counter() - start
    assert elapsed < 30 * 60
    assert len(rows) == 306
    _announce(4, f"v_p(f(0)) = v_p(N-1) on all {len(rows)} records, p=5, N<10000 [{elapsed:.0f}s]")


def test_criterion_05_equivalence_battery(table):
    checked = 0
    for p in (5, 7):
        for rec in table[p]:
            is_pow = rec.merel_is_power_s["1"]
            ord1 = rec.ord_1()
            ord1_ge2 = not isinstance(ord1, int) or ord1 >= 2
            assert (rec.e >= 2) == is_pow, (rec.N, p)
            assert (rec.e >= 2) == ord1_ge2, (rec.N, p)
            assert rec.lecouturier_ok, (rec.N, p)
            for s in range(1, rec.t + 1):
                assert lecouturier_check(rec.N, p, s), (rec.N, p, s)
            checked += 1
    assert checked == 509
    _announce(5, f"e >= 2 iff Merel power iff ord_1 >= 2, plus log identities, on {checked} records")


def test_criterion_06_rank_two_conjecture(table):
    checked = 0
    for p in FIXTURE_PRIMES:
        for rec in table[p]:
            ord1 = rec.ord_1()
            ord1_num = ord1 if isinstance(ord1, int) else None
            assert (rec.e == 2) == (ord1_num == 2), (rec.N, p, rec.e, ord1)
            checked += 1
    assert checked == 733
    _announce(6, f"e = 2 iff ord_1 = 2 with zero exceptions on {checked} records, p in {FIXTURE_PRIMES}, N<10000")


def test_criterion_07_sample_space_counts():
    start = time.perf_counter()
    counts = {p: len(sweep_primes(p, 10000)) for p in FIXTURE_PRIMES}
    assert counts == {5: 306, 7: 203, 11: 125, 13: 99}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(7, f"#P(10000) = {counts} [{elapsed:.2f}s]")


def test_criterion_08_full_sweep_statistics(table):
    published = {
        11: {1: "0.912", 2: "0.080", 3: "0.008"},
        13: {1: "0.929", 2: "0.061", 3: "0.010"},
    }
    fixture = load_fixture()
    every = [rec for p in FIXTURE_PRIMES for rec in table[p]]
    assert sorted(rec.key for rec in every) == sorted(fixture)
    problems = [line for rec in every for line in mismatches(rec, fixture)]
    assert not problems, "\n".join(problems)
    report = verify_records(every)
    assert report.ok, report.fatal_failures
    assert report.checked == len(every) == 733
    assert {(N, p) for N, p, _, _ in report.rank_ord_exceptions} == KNOWN_RANK_ORD_EXCEPTIONS
    for p, want in published.items():
        stats = stats_from_records(table[p])
        assert stats.r == want, (p, stats.r)
    _announce(
        8,
        f"all {len(every)} rows match the records fixture and the verifier; "
        "full-sweep r(d) tables for p = 11, 13 match published values",
    )


def test_fixture_rows_obey_t_sequence_laws():
    # ROADMAP item 12's laws (i) and (j) on every fixture row, each tying the
    # Hecke t-sequence to an invariant computed without Hecke operators:
    # (i) t_2 is the largest s <= t at which Merel's number is a p^s-th
    # power, or 0; (j) ord_s(zeta) = #{i : t_i >= s} for 2 <= s <= t
    rows = load_fixture().values()
    pairs = 0
    for row in rows:
        t, t_seq, tag = row["t"], row["t_seq"], (row["N"], row["p"])
        powers = [s for s in range(1, t + 1) if row["merel_is_power_s"][str(s)]]
        assert t_seq[1] == max(powers, default=0), tag
        for s in range(2, t + 1):
            assert decode_valuation(row["ord_zeta_s"][str(s)]) == sum(ti >= s for ti in t_seq), (tag, s)
            pairs += 1
    assert (len(rows), pairs) == (733, 126)


def test_criterion_09_t_sequence_oracle():
    from test_newton import oracle_t_sequence, random_distinguished
    from eisenlab.corering import t_sequence

    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    n = 0
    while n < 200:
        p = int(rng.choice([5, 7]))
        M = int(rng.integers(1, 4))
        deg = int(rng.integers(1, 5))
        g = random_distinguished(p, M, deg, rng)
        assert t_sequence(g) == oracle_t_sequence(g), (g, p, M)
        n += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    _announce(9, f"t-sequence matches the ring-map enumeration oracle on {n} polynomials [{elapsed:.0f}s]")


def test_criterion_10_massey_suite():
    start = time.perf_counter()
    res = run_selftest(seed=20250809, quick=False)
    assert res.ok, res.failed
    assert res.counts["matrix Massey power vanishes iff all four coordinate relations"] >= 100
    assert res.counts["defining systems at k=5"] == 125
    elapsed = time.perf_counter() - start
    assert elapsed < 5 * 60
    _announce(10, f"Massey calculus suite: {len(res.passed)} properties, seed {res.seed} [{elapsed:.0f}s]")


def test_criterion_11_ell_independence():
    lines = []
    golden = list(GOLDEN_RANK_ORD) + [k for k in GOLDEN_POLYGON if k not in GOLDEN_RANK_ORD]
    for (N, p) in golden:
        rep1 = _golden_report(N, p)
        ell2 = rep1.ell_used + 1
        while not (
            ell2 != N
            and all(ell2 % q for q in range(2, int(ell2**0.5) + 1))
            and is_good_prime(ell2, N, p)
        ):
            ell2 += 1
        rep2 = _golden_report(N, p, ell=ell2)
        assert rep1.e == rep2.e, (N, p)
        assert rep1.t_seq == rep2.t_seq, (N, p)
        assert rep1.np_vertices == rep2.np_vertices, (N, p)
        assert [(c.slope, c.degree, c.resolved) for c in rep1.components] == [
            (c.slope, c.degree, c.resolved) for c in rep2.components
        ], (N, p)
        lines.append(f"({N},{p}): ell={rep1.ell_used},{ell2}")
    _announce(11, "reports agree across good primes: " + "; ".join(lines))


def test_verifier_on_records_fixture():
    # not a numbered criterion: all 733 fixture rows, read as a records file
    # is, pass the verifier, which re-derives each row's Hecke data from its
    # f_coeffs; the rows with e != ord_1 are exactly the published seven
    rows = [ResultRecord.from_json(json.dumps({**row, "elapsed": None})) for row in load_fixture().values()]
    report = verify_records(rows)
    assert report.ok, report.fatal_failures
    assert report.checked == len(rows) == 733
    assert {(N, p) for N, p, _, _ in report.rank_ord_exceptions} == KNOWN_RANK_ORD_EXCEPTIONS
    print(f"verifier: all {report.checked} fixture rows re-derived", flush=True)


def test_verifier_on_sweep_records(table):
    # not a numbered criterion: end-to-end check that the verifier accepts
    # the sweep output and tallies the known rank/ord exceptions
    rows = [rec for p in FIXTURE_PRIMES for rec in table[p]]
    report = verify_records(rows)
    assert report.ok, report.fatal_failures
    assert report.checked == len(rows)
    print(f"verifier: {report.checked} records, exceptions {report.rank_ord_exceptions}", flush=True)
