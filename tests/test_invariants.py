from fractions import Fraction
from math import comb

import numpy as np
import pytest
import sympy

from eisenlab import invariants
from eisenlab.corering import AtLeast, Modulus, build_dlog_table, howell_membership, valuation_p
from eisenlab.invariants import (
    _aug_power_membership_full,
    _sylow_member,
    _sylow_ord,
    _sylow_projection,
    _v_coordinates,
    is_good_prime,
    lecouturier_check,
    merel_number,
    merel_report,
    ord_zeta,
    zeta_element,
    zeta_report,
)
from eisenlab.sweep import compute_record


def test_merel_number_values():
    assert merel_number(337) == 227
    assert merel_number(5) == 4
    assert merel_number(3) == 1


def test_merel_report_337():
    rep = merel_report(337, 7, 1)
    assert rep.merel_value == 227
    assert rep.is_power_s[1] is False
    assert rep.log_sum_s[1] != 0


def test_merel_report_181():
    rep = merel_report(181, 5, 1)
    assert rep.is_power_s[1] is True
    assert rep.log_sum_s[1] == 0


def test_merel_report_validates_s_range():
    with pytest.raises(ValueError):
        merel_report(181, 5, 2)  # v_5(180) = 1
    with pytest.raises(ValueError):
        merel_report(13, 5, 1)


def _rational_mod(x: Fraction, ps: int) -> int:
    return x.numerator * pow(x.denominator, -1, ps) % ps


def test_zeta_element_matches_rational_oracle():
    z = zeta_element(11, 5, 1)
    dlog = build_dlog_table(11)
    for i in range(1, 11):
        b2 = Fraction(i, 11) ** 2 - Fraction(i, 11) + Fraction(1, 6)
        assert int(z[dlog.table[i]]) == _rational_mod(b2, 5)


def test_zeta_augmentation_vanishes():
    for (N, p) in [(11, 5), (31, 5), (181, 5), (337, 7), (3001, 5)]:
        t = 1
        x = N - 1
        t = 0
        while x % p == 0:
            x //= p
            t += 1
        for s in range(1, t + 1):
            assert zeta_element(N, p, s).sum() % p**s == 0


def test_zeta_element_preconditions():
    with pytest.raises(ValueError):
        zeta_element(11, 3, 1)
    with pytest.raises(ValueError):
        zeta_element(13, 5, 1)


def test_ord_zeta_golden_values():
    assert ord_zeta(181, 5, 1) == 3
    assert ord_zeta(11, 5, 1) == 1
    assert ord_zeta(31, 5, 1) == 2
    assert ord_zeta(3001, 5, 1) == 7
    assert ord_zeta(3671, 5, 1) == 3
    assert ord_zeta(5651, 5, 1) == 5


def test_ord_zeta_at_least_one_everywhere():
    for N in (11, 31, 41, 61, 71, 101, 131, 151, 181, 191):
        o = ord_zeta(N, 5, 1)
        assert isinstance(o, AtLeast) or o >= 1


def test_ord_zeta_two_paths_agree(monkeypatch):
    # the Sylow projection is cross-checked against the full group-ring
    # membership oracle automatically for N - 1 <= 400; force it beyond
    monkeypatch.setattr(invariants, "_FULL_ORACLE_LIMIT", 10**6)
    for p in (5, 7, 11, 13):
        for N, t in _pairs(p, 2000):
            for s in range(1, t + 1):
                ord_zeta(N, p, s)


def test_zeta_report_records_all_s():
    rep = zeta_report(3001, 5, 3)
    assert rep.ord_s[1] == 7
    assert set(rep.ord_s) == {1, 2, 3}
    assert not rep.sylow_zero


def test_good_primes():
    assert is_good_prime(2, 11, 5) is True
    # ell = p: tested as a residue mod N against brute-force p-th powers
    for N, want in ((31, False), (41, True)):
        assert (5 in {pow(x, 5, N) for x in range(1, N)}) is not want
        assert is_good_prime(5, N, 5) is want
    # condition (i): ell = 1 mod p
    assert is_good_prime(11, 31, 5) is False
    # condition (ii): ell a p-th power mod N
    fifth_powers = {pow(x, 5, 31) for x in range(1, 31)}
    for ell in (2, 3, 7, 13):
        want = (ell % 5 != 1) and (ell % 31 not in fifth_powers)
        assert is_good_prime(ell, 31, 5) == want
    with pytest.raises(ValueError):
        is_good_prime(31, 31, 5)


def test_lecouturier_identities():
    assert lecouturier_check(181, 5, 1)
    assert lecouturier_check(3001, 5, 3)
    assert lecouturier_check(337, 7, 1)
    assert lecouturier_check(11, 5, 1)
    assert lecouturier_check(1321, 11, 1)


def _python_int_log_sums(N):
    """(sum log i, sum i log i, sum i^2 log i, sum_{i <= (N-1)/2} i log i)
    over F_N^x, unreduced, in Python ints."""
    table = build_dlog_table(N).table
    sums = [0, 0, 0, 0]
    for i in range(1, N):
        li = table[i]
        sums[0] += li
        sums[1] += i * li
        sums[2] += i * i * li
        if i <= (N - 1) // 2:
            sums[3] += i * li
    return sums


@pytest.mark.parametrize("N, p", [(60101, 5), (99991, 5), (99991, 11)])
def test_log_sums_match_python_ints(N, p):
    s_log, s_ilog, s_i2log, s_half = _python_int_log_sums(N)
    if N == 99991:
        assert s_i2log >= 2**63  # an unreduced int64 sum would wrap here
    t = valuation_p(N - 1, p)
    assert merel_report(N, p, t).log_sum_s == {s: s_half % p**s for s in range(1, t + 1)}
    for s in range(1, t + 2):
        ps = p**s
        want = s_log % ps == 0 and s_ilog % ps == 0 and (s_i2log + s_half * 4 * pow(3, -1, ps)) % ps == 0
        assert lecouturier_check(N, p, s) == want
        assert want == (s <= t)


def _merel_power_matches_ord(N, p, s):
    """Equivalence: Merel's number is a p^s-th power iff ord_s(zeta) >= 2."""
    o = ord_zeta(N, p, s)
    return merel_report(N, p, s).is_power_s[s] == (isinstance(o, AtLeast) or o >= 2)


def test_merel_ord_equivalence_small_sweep():
    # Merel's number is a p-th power iff ord_1 >= 2, for every N = 1 mod p
    import sympy

    for p in (5, 7):
        N = 2 * p + 1
        count = 0
        while count < 12:
            if sympy.isprime(N):
                assert _merel_power_matches_ord(N, p, 1), (N, p)
                count += 1
            N += p


# -- ord_s by truncated power series ------------------------------------------
#
# Reference: the p^t x p^t Howell membership that decided I^r before the
# power-series criterion.  In (Z/p^s)[v]/(rho), rho = (1+v)^(p^t) - 1, I^r is
# the column span of {v^(r+k) mod rho : k < p^t}.


def _v_powers(p, s, t, count):
    """Rows v^k mod rho for k < count, rho = (1+v)^(p^t) - 1 over Z/p^s."""
    pt, ps = p**t, p**s
    rho = np.array([0] + [comb(pt, j) % ps for j in range(1, pt)], dtype=np.int64)
    out = np.zeros((count, pt), dtype=np.int64)
    cur = np.zeros(pt, dtype=np.int64)
    cur[0] = 1
    for k in range(count):
        out[k] = cur
        top = int(cur[-1])
        cur = np.concatenate(([0], cur[:-1]))
        if top:
            cur = (cur - top * rho) % ps
    return out


def _howell_ord(d, p, s, t, cap):
    """ord of the Sylow element with v-coordinates d, by p^t x p^t Howell
    membership and bisection over [1, cap]."""
    pt = p**t
    mod = Modulus(p, s)
    pows = _v_powers(p, s, t, cap + pt)

    def member(r):
        return howell_membership(pows[r : r + pt].T, d, mod)[0]

    assert member(1)
    if member(cap):
        return AtLeast(cap)
    lo, hi = 1, cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if member(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _pairs(p, bound):
    """(N, t) for primes N < bound with p | N - 1, t = v_p(N - 1)."""
    for N in sympy.primerange(p + 2, bound):
        if (N - 1) % p == 0:
            yield N, int(valuation_p(N - 1, p))


def _v_coordinates_full(vec, p, s, t):
    """All p^t v-coordinates d[j] = sum_k vec[k] C(k, j) mod p^s, one Pascal
    row per k by the additive recurrence (independent oracle)."""
    pt, ps = p**t, p**s
    d = np.zeros(pt, dtype=np.int64)
    row = np.zeros(pt, dtype=np.int64)  # row[j] = C(k, j) mod p^s
    row[0] = 1
    for c in vec:
        c = int(c) % ps
        if c:
            d = (d + c * row) % ps
        row[1:] = (row[1:] + row[:-1]) % ps
    return d


def _zeta_v_coordinates(N, p, s, t):
    proj = _sylow_projection(zeta_element(N, p, s), p, s, t)
    return _v_coordinates_full(proj, p, s, t)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_v_coordinates_stop_at_first_unit(p):
    # the prefix up to the first unit past d[0], or all of d when there is
    # none, on zeta's projections and on vectors with no unit coordinate
    gen = np.random.default_rng(p)
    for N, t in _pairs(p, 2000 if p < 11 else 5000):
        for s in range(1, t + 1):
            proj = _sylow_projection(zeta_element(N, p, s), p, s, t)
            vecs = [proj, p * proj % p**s, gen.integers(0, p**s, p**t)]
            for vec in vecs:
                full = _v_coordinates_full(vec, p, s, t)
                got = _v_coordinates(vec, p, s, t)
                units = np.flatnonzero(full[1:] % p)
                want = full[: units[0] + 2] if units.size else full
                assert np.array_equal(got, want), (N, p, s)


@pytest.mark.parametrize("p", [5, 7])
def test_ord_zeta_matches_howell_oracle(p, monkeypatch):
    monkeypatch.setattr(invariants, "_FULL_ORACLE_LIMIT", 0)
    for N, t in _pairs(p, 1500):
        for s in range(1, t + 1):
            d = _zeta_v_coordinates(N, p, s, t)
            want = _howell_ord(d, p, s, t, p**t + 1)
            assert ord_zeta(N, p, s) == want, (N, p, s)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_full_ring_oracle_agrees_at_every_r(p, monkeypatch):
    limit = invariants._FULL_ORACLE_LIMIT
    monkeypatch.setattr(invariants, "_FULL_ORACLE_LIMIT", 0)
    for N, t in _pairs(p, limit + 2):
        cap = p**t + 1
        for s in range(1, t + 1):
            z = zeta_element(N, p, s)
            d = _zeta_v_coordinates(N, p, s, t)
            o = ord_zeta(N, p, s)
            for r in range(1, cap + 1):
                member = isinstance(o, AtLeast) or r <= o
                assert _aug_power_membership_full(z, p, s, r) == member, (N, p, s, r)
                assert _sylow_member(d, p, s, r, p**t) == member, (N, p, s, r)


@pytest.mark.parametrize(
    "N, p, golden",
    [
        (3001, 5, {1: 7, 2: 3, 3: 1}),
        (11251, 5, {1: 1, 2: 1, 3: 1, 4: 1}),
        (7547, 7, {1: 1, 2: 1, 3: 1}),
        (8233, 7, {1: 1, 2: 1, 3: 1}),
    ],
)
def test_zeta_report_golden_multi_s(N, p, golden):
    rep = zeta_report(N, p, len(golden))
    assert rep.ord_s == golden
    assert rep.cap == p ** int(valuation_p(N - 1, p)) + 1
    assert not rep.sylow_zero


def test_sylow_zero_flag(monkeypatch):
    # p * zeta has zero Sylow projection mod p but not mod p^2: the flag is
    # read at s = 1, and ord_1 is the cap
    zeta = invariants.zeta_element
    monkeypatch.setattr(invariants, "zeta_element", lambda N, p, s: p * zeta(N, p, s) % p**s)
    rep = zeta_report(3001, 5, 3)
    assert rep.ord_s[1] == AtLeast(126)
    assert rep.sylow_zero is True
    assert compute_record(3001, 5, with_hecke=False).flags == ["sylow-projection-zero"]


def _residue_zeta(N, p, s):
    """zeta indexed by residue, entry i - 1 the coefficient of [i]: the
    reference the log-order layout is scattered from."""
    ps = p**s
    invN = pow(N % ps, -1, ps)
    i = np.arange(1, N, dtype=np.int64)
    return ((i * i % ps) * (invN * invN % ps) - i * invN + pow(6, -1, ps)) % ps


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_log_order_matches_residue_scatter(p):
    for N, t in _pairs(p, 2000):
        table = build_dlog_table(N).table
        pt = p**t
        top = zeta_element(N, p, t)
        for s in range(1, t + 1):
            coeffs = _residue_zeta(N, p, s)
            by_log = np.zeros(N - 1, dtype=np.int64)
            scatter = np.zeros(pt, dtype=np.int64)
            for i in range(1, N):
                by_log[table[i]] = coeffs[i - 1]
                scatter[table[i] % pt] += int(coeffs[i - 1])
            z = zeta_element(N, p, s)
            assert np.array_equal(z, by_log), (N, s)
            assert np.array_equal(_sylow_projection(z, p, s, t), scatter % p**s), (N, s)
            assert np.array_equal(z, top % p**s), (N, s)


def _planted(p, t, s, gen):
    """(label, v-coordinates mod p^s, ord_1) for planted Sylow elements."""
    pt, ps = p**t, p**s
    cap = pt + 1
    for k in sorted({1, 2, p, pt - 1} - {pt}):
        unit = np.zeros(pt, dtype=np.int64)  # v^k times a unit of R
        unit[k] = gen.integers(1, p) + p * gen.integers(0, ps)
        unit[k + 1 :] = gen.integers(0, ps, pt - k - 1)
        yield f"v^{k}*unit", unit % ps, k
        yield f"p*v^{k}*unit", p * unit % ps, cap
    deep = np.zeros(pt, dtype=np.int64)  # zero mod p, not mod p^s when s >= 2
    deep[1:] = p ** (s - 1) * gen.integers(1, p, pt - 1)
    yield "p^(s-1)*random", deep % ps, cap
    yield "v^cap", _v_powers(p, s, t, cap + 1)[cap], cap


@pytest.mark.parametrize("p, t", [(5, 1), (5, 2), (5, 3), (7, 2)])
def test_planted_sylow_vectors(p, t, monkeypatch):
    probes = []
    member = invariants._sylow_member
    monkeypatch.setattr(
        invariants, "_sylow_member", lambda d, p, s, r, pt: probes.append(r) or member(d, p, s, r, pt)
    )
    gen = np.random.default_rng(p * 10 + t)
    cap = p**t + 1
    for s in range(1, t + 1):
        for label, d, ord1 in _planted(p, t, s, gen):
            probes.clear()
            got = _sylow_ord(d, p, s, cap)
            assert got == _howell_ord(d, p, s, t, cap), (label, s)
            if ord1 < cap:  # v^k * unit: ord_s = ord_1 = k at every s
                assert got == ord1, (label, s)
            if s == 1:
                assert probes == [], label  # read off d mod p, no solve
            else:
                assert max(probes, default=1) <= min(ord1 + 1, cap), (label, s, probes)
            if ord1 >= cap and s > 1:
                assert probes[0] == cap, label  # AtLeast is decided at cap first
        assert _sylow_ord(np.zeros(p**t, dtype=np.int64), p, s, cap) == AtLeast(cap)
    if t > 1:  # v^cap lies in I^cap and is nonzero mod p^t
        v_cap = _v_powers(p, t, t, cap + 1)[cap]
        assert v_cap.any() and _sylow_ord(v_cap, p, t, cap) == AtLeast(cap)


def test_ord_zeta_certifies_with_full_ring_oracle(monkeypatch):
    calls = []
    full = invariants._aug_power_membership_full
    monkeypatch.setattr(
        invariants,
        "_aug_power_membership_full",
        lambda z, p, s, r: calls.append(r) or full(z, p, s, r),
    )
    assert ord_zeta(181, 5, 1) == 3 and calls == [3, 4]
    calls.clear()
    assert ord_zeta(3001, 5, 1) == 7 and calls == []  # N - 1 > 400: no oracle
    with monkeypatch.context() as m:
        m.setattr(invariants, "_FULL_ORACLE_LIMIT", 420)
        o = ord_zeta(421, 5, 1)
        assert calls == [o, o + 1]
        calls.clear()
        m.setattr(invariants, "_FULL_ORACLE_LIMIT", 0)
        assert ord_zeta(181, 5, 1) == 3 and calls == []
    sylow_ord = invariants._sylow_ord
    for wrong in (2, 4, AtLeast(6)):
        monkeypatch.setattr(invariants, "_sylow_ord", lambda d, p, s, cap, w=wrong: w)
        with pytest.raises(AssertionError, match="disagree"):
            ord_zeta(181, 5, 1)
    monkeypatch.setattr(invariants, "_sylow_ord", sylow_ord)
    assert ord_zeta(181, 5, 1) == 3


# -- the full group-ring oracle against the dense circulant -------------------


def _aug_power(n, r, ps):
    """([g]-1)^r mod ps in discrete-log coordinates, G cyclic of order n."""
    base = np.zeros(n, dtype=np.int64)
    for j in range(r + 1):
        term = (comb(r, j) % ps) * (-1) ** (r - j)
        base[j % n] = (int(base[j % n]) + term) % ps
    return base


def _circulant_membership_reference(z, p, s, r):
    """z in I_G^r by the dense (N-1) x (N-1) circulant: I_G^r is spanned by
    the cyclic shifts of ([g]-1)^r in discrete-log coordinates."""
    n = len(z)
    base = _aug_power(n, r, p**s)
    # column k is base shifted down by k: cols[i, k] = base[(i - k) mod n]
    cols = base[np.subtract.outer(np.arange(n), np.arange(n)) % n]
    ok, _ = howell_membership(cols, z, Modulus(p, s))
    return ok


def _group_ring_product(a, b, ps):
    """a * b in (Z/ps)[x]/(x^n - 1), coefficient vectors of length n."""
    n = len(a)
    out = np.zeros(n, dtype=np.int64)
    for k in np.flatnonzero(a):
        out = (out + int(a[k]) * np.roll(b, k)) % ps
    return out


def test_full_ring_oracle_matches_dense_circulant(monkeypatch):
    # every probe ord_zeta makes where the oracle runs
    probes = []
    full = invariants._aug_power_membership_full
    monkeypatch.setattr(
        invariants,
        "_aug_power_membership_full",
        lambda z, p, s, r: probes.append((z, p, s, r)) or full(z, p, s, r),
    )
    for p in (5, 7, 11, 13):
        for N, t in _pairs(p, invariants._FULL_ORACLE_LIMIT + 2):
            for s in range(1, t + 1):
                ord_zeta(N, p, s)
    assert len(probes) > 80
    for z, p, s, r in probes:
        assert full(z, p, s, r) == _circulant_membership_reference(z, p, s, r), (len(z), p, s, r)

    # planted members (x-1)^r0 * unit * x^k, and p^(s-1) * random
    p = 5
    gen = np.random.default_rng(2024)
    for N in (11, 31, 101, 251):
        n, t = N - 1, int(valuation_p(N - 1, p))
        cap = p**t + 1
        for s in range(1, t + 1):
            ps = p**s
            for r0 in sorted({1, 2, p, cap - 1}):
                unit = p * gen.integers(0, ps, n)  # c x^k (1 + p w), c prime to p
                unit[0] += 1
                unit = np.roll(unit * int(gen.integers(1, p)) % ps, int(gen.integers(0, n)))
                z = _group_ring_product(_aug_power(n, r0, ps), unit, ps)
                for r in (r0, r0 + 1):
                    got = full(z, p, s, r)
                    assert got == _circulant_membership_reference(z, p, s, r), (N, s, r0, r)
                    assert got or r > r0, (N, s, r0)
            z = p ** (s - 1) * gen.integers(0, ps, n) % ps
            z[0] = (z[0] - z.sum()) % ps  # in I_G
            for r in (1, 2, 3, cap):
                want = _circulant_membership_reference(z, p, s, r)
                assert full(z, p, s, r) == want, (N, s, r)
