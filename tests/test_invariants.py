from fractions import Fraction
from math import comb

import numpy as np
import pytest
import sympy

from eisenlab import invariants
from eisenlab.corering import AtLeast, Modulus, build_dlog_table, howell_membership, valuation_p
from eisenlab.invariants import (
    _log_sums,
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
from eisenlab.sweep import compute_record, sweep_primes
from test_dlog import dlog_logs


def test_merel_number_values():
    assert merel_number(337) == 227
    assert merel_number(5) == 4
    assert merel_number(3) == 1


def _merel_loop(N):
    """prod_{i<=(N-1)/2} i^i mod N, one Python pow per i (the oracle)."""
    out = 1
    for i in range(1, (N - 1) // 2 + 1):
        out = (out * pow(i, i, N)) % N
    return out


def test_merel_number_matches_loop_oracle():
    # odd composites too: the scan takes no inverse
    for N in [*range(3, 3000, 2), 60101, 99991, 100151]:
        assert merel_number(N) == _merel_loop(N), N


@pytest.mark.parametrize("N", [-3, 0, 1, 2, 4, 100, 1000152])
def test_merel_number_rejects_even_and_small_N(N):
    with pytest.raises(ValueError, match="odd"):
        merel_number(N)


def test_merel_number_peak_memory_within_a_dlog_table():
    import tracemalloc

    N = 100151
    tracemalloc.start()
    try:
        merel_number(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (N - 1)  # the int64 powers of build_dlog_table(N)


def test_merel_number_int64_guard_allocates_nothing():
    import tracemalloc

    # 3037000499^2 < 2^63 <= 3037000501^2: past the guard the scan would
    # need one int64 array of 1.5e9 entries (12 GB)
    for N in (3037000501, 2**63 + 1):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="int64"):
                merel_number(N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, (N, peak)


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
        assert int(z[dlog_logs(dlog)[i]]) == _rational_mod(b2, 5)


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


def test_ord_zeta_two_paths_agree():
    # the Sylow reduction against the full group-ring oracle, at the probes
    # that certify ord: zeta in I^ord and not in I^(ord+1), or in I^cap
    for p in (5, 7, 11, 13):
        for N, t in _pairs(p, 2000):
            for s in range(1, t + 1):
                _assert_full_ring_agrees(N, p, s, ord_zeta(N, p, s), p**t + 1)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_zeta_report_reductions_match_ord_zeta(p):
    # zeta_report builds zeta once, mod p^t, and reduces it for each lower s
    for N in sweep_primes(p, 2000):
        t = int(valuation_p(N - 1, p))
        rep = zeta_report(N, p, t)
        assert rep.ord_s == {s: ord_zeta(N, p, s) for s in range(1, t + 1)}, (N, p)


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


def test_invariants_record_makes_one_log_pass(monkeypatch):
    calls = []
    log_sums = invariants._log_sums
    monkeypatch.setattr(invariants, "_log_sums", lambda N, q: calls.append((N, q)) or log_sums(N, q))
    rec = compute_record(3001, 5, with_hecke=False)
    assert calls == [(3001, 125)]
    assert rec.lecouturier_ok is True
    assert rec.merel_log_sum_s == {str(s): log_sums(3001, 5**s)[0] for s in (1, 2, 3)}


def test_lecouturier_identities():
    assert lecouturier_check(181, 5, 1)
    assert lecouturier_check(3001, 5, 3)
    assert lecouturier_check(337, 7, 1)
    assert lecouturier_check(11, 5, 1)
    assert lecouturier_check(1321, 11, 1)


def _python_int_log_sums(N):
    """(sum log i, sum i log i, sum i^2 log i, sum_{i <= (N-1)/2} i log i)
    over F_N^x, unreduced, in Python ints: logs from a dict built by
    stepping the generator, powers of i by ``pow``."""
    g, x, log = build_dlog_table(N).g, 1, {}
    for k in range(N - 1):
        log[x] = k
        x = x * g % N
    sums = [sum(pow(i, e) * log[i] for i in range(1, N)) for e in (0, 1, 2)]
    return [*sums, sum(i * log[i] for i in range(1, (N - 1) // 2 + 1))]


@pytest.mark.parametrize("N, p", [(181, 5), (1373, 7), (60101, 5), (99991, 5), (99991, 11), (100151, 5)])
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
        if s <= t:  # the one pass both read
            assert _log_sums(N, ps) == (s_half % ps, want), (N, p, s)


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
def test_ord_zeta_matches_howell_oracle(p):
    for N, t in _pairs(p, 1500):
        for s in range(1, t + 1):
            d = _zeta_v_coordinates(N, p, s, t)
            want = _howell_ord(d, p, s, t, p**t + 1)
            assert ord_zeta(N, p, s) == want, (N, p, s)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_full_ring_oracle_agrees_at_every_r(p):
    for N, t in _pairs(p, _ORACLE_N_BOUND):
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
        table = dlog_logs(build_dlog_table(N))
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


# -- the full group-ring oracle ------------------------------------------------
#
# The reference for the Sylow reduction: membership in I_G^r decided in all
# of (Z/p^s)[(Z/N)^x], with no Sylow quotient.  It is exact at every N; the
# tests run it on the pairs with N - 1 <= 400 and on the p <= 13, N < 2000
# sweep.

_ORACLE_N_BOUND = 402  # primes N < 402: N - 1 <= 400


def _aug_power_membership_full(z, p, s, r):
    """Full group-ring oracle: the log-ordered z in I_G^r inside (Z/p^s)[(Z/N)^x].

    G is cyclic of order n = N - 1, so with x = [g] the ring is
    (Z/p^s)[x]/(x^n - 1), I_G^r = ((x-1)^r), and z is in I_G^r exactly when
    it is in the ideal ((x-1)^r, x^n - 1) of (Z/p^s)[x].  (x-1)^r is monic,
    so z is reduced mod it in the basis (x-1)^j by r rounds of synthetic
    division by x - 1 (each a suffix sum whose remainder is the value at 1).
    In that basis x^n - 1 = sum_{j>=1} C(n, j) (x-1)^j, and its multiples
    mod (x-1)^r span the columns of an r x r lower-triangular Toeplitz
    matrix.  O(n r + r^3).
    """
    n, ps = len(z), p**s
    rem = np.zeros(r, dtype=np.int64)  # z in the basis (x-1)^j, mod (x-1)^r
    q = z % ps
    for j in range(min(r, n)):
        q = np.cumsum(q[::-1])[::-1] % ps  # q[k] = sum_{i>=k} q[i]
        rem[j], q = q[0], q[1:]
    col = np.array([0] + [comb(n, j) % ps for j in range(1, r)], dtype=np.int64)
    diag = np.subtract.outer(np.arange(r), np.arange(r))
    return howell_membership(np.where(diag >= 0, col[diag.clip(0)], 0), rem, Modulus(p, s))[0]


def _certifying_probes(o, cap):
    """(r, zeta in I^r) pairs that pin ord_s = o down: o and o + 1, or cap."""
    return [(cap, True)] if isinstance(o, AtLeast) else [(o, True), (o + 1, False)]


def _assert_full_ring_agrees(N, p, s, o, cap):
    z = zeta_element(N, p, s)
    for r, member in _certifying_probes(o, cap):
        assert _aug_power_membership_full(z, p, s, r) == member, (N, p, s, r)


def test_zeta_report_matches_full_ring_oracle():
    # every prime N with N - 1 <= 400, every prime p > 3 dividing N - 1,
    # every s <= t
    pairs = 0
    for N in sympy.primerange(3, _ORACLE_N_BOUND):
        for p in sympy.primefactors(N - 1):
            if p <= 3:
                continue
            t = int(valuation_p(N - 1, p))
            rep = zeta_report(N, p, t)
            for s in range(1, t + 1):
                _assert_full_ring_agrees(N, p, s, rep.ord_s[s], rep.cap)
                pairs += 1
    assert pairs == 79  # (N, p, s) triples


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


def test_full_ring_oracle_matches_dense_circulant():
    # the certifying probes for p <= 13 and N - 1 <= 400
    full = _aug_power_membership_full
    probes = []
    for p in (5, 7, 11, 13):
        for N, t in _pairs(p, _ORACLE_N_BOUND):
            for s in range(1, t + 1):
                z = zeta_element(N, p, s)
                probes += [(z, p, s, r) for r, _ in _certifying_probes(ord_zeta(N, p, s), p**t + 1)]
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
