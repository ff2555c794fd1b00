"""Elementary invariants of a pair of primes (N, p) with p | N - 1.

Merel's number prod i^i, the group-ring zeta element built from the second
Bernoulli polynomial, its order along the augmentation filtration, Mazur's
good primes, and the discrete-log identities underpinning the equivalences
between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
import sympy

from .corering.dlog import build_dlog_table, is_power
from .corering.linalg import howell_membership
from .corering.zmod import AtLeast, Modulus, valuation_p


def check_pair(N: int, p: int) -> None:
    """Raise ValueError unless N is prime and p is a prime > 3."""
    if p <= 3 or not sympy.isprime(p):
        raise ValueError(f"p = {p} must be a prime > 3")
    if not sympy.isprime(N):
        raise ValueError(f"N = {N} must be prime")


def merel_number(N: int) -> int:
    """prod_{i=1}^{(N-1)/2} i^i mod N."""
    if N < 3 or N % 2 == 0:
        raise ValueError(f"N = {N} must be an odd prime")
    out = 1
    for i in range(1, (N - 1) // 2 + 1):
        out = (out * pow(i, i, N)) % N
    return out


def is_good_prime(ell: int, N: int, p: int) -> bool:
    """Mazur's criterion: ell != 1 mod p and ell is not a p-th power mod N.

    ell = p is allowed and tested as a residue mod N.
    """
    if ell == N:
        raise ValueError("ell = N is excluded")
    if ell % p == 1:
        return False
    return not is_power(ell % N, N, p)


def _log_terms(N: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, i mod q, log(i) mod q) over F_N^x, in log order, for q | N - 1.

    q < N < 2^26 (the dlog limit), so products of two residues and sums of
    N residues stay below 2^52: reduce each term, and int64 sums are exact.
    """
    i = build_dlog_table(N).powers
    return i, i % q, np.arange(N - 1, dtype=np.int64) % q


@dataclass
class MerelReport:
    N: int
    p: int
    merel_value: int
    log_sum_s: dict[int, int]
    is_power_s: dict[int, bool]


def merel_report(N: int, p: int, s_max: int) -> MerelReport:
    """Power status of Merel's number for every s <= s_max.

    The exponent test (x^((N-1)/p^s) = 1) and the log-sum test
    (sum i*log(i) = 0 in Z/p^s) are computed independently and must agree.
    """
    t = valuation_p(N - 1, p)
    if t == 0:
        raise ValueError(f"p = {p} does not divide N-1 = {N - 1}")
    if s_max > t:
        raise ValueError(f"s_max = {s_max} exceeds v_p(N-1) = {t}")
    value = merel_number(N)
    q = p**s_max
    i, iq, log = _log_terms(N, q)
    total = int((iq * log % q)[i <= (N - 1) // 2].sum())
    log_sum_s = {}
    is_power_s = {}
    prev = True
    for s in range(1, s_max + 1):
        ps = p**s
        ls = total % ps
        ip = is_power(value, N, ps)
        if (ls == 0) != ip:
            raise AssertionError(
                f"exponent and log-sum power tests disagree at (N,p,s)=({N},{p},{s})"
            )
        if ip and not prev:
            raise AssertionError("p^s-power status not monotone in s")
        log_sum_s[s] = ls
        is_power_s[s] = ip
        prev = ip
    return MerelReport(N=N, p=p, merel_value=value, log_sum_s=log_sum_s, is_power_s=is_power_s)


def zeta_element(N: int, p: int, s: int) -> np.ndarray:
    """zeta = sum_i B2(i/N) [i] with B2(x) = x^2 - x + 1/6, reduced mod p^s.

    Returned in log order, as the coefficients of (Z/p^s)[(Z/N)^x]: entry k
    is the coefficient of [g^k], g the generator of ``build_dlog_table(N)``.
    """
    if p <= 3:
        raise ValueError("p must exceed 3 so that 6 is invertible")
    if (N - 1) % p != 0:
        raise ValueError(f"p = {p} does not divide N-1")
    ps = p**s
    invN = pow(N % ps, -1, ps)
    inv6 = pow(6, -1, ps)
    i = build_dlog_table(N).powers
    return ((i * i % ps) * (invN * invN % ps) - i * invN + inv6) % ps


def _sylow_projection(z: np.ndarray, p: int, s: int, t: int) -> np.ndarray:
    """Image of the log-ordered z in (Z/p^s)[G_p], G_p the Sylow-p quotient.

    p^t divides N - 1, so [g^k] maps to k mod p^t; the sums stay below N.
    """
    return z.reshape(-1, p**t).sum(axis=0) % p**s


def _v_coordinates(vec: np.ndarray, p: int, s: int, t: int) -> np.ndarray:
    """sum_k vec[k] u^k rewritten in v = u - 1: d[j] = sum_k vec[k] C(k, j) mod p^s,
    for j up to the first j > 0 with d[j] a unit, or all p^t of them when
    there is no such j.

    Substituting u = 1 + v turns (Z/p^s)[u]/(u^(p^t) - 1) into
    R = (Z/p^s)[v]/(rho), rho = (1+v)^(p^t) - 1, with I = (v).  So d is in
    I^r exactly when (d mod v^r) lies in rho * (Z/p^s)[v]/(v^r).  Mod p,
    rho = v^(p^t), so ord_1 is the index of the first entry of d not
    divisible by p; reduction mod p maps I^r into I^r, so ord_s <= ord_1,
    and no membership test reads d past ord_1.  Column j of C(k, j),
    k < p^t, is the shifted cumulative sum of column j - 1, exact in int64.
    """
    pt, ps = p**t, p**s
    vec = np.asarray(vec, dtype=np.int64) % ps
    d = np.zeros(pt, dtype=np.int64)
    col = np.ones(pt, dtype=np.int64)  # col[k] = C(k, j) mod p^s
    for j in range(pt):
        if j:
            col[1:] = np.cumsum(col[:-1]) % ps
            col[0] = 0
        d[j] = (vec * col % ps).sum() % ps
        if j and d[j] % p:
            return d[: j + 1]
    return d


def _toeplitz_member(col: np.ndarray, target: np.ndarray, p: int, s: int) -> bool:
    """Is target in the column span, mod p^s, of the r x r lower-triangular
    Toeplitz matrix with first column col (r = len(col))?"""
    r = len(col)
    diag = np.subtract.outer(np.arange(r), np.arange(r))
    return howell_membership(np.where(diag >= 0, col[diag.clip(0)], 0), target, Modulus(p, s))[0]


def _sylow_member(d: np.ndarray, p: int, s: int, r: int, pt: int) -> bool:
    """Is the element with v-coordinates d (mod p^s) in I^r, the Sylow-p
    quotient of order pt = p^t?  d needs min(r, pt) entries.

    Decided in (Z/p^s)[v]/(v^r): column k of the r x r lower-triangular
    Toeplitz matrix is rho * v^k mod v^r (zero-padded when r > p^t).
    """
    ps = p**s
    rho = np.zeros(r, dtype=np.int64)
    rho[1 : pt + 1] = [comb(pt, j) % ps for j in range(1, min(r, pt + 1))]
    target = np.zeros(r, dtype=np.int64)
    target[:pt] = d[:r]
    return _toeplitz_member(rho, target, p, s)


def _sylow_ord(d: np.ndarray, p: int, s: int, cap: int) -> int | AtLeast:
    """Largest r < cap = p^t + 1 with d in I^r (d[0] = 0 assumed), else
    AtLeast(cap).

    ord_1 is read off d mod p; at s >= 2 the bisection runs below
    min(ord_1 + 1, cap), since ord_s <= ord_1.  So d may stop at its first
    unit past d[0] (see ``_v_coordinates``).
    """
    pt = cap - 1
    nonzero = np.flatnonzero(d % p)
    ord1 = int(nonzero[0]) if nonzero.size else cap
    if ord1 >= cap and (s == 1 or _sylow_member(d, p, s, cap, pt)):
        return AtLeast(cap)
    if s == 1:
        return ord1
    lo, hi = 1, min(ord1 + 1, cap)  # member(lo) true, member(hi) false
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _sylow_member(d, p, s, mid, pt):
            lo = mid
        else:
            hi = mid
    return lo


def _aug_power_membership_full(z: np.ndarray, p: int, s: int, r: int) -> bool:
    """Full group-ring oracle: the log-ordered z in I_G^r inside (Z/p^s)[(Z/N)^x].

    G is cyclic of order n = N - 1, so with x = [g] the ring is
    (Z/p^s)[x]/(x^n - 1), I_G^r = ((x-1)^r), and z is in I_G^r exactly when
    it is in the ideal ((x-1)^r, x^n - 1) of (Z/p^s)[x].  (x-1)^r is monic,
    so z is reduced mod it in the basis (x-1)^j by r rounds of synthetic
    division by x - 1 (each a suffix sum whose remainder is the value at 1).
    In that basis x^n - 1 = sum_{j>=1} C(n, j) (x-1)^j, and its multiples
    mod (x-1)^r span the columns of an r x r lower-triangular Toeplitz
    matrix.  O(n r + r^3); independent of the Sylow reduction it certifies.
    """
    n, ps = len(z), p**s
    rem = np.zeros(r, dtype=np.int64)  # z in the basis (x-1)^j, mod (x-1)^r
    q = z % ps
    for j in range(min(r, n)):
        q = np.cumsum(q[::-1])[::-1] % ps  # q[k] = sum_{i>=k} q[i]
        rem[j], q = q[0], q[1:]
    col = np.array([0] + [comb(n, j) % ps for j in range(1, r)], dtype=np.int64)
    return _toeplitz_member(col, rem, p, s)


_FULL_ORACLE_LIMIT = 400


@dataclass
class ZetaReport:
    N: int
    p: int
    ord_s: dict[int, int | AtLeast]
    cap: int
    sylow_zero: bool


def ord_zeta(N: int, p: int, s: int) -> int | AtLeast:
    """Largest r < cap = p^t + 1 with zeta in I_G^r, else AtLeast(cap).

    Computes in the Sylow-p quotient ring (the complement factor of the
    group ring lies in I_G^r for every r >= 1, so only the Sylow part
    matters), a reshape of the log-ordered zeta.  With d its v-coordinates
    (``_v_coordinates``), zeta is in I^r exactly when (d mod v^r) is in
    rho * (Z/p^s)[v]/(v^r): at s = 1 that is r <= ord_1, the index of the
    first entry of d not divisible by p; at s >= 2, ord_s <= ord_1 bounds a
    bisection of r x r Toeplitz solves.  When N - 1 <= _FULL_ORACLE_LIMIT the
    full group-ring membership oracle (``_aug_power_membership_full``, which
    reduces zeta mod (x-1)^r in all of (Z/p^s)[x]/(x^(N-1) - 1) without the
    Sylow quotient) certifies the result: zeta must lie in I^ord and not in
    I^(ord+1), or in I^cap for AtLeast(cap).
    """
    t = valuation_p(N - 1, p)
    if t == 0:
        raise ValueError(f"p = {p} does not divide N-1")
    if s > t:
        raise ValueError(f"s = {s} exceeds v_p(N-1) = {t}")
    cap = p**t + 1
    z = zeta_element(N, p, s)
    proj = _sylow_projection(z, p, s, t)
    if not proj.any():
        return AtLeast(cap)
    d = _v_coordinates(proj, p, s, t)
    if d[0]:
        raise AssertionError(f"ord_s(zeta) = 0 at (N,p,s)=({N},{p},{s}); should be >= 1")
    out = _sylow_ord(d, p, s, cap)
    if N - 1 <= _FULL_ORACLE_LIMIT:
        probes = [(cap, True)] if isinstance(out, AtLeast) else [(out, True), (out + 1, False)]
        for r, member in probes:
            if _aug_power_membership_full(z, p, s, r) != member:
                raise AssertionError(
                    f"Sylow and full-ring I^r membership disagree at r={r}, (N,p,s)=({N},{p},{s})"
                )
    return out


def zeta_report(N: int, p: int, s_max: int) -> ZetaReport:
    """ord_s(zeta) for every s <= s_max, and whether zeta's Sylow projection is zero.

    The projection mod p^s reduces to the one mod p, so it vanishes for some
    s exactly when it vanishes at s = 1.  ``ord_zeta`` returns AtLeast(cap)
    at s = 1 exactly then, as the v-coordinates are a unitriangular
    transform of the projection.
    """
    t = valuation_p(N - 1, p)
    ords = {s: ord_zeta(N, p, s) for s in range(1, s_max + 1)}
    return ZetaReport(N=N, p=p, ord_s=ords, cap=p**t + 1, sylow_zero=isinstance(ords[1], AtLeast))


def lecouturier_check(N: int, p: int, s: int) -> bool:
    """Discrete-log identities tying Merel's number to the zeta element.

    Checks sum i^2 log(i) = -(4/3) sum_{i<=(N-1)/2} i log(i), and the two
    auxiliary vanishing identities sum log(i) = 0 and sum i log(i) = 0
    (sums over all of F_N^x).  A failure is a bug, not data.
    """
    if (N - 1) % p != 0 or p <= 3:
        raise ValueError("need p | N-1 and p > 3")
    ps = p**s
    if (N - 1) % ps != 0:
        return False  # sum log(i) = (N-1)(N-2)/2 has valuation v_p(N-1) < s
    i, iq, log = _log_terms(N, ps)
    i_log = iq * log % ps
    if log.sum() % ps != 0 or i_log.sum() % ps != 0:
        return False
    s_half = int(i_log[i <= (N - 1) // 2].sum())
    lhs = int((iq * iq % ps * log % ps).sum()) % ps
    rhs = (-s_half * 4 * pow(3, -1, ps)) % ps
    return lhs == rhs
