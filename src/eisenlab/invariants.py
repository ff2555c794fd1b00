"""Elementary invariants of a pair of primes (N, p) with p | N - 1.

Merel's number prod i^i, the group-ring zeta element built from the second
Bernoulli polynomial, its order along the augmentation filtration, Mazur's
good primes, and the discrete-log identities underpinning the equivalences
between them.

Merel's number is taken without discrete logs.  With h = (N-1)/2 and the
suffix products S(j) = j (j+1) ... h mod N, each i <= h is a factor of
exactly i of them (S(1), ..., S(i)), so prod_{i<=h} i^i = prod_{j<=h} S(j).
The S(j) come from a Hillis-Steele scan, ceil(log2 h) shifted int64
multiply-and-reduce passes, and their product from a pairwise tree.  Both
factors of every product are residues below N, so N^2 < 2^63 keeps them
exact, and no inverse is taken, so any odd N >= 3 works.  ``merel_report``
then tests the number two ways: by the exponent test on that value, and by
the log sum sum_{i<=h} i log(i) over the dlog table.  As the value never
touches the table, their agreement checks both.

Every log-side sum of a record comes from one pass over the dlog table
(``_log_sums``): Merel's half log sum and the three discrete-log identities
behind ``lecouturier_check``.  ord_s(zeta) is decided in the Sylow-p
quotient of the group ring alone (``ord_zeta``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
import sympy

from .corering.dlog import build_dlog_table, is_power
from .corering.linalg import howell_membership
from .corering.zmod import AtLeast, Modulus, valuation_p


def check_p(p: int) -> None:
    """Raise ValueError unless p is a prime > 3."""
    if p <= 3 or not sympy.isprime(p):
        raise ValueError(f"p = {p} must be a prime > 3")


def check_pair(N: int, p: int) -> None:
    """Raise ValueError unless N is prime and p is a prime > 3."""
    check_p(p)
    if not sympy.isprime(N):
        raise ValueError(f"N = {N} must be prime")


def merel_number(N: int) -> int:
    """prod_{i=1}^{(N-1)/2} i^i mod N, for odd N >= 3 (composites too).

    The product of the suffix products S(j) = j ... h mod N, h = (N-1)/2
    (module docstring): ceil(log2 h) scan passes, then a pairwise product
    tree, in place in one int64 array of h entries, half a dlog table.
    Overlapping ufunc operands read as if copied first; numpy buffers them
    in small chunks.  Raises ValueError for even N, N < 3, and (before
    allocating) N^2 >= 2^63, where a product of two residues could overflow.
    """
    if N < 3 or N % 2 == 0:
        raise ValueError(f"N = {N} must be odd and >= 3")
    if N * N >= 1 << 63:
        raise ValueError(f"N = {N} too large for exact int64 products of residues")
    h = (N - 1) // 2
    a = np.arange(1, h + 1, dtype=np.int64)
    k = 1
    while k < h:  # a[j] = (j+1) (j+2) ... min(j+k, h) mod N
        head = a[:-k]
        np.multiply(head, a[k:], out=head)
        np.remainder(head, N, out=head)
        k *= 2
    n = h
    while n > 1:  # a[:n] -> its pairwise products, an odd last entry carried
        m = n // 2
        head = a[:m]
        np.multiply(a[0 : 2 * m : 2], a[1 : 2 * m : 2], out=head)
        np.remainder(head, N, out=head)
        if n % 2:
            a[m] = a[n - 1]
        n = m + n % 2
    return int(a[0])


def is_good_prime(ell: int, N: int, p: int) -> bool:
    """Mazur's criterion: ell != 1 mod p and ell is not a p-th power mod N.

    ell = p is allowed and tested as a residue mod N.
    """
    if ell == N:
        raise ValueError("ell = N is excluded")
    if ell % p == 1:
        return False
    return not is_power(ell % N, N, p)


def _log_sums(N: int, q: int) -> tuple[int, bool]:
    """(Merel's half log sum mod q, whether the identities hold mod q), for q | N - 1.

    One pass over ``build_dlog_table(N).powers`` in log order, log(g^k) = k
    mod q.  The half sum is sum_{i<=(N-1)/2} i log(i); the identities are
    sum log(i) = 0, sum i log(i) = 0 and sum i^2 log(i) = -(4/3) half, summed
    over all of F_N^x.  The first reads no table and always holds: the sum
    is sum_{k<N-1} k = (N-1)/2 (N-2), and q is odd and divides N - 1.
    q < N < 2^26 (the dlog limit), so products of two residues and sums of
    N residues stay below 2^52: reduce each term, and int64 sums are exact.
    """
    i = build_dlog_table(N).powers
    iq = i % q
    i_log = iq * (np.arange(N - 1, dtype=np.int64) % q) % q
    half = int(i_log[i <= (N - 1) // 2].sum()) % q
    i2_log = int((iq * i_log % q).sum()) % q
    return half, int(i_log.sum()) % q == 0 and (i2_log + half * 4 * pow(3, -1, q)) % q == 0


@dataclass
class MerelReport:
    N: int
    p: int
    merel_value: int
    log_sum_s: dict[int, int]
    is_power_s: dict[int, bool]
    identities_ok: bool


def merel_report(N: int, p: int, s_max: int) -> MerelReport:
    """Power status of Merel's number for every s <= s_max.

    The exponent test (x^((N-1)/p^s) = 1) and the log-sum test
    (sum i*log(i) = 0 in Z/p^s) are computed independently and must agree:
    x comes from ``merel_number``'s suffix-product scan, which reads no dlog
    table, and only the log sum reads ``build_dlog_table``.  A fault in
    either the scan or the table therefore shows as a disagreement.
    ``identities_ok`` is ``lecouturier_check(N, p, s_max)``, from the same
    pass over the table as the log sum.
    """
    t = valuation_p(N - 1, p)
    if t == 0:
        raise ValueError(f"p = {p} does not divide N-1 = {N - 1}")
    if s_max > t:
        raise ValueError(f"s_max = {s_max} exceeds v_p(N-1) = {t}")
    value = merel_number(N)
    total, identities_ok = _log_sums(N, p**s_max)
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
    return MerelReport(
        N=N, p=p, merel_value=value, log_sum_s=log_sum_s, is_power_s=is_power_s, identities_ok=identities_ok
    )


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
    diag = np.subtract.outer(np.arange(r), np.arange(r))
    return howell_membership(np.where(diag >= 0, rho[diag.clip(0)], 0), target, Modulus(p, s))[0]


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
    bisection of r x r Toeplitz solves.
    """
    return _zeta_ords(N, p, [s])[s]


def _zeta_ords(N: int, p: int, levels) -> dict[int, int | AtLeast]:
    """``ord_zeta(N, p, s)`` for each s in levels, from one zeta element and
    one Sylow projection built mod p^s_top, s_top = max(levels).

    Mod p^s both are the reductions of those mod p^s_top: 1/N and 1/6 mod
    p^s reduce from their values mod p^s_top, and the projection only adds.
    """
    s_top = max(levels)
    t = valuation_p(N - 1, p)
    if t == 0:
        raise ValueError(f"p = {p} does not divide N-1")
    if s_top > t:
        raise ValueError(f"s = {s_top} exceeds v_p(N-1) = {t}")
    cap = p**t + 1
    proj_top = _sylow_projection(zeta_element(N, p, s_top), p, s_top, t)
    ords = {}
    for s in levels:
        proj = proj_top % p**s
        if not proj.any():
            ords[s] = AtLeast(cap)
            continue
        d = _v_coordinates(proj, p, s, t)
        if d[0]:
            raise AssertionError(f"ord_s(zeta) = 0 at (N,p,s)=({N},{p},{s}); should be >= 1")
        ords[s] = _sylow_ord(d, p, s, cap)
    return ords


def zeta_report(N: int, p: int, s_max: int) -> ZetaReport:
    """ord_s(zeta) for every s <= s_max, and whether zeta's Sylow projection is zero.

    zeta and its Sylow projection are built once, mod p^s_max, and reduced
    for each lower s (``_zeta_ords``).  The projection mod p^s reduces to
    the one mod p, so it vanishes for some s exactly when it vanishes at
    s = 1.  ``ord_zeta`` returns AtLeast(cap) at s = 1 exactly then, as the
    v-coordinates are a unitriangular transform of the projection.
    """
    t = valuation_p(N - 1, p)
    ords = _zeta_ords(N, p, range(1, s_max + 1))
    return ZetaReport(N=N, p=p, ord_s=ords, cap=p**t + 1, sylow_zero=isinstance(ords[1], AtLeast))


def lecouturier_check(N: int, p: int, s: int) -> bool:
    """Discrete-log identities tying Merel's number to the zeta element.

    Checks sum i^2 log(i) = -(4/3) sum_{i<=(N-1)/2} i log(i), and the two
    auxiliary vanishing identities sum log(i) = 0 and sum i log(i) = 0
    (sums over all of F_N^x), mod p^s, by ``_log_sums``.  A failure is a
    bug, not data.
    """
    if (N - 1) % p != 0 or p <= 3:
        raise ValueError("need p | N-1 and p > 3")
    ps = p**s
    if (N - 1) % ps != 0:
        return False  # sum log(i) = (N-1)(N-2)/2 has valuation v_p(N-1) < s
    return _log_sums(N, ps)[1]
