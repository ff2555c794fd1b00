"""Eisenstein-local invariants of the cuspidal Hecke algebra at (N, p).

Pipeline: build the plus quotient V+ of weight-2 Manin symbols mod p^M,
take Hecke operators on it, and cut out the Eisenstein-local component W
as the intersection of stabilized generalized kernels of T_q - q - 1 over
small primes q.  A single operator is not enough: a non-Eisenstein eigenform can
be congruent to the Eisenstein series at one T_q by accident (e.g. at
(N, p) = (751, 5) the operator T_2 - 3 has a spurious kernel line), and the
intersection removes exactly those.

Each generalized kernel is ker B^K for B = T_q - q - 1 on a space of rank n
over Z/p^M, and K >= n * M always suffices.  It is taken at K = 32 when the
kernel there certifies itself, its factor having only unit pivots and
nullity below 32 (see ``_summand_kernel``), which on the 733 pairs p in
{5, 7, 11, 13}, N < 10000 it always does where n * M > 32; otherwise at
the first power of two K >= n * M.  Both give the same basis.

W contains the Eisenstein boundary line, on which every T_q - q - 1 acts as
zero, so the characteristic polynomial of (T_ell - ell - 1)|W is y * f(y)
with f the distinguished polynomial presenting the cuspidal quotient:
rank e = deg f, f = y^e mod p, and v_p(f(0)) = v_p(N - 1).

Every kernel is read off one ``FullPivotFactor`` of the power, which also
names the rows on which the kernel is the identity: its free columns.  No
restriction to W eliminates.  W is kept the identity on a set of rows R
(the first kernel is, on its factor's free columns F, and W ker is on
R[F] for the free columns F of ker's factor), so the matrix of T|W is
(T W)[R], checked by one product (``restrict_by_readoff``).  The dense
B = T_ell - ell - 1 is read only for the first kernel and Y = B|W on it;
refinements update Y on W alone.  Each report ends with Mazur's criterion
at ell' in {2, 3, 5, 7}: T_ell' - ell' - 1 generates the local ideal iff
ell' is a good prime.  The four checks run as one batch: one
``hecke_apply`` for all four primes, four read-offs, and one solve of the
four shifts against the power basis I, Y, ..., Y^e.  A report holds data
only: ``generator_check`` recomputes W and Y from (N, p, ell_used, M).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy

from ..corering.linalg import (
    FullPivotFactor,
    berkowitz_charpoly,
    matmul_mod,
    restrict_by_readoff,
)
from ..corering.newton import (
    NewtonPolygon,
    _fp_factor,
    newton_polygon,
    t_sequence,
)
from ..corering.zmod import Modulus, PadicPoly, valuation_p
from ..invariants import check_pair, is_good_prime
from .manin import ManinSpace, build_manin_space


class NoGoodPrime(ArithmeticError):
    """No good prime exists below the search bound."""


class PrecisionExhausted(ArithmeticError):
    """A required valuation read at or above the working precision."""


class MismatchError(ArithmeticError):
    """Generator criterion disagrees with the good-prime condition."""


class ConsistencyError(ArithmeticError):
    """Pipeline invariant failed (localization did not converge)."""


@dataclass(frozen=True)
class SlopeComponent:
    """One local factor of the cuspidal quotient: slope, Z_p-rank, certainty."""

    slope: Fraction
    degree: int
    resolved: bool

    def as_dict(self):
        return {
            "slope": [self.slope.numerator, self.slope.denominator],
            "degree": self.degree,
            "resolved": self.resolved,
        }


@dataclass
class EisensteinReport:
    N: int
    p: int
    ell_used: int | None
    M: int
    t: int
    e: int
    f: PadicPoly | None
    t_seq: list[int]  # t_1 >= ... >= t_e > t_{e+1} = 0
    np_vertices: tuple[tuple[int, int], ...]
    components: list[SlopeComponent]
    diagnostics: dict


def default_precision(t: int) -> int:
    """Working precision: t+3 guard digits, and enough headroom to read the
    residual polynomial of any integral-slope segment (its line's intercept
    plus total drop is at most 2t, so one digit survives at 2t+1)."""
    return max(t + 3, 2 * t + 1)


_GOOD_PRIME_BOUND = 1000


def _ell_objection(ell: int, N: int, p: int) -> str | None:
    """Why ``ell`` cannot be the good prime for (N, p), or None if it can: a
    prime, and when p | N - 1, one other than N that meets Mazur's criterion."""
    if not sympy.isprime(ell):
        return "must be a prime"
    if N % p == 1 and (ell == N or not is_good_prime(ell, N, p)):
        return f"is not a good prime for (N, p) = ({N}, {p})"
    return None


def _generator_check_primes(N: int) -> list[int]:
    """The primes at which a report records Mazur's generator check."""
    return [q for q in (2, 3, 5, 7) if q != N]


def smallest_good_prime(N: int, p: int) -> int:
    ell = 2
    while ell < _GOOD_PRIME_BOUND:
        if _ell_objection(ell, N, p) is None:
            return ell
        ell = sympy.nextprime(ell)
    raise NoGoodPrime(f"no good prime below {_GOOD_PRIME_BOUND} for (N, p) = ({N}, {p})")


_SHORT_EXPONENT = 32


def _summand_kernel(B: np.ndarray, mod: Modulus) -> tuple[np.ndarray, np.ndarray]:
    """Basis W of G = ker B^K, the summand of V = (Z/p^M)^n on which B is
    topologically nilpotent, for K at least n * M, and the rows on which W
    is the identity: the free columns of the power's factor.

    By Fitting's lemma V = G + G', with B nilpotent mod p on G and invertible
    on G'; with d = rank G, (B|G)^(d M) = 0, so ker B^K = G once K >= d * M,
    and n * M always suffices.  B is squared up to K = 32 first, and the
    kernel there is returned when it certifies itself: when every pivot of
    B^32's ``FullPivotFactor`` is a unit, so that ker B^32 is a free summand
    F, of rank r < 32.  Then F = G, since
    - ker B^32 lies in G;
    - B^32 maps a complement of F injectively into V, and that map splits
      because Z/p^M is self-injective; so F mod p is the whole kernel of
      B^32 mod p, which has dimension r;
    - B mod p is nilpotent on G mod p, so that kernel has dimension at least
      min(32, d);
    - so r < 32 forces d < 32 and r >= d; F is a free summand of G, so
      r <= d, and a free summand of G of rank d is G.
    Otherwise (a pivot of positive valuation at 32, or r >= 32) squaring
    goes on from the same power up to the first power of two K >= n * M,
    and the kernel is taken there, where Fitting's lemma makes every pivot
    a unit.  When n * M <= 32 that is the only kernel.  Either way the row
    space of the power is the annihilator of G, so the kernel basis, read
    off its unique unit-pivot RREF, does not depend on which K certified it.
    """
    target = max(1, B.shape[0] * mod.M)
    P, K = B, 1  # matmul_mod and FullPivotFactor reduce entries outside [0, p^M)
    while K < target:
        P, K = matmul_mod(P, P, mod), 2 * K
        if K == _SHORT_EXPONENT and K < target:
            F = FullPivotFactor(P, mod)
            if not any(F.valuations) and F.free.size < K:
                return F.kernel(), F.free
    F = FullPivotFactor(P, mod)
    if any(F.valuations):
        raise ConsistencyError(f"ker B^{K} has a pivot of positive valuation: not a free summand")
    return F.kernel(), F.free


def _eisenstein_shifts(space: ManinSpace, qs, W: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """T_q - q - 1 on the span of W, for each q in ``qs``: a stack of
    |W| x |W| matrices.  W is a T_q-stable free summand of V+, the identity
    on ``rows``; T_q is applied to W, never built, and its matrix is read
    off those rows."""
    mod, k = space.modulus, W.shape[1]
    X = restrict_by_readoff(space.hecke_apply(qs, W), W, rows, mod)
    shifts = X.reshape(k, len(qs), k).transpose(1, 0, 2)
    return (shifts - (np.asarray(qs)[:, None, None] + 1) * np.eye(k, dtype=np.int64)) % mod.pM


def _certify(Y, mod, t):
    """f if Y = (T_ell - ell - 1)|W carries exactly the Eisenstein component.

    The characteristic polynomial of Y must be y * f(y) with f
    distinguished and v_p(f(0)) = v_p(N-1); any surviving spurious
    component strictly inflates that valuation (its eigenvalues have
    positive valuation), so the test is exact.  Returns f or None.
    """
    Q = berkowitz_charpoly(Y, mod)
    if not Q.is_distinguished():
        return None
    if Q.coeffs[0] % mod.pM != 0:
        raise ConsistencyError("boundary eigenvalue line missing from local factor")
    f = PadicPoly(Q.coeffs[1:], mod)  # distinguished, as Q is and Q(0) = 0
    if mod.valuation(f.coeffs[0]) != t:
        return None
    return f


def _local_summand(N: int, p: int, ell: int, M: int):
    """Eisenstein-local summand W of V+ mod p^M with its certified local
    data: (space, W, rows, audit, Y, f), W the identity on ``rows`` and
    Y = (T_ell - ell - 1)|W with charpoly y * f(y).

    Starts from the generalized kernel of B = T_ell - ell - 1 and
    intersects with generalized kernels of T_q - q - 1 for ascending primes
    q until the congruence-number certificate v_p(f(0)) = v_p(N-1) holds.
    A single operator (or even several) can admit spurious kernel lines
    from eigenforms accidentally congruent at those operators alone, so
    stability of the dimension is not sufficient; the certificate is.
    Only the first kernel and Y on it read the dense B.  W ker is the
    identity on rows[ker_rows], and Y' = (Y ker)[ker_rows] is B|W ker
    exactly: as B W = W Y, B W ker = W ker Y' iff Y ker = ker Y'.
    """
    mod = Modulus(p, M)
    t = valuation_p(N - 1, p)
    space = build_manin_space(N, mod)
    B = space.hecke_on_plus(ell).copy()  # T_ell is already reduced: shift its diagonal
    np.fill_diagonal(B, (np.diagonal(B) - ell - 1) % mod.pM)
    W, rows = _summand_kernel(B, mod)
    Y = restrict_by_readoff(matmul_mod(B, W, mod), W, rows, mod)
    audit = [(ell, W.shape[1])]
    f = _certify(Y, mod, t)
    # a separating Hecke operator exists well below the Sturm bound ~ N/6
    q, q_bound = 2, max(60, N // 4)
    while f is None and q < q_bound and W.shape[1] > 1:
        if q != N and q != ell:
            ker, ker_rows = _summand_kernel(_eisenstein_shifts(space, [q], W, rows)[0], mod)
            if ker.shape[1] < W.shape[1]:
                W, rows = matmul_mod(W, ker, mod), rows[ker_rows]
                Y = restrict_by_readoff(matmul_mod(Y, ker, mod), ker, ker_rows, mod)
                f = _certify(Y, mod, t)
            audit.append((q, W.shape[1]))
        q = sympy.nextprime(q)
    if f is None:
        raise ConsistencyError(
            f"Eisenstein localization failed below q = {q_bound} "
            f"at (N, p) = ({N}, {p}): v_p(f(0)) never reached {t}"
        )
    return space, W, rows, audit, Y, f


def eisenstein_local_factor(
    N: int,
    p: int,
    ell: int | None = None,
    precision: int | None = None,
) -> EisensteinReport:
    """Full Eisenstein-local report for (N, p): rank, f, t-sequence, polygon.

    When p does not divide N - 1 the cuspidal Eisenstein completion is zero
    and the trivial report (e = 0) is returned without building symbols.
    """
    check_pair(N, p)
    if ell is not None and (objection := _ell_objection(ell, N, p)):
        raise ValueError(f"ell = {ell} {objection}")
    t = valuation_p(N - 1, p)
    if t == 0:
        return EisensteinReport(
            N=N, p=p, ell_used=None, M=0, t=0, e=0, f=None,
            t_seq=[], np_vertices=(), components=[],
            diagnostics={"trivial": "p does not divide N-1"},
        )
    M = precision if precision is not None else default_precision(t)
    if M <= t:
        raise PrecisionExhausted(f"precision {M} cannot resolve v_p(N-1) = {t}")
    if ell is None:
        ell = smallest_good_prime(N, p)
    space, W, rows, audit, Y, f = _local_summand(N, p, ell, M)
    t_seq, vertices, components = _polygon_data(f)

    return EisensteinReport(
        N=N, p=p, ell_used=ell, M=M, t=t, e=f.degree, f=f,
        t_seq=t_seq, np_vertices=vertices, components=components,
        diagnostics={
            "f0_valuation": t_seq[0],
            "localization": audit,
            "generator_checks": _generator_checks(space, W, rows, Y, _generator_check_primes(N)),
        },
    )


def _polygon_data(f: PadicPoly):
    """The t-sequence t_1, ..., t_{e+1}, the Newton polygon's vertices and the
    slope components of f.  Every t_i is an int: t_1 = AtLeast(M) needs
    f(0) = 0 mod p^M, and then the polygon misses i = 0 and
    ``component_slopes`` raises."""
    polygon = newton_polygon(f)
    return t_sequence(f), polygon.vertices, component_slopes(polygon, f)


# -- slope components --------------------------------------------------------


def component_slopes(np_poly: NewtonPolygon, f: PadicPoly) -> list[SlopeComponent]:
    """Slope decomposition of the local algebra from the Newton polygon of f.

    One component per hull segment of horizontal length L and slope h/L'
    in lowest terms.  L = L' certifies irreducibility.  For an integral
    slope with L > 1, the segment factor is tilted to slope zero and its
    mod-p residual polynomial is factored; coprime factors Hensel-lift to
    genuine components.  Fractional slopes with L > L' stay unresolved.
    """
    mod = f.modulus
    p, M = mod.p, mod.M
    out: list[SlopeComponent] = []
    for (i1, v1, i2, v2) in np_poly.segments():
        L = i2 - i1
        slope = Fraction(v1 - v2, L)
        if L == slope.denominator:
            out.append(SlopeComponent(slope, L, True))
            continue
        if slope.denominator != 1:
            out.append(SlopeComponent(slope, L, False))
            continue
        h = slope.numerator
        c = v1 + h * i1  # intercept of the segment's line at i = 0
        if M - c - 1 < 1:
            raise PrecisionExhausted(
                f"cannot read residual polynomial of slope-{h} segment at precision {M}"
            )
        tilted = []
        for i, ci in enumerate(f.coeffs):
            num = ci * p ** (h * i)
            if num % (p**c) != 0:
                raise ArithmeticError("tilted coefficient not integral; hull broken")
            tilted.append(num // p**c % p)
        # the residual polynomial: the tilted f mod p on the segment, made monic
        window = tilted[i1 : i2 + 1]
        if not (window[0] and window[-1]):
            raise ConsistencyError(f"slope-{h} window does not end in units mod {p}")
        lead_inv = pow(window[-1], -1, p)
        residual = [x * lead_inv % p for x in window]
        # its pairwise-coprime factor powers g0^mult Hensel-lift to
        # components of degree mult * deg(g0)
        for g0, mult in _fp_factor(residual, p):
            out.append(SlopeComponent(slope, mult * (len(g0) - 1), mult == 1))
    if sum(cmp.degree for cmp in out) != f.degree:
        raise ConsistencyError("slope components do not add up to deg f")
    return out


# -- structural checks -------------------------------------------------------


def generator_check(report: EisensteinReport, ellp: int) -> bool:
    """Does T_ellp - ellp - 1 generate the Eisenstein-local ideal?

    Expresses its action on W in the basis I, Y, ..., Y^e of the local
    algebra (Y = (T_ell - ell - 1)|W the chosen generator); it generates
    iff the linear coefficient is a unit.  The answer is asserted to
    coincide with Mazur's good-prime criterion.  W and Y are recomputed
    from the report's (N, p, ell_used, M).
    """
    if ellp == report.N:
        raise ValueError("ellp must not equal N")
    if report.e == 0:
        raise ValueError(f"(N, p) = ({report.N}, {report.p}) has no Eisenstein summand (e = 0)")
    space, W, rows, _, Y, _ = _local_summand(report.N, report.p, report.ell_used, report.M)
    return _generator_checks(space, W, rows, Y, [ellp])[ellp]


def _generator_checks(space: ManinSpace, W, rows, Y, primes: list[int]) -> dict[int, bool]:
    """``generator_check`` at each of ``primes``, as one batch: one
    ``hecke_apply`` for all of them, and one solve of every shift against
    the power basis I, Y, ..., Y^(dimW - 1), factored once."""
    mod, dimW = space.modulus, Y.shape[0]
    shifts = _eisenstein_shifts(space, primes, W, rows)
    pows = [np.eye(dimW, dtype=np.int64)]
    for _ in range(dimW - 1):
        pows.append(matmul_mod(pows[-1], Y, mod))
    # solve sum_i c_i Y^i = T_ellp - ellp - 1, one column per prime
    basis = FullPivotFactor(np.stack([P.reshape(-1) for P in pows], axis=1), mod)
    x = basis.solve(shifts.reshape(len(primes), -1).T)
    if x is None:
        raise ConsistencyError("Hecke action is not polynomial in the generator")
    if (x[0] % mod.pM).any():
        raise ConsistencyError("T_ellp - ellp - 1 has nonzero constant coordinate")
    verdicts = {}
    for i, ellp in enumerate(primes):
        is_gen = mod.is_unit(int(x[1, i])) if dimW > 1 else False
        good = is_good_prime(ellp, space.N, mod.p)
        if is_gen != good:
            raise MismatchError(
                f"generator criterion ({is_gen}) != good prime criterion ({good}) "
                f"for ellp = {ellp} at (N, p) = ({space.N}, {mod.p})"
            )
        verdicts[ellp] = is_gen
    return verdicts
