"""Eisenstein-local invariants of the cuspidal Hecke algebra at (N, p).

Pipeline: build the plus quotient V+ of weight-2 Manin symbols mod p^M,
take Hecke operators on it, and cut out the Eisenstein-local component W
as the intersection of stabilized generalized kernels of T_q - q - 1 over
small primes q.  A single operator is not enough: a non-Eisenstein eigenform can
be congruent to the Eisenstein series at one T_q by accident (e.g. at
(N, p) = (751, 5) the operator T_2 - 3 has a spurious kernel line), and the
intersection removes exactly those.

W contains the Eisenstein boundary line, on which every T_q - q - 1 acts as
zero, so the characteristic polynomial of (T_ell - ell - 1)|W is y * f(y)
with f the distinguished polynomial presenting the cuspidal quotient:
rank e = deg f, f = y^e mod p, and v_p(f(0)) = v_p(N - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import sympy

from ..corering.linalg import (
    berkowitz_charpoly,
    howell_solve,
    kernel_of_free_summand,
    matmul_mod,
    restrict_operator,
)
from ..corering.newton import (
    NewtonPolygon,
    _fp_factor,
    newton_polygon,
    t_sequence,
)
from ..corering.zmod import AtLeast, Modulus, PadicPoly, valuation_p
from ..invariants import check_pair, is_good_prime
from .manin import ManinSpace, build_manin_space


class NoGoodPrime(Exception):
    """No good prime exists below the search bound."""


class PrecisionExhausted(Exception):
    """A required valuation read at or above the working precision."""


class MismatchError(Exception):
    """Generator criterion disagrees with the good-prime condition."""


class ConsistencyError(Exception):
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
    _workspace: dict | None = field(default=None, repr=False, compare=False)


def default_precision(t: int) -> int:
    """Working precision: t+3 guard digits, and enough headroom to read the
    residual polynomial of any integral-slope segment (its line's intercept
    plus total drop is at most 2t, so one digit survives at 2t+1)."""
    return max(t + 3, 2 * t + 1)


def smallest_good_prime(N: int, p: int, bound: int = 1000) -> int:
    ell = 2
    while ell < bound:
        if ell != N and is_good_prime(ell, N, p):
            return ell
        ell = sympy.nextprime(ell)
    raise NoGoodPrime(f"no good prime below {bound} for (N, p) = ({N}, {p})")


def _stabilized_power(B: np.ndarray, mod: Modulus) -> np.ndarray:
    """B^K mod p^M with K a power of two at least dim * M.

    On local components where B is topologically nilpotent the result is 0;
    elsewhere it is invertible, so its kernel is a free direct summand.
    """
    n = B.shape[0]
    target = max(1, n * mod.M)
    P = B % mod.pM
    K = 1
    while K < target:
        P = matmul_mod(P, P, mod)
        K *= 2
    return P


def _eisenstein_shift(space: ManinSpace, q: int, W: np.ndarray) -> np.ndarray:
    """T_q - q - 1 on the span of W, a T_q-stable free summand of V+."""
    mod = space.modulus
    TqW = restrict_operator(space.hecke_on_plus(q), W, mod)
    return (TqW - (q + 1) * np.eye(W.shape[1], dtype=np.int64)) % mod.pM


def _certify(B_plus, W, mod, t):
    """Check that W carries exactly the Eisenstein component.

    The characteristic polynomial of (T_ell - ell - 1)|W must be y * f(y)
    with f distinguished and v_p(f(0)) = v_p(N-1); any surviving spurious
    component strictly inflates that valuation (its eigenvalues have
    positive valuation), so the test is exact.
    Returns (Y, f) or None.
    """
    Y = restrict_operator(B_plus, W, mod)
    Q = berkowitz_charpoly(Y, mod)
    if not Q.is_distinguished():
        return None
    if Q.coeffs[0] % mod.pM != 0:
        raise ConsistencyError("boundary eigenvalue line missing from local factor")
    f = PadicPoly(Q.coeffs[1:], mod)  # distinguished, as Q is and Q(0) = 0
    if mod.valuation(f.coeffs[0]) != t:
        return None
    return Y, f


def _localize(
    space: ManinSpace,
    B_plus: np.ndarray,
    ell: int,
    mod: Modulus,
    t: int,
    q_bound: int,
):
    """Eisenstein-local summand of V+ with its certified local data.

    Starts from the generalized kernel of B_plus = T_ell - ell - 1 and
    intersects with generalized kernels of T_q - q - 1 for ascending primes
    q until the congruence-number certificate v_p(f(0)) = v_p(N-1) holds.
    A single operator (or even several) can admit spurious kernel lines
    from eigenforms accidentally congruent at those operators alone, so
    stability of the dimension is not sufficient; the certificate is.
    Refinements act on the small intermediate space, so only the first
    kernel is computed at full size.
    """
    W = kernel_of_free_summand(_stabilized_power(B_plus, mod), mod)
    audit = [(ell, W.shape[1])]
    cert = _certify(B_plus, W, mod, t)
    q = 2
    while cert is None and q < q_bound and W.shape[1] > 1:
        if q != space.N and q != ell:
            BqW = _eisenstein_shift(space, q, W)
            ker = kernel_of_free_summand(_stabilized_power(BqW, mod), mod)
            if ker.shape[1] < W.shape[1]:
                W = matmul_mod(W, ker, mod)
                cert = _certify(B_plus, W, mod, t)
            audit.append((q, W.shape[1]))
        q = sympy.nextprime(q)
    if cert is None:
        raise ConsistencyError(
            f"Eisenstein localization failed below q = {q_bound} "
            f"at (N, p) = ({space.N}, {mod.p}): v_p(f(0)) never reached {t}"
        )
    return W, audit, cert


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
    if ell is not None and not sympy.isprime(ell):
        raise ValueError(f"ell = {ell} must be a prime")
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
    mod = Modulus(p, M)
    space = build_manin_space(N, mod)
    if ell is None:
        ell = smallest_good_prime(N, p)
    elif not is_good_prime(ell, N, p):
        raise ValueError(f"ell = {ell} is not a good prime for (N, p) = ({N}, {p})")

    T_plus = space.hecke_on_plus(ell)
    k = T_plus.shape[0]
    B_plus = (T_plus - (ell + 1) * np.eye(k, dtype=np.int64)) % mod.pM

    # a separating Hecke operator exists well below the Sturm bound ~ N/6
    q_bound = max(60, N // 4)
    W, audit, (Y, f) = _localize(space, B_plus, ell, mod, t, q_bound)
    e = f.degree

    t_seq = []
    for v in t_sequence(f):  # t_1, ..., t_{e+1}
        if isinstance(v, AtLeast):
            raise PrecisionExhausted(f"t-sequence entry beyond precision at ({N}, {p})")
        t_seq.append(int(v))
    np_poly = newton_polygon(f)
    components = component_slopes(np_poly, f)

    diagnostics = {
        "f0_valuation": int(t_seq[0]),
        "localization": audit,
        "generator_checks": {},
    }
    rep = EisensteinReport(
        N=N, p=p, ell_used=ell, M=M, t=t, e=e, f=f,
        t_seq=t_seq, np_vertices=np_poly.vertices, components=components,
        diagnostics=diagnostics,
        _workspace={"space": space, "W": W, "Y": Y},
    )
    for ellp in (2, 3, 5, 7):
        if ellp != N:
            diagnostics["generator_checks"][ellp] = generator_check(rep, ellp)
    return rep


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
    algebra (Y the chosen generator); it generates iff the linear
    coefficient is a unit.  The answer is asserted to coincide with
    Mazur's good-prime criterion.
    """
    if ellp == report.N:
        raise ValueError("ellp must not equal N")
    if report._workspace is None:
        raise ValueError("report carries no workspace; recompute eisenstein_local_factor")
    space: ManinSpace = report._workspace["space"]
    mod = space.modulus
    Y = report._workspace["Y"]
    dimW = Y.shape[0]
    Bq_W = _eisenstein_shift(space, ellp, report._workspace["W"])
    # solve sum_i c_i Y^i = Bq_W
    pows = [np.eye(dimW, dtype=np.int64)]
    for _ in range(dimW - 1):
        pows.append(matmul_mod(pows[-1], Y, mod))
    A = np.stack([P.reshape(-1) for P in pows], axis=1)
    x = howell_solve(A, Bq_W.reshape(-1), mod)
    if x is None:
        raise ConsistencyError("Hecke action is not polynomial in the generator")
    if x[0] % mod.pM != 0:
        raise ConsistencyError("T_ellp - ellp - 1 has nonzero constant coordinate")
    is_gen = mod.is_unit(int(x[1])) if dimW > 1 else False
    good = is_good_prime(ellp, report.N, report.p)
    if is_gen != good:
        raise MismatchError(
            f"generator criterion ({is_gen}) != good prime criterion ({good}) "
            f"for ellp = {ellp} at (N, p) = ({report.N}, {report.p})"
        )
    return is_gen


def rank_consistency_check(N: int, p: int, report: EisensteinReport) -> tuple[bool, dict]:
    """Congruence-number and t-sequence sanity for a computed report."""
    diag = {}
    ok = True
    if report.e == 0:
        return valuation_p(N - 1, p) == 0, {"trivial": True}
    t = valuation_p(N - 1, p)
    f0v = report.f.modulus.valuation(report.f.coeffs[0])
    diag["f0_valuation"] = f0v
    if f0v != t:
        ok = False
    if report.t_seq[0] != t:
        diag["t1"] = report.t_seq[0]
        ok = False
    if report.t_seq[-1] != 0:
        diag["t_last"] = report.t_seq[-1]
        ok = False
    if report.e != len(report.t_seq) - 1:
        diag["e_vs_tseq"] = (report.e, len(report.t_seq))
        ok = False
    # e equals the rank of the localized component (kernel intersection);
    # the single-operator generalized kernel, the audit's first, may be larger.
    single = report.diagnostics["localization"][0][1]
    if single < report.e + 1:
        diag["single_ell_kernel"] = single
        ok = False
    return ok, diag
