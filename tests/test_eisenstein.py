import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

import eisenlab.hecke.eisenstein as eisenstein
from eisenlab.corering import (
    FullPivotFactor,
    Modulus,
    PadicPoly,
    kernel_of_free_summand,
    matmul_mod,
    newton_polygon,
    restrict_by_readoff,
    restrict_operator,
    valuation_p,
)
from eisenlab.corering.newton import _fp_factor, unit_window_factor
from eisenlab.hecke import (
    ConsistencyError,
    PrecisionExhausted,
    SlopeComponent,
    component_slopes,
    default_precision,
    eisenstein_local_factor,
    generator_check,
    heilbronn_matrices,
    smallest_good_prime,
)
from eisenlab.hecke.manin import build_manin_space
from eisenlab.invariants import is_good_prime
from eisenlab.sweep import compute_record, verify_records


@pytest.mark.parametrize("cls", ["NoGoodPrime", "PrecisionExhausted", "MismatchError", "ConsistencyError"])
def test_hecke_failures_are_arithmetic_errors(cls):
    # the CLI and the verifier catch every Hecke failure as an ArithmeticError
    assert issubclass(getattr(eisenstein, cls), ArithmeticError)


def test_trivial_when_p_does_not_divide():
    rep = eisenstein_local_factor(13, 5)
    assert rep.e == 0 and rep.f is None and rep.components == []


def test_rank_one_11_5():
    rep = eisenstein_local_factor(11, 5)
    assert rep.e == 1
    assert rep.t_seq == [1, 0]
    assert rep.np_vertices == ((0, 1), (1, 0))
    assert verify_records([compute_record(11, 5)]).ok


def test_rank_two_31_5():
    rep = eisenstein_local_factor(31, 5)
    assert rep.e == 2
    assert verify_records([compute_record(31, 5)]).ok


def test_rank_three_181_5():
    rep = eisenstein_local_factor(181, 5)
    assert rep.e == 3
    assert rep.t_seq[0] == 1 and rep.t_seq[-1] == 0
    assert verify_records([compute_record(181, 5)]).ok


def test_rank_three_181_5_at_precision_13():
    # p^M = 5^13 is near 2^31: the local charpoly's products take the
    # split path, and the answer must not depend on the precision
    rep = eisenstein_local_factor(181, 5)
    deep = eisenstein_local_factor(181, 5, precision=13)
    assert deep.M == 13
    assert (deep.e, deep.t_seq) == (rep.e, rep.t_seq) == (3, [1, 1, 1, 0])


def test_accidental_congruence_751_5():
    # T_2 - 3 alone has a spurious kernel line at (751, 5); the localized
    # pipeline must still report the true rank 2 with components (1, 1)
    rep = eisenstein_local_factor(751, 5)
    assert rep.e == 2
    assert rep.t_seq == [3, 1, 0]
    assert tuple(sorted(c.degree for c in rep.components)) == (1, 1)
    assert rep.diagnostics["localization"][0][1] > rep.e + 1


def test_ell_independence_181():
    rep1 = eisenstein_local_factor(181, 5)
    ell2 = 3
    while not is_good_prime(ell2, 181, 5) or ell2 == rep1.ell_used:
        ell2 += 2
    rep2 = eisenstein_local_factor(181, 5, ell=ell2)
    assert rep1.e == rep2.e
    assert rep1.t_seq == rep2.t_seq
    assert rep1.np_vertices == rep2.np_vertices
    assert [(c.slope, c.degree, c.resolved) for c in rep1.components] == [
        (c.slope, c.degree, c.resolved) for c in rep2.components
    ]


def test_rejects_bad_ell():
    with pytest.raises(ValueError):
        eisenstein_local_factor(31, 5, ell=11)  # 11 = 1 mod 5


def test_smallest_good_prime():
    ell = smallest_good_prime(181, 5)
    assert is_good_prime(ell, 181, 5)
    assert all(not is_good_prime(q, 181, 5) for q in sympy.primerange(2, ell))


def test_generator_check_good_and_bad():
    rep = eisenstein_local_factor(31, 5)
    assert generator_check(rep, rep.ell_used) is True
    assert generator_check(rep, 11) is False  # 11 = 1 mod 5
    # a 5th power mod 31 that is not 1 mod 5: 2^5 = 32 = 1 mod 31 -> ell = 32? not prime
    fifth_powers = {pow(x, 5, 31) for x in range(1, 31)}
    import sympy

    bad = None
    q = 2
    while bad is None:
        if q % 5 != 1 and q % 31 in fifth_powers and q != 31:
            bad = q
        q = sympy.nextprime(q)
    assert generator_check(rep, bad) is False


# -- component decomposition on synthetic polynomials -------------------------


def _make(coeffs, p, M):
    return PadicPoly(coeffs, Modulus(p, M))


def test_components_pure_slope_segment():
    # f = y^3 + 5: single segment slope 1/3, irreducible
    f = _make([5, 0, 0, 1], 5, 5)
    comps = component_slopes(newton_polygon(f), f)
    assert [(c.slope, c.degree, c.resolved) for c in comps] == [(Fraction(1, 3), 3, True)]


def test_components_two_segments():
    # f = (y - 25)(y - 5) : segments of slope 2 and 1
    f = _make([-25, 1], 5, 6) * _make([-5, 1], 5, 6)
    comps = component_slopes(newton_polygon(f), f)
    assert [(c.slope, c.degree) for c in comps] == [(Fraction(2), 1), (Fraction(1), 1)]
    assert all(c.resolved for c in comps)


def test_components_integral_slope_refinement_split():
    # f = (y - 5)(y - 10): one slope-1 segment of length 2; the residual
    # polynomial (z-1)(z-2) has distinct roots, so it splits into (1, 1)
    f = _make([-5, 1], 5, 7) * _make([-10, 1], 5, 7)
    comps = component_slopes(newton_polygon(f), f)
    assert [(c.slope, c.degree, c.resolved) for c in comps] == [
        (Fraction(1), 1, True),
        (Fraction(1), 1, True),
    ]


def test_components_integral_slope_irreducible_residual():
    # f = y^2 - 5*2: residual z^2 - 2 irreducible mod 5 -> one resolved deg 2
    f = _make([-50, 0, 1], 5, 7)  # roots valuation 1, residual z^2 - 2
    comps = component_slopes(newton_polygon(f), f)
    assert [(c.slope, c.degree, c.resolved) for c in comps] == [(Fraction(1), 2, True)]


def test_components_integral_slope_unresolved_double_root():
    # f = (y - 5)^2: residual (z - 1)^2 is a square -> honest unresolved
    f = _make([-5, 1], 5, 7) * _make([-5, 1], 5, 7)
    comps = component_slopes(newton_polygon(f), f)
    assert [(c.slope, c.degree, c.resolved) for c in comps] == [(Fraction(1), 2, False)]


def test_components_integral_slope_mixed_multiplicities():
    # f = (y - 5)^2 (y - 10): residual (z - 1)^2 (z - 2) -> a resolved
    # degree-1 component and an unresolved degree-2 one
    f = _make([-5, 1], 5, 7) * _make([-5, 1], 5, 7) * _make([-10, 1], 5, 7)
    comps = component_slopes(newton_polygon(f), f)
    assert [(c.slope, c.degree, c.resolved) for c in comps] == [
        (Fraction(1), 1, True),
        (Fraction(1), 2, False),
    ]



def test_components_same_degree_order():
    # f = (y - 5)(y - 10)^2: residual (z - 1)(z - 2)^2; its two linear factors
    # come by coefficients, z - 2 before z - 1, whatever their multiplicity
    f = _make([-5, 1], 5, 7) * _make([-10, 1], 5, 7) * _make([-10, 1], 5, 7)
    comps = component_slopes(newton_polygon(f), f)
    assert [(c.slope, c.degree, c.resolved) for c in comps] == [
        (Fraction(1), 2, False),
        (Fraction(1), 1, True),
    ]

def test_components_fractional_wide_segment_unresolved():
    # slope 1/2 over length 4: no refinement attempted
    f = _make([25, 0, 0, 0, 1], 5, 7)  # y^4 + 25: slope 1/2, L = 4, L' = 2
    comps = component_slopes(newton_polygon(f), f)
    assert [(c.slope, c.degree, c.resolved) for c in comps] == [(Fraction(1, 2), 4, False)]


def test_components_interior_window_extraction():
    # three segments: slopes 2, 1, 1 with the middle one length 2, whose
    # residual is read off an interior window of the tilted f and splits
    mod = Modulus(5, 9)
    f = (
        PadicPoly([-25, 1], mod)
        * PadicPoly([-5, 1], mod)
        * PadicPoly([-10, 1], mod)
    )
    comps = component_slopes(newton_polygon(f), f)
    assert sorted((c.slope, c.degree) for c in comps) == [
        (Fraction(1), 1),
        (Fraction(1), 1),
        (Fraction(2), 1),
    ]
    assert all(c.resolved for c in comps)


def test_default_precision_floor():
    assert default_precision(1) == 4
    assert default_precision(2) == 5
    assert default_precision(3) == 7


def test_t_sequence_invariant_under_generator_rescaling():
    # the t-sequence is an invariant of the local algebra: recomputing it
    # from u(Y) * Y for a random unit polynomial u gives the same sequence
    from eisenlab.corering import AtLeast, berkowitz_charpoly, t_sequence

    rng2 = np.random.default_rng(7)
    for (N, p) in [(181, 5), (751, 5), (31, 5)]:
        rep = eisenstein_local_factor(N, p)
        Y = eisenstein._local_summand(N, p, rep.ell_used, rep.M)[4]
        mod = rep.f.modulus
        d = Y.shape[0]
        base = t_sequence(berkowitz_charpoly(Y, mod))
        for _ in range(4):
            coeffs = [int(rng2.integers(1, p))] + [
                int(rng2.integers(0, mod.pM)) for _ in range(d - 1)
            ]
            U = np.zeros_like(Y)
            P = np.eye(d, dtype=np.int64)
            for c in coeffs:
                U = (U + c * P) % mod.pM
                P = (P @ Y) % mod.pM
            Ynew = (U @ Y) % mod.pM
            got = t_sequence(berkowitz_charpoly(Ynew, mod))
            assert got == base, (N, p, coeffs)
        assert base[0] == AtLeast(mod.M)
        assert [int(v) for v in base[1:]] == rep.t_seq


def test_no_good_prime_bound(monkeypatch):
    from eisenlab.hecke import NoGoodPrime, eisenstein

    monkeypatch.setattr(eisenstein, "_GOOD_PRIME_BOUND", 2)
    with pytest.raises(NoGoodPrime, match="no good prime below 2"):
        smallest_good_prime(31, 5)


def test_precision_exhausted_on_tiny_precision():
    from eisenlab.hecke import PrecisionExhausted

    with pytest.raises(PrecisionExhausted):
        eisenstein_local_factor(31, 5, precision=1)


def test_other_published_rank_rows():
    # rank-3 rows for other p from the published table, including a prime
    # outside the sweep set
    assert eisenstein_local_factor(1321, 11).e == 3
    rep = eisenstein_local_factor(1381, 23).e
    assert rep == 3


def test_each_hecke_operator_built_once_per_space(monkeypatch):
    # only T_ell, which the stabilized power needs, is built in full, once
    # per record, and returned read-only; every other T_q is applied to W
    # without being built
    from eisenlab.hecke.manin import ManinSpace

    built = []
    hecke_full = ManinSpace.hecke_full
    monkeypatch.setattr(ManinSpace, "hecke_full", lambda self, ell: built.append(ell) or hecke_full(self, ell))
    rep = eisenstein_local_factor(181, 5)
    assert built == [rep.ell_used]
    space = eisenstein._local_summand(181, 5, rep.ell_used, rep.M)[0]
    T = space.hecke_on_plus(rep.ell_used)
    with pytest.raises(ValueError):
        T[0, 0] = 1


@pytest.mark.parametrize("p", [5, 13])
def test_hecke_apply_matches_full_operator(p):
    # T_q W applied without T_q equals the full T_q times W, on the W each
    # report keeps, for every N < 2000 of the sweep and every q it may use,
    # one prime at a time and all four in one call; W is the identity on
    # the rows the report keeps, and T_q|W read off them is what the
    # elimination gives
    from eisenlab.sweep import sweep_primes

    checked = 0
    for N in sweep_primes(p, 2000):
        rep = eisenstein_local_factor(N, p)
        space, W, rows = eisenstein._local_summand(N, p, rep.ell_used, rep.M)[:3]
        mod = space.modulus
        assert np.array_equal(W[rows], np.eye(W.shape[1], dtype=np.int64)), N
        wants = []
        for q in (2, 3, 5, 7):
            want = matmul_mod(space.hecke_full(q), W, mod)
            assert np.array_equal(space.hecke_apply(q, W), want), (N, p, q)
            assert np.array_equal(restrict_by_readoff(want, W, rows, mod), restrict_operator(want, W, mod))
            wants.append(want)
            checked += 1
        assert np.array_equal(space.hecke_apply((2, 3, 5, 7), W), np.hstack(wants)), N
    assert checked == 4 * len(sweep_primes(p, 2000))


def test_hecke_apply_catches_a_dropped_heilbronn_matrix(monkeypatch):
    # a T_q missing one Heilbronn image fails the boundary certificate or
    # differs from the full operator, for every matrix that could be lost,
    # whether T_q is applied to W or built in full
    from eisenlab.hecke import manin

    rep = eisenstein_local_factor(181, 5)
    space, W = eisenstein._local_summand(181, 5, rep.ell_used, rep.M)[:2]
    full = {q: heilbronn_matrices(q) for q in (2, 3, 5, 7)}
    inputs = {
        "hecke_apply": lambda q: space.hecke_apply(q, W),
        "hecke_full": space.hecke_full,
    }
    want = {(name, q): compute(q) for name, compute in inputs.items() for q in full}
    for name, compute in inputs.items():
        raised = 0
        for q, mats in full.items():
            for h in range(len(mats)):
                monkeypatch.setattr(manin, "heilbronn_matrices", lambda n: full[n][:h] + full[n][h + 1 :])
                try:
                    got = compute(q)
                except ArithmeticError as exc:
                    assert str(exc) == f"T_{q} is not {q}+1 on the Eisenstein boundary line"
                    raised += 1
                else:
                    assert not np.array_equal(got, want[name, q]), (name, q, mats[h])
        assert raised > 0, name


def _component_slopes_reference(np_poly, f):
    """component_slopes with each integral-slope residual taken from the
    monic factor that unit_window_factor Hensel-lifts out of the tilted f."""
    p, M = f.modulus.p, f.modulus.M
    out = []
    for (i1, v1, i2, v2) in np_poly.segments():
        L = i2 - i1
        slope = Fraction(v1 - v2, L)
        if L == slope.denominator or slope.denominator != 1:
            out.append(SlopeComponent(slope, L, L == slope.denominator))
            continue
        h = slope.numerator
        c = v1 + h * i1
        if M - c - 1 < 1:
            raise PrecisionExhausted(f"slope-{h} residual at precision {M}")
        mod2 = Modulus(p, M - c)
        F = PadicPoly([ci * p ** (h * i) // p**c % mod2.pM for i, ci in enumerate(f.coeffs)], mod2)
        V = F if (i1 == 0 and i2 == f.degree) else unit_window_factor(F, i1, i2)
        if not (V.is_monic() and V.degree == L):
            raise ConsistencyError(f"slope-{h} window factor is not monic of degree {L}")
        for g0, mult in _fp_factor(V.coeffs, p):
            out.append(SlopeComponent(slope, mult * (len(g0) - 1), mult == 1))
    if sum(cmp.degree for cmp in out) != f.degree:
        raise ConsistencyError("slope components do not add up to deg f")
    return out


def _outcome(slopes, f):
    try:
        return slopes(newton_polygon(f), f)
    except (PrecisionExhausted, ConsistencyError) as exc:
        return type(exc)


def test_components_match_hensel_window_reference():
    # random distinguished f: products of y - p^a u, and p^v-scaled random
    # coefficients; every integral-slope segment of length > 1 is compared
    rng = random.Random(20250809)
    windows = 0
    for _ in range(3000):
        p, M = rng.choice((5, 7)), rng.randint(5, 10)
        mod = Modulus(p, M)
        if rng.random() < 0.5:
            f = PadicPoly.one(mod)
            for _ in range(rng.randint(1, 5)):
                f = f * PadicPoly([-(p ** rng.randint(1, 3)) * rng.randrange(1, p * p), 1], mod)
        else:
            e = rng.randint(1, 6)
            coeffs = [p ** rng.randint(1, 3) * rng.randrange(p * p) for _ in range(e)]
            coeffs[0] = p ** rng.randint(1, 3) * rng.randrange(1, p)
            f = PadicPoly(coeffs + [1], mod)
        got = _outcome(component_slopes, f)
        assert got == _outcome(_component_slopes_reference, f), f
        if isinstance(got, list):
            windows += sum(
                i2 - i1 > 1 and (v1 - v2) % (i2 - i1) == 0
                for i1, v1, i2, v2 in newton_polygon(f).segments()
            )
    assert windows >= 500


# -- the Eisenstein summand certified at the short exponent --------------------


def _dense_B(N, ell, mod):
    """The dense T_ell - ell - 1 on V+ mod p^M."""
    T = build_manin_space(N, mod).hecke_on_plus(ell)
    return (T - (ell + 1) * np.eye(T.shape[0], dtype=np.int64)) % mod.pM


def _full_power_kernel(B, mod):
    """ker B^K with K the first power of two >= n * M, the exponent that
    needs no certificate."""
    P, K = B % mod.pM, 1
    while K < max(1, B.shape[0] * mod.M):
        P, K = matmul_mod(P, P, mod), 2 * K
    return kernel_of_free_summand(P, mod)


def _unipotent_inverse(T, mod):
    """T^-1 for T = I + X with X nilpotent: (I - X)(I + X^2)(I + X^4)...,
    as X^n = 0."""
    n = T.shape[0]
    I = np.eye(n, dtype=np.int64)
    Y = (I - T) % mod.pM  # -X
    inv, k = (I + Y) % mod.pM, 2
    while k < n:
        Y = matmul_mod(Y, Y, mod)
        inv, k = matmul_mod(inv, (I + Y) % mod.pM, mod), 2 * k
    return inv


def _planted_fitting(nil, m, mod, seed):
    """B = U diag(nil, V) U^-1 over Z/p^M: U unimodular, V (m x m)
    invertible mod p, so the Eisenstein-like summand is the span of the
    first nil.shape[0] columns of U."""
    gen = np.random.default_rng(seed)
    d, pM = nil.shape[0], mod.pM
    n = d + m
    L = np.tril(gen.integers(0, pM, (n, n)), -1) + np.eye(n, dtype=np.int64)
    R = np.triu(gen.integers(0, pM, (n, n)), 1) + np.eye(n, dtype=np.int64)
    U = matmul_mod(L, R, mod)
    U_inv = matmul_mod(_unipotent_inverse(R, mod), _unipotent_inverse(L, mod), mod)
    assert np.array_equal(matmul_mod(U, U_inv, mod), np.eye(n, dtype=np.int64))
    V = np.triu(gen.integers(0, pM, (m, m)), 1)
    V[np.arange(m), np.arange(m)] = gen.integers(1, mod.p, m) + mod.p * gen.integers(0, pM // mod.p, m)
    D = np.zeros((n, n), dtype=np.int64)
    D[:d, :d], D[d:, d:] = nil % pM, V
    return matmul_mod(matmul_mod(U, D, mod), U_inv, mod), U[:, :d]


def _companion(coeffs):
    """Companion matrix of the monic y^k + coeffs[k-1] y^(k-1) + ... + coeffs[0]."""
    k = len(coeffs)
    C = np.zeros((k, k), dtype=np.int64)
    C[np.arange(1, k), np.arange(k - 1)] = 1
    C[:, -1] = [-c for c in coeffs]
    return C


_FITTING_CASES = {
    # a nilpotent part with a one-dimensional kernel mod p but d = 6, which
    # B^32 kills: the kernel at K = 32 certifies itself
    "certified": (lambda p: _companion([-p] + [0] * 5), 10, 4, 1),
    # y^10 - p: B^32 = p^3 B^2 on that block, whose kernel mod p^4 has
    # p-torsion, so the kernel at K = 32 is no free summand
    "not free at 32": (lambda p: _companion([-p] + [0] * 9), 6, 4, 2),
    # a 40 x 40 Jordan block mod p: ker B^32 is free of rank 32, too large
    # to certify d
    "rank 32 at 32": (lambda p: np.eye(40, k=1, dtype=np.int64), 4, 2, 2),
}


@pytest.mark.parametrize("case", list(_FITTING_CASES))
def test_summand_kernel_on_planted_fitting_structure(case, monkeypatch):
    nil, m, M, factors_expected = _FITTING_CASES[case]
    mod = Modulus(5, M)
    B, G = _planted_fitting(nil(mod.p), m, mod, seed=len(case))
    factors = []

    class CountingFactor(FullPivotFactor):
        def __init__(self, A, mod):
            super().__init__(A, mod)
            factors.append((self.valuations, self.free.size))

    monkeypatch.setattr(eisenstein, "FullPivotFactor", CountingFactor)
    W, rows = eisenstein._summand_kernel(B, mod)
    assert np.array_equal(W, _full_power_kernel(B, mod))
    assert np.array_equal(W[rows], np.eye(W.shape[1], dtype=np.int64))
    assert len(factors) == factors_expected, factors
    if case == "certified":
        assert not any(factors[0][0]) and factors[0][1] < 32
    if case == "not free at 32":  # the certificate rejects the factor at K = 32
        assert any(factors[0][0])
    if case == "rank 32 at 32":
        assert not any(factors[0][0]) and factors[0][1] == 32
    # W spans the planted summand: each is in the span of the other
    d = G.shape[1]
    assert W.shape[1] == d
    for X, Y in ((W, G), (G, W)):
        F = FullPivotFactor(Y, mod)
        assert all(F.solve(col) is not None for col in X.T)


@pytest.mark.parametrize("N, p, M", [(31, 5, 4), (181, 5, 4), (3001, 5, 7), (11, 5, 1)])
def test_summand_kernel_reduces_its_input(N, p, M):
    # B is squared and factored without reducing it first: a B whose
    # diagonal is shifted below 0, as T_ell - ell - 1 is before reduction,
    # gives the same kernel and rows as B mod p^M; n * M = 12, 60, 1750 and
    # 2, on both sides of the K = 32 certificate
    mod = Modulus(p, M)
    B = _dense_B(N, smallest_good_prime(N, p), mod)
    shifted = B.copy()
    i = np.arange(B.shape[0])
    shifted[i, i] -= mod.pM * np.arange(1, B.shape[0] + 1)
    assert (shifted[i, i] < 0).all()
    W, rows = eisenstein._summand_kernel(B, mod)
    W_shifted, rows_shifted = eisenstein._summand_kernel(shifted, mod)
    assert np.array_equal(W_shifted, W) and np.array_equal(rows_shifted, rows)


@pytest.mark.parametrize("p", [5, 7])
def test_summand_kernel_matches_full_power_below_2000(p):
    # the first Eisenstein summand, certified at K = 32 where n * M > 32,
    # is the kernel taken at K >= n * M, entry for entry, and the identity
    # on the rows returned with it
    from eisenlab.sweep import sweep_primes

    short = 0
    for N in sweep_primes(p, 2000):
        mod = Modulus(p, default_precision(valuation_p(N - 1, p)))
        ell = smallest_good_prime(N, p)
        B = _dense_B(N, ell, mod)
        W, rows = eisenstein._summand_kernel(B, mod)
        assert np.array_equal(W, _full_power_kernel(B, mod)), N
        assert np.array_equal(W[rows], np.eye(W.shape[1], dtype=np.int64)), N
        short += B.shape[0] * mod.M > 32
    assert short >= len(sweep_primes(p, 2000)) // 2


def test_generator_checks_share_one_power_basis_factor(monkeypatch):
    # the four checks of a report solve against the same I, Y, ..., Y^e
    built = []

    class CountingFactor(FullPivotFactor):
        def __init__(self, A, mod):
            built.append(A.shape)
            super().__init__(A, mod)

    monkeypatch.setattr(eisenstein, "FullPivotFactor", CountingFactor)
    rep = eisenstein_local_factor(181, 5)
    assert sorted(rep.diagnostics["generator_checks"]) == [2, 3, 5, 7]
    dimW = rep.e + 1
    # the kernels factor square powers; the power basis is dimW^2 x dimW
    power_basis = (dimW * dimW, dimW)
    assert eisenstein._local_summand(181, 5, rep.ell_used, rep.M)[4].shape == (dimW, dimW)
    assert built.count(power_basis) == 1
    # the batch gives each prime the verdict its one-prime check gives, and
    # each one-prime check factors its own power basis once
    assert {q: generator_check(rep, q) for q in (2, 3, 5, 7)} == rep.diagnostics["generator_checks"]
    assert built.count(power_basis) == 1 + 4


def test_carried_Y_is_the_dense_restriction_on_the_final_W():
    # Y is read off the dense B once, on the first kernel, and then carried
    # through each refinement on W alone; on the final W it is what the
    # dense B gives, for every report of a p = 5, 13 sweep below 2000 and
    # for pairs whose first kernel holds spurious lines
    from eisenlab.sweep import sweep_primes

    pairs = [(N, p) for p in (5, 13) for N in sweep_primes(p, 2000)] + [(3001, 5), (3671, 5), (751, 5)]
    refined = set()
    for N, p in pairs:
        rep = eisenstein_local_factor(N, p)
        space, W, rows, audit, Y, f = eisenstein._local_summand(N, p, rep.ell_used, rep.M)
        assert audit == rep.diagnostics["localization"] and f.coeffs == rep.f.coeffs, (N, p)
        mod = space.modulus
        B = _dense_B(N, rep.ell_used, mod)
        assert np.array_equal(Y, restrict_by_readoff(matmul_mod(B, W, mod), W, rows, mod)), (N, p)
        if W.shape[1] < audit[0][1]:
            refined.add((N, p))
    assert {(3001, 5), (3671, 5), (751, 5)} <= refined


def _leaves(obj):
    """``obj`` and every value reachable from it through dicts, lists,
    tuples and object attributes (``__dict__`` or ``__slots__``)."""
    yield obj
    if isinstance(obj, dict):
        inner = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple)):
        inner = obj
    else:
        slots = getattr(type(obj), "__slots__", ())
        inner = [*getattr(obj, "__dict__", {}).values(), *(getattr(obj, a) for a in slots)]
    for item in inner:
        yield from _leaves(item)


def test_report_holds_data_only():
    # a report keeps no matrix and no Manin space: what generator_check
    # needs it recomputes from (N, p, ell_used, M)
    from eisenlab.hecke.manin import ManinSpace

    for N, p in [(13, 5), (31, 5), (181, 5), (751, 5), (3001, 5)]:
        rep = eisenstein_local_factor(N, p)
        leaves = list(_leaves(rep))
        assert any(isinstance(x, PadicPoly) for x in leaves) == (rep.e > 0)
        assert not any(isinstance(x, (np.ndarray, ManinSpace)) for x in leaves), (N, p)


def test_records_path_restricts_without_eliminating(monkeypatch):
    # every restriction to W on the records path is a read-off: no
    # restrict_operator call, and every remaining elimination is a
    # FullPivotFactor layer's (the kernels' too) or a unit_echelon's.  With
    # one elimination per restriction and every layer built, this record
    # would make 30.
    from eisenlab.corering import linalg

    calls = {"eliminations": 0, "echelons": 0, "layers": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def refuse(*args, **kwargs):
        raise AssertionError("restrict_operator called on the records path")

    init = linalg.FullPivotFactor.__init__

    def counted_init(self, A, mod):
        init(self, A, mod)
        calls["layers"] += len(self._layers)

    monkeypatch.setattr(linalg, "_unit_gauss_jordan", counting("eliminations", linalg._unit_gauss_jordan))
    monkeypatch.setattr(linalg, "unit_echelon", counting("echelons", linalg.unit_echelon))
    monkeypatch.setattr(linalg.FullPivotFactor, "__init__", counted_init)
    for module in (linalg, eisenstein):
        monkeypatch.setattr(module, "restrict_operator", refuse, raising=False)
    rec = compute_record(3001, 5)
    assert rec.e == 6 and sorted(rec.diagnostics["generator_checks"]) == ["2", "3", "5", "7"]
    assert calls["eliminations"] == calls["echelons"] + calls["layers"] < 30, calls
