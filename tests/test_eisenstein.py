import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from eisenlab.corering import Modulus, PadicPoly, newton_polygon
from eisenlab.corering.newton import _fp_factor, unit_window_factor
from eisenlab.hecke import (
    ConsistencyError,
    PrecisionExhausted,
    SlopeComponent,
    component_slopes,
    default_precision,
    eisenstein_local_factor,
    generator_check,
    rank_consistency_check,
    smallest_good_prime,
)
from eisenlab.invariants import is_good_prime


def test_trivial_when_p_does_not_divide():
    rep = eisenstein_local_factor(13, 5)
    assert rep.e == 0 and rep.f is None and rep.components == []


def test_rank_one_11_5():
    rep = eisenstein_local_factor(11, 5)
    assert rep.e == 1
    assert rep.t_seq == [1, 0]
    assert rep.np_vertices == ((0, 1), (1, 0))
    ok, diag = rank_consistency_check(11, 5, rep)
    assert ok, diag


def test_rank_two_31_5():
    rep = eisenstein_local_factor(31, 5)
    assert rep.e == 2
    ok, _ = rank_consistency_check(31, 5, rep)
    assert ok


def test_rank_three_181_5():
    rep = eisenstein_local_factor(181, 5)
    assert rep.e == 3
    assert rep.t_seq[0] == 1 and rep.t_seq[-1] == 0
    ok, _ = rank_consistency_check(181, 5, rep)
    assert ok


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
        Y = rep._workspace["Y"]
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


def test_no_good_prime_bound():
    from eisenlab.hecke import NoGoodPrime, smallest_good_prime as sgp

    with pytest.raises(NoGoodPrime):
        sgp(31, 5, bound=2)


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
    from eisenlab.hecke.manin import ManinSpace

    built = []
    hecke_full = ManinSpace.hecke_full
    monkeypatch.setattr(
        ManinSpace, "hecke_full", lambda self, ell: built.append((id(self), ell)) or hecke_full(self, ell)
    )
    rep = eisenstein_local_factor(181, 5)
    assert len(built) == len(set(built))
    assert {2, 3, 5, 7} <= {ell for _, ell in built}
    space = rep._workspace["space"]
    T = space.hecke_on_plus(2)
    assert space.hecke_on_plus(2) is T and len(built) == len(set(built))
    with pytest.raises(ValueError):
        T[0, 0] = 1


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
