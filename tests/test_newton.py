import numpy as np
import pytest

from eisenlab.corering import (
    AtLeast,
    Modulus,
    PadicPoly,
    hensel_lift_coprime,
    hensel_split_distinguished,
    lower_convex_hull,
    newton_polygon,
    t_sequence,
)

rng = np.random.default_rng(2718)


# -- hulls --------------------------------------------------------------------


def test_hull_paper_example():
    np_ = lower_convex_hull([(0, 3), (1, 2), (2, 2), (3, 1), (4, 1), (5, 1), (6, 0)])
    assert np_.vertices == ((0, 3), (1, 2), (3, 1), (6, 0))


def test_hull_infinite_points_omitted():
    np_ = lower_convex_hull([(0, AtLeast(5)), (1, 3), (2, 0)])
    assert np_.vertices == ((1, 3), (2, 0))
    np2 = lower_convex_hull([(0, 4), (1, AtLeast(5)), (2, AtLeast(5)), (3, 0)])
    assert np2.vertices == ((0, 4), (3, 0))


def test_hull_collinear_interior_points_are_not_vertices():
    # hull vertices have strictly increasing slopes; (1,1) sits on the chord
    np_ = lower_convex_hull([(0, 2), (1, 1), (2, 0)])
    assert np_.vertices == ((0, 2), (2, 0))
    np2 = lower_convex_hull([(0, 3), (1, 1), (2, 0)])
    assert np2.vertices == ((0, 3), (1, 1), (2, 0))


def test_hull_points_lie_on_or_above():
    for _ in range(50):
        n = int(rng.integers(2, 8))
        pts = [(i, int(rng.integers(0, 6))) for i in range(n)]
        pts[-1] = (n - 1, int(rng.integers(0, 6)))
        hull = lower_convex_hull(pts).vertices
        # strictly increasing slopes
        slopes = [
            (v2 - v1) / (i2 - i1) for (i1, v1), (i2, v2) in zip(hull, hull[1:])
        ]
        assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))
        # every point on or above every hull segment
        for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
            for (i, v) in pts:
                if i1 <= i <= i2:
                    assert (v - v1) * (i2 - i1) >= (v2 - v1) * (i - i1)


def test_hull_input_validation():
    with pytest.raises(ValueError):
        lower_convex_hull([(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        lower_convex_hull([(0, 1), (1, AtLeast(5))])


# -- t-sequences --------------------------------------------------------------


def test_t_sequence_examples():
    mod = Modulus(5, 3)
    g = PadicPoly([25, 5, 1], mod)
    assert t_sequence(g) == [2, 1, 0]
    g2 = PadicPoly([25, 50, 1], mod)  # v(a1) = 2
    assert t_sequence(g2) == [2, 2, 0]
    gx = PadicPoly([0, 1], mod)
    assert t_sequence(gx) == [AtLeast(3), 0]


def test_t_sequence_requires_distinguished():
    mod = Modulus(5, 3)
    with pytest.raises(ValueError):
        t_sequence(PadicPoly([1, 1], mod))


def _truncated_eval(gcoeffs, phi_x, pr, i):
    """g(phi_x) in (Z/p^r)[eps]/(eps^(i+1)), phi_x given by coefficients."""
    acc = [0] * (i + 1)
    for coef in reversed(gcoeffs):
        new = [0] * (i + 1)
        for ai, a in enumerate(acc):
            if a:
                for bi, b in enumerate(phi_x):
                    if ai + bi <= i and b:
                        new[ai + bi] = (new[ai + bi] + a * b) % pr
        new[0] = (new[0] + coef) % pr
        acc = new
    return acc


def surjection_exists(gcoeffs, p, r, i):
    """Brute-force Lemma oracle: does a surjective ring map
    Z_p[x]/(g) ->> (Z/p^r)[eps]/(eps^(i+1)) send some generator to eps?

    Equivalently: is there phi(x) = c_1 eps + ... + c_i eps^i with c_1 a
    unit and g(phi(x)) = 0?  Enumerated by depth-first extension, pruning
    on the first j eps-coefficients (which depend only on c_1..c_j).
    """
    pr = p**r
    if i == 0:
        return gcoeffs[0] % pr == 0

    def extend(cs):
        j = len(cs)  # c_1..c_j chosen; phi truncated at eps^j
        phi = [0] + list(cs) + [0] * (i - j)
        val = _truncated_eval(gcoeffs, phi, pr, i)
        if any(val[m] % pr for m in range(j + 1)):
            return False
        if j == i:
            return all(v % pr == 0 for v in val)
        for c_next in range(pr):
            if extend(cs + (c_next,)):
                return True
        return False

    for c1 in range(1, pr):
        if c1 % p == 0:
            continue
        if extend((c1,)):
            return True
    return False


def oracle_t_sequence(g: PadicPoly):
    p, M = g.modulus.p, g.modulus.M
    out = []
    for i in range(g.degree + 1):
        best = 0
        for r in range(1, M + 1):
            if surjection_exists(g.coeffs, p, r, i):
                best = r
            else:
                break
        out.append(AtLeast(M) if best >= M else best)
    return out


def random_distinguished(p, M, deg, rng):
    mod = Modulus(p, M)
    coeffs = [int(rng.integers(0, p ** (M - 1))) * p for _ in range(deg)] + [1]
    return PadicPoly(coeffs, mod)


@pytest.mark.parametrize("p,M", [(5, 2), (7, 2), (5, 3)])
def test_t_sequence_against_ring_map_oracle(p, M):
    for _ in range(12):
        deg = int(rng.integers(1, 4))
        g = random_distinguished(p, M, deg, rng)
        assert t_sequence(g) == oracle_t_sequence(g), g


# -- Hensel -------------------------------------------------------------------


def test_split_constructed_product():
    mod = Modulus(5, 4)
    f0 = PadicPoly([-5, 1], mod)
    u0 = PadicPoly([-1, 1], mod)
    Q = f0 * u0
    f, u = hensel_split_distinguished(Q)
    assert f == f0 and u == u0


def test_split_degenerate_cases():
    mod = Modulus(5, 3)
    Q = PadicPoly([0, 0, 1], mod)  # y^2: all slopes positive
    f, u = hensel_split_distinguished(Q)
    assert f == Q and u == PadicPoly.one(mod)
    Q2 = PadicPoly([2, 5, 1], mod)  # unit constant
    f2, u2 = hensel_split_distinguished(Q2)
    assert f2 == PadicPoly.one(mod) and u2 == Q2
    with pytest.raises(ValueError):
        hensel_split_distinguished(PadicPoly([1, 2], mod))


def test_split_random_products():
    for p, M in [(5, 4), (7, 3), (11, 3)]:
        mod = Modulus(p, M)
        for _ in range(20):
            e = int(rng.integers(1, 4))
            du = int(rng.integers(0, 3))
            fc = [int(rng.integers(0, p ** (M - 1))) * p for _ in range(e)] + [1]
            uc = [int(rng.integers(1, p))] + [
                int(rng.integers(0, mod.pM)) for _ in range(du)
            ]
            if du > 0:
                uc[-1] = 1
            else:
                uc = [1]
            f0 = PadicPoly(fc, mod)
            u0 = PadicPoly(uc, mod)
            Q = f0 * u0
            f, u = hensel_split_distinguished(Q)
            assert f * u == Q
            assert f.is_distinguished()
            assert mod.is_unit(u.coeffs[0])
            assert f == f0 and u == u0


def test_hensel_lift_coprime_rejects_common_factor():
    mod = Modulus(5, 3)
    Q = PadicPoly([0, 0, 1], mod)
    with pytest.raises(ValueError):
        hensel_lift_coprime(Q, [0, 1], [0, 1])


def test_newton_polygon_of_polynomial():
    mod = Modulus(5, 6)
    # f = (y - 5)(y - 25) = y^2 - 30y + 125
    f = PadicPoly([-5, 1], mod) * PadicPoly([-25, 1], mod)
    np_ = newton_polygon(f)
    assert np_.vertices == ((0, 3), (1, 1), (2, 0))


def test_fp_factor_rejects_non_monic_even_under_python_O(monkeypatch):
    import importlib.util
    import sys

    from eisenlab.corering import newton

    with pytest.raises(ArithmeticError):
        newton._fp_factor([1, 2], 5)  # 2y + 1 is not monic mod 5
    # a second copy of the module, compiled as `python -O` compiles it (asserts stripped)
    spec = importlib.util.spec_from_file_location("eisenlab.corering._newton_opt", newton.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    with open(newton.__file__) as fh:
        exec(compile(fh.read(), newton.__file__, "exec", optimize=1), module.__dict__)
    with pytest.raises(ArithmeticError):
        module._fp_factor([1, 2], 5)


# -- F_p[x] factoring ---------------------------------------------------------


def _fp_trim(a, p):
    while len(a) > 1 and a[-1] % p == 0:
        a = a[:-1]
    return a


def _fp_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _fp_divmod(num, den, p):
    num = [x % p for x in num]
    den = _fp_trim([x % p for x in den], p)
    dn = len(den) - 1
    inv = pow(den[-1], -1, p)
    q = [0] * max(1, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = (num[i] * inv) % p
        if c:
            q[i - dn] = c
            for j, y in enumerate(den):
                num[i - dn + j] = (num[i - dn + j] - c * y) % p
    return _fp_trim(q, p), _fp_trim(num[:dn] or [0], p)


def _fp_factor_trial(coeffs, p):
    """Trial division by the monic irreducibles of each degree, enumerated
    constant coefficient fastest: exponential in the degree, a test oracle."""
    f = _fp_trim([c % p for c in coeffs], p)
    assert f[-1] == 1
    irreducibles = {}

    def monic_polys(d):
        for mask in range(p**d):
            yield [(mask // p**i) % p for i in range(d)] + [1]

    def irreducible(d):
        if d not in irreducibles:
            irreducibles[d] = [
                cand
                for cand in monic_polys(d)
                if all(
                    _fp_divmod(cand, q, p)[1] != [0]
                    for dd in range(1, d // 2 + 1)
                    for q in irreducible(dd)
                )
            ]
        return irreducibles[d]

    out = []
    d = 1
    while len(f) > 1:
        if d > (len(f) - 1) // 2:
            out.append((tuple(f), 1))  # what is left is irreducible
            break
        for q in irreducible(d):
            mult = 0
            while _fp_divmod(f, q, p)[1] == [0]:
                f = _fp_divmod(f, q, p)[0]
                mult += 1
            if mult:
                out.append((tuple(q), mult))
        d += 1
    return out


def _random_monic(p, d, rng):
    return [int(c) for c in rng.integers(0, p, d)] + [1]


@pytest.mark.parametrize("p", [5, 7])
def test_fp_factor_matches_trial_division(p):
    from eisenlab.corering.newton import _fp_factor

    rng2 = np.random.default_rng(p)
    cases = [[1], [0, 1], [0, 0, 0, 1]]
    # same-degree factors of different multiplicity, in both orders
    cases.append(_fp_mul([p - 1, 1], _fp_mul([p - 2, 1], [p - 2, 1], p), p))
    cases.append(_fp_mul([p - 2, 1], _fp_mul([p - 1, 1], [p - 1, 1], p), p))
    for _ in range(60):
        cases.append(_random_monic(p, int(rng2.integers(1, 7)), rng2))
    for _ in range(60):
        # repeated factors: a random product of powers of small monic factors
        f = [1]
        while len(f) < 6:
            g = _random_monic(p, int(rng2.integers(1, 3)), rng2)
            for _ in range(int(rng2.integers(1, 4))):
                if len(f) + len(g) - 2 <= 6:
                    f = _fp_mul(f, g, p)
        cases.append(f)
    for f in cases:
        assert _fp_factor(f, p) == _fp_factor_trial(f, p), f
