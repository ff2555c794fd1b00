import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenlab.corering import (
    FullPivotFactor,
    Modulus,
    berkowitz_charpoly,
    howell_membership,
    howell_solve,
    kernel_of_free_summand,
    kernel_spanning_set,
    matmul_mod,
    restrict_operator,
    unit_echelon,
)

rng = np.random.default_rng(417)


def test_membership_spec_examples():
    mod3 = Modulus(5, 3)
    ok, w = howell_membership(np.array([[5]]), np.array([25]), mod3)
    assert ok and (5 * int(w[0])) % 125 == 25

    mod2 = Modulus(5, 2)
    ok, w = howell_membership(np.array([[5]]), np.array([1]), mod2)
    assert not ok and w is None

    ok, w = howell_membership(np.eye(4), np.array([3, 0, 24, 7]), mod2)
    assert ok and list(w) == [3, 0, 24, 7]


def test_solve_needs_column_exchange():
    # pivoting by column order alone would pick the non-unit pivot and fail
    mod = Modulus(5, 2)
    x = howell_solve(np.array([[5, 1]]), np.array([1]), mod)
    assert x is not None
    assert (5 * x[0] + x[1]) % 25 == 1


def _brute_solvable(A, b, pM):
    n = A.shape[1]
    for xs in itertools.product(range(pM), repeat=n):
        if all(int(A[i] @ np.array(xs)) % pM == b[i] % pM for i in range(A.shape[0])):
            return True
    return False


def test_solve_matches_brute_force_small():
    mod = Modulus(5, 2)
    pM = 25
    for _ in range(60):
        A = rng.integers(0, pM, (2, 2))
        b = rng.integers(0, pM, 2)
        x = howell_solve(A, b, mod)
        if x is not None:
            assert np.all((A @ x) % pM == b % pM)
        else:
            assert not _brute_solvable(A, b, pM)


def test_kernel_spanning_set_property():
    mod = Modulus(5, 2)
    pM = 25
    for _ in range(40):
        A = rng.integers(0, pM, (3, 4))
        K = kernel_spanning_set(A, mod)
        assert np.all((A @ K) % pM == 0)
        # spans: every brute-force kernel vector of a small submodule check
        # is reachable; verify via rank over residues for a few random vecs
        for _ in range(5):
            coeffs = rng.integers(0, pM, K.shape[1])
            v = (K @ coeffs) % pM
            assert np.all((A @ v) % pM == 0)


def test_kernel_spanning_set_exhaustive_tiny():
    mod = Modulus(5, 2)
    pM = 25
    A = np.array([[5, 10], [0, 5]])
    K = kernel_spanning_set(A, mod)
    reachable = set()
    for coeffs in itertools.product(range(pM), repeat=K.shape[1]):
        v = tuple((K @ np.array(coeffs)) % pM)
        reachable.add(v)
    actual = {
        (x, y)
        for x in range(pM)
        for y in range(pM)
        if (5 * x + 10 * y) % pM == 0 and (5 * y) % pM == 0
    }
    assert reachable == actual


def test_unit_echelon_detects_torsion():
    mod = Modulus(5, 2)
    with pytest.raises(ArithmeticError):
        unit_echelon(np.array([[5, 0], [0, 1]]), mod)


def test_kernel_of_free_summand():
    mod = Modulus(5, 3)
    pM = 125
    # projector onto a free summand: kernel is the complement
    P = np.array([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    K = kernel_of_free_summand(P, mod)
    assert K.shape == (3, 1)
    assert np.all((P @ K) % pM == 0)


def test_restrict_operator():
    mod = Modulus(5, 2)
    T = np.array([[2, 0, 0], [0, 3, 0], [0, 1, 3]])
    basis = np.array([[0, 0], [1, 0], [0, 1]])  # T-invariant
    R = restrict_operator(T, basis, mod)
    assert np.array_equal(R, np.array([[3, 0], [1, 3]]))
    bad = np.array([[1], [0], [0]])
    with pytest.raises(ArithmeticError):
        restrict_operator(np.array([[0, 1, 0], [0, 0, 0], [1, 0, 0]]), bad, mod)


# -- Berkowitz ----------------------------------------------------------------


def _charpoly_integer(A):
    """Exact integer char poly of a small matrix via cofactor expansion on
    polynomial entries (independent oracle)."""
    n = A.shape[0]

    def pmul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] += x * y
        return out

    def padd(f, g):
        k = max(len(f), len(g))
        f = f + [0] * (k - len(f))
        g = g + [0] * (k - len(g))
        return [x + y for x, y in zip(f, g)]

    def det(rows, cols):
        if len(rows) == 1:
            i, j = rows[0], cols[0]
            e = [-int(A[i, j])]
            if i == j:
                e = padd(e, [0, 1])
            return e
        acc = [0]
        for k, j in enumerate(cols):
            i = rows[0]
            e = [-int(A[i, j])]
            if i == j:
                e = padd(e, [0, 1])
            minor = det(rows[1:], cols[:k] + cols[k + 1 :])
            term = pmul(e, minor)
            if k % 2 == 1:
                term = [-x for x in term]
            acc = padd(acc, term)
        return acc

    return det(list(range(n)), list(range(n)))


def test_berkowitz_examples():
    mod = Modulus(5, 2)
    cp = berkowitz_charpoly(np.eye(2), mod)
    assert cp.coeffs == [1, 23, 1]  # (y-1)^2 = y^2 - 2y + 1
    cp = berkowitz_charpoly(np.diag([2, 3]), mod)
    assert cp.coeffs == [6, 20, 1]  # y^2 - 5y + 6


@pytest.mark.parametrize("p,M,n", [(5, 3, 4), (7, 2, 5), (5, 2, 3), (11, 2, 5)])
def test_berkowitz_matches_integer_oracle(p, M, n):
    mod = Modulus(p, M)
    for _ in range(8):
        A = rng.integers(0, mod.pM, (n, n))
        got = berkowitz_charpoly(A, mod).coeffs
        want = [c % mod.pM for c in _charpoly_integer(A)]
        assert got == want


# -- exact products -------------------------------------------------------------


def _matmul_reference(A, B, pM):
    """Product in Python ints, reduced mod pM (independent oracle)."""
    cols = list(zip(*B.tolist()))
    return [[sum(a * b for a, b in zip(row, col)) % pM for col in cols] for row in A.tolist()]


@pytest.mark.parametrize("n", [154, 155])
def test_matmul_mod_at_int64_edge(n):
    # 154 * (5^12 - 1)^2 < 2^63 <= 155 * (5^12 - 1)^2: a plain int64 product
    # of these all-(p^M - 1) operands wraps at n = 155
    mod = Modulus(5, 12)
    A = np.full((3, n), mod.pM - 1, dtype=np.int64)
    A[1] = rng.integers(0, mod.pM, n)
    B = np.full((n, 2), mod.pM - 1, dtype=np.int64)
    assert matmul_mod(A, B, mod).tolist() == _matmul_reference(A, B, mod.pM)


_WIDE_MODULI = [(p, M) for p in (5, 7, 11, 13) for M in range(1, 14) if 1 << 24 <= p**M < 1 << 31]


@settings(max_examples=60, deadline=None)
@given(
    pm=st.sampled_from(_WIDE_MODULI),
    over=st.booleans(),
    m=st.integers(1, 3),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_mod_matches_python_ints(pm, over, m, n, seed):
    # inner dimension right at the int64 bound k * (p^M - 1)^2 < 2^63, or one past it
    mod = Modulus(*pm)
    pM = mod.pM
    k = ((1 << 63) - 1) // (pM - 1) ** 2 + over
    gen = np.random.default_rng(seed)
    A = np.where(gen.random((m, k)) < 0.5, pM - 1, gen.integers(0, pM, (m, k)))
    B = np.where(gen.random((k, n)) < 0.5, pM - 1, gen.integers(0, pM, (k, n)))
    assert matmul_mod(A, B, mod).tolist() == _matmul_reference(A, B, pM)


# -- FullPivotFactor: factor once, solve many ----------------------------------


def _planted(gen, m, n, p, M):
    """m x n matrix over Z/p^M with pivots of planted valuations: X diag(p^d) Y
    plus sparse noise divisible by a random power of p."""
    pM = p**M
    k = int(gen.integers(1, min(m, n) + 1))
    X = gen.integers(0, pM, (m, k)).tolist()
    Y = gen.integers(0, pM, (k, n)).tolist()
    e = gen.integers(0, M + 1, k)
    e[gen.random(k) < 0.5] = 0  # keep unit pivots common, so solutions have large entries
    d = [p ** int(v) for v in e]
    A = [[sum(X[i][l] * d[l] * Y[l][j] for l in range(k)) % pM for j in range(n)] for i in range(m)]
    scale = p ** int(gen.integers(0, M))
    for i in range(m):
        for j in range(n):
            if gen.random() < 0.15:
                A[i][j] = (A[i][j] + scale * int(gen.integers(0, pM))) % pM
    return np.array(A, dtype=np.int64)


def _apply(A, x, pM):
    """A @ x mod pM in Python ints."""
    return [sum(a * b for a, b in zip(row, x)) % pM for row in A.tolist()]


# 5^13 and 7^11 sit just below 2^31: a back-substitution dot product of a
# dozen entries overflows int64 there and takes _dot_mod's Python-int path
_FACTOR_MODULI = [(p, M) for p in (5, 7) for M in (1, 2, 3)] + [(5, 13), (7, 11)]


@settings(max_examples=120, deadline=None)
@given(
    pm=st.sampled_from(_FACTOR_MODULI),
    m=st.integers(1, 24),
    n=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_solves_many_like_fresh_solves(pm, m, n, seed):
    mod = Modulus(*pm)
    p, pM = mod.p, mod.pM
    gen = np.random.default_rng(seed)
    A = _planted(gen, m, n, p, mod.M)
    F = FullPivotFactor(A, mod)
    K = F.kernel()
    assert K.shape[0] == n
    for col in K.T.tolist():
        assert _apply(A, col, pM) == [0] * m
    for trial in range(4):
        if trial % 2 == 0:  # in the column span by construction
            b = np.array(_apply(A, gen.integers(0, pM, n).tolist(), pM), dtype=np.int64)
        else:
            b = gen.integers(0, pM, m) * p ** int(gen.integers(0, mod.M))
        x = F.solve(b)
        fresh = howell_solve(A, b, mod)
        assert (x is None) == (fresh is None)
        if trial % 2 == 0:
            assert x is not None
        if x is not None:
            assert np.array_equal(x, fresh)
            assert _apply(A, x.tolist(), pM) == (b % pM).tolist()


def _span(gens, pM, n):
    """Every Z/pM-combination of the columns of gens, as a set of tuples."""
    S = np.zeros((1, n), dtype=np.int64)
    c = np.arange(pM)[None, :, None]
    for g in gens.T:
        S = np.unique(((S[:, None, :] + c * g[None, None, :]) % pM).reshape(-1, n), axis=0)
    return {tuple(v) for v in S.tolist()}


@settings(max_examples=80, deadline=None)
@given(
    pm=st.sampled_from([(5, 1), (7, 1), (5, 2)]),
    m=st.integers(1, 3),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_decision_and_kernel_exhaustive_tiny(pm, m, n, seed):
    mod = Modulus(*pm)
    p, pM = mod.p, mod.pM
    gen = np.random.default_rng(seed)
    A = _planted(gen, m, n, p, mod.M)
    xs = np.array(list(itertools.product(range(pM), repeat=n)), dtype=np.int64)
    images = (xs @ A.T) % pM
    F = FullPivotFactor(A, mod)
    assert _span(F.kernel(), pM, n) == {tuple(x) for x in xs[~images.any(axis=1)].tolist()}
    reachable = {tuple(v) for v in images.tolist()}
    bs = list(itertools.product(range(pM), repeat=m))
    if len(bs) > 400:  # sample, half of them from the image
        picks = gen.integers(0, len(xs), 100)
        bs = [tuple(v) for v in gen.integers(0, pM, (100, m)).tolist() + images[picks].tolist()]
    for b in bs:
        assert (F.solve(np.array(b)) is not None) == (b in reachable)
