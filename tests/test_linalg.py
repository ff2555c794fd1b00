import itertools
import math

import numpy as np
import pytest
import sympy
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
    restrict_by_readoff,
    restrict_operator,
    unit_echelon,
    valuation_p,
)
from eisenlab.corering.linalg import _CHUNK, _PANEL, _apply_panel, _delay_room, _narrow, _replay, _unit_gauss_jordan

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
    R = restrict_operator(matmul_mod(T, basis, mod), basis, mod)
    assert np.array_equal(R, np.array([[3, 0], [1, 3]]))
    bad = np.array([[1], [0], [0]])
    with pytest.raises(ArithmeticError):
        restrict_operator(matmul_mod(np.array([[0, 1, 0], [0, 0, 0], [1, 0, 0]]), bad, mod), bad, mod)


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
    assert berkowitz_charpoly(np.zeros((0, 0), dtype=np.int64), mod).coeffs == [1]
    for shape in [(2, 3), (0, 3)]:
        with pytest.raises(ValueError, match="square"):
            berkowitz_charpoly(np.zeros(shape, dtype=np.int64), mod)


# 5^13 and 7^11 sit just below 2^31, where (n + 2) * p^2M passes 2^62 at n = 2
@pytest.mark.parametrize("p,M,n", [(5, 3, 4), (7, 2, 5), (5, 2, 3), (11, 2, 5), (5, 13, 6), (7, 11, 6)])
def test_berkowitz_matches_integer_oracle(p, M, n):
    mod = Modulus(p, M)
    for _ in range(8):
        A = rng.integers(0, mod.pM, (n, n))
        got = berkowitz_charpoly(A, mod).coeffs
        want = [c % mod.pM for c in _charpoly_integer(A)]
        assert got == want


@pytest.mark.parametrize("p,M", [(5, 13), (7, 11)])
def test_berkowitz_near_2_31_matches_sympy(p, M):
    # at n = 16 the border products and the convolution sum enough terms of
    # size about p^2M to wrap int64; sympy's charpoly is exact over Z
    mod = Modulus(p, M)
    for _ in range(3):
        A = rng.integers(0, mod.pM, (16, 16))
        want = [int(c) % mod.pM for c in reversed(sympy.Matrix(A.tolist()).charpoly().all_coeffs())]
        assert berkowitz_charpoly(A, mod).coeffs == want


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


@pytest.mark.parametrize("k", [94, 95])
def test_matmul_mod_at_float64_edge(k):
    # 94 * (5^10 - 1)^2 < 2^53 <= 95 * (5^10 - 1)^2.  Row and column 1 hold the
    # odd residue p^M - 2: at k = 95 their dot product is an odd integer above
    # 2^53, which float64 cannot hold, so a float64 product there is wrong
    mod = Modulus(5, 10)
    pM = mod.pM
    assert 94 * (pM - 1) ** 2 < 1 << 53 <= 95 * (pM - 1) ** 2
    A = np.full((3, k), pM - 1, dtype=np.int64)
    A[1] = pM - 2
    A[2] = rng.integers(0, pM, k)
    B = np.full((k, 2), pM - 1, dtype=np.int64)
    B[:, 1] = pM - 2
    assert matmul_mod(A, B, mod).tolist() == _matmul_reference(A, B, pM)


# past the float64 bound the product splits each entry into 16-bit limbs:
# 2^31 - 1 and 46337^2 are the largest prime and prime square below 2^31,
# where every product splits; at 11^7 it splits from k = 24 on
_SPLIT_MODULI = [(2147483647, 1), (46337, 2), (5, 13), (11, 7)]


@pytest.mark.parametrize("k", [1, 2, 223])
@pytest.mark.parametrize("pm", _SPLIT_MODULI, ids=lambda pm: f"{pm[0]}^{pm[1]}")
def test_matmul_mod_split_path(pm, k):
    # row 0 of A holds p^M - 1, row 1 (when k > 1) p^M - 2, and so do columns
    # 0 and 1 of B; A @ A takes the squaring shortcut (B is A), checked on its
    # first rows
    mod = Modulus(*pm)
    pM = mod.pM
    gen = np.random.default_rng(k)
    A = gen.integers(0, pM, (k, k))
    A[0], A[1:2] = pM - 1, pM - 2
    B = gen.integers(0, pM, (k, 3))
    B[:, 0], B[:, 1] = pM - 1, pM - 2
    assert matmul_mod(A, B, mod).tolist() == _matmul_reference(A, B, pM)
    assert matmul_mod(A, A, mod)[:3].tolist() == _matmul_reference(A[:3], A, pM)


def test_matmul_mod_raises_past_its_bounds():
    # no exact product past p^M < 2^31, nor past k * (2^16 - 1)^2 < 2^53 for
    # the limb products
    with pytest.raises(ValueError, match="too large"):
        matmul_mod(np.eye(2, dtype=np.int64), np.eye(2, dtype=np.int64), Modulus(5, 14))
    mod = Modulus(46337, 2)
    k = ((1 << 53) - 1) // ((1 << 16) - 1) ** 2
    assert k == 2097216
    zeros = np.zeros(k, dtype=np.int64)
    assert matmul_mod(zeros[None, :], zeros[:, None], mod).tolist() == [[0]]
    zeros = np.zeros(k + 1, dtype=np.int64)
    with pytest.raises(ValueError, match="too large"):
        matmul_mod(zeros[None, :], zeros[:, None], mod)


@pytest.mark.parametrize(
    "pm,width", [((5, 3), np.int8), ((7, 5), np.int16), ((5, 13), np.int32), ((2147483647, 1), np.int32)]
)
def test_matmul_mod_reduces_operands_out_of_range(pm, width):
    # operands are reduced only when one holds an entry outside [0, p^M):
    # negatives, entries >= p^M, and _narrow()ed panels, whose negatives read
    # as >= 2^(bits-1) when viewed unsigned
    mod = Modulus(*pm)
    pM = mod.pM
    gen = np.random.default_rng(pM % 1009)
    A = gen.integers(-3 * pM, 3 * pM, (4, 40))
    B = gen.integers(0, pM, (40, 3))
    B[0, 0], B[1, 1], B[2, 2] = pM, -1, -pM
    A0, B0 = A.copy(), B.copy()
    assert matmul_mod(A, B, mod).tolist() == _matmul_reference(A, B, pM)
    assert np.array_equal(A, A0) and np.array_equal(B, B0)  # operands are left as they are
    P = _narrow(gen.integers(0, pM, (4, 40)), pM)
    assert P.dtype == width
    R = B % pM
    assert matmul_mod(P, R, mod).tolist() == _matmul_reference(P.astype(np.int64), R, pM)
    assert matmul_mod(-P, R, mod).tolist() == _matmul_reference(-P.astype(np.int64), R, pM)
    assert matmul_mod(R.T, R, mod).tolist() == _matmul_reference(R.T, R, pM)
    # a width too narrow for the unsigned view: int8 -1 is 255 unsigned, below p^M
    small = np.array([[-1, 2, 127]], dtype=np.int8)
    assert matmul_mod(small, np.ones((3, 1), dtype=np.int64), mod).tolist() == [[128 % pM]]


def test_matmul_mod_reduces_negative_operand_at_float64_edge():
    # 94 * (5^10 - 1)^2 < 2^53: exact for residues, but not for entries near
    # -2 p^M, which no entry >= p^M gives away; only reducing them keeps it exact
    mod = Modulus(5, 10)
    pM = mod.pM
    A = np.full((2, 94), 1 - 2 * pM, dtype=np.int64)
    A[1] = 3 - 2 * pM
    B = np.full((94, 2), pM - 2, dtype=np.int64)
    assert A.max() < pM
    assert matmul_mod(A, B, mod).tolist() == _matmul_reference(A, B, pM)
    assert matmul_mod(A, A.T, mod).tolist() == _matmul_reference(A, A.T, pM)


# moduli where the float64 bound k * (p^M - 1)^2 < 2^53 leaves 2 <= k <= 386
_FLOAT_EDGE_MODULI = [(5, 10), (5, 11), (7, 8), (7, 9), (11, 7), (13, 6), (13, 7)]


@settings(max_examples=60, deadline=None)
@given(
    pm=st.sampled_from(_FLOAT_EDGE_MODULI),
    over=st.booleans(),
    m=st.integers(1, 3),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_mod_matches_python_ints_at_float64_bound(pm, over, m, n, seed):
    # inner dimension right at the float64 bound, or one past it; entries near
    # p^M - 1 of either parity push the sums past 2^53 on the far side
    mod = Modulus(*pm)
    pM = mod.pM
    k = ((1 << 53) - 1) // (pM - 1) ** 2 + over
    gen = np.random.default_rng(seed)
    A = np.where(gen.random((m, k)) < 0.8, pM - 1 - gen.integers(0, 3, (m, k)), gen.integers(0, pM, (m, k)))
    B = np.where(gen.random((k, n)) < 0.8, pM - 1 - gen.integers(0, 3, (k, n)), gen.integers(0, pM, (k, n)))
    assert matmul_mod(A, B, mod).tolist() == _matmul_reference(A, B, pM)


# -- unit-pivot elimination: blocked against the unblocked loops ----------------


def _mulmod(A, B, pM):
    """A @ B mod pM in Python ints, any inner dimension including 0."""
    return ((np.asarray(A).astype(object) @ np.asarray(B).astype(object)) % pM).astype(np.int64)


def _gauss_jordan_unblocked(A, mod, swaps=None):
    """One rank-1 Gauss-Jordan update per unit pivot (independent oracle);
    returns the reduced matrix and the pivot columns.  Each row swap is
    appended to ``swaps``, when given, as (pivot column, row, row)."""
    pM, p = mod.pM, mod.p
    A = np.asarray(A, dtype=np.int64) % pM
    m, n = A.shape
    pivcols = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        nz = np.nonzero(A[r:, c] % p)[0]
        if len(nz) == 0:
            continue
        sel = r + int(nz[0])
        if sel != r:
            A[[r, sel]] = A[[sel, r]]
            if swaps is not None:
                swaps.append((c, r, sel))
        A[r] = (A[r] * pow(int(A[r, c]), -1, pM)) % pM
        colvals = A[:, c].copy()
        colvals[r] = 0
        A -= np.outer(colvals, A[r])
        A %= pM
        pivcols.append(c)
        r += 1
    return A, pivcols


def _unit_echelon_unblocked(A, mod):
    A, pivcols = _gauss_jordan_unblocked(A, mod)
    r = len(pivcols)
    if np.any(A[r:] % mod.pM != 0):
        raise ArithmeticError("non-unit pivot needed: row space has p-torsion")
    return A[:r], pivcols, [c for c in range(A.shape[1]) if c not in pivcols]


def _kernel_of_free_summand_unblocked(P, mod):
    R, pivcols, freecols = _unit_echelon_unblocked(P, mod)
    basis = np.zeros((P.shape[1], len(freecols)), dtype=np.int64)
    for k, c in enumerate(freecols):
        basis[c, k] = 1
        for row, pc in enumerate(pivcols):
            basis[pc, k] = (-R[row, c]) % mod.pM
    return basis


def _restrict_operator_unblocked(image, basis, mod):
    pM, p = mod.pM, mod.p
    basis = np.asarray(basis, dtype=np.int64) % pM
    k = basis.shape[1]
    A = np.hstack([basis, np.asarray(image, dtype=np.int64) % pM])
    r = 0
    for j in range(k):
        nz = np.nonzero(A[r:, j] % p)[0]
        if len(nz) == 0:
            raise ArithmeticError("basis does not have unit pivots")
        sel = r + int(nz[0])
        if sel != r:
            A[[r, sel]] = A[[sel, r]]
        A[r] = (A[r] * pow(int(A[r, j]), -1, pM)) % pM
        colvals = A[:, j].copy()
        colvals[r] = 0
        A -= np.outer(colvals, A[r])
        A %= pM
        r += 1
    if np.any(A[r:, k:] % pM != 0):
        raise ArithmeticError("operator does not preserve the subspace")
    return A[:k, k:] % pM


def _outcome(fn, *args):
    """A function's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return ("raised", type(exc), str(exc))


def _same(x, y):
    if isinstance(x, np.ndarray) and isinstance(y, np.ndarray):
        return x.shape == y.shape and np.array_equal(x, y)
    if isinstance(x, tuple) and isinstance(y, tuple) and len(x) == len(y):
        return all(_same(a, b) for a, b in zip(x, y))
    return x == y


# small moduli take matmul_mod's direct path, 5^10 its split path on the
# products wider than 94 (restrict_operator's at m = 257 and 300), and 5^13
# its split path
_ECHELON_MODULI = [(5, 1), (5, 2), (7, 3), (5, 10), (5, 13)]


def _unit_rank(gen, m, k, pM):
    """Random m x k matrix (k <= m) of full rank mod p: a unit lower
    triangular k x k block sits in k random rows."""
    G = gen.integers(0, pM, (m, k))
    block = np.tril(gen.integers(0, pM, (k, k)), -1) + np.eye(k, dtype=np.int64)
    G[np.sort(gen.choice(m, size=k, replace=False))] = block
    return G


def _free_rows(gen, m, n, p, pM, torsion):
    """Matrix with m rows whose row module is a free summand with unit pivots
    at a random, often sparse, set of columns; with ``torsion`` one more row
    p * v, v supported off the pivot columns, adds p-torsion when pM > p."""
    k = int(gen.integers(0, min(m, n - torsion) + 1))
    pivs = np.sort(gen.choice(n, size=k, replace=False))
    R0 = gen.integers(0, pM, (k, n))
    for i, c in enumerate(pivs):
        R0[i, :c] = 0
        R0[:, c] = 0
        R0[i, c] = 1
    A = _mulmod(_unit_rank(gen, m, k, pM), R0, pM)
    if torsion:
        v = gen.integers(0, pM, n)
        v[pivs] = 0
        v[np.setdiff1d(np.arange(n), pivs)[0]] = 1
        A = np.vstack([A, p * v % pM])
    return A


@settings(max_examples=80, deadline=None)
@given(
    pm=st.sampled_from(_ECHELON_MODULI),
    m=st.integers(1, 72),
    n=st.sampled_from([1, 5, 31, 32, 33, 63, 64, 65, 72]),
    torsion=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_unit_echelon_matches_unblocked(pm, m, n, torsion, seed):
    # widths below, at and above the 32-column panel; sparse pivot sets put
    # pivot rows and pivot columns on different sides of a panel boundary
    mod = Modulus(*pm)
    gen = np.random.default_rng(seed)
    A = _free_rows(gen, m, n, mod.p, mod.pM, torsion)
    want = _outcome(_unit_echelon_unblocked, A, mod)
    assert _same(_outcome(unit_echelon, A, mod), want)
    assert _same(_outcome(kernel_of_free_summand, A, mod), _outcome(_kernel_of_free_summand_unblocked, A, mod))
    assert isinstance(want[0], np.ndarray) == (not torsion or mod.M == 1)


@settings(max_examples=60, deadline=None)
@given(
    pm=st.sampled_from(_ECHELON_MODULI),
    k=st.sampled_from([1, 2, 31, 32, 33, 40]),
    extra=st.integers(0, 8),
    kind=st.sampled_from(["preserved", "not preserved", "torsion basis"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_restrict_operator_matches_unblocked(pm, k, extra, kind, seed):
    mod = Modulus(*pm)
    p, pM = mod.p, mod.pM
    n = k + extra
    gen = np.random.default_rng(seed)
    basis = _unit_rank(gen, n, k, pM)
    if kind == "torsion basis":
        basis[:, int(gen.integers(0, k))] *= p
    if kind == "preserved":  # T maps everything into the span of basis
        T = _mulmod(basis, gen.integers(0, pM, (k, n)), pM)
    else:
        T = gen.integers(0, pM, (n, n))
    got = _outcome(restrict_operator, matmul_mod(T, basis, mod), basis, mod)
    assert _same(got, _outcome(_restrict_operator_unblocked, _mulmod(T, basis, pM), basis, mod))
    if kind == "torsion basis":
        assert got == ("raised", ArithmeticError, "basis does not have unit pivots")
    if kind == "preserved":
        assert np.array_equal(_mulmod(basis, got, pM), _mulmod(T, basis, pM))


def _identity_on(gen, n, k, pM):
    """Random n x k basis that is the identity on k rows drawn anywhere, in
    random order: (basis, rows) with basis[rows] = I."""
    rows = gen.permutation(n)[:k]
    basis = gen.integers(0, pM, (n, k))
    basis[rows] = np.eye(k, dtype=np.int64)
    return basis, rows


@settings(max_examples=80, deadline=None)
@given(
    pm=st.sampled_from([(2**31 - 1, 1), (5, 10), (5, 13)]),
    k=st.sampled_from([1, 2, 5, 10, 33]),
    extra=st.integers(0, 40),
    kind=st.sampled_from(["preserved", "not preserved", "one entry off the span"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_readoff_matches_restrict_operator(pm, k, extra, kind, seed):
    # coordinates read off the identity rows against both eliminations: the
    # same matrix for an image in the span, the same error for one outside
    # it, even one that leaves the span by p^(M-1) in a single entry
    mod = Modulus(*pm)
    p, pM = mod.p, mod.pM
    n = k + extra
    gen = np.random.default_rng(seed)
    basis, rows = _identity_on(gen, n, k, pM)
    X = gen.integers(0, pM, (k, k))
    image = gen.integers(0, pM, (n, k)) if kind == "not preserved" else _mulmod(basis, X, pM)
    off_span = extra > 0 and kind == "one entry off the span"
    if off_span:
        r = np.setdiff1d(np.arange(n), rows)[int(gen.integers(0, extra))]
        image[r, int(gen.integers(0, k))] += p ** (mod.M - 1)
    got = _outcome(restrict_by_readoff, image, basis, rows, mod)
    assert _same(got, _outcome(restrict_operator, image, basis, mod))
    assert _same(got, _outcome(_restrict_operator_unblocked, image, basis, mod))
    if kind == "preserved" or (kind == "one entry off the span" and not off_span):
        assert np.array_equal(got, X)
    if off_span:
        assert got == ("raised", ArithmeticError, "operator does not preserve the subspace")
    # the read-off needs basis[rows] = I, and refuses a basis off it by
    # p^(M-1) in one entry
    bad = basis.copy()
    bad[rows[int(gen.integers(0, k))], int(gen.integers(0, k))] += p ** (mod.M - 1)
    with pytest.raises(ValueError, match="not the identity"):
        restrict_by_readoff(_mulmod(bad, X, pM), bad, rows, mod)


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


# 5^13 and 7^11 sit just below 2^31: a back-substitution product of a few
# terms (7 at 5^13, 3 at 7^11) would overflow int64 there; every product
# there takes matmul_mod's split path
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
    bs, xs = [], []
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
        bs.append(b)
        xs.append(x)
    # a matrix of right-hand sides solves column by column, or gives None
    # when one column is outside the span
    for cols in ([0, 2], [0, 1, 2, 3]):
        X = F.solve(np.stack([bs[i] for i in cols], axis=1))
        if any(xs[i] is None for i in cols):
            assert X is None
        else:
            assert np.array_equal(X, np.stack([xs[i] for i in cols], axis=1))


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


# -- FullPivotFactor against the one-pivot-at-a-time elimination ---------------


def _full_pivot_reference(A, mod):
    """Minimum-valuation full-pivot elimination in Python ints, one rank-1
    update per pivot (independent oracle).

    The pivot is the first entry of minimal valuation in row-major order of
    the trailing block, scaled to exactly p^v.  Returns (valuations, solve,
    kernel): the pivot valuations in order, a function b -> witness or None,
    and a kernel spanning set as columns.
    """
    p, M, pM = mod.p, mod.M, mod.pM
    LU = [[int(x) % pM for x in row] for row in np.asarray(A).tolist()]
    m, n = len(LU), len(LU[0])
    rows, cols = list(range(m)), list(range(n))
    vals, invs = [], []
    for r in range(min(m, n)):
        live = [(valuation_p(LU[i][j], p), i, j) for i in range(r, m) for j in range(r, n) if LU[i][j]]
        if not live:
            break
        v, pi, pj = min(live)
        LU[r], LU[pi] = LU[pi], LU[r]
        rows[r], rows[pi] = rows[pi], rows[r]
        for row in LU:
            row[r], row[pj] = row[pj], row[r]
        cols[r], cols[pj] = cols[pj], cols[r]
        inv = pow(LU[r][r] // p**v, -1, pM)
        LU[r] = LU[r][:r] + [x * inv % pM for x in LU[r][r:]]
        for i in range(r + 1, m):
            q = LU[i][r] // p**v
            LU[i][r] = q
            for j in range(r + 1, n):
                LU[i][j] = (LU[i][j] - q * LU[r][j]) % pM
        vals.append(v)
        invs.append(inv)
    rank = len(vals)

    def complete(x, top, rhs):
        for k in range(top, -1, -1):
            resid = (rhs[k] - sum(LU[k][j] * x[j] for j in range(k + 1, n))) % pM
            if resid % p ** vals[k]:
                return None
            x[k] = resid // p ** vals[k]
        return x

    def unpermute(x):
        out = [0] * n
        for k, c in enumerate(cols):
            out[c] = x[k]
        return out

    def solve(b):
        y = [int(b[i]) % pM for i in rows]
        for k in range(rank):
            y[k] = y[k] * invs[k] % pM
            for i in range(k + 1, m):
                y[i] = (y[i] - LU[i][k] * y[k]) % pM
        if any(y[rank:]):
            return None
        x = complete([0] * n, rank - 1, y)
        return None if x is None else unpermute(x)

    gens = []
    seeds = [(j, 1, rank - 1) for j in range(rank, n)]
    seeds += [(k, p ** (M - v), k - 1) for k, v in enumerate(vals) if v]
    for j, entry, top in seeds:
        x = [0] * n
        x[j] = entry
        gens.append(unpermute(complete(x, top, [0] * n)))
    kernel = np.array(gens, dtype=np.int64).reshape(-1, n).T
    return vals, solve, kernel


def _matches_reference(A, mod, gen):
    m, n = A.shape
    pM = mod.pM
    F = FullPivotFactor(A, mod)
    vals, ref_solve, ref_kernel = _full_pivot_reference(A, mod)
    assert F.rank == len(vals)
    assert sorted(F.valuations) == sorted(vals)
    K = F.kernel()
    assert K.shape[0] == n
    for col in K.T.tolist():
        assert _apply(A, col, pM) == [0] * m
    # each kernel lies in the span of the other
    for gens, other in ((ref_kernel, K), (K, ref_kernel)):
        if other.shape[1] == 0:
            assert not gens.any()
            continue
        in_span = _full_pivot_reference(other, mod)[1]
        for col in gens.T.tolist():
            w = in_span(col)
            assert w is not None and _apply(other, w, pM) == [c % pM for c in col]
    for trial in range(6):
        if trial % 2 == 0:  # in the column span by construction
            b = _apply(A, gen.integers(0, pM, n).tolist(), pM)
        else:
            b = (gen.integers(0, pM, m) * mod.p ** int(gen.integers(0, mod.M))).tolist()
        x, want = F.solve(np.array(b, dtype=np.int64)), ref_solve(b)
        assert (x is None) == (want is None)
        if trial % 2 == 0:
            assert x is not None
        if x is not None:
            assert _apply(A, x.tolist(), pM) == [c % pM for c in b]


@settings(max_examples=120, deadline=None)
@given(
    pm=st.sampled_from(_FACTOR_MODULI),
    m=st.integers(1, 24),
    n=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_matches_full_pivot_reference(pm, m, n, seed):
    mod = Modulus(*pm)
    gen = np.random.default_rng(seed)
    _matches_reference(_planted(gen, m, n, mod.p, mod.M), mod, gen)


@pytest.mark.parametrize("p,M", [(5, 2), (5, 13), (7, 11)])
def test_factor_matches_full_pivot_reference_on_circulant(p, M):
    # the full group-ring oracle's span: the cyclic shifts of ([g] - 1)^r.
    # With p | n and r = p + 2 it is sparse and has pivots of several
    # valuations and a kernel
    mod = Modulus(p, M)
    n, r = 12 * p, p + 2
    base = [0] * n
    for j in range(r + 1):
        base[j % n] += math.comb(r, j) * (-1) ** (r - j)
    A = np.array([[base[(i - k) % n] % mod.pM for k in range(n)] for i in range(n)], dtype=np.int64)
    _matches_reference(A, mod, np.random.default_rng(p * 100 + M))


@pytest.mark.parametrize("p,M", [(2**31 - 1, 1), (5, 13)])
def test_factor_stops_at_first_layer_with_nothing_left(p, M):
    # the layers stop once no open column holds an entry; the rows left over
    # must then vanish mod p^(M - layers), and one that is divisible by p
    # but not by p^M is outside the span
    mod = Modulus(p, M)
    pM = mod.pM
    gen = np.random.default_rng(M)
    unit = gen.integers(0, pM, (7, 3))
    unit[:3] = _unit_rank(gen, 3, 3, pM)  # three unit pivots, four rows left over
    graded = np.diag([1, p**2 % pM, 0])  # pivots of valuation 0 and 2, a zero column
    cases = [(np.zeros((4, 3), dtype=np.int64), 0), (unit, 1), (graded, 1 if M == 1 else 3)]
    for A, layers in cases:
        F = FullPivotFactor(A, mod)
        assert len(F._layers) == layers and (layers < M or M == 1)
        ref_solve = _full_pivot_reference(A, mod)[1]
        m, n = A.shape
        bs = [_apply(A, gen.integers(0, pM, n).tolist(), pM) for _ in range(2)]
        for row in range(m):
            for nudge in (1, p ** (M - 1)):  # p^(M-1) passes every per-layer test
                b = list(bs[0])
                b[row] = (b[row] + nudge) % pM
                bs.append(b)
        for b in bs:
            x, want = F.solve(np.array(b, dtype=np.int64)), ref_solve(b)
            assert (x is None) == (want is None), (A.tolist(), b)
            if x is not None:
                assert _apply(A, x.tolist(), pM) == b
        assert any(ref_solve(b) is None for b in bs)


def _free_columns_at(gen, m, n, free, pM):
    """m x n matrix over Z/pM whose row module is a free summand with its
    unit-pivot RREF free exactly at the columns ``free``."""
    pivs = np.setdiff1d(np.arange(n), free)
    R0 = np.zeros((pivs.size, n), dtype=np.int64)
    R0[:, free] = gen.integers(0, pM, (pivs.size, len(free)))
    for i, c in enumerate(pivs):
        R0[i, :c] = 0
        R0[i, c] = 1
    return _mulmod(_unit_rank(gen, m, pivs.size, pM), R0, pM)


# free columns inside the first panel (left of every later one), inside and
# at the end of the second, and in the last
_FREE_COLS = [3, 17, 31, 32, 40, 63, 70]


@pytest.mark.parametrize("m", [257, 300])
@pytest.mark.parametrize("pm", _ECHELON_MODULI, ids=lambda pm: f"{pm[0]}^{pm[1]}")
def test_panel_replay_on_open_columns(pm, m):
    # a panel replays its row operations on the columns right of it and the
    # free columns left of its end only; more than 256 touched rows make the
    # replay run in several slices
    mod = Modulus(*pm)
    p, pM = mod.p, mod.pM
    gen = np.random.default_rng(m * 1000 + pM % 997)
    A = _free_columns_at(gen, m, 72, _FREE_COLS, pM)
    got = unit_echelon(A, mod)
    assert _same(got, _unit_echelon_unblocked(A, mod))
    assert got[2] == _FREE_COLS
    assert _same(kernel_of_free_summand(A, mod), _kernel_of_free_summand_unblocked(A, mod))

    basis = _unit_rank(gen, m, 40, pM)
    T = basis @ gen.integers(0, p, (40, m)) % pM  # preserves the span of basis; exact in int64
    image = matmul_mod(T, basis, mod)
    assert _same(restrict_operator(image, basis, mod), _restrict_operator_unblocked(_mulmod(T, basis, pM), basis, mod))

    # a row p * v on the free columns gives FullPivotFactor a second layer
    # (and unit_echelon p-torsion, when p < pM)
    v = np.zeros(72, dtype=np.int64)
    v[_FREE_COLS] = gen.integers(1, pM, len(_FREE_COLS))
    At = np.vstack([A, p * v % pM])
    assert _same(_outcome(unit_echelon, At, mod), _outcome(_unit_echelon_unblocked, At, mod))
    _matches_reference(At[:, :48], mod, gen)


@pytest.mark.parametrize("p,M", [(5, 2), (5, 13)])
def test_eliminations_past_one_panel_slice(p, M):
    # a panel product runs in 256-row slices; taller matrices use several
    mod = Modulus(p, M)
    gen = np.random.default_rng(p + M)
    A = _free_rows(gen, 300, 40, p, mod.pM, torsion=False)
    assert _same(unit_echelon(A, mod), _unit_echelon_unblocked(A, mod))
    _matches_reference(_planted(gen, 300, 12, p, M), mod, gen)


# p^M where _unit_gauss_jordan reduces after every rank-1 update (2^31 - 1,
# room 1) and after every fifth, mid-panel (5^13, room 5)
@pytest.mark.parametrize("pm,room", [((2147483647, 1), 1), ((5, 13), 5)], ids=["2^31-1", "5^13"])
def test_delayed_reduction_at_edge_moduli(pm, room):
    mod = Modulus(*pm)
    p, pM = mod.p, mod.pM
    assert _delay_room(pM) == room
    gen = np.random.default_rng(room)
    # entries near p^M - 1 make every unreduced update as large as it can be
    dense = pM - 1 - gen.integers(0, 3, (48, 72))
    assert _same(_outcome(unit_echelon, dense, mod), _outcome(_unit_echelon_unblocked, dense, mod))
    # wider than one panel, with free columns on both sides of a panel boundary
    A = _free_columns_at(gen, 80, 72, _FREE_COLS, pM)
    assert _same(unit_echelon(A, mod), _unit_echelon_unblocked(A, mod))
    assert _same(kernel_of_free_summand(A, mod), _kernel_of_free_summand_unblocked(A, mod))
    v = np.zeros(72, dtype=np.int64)
    v[_FREE_COLS] = gen.integers(1, pM, len(_FREE_COLS))
    At = np.vstack([A[:40], p * v % pM])
    assert _same(_outcome(unit_echelon, At, mod), _outcome(_unit_echelon_unblocked, At, mod))
    _matches_reference(At[:, :40], mod, gen)


@pytest.mark.parametrize("stop", [72, 40, 7], ids=lambda s: f"stop={s}")
@pytest.mark.parametrize("pm", [(2147483647, 1), (5, 13)], ids=["2^31-1", "5^13"])
def test_unit_gauss_jordan_matches_unblocked(pm, stop):
    # each matrix is cut at column ``stop`` (three panels, two, or part of
    # one) and eliminated whole: the result is the unblocked one's, and so
    # is its panels' replay on the original; rows above a panel take their
    # share of its row operations as one product at its end, so past the
    # first panel the panels must have such rows with nonzero multipliers
    mod = Modulus(*pm)
    pM = mod.pM
    gen = np.random.default_rng(stop)
    above = 0
    for A0 in (
        pM - 1 - gen.integers(0, 3, (80, 72)),  # dense, every entry as large as it can be
        gen.integers(0, pM, (50, 72)),  # wide at 72: the last panel has no pivot row left
        _free_columns_at(gen, 90, 72, _FREE_COLS, pM),  # free columns, zero rows below the rank
    ):
        A0 = A0[:, :stop]
        A = A0.copy()
        pivcols, panels = _unit_gauss_jordan(A, mod)
        want, want_pivcols = _gauss_jordan_unblocked(A0, mod)
        assert pivcols == want_pivcols
        assert np.array_equal(A, want)
        X = A0.copy()
        for panel in panels:
            _apply_panel(X, panel, mod)
        assert np.array_equal(X, want)
        above += sum(int((rows < r0).sum()) for r0, _, rows, _ in panels)
    assert above > 0 if stop > 32 else above == 0


@pytest.mark.parametrize("pm", [(5, 1), (5, 13), (2147483647, 1)], ids=["5", "5^13", "2^31-1"])
def test_panel_swaps_replay_as_one_gather(pm):
    # rows 0 and 40 are p times random rows: their leading entries are never
    # units, so each sinks one row per pivot, and every panel swaps rows,
    # one of them twice; the panel's one gather must replay what its swaps,
    # one at a time, do
    mod = Modulus(*pm)
    p, pM = mod.p, mod.pM
    gen = np.random.default_rng(pM % 1009)
    A0 = gen.integers(0, pM, (80, 72))
    A0[[0, 40]] = p * gen.integers(0, pM, (2, 72)) % pM
    swaps = []
    want, want_pivcols = _gauss_jordan_unblocked(A0, mod, swaps=swaps)
    A = A0.copy()
    pivcols, panels = _unit_gauss_jordan(A, mod)
    assert pivcols == want_pivcols and np.array_equal(A, want)
    assert len(panels) == 3
    by_panel = [[(r, sel) for c, r, sel in swaps if c // _PANEL == k] for k in range(len(panels))]
    for panel, panel_swaps in zip(panels, by_panel):
        touched = [row for swap in panel_swaps for row in swap]
        assert len(touched) > len(set(touched))  # a row swapped twice
        dst, src = panel[1]
        assert sorted(dst) == sorted(src) == sorted(set(touched))
    for X0 in (gen.integers(0, pM, 80), gen.integers(0, pM, (80, 5))):
        X, Y = X0.copy(), X0.copy()
        for panel, panel_swaps in zip(panels, by_panel):
            _apply_panel(X, panel, mod)
            for r, sel in panel_swaps:  # the oracle: one swap at a time
                Y[[r, sel]] = Y[[sel, r]]
            r0, _, rows, E = panel
            _replay(Y, r0, rows, E, mod, ...)
            assert np.array_equal(X, Y)


def _two_reduction_replay(X, r0, rows, E, mod, cols):
    """``_replay`` as it was before its direct path added X inside the float64
    product: the product reduced by ``matmul_mod``, then the sum reduced."""
    at = (lambda rr: np.ix_(rr, cols)) if isinstance(cols, np.ndarray) else (lambda rr: (rr, cols))
    pivrows = at(np.arange(r0, r0 + E.shape[1]))
    piv = X[pivrows]
    X[pivrows] = 0
    for t in range(0, rows.size, _CHUNK):
        rr = at(rows[t : t + _CHUNK])
        X[rr] = (X[rr] + matmul_mod(E[t : t + _CHUNK], piv, mod)) % mod.pM


@pytest.mark.parametrize("pm", [(7, 3), (5, 13), (2147483647, 1)], ids=["7^3", "5^13", "2^31-1"])
def test_fused_replay_matches_two_reductions(pm):
    # 7^3 takes the fused direct path, 5^13 and 2^31 - 1 the split one; X is
    # also given unreduced, as a solve's right-hand side is at a deeper layer
    mod = Modulus(*pm)
    pM = mod.pM
    gen = np.random.default_rng(pM % 1013)
    m, k = 300, 32
    assert (k * (pM - 1) ** 2 + pM < 1 << 53) == (pm == (7, 3))
    rows = np.setdiff1d(np.arange(m), np.arange(20, 20 + k))
    E = _narrow(pM - 1 - gen.integers(0, 3, (rows.size, k)), pM)
    for X0 in (
        pM - 1 - gen.integers(0, 3, (m, 12)),
        gen.integers(0, pM, m),
        gen.integers(-(1 << 62), 1 << 62, (m, 12)),  # inexact in float64 unless reduced
    ):
        for cols in (..., slice(3, None), np.array([0, 5, 7])):
            if X0.ndim == 1 and cols is not ...:
                continue
            X, Y = X0.copy(), X0.copy()
            _replay(X, 20, rows, E, mod, cols)
            _two_reduction_replay(Y, 20, rows, E, mod, cols)
            assert np.array_equal(X, Y)


def test_panel_without_swaps_stores_empty_gather():
    mod = Modulus(5, 2)
    A = np.eye(40, dtype=np.int64) + np.triu(5 * np.ones((40, 40), dtype=np.int64), 1)
    _, panels = _unit_gauss_jordan(A, mod)
    assert len(panels) == 2
    assert all(dst.size == src.size == 0 for _, (dst, src), _, _ in panels)
