import heapq

import numpy as np
import pytest
import sympy

from eisenlab.corering import (
    Modulus,
    berkowitz_charpoly,
    kernel_of_free_summand,
    matmul_mod,
    restrict_operator,
)
from eisenlab.hecke import build_manin_space, genus_x0, heilbronn_matrices
from eisenlab.hecke.manin import _tree_solve


def _points(N):
    return [(0, 1)] + [(1, d) for d in range(N)]


def _cuspidal_plus_in_plus(sp):
    """Basis of the cuspidal plus subspace: the kernel of the boundary
    functional, free of rank g since the functional has a unit entry."""
    return kernel_of_free_summand(sp.boundary[None, :], sp.modulus)


def _surviving_orbits(N):
    """Orbits of {1, sigma, star, sigma*star} on P^1(Z/N) without a sign clash."""

    def canonical(c, d):
        c, d = c % N, d % N
        return (0, 1) if c == 0 else (1, d * pow(c, -1, N) % N)

    seen, count = set(), 0
    for c, d in _points(N):
        if (c, d) in seen:
            continue
        signs, clash = {}, False
        for (x, y), s in (((c, d), 1), ((d, -c), -1), ((-c, d), 1), ((d, c), -1)):
            clash |= signs.setdefault(canonical(x, y), s) != s
        seen |= set(signs)
        count += not clash
    return count


def _markowitz_eliminate(rows: list[dict[int, int]], p: int, pM: int) -> dict[int, dict[int, int]]:
    """Sparse Gauss-Jordan over Z/pM with unit pivots only; `rows` (dicts
    column -> nonzero residue) are reduced in place.

    Each step takes the shortest row that holds a unit, and in it the unit
    entry whose column meets the fewest rows.  Returns {pivot column: row},
    every row scaled to 1 at its pivot and free of all other pivot columns.
    A row with no unit entry keeps none under elimination (only multiples
    of p are added to it), so if it is nonzero at the end the cokernel has
    p-torsion and ArithmeticError is raised.  The general eliminator the
    tree solve replaced, kept as its oracle.
    """
    col_rows: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    heap = [(len(row), r) for r, row in enumerate(rows)]
    heapq.heapify(heap)
    pivots: dict[int, dict[int, int]] = {}
    used: set[int] = set()
    while heap:
        length, r = heapq.heappop(heap)
        if r in used or length != len(rows[r]):
            continue  # stale entry; the row was pushed again when it changed
        units = [c for c, v in rows[r].items() if v % p]
        if not units:
            continue
        c = min(units, key=lambda j: len(col_rows[j]))
        inv = pow(rows[r][c], -1, pM)
        row = rows[r] = {j: v * inv % pM for j, v in rows[r].items()}
        used.add(r)
        pivots[c] = row
        for r2 in col_rows.pop(c):
            if r2 == r:
                continue
            other = rows[r2]
            f = other.pop(c)
            for j, v in row.items():
                if j == c:
                    continue
                w = (other.get(j, 0) - f * v) % pM
                if w:
                    if j not in other:
                        col_rows[j].add(r2)
                    other[j] = w
                elif j in other:
                    del other[j]
                    col_rows[j].discard(r2)
            if r2 not in used:
                heapq.heappush(heap, (len(other), r2))
    if any(rows[r] for r in range(len(rows)) if r not in used):
        raise ArithmeticError("three-term relations have p-torsion cokernel")
    return pivots


def _reference_build(space):
    """The per-point loops that folded the Klein four-group and built one
    three-term row per tau-orbit (coefficients over Z), and the rank of the
    quotient by the Markowitz oracle: the reference the array folding and
    the tree solve must reproduce."""
    N, p, pM = space.N, space.modulus.p, space.modulus.pM
    npts = N + 1
    c = np.ones(npts, dtype=np.int64)
    c[0] = 0
    d = np.arange(-1, N, dtype=np.int64)
    d[0] = 1
    index = space._index
    orbit = np.stack([np.arange(npts), index(d, -c), index(-c, d), index(d, c)]).T.tolist()
    orbit_sign = (1, -1, 1, -1)
    rep = np.full(npts, -1, dtype=np.int64)  # -1 unvisited
    sign = np.zeros(npts, dtype=np.int64)  # 0 on zero orbits
    rep_points = []
    for i in range(npts):
        if rep[i] != -1:
            continue
        signs = {}
        if any(signs.setdefault(j, s) != s for j, s in zip(orbit[i], orbit_sign)):
            rep[orbit[i]] = 0
            continue
        for j, s in signs.items():
            rep[j], sign[j] = len(rep_points), s
        rep_points.append(i)

    tau = np.stack([index(d, -c - d), index(-c - d, c)]).T.tolist()
    rep_l, sign_l = rep.tolist(), sign.tolist()
    rows = []
    seen = [False] * npts
    for i in range(npts):
        if seen[i]:
            continue
        j, k = tau[i]
        seen[i] = seen[j] = seen[k] = True
        row = {}
        for s in (i, j, k):
            if sign_l[s]:
                row[rep_l[s]] = row.get(rep_l[s], 0) + sign_l[s]
        row = {col: v for col, v in row.items() if v}
        if row:
            rows.append(row)

    pivots = _markowitz_eliminate([{j: v % pM for j, v in row.items()} for row in rows], p, pM)
    return {
        "rep": rep,
        "sign": sign,
        "rep_points": rep_points,
        "rows": [list(row.items()) for row in rows],
        "dim": len(rep_points) - len(pivots),
        "relation_rank": len(pivots),
    }


def _assert_quotient_map(expr, free, rows, pM):
    """expr is the identity at the free columns and kills every row."""
    assert np.array_equal(expr[free], np.eye(len(free), dtype=np.int64))
    for row in rows:
        image = sum(v * expr[col] for col, v in row)
        assert not np.any(image % pM), row


def test_array_folding_matches_per_point_loops():
    # N = 1 mod 3 has tau-fixed points, N = 1 mod 4 has zero orbits
    moduli = [Modulus(5, 2), Modulus(7, 3), Modulus(11, 2), Modulus(13, 2)]
    for k, N in enumerate(sympy.primerange(11, 2000)):
        sp = build_manin_space(N, moduli[k % 4])
        want = _reference_build(sp)
        rep, sign, rep_points, cols, vals = sp._relations()
        assert rep_points.tolist() == want["rep_points"], N
        rows = [[(c, v) for c, v in zip(cs, vs) if v] for cs, vs in zip(cols.tolist(), vals.tolist())]
        assert [row for row in rows if row] == want["rows"], N
        assert np.array_equal(sp._rep, want["rep"]) and sp._rep.dtype == np.int64, N
        assert np.array_equal(sp._sign, want["sign"]) and sp._sign.dtype == np.int64, N
        assert (sp.dim, sp.relation_rank) == (want["dim"], want["relation_rank"]), N
        basis = np.where(sp._basis_c == 0, 0, 1 + sp._basis_d)
        free = np.searchsorted(rep_points, basis)
        assert np.array_equal(rep_points[free], basis), N
        _assert_quotient_map(sp._expr, free, want["rows"], sp.modulus.pM)


def _planted(rows):
    """R x 3 column and coefficient arrays from rows of (column, coefficient)."""
    cols = np.zeros((len(rows), 3), dtype=np.int64)
    vals = np.zeros((len(rows), 3), dtype=np.int64)
    for k, row in enumerate(rows):
        for j, (col, v) in enumerate(row):
            cols[k, j], vals[k, j] = col, v
    return cols, vals


@pytest.mark.parametrize(
    "rows, ncols, message",
    [
        ([[(0, 1), (1, 1)], [(0, 1), (2, 1)], [(0, 1), (3, -1)]], 4, "more than two"),
        ([[(0, 1), (1, 1)], [(2, 1), (3, -1)]], 4, "not connected"),
        ([[(0, 1), (1, 1)], [(1, 1), (2, 1)], [(2, 1), (0, -1)]], 3, "private unit"),
        ([[(0, 1), (1, 1), (3, 5)], [(1, 1), (2, 1)], [(2, 1), (0, -1)]], 4, "private unit"),
        ([[(0, 1), (1, 1)], [(1, 5), (2, 5)]], 3, "not a unit at its pivot"),
    ],
    ids=["column-in-three-rows", "two-components", "no-private-column", "private-non-unit", "pivot-divisible-by-p"],
)
def test_tree_solve_rejects_broken_hypotheses(rows, ncols, message):
    with pytest.raises(ArithmeticError, match=message):
        _tree_solve(*_planted(rows), ncols, 5, 125)


def test_tree_solve_keeps_one_row_of_a_signed_pair():
    # rows 0 and 1 are each other's negatives with their entries reordered;
    # column 4 meets no row
    rows = [[(0, 1), (1, 1), (2, -1)], [(2, 1), (0, -1), (1, -1)], [(2, 1), (3, 2)], []]
    expr, free = _tree_solve(*_planted(rows), 5, 5, 125)
    assert len(free) == 5 - 2
    pivots = _markowitz_eliminate([{c: v % 125 for c, v in row} for row in rows], 5, 125)
    assert len(pivots) == 2
    _assert_quotient_map(expr, free, rows, 125)
    # the pair is not dropped when the second row is not exactly -1 times the first
    rows[1] = [(2, 2), (0, -2), (1, -2)]
    with pytest.raises(ArithmeticError, match="more than two"):
        _tree_solve(*_planted(rows), 5, 5, 125)


def test_genus_values():
    assert genus_x0(11) == 1
    assert genus_x0(13) == 0
    assert genus_x0(37) == 2
    assert genus_x0(31) == 2
    assert genus_x0(181) == 14
    assert genus_x0(3001) == 249


def test_heilbronn_determinants():
    for ell in (2, 3, 5, 7, 13):
        mats = heilbronn_matrices(ell)
        assert all(a * d - b * c == ell for (a, b, c, d) in mats)
        assert len(mats) == len(set(mats))


def test_space_dimensions():
    mod = Modulus(5, 2)
    for N, g in [(11, 1), (31, 2), (37, 2), (61, 4)]:
        sp = build_manin_space(N, mod)
        assert sp.dim == g + 1
        assert _cuspidal_plus_in_plus(sp).shape == (g + 1, g)
        # rank-nullity over the folded presentation
        assert sp.dim == _surviving_orbits(N) - sp.relation_rank


def test_plus_rank_sweep():
    # the constructor raises unless leftover rows vanish and the rank is g+1
    for p in (5, 7):
        mod = Modulus(p, 3)
        for N in sympy.primerange(11, 500):
            sp = build_manin_space(N, mod)
            assert sp.dim == genus_x0(N) + 1
            assert _cuspidal_plus_in_plus(sp).shape[1] == genus_x0(N)


def test_sparse_eliminate_detects_torsion():
    # a row with no unit entry stays nonzero: the cokernel has 5-torsion
    with pytest.raises(ArithmeticError):
        _markowitz_eliminate([{0: 1, 1: 1}, {1: 5, 2: 10}], 5, 25)
    # a dependent row reduces to zero; pivot rows are in reduced form
    pivots = _markowitz_eliminate([{0: 1, 1: 1}, {0: 2, 1: 2}, {1: 3, 2: 1}], 5, 25)
    assert len(pivots) == 2
    for col, row in pivots.items():
        assert row[col] == 1
        assert not (set(row) - {col}) & set(pivots)


def test_inverse_table():
    for N in (11, 13, 31, 37, 1009, 9907):
        inv = build_manin_space(N, Modulus(5, 2))._inv
        assert inv[0] == 0 and inv.dtype == np.int64
        assert np.all(inv[1:] * np.arange(1, N) % N == 1), N


def test_small_N_rejected():
    with pytest.raises(ValueError):
        build_manin_space(7, Modulus(5, 2))


@pytest.mark.parametrize("N", [15, 21, 25])
def test_composite_N_rejected(N):
    # N = 15 and 21 are 3 mod 12, where the prime-only genus formula has no case
    with pytest.raises(ValueError, match="not prime"):
        build_manin_space(N, Modulus(5, 2))


def _t_images(sp, ell, c, d):
    """Columns: T_ell of each Manin symbol (c[k]:d[k]), in the basis of V+,
    summed from its Heilbronn images."""
    out = np.zeros((sp.dim, len(c)), dtype=np.int64)
    for a, b, cc, dd in heilbronn_matrices(ell):
        i = sp._index(c * a + d * cc, c * b + d * dd)
        out += sp._expr[sp._rep[i]].T * sp._sign[i]
    return out % sp.modulus.pM


def test_t2_commutes_with_star_on_symbols():
    # T_2 of (c:d) and of (c:d)|star = (-c:d) agree in the plus quotient
    for N in (31, 37):
        sp = build_manin_space(N, Modulus(5, 3))
        c, d = np.array(_points(N)).T
        assert np.array_equal(_t_images(sp, 2, c, d), _t_images(sp, 2, -c, d))


def test_hecke_commutativity_first_primes():
    mod = Modulus(5, 2)
    sp = build_manin_space(41, mod)
    ops = [sp.hecke_full(q) for q in (2, 3, 5, 7)]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            assert np.array_equal(
                (ops[i] @ ops[j]) % mod.pM, (ops[j] @ ops[i]) % mod.pM
            )


def _hecke_on_cuspidal_plus(sp, ell):
    """Matrix of T_ell on the cuspidal plus quotient (rank g)."""
    cusp = _cuspidal_plus_in_plus(sp)
    return restrict_operator(matmul_mod(sp.hecke_on_plus(ell), cusp, sp.modulus), cusp, sp.modulus)


def test_t2_eigenvalue_on_x0_11():
    # the unique newform of level 11 has a_2 = -2
    mod = Modulus(5, 4)
    sp = build_manin_space(11, mod)
    T2 = _hecke_on_cuspidal_plus(sp, 2)
    assert T2.shape == (1, 1)
    assert int(T2[0, 0]) == (-2) % mod.pM


def test_t_ell_is_ell_plus_one_on_boundary():
    mod = Modulus(5, 2)
    sp = build_manin_space(31, mod)
    for ell in (2, 3, 7):
        T = sp.hecke_full(ell)
        assert np.array_equal((sp.boundary @ T) % mod.pM, (ell + 1) * sp.boundary % mod.pM)
        sp.hecke_on_plus(ell)  # certified the same way when built


def test_hecke_rejects_ell_equal_N():
    mod = Modulus(5, 2)
    sp = build_manin_space(11, mod)
    with pytest.raises(ValueError):
        sp.hecke_full(11)


def test_charpoly_on_cuspidal_plus_x0_37():
    # newforms 37a (a_2 = -2) and 37b (a_2 = 0): char poly y(y+2) on S+
    mod = Modulus(5, 3)
    sp = build_manin_space(37, mod)
    T2 = _hecke_on_cuspidal_plus(sp, 2)
    cp = berkowitz_charpoly(T2, mod)
    assert cp.coeffs == [0, 2, 1]  # y^2 + 2y
