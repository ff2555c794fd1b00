import numpy as np
import pytest

from eisenlab.corering import Modulus, matmul_mod
from eisenlab.massey import (
    Cochain,
    CoeffModule,
    DefiningSystem,
    InvalidDefiningSystem,
    all_cocycles,
    coboundary,
    coordinate_relation,
    cup,
    cup_sum,
    cyclic,
    deformation_tables,
    dihedral,
    direct_product,
    is_cocycle,
    is_homomorphism,
    massey_power_vanishes,
    power_defining_systems,
    random_cocycle,
    shifted_system,
    symmetric,
    unipotent_concatenation,
    unipotent_hom,
    vanishes_in_h2,
)

rng = np.random.default_rng(99)


def test_group_constructions():
    for G in (cyclic(12), dihedral(6), symmetric(3), direct_product(cyclic(4), cyclic(9))):
        assert G.table[G.identity, 1] == 1
        assert G.table[G.inverse[3], 3] == G.identity
    assert symmetric(3).order == 6
    assert dihedral(6).order == 12
    with pytest.raises(ValueError):
        from eisenlab.massey.groups import FiniteGroup

        FiniteGroup(np.array([[0, 1], [0, 1]]))


def test_homomorphisms_are_cocycles():
    G = cyclic(10)
    mod = Modulus(5, 1)
    V = CoeffModule.scalar(G, mod)
    hom = Cochain(V, 1, np.arange(10) % 5)
    assert is_cocycle(hom)


def test_constant_zero_cochain():
    G = cyclic(6)
    V = CoeffModule.scalar(G, Modulus(7, 1))
    v = Cochain(V, 0, np.array(3))
    assert coboundary(v).is_zero()  # trivial action: dv = 0


def test_dd_zero_random():
    mod = Modulus(5, 2)
    for G in (cyclic(5), symmetric(3), dihedral(4)):
        V = CoeffModule.scalar(G, mod)
        for degree in (0, 1):
            c = Cochain.random(V, degree, rng)
            assert coboundary(coboundary(c)).is_zero()


def test_dd_zero_twisted_and_matrix():
    G = cyclic(4)
    mod = Modulus(5, 2)
    chi = np.array([pow(7, g, 25) for g in range(4)], dtype=np.int64)
    for V in (
        CoeffModule.scalar(G, mod, chi),
        CoeffModule.end_of_characters(G, mod, np.ones(4, dtype=np.int64), chi),
    ):
        for degree in (0, 1):
            c = Cochain.random(V, degree, rng)
            assert coboundary(coboundary(c)).is_zero()


def test_leibniz_on_s3():
    G = symmetric(3)
    V = CoeffModule.scalar(G, Modulus(5, 2))
    for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        for _ in range(5):
            a = Cochain.random(V, i, rng)
            b = Cochain.random(V, j, rng)
            lhs = coboundary(cup(a, b))
            rhs = cup(coboundary(a), b) + (-1) ** i * cup(a, coboundary(b))
            assert (lhs - rhs).is_zero()


def test_cup_with_zero():
    G = cyclic(5)
    V = CoeffModule.scalar(G, Modulus(5, 1))
    a = Cochain.random(V, 1, rng)
    z = Cochain(V, 1, np.zeros(5, dtype=np.int64))
    assert cup(a, z).is_zero()


def test_cup_square_of_identity_vanishes_in_h2():
    # p odd: 2 [a cup a] = 0 by graded commutativity, hence [a cup a] = 0
    G = cyclic(5)
    V = CoeffModule.scalar(G, Modulus(5, 1))
    a = Cochain(V, 1, np.arange(5, dtype=np.int64))
    ok, witness = vanishes_in_h2(cup(a, a))
    assert ok
    assert (coboundary(witness) - cup(a, a)).is_zero()


def test_vanishes_in_h2_on_constructed_coboundary():
    G = symmetric(3)
    V = CoeffModule.scalar(G, Modulus(5, 2))
    c = Cochain.random(V, 1, rng)
    z = coboundary(c)
    ok, witness = vanishes_in_h2(z)
    assert ok and (coboundary(witness) - z).is_zero()
    with pytest.raises(ValueError):
        vanishes_in_h2(Cochain.random(V, 2, rng) + z)  # almost surely not a cocycle


def test_massey_square_is_cup_square():
    G = cyclic(5)
    V = CoeffModule.scalar(G, Modulus(5, 1))
    for a in all_cocycles(V):
        D = DefiningSystem([a])
        assert (D.obstruction - cup(a, a)).is_zero()


def test_zero_cochain_power_vanishes():
    G = cyclic(5)
    V = CoeffModule.scalar(G, Modulus(5, 1))
    z = Cochain(V, 1, np.zeros(5, dtype=np.int64))
    D = DefiningSystem([z, z, z])
    assert D.obstruction.is_zero()


def test_invalid_defining_system_rejected():
    G = cyclic(5)
    V = CoeffModule.scalar(G, Modulus(5, 1))
    a = Cochain(V, 1, np.arange(5, dtype=np.int64))
    bad = Cochain(V, 1, np.array([0, 1, 1, 0, 2], dtype=np.int64))
    with pytest.raises(InvalidDefiningSystem):
        DefiningSystem([a, bad])
    with pytest.raises(InvalidDefiningSystem):
        DefiningSystem([bad])  # m_1 must be a cocycle


def test_chain_law_is_the_table_law():
    # with a(i,j) = m_(j-i+1), every entry of the general (i,j) table obeys
    # d a(i,j) + sum_k a(i,k) cup a(k+1,j) = 0, and the obstruction is
    # c(D) = sum_k a(1,k) cup a(k+1,n)
    G = cyclic(5)
    V = CoeffModule.scalar(G, Modulus(5, 1))
    a = Cochain(V, 1, np.arange(5, dtype=np.int64))
    for D in power_defining_systems(a, 4, all_cocycles(V)):
        n = D.n
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if (i, j) == (1, n):
                    continue
                law = coboundary(D.chain[j - i])
                for k in range(i, j):
                    law = law + cup(D.chain[k - i], D.chain[j - k - 1])
                assert law.is_zero()
        c = cup_sum(D.chain)
        for k in range(1, n):
            c = c - cup(D.chain[k - 1], D.chain[n - k - 1])
        assert c.is_zero()


def test_unipotent_pair_and_concatenation():
    G = cyclic(5)
    V = CoeffModule.scalar(G, Modulus(5, 1))
    a = Cochain(V, 1, np.arange(5, dtype=np.int64))
    pool = all_cocycles(V)
    for D in power_defining_systems(a, 3, pool):
        nu = unipotent_hom(D)
        # Toeplitz: a(i,j) = m_(j-i+1) depends on j - i only
        assert np.array_equal(nu[:, 1:, 1:], nu[:, :-1, :-1])
        big = unipotent_concatenation(D)
        assert (big is not None) == massey_power_vanishes(D)
        if big is not None:
            assert big.shape[1:] == (4, 4)
            assert np.array_equal(big[:, :3, :3], nu)


def _superdiagonal(chain):
    """The (r+1) x (r+1) upper-unipotent table with chain[l-1] on the l-th
    superdiagonal, r = len(chain), entry by entry."""
    size = len(chain) + 1
    nu = np.tile(np.eye(size, dtype=np.int64), (chain[0].module.group.order, 1, 1))
    for l, m in enumerate(chain, start=1):
        for r in range(size - l):
            nu[:, r, r + l] = m.table
    return nu


def test_unipotent_tables_are_the_superdiagonal_construction():
    G = cyclic(5)
    V = CoeffModule.scalar(G, Modulus(5, 1))
    a = Cochain(V, 1, np.arange(5, dtype=np.int64))
    pool = all_cocycles(V)
    concatenated = 0
    for k in range(2, 6):
        for D in power_defining_systems(a, k, pool):
            assert np.array_equal(unipotent_hom(D), _superdiagonal(D.chain))
            ok, prim = vanishes_in_h2(-D.obstruction)
            big = unipotent_concatenation(D)
            assert (big is not None) == ok
            if ok:
                assert np.array_equal(big, _superdiagonal(D.chain + [prim]))
                concatenated += 1
    assert concatenated == 1 + 5 + 25  # every system at k <= 4, none at k = 5


def test_unipotent_obstruction_blocks_all_corners():
    # at k = 5 no defining system vanishes; check no corner works by brute
    # force for one system
    G = cyclic(5)
    V = CoeffModule.scalar(G, Modulus(5, 1))
    a = Cochain(V, 1, np.arange(5, dtype=np.int64))
    pool = all_cocycles(V)
    D = power_defining_systems(a, 5, pool)[0]
    assert unipotent_concatenation(D) is None

    n = D.n
    base = np.zeros((5, n + 1, n + 1), dtype=np.int64)
    for r in range(n + 1):
        base[:, r, r] = 1
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if (i, j) != (1, n):
                base[:, i - 1, j] = D.chain[j - i].table
    import itertools

    for corner in itertools.product(range(5), repeat=4):
        nu = base.copy()
        nu[1:, 0, n] = corner  # corner at identity must be its own value
        nu[0, 0, n] = 0
        if is_homomorphism(G, nu, Modulus(5, 1)):
            raise AssertionError("found a corner despite nonvanishing obstruction")


def _end_module():
    G = direct_product(cyclic(5), cyclic(4))
    mod = Modulus(5, 1)
    chi1 = np.ones(G.order, dtype=np.int64)
    chi2 = np.array([pow(2, g % 4, 5) for g in range(G.order)], dtype=np.int64)
    return CoeffModule.end_of_characters(G, mod, chi1, chi2)


def test_coordinate_relations_match_full_vanishing():
    End = _end_module()
    hits = 0
    tries = 0
    while hits < 12 and tries < 400:
        tries += 1
        m1 = random_cocycle(End, rng)
        D = DefiningSystem([m1])
        full = massey_power_vanishes(D)
        coords = all(coordinate_relation(D, (s, t)) for s in (1, 2) for t in (1, 2))
        assert full == coords
        hits += 1
    assert hits >= 12


def test_diagonal_system_offdiagonal_relations_trivial():
    End = _end_module()
    G = End.group
    # diagonal M1 with zero off-diagonal entries
    tbl = np.zeros((G.order, 2, 2), dtype=np.int64)
    tbl[:, 0, 0] = np.array([g // 4 for g in range(G.order)]) % 5
    tbl[:, 1, 1] = (-tbl[:, 0, 0]) % 5
    m1 = Cochain(End, 1, tbl)
    assert is_cocycle(m1)
    D = DefiningSystem([m1])
    assert coordinate_relation(D, (1, 2))
    assert coordinate_relation(D, (2, 1))


def test_shifted_system_matches_21_relation():
    End = _end_module()
    checked = 0
    tries = 0
    while checked < 6 and tries < 400:
        tries += 1
        m1 = random_cocycle(End, rng)
        rhs = cup(m1, m1)
        ok, part = vanishes_in_h2(-rhs)
        if not ok:
            continue
        m2 = part + random_cocycle(End, rng)
        D = DefiningSystem([m1, m2])
        Dp, cp = shifted_system(D)
        okv, _ = vanishes_in_h2(cp)
        assert okv == coordinate_relation(D, (2, 1))
        checked += 1
    assert checked >= 6


def test_deformation_round_trip():
    End = _end_module()
    G = End.group
    mod = End.modulus
    done = 0
    tries = 0
    while done < 6 and tries < 200:
        tries += 1
        m1 = random_cocycle(End, rng)
        ok, part = vanishes_in_h2(-cup(m1, m1))
        if not ok:
            continue
        m2 = part + random_cocycle(End, rng)
        nu = deformation_tables(End.rho, [m1, m2], mod)
        assert is_homomorphism(G, nu, mod)
        done += 1
    assert done >= 6


def test_deformation_top_obstruction_both_directions():
    # with a valid chain (m1, m2), extending by m3 gives a homomorphism
    # exactly when d(m3) = -c(D) for the power system D = {m1, m2}
    End = _end_module()
    G = End.group
    mod = End.modulus
    done = 0
    tries = 0
    while done < 4 and tries < 300:
        tries += 1
        m1 = random_cocycle(End, rng)
        ok, part = vanishes_in_h2(-cup(m1, m1))
        if not ok:
            continue
        m2 = part + random_cocycle(End, rng)
        D = DefiningSystem([m1, m2])
        c = D.obstruction
        solvable, m3 = vanishes_in_h2(-c)
        if solvable:
            nu3 = deformation_tables(End.rho, [m1, m2, m3], mod)
            assert is_homomorphism(G, nu3, mod)
            # perturbing m3 off the -c(D) solution set breaks it
            for z in (random_cocycle(End, rng),):
                bad = m3 + z + Cochain(End, 1, rng.integers(1, 5, m3.table.shape))
                if (coboundary(bad) + c).is_zero():
                    continue
                nu_bad = deformation_tables(End.rho, [m1, m2, bad], mod)
                assert not is_homomorphism(G, nu_bad, mod)
        done += 1
    assert done >= 4


def _deformation_coefficients(rho, chain, mod):
    """[g, j]: the eps^j coefficient of rho(g) + sum_j m_j(g) rho(g) eps^j."""
    out = np.zeros((rho.shape[0], len(chain) + 1, 2, 2), dtype=np.int64)
    out[:, 0] = rho % mod.pM
    for j, mj in enumerate(chain, start=1):
        out[:, j] = matmul_mod(mj.table, rho, mod)
    return out


def _is_truncated_homomorphism(G, coeffs, mod):
    """coeffs(gh) = coeffs(g) coeffs(h), multiplying eps-polynomials by
    convolution truncated at eps^(r+1)."""
    for k in range(coeffs.shape[1]):
        # [g, h] = sum_i coeffs(g)_i coeffs(h)_(k-i)
        acc = sum(matmul_mod(coeffs[:, None, i], coeffs[None, :, k - i], mod) for i in range(k + 1))
        if not np.array_equal(acc % mod.pM, coeffs[G.table, k]):
            return False
    return True


def _check_deformations_against_convolution(End, gen, perturb):
    """Build valid chains of length 1-3 over End (as far as each level is
    solvable), perturb every entry of each, and compare the Toeplitz table
    under ``is_homomorphism`` with the convolution oracle.  Returns the
    numbers of (valid, rejected perturbed) chains decided."""
    mod, G = End.modulus, End.group
    d = End.rho.shape[1]
    valid = rejected = 0
    chain = [random_cocycle(End, gen)]
    while True:
        for j in range(-1, len(chain)):  # -1: the chain itself
            trial = list(chain)
            if j >= 0:
                trial[j] = trial[j] + Cochain(End, 1, perturb(trial[j].table.shape))
            coeffs = _deformation_coefficients(End.rho, trial, mod)
            nu = deformation_tables(End.rho, trial, mod)
            size = len(trial) + 1
            assert nu.shape == (G.order, size * d, size * d)
            blocks = nu.reshape(G.order, size, d, size, d)
            for i in range(size):  # block (i, j) is the eps^(j - i) coefficient, 0 below
                for jj in range(size):
                    want = coeffs[:, jj - i] if jj >= i else np.zeros_like(coeffs[:, 0])
                    assert np.array_equal(blocks[:, i, :, jj], want)
            expected = _is_truncated_homomorphism(G, coeffs, mod)
            assert is_homomorphism(G, nu, mod) == expected
            if j < 0:
                assert expected
                valid += 1
            else:
                rejected += not expected
        if len(chain) == 3:
            return valid, rejected
        ok, part = vanishes_in_h2(-cup_sum(chain))
        if not ok:
            return valid, rejected
        chain.append(part + random_cocycle(End, gen))


def test_toeplitz_deformation_check_matches_convolution():
    End = _end_module()
    gen = np.random.default_rng(11)
    valid = rejected = 0
    for _ in range(8):
        v, r = _check_deformations_against_convolution(End, gen, lambda shape: gen.integers(1, 5, shape))
        valid, rejected = valid + v, rejected + r
    assert valid >= 8 and rejected >= 8


def test_coboundary_built_and_factored_once_per_module(monkeypatch):
    from eisenlab.massey import cochains

    counts = {"built": 0, "factored": 0}
    build, Factor = cochains._coboundary_matrix, cochains.FullPivotFactor

    def counting_build(module):
        counts["built"] += 1
        return build(module)

    class CountingFactor(Factor):
        def __init__(self, *args, **kwargs):
            counts["factored"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cochains, "_coboundary_matrix", counting_build)
    monkeypatch.setattr(cochains, "FullPivotFactor", CountingFactor)
    End = _end_module()
    gen = np.random.default_rng(5)
    for _ in range(4):
        a, b = random_cocycle(End, gen), random_cocycle(End, gen)
        z = cup(a, b)
        assert z.module is End
        assert z.entry(1, 2).module is z.entry(1, 2).module is End.slot_modules[0][1]
        vanishes_in_h2(z)
        dc = coboundary(Cochain.random(End, 1, gen))
        ok, w = vanishes_in_h2(dc)
        assert ok and coboundary(w) == dc
    assert counts == {"built": 1, "factored": 1}


def test_module_action_data_is_read_only():
    End = _end_module()
    for table in (End.rho, End.rho_inv, End.action):
        with pytest.raises(ValueError):
            table[0, 0, 0] = 2
    V = CoeffModule.scalar(cyclic(4), Modulus(5, 1), np.array([1, 2, 4, 3]))
    with pytest.raises(ValueError):
        V.char[1] = 1
    with pytest.raises(ValueError):
        V.action[1, 0, 0] = 1


def test_matrix_module_inverts_rho_through_the_group():
    G, mod = cyclic(5), Modulus(5, 1)
    rho = np.array([[[1, k], [0, 1]] for k in range(5)])  # k -> unipotent, not diagonal
    End = CoeffModule.end_of_rep(G, mod, rho)
    for g in range(G.order):
        assert np.array_equal(End.rho[g] @ End.rho_inv[g] % 5, np.eye(2, dtype=np.int64))


def test_matrix_module_rejects_singular_rho():
    # idempotent matrices pass the homomorphism check; rho(1) must be the identity
    G, mod = cyclic(4), Modulus(5, 1)
    for rho1 in ([[0, 0], [0, 0]], [[1, 0], [0, 0]]):
        with pytest.raises(ValueError, match="identity"):
            CoeffModule.end_of_rep(G, mod, np.array([rho1] * G.order))


def test_scalar_cochains_with_different_characters_do_not_mix():
    G, mod = cyclic(4), Modulus(5, 1)
    triv = CoeffModule.scalar(G, mod)
    tw = CoeffModule.scalar(G, mod, np.array([1, 2, 4, 3]))  # the generator acts by 2
    t = np.arange(4)
    assert not (Cochain(triv, 1, t) == Cochain(tw, 1, t))
    with pytest.raises(ValueError):
        Cochain(triv, 1, t) + Cochain(tw, 1, t)
    with pytest.raises(ValueError):
        Cochain(triv, 1, t) - Cochain(tw, 1, t)
    assert Cochain(tw, 1, t) == Cochain(CoeffModule.scalar(G, mod, np.array([1, 2, 4, 3])), 1, t)


def test_cochain_tables_are_reduced_except_cup_residues():
    G, mod = cyclic(4), Modulus(5, 2)
    M = CoeffModule.scalar(G, mod, np.array([1, 7, 24, 18]))  # 7 has order 4 mod 25
    a = Cochain(M, 1, np.array([-1, 25, 26, 3]))
    assert a.table.tolist() == [24, 0, 1, 3]
    for c in (a + a, a - 3 * a, -a, a * -7, coboundary(a), cup(a, a)):
        assert c.table.dtype == np.int64 and c.table.min() >= 0 and c.table.max() < 25
    residues = np.arange(4, dtype=np.int64)
    assert Cochain(M, 1, residues, reduced=True).table is residues


def _fresh_cup_target(U, V):
    """cup_target decided from the modules' data on every call, as before it
    was kept per pair; None where it builds a new scalar module."""
    if U is V and U.kind == "matrix":
        return U
    if U.kind == V.kind == "scalar":
        char = U.char * V.char % U.modulus.pM
        return next((m for m in (U, V) if np.array_equal(char, m.char)), None)
    assert U.kind == "matrix" and np.array_equal(U.rho, V.rho)
    return U


def test_cup_target_is_decided_once_per_pair_of_modules(monkeypatch):
    from eisenlab.massey import selftest

    seen, decided = [], []
    cup_target = CoeffModule.cup_target
    decide = CoeffModule._decide_cup_target

    def recording(U, V):
        seen.append((U, V, cup_target(U, V)))
        return seen[-1][2]

    monkeypatch.setattr(CoeffModule, "cup_target", recording)
    monkeypatch.setattr(CoeffModule, "_decide_cup_target", lambda U, V: decided.append(1) or decide(U, V))
    assert selftest.run_selftest(9, quick=True).ok
    pairs = {(id(U), id(V)) for U, V, _ in seen}
    assert len(seen) > len(pairs) == len(decided)
    for U, V, got in seen:
        assert got is _fresh_cup_target(U, V)
    G, mod = cyclic(4), Modulus(5, 1)
    triv, tw = CoeffModule.scalar(G, mod), CoeffModule.scalar(G, mod, np.array([1, 2, 4, 3]))
    assert tw.cup_target(triv) is tw and triv.cup_target(tw) is tw
    square = tw.cup_target(tw)  # chi^2 is neither operand: a new module, kept
    assert _fresh_cup_target(tw, tw) is None and square.char.tolist() == [1, 4, 1, 4]
    assert tw.cup_target(tw) is square and tw.cup_target(triv) is tw


def test_shifted_system_builds_each_end_nu_once(monkeypatch):
    from eisenlab.massey import cochains

    built = []
    build = cochains._coboundary_matrix
    monkeypatch.setattr(cochains, "_coboundary_matrix", lambda m: built.append(m) or build(m))
    End = _end_module()
    gen = np.random.default_rng(3)
    shifted = []
    while len(shifted) < 12:
        m1 = random_cocycle(End, gen)
        ok, part = vanishes_in_h2(-cup(m1, m1))
        if not ok:
            continue
        D = DefiningSystem([m1, part + random_cocycle(End, gen)])
        Dp, cp = shifted_system(D)
        assert shifted_system(D)[0].module is Dp.module
        vanishes_in_h2(cp)
        shifted.append(Dp.module)
    nus = {module.rho.tobytes() for module in shifted}
    assert len({id(module) for module in shifted}) == len(nus) < len(shifted)
    built_nus = [m.rho.tobytes() for m in built if m.kind == "matrix" and m is not End]
    assert sorted(built_nus) == sorted(nus)  # each distinct nu built (and factored) once


def _coboundary_matrix_by_columns(module):
    """D^1 built one column at a time: the coboundary of each unit 1-cochain."""
    n = module.group.order
    vs = module.action.shape[1]
    cols = []
    for k in range(n * vs):
        e = np.zeros(n * vs, dtype=np.int64)
        e[k] = 1
        c = Cochain(module, 1, e.reshape((n,) + module.value_shape))
        cols.append(coboundary(c).table.reshape(-1))
    return np.stack(cols, axis=1)


# -- exactness at the edge moduli -------------------------------------------
# On the 4 x 4 action products, 5^9 takes matmul_mod's direct path, and
# 5^13 (the largest power of 5 below 2^31) and 46337^2 (46337 is the largest
# prime below 2^15.5) its split path, where a plain int64 product would wrap
# at 46337^2.

EDGE_MODULI = [Modulus(5, 9), Modulus(5, 13), Modulus(46337, 2)]
EDGE_IDS = ["5^9", "5^13", "46337^2"]


def _edge_modules(mod):
    """Twisted scalar modules on Z/4 (a unit of order 4, the Teichmueller
    lift of 2 when p = 5) and on the non-abelian D3 (sign, i.e. q - 1 on
    reflections), a non-diagonal End(nu) over Z/4, and End(rho) for a
    conjugate rho = P diag(1, chi) P^-1 whose entries spread over [0, q)."""
    q = mod.pM
    units = (pow(a, q // mod.p * (mod.p - 1) // 4, q) for a in range(2, mod.p))
    teich = next(u for u in units if u * u % q != 1)  # order 4 in (Z/q)^x
    chi = np.array([pow(teich, g, q) for g in range(4)], dtype=np.int64)
    G4 = cyclic(4)
    End = CoeffModule.end_of_characters(G4, mod, np.ones(4, dtype=np.int64), chi)
    # nu = [[1, 0], [(1 - chi) v, chi]]: the lower entry is the coboundary of v
    end_nu = End.with_lower_entry((1 - chi) * (q - 2))
    P = np.array([[1, q - 2], [3, 1]], dtype=object)  # det 7, a unit
    P_inv = np.array([[1, 2 - q], [-3, 1]], dtype=object) * pow(7, -1, q)
    rho = np.array([P @ np.diag([1, int(c)]).astype(object) @ P_inv % q for c in chi], dtype=np.int64)
    sign = np.array([1, 1, 1, q - 1, q - 1, q - 1], dtype=np.int64)
    return [
        CoeffModule.scalar(G4, mod, chi),
        CoeffModule.scalar(dihedral(3), mod, sign),
        end_nu,
        CoeffModule.end_of_rep(G4, mod, rho),
    ]


def _edge_table(module, degree, gen):
    """Random residues, about half of them within 1000 of q - 1."""
    q = module.modulus.pM
    shape = (module.group.order,) * degree + module.value_shape
    return np.where(gen.random(shape) < 0.5, gen.integers(q - 1000, q, shape), gen.integers(0, q, shape))


def _ref_act_all(module, t):
    """[g, ...] = g . t[...] in Python ints."""
    q = module.modulus.pM
    t = np.asarray(t).astype(object)
    if module.kind == "scalar":
        return (module.char.astype(object).reshape((-1,) + (1,) * t.ndim) * t[None]) % q
    rho, rho_inv = module.rho.astype(object), module.rho_inv.astype(object)
    return np.einsum("gab,...bc,gcd->g...ad", rho, t, rho_inv) % q


def _ref_coboundary(module, t):
    T = module.group.table
    t = np.asarray(t).astype(object)
    out = _ref_act_all(module, t)
    degree = t.ndim - len(module.value_shape)
    if degree == 0:
        out = out - t
    elif degree == 1:
        out = out - t[T] + t[:, None]
    else:
        out = out - t[T, :] + t[:, T] - t[:, :, None]
    return out % module.modulus.pM


def _ref_cup(a, b):
    """(a cup b)(g, ...) = a(g) . (g . b(...)) for a of degree 1, in Python ints."""
    acted = _ref_act_all(b.module, b.table)
    front = a.table.astype(object)
    if a.module.kind == "scalar":
        out = front.reshape(front.shape + (1,) * (acted.ndim - 1)) * acted
    else:
        out = np.einsum("gab,g...bc->g...ac", front, acted)
    return out % a.module.modulus.pM


@pytest.mark.parametrize("mod", EDGE_MODULI, ids=EDGE_IDS)
def test_cochain_products_match_python_ints_at_edge_moduli(mod):
    gen = np.random.default_rng(mod.M)
    for module in _edge_modules(mod):
        for degree in (0, 1, 2):
            t = _edge_table(module, degree, gen)
            assert np.array_equal(module.act_all(t), _ref_act_all(module, t))
            assert np.array_equal(coboundary(Cochain(module, degree, t)).table, _ref_coboundary(module, t))
        a = Cochain(module, 1, _edge_table(module, 1, gen))
        for j in (1, 2):
            b = Cochain(module, j, _edge_table(module, j, gen))
            assert np.array_equal(cup(a, b).table, _ref_cup(a, b))


@pytest.mark.parametrize("mod", EDGE_MODULI, ids=EDGE_IDS)
def test_dd_zero_and_leibniz_at_edge_moduli(mod):
    gen = np.random.default_rng(10 + mod.M)
    for module in _edge_modules(mod):
        for degree in (0, 1):
            for _ in range(5):
                c = Cochain(module, degree, _edge_table(module, degree, gen))
                assert coboundary(coboundary(c)).is_zero()
        for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            a = Cochain(module, i, _edge_table(module, i, gen))
            b = Cochain(module, j, _edge_table(module, j, gen))
            lhs = coboundary(cup(a, b))
            rhs = cup(coboundary(a), b) + (-1) ** i * cup(a, coboundary(b))
            assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("mod", EDGE_MODULI, ids=EDGE_IDS)
def test_deformation_check_at_edge_moduli(mod):
    # rho + m rho eps is a homomorphism mod eps^2 exactly when m is a cocycle
    gen = np.random.default_rng(20 + mod.M)
    for End in _edge_modules(mod)[2:]:
        m1 = random_cocycle(End, gen)
        assert is_homomorphism(End.group, deformation_tables(End.rho, [m1], mod), mod)
        for _ in range(3):
            bad = m1 + Cochain(End, 1, _edge_table(End, 1, gen))
            nu = deformation_tables(End.rho, [bad], mod)
            assert is_homomorphism(End.group, nu, mod) == is_cocycle(bad)


@pytest.mark.parametrize("mod", EDGE_MODULI, ids=EDGE_IDS)
def test_toeplitz_deformation_check_matches_convolution_at_edge_moduli(mod):
    gen = np.random.default_rng(30 + mod.M)
    for End in _edge_modules(mod)[2:]:
        valid = rejected = 0
        for _ in range(2):
            v, r = _check_deformations_against_convolution(End, gen, lambda shape: _edge_table(End, 1, gen))
            valid, rejected = valid + v, rejected + r
        assert valid >= 2 and rejected >= 2


def test_coefficient_modules_reject_moduli_beyond_the_int64_kernels():
    G = cyclic(4)
    for mod in (Modulus(5, 14), Modulus(7, 12), Modulus(11, 9)):  # 11^9 is just above 2^31
        with pytest.raises(ValueError, match="too large"):
            CoeffModule.scalar(G, mod)
        with pytest.raises(ValueError, match="too large"):
            CoeffModule.end_of_characters(G, mod, np.ones(4), np.ones(4))
    assert CoeffModule.scalar(G, Modulus(5, 13)).action.shape == (4, 1, 1)


def test_coboundary_matrix_matches_column_construction(monkeypatch):
    from eisenlab.massey import cochains
    from eisenlab.massey.selftest import run_selftest

    built = []
    init = CoeffModule.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(CoeffModule, "__init__", recording_init)
    assert run_selftest(7, quick=True).ok
    for mod in EDGE_MODULI:
        _edge_modules(mod)
    assert {m.kind for m in built} == {"scalar", "matrix"}
    for module in built:
        D = cochains._coboundary_matrix(module)
        n, vs = module.group.order, module.action.shape[1]
        old = _coboundary_matrix_by_columns(module).reshape(n, n, vs, n * vs)
        on_generators = old[:, list(module.group.generators)].reshape(-1, n * vs)
        assert D.dtype == old.dtype and np.array_equal(D, on_generators)


# -- D^1 on the generator rows against all n^2 rows ---------------------------


def _full_coboundary_matrix(module):
    """All n^2 row blocks (g, h) of D^1: g.(-) at column block h, -1 at gh,
    +1 at g.  The generator-row factor must agree with this one."""
    action = module.action
    n, vs = action.shape[:2]
    g, h = np.indices((n, n))
    eye = np.eye(vs, dtype=np.int64)
    D = np.zeros((n, n, vs, n, vs), dtype=np.int64)
    D[g, h, :, h, :] += action[g]
    D[g, h, :, module.group.table, :] -= eye
    D[g, h, :, g, :] += eye
    return D.reshape(n * n * vs, n * vs) % module.modulus.pM


SELFTEST_GROUPS = [
    cyclic(36),
    direct_product(cyclic(6), cyclic(6)),
    dihedral(18),
    symmetric(3),
    direct_product(symmetric(3), cyclic(5)),
    cyclic(25),
    cyclic(4),
    cyclic(5),
    direct_product(cyclic(5), cyclic(4)),
    cyclic(1),
]


def _generated_subgroup(G, gens):
    reached = frontier = {G.identity}
    while frontier:
        frontier = {int(G.table[x, s]) for x in frontier for s in gens} - reached
        reached = reached | frontier
    return reached


def _candidate_modules(G, mod):
    """The scalar module and End(1 + chi) for chi trivial and for the first
    of g -> u^(g mod 4) (u of order 4) and g -> (-1)^g that is a
    homomorphism, if any; then also a non-diagonal End(nu) over 1 + chi."""
    q, n = mod.pM, G.order
    one = np.ones(n, dtype=np.int64)
    u = pow(2, q // mod.p, q)  # the Teichmueller lift of 2: order 4
    chis = [np.array([pow(u, g % 4, q) for g in range(n)]), np.array([(-1) ** g % q for g in range(n)])]
    chis = [one] + [chi for chi in chis if is_homomorphism(G, chi.reshape(n, 1, 1), mod) and np.any(chi != 1)][:1]
    modules = []
    for chi in chis:
        modules += [CoeffModule.scalar(G, mod, chi), CoeffModule.end_of_characters(G, mod, one, chi)]
    if len(chis) == 2:
        modules.append(modules[-1].with_lower_entry((1 - chis[1]) * 2))  # the coboundary of 2
    return modules


@pytest.mark.parametrize("G", SELFTEST_GROUPS, ids=[G.name for G in SELFTEST_GROUPS])
def test_generator_rows_decide_h2_as_all_rows_do(G):
    from eisenlab.corering.linalg import FullPivotFactor

    gens = G.generators
    assert len(_generated_subgroup(G, gens)) == G.order
    assert all(g not in _generated_subgroup(G, gens[:i]) for i, g in enumerate(gens)) or gens == (G.identity,)
    gen = np.random.default_rng(G.order)
    for mod in (Modulus(5, 1), Modulus(5, 2), Modulus(5, 3)):
        trivial = CoeffModule.scalar(G, mod)
        for module in _candidate_modules(G, mod):
            full = FullPivotFactor(_full_coboundary_matrix(module), mod)
            assert np.array_equal(module.cocycle_span, full.kernel())
            left = trivial if module.kind == "scalar" else module
            for _ in range(2):
                dx = coboundary(Cochain.random(module, 1, gen))
                cupped = cup(random_cocycle(left, gen), random_cocycle(module, gen))
                for z in (dx, cupped, dx + cupped):
                    ok, w = vanishes_in_h2(z)
                    want = full.solve(z.table.reshape(-1))
                    assert ok == (want is not None)
                    if ok:
                        assert np.array_equal(w.table.reshape(-1), want) and coboundary(w) == z
            bad = Cochain.random(module, 2, gen)
            if not coboundary(bad).is_zero():
                with pytest.raises(ValueError, match="not a 2-cocycle"):
                    vanishes_in_h2(bad)



def _changed_at_a_non_generator(z, gen):
    """z with one entry changed, at a random row whose last argument is not
    a generator; never a cocycle, since the change vanishes on every row
    ending in a generator (module docstring of ``cochains``)."""
    G = z.module.group
    others = [x for x in range(G.order) if x not in G.generators]
    row = tuple(gen.integers(G.order, size=z.degree - 1)) + (gen.choice(others),)
    t = z.table.copy()
    t[row] += 1
    return Cochain(z.module, z.degree, t)


def _coset_cochain(module, degree, gen):
    """A random cochain whose value at (..., x) depends on x only through
    the coset xH, H generated by all generators but the last, and is 0 on
    H: its coboundary vanishes on every row ending in one of those
    generators, so only the rows ending in the last one can show that it is
    not a cocycle."""
    G = module.group
    H = sorted(_generated_subgroup(G, G.generators[:-1]))
    coset = np.array([min(G.table[x, H]) for x in range(G.order)])
    lead = (slice(None),) * (degree - 1)
    t = Cochain.random(module, degree, gen).table[lead + (coset,)]
    t[lead + (H,)] = 0
    return Cochain(module, degree, t)


@pytest.mark.parametrize("G", SELFTEST_GROUPS, ids=[G.name for G in SELFTEST_GROUPS])
def test_is_cocycle_on_generator_rows_matches_all_rows(G):
    # is_cocycle reads dc on the rows ending in a generator only; the full
    # table of coboundary(c) is the oracle, in degrees 0, 1 and 2
    gen = np.random.default_rng(100 + G.order)
    decided = {True: 0, False: 0}
    for mod in (Modulus(5, 1), Modulus(5, 2), Modulus(5, 3)):
        trivial = CoeffModule.scalar(G, mod)
        for module in _candidate_modules(G, mod):
            left = trivial if module.kind == "scalar" else module
            unit = np.eye(2, dtype=np.int64) if left.value_shape else 1  # its multiples are 0-cocycles of left
            cocycles = [
                cup(Cochain(left, 0, unit * int(gen.integers(mod.pM))), random_cocycle(module, gen)),
                cup(random_cocycle(left, gen), random_cocycle(module, gen)),
                coboundary(Cochain.random(module, 0, gen)),
                coboundary(Cochain.random(module, 1, gen)),
            ]
            cases = [Cochain.random(module, degree, gen) for degree in (0, 1, 2)] + cocycles
            cases += [_coset_cochain(module, degree, gen) for degree in (1, 2)]
            if G.order > len(G.generators):
                cases += [_changed_at_a_non_generator(z, gen) for z in cocycles]
            for c in cases:
                want = coboundary(c).is_zero()
                assert is_cocycle(c) == want, (module.kind, c.degree)
                decided[want] += 1
    assert decided[True] and decided[False]


def _extension_cases(G, gen):
    """(D, m) pairs over every candidate module of G at p^M in {5, 25, 125}:
    systems of length 1 and 2, each with a valid next entry x + z (x from
    ``D.h2``, z in Z^1) and perturbations of it that keep it valid (+ a
    cocycle) or break it, at random, at one row whose last argument is not
    a generator, or only on the rows ending in the last generator."""
    for mod in (Modulus(5, 1), Modulus(5, 2), Modulus(5, 3)):
        for module in _candidate_modules(G, mod):
            D = DefiningSystem([random_cocycle(module, gen)])
            for _ in range(2):
                ok, x = D.h2
                target = D.obstruction.module
                if not ok:
                    yield D, Cochain.random(target, 1, gen)
                    break
                m = x + random_cocycle(target, gen)
                yield D, m
                yield D, m + random_cocycle(target, gen)
                yield D, m + Cochain.random(target, 1, gen)
                yield D, m + _coset_cochain(target, 1, gen)
                if G.order > len(G.generators):
                    yield D, _changed_at_a_non_generator(m, gen)
                D = D.extend(m)


@pytest.mark.parametrize("G", SELFTEST_GROUPS, ids=[G.name for G in SELFTEST_GROUPS])
def test_extend_matches_the_constructor(G):
    decided = {True: 0, False: 0}
    for D, m in _extension_cases(G, np.random.default_rng(200 + G.order)):
        try:
            E = D.extend(m)
        except InvalidDefiningSystem:
            E = None
        try:
            F = DefiningSystem(D.chain + [m])
        except InvalidDefiningSystem:
            F = None
        assert (E is None) == (F is None)
        decided[E is not None] += 1
        if E is None:
            continue
        assert E.n == F.n == D.n + 1 and E.chain == F.chain == D.chain + [m]
        assert E.obstruction == F.obstruction
        (ok_e, x_e), (ok_f, x_f) = E.h2, F.h2
        assert ok_e == ok_f and (x_e == x_f if ok_e else x_e is x_f is None)
    assert decided[True] and decided[False]


@pytest.mark.parametrize("G", SELFTEST_GROUPS, ids=[G.name for G in SELFTEST_GROUPS])
def test_extension_law_on_generator_rows_matches_all_rows(G):
    # extend decides d m + c(D) = 0 on the rows G x S only; the full table
    # of coboundary(m) + cup_sum(chain) is the oracle
    decided = {True: 0, False: 0}
    for D, m in _extension_cases(G, np.random.default_rng(300 + G.order)):
        want = (coboundary(m) + cup_sum(D.chain)).is_zero()
        try:
            D.extend(m)
            got = True
        except InvalidDefiningSystem:
            got = False
        assert got == want
        decided[want] += 1
    assert decided[True] and decided[False]


def test_extend_builds_no_cup_product(monkeypatch):
    from eisenlab.massey import cochains, products, selftest

    calls = []

    def counting_cup(a, b):
        calls.append((a.degree, b.degree))
        return cup(a, b)

    for module in (cochains, products, selftest):
        monkeypatch.setattr(module, "cup", counting_cup)
    V = CoeffModule.scalar(cyclic(5), Modulus(5, 1))
    a = Cochain(V, 1, np.arange(5, dtype=np.int64))
    D = DefiningSystem([a])
    D = D.extend(D.h2[1])
    ok, x = D.h2  # caches c(D)
    assert ok and calls
    calls.clear()
    E = D.extend(x + a)
    with pytest.raises(InvalidDefiningSystem):
        D.extend(x + Cochain(V, 1, np.array([0, 1, 1, 0, 2], dtype=np.int64)))
    assert not calls and E.n == 4
    assert selftest.run_selftest(9, quick=True).ok
    assert 0 < len(calls) <= 900  # 1683 when every system re-derived all of its laws


def _loop_direct_product_table(G, H):
    nH = H.order
    n = G.order * nH
    table = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        g1, h1 = divmod(a, nH)
        for b in range(n):
            g2, h2 = divmod(b, nH)
            table[a, b] = G.table[g1, g2] * nH + H.table[h1, h2]
    return table


def _loop_dihedral_table(k):
    n = 2 * k
    table = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        i, s1 = a % k, a // k
        for b in range(n):
            j, s2 = b % k, b // k
            if s1 == 0:
                table[a, b] = ((i + j) % k) + k * s2
            else:
                table[a, b] = ((i - j) % k) + k * (1 - s2)
    return table


def test_group_tables_and_generators_are_pinned():
    S3, Z5 = symmetric(3), cyclic(5)
    for G, H in [(cyclic(6), cyclic(6)), (S3, Z5), (Z5, cyclic(4)), (dihedral(3), S3), (cyclic(1), Z5)]:
        assert np.array_equal(direct_product(G, H).table, _loop_direct_product_table(G, H))
    for k in (1, 2, 3, 4, 18):
        assert np.array_equal(dihedral(k).table, _loop_dihedral_table(k))
    pinned = {
        "Z/36": (cyclic(36), (1,)),
        "Z/6 x Z/6": (direct_product(cyclic(6), cyclic(6)), (1, 6)),
        "D18": (dihedral(18), (1, 18)),
        "S3": (S3, (1, 2)),
        "S3 x Z/5": (direct_product(S3, Z5), (1, 5, 10)),
        "Z/5 x Z/4": (direct_product(Z5, cyclic(4)), (1, 4)),
        "Z/1": (cyclic(1), (0,)),
    }
    for name, (G, gens) in pinned.items():
        assert G.name == name and G.generators == gens
        assert len(_generated_subgroup(G, gens)) == G.order
        assert np.array_equal(G.table[np.arange(G.order), G.inverse], np.full(G.order, G.identity))


def test_selftest_matches_pinned_fixture():
    import json

    from make_selftest_fixture import FIXTURE, FIXTURE_RUNS, run_key, selftest_row

    with open(FIXTURE, encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert sorted(pinned) == sorted(run_key(seed, quick) for seed, quick in FIXTURE_RUNS)
    for seed, quick in FIXTURE_RUNS:
        got, want = selftest_row(seed, quick), pinned[run_key(seed, quick)]
        for field in ("ok", "passed", "failed", "counts"):
            assert got[field] == want[field], (run_key(seed, quick), field)


def test_selftest_enumerates_defining_systems_and_obstructions_once(monkeypatch):
    import functools

    from eisenlab.massey import products, selftest

    ks, built = [], []
    enumerate_systems = products.power_defining_systems
    obstruction = products.DefiningSystem.obstruction.func

    def counting_enumerate(a, k, pool):
        ks.append(k)
        return enumerate_systems(a, k, pool)

    def counting_obstruction(D):
        built.append(D)  # kept alive, so ids stay distinct
        return obstruction(D)

    counted = functools.cached_property(counting_obstruction)
    counted.__set_name__(products.DefiningSystem, "obstruction")
    monkeypatch.setattr(products.DefiningSystem, "obstruction", counted)
    monkeypatch.setattr(products, "power_defining_systems", counting_enumerate)
    monkeypatch.setattr(selftest, "power_defining_systems", counting_enumerate)
    assert selftest.run_selftest(5, quick=True).ok
    assert ks == [2, 3, 4, 5]  # once per k, shared by both properties on Z/5
    assert built and len({id(D) for D in built}) == len(built)  # c(D) once per system


def _counting_matmul(monkeypatch):
    """Route every eisenlab reference to ``matmul_mod`` through a counter."""
    import sys

    from eisenlab.corering import linalg

    calls = []
    original = linalg.matmul_mod

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("eisenlab") and getattr(module, "matmul_mod", None) is original:
            monkeypatch.setattr(module, "matmul_mod", counting)
    return calls


@pytest.mark.parametrize("mod", EDGE_MODULI, ids=EDGE_IDS)
def test_scalar_cochain_products_make_no_matrix_products(mod, monkeypatch):
    # scalar modules multiply values elementwise; End modules still go
    # through matmul_mod.  Each twisted scalar module V is cupped with the
    # trivial U on its group, so the cup lands in V or U and builds no module
    gen = np.random.default_rng(40 + mod.M)
    modules = _edge_modules(mod)
    pairs = [(V, CoeffModule.scalar(V.group, mod)) for V in modules[:2]]
    calls = _counting_matmul(monkeypatch)
    q = mod.pM
    for V, U in pairs:
        for module in (V, U):
            for degree in (0, 1, 2):
                t = _edge_table(module, degree, gen)
                assert np.array_equal(module.act_all(t), _ref_act_all(module, t))
                assert np.array_equal(coboundary(Cochain(module, degree, t)).table, _ref_coboundary(module, t))
            x, y = _edge_table(module, 2, gen), _edge_table(module, 1, gen)
            assert np.array_equal(module.pair(x, y), (x.astype(object) * y.astype(object)) % q)
        a = Cochain(V, 1, _edge_table(V, 1, gen))
        for j in (1, 2):
            b = Cochain(U, j, _edge_table(U, j, gen))
            assert np.array_equal(cup(a, b).table, _ref_cup(a, b))
        c = Cochain(U, 1, _edge_table(U, 1, gen))
        assert np.array_equal(cup(c, a).table, _ref_cup(c, a)) and cup(c, a).module is V
    assert not calls
    for End in modules[2:]:
        a = Cochain(End, 1, _edge_table(End, 1, gen))
        for step in (lambda: End.act_all(a.table), lambda: End.pair(a.table, a.table),
                     lambda: cup(a, a), lambda: coboundary(a)):
            before = len(calls)
            step()
            assert len(calls) > before


def test_quick_selftest_matrix_products(monkeypatch):
    from eisenlab.massey import selftest

    calls = _counting_matmul(monkeypatch)
    assert selftest.run_selftest(9, quick=True).ok
    assert 0 < len(calls) <= 1400  # 3431 when scalar cochains multiplied through matmul_mod
