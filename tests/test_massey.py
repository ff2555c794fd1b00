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
    massey_power_vanishes_somewhere,
    massey_product_cocycle,
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
    z = Cochain.zero(V, 1)
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
        assert (massey_product_cocycle(D) - cup(a, a)).is_zero()


def test_zero_cochain_power_vanishes():
    G = cyclic(5)
    V = CoeffModule.scalar(G, Modulus(5, 1))
    z = Cochain.zero(V, 1)
    D = DefiningSystem([z, z, z])
    assert massey_product_cocycle(D).is_zero()


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


def test_massey_power_oracle_on_z5():
    # <a>^k for the identity character of Z/5 vanishes exactly for k <= 4
    G = cyclic(5)
    V = CoeffModule.scalar(G, Modulus(5, 1))
    a = Cochain(V, 1, np.arange(5, dtype=np.int64))
    pool = all_cocycles(V)
    assert len(pool) == 5
    for k in (2, 3, 4, 5):
        vanishes, n_sys = massey_power_vanishes_somewhere(a, k, pool)
        assert vanishes is (k <= 4), k
        assert n_sys == 5 ** (k - 2)


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
            ok, prim = vanishes_in_h2(-massey_product_cocycle(D))
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
        c = massey_product_cocycle(D)
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
        old = _coboundary_matrix_by_columns(module)
        assert D.dtype == old.dtype and np.array_equal(D, old)
