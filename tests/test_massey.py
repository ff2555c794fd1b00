import numpy as np
import pytest

from eisenlab.corering import Modulus
from eisenlab.massey import (
    Cochain,
    CoeffModule,
    DefiningSystem,
    InvalidDefiningSystem,
    all_cocycles,
    coboundary,
    coordinate_relation,
    cup,
    cyclic,
    deformation_tables,
    dihedral,
    direct_product,
    is_cocycle,
    is_deformation_homomorphism,
    massey_power_vanishes,
    massey_power_vanishes_somewhere,
    massey_product_cocycle,
    power_defining_systems,
    random_cocycle,
    shifted_system,
    symmetric,
    unipotent_concatenation,
    unipotent_pair,
    vanishes_in_h2,
)

rng = np.random.default_rng(99)


def test_group_constructions():
    for G in (cyclic(12), dihedral(6), symmetric(3), direct_product(cyclic(4), cyclic(9))):
        assert G.mul(G.identity, 1) == 1
        assert G.mul(G.inverse[3], 3) == G.identity
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
        D = DefiningSystem.for_power(a, [])
        assert (massey_product_cocycle(D) - cup(a, a)).is_zero()


def test_zero_cochain_power_vanishes():
    G = cyclic(5)
    V = CoeffModule.scalar(G, Modulus(5, 1))
    z = Cochain.zero(V, 1)
    D = DefiningSystem.for_power(z, [z, z])
    assert massey_product_cocycle(D).is_zero()


def test_invalid_defining_system_rejected():
    G = cyclic(5)
    V = CoeffModule.scalar(G, Modulus(5, 1))
    a = Cochain(V, 1, np.arange(5, dtype=np.int64))
    bad = Cochain(V, 1, np.array([0, 1, 1, 0, 2], dtype=np.int64))
    with pytest.raises(InvalidDefiningSystem):
        DefiningSystem.for_power(a, [bad])


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
        nu1, nu2 = unipotent_pair(D)
        # shared block: nu1 lower-right equals nu2 upper-left
        assert np.array_equal(nu1[:, 1:, 1:], nu2[:, :-1, :-1])
        nu = unipotent_concatenation(D)
        assert (nu is not None) == massey_power_vanishes(D)
        if nu is not None:
            assert nu.shape[1:] == (4, 4)


def test_unipotent_obstruction_blocks_all_corners():
    # at k = 5 no defining system vanishes; check no corner works by brute
    # force for one system
    G = cyclic(5)
    V = CoeffModule.scalar(G, Modulus(5, 1))
    a = Cochain(V, 1, np.arange(5, dtype=np.int64))
    pool = all_cocycles(V)
    D = power_defining_systems(a, 5, pool)[0]
    assert unipotent_concatenation(D) is None
    from eisenlab.massey.products import _is_matrix_homomorphism

    n = D.n
    base = np.zeros((5, n + 1, n + 1), dtype=np.int64)
    for r in range(n + 1):
        base[:, r, r] = 1
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if (i, j) != (1, n):
                base[:, i - 1, j] = D.table[(i, j)].table
    import itertools

    for corner in itertools.product(range(5), repeat=4):
        nu = base.copy()
        nu[1:, 0, n] = corner  # corner at identity must be its own value
        nu[0, 0, n] = 0
        if _is_matrix_homomorphism(G, nu, 5):
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
        D = DefiningSystem.for_power(m1, [])
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
    D = DefiningSystem.for_power(m1, [])
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
        D = DefiningSystem.for_power(m1, [m2])
        Dp, cp = shifted_system(D)
        okv, _ = vanishes_in_h2(cp)
        assert okv == coordinate_relation(D, (2, 1))
        checked += 1
    assert checked >= 6


def test_deformation_round_trip():
    End = _end_module()
    G = End.group
    q = End.modulus.pM
    done = 0
    tries = 0
    while done < 6 and tries < 200:
        tries += 1
        m1 = random_cocycle(End, rng)
        ok, part = vanishes_in_h2(-cup(m1, m1))
        if not ok:
            continue
        m2 = part + random_cocycle(End, rng)
        nu = deformation_tables(End.rho, [m1, m2], q)
        assert is_deformation_homomorphism(G, nu, q)
        done += 1
    assert done >= 6


def test_deformation_top_obstruction_both_directions():
    # with a valid chain (m1, m2), extending by m3 gives a homomorphism
    # exactly when d(m3) = -c(D) for the power system D = {m1, m2}
    End = _end_module()
    G = End.group
    q = End.modulus.pM
    done = 0
    tries = 0
    while done < 4 and tries < 300:
        tries += 1
        m1 = random_cocycle(End, rng)
        ok, part = vanishes_in_h2(-cup(m1, m1))
        if not ok:
            continue
        m2 = part + random_cocycle(End, rng)
        D = DefiningSystem.for_power(m1, [m2])
        c = massey_product_cocycle(D)
        solvable, m3 = vanishes_in_h2(-c)
        if solvable:
            nu3 = deformation_tables(End.rho, [m1, m2, m3], q)
            assert is_deformation_homomorphism(G, nu3, q)
            # perturbing m3 off the -c(D) solution set breaks it
            for z in (random_cocycle(End, rng),):
                bad = m3 + z + Cochain(End, 1, rng.integers(1, 5, m3.table.shape))
                if (coboundary(bad) + c).is_zero():
                    continue
                nu_bad = deformation_tables(End.rho, [m1, m2, bad], q)
                assert not is_deformation_homomorphism(G, nu_bad, q)
        done += 1
    assert done >= 4


def _end_module():
    G = direct_product(cyclic(5), cyclic(4))
    chi2 = np.array([pow(2, g % 4, 5) for g in range(G.order)], dtype=np.int64)
    return CoeffModule.end_of_characters(G, Modulus(5, 1), np.ones(G.order, dtype=np.int64), chi2)


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
    for table in (End.rho, End.rho_inv):
        with pytest.raises(ValueError):
            table[0, 0, 0] = 2
    V = CoeffModule.scalar(cyclic(4), Modulus(5, 1), np.array([1, 2, 4, 3]))
    with pytest.raises(ValueError):
        V.char[1] = 1
