"""Randomized + exhaustive self-test suite for the Massey calculus.

Every batch is seeded; the seed is printed so failures reproduce.  The
suite is the programmatic counterpart of the property list in the test
suite and is surfaced by the `eisenlab massey-selftest` command.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..corering.zmod import Modulus
from .cochains import (
    Cochain,
    CoeffModule,
    all_cocycles,
    coboundary,
    cup,
    is_cocycle,
    is_homomorphism,
    random_cocycle,
    vanishes_in_h2,
)
from .groups import cyclic, dihedral, direct_product, symmetric
from .products import (
    DefiningSystem,
    coordinate_relation,
    cup_sum,
    deformation_tables,
    massey_power_vanishes,
    massey_power_vanishes_somewhere,
    massey_product_cocycle,
    power_defining_systems,
    shifted_system,
    unipotent_concatenation,
    unipotent_hom,
)


@dataclass
class SelftestResult:
    seed: int
    passed: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failed

    def record(self, name: str, ok: bool, count: int = 1):
        (self.passed if ok else self.failed).append(name)
        self.counts[name] = self.counts.get(name, 0) + count


def _dd_zero_groups():
    return [
        cyclic(36),
        direct_product(cyclic(6), cyclic(6)),
        dihedral(18),
        symmetric(3),
        direct_product(symmetric(3), cyclic(5)),
        cyclic(25),
    ]


def run_selftest(seed: int = 20250809, quick: bool = False) -> SelftestResult:
    rng = np.random.default_rng(seed)
    res = SelftestResult(seed=seed)

    # d(d(c)) = 0 across degrees 0..2 on groups of order <= 36
    ok = True
    count = 0
    mod = Modulus(5, 2)
    for G in _dd_zero_groups():
        module = CoeffModule.scalar(G, mod)
        for degree in (0, 1):
            c = Cochain.random(module, degree, rng)
            if not coboundary(coboundary(c)).is_zero():
                ok = False
            count += 1
    # character-twisted and matrix coefficients on a small cyclic group
    G4 = cyclic(4)
    chi4 = np.array([pow(7, g, 25) for g in range(4)], dtype=np.int64)  # 7^4 = 1 mod 25
    twisted = CoeffModule.scalar(G4, mod, chi4)
    matrix4 = CoeffModule.end_of_characters(G4, mod, np.ones(4, dtype=np.int64), chi4)
    for module in (twisted, matrix4):
        for degree in (0, 1):
            c = Cochain.random(module, degree, rng)
            if not coboundary(coboundary(c)).is_zero():
                ok = False
            count += 1
    res.record("d(d(c)) = 0 on groups of order <= 36", ok, count)

    # Leibniz rule d(a cup b) = da cup b + (-1)^deg(a) a cup db on S3
    G = symmetric(3)
    mod = Modulus(5, 2)
    V = CoeffModule.scalar(G, mod)
    ok = True
    count = 0
    for _ in range(10 if quick else 40):
        for (i, j) in [(0, 1), (1, 0), (1, 1), (0, 0)]:
            a = Cochain.random(V, i, rng)
            b = Cochain.random(V, j, rng)
            lhs = coboundary(cup(a, b))
            rhs = cup(coboundary(a), b) + (-1) ** i * cup(a, coboundary(b))
            if not (lhs - rhs).is_zero():
                ok = False
            count += 1
    res.record("Leibniz rule for cup products", ok, count)

    # <a>^2 is the cup square for every 1-cocycle (unique defining system)
    G5 = cyclic(5)
    mod5 = Modulus(5, 1)
    V5 = CoeffModule.scalar(G5, mod5)
    ok = True
    count = 0
    for a in all_cocycles(V5):
        c = massey_product_cocycle(DefiningSystem([a]))
        if not (is_cocycle(c) and (c - cup(a, a)).is_zero()):
            ok = False
        count += 1
    res.record("<a>^2 equals the cup square", ok, count)

    # <a>^k on Z/5 with a the identity character: vanishes iff k <= 4
    a_id = Cochain(V5, 1, np.arange(5, dtype=np.int64))
    pool = all_cocycles(V5)
    ok = True
    for k in range(2, 6):
        vanishes, n_sys = massey_power_vanishes_somewhere(a_id, k, pool)
        want = k <= 4
        if vanishes is not want:
            ok = False
        res.counts[f"defining systems at k={k}"] = n_sys
    res.record("<a>^k on Z/5 vanishes exactly for k <= 4", ok, 4)

    # unipotent concatenation mirrors the obstruction on Z/5
    ok = True
    count = 0
    for k in range(2, 6):
        for D in power_defining_systems(a_id, k, pool)[: 3 if quick else 10]:
            unipotent_hom(D)
            nu = unipotent_concatenation(D)
            if (nu is not None) != massey_power_vanishes(D):
                ok = False
            count += 1
    res.record("unipotent concatenation iff Massey power vanishes", ok, count)

    # matrix coordinates: full vanishing iff all four coordinate relations.
    # G = Z/5 x Z/4 carries 5-cohomology and a nontrivial order-4 character
    # into (Z/5)^x (the same shape as a cyclotomic character).
    Gm = direct_product(cyclic(5), cyclic(4))
    modm = Modulus(5, 1)
    chi1 = np.ones(Gm.order, dtype=np.int64)
    chi2 = np.array([pow(2, g % 4, 5) for g in range(Gm.order)], dtype=np.int64)
    End = CoeffModule.end_of_characters(Gm, modm, chi1, chi2)
    n_target = 25 if quick else 100
    ok = True
    built = 0
    attempts = 0
    while built < n_target and attempts < 40 * n_target:
        attempts += 1
        chain = [random_cocycle(End, rng)]
        r = int(rng.integers(2, 4))
        while len(chain) < r - 1:
            solvable, part = vanishes_in_h2(-cup_sum(chain))
            if not solvable:
                break
            chain.append(part + random_cocycle(End, rng))
        if len(chain) < r - 1:
            continue
        D = DefiningSystem(chain)
        full = massey_power_vanishes(D)
        coords = all(
            coordinate_relation(D, (s, t)) for s in (1, 2) for t in (1, 2)
        )
        if full != coords:
            ok = False
        built += 1
    res.record(
        "matrix Massey power vanishes iff all four coordinate relations",
        ok and built >= n_target,
        built,
    )

    # index shift: the shifted system is valid and its vanishing matches
    # the (2,1) coordinate relation
    ok = True
    built = 0
    attempts = 0
    n_shift = 10 if quick else 30
    while built < n_shift and attempts < 100 * n_shift:
        attempts += 1
        m1 = random_cocycle(End, rng)
        solvable, part = vanishes_in_h2(-cup_sum([m1]))
        if not solvable:
            continue
        D = DefiningSystem([m1, part + random_cocycle(End, rng)])  # r = 3
        try:
            Dp, cp = shifted_system(D)
        except Exception:
            ok = False
            built += 1
            continue
        okv, _ = vanishes_in_h2(cp)
        if okv != coordinate_relation(D, (2, 1)):
            ok = False
        built += 1
    res.record("index-shifted system matches the (2,1) relation", ok and built >= n_shift, built)

    # deformation dictionary: chain law iff truncated homomorphism
    ok = True
    count = 0
    rho = End.rho
    for _ in range(10 if quick else 30):
        m1 = random_cocycle(End, rng)
        square = cup_sum([m1])
        solvable, part = vanishes_in_h2(-square)
        if not solvable:
            continue
        m2 = part + random_cocycle(End, rng)
        nu2 = deformation_tables(rho, [m1, m2], modm)
        if not is_homomorphism(Gm, nu2, modm):
            ok = False
        # breaking the law must break the homomorphism
        bad = m2 + Cochain(End, 1, rng.integers(1, 5, m2.table.shape))
        if (coboundary(bad) + square).is_zero():
            continue  # perturbation accidentally repaired the law; skip
        nu_bad = deformation_tables(rho, [m1, bad], modm)
        if is_homomorphism(Gm, nu_bad, modm):
            ok = False
        count += 1
    res.record("defining-system law iff deformation is a homomorphism", ok, count)

    return res
