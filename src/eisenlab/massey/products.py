"""Defining systems, Massey powers, matrix coordinates, and the unipotent
concatenation obstruction.

A defining system for the Massey power <m_1>^n is a chain m_1, ..., m_{n-1}
of 1-cochains; its (i,j) entry in the general table is a(i,j) = m_{j-i+1}
(Dwyer's dictionary between defining systems and upper-unipotent
representations).  Write cup_sum(m_1, ..., m_{i-1}) for
sum_{k=1}^{i-1} m_k cup m_{i-k}.

Sign convention.  With the standard differential used throughout
(``cochains.coboundary``), the defining-system law reads

    d m_1 = 0,    d m_i + cup_sum(m_1, ..., m_{i-1}) = 0   (2 <= i <= n-1),

which is exactly the condition making the upper-unipotent matrix with m_l
on its l-th superdiagonal a homomorphism, and making the chain of
deformation coefficients multiplicative.  The obstruction cocycle is
c(D) = cup_sum(m_1, ..., m_{n-1}); a next entry m_n, the concatenating
corner of the unipotent picture, is a primitive of -c(D).  Vanishing
statements are unaffected by the sign.
"""

from __future__ import annotations

import numpy as np

from ..corering.linalg import matmul_mod
from ..corering.zmod import Modulus
from .cochains import (
    Cochain,
    CoeffModule,
    coboundary,
    cup,
    is_cocycle,
    is_homomorphism,
    vanishes_in_h2,
)


class InvalidDefiningSystem(Exception):
    pass


def cup_sum(chain: list[Cochain]) -> Cochain:
    """sum_{k=1}^{i-1} m_k cup m_{i-k} for chain = [m_1, ..., m_{i-1}]."""
    last = len(chain) - 1
    acc = cup(chain[0], chain[last])
    for k in range(1, last + 1):
        acc = acc + cup(chain[k], chain[last - k])
    return acc


class DefiningSystem:
    """Defining system for <m_1>^n, held as its chain m_1, ..., m_{n-1}.

    Raises InvalidDefiningSystem unless the defining-system law holds for
    every entry of the chain.
    """

    def __init__(self, chain: list[Cochain]):
        if not chain:
            raise ValueError("need n >= 2")
        self.chain = list(chain)
        self.module = chain[0].module
        self.n = len(chain) + 1
        for i, m in enumerate(self.chain, start=1):
            law = coboundary(m) if i == 1 else coboundary(m) + cup_sum(self.chain[: i - 1])
            if not law.is_zero():
                raise InvalidDefiningSystem(f"defining-system law fails at m_{i}")


def massey_product_cocycle(D: DefiningSystem) -> Cochain:
    """c(D) = cup_sum(m_1, ..., m_{n-1}).

    The law checked when D was built makes c(D) a cocycle.  This is not
    re-checked here: ``vanishes_in_h2`` checks every 2-cochain it decides,
    and ``shifted_system``, which decides nothing, checks its own.
    """
    return cup_sum(D.chain)


def massey_power_vanishes(D: DefiningSystem) -> bool:
    ok, _ = vanishes_in_h2(massey_product_cocycle(D))
    return ok


# -- matrix coordinates ------------------------------------------------------


def coordinate_relation(D: DefiningSystem, coord: tuple[int, int]) -> bool:
    """Massey relation for <M_1>^n_D in the (s,t) matrix coordinate.

    Requires End of a diagonal pair of characters: the (s,t) entry of the
    obstruction matrix is then a 2-cocycle valued in the twisted module
    chi_s chi_t^(-1), and the relation holds iff it is a coboundary there.
    """
    s, t = coord
    if s not in (1, 2) or t not in (1, 2):
        raise ValueError("coordinate indices must be in {1, 2}")
    if not D.module.is_diagonal():
        raise ValueError("coordinate relations need End(chi1 + chi2) coefficients")
    z = massey_product_cocycle(D)
    ok, _ = vanishes_in_h2(z.entry(s, t))
    return ok


def shifted_system(D: DefiningSystem) -> tuple[DefiningSystem, Cochain]:
    """Index-shifted defining system over End(nu') for the (2,1) relation.

    From a power system D = {M_1, ..., M_{r-1}} over End(chi1 + chi2),
    builds M'_i with coordinates (a11^(i), a12^(i-1); a21^(i+1), a22^(i)),
    a12^(0) = 0, over End(nu') where nu' is lower-triangular with the
    (2,1)-entry chi1 * a21^(1).  Returns (D', c) where c is the shifted
    obstruction cocycle; its vanishing matches the (2,1) relation of D.
    """
    if not D.module.is_diagonal():
        raise ValueError("index shift needs End(chi1 + chi2) coefficients")
    r = D.n
    if r < 3:
        raise ValueError("need a power system of length >= 3")
    chain = D.chain  # m_1 ... m_{r-1}
    G = D.module.group
    chi1, _ = D.module.diagonal_characters()
    q = D.module.modulus.pM
    a21_1 = chain[0].table[:, 1, 0]
    end_nu = D.module.with_lower_entry(chi1 * a21_1)

    # Conjugating the order-(r-1) deformation by diag(eps, 1) shifts the
    # (1,2) coordinates down and the (2,1) coordinates up by one eps-degree
    # and replaces the base representation by nu'.  Re-expressing the
    # resulting deformation as nu' + sum m'_i nu' eps^i introduces the
    # a21^(1) cross terms below.
    def mprime(i: int) -> Cochain:
        a11 = chain[i - 1].table[:, 0, 0]
        a22 = chain[i - 1].table[:, 1, 1]
        a12 = chain[i - 2].table[:, 0, 1] if i >= 2 else np.zeros(G.order, np.int64)
        a21 = chain[i].table[:, 1, 0]  # index i + 1
        tbl = np.zeros((G.order, 2, 2), dtype=np.int64)
        tbl[:, 0, 0] = (a11 - a12 * a21_1) % q
        tbl[:, 0, 1] = a12
        tbl[:, 1, 0] = (a21 - a22 * a21_1) % q
        tbl[:, 1, 1] = a22
        return Cochain(end_nu, 1, tbl)

    chain_p = [mprime(i) for i in range(1, r - 1)]
    Dp = DefiningSystem(chain_p)
    c = massey_product_cocycle(Dp)
    if not is_cocycle(c):
        raise InvalidDefiningSystem("c(D') is not a 2-cocycle")
    return Dp, c


# -- unipotent picture and deformations --------------------------------------


def deformation_tables(rho: np.ndarray, chain: list[Cochain], mod: Modulus) -> np.ndarray:
    """nu_r(g) = rho(g) + sum_j m_j(g) rho(g) eps^j, r = len(chain), as the
    (r+1)d x (r+1)d block upper-triangular Toeplitz matrix whose block (i, j)
    is the eps^(j-i) coefficient (d x d, d = rho.shape[1]).

    A product of two such matrices is the matrix of the eps-truncated
    product, so nu_r is a homomorphism mod eps^(r+1) iff ``is_homomorphism``
    accepts the table.
    """
    m, d = rho.shape[:2]
    size = len(chain) + 1
    coeffs = [rho % mod.pM] + [matmul_mod(mj.table.reshape(m, d, d), rho, mod) for mj in chain]
    out = np.zeros((m, size, d, size, d), dtype=np.int64)
    for i in range(size):
        for j in range(i, size):
            out[:, i, :, j] = coeffs[j - i]
    return out.reshape(m, size * d, size * d)


def _trivial_character(module: CoeffModule) -> np.ndarray:
    """The trivial character as a table of 1 x 1 matrices; the unipotent
    picture is the deformation of it by a chain of scalar cochains."""
    if module.kind != "scalar" or np.any(module.char != 1):
        raise ValueError("unipotent construction needs trivial scalar coefficients")
    return module.char.reshape(-1, 1, 1)


def unipotent_hom(D: DefiningSystem) -> np.ndarray:
    """The n x n upper-unipotent homomorphism of D, m_l on the l-th
    superdiagonal; verified to be a homomorphism."""
    mod = D.module.modulus
    nu = deformation_tables(_trivial_character(D.module), D.chain, mod)
    if not is_homomorphism(D.module.group, nu, mod):
        raise InvalidDefiningSystem("defining system does not give a unipotent hom")
    return nu


def unipotent_concatenation(D: DefiningSystem):
    """Extend the unipotent hom of D to an (n+1) x (n+1) hom.

    Returns the homomorphism table when the Massey obstruction <...>_D
    vanishes (the corner entry is a primitive of -c(D)); None otherwise.
    """
    trivial = _trivial_character(D.module)
    ok, prim = vanishes_in_h2(-massey_product_cocycle(D))
    if not ok:
        return None
    mod = D.module.modulus
    nu = deformation_tables(trivial, D.chain + [prim], mod)
    if not is_homomorphism(D.module.group, nu, mod):
        raise AssertionError("concatenated unipotent map is not a homomorphism")
    return nu


# -- exhaustive oracle on a small cyclic group -------------------------------


def power_defining_systems(a: Cochain, k: int, cocycle_pool: list[Cochain]):
    """All defining systems for <a>^k with chain entries enumerated level
    by level.

    The solution set of each d m_i = -cup_sum(m_1, ..., m_{i-1}) is a coset
    of Z^1, so a particular solution shifted by every pool cocycle
    enumerates all defining systems over the pool's span; a branch dies
    when some level is unsolvable.
    """
    systems: list[DefiningSystem] = []

    def rec(chain: list[Cochain]):
        if len(chain) == k - 1:
            systems.append(DefiningSystem(chain))
            return
        ok, part = vanishes_in_h2(-cup_sum(chain))
        if not ok:
            return
        for z in cocycle_pool:
            rec(chain + [part + z])

    rec([a])
    return systems


def massey_power_vanishes_somewhere(a: Cochain, k: int, cocycle_pool: list[Cochain]):
    """Brute-force: does <a>^k vanish for SOME defining system over the pool?

    Returns (vanishes, n_systems).  When no defining system exists at all,
    returns (None, 0) -- the power is undefined at this k.
    """
    systems = power_defining_systems(a, k, cocycle_pool)
    if not systems:
        return None, 0
    for D in systems:
        if massey_power_vanishes(D):
            return True, len(systems)
    return False, len(systems)
