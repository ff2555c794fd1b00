"""Defining systems, Massey powers, matrix coordinates, and the unipotent
concatenation obstruction.

Sign convention.  With the standard differential used throughout
(``cochains.coboundary``), the defining-system law reads

    d a(i,j) = - sum_{k=i}^{j-1} a(i,k) cup a(k+1,j),

which is exactly the condition making the upper-unipotent matrices of a
defining system homomorphisms, and making a chain of deformation
coefficients multiplicative.  The obstruction cocycle keeps its usual
formula c(D) = sum a(1,k) cup a(k+1,n); a concatenating corner entry is a
primitive of -c(D).  Vanishing statements are unaffected by the sign.
"""

from __future__ import annotations

import numpy as np

from ..corering.linalg import matmul_mod
from ..corering.zmod import Modulus
from .cochains import (
    Cochain,
    CoeffModule,
    _is_matrix_homomorphism,
    coboundary,
    cup,
    vanishes_in_h2,
)
from .groups import FiniteGroup


class InvalidDefiningSystem(Exception):
    pass


class DefiningSystem:
    """Table {a(i,j) : 1 <= i <= j <= n, (i,j) != (1,n)} of 1-cochains.

    Raises InvalidDefiningSystem unless every entry is present and the
    defining-system law d a(i,j) + sum_k a(i,k) cup a(k+1,j) = 0 holds.
    """

    def __init__(self, module: CoeffModule, n: int, table: dict[tuple[int, int], Cochain]):
        if n < 2:
            raise ValueError("need n >= 2")
        self.module = module
        self.n = n
        self.table = table
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if (i, j) == (1, n):
                    continue
                if (i, j) not in table:
                    raise InvalidDefiningSystem(f"missing entry a({i},{j})")
        self.validate()

    @classmethod
    def for_power(cls, a: Cochain, chain: list[Cochain]):
        """Defining system for the k-th Massey power, k = len(chain) + 2.

        chain holds m_2, ..., m_{k-1}; m_1 = a.  Entries are
        a(i,j) = m_{j-i+1}.
        """
        ms = [a] + list(chain)
        k = len(ms) + 1
        table = {}
        for i in range(1, k + 1):
            for j in range(i, k + 1):
                if (i, j) == (1, k):
                    continue
                table[(i, j)] = ms[j - i]
        return cls(a.module, k, table)

    @property
    def power_chain(self) -> list[Cochain]:
        """m_1, ..., m_{n-1} when the system is a power system."""
        return [self.table[(1, j)] for j in range(1, self.n)]

    def validate(self):
        for i in range(1, self.n + 1):
            for j in range(i, self.n + 1):
                if (i, j) == (1, self.n):
                    continue
                lhs = coboundary(self.table[(i, j)])
                for k in range(i, j):
                    lhs = lhs + cup(self.table[(i, k)], self.table[(k + 1, j)])
                if not lhs.is_zero():
                    raise InvalidDefiningSystem(
                        f"defining-system law fails at a({i},{j})"
                    )


def massey_product_cocycle(D: DefiningSystem) -> Cochain:
    """c(D) = sum_{k=1}^{n-1} a(1,k) cup a(k+1,n); asserted to be a cocycle."""
    n = D.n
    acc = None
    for k in range(1, n):
        term = cup(D.table[(1, k)], D.table[(k + 1, n)])
        acc = term if acc is None else acc + term
    if not coboundary(acc).is_zero():
        raise InvalidDefiningSystem("c(D) is not a 2-cocycle")
    return acc


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
    if D.module.kind != "matrix" or not D.module.is_diagonal():
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
    if D.module.kind != "matrix" or not D.module.is_diagonal():
        raise ValueError("index shift needs End(chi1 + chi2) coefficients")
    r = D.n
    if r < 3:
        raise ValueError("need a power system of length >= 3")
    chain = D.power_chain  # m_1 ... m_{r-1}
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
    Dp = DefiningSystem.for_power(chain_p[0], chain_p[1:])
    return Dp, massey_product_cocycle(Dp)


# -- unipotent picture -------------------------------------------------------


def _require_trivial_scalar(module: CoeffModule):
    if module.kind != "scalar" or np.any(module.char != 1):
        raise ValueError("unipotent construction needs trivial scalar coefficients")


def unipotent_pair(D: DefiningSystem) -> tuple[np.ndarray, np.ndarray]:
    """The two n x n upper-unipotent homomorphisms determined by D.

    nu1 uses entries a(i, j) with j <= n-1, nu2 the shift by one; they
    share an (n-1) x (n-1) block.  Both are verified homomorphisms.
    """
    _require_trivial_scalar(D.module)
    G = D.module.group
    n = D.n
    m = G.order
    nu1 = np.zeros((m, n, n), dtype=np.int64)
    nu2 = np.zeros((m, n, n), dtype=np.int64)
    for r in range(n):
        nu1[:, r, r] = 1
        nu2[:, r, r] = 1
    for i in range(1, n):
        for j in range(i, n):
            nu1[:, i - 1, j] = D.table[(i, j)].table
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            nu2[:, i - 2, j - 1] = D.table[(i, j)].table
    for nu in (nu1, nu2):
        if not _is_matrix_homomorphism(G, nu, D.module.modulus):
            raise InvalidDefiningSystem("defining system does not give unipotent homs")
    return nu1, nu2


def unipotent_concatenation(D: DefiningSystem):
    """Concatenate the unipotent pair of D into an (n+1) x (n+1) hom.

    Returns the homomorphism table when the Massey obstruction <...>_D
    vanishes (the corner entry is a primitive of -c(D)); None otherwise.
    """
    _require_trivial_scalar(D.module)
    c = massey_product_cocycle(D)
    ok, prim = vanishes_in_h2(-c)
    if not ok:
        return None
    G = D.module.group
    n = D.n
    m = G.order
    nu = np.zeros((m, n + 1, n + 1), dtype=np.int64)
    for r in range(n + 1):
        nu[:, r, r] = 1
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if (i, j) != (1, n):
                nu[:, i - 1, j] = D.table[(i, j)].table
    nu[:, 0, n] = prim.table
    if not _is_matrix_homomorphism(G, nu, D.module.modulus):
        raise AssertionError("concatenated unipotent map is not a homomorphism")
    return nu


# -- deformations ------------------------------------------------------------


def deformation_tables(rho: np.ndarray, chain: list[Cochain], mod: Modulus) -> np.ndarray:
    """nu_r(g) = rho(g) + sum_j m_j(g) rho(g) eps^j as an (r+1)-vector of
    matrices per group element; multiplication truncates eps^(r+1)."""
    m = rho.shape[0]
    r = len(chain)
    out = np.zeros((m, r + 1, 2, 2), dtype=np.int64)
    out[:, 0] = rho % mod.pM
    for j, mj in enumerate(chain, start=1):
        out[:, j] = matmul_mod(mj.table, rho, mod)
    return out


def is_deformation_homomorphism(G: FiniteGroup, nu: np.ndarray, mod: Modulus) -> bool:
    """Check nu(gh) = nu(g) nu(h) with eps-truncated multiplication."""
    for k in range(nu.shape[1]):
        # [g, h] = sum_i nu(g)_i nu(h)_(k-i)
        acc = sum(matmul_mod(nu[:, None, i], nu[None, :, k - i], mod) for i in range(k + 1))
        if not np.array_equal(acc % mod.pM, nu[G.table, k]):
            return False
    return True


# -- exhaustive oracle on a small cyclic group -------------------------------


def power_defining_systems(a: Cochain, k: int, cocycle_pool: list[Cochain]):
    """All defining systems for <a>^k with chain entries enumerated level
    by level.

    The solution set of each d m_i = -sum_{j<i} m_j cup m_{i-j} is a coset
    of Z^1, so a particular solution shifted by every pool cocycle
    enumerates all defining systems over the pool's span; a branch dies
    when some level is unsolvable.
    """
    systems: list[DefiningSystem] = []

    def rec(ms: list[Cochain]):
        i = len(ms) + 1  # index of the next chain entry m_i
        if i > k - 1:
            systems.append(DefiningSystem.for_power(ms[0], ms[1:]))
            return
        rhs = None
        for j in range(1, i):
            term = cup(ms[j - 1], ms[i - 1 - j])
            rhs = term if rhs is None else rhs + term
        ok, part = vanishes_in_h2(-rhs)
        if not ok:
            return
        for z in cocycle_pool:
            rec(ms + [part + z])

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
