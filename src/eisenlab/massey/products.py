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

Systems grow by extension.  The law for m_n is d m_n + c(D) = 0 with D the
system m_1, ..., m_{n-1}, so ``DefiningSystem.extend`` checks it against
D's cached obstruction, and a chain is built as m_1 extended entry by
entry: each law is checked once, with no cup product beyond the parents'
obstructions.  Once D's laws hold, c(D) is a 2-cocycle, and so is
d m_n + c(D); the law is therefore decided on the generator rows G x S
only (``cochains`` module docstring), through the differential that
``is_cocycle`` uses for the law d m_1 = 0.
"""

from __future__ import annotations

import functools

import numpy as np

from ..corering.linalg import matmul_mod
from ..corering.zmod import Modulus
from .cochains import (
    Cochain,
    CoeffModule,
    _differential,
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
    every entry of the chain: m_1 is checked by ``is_cocycle`` and every
    later entry by ``extend`` on the system before it, so the constructor
    is m_1 extended entry by entry.  Its obstruction c(D) and the H^2
    decision of c(D) are each built once, on first use.  The law makes c(D)
    a cocycle, and it is not re-checked here: ``vanishes_in_h2`` checks
    every 2-cochain it decides, and ``shifted_system``, which decides
    nothing, checks its own.
    """

    def __init__(self, chain: list[Cochain]):
        if not chain:
            raise ValueError("need n >= 2")
        if not is_cocycle(chain[0]):
            raise InvalidDefiningSystem("defining-system law fails at m_1")
        D = DefiningSystem._lawful(chain[:1])
        for m in chain[1:]:
            D = D.extend(m)
        self.chain, self.module, self.n = D.chain, D.module, D.n

    @classmethod
    def _lawful(cls, chain: list[Cochain]) -> "DefiningSystem":
        """The system of a chain whose laws are known to hold."""
        D = cls.__new__(cls)
        D.chain, D.module, D.n = chain, chain[0].module, len(chain) + 1
        return D

    def extend(self, m: Cochain) -> "DefiningSystem":
        """The system m_1, ..., m_{n-1}, m; raises InvalidDefiningSystem
        unless d m + c(D) = 0, decided on the rows G x S (module docstring)."""
        c = self.obstruction
        if m.degree != 1 or not m.module.compatible(c.module):
            raise ValueError("cochain mismatch")
        gens = list(self.module.group.generators)
        if np.any((_differential(m, gens) + c.table[:, gens]) % c.module.modulus.pM):
            raise InvalidDefiningSystem(f"defining-system law fails at m_{self.n}")
        return DefiningSystem._lawful(self.chain + [m])

    @functools.cached_property
    def obstruction(self) -> Cochain:
        """c(D) = cup_sum(m_1, ..., m_{n-1}), its table read-only."""
        c = cup_sum(self.chain)
        c.table.setflags(write=False)
        return c

    @functools.cached_property
    def h2(self) -> tuple[bool, Cochain | None]:
        """``vanishes_in_h2(-c(D))``: whether c(D) vanishes in H^2, and if
        so a primitive x of -c(D), its table read-only.  The entries that
        extend D are then x + z, z in Z^1."""
        ok, x = vanishes_in_h2(-self.obstruction)
        if ok:
            x.table.setflags(write=False)
        return ok, x


def massey_power_vanishes(D: DefiningSystem) -> bool:
    return D.h2[0]


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
    ok, _ = vanishes_in_h2(D.obstruction.entry(s, t))
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
    c = Dp.obstruction
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
    vanishes (the corner entry is the primitive of -c(D) in ``D.h2``); None
    otherwise.
    """
    trivial = _trivial_character(D.module)
    ok, x = D.h2
    if not ok:
        return None
    mod = D.module.modulus
    nu = deformation_tables(trivial, D.chain + [x], mod)
    if not is_homomorphism(D.module.group, nu, mod):
        raise AssertionError("concatenated unipotent map is not a homomorphism")
    return nu


# -- exhaustive oracle on a small cyclic group -------------------------------


def power_defining_systems(a: Cochain, k: int, cocycle_pool: list[Cochain]):
    """All defining systems for <a>^k with chain entries enumerated level
    by level.

    The solution set of each d m_i = -cup_sum(m_1, ..., m_{i-1}) is a coset
    of Z^1, so the primitive x in ``D.h2`` shifted by every pool cocycle
    enumerates all defining systems over the pool's span, each built by
    ``extend`` from its parent; a branch dies when some level is
    unsolvable.
    """
    systems: list[DefiningSystem] = []

    def rec(D: DefiningSystem):
        if D.n == k:
            systems.append(D)
            return
        ok, x = D.h2
        if not ok:
            return
        for z in cocycle_pool:
            rec(D.extend(x + z))

    rec(DefiningSystem([a]))
    return systems
