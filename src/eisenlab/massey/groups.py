"""Finite groups as explicit multiplication tables."""

from __future__ import annotations

import numpy as np


class FiniteGroup:
    """Group on elements 0..n-1 with a full multiplication table.

    Associativity, identity, and inverses are checked on construction
    (table sizes here are <= 36, so the cubic check is cheap).
    ``generators`` generates the group: each smallest element outside the
    subgroup generated so far, or ``(identity,)`` for the trivial group.
    """

    def __init__(self, table: np.ndarray, name: str = ""):
        table = np.asarray(table, dtype=np.int64)
        n = table.shape[0]
        if table.shape != (n, n):
            raise ValueError("multiplication table must be square")
        if table.min() < 0 or table.max() >= n:
            raise ValueError("table entries out of range")
        # associativity: table[table[i,j],k] == table[i,table[j,k]]
        if not np.array_equal(table[table, :], table[:, table]):
            raise ValueError("multiplication table is not associative")
        idx = np.arange(n)
        idents = np.flatnonzero((table == idx).all(axis=1) & (table.T == idx).all(axis=1))
        if idents.size != 1:
            raise ValueError("table has no two-sided identity")
        self.identity = int(idents[0])
        hits = table == self.identity
        inv = hits.argmax(axis=1)
        bad = (hits.sum(axis=1) != 1) | (table[inv, idx] != self.identity)
        if bad.any():
            raise ValueError(f"element {bad.argmax()} has no two-sided inverse")
        self.table = table
        self.inverse = inv
        self.order = n
        self.name = name or f"group{n}"
        self.generators = self._greedy_generators()

    def _greedy_generators(self) -> tuple[int, ...]:
        gens: list[int] = []
        inside = np.zeros(self.order, dtype=bool)
        inside[self.identity] = True
        for g in range(self.order):
            if inside[g]:
                continue
            gens.append(g)
            inside[g] = True
            while True:  # close up: each step squares the reached set
                reached = np.flatnonzero(inside)
                inside[self.table[np.ix_(reached, reached)]] = True
                if np.count_nonzero(inside) == reached.size:
                    break
        return tuple(gens) or (self.identity,)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.order})"


def cyclic(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, name=f"Z/{n}")


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Pairs (g, h) as g * |H| + h, multiplied componentwise."""
    nH = H.order
    table = G.table[:, None, :, None] * nH + H.table[None, :, None, :]
    return FiniteGroup(table.reshape(G.order * nH, G.order * nH), name=f"{G.name} x {H.name}")


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group S_n as permutation composition (n <= 4 is plenty)."""
    from itertools import permutations

    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    table = np.zeros((m, m), dtype=np.int64)
    for i, s in enumerate(perms):
        for j, t in enumerate(perms):
            table[i, j] = index[tuple(s[t[k]] for k in range(n))]
    return FiniteGroup(table, name=f"S{n}")


def dihedral(k: int) -> FiniteGroup:
    """Dihedral group of order 2k: elements (r^i, r^i s)."""
    a = np.arange(2 * k)
    i, s = (a % k)[:, None], (a // k)[:, None]
    j, t = i.T, s.T
    table = np.where(s == 0, (i + j) % k + k * t, (i - j) % k + k * (1 - t))
    return FiniteGroup(table, name=f"D{k}")
