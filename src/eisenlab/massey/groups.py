"""Finite groups as explicit multiplication tables."""

from __future__ import annotations

import numpy as np


class FiniteGroup:
    """Group on elements 0..n-1 with a full multiplication table.

    Associativity, identity, and inverses are checked on construction
    (table sizes here are <= 36, so the cubic check is cheap).
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
        idents = [e for e in range(n) if np.array_equal(table[e], np.arange(n))
                  and np.array_equal(table[:, e], np.arange(n))]
        if len(idents) != 1:
            raise ValueError("table has no two-sided identity")
        self.identity = idents[0]
        inv = np.full(n, -1, dtype=np.int64)
        for g in range(n):
            js = np.nonzero(table[g] == self.identity)[0]
            if len(js) != 1 or table[js[0], g] != self.identity:
                raise ValueError(f"element {g} has no two-sided inverse")
            inv[g] = js[0]
        self.table = table
        self.inverse = inv
        self.order = n
        self.name = name or f"group{n}"

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.order})"


def cyclic(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, name=f"Z/{n}")


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    nG, nH = G.order, H.order
    n = nG * nH
    table = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        g1, h1 = divmod(a, nH)
        for b in range(n):
            g2, h2 = divmod(b, nH)
            table[a, b] = G.table[g1, g2] * nH + H.table[h1, h2]
    return FiniteGroup(table, name=f"{G.name} x {H.name}")


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
    return FiniteGroup(table, name=f"D{k}")
