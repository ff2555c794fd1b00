"""Discrete logarithm tables in F_N^* and power-residue tests.

Tables are built by full enumeration of the powers of the smallest
generator; at N < 2^26 this is cheap and avoids Pohlig-Hellman machinery.
The composite map x -> table[x] mod p^s realizes a surjection
F_N^* ->> Z/p^s whenever p^s | N - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import sympy

_DLOG_TABLE_LIMIT = 1 << 26


def _prime_factors(n: int) -> list[int]:
    return sorted(sympy.factorint(n))


def smallest_generator(N: int) -> int:
    """Smallest g in [2, N) generating F_N^*."""
    facs = _prime_factors(N - 1)
    g = 2
    while any(pow(g, (N - 1) // q, N) == 1 for q in facs):
        g += 1
    return g


@dataclass
class DlogTable:
    """Lookup table x -> log_g(x) for x in [1, N)."""

    N: int
    g: int
    table: list[int] = field(repr=False)

    def log(self, x: int) -> int:
        x %= self.N
        if x == 0:
            raise ValueError(f"{x} is not invertible mod {self.N}")
        return self.table[x]


@lru_cache(maxsize=64)
def build_dlog_table(N: int) -> DlogTable:
    if not sympy.isprime(N):
        raise ValueError(f"N = {N} is not prime")
    if N >= _DLOG_TABLE_LIMIT:
        raise ValueError(f"N = {N} too large for a full dlog table")
    g = smallest_generator(N)
    table = [0] * N
    acc = 1
    for k in range(N - 1):
        table[acc] = k
        acc = (acc * g) % N
    return DlogTable(N=N, g=g, table=table)


def is_power(x: int, N: int, q: int) -> bool:
    """True iff x is a q-th power in F_N^*, for a prime power q | N-1."""
    if (N - 1) % q != 0:
        raise ValueError(f"q = {q} does not divide N-1 = {N - 1}")
    x %= N
    if x == 0:
        raise ValueError(f"x = {x} is not a unit mod {N}")
    return pow(x, (N - 1) // q, N) == 1
