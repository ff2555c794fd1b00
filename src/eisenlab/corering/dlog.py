"""Discrete logarithm tables in F_N^* and power-residue tests.

Tables are built by full enumeration of the powers of the smallest
generator, doubled in int64 blocks (products of two residues below 2^26
are exact); this is cheap and avoids Pohlig-Hellman machinery.
The composite map x -> table[x] mod p^s realizes a surjection
F_N^* ->> Z/p^s whenever p^s | N - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
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
    """Lookup table x -> log_g(x) for x in [1, N), and its inverse.

    ``powers`` is the read-only int64 array k -> g^k mod N for k in [0, N-1),
    so a function on F_N^* evaluated at ``powers`` is in log order.
    """

    N: int
    g: int
    table: list[int] = field(repr=False)
    powers: np.ndarray = field(repr=False)


@lru_cache(maxsize=64)
def build_dlog_table(N: int) -> DlogTable:
    if not sympy.isprime(N):
        raise ValueError(f"N = {N} is not prime")
    if N >= _DLOG_TABLE_LIMIT:
        raise ValueError(f"N = {N} too large for a full dlog table")
    g = smallest_generator(N)
    powers = np.empty(N - 1, dtype=np.int64)
    powers[0] = 1
    k = 1
    while k < N - 1:  # powers[k:2k] = g^k * powers[:k]
        m = min(k, N - 1 - k)
        powers[k : k + m] = powers[:m] * pow(g, k, N) % N
        k += m
    powers.setflags(write=False)
    table = np.zeros(N, dtype=np.int64)
    table[powers] = np.arange(N - 1, dtype=np.int64)
    return DlogTable(N=N, g=g, table=table.tolist(), powers=powers)


def is_power(x: int, N: int, q: int) -> bool:
    """True iff x is a q-th power in F_N^*, for a prime power q | N-1."""
    if (N - 1) % q != 0:
        raise ValueError(f"q = {q} does not divide N-1 = {N - 1}")
    x %= N
    if x == 0:
        raise ValueError(f"x = {x} is not a unit mod {N}")
    return pow(x, (N - 1) // q, N) == 1
