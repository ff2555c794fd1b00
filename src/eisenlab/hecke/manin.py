"""The plus quotient of weight-2 Manin symbols for Gamma_0(N), N prime, over Z/p^M.

Hecke operators are read on V+ = V / (1 - star)V, the weight-2 modular
symbols modulo the star involution (c:d)|star = (-c:d).  It is free of rank
g+1 over Z/p^M and is built directly (Cremona, *Algorithms for Modular
Elliptic Curves*, 2.2-2.4): the free module on P^1(Z/N) modulo

* x + x|sigma = 0, sigma = [[0,-1],[1,0]], (c:d)|sigma = (d:-c);
* x - x|star = 0;
* x + x|tau + x|tau^2 = 0, tau = [[0,-1],[1,-1]], (c:d)|tau = (d:-c-d).

The first two are folded by substitution.  Sigma and star generate a Klein
four-group on P^1; each orbit becomes one column, represented by its
smallest point, and its members carry the sign of the group element that
reaches them (-1 for sigma and sigma*star).  An orbit reached with both
signs is zero, since 2 is a unit (p > 3).  Each tau-orbit then gives one
relation row with at most 3 entries, and the rows are solved by sparse
Gauss-Jordan with unit pivots chosen Markowitz style.  Rows left without a
unit pivot must vanish, and the quotient rank must be exactly g+1; together
these certify that V+ is free of the expected rank.

Points are indexed 0 <-> (0:1) and 1+d <-> (1:d).  T_ell acts through
Merel's (1994) family of Heilbronn matrices of determinant ell.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..corering.linalg import kernel_of_free_summand, matmul_mod
from ..corering.zmod import Modulus

_HEILBRONN_CACHE: dict[int, list[tuple[int, int, int, int]]] = {}


def genus_x0(N: int) -> int:
    """Genus of X_0(N) for prime N >= 5."""
    r = N % 12
    return {1: (N - 13) // 12, 5: (N - 5) // 12, 7: (N - 7) // 12, 11: (N + 1) // 12}[r]


def heilbronn_matrices(n: int) -> list[tuple[int, int, int, int]]:
    """Merel's family of integer matrices of determinant n driving T_n."""
    if n in _HEILBRONN_CACHE:
        return _HEILBRONN_CACHE[n]
    out = []
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                for b in range(a):
                    out.append((a, b, 0, d))
                for c in range(1, d):
                    out.append((a, 0, c, d))
            else:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        out.append((a, b, bc // b, d))
    _HEILBRONN_CACHE[n] = out
    return out


def _sparse_eliminate(rows: list[dict[int, int]], p: int, pM: int) -> dict[int, dict[int, int]]:
    """Sparse Gauss-Jordan over Z/pM with unit pivots only; `rows` (dicts
    column -> nonzero residue) are reduced in place.

    Each step takes the shortest row that holds a unit, and in it the unit
    entry whose column meets the fewest rows.  Returns {pivot column: row},
    every row scaled to 1 at its pivot and free of all other pivot columns.
    A row with no unit entry keeps none under elimination (only multiples
    of p are added to it), so if it is nonzero at the end the cokernel has
    p-torsion and ArithmeticError is raised.
    """
    col_rows: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    heap = [(len(row), r) for r, row in enumerate(rows)]
    heapq.heapify(heap)
    pivots: dict[int, dict[int, int]] = {}
    used: set[int] = set()
    while heap:
        length, r = heapq.heappop(heap)
        if r in used or length != len(rows[r]):
            continue  # stale entry; the row was pushed again when it changed
        units = [c for c, v in rows[r].items() if v % p]
        if not units:
            continue
        c = min(units, key=lambda j: len(col_rows[j]))
        inv = pow(rows[r][c], -1, pM)
        row = rows[r] = {j: v * inv % pM for j, v in rows[r].items()}
        used.add(r)
        pivots[c] = row
        for r2 in col_rows.pop(c):
            if r2 == r:
                continue
            other = rows[r2]
            f = other.pop(c)
            for j, v in row.items():
                if j == c:
                    continue
                w = (other.get(j, 0) - f * v) % pM
                if w:
                    if j not in other:
                        col_rows[j].add(r2)
                    other[j] = w
                elif j in other:
                    del other[j]
                    col_rows[j].discard(r2)
            if r2 not in used:
                heapq.heappush(heap, (len(other), r2))
    if any(rows[r] for r in range(len(rows)) if r not in used):
        raise ArithmeticError("three-term relations have p-torsion cokernel")
    return pivots


class ManinSpace:
    """The plus quotient V+ (rank g+1) of weight-2 modular symbols mod p^M.

    Exposes the Hecke operators on V+, the boundary functional to the cusp
    oo (the cusp 0 carries its negative), and the cuspidal plus subspace,
    its kernel (rank g).
    """

    def __init__(self, N: int, modulus: Modulus):
        if N < 11:
            raise ValueError(f"N = {N} has genus 0; no cuspidal symbols (need N >= 11)")
        self.N = N
        self.modulus = modulus
        self.genus = genus_x0(N)
        inv = np.zeros(N, dtype=np.int64)
        inv[1] = 1
        for c in range(2, N):
            # inv[c] = -(N // c) * inv[N % c] mod N
            inv[c] = (-(N // c) * inv[N % c]) % N
        self._inv = inv
        self._certified: dict[int, np.ndarray] = {}  # ell -> read-only T_ell
        self._build_relations()
        self._build_boundary()

    def _index(self, c: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Indices of the points (c:d) of P^1(Z/N), elementwise."""
        N = self.N
        c = c % N
        return np.where(c == 0, 0, 1 + (d % N) * self._inv[c] % N)

    def _relations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[dict[int, int]]]:
        """(rep, sign, rep_points, rows): the Klein four-group folded, and one
        three-term row per tau-orbit, in increasing order of its smallest point."""
        N, pM = self.N, self.modulus.pM
        npts = N + 1
        c = np.ones(npts, dtype=np.int64)
        c[0] = 0
        d = np.arange(-1, N, dtype=np.int64)
        d[0] = 1

        # fold the Klein four-group {1, sigma, star, sigma*star}: an orbit is
        # represented by its smallest point m, and a point x carries the sign
        # of the group elements taking x to m (each is its own inverse)
        images = np.stack(
            [np.arange(npts), self._index(d, -c), self._index(-c, d), self._index(d, c)]
        )
        least = images.min(axis=0)
        at_least = images == least
        plus = at_least[[0, 2]].any(axis=0)
        minus = at_least[[1, 3]].any(axis=0)
        sign = np.where(plus & minus, 0, np.where(plus, 1, -1))  # x = -x, 2 a unit
        rep_points = np.flatnonzero((images[0] == least) & (sign != 0))
        rep = np.where(sign != 0, np.searchsorted(rep_points, least), 0)

        # three-term relations on the representatives, one row per tau-orbit
        # led by its smallest point; a tau-fixed point gives the row i, i, i
        tau = np.stack([np.arange(npts), self._index(d, -c - d), self._index(-c - d, c)])
        lead = tau[:, tau[0] == tau.min(axis=0)]  # 3 x (number of tau-orbits)
        cols, signs = rep[lead], sign[lead]
        live = signs != 0
        # same[a, b]: places a and b of a row hit one column; its coefficient
        # is summed at the first such place, in the order i, tau(i), tau^2(i)
        same = (cols[:, None] == cols[None, :]) & live[:, None] & live[None, :]
        earlier = np.tri(3, k=-1, dtype=bool)[:, :, None]  # b < a
        first = live & ~(same & earlier).any(axis=1)
        vals = np.where(first, (same * signs[None]).sum(axis=1) % pM, 0)
        rows = [
            {col: v for col, v in zip(cs, vs) if v}
            for cs, vs in zip(cols.T.tolist(), vals.T.tolist())
        ]
        return rep, sign, rep_points, [row for row in rows if row]

    def _build_relations(self):
        p, pM = self.modulus.p, self.modulus.pM
        rep, sign, rep_points, rows = self._relations()
        ncols = len(rep_points)
        pivots = _sparse_eliminate(rows, p, pM)
        free = [col for col in range(ncols) if col not in pivots]
        if len(free) != self.genus + 1:
            raise ArithmeticError(
                f"plus quotient has rank {len(free)}, expected {self.genus + 1}"
            )

        # coordinates of every orbit over the free columns
        expr = np.zeros((ncols, len(free)), dtype=np.int64)
        position = {col: k for k, col in enumerate(free)}
        for k, col in enumerate(free):
            expr[col, k] = 1
        for col, row in pivots.items():
            for j, v in row.items():
                if j != col:
                    expr[col, position[j]] = -v % pM

        self.dim = len(free)
        self.relation_rank = len(pivots)
        self._rep = rep
        self._sign = sign
        self._expr = expr
        basis = rep_points[free]
        self._basis_c = np.where(basis == 0, 0, 1)
        self._basis_d = np.where(basis == 0, 1, basis - 1)

    def _build_boundary(self):
        # the symbol (c:d) = g{0, oo} has boundary [a/c] - [b/d]; for N prime
        # a cusp x/y is oo when N | y and 0 otherwise
        mod = self.modulus
        c, d = self._basis_c % self.N, self._basis_d % self.N
        self.boundary = ((c == 0).astype(np.int64) - (d == 0)) % mod.pM
        self.cuspidal_plus_in_plus = kernel_of_free_summand(self.boundary[None, :], mod)
        if self.cuspidal_plus_in_plus.shape[1] != self.genus:
            raise ArithmeticError("boundary functional is not a unit functional on V+")

    # -- Hecke action ------------------------------------------------------

    def hecke_images(self, ell: int, c: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Columns: T_ell of each Manin symbol (c[k]:d[k]), in the basis of V+."""
        if ell % self.N == 0:
            raise ValueError(f"ell = {ell} is divisible by N = {self.N}")
        c = np.asarray(c, dtype=np.int64)
        d = np.asarray(d, dtype=np.int64)
        out = np.zeros((self.dim, len(c)), dtype=np.int64)
        for (a, b, cc, dd) in heilbronn_matrices(ell):
            i = self._index(c * a + d * cc, c * b + d * dd)
            out += (self._expr[self._rep[i]] * self._sign[i][:, None]).T
        return out % self.modulus.pM

    def hecke_full(self, ell: int) -> np.ndarray:
        """Matrix of T_ell on V+ (rank g+1)."""
        return self.hecke_images(ell, self._basis_c, self._basis_d)

    def hecke_on_plus(self, ell: int) -> np.ndarray:
        """Matrix of T_ell on V+, certified on the Eisenstein boundary.

        The boundary functional must be an eigenvector of the transpose
        action with eigenvalue ell + 1.  Each T_ell is built and certified
        once per space and returned read-only.
        """
        if ell in self._certified:
            return self._certified[ell]
        mod = self.modulus
        T = self.hecke_full(ell)
        if np.any(matmul_mod(self.boundary, T, mod) != (ell + 1) * self.boundary % mod.pM):
            raise ArithmeticError(f"T_{ell} is not {ell}+1 on the Eisenstein boundary line")
        T.setflags(write=False)
        self._certified[ell] = T
        return T


def build_manin_space(N: int, modulus: Modulus) -> ManinSpace:
    return ManinSpace(N, modulus)
