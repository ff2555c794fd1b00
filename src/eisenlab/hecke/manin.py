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
relation row with at most 3 entries, with integer coefficients in [-3, 3].

The rows are solved along a spanning tree.  They come in +- pairs (star
conjugates tau to sigma tau^-1 sigma^-1 in PGL2(Z), so the rows of x and of
x|star sigma agree up to sign), and once one of each pair is dropped every
column meets at most two rows.  So rows are vertices and shared columns are
edges; a breadth-first tree from a row with a private unit column pivots
each row on the column it was reached through, a triangular order.  These
hypotheses are checked, and the quotient rank must be exactly g+1; together
this certifies that V+ is free of the expected rank.

The solution is expr, the map writing every column over the g+1 free ones.
It is kept sparse, as CSR: per column, increasing basis indices with
nonzero residues mod p^M (at (20011, 5) 0.4% of a dense expr is nonzero).
A row's other columns are free or its children's pivots, so a free column
enters the pivot column of each row it meets, weighted by -(its
coefficient)/(the pivot), and from there every ancestor's, the weight
multiplied at each step up by the parent row's -(coefficient)/(pivot) at
the child's pivot column.  The fill walks all these paths at once, one
array step per tree level, each product of two residues (below 2^62)
reduced.  A free column meets at most two rows, so a (column, basis index)
pair is reached at most twice, by both paths at their common ancestors:
one sort by that pair and a segment sum of at most two residues merge them.

Points are indexed 0 <-> (0:1) and 1+d <-> (1:d).  T_ell acts through
Merel's (1994) family of Heilbronn matrices of determinant ell: the image
of a basis symbol under each matrix h is a signed column, and expr writes
the columns over the basis, so T_ell = expr^T P with P the signed
incidence of (column, symbol) pairs.  ``_images`` computes these images
and certifies the whole operator on them, once, where it can fail:
boundary . T_ell = (ell + 1) * boundary, read off as the sum over h of
sign * (expr . boundary)[column], with expr . boundary a sparse dot product
per column, computed once per space: each term reduced, then at most g+1
of them summed, below (g+1) p^M.  ``hecke_full`` gathers the sparse rows of
the image columns into the (g+1) x (g+1) T_ell, which the stabilized power
needs; ``hecke_on_plus`` returns it read-only and keeps no copy, since a
report builds it once.  ``hecke_apply`` returns T_q W for a few columns W
without building T_q: P W is an exact int64 scatter of the rows of W, then
expr^T (P W) is a gather of its rows by the map's entries in basis order,
times their residues, summed per basis index, shared by every prime of one
call.  No ncols x (g+1) array exists.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ..corering.dlog import build_dlog_table
from ..corering.zmod import Modulus


def genus_x0(N: int) -> int:
    """Genus of X_0(N) for prime N >= 5."""
    r = N % 12
    return {1: (N - 13) // 12, 5: (N - 5) // 12, 7: (N - 7) // 12, 11: (N + 1) // 12}[r]


@cache
def heilbronn_matrices(n: int) -> list[tuple[int, int, int, int]]:
    """Merel's family of integer matrices of determinant n driving T_n."""
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
    return out


def _tree_solve(cols: np.ndarray, vals: np.ndarray, ncols: int, p: int, pM: int):
    """((indptr, indices, data), free): the quotient of (Z/pM)^ncols by
    relation rows, solved along a spanning tree of their graph.

    Row k holds vals[k, j] (an integer, 0 where absent) at the distinct
    columns cols[k, j].  free lists the free columns in increasing order and
    the CSR map gives every column over them: column c is the sum of
    data[e] times free column indices[e] over indptr[c] <= e < indptr[c + 1],
    with increasing indices and nonzero residues (a free column is itself).
    A zero row, or one exactly +- a kept row, is dropped.  ArithmeticError is
    raised unless each column meets at most two rows, a row holds a column
    no other row holds with a unit coefficient (the root), every row is
    reached from it, and each is a unit at the column it is reached through.
    """
    # canonical form: entries sorted by column, absent last, the first positive
    key = np.where(vals != 0, cols, ncols)
    order = np.argsort(key, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    rows = np.hstack([np.take_along_axis(key, order, axis=1), vals * np.sign(vals[:, :1])])
    rows = rows[np.lexsort(rows.T[::-1])]
    rows = rows[(rows[:, 3] != 0) & np.append(True, np.any(rows[1:] != rows[:-1], axis=1))]
    live = rows[:, 3:] != 0
    cols, vals = np.where(live, rows[:, :3], 0), rows[:, 3:]

    index = np.broadcast_to(np.arange(len(rows))[:, None], cols.shape)
    count = np.bincount(cols[live], minlength=ncols)
    if count.max(initial=0) > 2:
        raise ArithmeticError("a column meets more than two relation rows")
    index_sum = np.bincount(cols[live], weights=index[live], minlength=ncols).astype(np.int64)
    partner = np.where(live & (count[cols] == 2), index_sum[cols] - index, -1)
    private = np.argwhere(live & (count[cols] == 1) & (vals % p != 0))
    if not len(private):
        raise ArithmeticError("no relation row holds a private unit column")

    # breadth-first levels; pivot[k] is the column row k is reached through
    pivot = np.full(len(rows), -1)
    pivot[private[0, 0]] = cols[tuple(private[0])]
    level = private[0, :1]
    while level.size:
        near, via = partner[level], cols[level]
        new = near >= 0
        new[new] = pivot[near[new]] < 0
        pivot[near[new]] = via[new]  # a row reached twice in one level keeps one
        level = near[new][pivot[near[new]] == via[new]]
    if np.any(pivot < 0):
        raise ArithmeticError("relation rows are not connected")
    at_pivot = (cols == pivot[:, None]) & live
    pivot_vals = vals[at_pivot]
    if np.any(pivot_vals % p == 0):
        raise ArithmeticError("a relation row is not a unit at its pivot")

    free = np.flatnonzero(np.bincount(pivot, minlength=ncols) == 0)
    low = int(pivot_vals.min())
    span = range(low, int(pivot_vals.max()) + 1)
    neg_inv = np.array([-pow(u, -1, pM) % pM if u % p else 0 for u in span])[pivot_vals - low]
    # the root's pivot column is private; every other row's pivot column is
    # shared with its parent, whose pivot column's expression holds it with
    # coefficient up[k] (unused at the root)
    parent = np.where(count[pivot] == 2, index_sum[pivot] - np.arange(len(rows)), -1)
    col_sum = np.bincount(cols[live], weights=vals[live], minlength=ncols).astype(np.int64)
    up = neg_inv[parent] * ((col_sum[pivot] - pivot_vals) % pM) % pM

    # a row's other columns are free or its children's pivots, so a free
    # column enters the pivot column of each row it meets and of every
    # ancestor of that row: walk all of those paths up the tree at once
    free_index = np.full(ncols, -1)
    free_index[free] = np.arange(len(free))
    row, j = np.nonzero(live & (free_index[cols] >= 0))
    at, weight = free_index[cols[row, j]], neg_inv[row] * vals[row, j] % pM
    terms = [(free, np.arange(len(free)), np.ones(len(free), dtype=np.int64))]
    while row.size:
        terms.append((pivot[row], at, weight))
        weight, row = weight * up[row] % pM, parent[row]
        at, weight, row = at[row >= 0], weight[row >= 0], row[row >= 0]
    # a free column meets at most two rows, so a (column, free index) pair
    # is reached at most twice: by both paths, at their common ancestors
    column, at, weight = (np.concatenate(t) for t in zip(*terms))
    key = column * len(free) + at
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    data = np.add.reduceat(weight[order], first) % pM
    key, data = key[first][data != 0], data[data != 0]
    indptr = np.searchsorted(key, np.arange(ncols + 1) * len(free))
    return (indptr, key % len(free), data), free


def _segment_sums(terms: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Sums of terms[indptr[i] : indptr[i + 1]] along axis 0 in int64, 0 for
    an empty segment."""
    out = np.zeros((len(indptr) - 1,) + terms.shape[1:], dtype=np.int64)
    nonempty = np.flatnonzero(np.diff(indptr))
    if nonempty.size:
        out[nonempty] = np.add.reduceat(terms, indptr[nonempty], axis=0)
    return out


class ManinSpace:
    """The plus quotient V+ (rank g+1) of weight-2 modular symbols mod p^M.

    Exposes the Hecke operators on V+ and the boundary functional to the
    cusp oo (the cusp 0 carries its negative), a unit functional whose
    kernel is the cuspidal plus subspace (rank g).
    """

    def __init__(self, N: int, modulus: Modulus):
        if N < 11:
            raise ValueError(f"N = {N} has genus 0; no cuspidal symbols (need N >= 11)")
        self.N = N
        self.modulus = modulus
        powers = build_dlog_table(N).powers  # g^k, so 1/g^k = g^(-k)
        self.genus = genus_x0(N)
        self._inv = np.zeros(N, dtype=np.int64)
        self._inv[powers] = powers[-np.arange(N - 1)]
        self._build_relations()
        self._build_boundary()

    def _index(self, c: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Indices of the points (c:d) of P^1(Z/N), elementwise."""
        N = self.N
        c = c % N
        return np.where(c == 0, 0, 1 + (d % N) * self._inv[c] % N)

    def _relations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rep, sign, rep_points, cols, vals): the Klein four-group folded, and
        one three-term row per tau-orbit, in increasing order of its smallest
        point, as R x 3 columns and integer coefficients (0 where absent)."""
        N = self.N
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
        vals = np.where(first, (same * signs[None]).sum(axis=1), 0)
        return rep, sign, rep_points, cols.T, vals.T

    def _build_relations(self):
        rep, sign, rep_points, cols, vals = self._relations()
        (indptr, indices, data), free = _tree_solve(cols, vals, len(rep_points), self.modulus.p, self.modulus.pM)
        if len(free) != self.genus + 1:
            raise ArithmeticError(
                f"plus quotient has rank {len(free)}, expected {self.genus + 1}"
            )
        self.dim = len(free)
        self.relation_rank = len(rep_points) - self.dim
        self._rep = rep
        self._sign = sign
        self._indptr, self._indices, self._data = indptr, indices, data
        # the same entries by basis index, for expr^T
        by_basis = np.argsort(indices, kind="stable")
        self._t_indptr = np.searchsorted(indices[by_basis], np.arange(self.dim + 1))
        self._t_cols = np.repeat(np.arange(len(rep_points)), np.diff(indptr))[by_basis]
        self._t_data = data[by_basis]
        self._t_longest = int(np.diff(self._t_indptr).max())
        basis = rep_points[free]
        self._basis_c = np.where(basis == 0, 0, 1)
        self._basis_d = np.where(basis == 0, 1, basis - 1)

    def _build_boundary(self):
        # the symbol (c:d) = g{0, oo} has boundary [a/c] - [b/d]; for N prime
        # a cusp x/y is oo when N | y and 0 otherwise
        mod = self.modulus
        c, d = self._basis_c % self.N, self._basis_d % self.N
        self.boundary = ((c == 0).astype(np.int64) - (d == 0)) % mod.pM
        terms = self._data * self.boundary[self._indices] % mod.pM
        self._column_boundary = _segment_sums(terms, self._indptr) % mod.pM  # of every column
        # entries are 0 or +-1, so a nonzero functional has a unit pivot, and
        # its kernel, the cuspidal part of V+, is free of rank genus
        if not self.boundary.any():
            raise ArithmeticError("boundary functional is not a unit functional on V+")

    # -- Hecke action ------------------------------------------------------

    def _images(self, ell: int) -> tuple[np.ndarray, np.ndarray]:
        """(cols, signs), each #H x dim: the h-th Heilbronn matrix of
        determinant ell takes basis symbol k to signs[h, k] times the column
        cols[h, k] (a zero orbit has sign 0).  ArithmeticError unless
        boundary . T_ell = (ell + 1) * boundary, read off these images."""
        if ell % self.N == 0:
            raise ValueError(f"ell = {ell} is divisible by N = {self.N}")
        a, b, c, d = np.array(heilbronn_matrices(ell), dtype=np.int64).T[:, :, None]
        i = self._index(self._basis_c * a + self._basis_d * c, self._basis_c * b + self._basis_d * d)
        cols, signs = self._rep[i], self._sign[i]
        pM = self.modulus.pM
        if np.any((signs * self._column_boundary[cols]).sum(axis=0) % pM != (ell + 1) * self.boundary % pM):
            raise ArithmeticError(f"T_{ell} is not {ell}+1 on the Eisenstein boundary line")
        return cols, signs

    def hecke_full(self, ell: int) -> np.ndarray:
        """Matrix of T_ell on V+ (rank g+1), certified on the boundary.

        Column k of T_ell sums the map's sparse rows at the image columns of
        basis symbol k, signed: one gather of their entries and one int64
        scatter-add into T_ell.  An entry (i, k) takes at most one term per
        Heilbronn matrix, since a column holds basis index i at most once,
        and each term is a residue times +-1: it stays below #H * p^M in
        magnitude, exact in int64, and is reduced where an image reached it.
        """
        cols, signs = self._images(ell)
        h, k = np.nonzero(signs)
        # e runs over the entries of each image column in turn
        start = self._indptr[cols[h, k]]
        length = self._indptr[cols[h, k] + 1] - start
        e = np.arange(length.sum()) + np.repeat(start - np.cumsum(length) + length, length)
        at = self._indices[e] * self.dim + np.repeat(k, length)
        out = np.zeros(self.dim * self.dim, dtype=np.int64)
        np.add.at(out, at, np.repeat(signs[h, k], length) * self._data[e])
        out[at] %= self.modulus.pM  # the entries no image reaches are 0
        return out.reshape(self.dim, self.dim)

    def hecke_on_plus(self, ell: int) -> np.ndarray:
        """``hecke_full(ell)``, returned read-only."""
        T = self.hecke_full(ell)
        T.setflags(write=False)
        return T

    def hecke_apply(self, q, W: np.ndarray) -> np.ndarray:
        """T_q @ W for columns W in the basis of V+, without building T_q.

        ``q`` is a prime or a sequence of primes; for several, the blocks
        T_q W come side by side, in order.  T_q W is expr^T C with C = P W,
        a scatter of the rows of W by one int64 ``np.add.at`` per prime into
        one C for all of them.  Each Heilbronn matrix permutes P^1 and a
        column is an orbit of at most 4 points, so an entry of C sums at
        most 4 * #H terms below p^M: exact in int64.  C is reduced, and
        expr^T C gathers C's rows by the map's entries in basis order, times
        their residues, each term below (p^M - 1)^2, and sums them per basis
        index.  Basis index i sums its L_i entries: unreduced when the
        longest, L, has L (p^M - 1)^2 < 2^63, else each term is reduced
        first and the sum stays below L p^M.
        """
        pM = self.modulus.pM
        W = np.asarray(W, dtype=np.int64) % pM
        primes = np.atleast_1d(q)
        w, width = W.shape[1], W.shape[1] * len(primes)
        C = np.zeros((len(self._indptr) - 1) * width, dtype=np.int64)
        for b, prime in enumerate(primes):
            cols, signs = self._images(int(prime))
            np.add.at(C, (cols[:, :, None] * width + b * w + np.arange(w)).ravel(), (signs[:, :, None] * W).ravel())
        C %= pM
        # in place: fresh arrays of this size cost page faults on every call
        terms = C.reshape(-1, width)[self._t_cols]
        terms *= self._t_data[:, None]
        if self._t_longest * (pM - 1) ** 2 >= 1 << 63:
            terms %= pM
        out = _segment_sums(terms, self._t_indptr)
        out %= pM
        return out


def build_manin_space(N: int, modulus: Modulus) -> ManinSpace:
    return ManinSpace(N, modulus)
