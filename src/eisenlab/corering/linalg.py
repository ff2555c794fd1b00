"""Linear algebra over Z/p^M on dense int64 numpy matrices.

Z/p^M is a chain ring: every element is unit * p^v, and Gaussian
elimination stays exact as long as pivots are chosen with minimal
valuation.  Two elimination flavours are used:

* full valuation pivoting decides arbitrary linear systems, tracking
  unit/non-unit pivots in the Howell style.  It is one elimination,
  ``FullPivotFactor``: factor once, then solve many right-hand sides or
  read off a kernel spanning set.  The multipliers are stored in the
  eliminated lower triangle, so a factor costs one copy of A.
  ``howell_solve``, ``howell_membership`` and ``kernel_spanning_set`` are
  one-shot wrappers around it;
* unit-pivot-only reduction (``unit_echelon``, ``kernel_of_free_summand``,
  ``restrict_operator``) for systems whose cokernel is known to be free;
  leftover rows are asserted to vanish, certifying that assumption.

Entries are residues in [0, p^M) with p^M < 2^31.  A product of two
entries fits int64, but a k-term dot product needs k * (p^M - 1)^2 < 2^63,
which fails for example at p^M = 5^12 once k > 154; every matrix product
therefore goes through ``matmul_mod``, which checks that bound and falls
back to exact Python integers.
"""

from __future__ import annotations

import numpy as np

from .zmod import Modulus, PadicPoly

_MAX_MATRIX_MODULUS = 1 << 31


def _as_matrix(A, mod: Modulus) -> np.ndarray:
    if mod.pM >= _MAX_MATRIX_MODULUS:
        raise ValueError(f"modulus {mod.pM} too large for int64 matrix kernels")
    M = np.asarray(A, dtype=np.int64) % mod.pM
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    return M


def matmul_mod(A, B, mod: Modulus) -> np.ndarray:
    """A @ B mod p^M, exact at every size.

    int64 when every dot product fits, i.e. k * (p^M - 1)^2 < 2^63 for the
    inner dimension k; otherwise object-dtype (Python int) arithmetic.
    """
    pM = mod.pM
    A = np.asarray(A, dtype=np.int64) % pM
    B = np.asarray(B, dtype=np.int64) % pM
    if A.shape[-1] * (pM - 1) ** 2 < 1 << 63:
        return (A @ B) % pM
    return ((A.astype(object) @ B.astype(object)) % pM).astype(np.int64)


def _valuations(x: np.ndarray, p: int) -> np.ndarray:
    """p-adic valuation of every entry of a vector of nonzero residues."""
    v = np.zeros(x.shape, dtype=np.int64)
    while True:
        divisible = x % p == 0
        if not divisible.any():
            return v
        v += divisible
        x = np.where(divisible, x // p, x)


def _first_not_divisible(sub: np.ndarray, d: int) -> int:
    """Row-major flat index of the first entry of sub not divisible by d,
    or -1 if there is none.

    Rows are scanned in doubling chunks, so a hit near the top of a tall
    block costs a few rows rather than a pass over the whole block.
    """
    start, step = 0, 32
    while start < sub.shape[0]:
        hits = np.flatnonzero(sub[start : start + step] % d)
        if hits.size:
            return start * sub.shape[1] + int(hits[0])
        start += step
        step *= 2
    return -1


class FullPivotFactor:
    """Minimum-valuation full-pivot elimination of A over Z/p^M, done once.

    The pivot at each step is the first entry of minimal valuation, in
    row-major order of the trailing block; it is normalized to exactly p^v
    by scaling its row by the inverse unit.  The factor is kept in place as
    LAPACK getrf does: the upper triangle holds U (diagonal p^v), the
    eliminated lower triangle holds the multipliers, and the row and column
    permutations travel with whole rows and columns.  ``solve`` replays the
    elimination on a right-hand side; ``kernel`` completes one generator per
    free column and per non-unit pivot by back-substitution.
    """

    def __init__(self, A, mod: Modulus):
        self.mod = mod
        p, pM = mod.p, mod.pM
        LU = _as_matrix(A, mod)  # a fresh array: reducing mod p^M copies A
        m, n = LU.shape
        rows = np.arange(m)
        cols = np.arange(n)
        self.valuations: list[int] = []  # valuation of the k-th pivot
        self._unit_inverses: list[int] = []  # row k of U was scaled by this
        for r in range(min(m, n)):
            sub = LU[r:, r:]
            # pivot valuations never decrease, so the last one is the floor
            v = self.valuations[-1] if self.valuations else 0
            k = _first_not_divisible(sub, p ** (v + 1))
            if k < 0:
                nonzero = np.flatnonzero(sub)
                if nonzero.size == 0:
                    break
                vals = _valuations(sub.ravel()[nonzero], p)
                first = int(np.argmin(vals))
                k, v = int(nonzero[first]), int(vals[first])
            pi, pj = r + k // sub.shape[1], r + k % sub.shape[1]
            if pi != r:
                LU[[r, pi]] = LU[[pi, r]]
                rows[[r, pi]] = rows[[pi, r]]
            if pj != r:
                LU[:, [r, pj]] = LU[:, [pj, r]]
                cols[[r, pj]] = cols[[pj, r]]
            pv = p**v
            inv_u = pow(int(LU[r, r]) // pv, -1, pM)
            LU[r, r:] = (LU[r, r:] * inv_u) % pM
            q = LU[r + 1 :, r] // pv
            LU[r + 1 :, r] = q
            live = np.flatnonzero(q)
            if live.size:
                rr = r + 1 + live
                LU[rr, r + 1 :] = (LU[rr, r + 1 :] - q[live, None] * LU[r, r + 1 :]) % pM
            self.valuations.append(v)
            self._unit_inverses.append(inv_u)
        self.rank = len(self.valuations)
        # stored at the narrowest width holding p^M - 1: a factor may be
        # kept for the life of its owner (a Massey module's D^1)
        width = next(dt for dt in (np.int8, np.int16, np.int32) if pM <= np.iinfo(dt).max)
        self._lu, self._rows, self._cols = LU.astype(width), rows, cols

    def solve(self, b) -> np.ndarray | None:
        """A witness x with A x = b, or None when b is not in the column span.

        Back-substitution with free variables zero succeeds exactly when the
        system is solvable: each pivot p^v must divide its residual, which
        any solution forces.
        """
        pM = self.mod.pM
        LU, r = self._lu, self.rank
        m, n = LU.shape
        b = np.asarray(b, dtype=np.int64).reshape(-1) % pM
        if b.shape[0] != m:
            raise ValueError(f"shape mismatch: A is {m}x{n}, b has {b.shape[0]}")
        y = b[self._rows]
        for k in range(r):
            y[k] = (y[k] * self._unit_inverses[k]) % pM
            y[k + 1 :] = (y[k + 1 :] - LU[k + 1 :, k].astype(np.int64) * y[k]) % pM
        if y[r:].any():
            return None
        x = self._complete(np.zeros(n, dtype=np.int64), r - 1, y)
        if x is None:
            return None
        out = np.empty_like(x)
        out[self._cols] = x
        return out

    def kernel(self) -> np.ndarray:
        """Columns spanning {x : A x = 0} (not necessarily minimally).

        One generator per free column and one generator p^(M-v) * e_k per
        pivot of positive valuation v.
        """
        p, M = self.mod.p, self.mod.M
        r = self.rank
        n = self._lu.shape[1]
        seeds = [(j, 1, r - 1) for j in range(r, n)]
        seeds += [(k, p ** (M - v), k - 1) for k, v in enumerate(self.valuations) if v]
        out = np.zeros((n, len(seeds)), dtype=np.int64)
        for col, (j, entry, top) in enumerate(seeds):
            x = np.zeros(n, dtype=np.int64)
            x[j] = entry
            if self._complete(x, top) is None:
                raise ArithmeticError("kernel generator completion must divide")
            out[self._cols, col] = x
        return out

    def _complete(self, x: np.ndarray, top: int, rhs: np.ndarray | None = None):
        """Back-substitute U x = rhs (0 when None) for x[top], ..., x[0] in
        place, in pivot order; None if a pivot fails to divide its residual."""
        p, pM = self.mod.p, self.mod.pM
        LU = self._lu
        for k in range(top, -1, -1):
            resid = -_dot_mod(LU[k, k + 1 :], x[k + 1 :], pM)
            if rhs is not None:
                resid += int(rhs[k])
            resid %= pM
            pv = p ** self.valuations[k]
            if resid % pv:
                return None
            x[k] = resid // pv
        return x


def howell_solve(A, b, mod: Modulus):
    """Solve A x = b over Z/p^M; return a witness vector or None."""
    return FullPivotFactor(A, mod).solve(b)


def _dot_mod(u: np.ndarray, v: np.ndarray, pM: int) -> int:
    if u.size == 0:
        return 0
    if u.size * pM * pM < (1 << 62):
        return int((u * v).sum() % pM)
    acc = 0
    for a, x in zip(u.tolist(), v.tolist()):
        acc = (acc + a * x) % pM
    return acc


def howell_membership(A, b, mod: Modulus):
    """Decide whether b lies in the column span of A over Z/p^M.

    Returns (True, witness) with A @ witness = b, or (False, None).
    """
    x = howell_solve(A, b, mod)
    return (x is not None), x


def kernel_spanning_set(A, mod: Modulus) -> np.ndarray:
    """Columns spanning {x : A x = 0} over Z/p^M."""
    return FullPivotFactor(A, mod).kernel()


def unit_echelon(A, mod: Modulus, require_exhaustive: bool = True):
    """Row-reduce using only unit pivots.

    Returns (R, pivcols, freecols) with pivot columns reduced to unit
    vectors.  When ``require_exhaustive``, rows left without a pivot must
    vanish identically mod p^M, certifying that the row space is a free
    direct summand (no p-torsion relations).
    """
    pM = mod.pM
    p = mod.p
    A = _as_matrix(A, mod).copy()
    m, n = A.shape
    pivcols = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        col = A[r:, c] % p
        nz = np.nonzero(col)[0]
        if len(nz) == 0:
            continue
        sel = r + int(nz[0])
        if sel != r:
            A[[r, sel]] = A[[sel, r]]
        A[r] = (A[r] * pow(int(A[r, c]), -1, pM)) % pM
        colvals = A[:, c].copy()
        colvals[r] = 0
        A -= np.outer(colvals, A[r])
        A %= pM
        pivcols.append(c)
        r += 1
    if require_exhaustive and np.any(A[r:] % pM != 0):
        raise ArithmeticError("non-unit pivot needed: row space has p-torsion")
    freecols = [c for c in range(n) if c not in set(pivcols)]
    return A[:r], pivcols, freecols


def kernel_of_free_summand(P, mod: Modulus) -> np.ndarray:
    """Kernel basis (columns) of P when ker(P) is a free direct summand.

    Used for stabilized powers of topologically nilpotent operators, where
    image and kernel split the ambient module; every pivot is then a unit
    and the returned basis extends to a basis of the whole module.
    """
    R, pivcols, freecols = unit_echelon(P, mod)
    n = _as_matrix(P, mod).shape[1]
    pM = mod.pM
    basis = np.zeros((n, len(freecols)), dtype=np.int64)
    for k, c in enumerate(freecols):
        basis[c, k] = 1
        for row, pc in enumerate(pivcols):
            basis[pc, k] = (-R[row, c]) % pM
    return basis


def restrict_operator(T: np.ndarray, basis: np.ndarray, mod: Modulus) -> np.ndarray:
    """Matrix of T on the column span of ``basis`` (a free summand).

    Solves basis @ X = T @ basis with unit pivots and asserts that T
    preserves the span.
    """
    pM = mod.pM
    p = mod.p
    basis = _as_matrix(basis, mod)
    k = basis.shape[1]
    TB = matmul_mod(T, basis, mod)
    A = np.hstack([basis, TB])
    m = A.shape[0]
    r = 0
    for j in range(k):
        col = A[r:, j] % p
        nz = np.nonzero(col)[0]
        if len(nz) == 0:
            raise ArithmeticError("basis does not have unit pivots")
        sel = r + int(nz[0])
        if sel != r:
            A[[r, sel]] = A[[sel, r]]
        A[r] = (A[r] * pow(int(A[r, j]), -1, pM)) % pM
        colvals = A[:, j].copy()
        colvals[r] = 0
        A -= np.outer(colvals, A[r])
        A %= pM
        r += 1
    if np.any(A[r:, k:] % pM != 0):
        raise ArithmeticError("operator does not preserve the subspace")
    return A[:k, k:] % pM


def berkowitz_charpoly(A, mod: Modulus) -> PadicPoly:
    """Characteristic polynomial det(yI - A) mod p^M, division-free.

    Samuelson-Berkowitz recurrence: the char poly vector of the leading
    (i+1)x(i+1) block is a Toeplitz transform of the i x i one, built from
    the border products R A'^k C.  No divisions occur, so zero divisors in
    Z/p^M are harmless; the result equals the integer characteristic
    polynomial reduced mod p^M.
    """
    pM = mod.pM
    A = _as_matrix(A, mod)
    n = A.shape[0]
    if A.size == 0:
        return PadicPoly.one(mod)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if (n + 2) * pM * pM >= (1 << 62):
        raise ValueError("dimension times modulus^2 too large for int64 charpoly")
    C = np.array([1, -int(A[0, 0])], dtype=np.int64) % pM
    for i in range(1, n):
        a = int(A[i, i])
        R = A[i, :i]
        col = A[:i, i]
        sub = A[:i, :i]
        toep = np.zeros(i + 1, dtype=np.int64)
        toep[0] = a
        v = col.copy()
        toep[1] = int(R @ v) % pM
        for k in range(2, i + 1):
            v = (sub @ v) % pM
            toep[k] = int(R @ v) % pM
        newC = np.zeros(i + 2, dtype=np.int64)
        newC[: i + 1] = C
        conv = np.convolve(C, toep) % pM
        newC[1:] = (newC[1:] - conv[: i + 1]) % pM
        C = newC
    return PadicPoly([int(c) for c in C[::-1]], mod)
