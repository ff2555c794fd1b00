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
* unit-pivot-only Gauss-Jordan for systems whose cokernel is known to be
  free.  It is one blocked elimination, ``_unit_gauss_jordan``: pivots are
  found on a panel of columns, and the panel's row operations reach the
  rest of the matrix as one product.  ``unit_echelon``,
  ``kernel_of_free_summand`` and ``restrict_operator`` wrap it and raise
  unless the rows left without a pivot vanish, which certifies that
  assumption.

Entries are residues in [0, p^M) with p^M < 2^31.  A product of two
entries fits int64, but a k-term dot product need not, e.g. at p^M = 5^12
once k > 154.  Every matrix product therefore goes through ``matmul_mod``,
which picks the first of three exact tiers whose bound holds:

* float64 (BLAS) when k * (p^M - 1)^2 < 2^53: every partial sum is an
  integer below 2^53, so it is exact in any summation order (Dumas,
  Giorgi and Pernet, FFLAS-FFPACK, TOMS 2008);
* int64 when k * (p^M - 1)^2 < 2^63;
* Python integers (object dtype) otherwise.
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

    With k the inner dimension: float64 when k * (p^M - 1)^2 < 2^53, int64
    when it is < 2^63, otherwise object-dtype (Python int) arithmetic.
    """
    pM = mod.pM
    square = B is A  # P @ P: reduce and convert the operand once
    A = np.asarray(A, dtype=np.int64) % pM
    B = A if square else np.asarray(B, dtype=np.int64) % pM
    bound = A.shape[-1] * (pM - 1) ** 2
    if bound < 1 << 53:
        A = A.astype(np.float64)
        B = A if square else B.astype(np.float64)
        return (A @ B).astype(np.int64) % pM
    if bound < 1 << 63:
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


_PANEL = 32


def _unit_gauss_jordan(A: np.ndarray, mod: Modulus, stop: int | None = None) -> list[int]:
    """Gauss-Jordan of A in place with unit pivots only; returns the pivot
    columns, found among the first ``stop`` columns (all by default).

    Each column takes the first row at or below the pivot row whose entry is
    a unit, so the result is the unit-pivot reduced echelon form.  Pivots are
    found on panels of _PANEL columns.  A copy of the panel is eliminated
    beside a block E (the right half of G) that writes each row's change in
    terms of the panel's k pivot rows as they stood when the panel began; E's
    pivot rows end up holding the inverse of their k x k pivot block.  The
    new matrix is then E @ A[pivot rows], plus the old rows off the pivots:
    one product for the whole matrix instead of k rank-1 updates.
    """
    p, pM = mod.p, mod.pM
    m, n = A.shape
    stop = n if stop is None else stop
    pivcols: list[int] = []
    r = 0
    for c0 in range(0, stop, _PANEL):
        if r >= m:
            break
        c1 = min(c0 + _PANEL, stop)
        w = c1 - c0
        G = np.zeros((m, 2 * w), dtype=np.int64)
        G[:, :w] = A[:, c0:c1]
        r0 = r
        for c in range(w):
            if r >= m:
                break
            nz = np.flatnonzero(G[r:, c] % p)
            if nz.size == 0:
                continue
            sel = r + int(nz[0])
            if sel != r:
                G[[r, sel]] = G[[sel, r]]
                A[[r, sel]] = A[[sel, r]]
            G[r, w + r - r0] = 1
            G[r] = (G[r] * pow(int(G[r, c]), -1, pM)) % pM
            colvals = G[:, c].copy()
            colvals[r] = 0
            G -= np.outer(colvals, G[r])
            G %= pM
            pivcols.append(c0 + c)
            r += 1
        if r > r0:
            update = matmul_mod(G[:, w : w + r - r0], A[r0:r], mod)
            A[r0:r] = 0
            A += update
            A %= pM
    return pivcols


def unit_echelon(A, mod: Modulus):
    """Row-reduce using only unit pivots.

    Returns (R, pivcols, freecols) with pivot columns reduced to unit
    vectors.  Rows left without a pivot must vanish identically mod p^M,
    certifying that the row space is a free direct summand (no p-torsion
    relations); otherwise ArithmeticError is raised.
    """
    A = _as_matrix(A, mod)  # a fresh array: reducing mod p^M copies A
    pivcols = _unit_gauss_jordan(A, mod)
    r = len(pivcols)
    if A[r:].any():
        raise ArithmeticError("non-unit pivot needed: row space has p-torsion")
    freecols = sorted(set(range(A.shape[1])) - set(pivcols))
    return A[:r], pivcols, freecols


def kernel_of_free_summand(P, mod: Modulus) -> np.ndarray:
    """Kernel basis (columns) of P when ker(P) is a free direct summand.

    Used for stabilized powers of topologically nilpotent operators, where
    image and kernel split the ambient module; every pivot is then a unit
    and the returned basis extends to a basis of the whole module.
    """
    R, pivcols, freecols = unit_echelon(P, mod)
    basis = np.zeros((R.shape[1], len(freecols)), dtype=np.int64)
    basis[freecols, np.arange(len(freecols))] = 1
    basis[pivcols] = (-R[:, freecols]) % mod.pM
    return basis


def restrict_operator(T: np.ndarray, basis: np.ndarray, mod: Modulus) -> np.ndarray:
    """Matrix of T on the column span of ``basis`` (a free summand).

    Solves basis @ X = T @ basis with unit pivots and raises unless T
    preserves the span.
    """
    basis = _as_matrix(basis, mod)
    k = basis.shape[1]
    A = np.hstack([basis, matmul_mod(T, basis, mod)])
    if len(_unit_gauss_jordan(A, mod, stop=k)) < k:
        raise ArithmeticError("basis does not have unit pivots")
    if A[k:, k:].any():
        raise ArithmeticError("operator does not preserve the subspace")
    return A[:k, k:].copy()


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
    C = np.array([1, -int(A[0, 0])], dtype=np.int64) % pM
    for i in range(1, n):
        R = A[i : i + 1, :i]
        v = A[:i, i : i + 1]
        sub = A[:i, :i]
        toep = np.zeros(i + 1, dtype=np.int64)
        toep[0] = A[i, i]
        toep[1] = matmul_mod(R, v, mod)[0, 0]
        for k in range(2, i + 1):
            v = matmul_mod(sub, v, mod)
            toep[k] = matmul_mod(R, v, mod)[0, 0]
        # the first i + 1 terms of the convolution C * toep, as a lower
        # triangular Toeplitz product
        lag = np.subtract.outer(np.arange(i + 1), np.arange(i + 1))
        conv = matmul_mod(np.where(lag >= 0, toep[lag], 0), C[:, None], mod)[:, 0]
        newC = np.zeros(i + 2, dtype=np.int64)
        newC[: i + 1] = C
        newC[1:] = (newC[1:] - conv) % pM
        C = newC
    return PadicPoly([int(c) for c in C[::-1]], mod)
