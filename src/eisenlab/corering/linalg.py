"""Linear algebra over Z/p^M on dense int64 numpy matrices.

Z/p^M is a chain ring: every element is unit * p^v, and Gaussian
elimination stays exact as long as pivots are chosen with minimal
valuation.  Two elimination flavours are used:

* full valuation pivoting (``howell_solve``, ``howell_membership``,
  ``kernel_spanning_set``) decides arbitrary linear systems, tracking
  unit/non-unit pivots in the Howell style;
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


def _full_pivot_forward(A: np.ndarray, b, mod: Modulus):
    """Forward elimination with minimum-valuation full pivoting.

    Returns (A, b, colperm, pivots, r) where pivots[k] is the valuation of
    the k-th pivot, normalized to exactly p^v at position (k, k) in the
    permuted matrix; every entry of the remaining submatrix at step k is
    divisible by p^pivots[k].
    """
    p, Mprec, pM = mod.p, mod.M, mod.pM
    m, n = A.shape
    colperm = list(range(n))
    pivots: list[int] = []
    r = 0
    for _ in range(min(m, n)):
        sub = A[r:, r:]
        if sub.size == 0:
            break
        cand = None
        for v in range(Mprec):
            mask = (sub % (p ** (v + 1))) != 0
            if mask.any():
                i, j = np.argwhere(mask)[0]
                cand = (int(i) + r, int(j) + r, v)
                break
        if cand is None:
            break
        pi, pj, v = cand
        A[[r, pi]] = A[[pi, r]]
        if b is not None:
            b[[r, pi]] = b[[pi, r]]
        if pj != r:
            A[:, [r, pj]] = A[:, [pj, r]]
            colperm[r], colperm[pj] = colperm[pj], colperm[r]
        unit = int(A[r, r]) // (p**v)
        inv_u = pow(unit % pM, -1, pM)
        A[r] = (A[r] * inv_u) % pM
        if b is not None:
            b[r] = (b[r] * inv_u) % pM
        q = A[r + 1 :, r] // (p**v)
        A[r + 1 :] = (A[r + 1 :] - q[:, None] * A[r]) % pM
        if b is not None:
            b[r + 1 :] = (b[r + 1 :] - q * b[r]) % pM
        pivots.append(v)
        r += 1
    return A, b, colperm, pivots, r


def howell_solve(A, b, mod: Modulus):
    """Solve A x = b over Z/p^M; return a witness vector or None.

    With full valuation pivoting, back-substitution (free variables zero)
    succeeds exactly when the system is solvable: each pivot p^v must
    divide its residual, which any solution forces.
    """
    A = _as_matrix(A, mod).copy()
    m, n = A.shape
    pM, p = mod.pM, mod.p
    b = np.asarray(b, dtype=np.int64).reshape(-1).copy() % pM
    if b.shape[0] != m:
        raise ValueError(f"shape mismatch: A is {m}x{n}, b has {b.shape[0]}")
    A, b, colperm, pivots, r = _full_pivot_forward(A, b, mod)
    if np.any(b[r:] % pM != 0):
        return None
    x = np.zeros(n, dtype=np.int64)
    for k in range(r - 1, -1, -1):
        v = pivots[k]
        resid = (int(b[k]) - _dot_mod(A[k, k + 1 :], x[k + 1 :], pM)) % pM
        pv = p**v
        if resid % pv != 0:
            return None
        x[k] = (resid // pv) % pM
    out = np.zeros(n, dtype=np.int64)
    for pos, orig in enumerate(colperm):
        out[orig] = x[pos]
    return out


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
    if x is None:
        return False, None
    return True, x


def kernel_spanning_set(A, mod: Modulus) -> np.ndarray:
    """Columns spanning {x : A x = 0} over Z/p^M.

    One generator per free column and one generator p^(M-v) * e_k per
    pivot of positive valuation v, each completed by back-substitution.
    The set spans the kernel (not necessarily minimally).
    """
    A = _as_matrix(A, mod).copy()
    m, n = A.shape
    pM, p, Mprec = mod.pM, mod.p, mod.M
    A, _, colperm, pivots, r = _full_pivot_forward(A, None, mod)

    def complete(x: np.ndarray, top: int) -> np.ndarray | None:
        for k in range(top, -1, -1):
            v = pivots[k]
            resid = (-_dot_mod(A[k, k + 1 :], x[k + 1 :], pM)) % pM
            if resid % (p**v) != 0:
                return None
            x[k] = (resid // (p**v)) % pM
        return x

    gens = []
    for j in range(r, n):
        x = np.zeros(n, dtype=np.int64)
        x[j] = 1
        x = complete(x, r - 1)
        assert x is not None, "free-column completion must divide"
        gens.append(x)
    for k in range(r):
        v = pivots[k]
        if v == 0:
            continue
        x = np.zeros(n, dtype=np.int64)
        x[k] = p ** (Mprec - v)
        x = complete(x, k - 1)
        assert x is not None, "pivot-column completion must divide"
        gens.append(x)
    out = np.zeros((n, len(gens)), dtype=np.int64)
    for col, x in enumerate(gens):
        for pos, orig in enumerate(colperm):
            out[orig, col] = x[pos]
    return out


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
