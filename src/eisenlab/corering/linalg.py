"""Linear algebra over Z/p^M on dense int64 numpy matrices.

Z/p^M is a chain ring: every element is unit * p^v, and Gaussian
elimination stays exact as long as pivots are chosen with minimal
valuation.  There is one elimination, the blocked unit-pivot Gauss-Jordan
``_unit_gauss_jordan``: pivots are found on a panel of columns, and the
panel's row operations reach the columns still open as one product: those
right of the panel and the free ones left of its end.  Pivot columns are
unit vectors, which are written, not computed.  It returns the panels, so
its row operations can be replayed on a right-hand side.  Two kinds of
system use it:

* systems whose cokernel is known to be free.  ``unit_echelon``,
  ``kernel_of_free_summand`` and ``restrict_operator`` run it once and
  raise unless the rows left without a pivot vanish, which certifies that
  assumption;
* arbitrary linear systems, decided by ``FullPivotFactor``: factor once,
  then solve many right-hand sides or read off a kernel spanning set.  The
  factor is a stack of valuation layers: layer v runs the core mod p^(M-v)
  on what earlier layers left, divided by p, so its pivots have valuation
  v.  A layer keeps its panels and its pivot rows, not a lower triangle of
  multipliers; a solve replays the panels layer by layer and then
  back-substitutes with one product per layer.  ``howell_solve``,
  ``howell_membership`` and ``kernel_spanning_set`` are one-shot wrappers
  around it.

Entries are residues in [0, p^M) with p^M < 2^31, a limit only this
module knows.  A product of two entries fits int64, as the eliminations
need, but a k-term dot product need not.  Every matrix product therefore
goes through ``matmul_mod``, in float64 BLAS: a product whose partial sums
are all integers below 2^53 is exact in any summation order (Dumas, Giorgi
and Pernet, FFLAS-FFPACK, TOMS 2008).  It takes one of two paths:

* direct, when k * (p^M - 1)^2 < 2^53;
* split otherwise: each operand is written in 16-bit limbs, X = X1 * 2^16
  + X0, and the four limb products, exact while k * (2^16 - 1)^2 < 2^53
  (k <= 2097216), are reduced and recombined mod p^M in int64.

Past either limit, p^M >= 2^31 or k > 2097216, it raises ``ValueError``.

Every process that imports this module runs OpenBLAS on one thread, set
once here at import (a no-op without OpenBLAS).  eisenlab's parallelism is
across pairs, one process each, and its products are at most 826 wide for
N < 10000: there a second BLAS thread mostly spins.  With numpy's default
two threads, the records for (3001, 5) and (3671, 5) used 1.8 times their
wall time in CPU time, and one thread takes no longer.  Pool workers
inherit the setting when forked and set it again when they import eisenlab
to unpickle their task.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .zmod import Modulus, PadicPoly

_MAX_MATRIX_MODULUS = 1 << 31
_LIMB = 1 << 16  # the split path's limb base


def _openblas_function(names: tuple[str, ...]):
    """The first of ``names`` exported by an OpenBLAS loaded in this process
    (numpy's bundled one), or None when there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                return fn
    return None


def _one_blas_thread() -> None:
    """Run OpenBLAS on one thread in this process.  A no-op without OpenBLAS."""
    fn = _openblas_function(
        ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads")
    )
    if fn is not None:
        fn.argtypes = [ctypes.c_int]
        fn.restype = None
        fn(1)


_one_blas_thread()


def _as_matrix(A, mod: Modulus) -> np.ndarray:
    if mod.pM >= _MAX_MATRIX_MODULUS:
        raise ValueError(f"modulus {mod.pM} too large for int64 matrix kernels")
    M = np.asarray(A, dtype=np.int64) % mod.pM
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    return M


def matmul_mod(A, B, mod: Modulus) -> np.ndarray:
    """A @ B mod p^M as int64, exact, in float64 BLAS.

    With k the inner dimension: one product when k * (p^M - 1)^2 < 2^53,
    otherwise four products of 16-bit limbs, A = A1 * 2^16 + A0 and
    B = B1 * 2^16 + B0, recombined as hi * 2^32 + mid * 2^16 + lo mod p^M.
    Raises ValueError when p^M >= 2^31 or when k * (2^16 - 1)^2 >= 2^53,
    where neither is exact.
    """
    pM = mod.pM
    if pM >= _MAX_MATRIX_MODULUS:
        raise ValueError(f"modulus {pM} too large for exact matrix products")
    square = B is A  # P @ P: reduce and convert the operand once
    A = (np.asarray(A, dtype=np.int64) % pM).astype(np.float64)
    B = A if square else (np.asarray(B, dtype=np.int64) % pM).astype(np.float64)
    k = A.shape[-1]
    if k * (pM - 1) ** 2 < 1 << 53:
        return (A @ B).astype(np.int64) % pM
    if k * (_LIMB - 1) ** 2 >= 1 << 53:
        raise ValueError(f"inner dimension {k} too large for exact limb products")
    # p^M < 2^31, so the high limbs are below 2^15; each reduced term below
    # stays under 2^62 and their sum fits int64
    A1, A0 = np.divmod(A, _LIMB)
    B1, B0 = (A1, A0) if square else np.divmod(B, _LIMB)
    hi, mid1, mid0, lo = ((X @ Y).astype(np.int64) % pM for X, Y in ((A1, B1), (A1, B0), (A0, B1), (A0, B0)))
    return (hi * (_LIMB**2 % pM) + (mid1 + mid0) * (_LIMB % pM) + lo) % pM


class FullPivotFactor:
    """A over Z/p^M factored once, as valuation layers of ``_unit_gauss_jordan``.

    Layer v runs the unit-pivot core mod p^(M-v) on the rows that have no
    pivot yet, divided by p, restricted to the columns that have no pivot
    yet.  The earlier layers have eliminated their pivot columns from those
    rows and left every other entry divisible by p, so layer v's pivots have
    valuation exactly v: these are the Howell layers of A (Storjohann and
    Mulders, ESA 1998), and layer v has one pivot per elementary divisor p^v
    of A.  A layer keeps its panels, to replay its row operations on a
    right-hand side, and its reduced pivot rows off its pivot columns, to
    back-substitute.
    """

    def __init__(self, A, mod: Modulus):
        self.mod = mod
        p, M = mod.p, mod.M
        B = _as_matrix(A, mod)  # a fresh array: reducing mod p^M copies A
        self._shape = B.shape
        cols = np.arange(B.shape[1])
        self.valuations: list[int] = []  # valuation of the k-th pivot
        # (modulus, panels, pivot columns, other columns, pivot rows on those)
        self._layers = []
        for v in range(M):
            mod_v = Modulus(p, M - v)
            pivcols, panels = _unit_gauss_jordan(B, mod_v)
            k = len(pivcols)
            rest = np.ones(cols.size, dtype=bool)
            rest[pivcols] = False
            self._layers.append((mod_v, panels, cols[pivcols], cols[rest], _narrow(B[:k, rest], mod_v.pM)))
            self.valuations += [v] * k
            cols = cols[rest]
            B = B[k:, rest] // p
        self.rank = len(self.valuations)
        self._free = cols

    def solve(self, b) -> np.ndarray | None:
        """A witness x with A x = b, or None when b is not in the column span.

        Layer v's row operations leave the rows below its pivots divisible
        by p^(v+1) in A, so they must leave them so in b too; with that, the
        back-substitution with free variables zero is a solution.
        """
        p = self.mod.p
        m, n = self._shape
        y = np.asarray(b, dtype=np.int64).reshape(-1) % self.mod.pM
        if y.shape[0] != m:
            raise ValueError(f"shape mismatch: A is {m}x{n}, b has {y.shape[0]}")
        x = np.zeros(n, dtype=np.int64)
        for mod_v, panels, piv, _, _ in self._layers:
            for panel in panels:
                _apply_panel(y, panel, mod_v)
            x[piv] = y[: piv.size]
            y = y[piv.size :]
            if (y % p).any():
                return None
            y //= p
        return self._back_substitute(x)

    def kernel(self) -> np.ndarray:
        """Columns spanning {x : A x = 0} (not necessarily minimally).

        One generator per free column and one generator p^(M-v) * e_k per
        pivot of positive valuation v, each completed by back-substitution.
        """
        seeds = [(self._free, 1)] + [(piv, mod_v.pM) for mod_v, _, piv, _, _ in self._layers[1:]]
        rows = np.concatenate([cols for cols, _ in seeds])
        X = np.zeros((self._shape[1], rows.size), dtype=np.int64)
        X[rows, np.arange(rows.size)] = np.concatenate([np.full(cols.size, e) for cols, e in seeds])
        return self._back_substitute(X)

    def _back_substitute(self, x: np.ndarray) -> np.ndarray:
        """Complete the pivot entries of x (a vector or columns) in place, last
        layer first: x[pivots] -= (pivot rows) @ x[other columns] mod p^(M-v).

        The result is reduced mod p^M, not p^(M-v): a kernel seed p^(M-v) on a
        pivot of layer v has to survive its own layer.
        """
        for mod_v, _, piv, rest, U in reversed(self._layers):
            if piv.size:
                x[piv] = (x[piv] - matmul_mod(U, x[rest], mod_v)) % self.mod.pM
        return x


def howell_solve(A, b, mod: Modulus):
    """Solve A x = b over Z/p^M; return a witness vector or None."""
    return FullPivotFactor(A, mod).solve(b)


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
_CHUNK = 256  # rows per slice of a panel product, which bounds its temporaries


def _narrow(X: np.ndarray, pM: int) -> np.ndarray:
    """X at the narrowest integer width holding p^M - 1: factors and their
    panels may be kept for the life of their owner (a Massey module's D^1)."""
    width = next(dt for dt in (np.int8, np.int16, np.int32) if pM <= np.iinfo(dt).max)
    return X.astype(width)


def _apply_panel(X: np.ndarray, panel, mod: Modulus, cols=...) -> None:
    """Replay one panel's row operations on X (a matrix or a vector) in place:
    its row swaps on whole rows, then X[rows] += E @ X[pivot rows] with the
    pivot rows taken out first, on ``cols`` only.  Rows outside ``rows`` are
    left untouched."""
    r0, swaps, rows, E = panel
    for r, sel in swaps:
        X[[r, sel]] = X[[sel, r]]
    _replay(X, r0, rows, E, mod, cols)


def _replay(X: np.ndarray, r0: int, rows, E, mod: Modulus, cols) -> None:
    """X[rows, cols] += E @ X[pivot rows, cols] mod p^M in place, the pivot
    rows r0, r0 + 1, ... taken out first, in slices of _CHUNK rows.  ``cols``
    is ``...``, a slice, or an index array gathered one slice at a time."""
    at = (lambda rr: np.ix_(rr, cols)) if isinstance(cols, np.ndarray) else (lambda rr: (rr, cols))
    pivrows = at(np.arange(r0, r0 + E.shape[1]))
    piv = X[pivrows]
    X[pivrows] = 0
    for t in range(0, rows.size, _CHUNK):
        rr = at(rows[t : t + _CHUNK])
        X[rr] = (X[rr] + matmul_mod(E[t : t + _CHUNK], piv, mod)) % mod.pM


def _unit_gauss_jordan(A: np.ndarray, mod: Modulus, stop: int | None = None):
    """Gauss-Jordan of A in place with unit pivots only; returns the pivot
    columns, found among the first ``stop`` columns (all by default), and
    the panels that replay its row operations (see ``_apply_panel``).

    Each column takes the first row at or below the pivot row whose entry is
    a unit, so the result is the unit-pivot reduced echelon form.  Pivots are
    found on panels of _PANEL columns.  A copy of the panel is eliminated
    beside a block E (the right half of G) that writes each row's change in
    terms of the panel's k pivot rows as they stood when the panel began; E's
    pivot rows end up holding the inverse of their k x k pivot block.  The
    new matrix is then E @ A[pivot rows], plus the old rows off the pivots:
    one product instead of k rank-1 updates, over the rows E touches only,
    and over the open columns only: those right of the panel and the free
    columns left of its end.  Earlier pivot columns are unit vectors that
    the panel leaves as they are, and its own become unit vectors, so they
    are written rather than computed.
    A panel is (first pivot row, row swaps, rows E touches, E on those rows).
    """
    p, pM = mod.p, mod.pM
    m, n = A.shape
    stop = n if stop is None else stop
    pivcols: list[int] = []
    free: list[int] = []  # non-pivot columns left of the current panel's end
    panels = []
    buf = np.empty((m, 2 * min(_PANEL, stop)), dtype=np.int64)  # one G for every panel
    r = 0
    for c0 in range(0, stop, _PANEL):
        if r >= m:
            break
        c1 = min(c0 + _PANEL, stop)
        w = c1 - c0
        G = buf[:, : 2 * w]
        G[:, :w] = A[:, c0:c1]
        G[:, w:] = 0
        r0, swaps, pc = r, [], []
        for c in range(w):
            if r >= m:
                break
            nz = np.flatnonzero(G[r:, c] % p)
            if nz.size == 0:
                continue
            sel = r + int(nz[0])
            if sel != r:
                G[[r, sel]] = G[[sel, r]]
                swaps.append((r, sel))
            G[r, w + r - r0] = 1
            # row r is zero past its own E column; only rows with an entry in
            # column c change, and only right of it: the panel's columns left
            # of c are never read again
            hi = w + r - r0 + 1
            G[r, c:hi] = (G[r, c:hi] * pow(int(G[r, c]), -1, pM)) % pM
            live = np.flatnonzero(G[:, c])
            live = live[live != r]
            if live.size:
                G[live, c + 1 : hi] = (G[live, c + 1 : hi] - G[live, c, None] * G[r, c + 1 : hi]) % pM
            pc.append(c0 + c)
            r += 1
        pivcols += pc
        free += sorted(set(range(c0, c1)) - set(pc))
        if r > r0:
            E = _narrow(G[:, w : w + r - r0], pM)
            rows = np.flatnonzero(E.any(axis=1))
            panels.append((r0, swaps, rows, E[rows]))
            _apply_panel(A, panels[-1], mod, slice(c1, None))
            if free:
                _replay(A, r0, rows, panels[-1][3], mod, np.array(free))
            A[:, pc] = 0
            A[np.arange(r0, r), pc] = 1
    return pivcols, panels


def unit_echelon(A, mod: Modulus):
    """Row-reduce using only unit pivots.

    Returns (R, pivcols, freecols) with pivot columns reduced to unit
    vectors.  Rows left without a pivot must vanish identically mod p^M,
    certifying that the row space is a free direct summand (no p-torsion
    relations); otherwise ArithmeticError is raised.
    """
    A = _as_matrix(A, mod)  # a fresh array: reducing mod p^M copies A
    pivcols, _ = _unit_gauss_jordan(A, mod)
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
    if len(_unit_gauss_jordan(A, mod, stop=k)[0]) < k:
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
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if n == 0:
        return PadicPoly.one(mod)
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
