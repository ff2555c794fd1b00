"""Linear algebra over Z/p^M on dense int64 numpy matrices.

Z/p^M is a chain ring: every element is unit * p^v, and Gaussian
elimination stays exact as long as pivots are chosen with minimal
valuation.  There is one elimination, the blocked unit-pivot Gauss-Jordan
``_unit_gauss_jordan``: pivots are found on a panel of columns, and the
panel's row operations reach the columns still open as one product: those
right of the panel and the free ones left of its end.  Pivot columns are
unit vectors, which are written, not computed.  Only the rows from the
panel's first pivot row down are eliminated inside the panel.  The rows
above it hold no pivot candidate: each only subtracts its entries on the
panel's pivot columns times the new pivot rows, so their share of the
panel's row operations is one product at the panel's end (the rank-profile
panel view of Jeannerod, Pernet and Storjohann, JSC 2013).  Inside a panel
the rank-1 updates are left unreduced (delayed reduction, as in FFLAS-FFPACK,
below): each subtracts a product of two residues, below (p^M - 1)^2, so
after j of them an entry lies in (-j (p^M - 1)^2, p^M).  The block read
from a panel is reduced once at its end, and the whole panel earlier
whenever the updates since the last reduction reach
``_delay_room(p^M)`` = (2^63 - 1 - p^M) // (p^M - 1)^2 - 1, which keeps
int64 from overflowing; it is at least 1 for p^M < 2^31 (1 at 2^31 - 1,
5 at 5^13).  Only the pivot row, before it is scaled, and the multiplier
column are reduced at each pivot; the unit test reads entries mod p, which
is right on unreduced ones, so the pivots and the result are those of the
reduce-every-step elimination.  It returns the panels, so its row
operations can be replayed on a right-hand side.

Every system is solved through one front door, ``FullPivotFactor``: factor
once, then solve many right-hand sides, a vector or a matrix of them at a
time, or read off a kernel spanning set.  The factor is a stack of
valuation layers: layer v runs the core mod p^(M-v) on what earlier layers
left, divided by p, so its pivots have valuation v.  The stack ends at the
first layer with nothing left to eliminate, after L layers, and a solve
asks the rows left over to vanish mod p^(M-L) in one test, not one layer
at a time.  A layer keeps its panels and its pivot rows, not a lower
triangle of multipliers; a solve replays the panels layer by layer and
then back-substitutes with one product per layer.  A factor whose pivots
are all units certifies that the row space and the kernel are free direct
summands; its kernel is then the identity on the free columns.
``kernel_of_free_summand`` and ``restrict_operator`` are a factor behind
that certificate: the kernel, and a solve against the factored basis of
T @ basis (not T, so a caller can apply T without building it).  A basis
that is the identity on some rows, as a kernel is on its free columns,
needs no factor at all: ``restrict_by_readoff`` reads T's matrix off
those rows of T @ basis and checks it with one product, and
``restrict_operator`` is its reference.  ``unit_echelon`` is the core's
reduced echelon form, and ``howell_solve``, ``howell_membership`` and
``kernel_spanning_set`` are one-shot wrappers around a factor.

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
The bounds need |x| < p^M of every operand entry, so an operand is reduced
only when one pass, the maximum of it viewed as unsigned, finds an entry
outside [0, p^M); operands that are already residues, such as the narrow
panels, pay no reduction.

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


def _reduced(X, pM: int) -> np.ndarray:
    """X as an integer array, reduced mod p^M only when one pass finds an
    entry outside [0, p^M): the maximum of X viewed as unsigned, where a
    negative entry reads as at least 2^(bits-1).

    The products below need |x| < p^M, not x >= 0, so this is enough at
    every width: where 2^(bits-1) >= p^M a negative entry fails the check,
    and at a narrower one every entry has |x| <= 2^(bits-1) < p^M.
    """
    X = np.asarray(X)
    if X.dtype.kind != "i":
        X = X.astype(np.int64)
    if X.size and X.view(f"u{X.itemsize}").max() >= pM:
        X = X.astype(np.int64) % pM
    return X


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
    square = B is A  # P @ P: check and convert the operand once
    A = _reduced(A, pM).astype(np.float64)
    B = A if square else _reduced(B, pM).astype(np.float64)
    k = A.shape[-1]
    if k * (pM - 1) ** 2 < 1 << 53:
        return (A @ B).astype(np.int64) % pM
    if k * (_LIMB - 1) ** 2 >= 1 << 53:
        raise ValueError(f"inner dimension {k} too large for exact limb products")
    # |x| < p^M < 2^31, so a high limb has magnitude at most 2^15 and a low
    # one lies in [0, 2^16); each reduced term below stays under 2^62 and
    # their sum fits int64
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
    back-substitute.  The layers stop at the first one with nothing left to
    eliminate: every later one would find no pivot either.
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
            if not B.any():  # no open column, or none with an entry left
                break
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
        self.free = cols  # the columns without a pivot, ascending

    def solve(self, b) -> np.ndarray | None:
        """A witness x with A x = b, or None when b is not in the column span.

        b is a vector, or a matrix whose columns are right-hand sides; then x
        is a matrix, and None means that some column is not in the span.
        Layer v's row operations leave the rows below its pivots divisible
        by p^(v+1) in A, so they must leave them so in b too.  After the last
        layer, L of them, the rows left are zero in A, so in b they must
        vanish mod p^(M-L): the layers skipped would each have asked for one
        more factor p.  With that, the back-substitution with free variables
        zero is a solution.
        """
        p = self.mod.p
        m, n = self._shape
        y = np.asarray(b, dtype=np.int64) % self.mod.pM
        if y.ndim not in (1, 2) or y.shape[0] != m:
            raise ValueError(f"shape mismatch: A is {m}x{n}, b has shape {y.shape}")
        x = np.zeros((n,) + y.shape[1:], dtype=np.int64)
        for mod_v, panels, piv, _, _ in self._layers:
            for panel in panels:
                _apply_panel(y, panel, mod_v)
            x[piv] = y[: piv.size]
            y = y[piv.size :]
            if (y % p).any():
                return None
            y //= p
        if (y % p ** (self.mod.M - len(self._layers))).any():
            return None
        return self._back_substitute(x)

    def kernel(self) -> np.ndarray:
        """Columns spanning {x : A x = 0} (not necessarily minimally).

        One generator per free column and one generator p^(M-v) * e_k per
        pivot of positive valuation v, each completed by back-substitution.
        Back-substitution writes pivot rows only, so the first ``free.size``
        columns are the identity on the rows ``free``; when every pivot is a
        unit there are no others, and they are a basis of a free summand.
        """
        seeds = [(self.free, 1)] + [(piv, mod_v.pM) for mod_v, _, piv, _, _ in self._layers[1:]]
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
    its row permutation on whole rows, as one gather X[dst] = X[src], then
    X[rows] += E @ X[pivot rows] with the pivot rows taken out first, on
    ``cols`` only.  Rows outside ``rows`` are left untouched."""
    r0, (dst, src), rows, E = panel
    if dst.size:
        X[dst] = X[src]
    _replay(X, r0, rows, E, mod, cols)


def _composed(swaps: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The row swaps (a, b), applied in order, as one permutation of the rows
    they touch: (dst, src) with X[dst] = X[src] afterwards (FFLAS-FFPACK
    applies a panel's permutation the same way).  Empty arrays for none."""
    src: dict[int, int] = {}  # row -> the original row it holds
    for a, b in swaps:
        src[a], src[b] = src.get(b, b), src.get(a, a)
    return np.fromiter(src, np.intp, len(src)), np.fromiter(src.values(), np.intp, len(src))


def _replay(X: np.ndarray, r0: int, rows, E, mod: Modulus, cols) -> None:
    """X[rows, cols] += E @ X[pivot rows, cols] mod p^M in place, the pivot
    rows r0, r0 + 1, ... taken out first, in slices of _CHUNK rows.  ``cols``
    is ``...``, a slice, or an index array gathered one slice at a time.

    On ``matmul_mod``'s direct path, when k (p^M - 1)^2 + p^M < 2^53 for the
    k pivot rows, the X block is added to the float64 product before the one
    conversion and the one reduction: with every operand reduced to
    |x| < p^M, each partial sum is an integer below 2^53 in magnitude.
    """
    pM = mod.pM
    at = (lambda rr: np.ix_(rr, cols)) if isinstance(cols, np.ndarray) else (lambda rr: (rr, cols))
    pivrows = at(np.arange(r0, r0 + E.shape[1]))
    piv = X[pivrows]
    X[pivrows] = 0
    fused = E.shape[1] * (pM - 1) ** 2 + pM < 1 << 53
    if fused:
        piv = _reduced(piv, pM).astype(np.float64)
    for t in range(0, rows.size, _CHUNK):
        rr = at(rows[t : t + _CHUNK])
        if fused:
            Y = _reduced(E[t : t + _CHUNK], pM).astype(np.float64) @ piv
            Y += _reduced(X[rr], pM)
            X[rr] = Y.astype(np.int64) % pM
        else:
            X[rr] = (X[rr] + matmul_mod(E[t : t + _CHUNK], piv, mod)) % pM


def _delay_room(pM: int) -> int:
    """Rank-1 updates ``_unit_gauss_jordan`` may leave unreduced in int64.

    Entries start in [0, p^M) and each update subtracts a product of two
    residues, below (p^M - 1)^2, so after j updates an entry lies in
    (-j (p^M - 1)^2, p^M): its magnitude stays below 2^63 while
    p^M + j (p^M - 1)^2 <= 2^63 - 1.  One update of that is kept in reserve.
    At least 1 for every p^M < 2^31.
    """
    return ((1 << 63) - 1 - pM) // (pM - 1) ** 2 - 1


def _unit_gauss_jordan(A: np.ndarray, mod: Modulus):
    """Gauss-Jordan of A in place with unit pivots only; returns the pivot
    columns and the panels that replay its row operations (see
    ``_apply_panel``).

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
    are written rather than computed.  G holds only the rows from the
    panel's first pivot row down, where pivots are searched.  A row above
    them only loses its entries on the panel's pivot columns, so its E row
    is -A[row, panel pivot columns] @ E[pivot rows], all of them in one
    product at the panel's end.  E is reduced mod p^M at the panel's end,
    and all of G after every ``_delay_room`` rank-1 updates, not after each
    one (see the module docstring).
    A panel is (first pivot row, its row swaps composed into one gather
    (dst, src) over the rows they touch, rows E touches, E on those rows).
    """
    p, pM = mod.p, mod.pM
    m, n = A.shape
    room = _delay_room(pM)
    pivcols: list[int] = []
    free: list[int] = []  # non-pivot columns left of the current panel's end
    panels = []
    buf = np.empty((m, 2 * min(_PANEL, n)), dtype=np.int64)  # one G for every panel
    r = 0
    for c0 in range(0, n, _PANEL):
        if r >= m:
            break
        c1 = min(c0 + _PANEL, n)
        w = c1 - c0
        r0, swaps, pc = r, [], []
        # G holds rows r0, r0 + 1, ... only: row i of G is row r0 + i of A
        G = buf[: m - r0, : 2 * w]
        G[:, :w] = A[r0:, c0:c1]
        G[:, w:] = 0
        pending = 0  # rank-1 updates since G was last reduced
        for c in range(w):
            if r >= m:
                break
            i = r - r0
            nz = np.flatnonzero(G[i:, c] % p)
            if nz.size == 0:
                continue
            sel = i + int(nz[0])
            if sel != i:
                G[[i, sel]] = G[[sel, i]]
                swaps.append((r, r0 + sel))
            G[i, w + i] = 1
            # row i is zero past its own E column; only the columns right of
            # c change: the panel's columns left of c are never read again
            hi = w + i + 1
            G[i, c:hi] %= pM
            G[i, c:hi] = G[i, c:hi] * pow(int(G[i, c]), -1, pM) % pM
            mult = G[:, c] % pM
            mult[i] = 0
            G[:, c + 1 : hi] -= mult[:, None] * G[i, c + 1 : hi]
            pending += 1
            if pending == room:
                G %= pM
                pending = 0
            pc.append(c0 + c)
            r += 1
        pivcols += pc
        free += sorted(set(range(c0, c1)) - set(pc))
        if r > r0:
            E = np.empty((m, r - r0), dtype=np.int64)
            E[r0:] = G[:, w : w + r - r0] % pM
            # a row above the panel only loses its entries on the panel's
            # pivot columns, to the new pivot rows E[r0:r] @ (old pivot rows)
            E[:r0] = -matmul_mod(A[:r0, pc], E[r0:r], mod) % pM
            E = _narrow(E, pM)
            rows = np.flatnonzero(E.any(axis=1))
            panels.append((r0, _composed(swaps), rows, E[rows]))
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
    image and kernel split the ambient module.  The certificate is that
    every pivot of P's ``FullPivotFactor`` is a unit; ArithmeticError
    otherwise.  The basis is then the identity on the free columns and
    extends to a basis of the whole module.
    """
    F = FullPivotFactor(P, mod)
    if any(F.valuations):
        raise ArithmeticError("non-unit pivot needed: row space has p-torsion")
    return F.kernel()


def restrict_operator(image: np.ndarray, basis: np.ndarray, mod: Modulus) -> np.ndarray:
    """Matrix of an operator T on the column span of ``basis`` (a free
    summand), given ``image`` = T @ basis.

    Factors the basis, which must have a unit pivot in every column, and
    solves basis @ X = image against it; raises unless T preserves the
    span.  Taking the image, not T, lets a caller apply T without building
    it.
    """
    F = FullPivotFactor(basis, mod)
    if F.free.size or any(F.valuations):
        raise ArithmeticError("basis does not have unit pivots")
    X = F.solve(_as_matrix(image, mod))
    if X is None:
        raise ArithmeticError("operator does not preserve the subspace")
    return X


def restrict_by_readoff(image: np.ndarray, basis: np.ndarray, rows, mod: Modulus) -> np.ndarray:
    """``restrict_operator`` for a basis that is the identity on ``rows``
    (basis[rows] = I, as a ``kernel_of_free_summand`` basis is on its free
    rows), without an elimination.

    If image = basis @ X, then image[rows] = basis[rows] @ X = X.  So X is
    read off, and T preserves the span iff image = basis @ image[rows]: one
    product decides it, with the same matrix and the same ArithmeticError as
    ``restrict_operator``.  ValueError unless basis[rows] = I.
    """
    basis, image = _as_matrix(basis, mod), _as_matrix(image, mod)
    if not np.array_equal(basis[rows], np.eye(basis.shape[1], dtype=np.int64)):
        raise ValueError("basis is not the identity on the given rows")
    X = image[rows]
    if not np.array_equal(matmul_mod(basis, X, mod), image):
        raise ArithmeticError("operator does not preserve the subspace")
    return X


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
