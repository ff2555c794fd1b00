"""Group cochains with values in Z/p^s modules, cup products, coboundaries.

Two module shapes cover everything needed: a scalar module Z/p^s with a
character action, and the module of 2x2 matrices End(rho) for an explicit
representation rho, acted on by conjugation and paired by matrix
multiplication:

* each module holds one read-only action tensor ``action`` of shape
  (order, vs, vs), the matrix of v -> g.v on flattened values (vs = 1 or
  4): the character as 1 x 1 blocks, or rho(g) (x) rho(g)^-T, since
  row-major vec(r X s) = (r (x) s^T) vec(X).  D^1 for ``vanishes_in_h2``
  is scattered from it, on the rows (g, s) with s in the generating set
  S = ``group.generators`` only (see below);
* acting on a cochain table with any number of leading axes, as the
  coboundaries in degrees 0-2 and the cup product do, is one
  ``matmul_mod`` against the tensor for End(rho), and one elementwise
  product by ``char`` for a scalar module;
* the cup pairing multiplies values as 2 x 2 matrices through
  ``matmul_mod`` for End(rho), and elementwise for a scalar module.

Every product is therefore exact.  The modulus must be below 2^31, the
bound of ``matmul_mod``, whose first call in ``CoeffModule`` (the
homomorphism check) raises otherwise; so an elementwise product of two
residues, as in the action tensor and the scalar paths, is below 2^62 and
fits int64.  The inhomogeneous differential is the standard one:

  (dc)(g_1,...,g_{n+1}) = g_1 c(g_2,...) + sum (-1)^i c(..., g_i g_{i+1}, ...)
                          + (-1)^{n+1} c(g_1,...,g_n).

Rows whose last argument is a generator decide.  Let S = ``group.generators``
and let w be an m-cocycle (m >= 1) with w(..., s) = 0 for every s in S.
The cocycle identity at (..., k, s) has every term but the last two on a
row ending in s, so it gives w(..., ks) = w(..., k).  G is finite and S
generates it, so every x in G is a product of elements of S, and
w(..., x) = w(..., e).  Taking k = e gives w(..., e) = w(..., s) = 0.
So w = 0.  Two uses:

* ``is_cocycle``: dc is always a cocycle, so dc = 0 as soon as it
  vanishes on the rows G^n x S; no table over all of G^(n+1) is built.
* D^1: for c = dx - z with z a 2-cocycle, x solves dx = z as soon as it
  solves the G x S rows; for c = dx, the kernel of those rows is Z^1.
  So D^1 is built and factored on n |S| vs rows instead of n^2 vs
  (vs = 1 or 4), with the same solutions and kernel.
"""

from __future__ import annotations

import functools

import numpy as np

from ..corering.linalg import FullPivotFactor, matmul_mod
from ..corering.zmod import Modulus
from .groups import FiniteGroup


class CoeffModule:
    """Finite coefficient module for group cochains.

    kind "scalar": values in Z/p^s, g acting by the unit char[g].
    kind "matrix": values in M_2(Z/p^s), g acting by rho(g) (.) rho(g)^-1,
    paired by matrix multiplication.

    The action data (``char``, ``rho``, ``rho_inv``, ``action``) is
    read-only, so the factored coboundary D^1 cached on the module cannot
    go stale.
    """

    def __init__(self, group: FiniteGroup, modulus: Modulus, kind: str,
                 char: np.ndarray | None = None, rho: np.ndarray | None = None):
        self.group = group
        self.modulus = modulus
        self.kind = kind
        self._lower_modules: dict[bytes, CoeffModule] = {}  # see with_lower_entry
        self._cup_targets: dict[CoeffModule, CoeffModule] = {}  # see cup_target
        q = modulus.pM
        n = group.order
        if kind == "scalar":
            if char is None:
                char = np.ones(n, dtype=np.int64)
            char = np.asarray(char, dtype=np.int64) % q
            if any(not modulus.is_unit(int(c)) for c in char):
                raise ValueError("character values must be units")
            if not is_homomorphism(group, char.reshape(n, 1, 1), modulus):
                raise ValueError("character is not a homomorphism")
            char.setflags(write=False)
            self.char = char
            self.value_shape: tuple[int, ...] = ()
        elif kind == "matrix":
            rho = np.asarray(rho, dtype=np.int64) % q
            if rho.shape != (n, 2, 2):
                raise ValueError("rho must be (order, 2, 2)")
            if not is_homomorphism(group, rho, modulus):
                raise ValueError("rho is not a homomorphism")
            # then rho(g) rho(g^-1) = rho(1), so rho(1) = I makes every rho(g) invertible
            if not np.array_equal(rho[group.identity], np.eye(2, dtype=np.int64)):
                raise ValueError("rho does not send the identity to the identity matrix")
            self.rho = rho
            self.rho_inv = rho[group.inverse]
            rho.setflags(write=False)
            self.rho_inv.setflags(write=False)
            self.value_shape = (2, 2)
        else:
            raise ValueError(f"unknown module kind {kind!r}")

    @classmethod
    def scalar(cls, group, modulus, char=None):
        return cls(group, modulus, "scalar", char=char)

    @classmethod
    def end_of_rep(cls, group, modulus, rho):
        return cls(group, modulus, "matrix", rho=rho)

    @classmethod
    def end_of_characters(cls, group, modulus, chi1, chi2):
        n = group.order
        rho = np.zeros((n, 2, 2), dtype=np.int64)
        rho[:, 0, 0] = np.asarray(chi1) % modulus.pM
        rho[:, 1, 1] = np.asarray(chi2) % modulus.pM
        return cls.end_of_rep(group, modulus, rho)

    @functools.cached_property
    def action(self) -> np.ndarray:
        """action[g]: the matrix of v -> g.v on flattened values (read-only)."""
        if self.kind == "scalar":
            return self.char.reshape(-1, 1, 1)  # a view of the read-only char
        # [g, (a, c), (b, d)] = rho[g, a, b] * rho_inv[g, d, c]
        kron = self.rho[:, :, None, :, None] * self.rho_inv.transpose(0, 2, 1)[:, None, :, None, :]
        action = kron.reshape(-1, 4, 4) % self.modulus.pM
        action.setflags(write=False)
        return action

    @functools.cached_property
    def coboundary_factor(self) -> FullPivotFactor:
        """D^1: C^1 -> C^2 on flattened tables, on the rows (g, s) with s in
        ``group.generators`` only, built and factored once.

        Those rows suffice (module docstring): a 2-cocycle vanishing on
        G x S vanishes, so they have the same solutions for a cocycle
        right-hand side, and the same kernel Z^1, as all n^2 rows.
        """
        return FullPivotFactor(_coboundary_matrix(self), self.modulus)

    @functools.cached_property
    def cocycle_span(self) -> np.ndarray:
        """Columns spanning Z^1(G, V) = ker D^1 (read-only)."""
        K = self.coboundary_factor.kernel()
        K.setflags(write=False)
        return K

    def is_diagonal(self) -> bool:
        return self.kind == "matrix" and not np.any(self.rho[:, 0, 1]) and not np.any(
            self.rho[:, 1, 0]
        )

    def diagonal_characters(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.is_diagonal():
            raise ValueError("module is not End of a diagonal representation")
        return self.rho[:, 0, 0].copy(), self.rho[:, 1, 1].copy()

    def with_lower_entry(self, col: np.ndarray) -> "CoeffModule":
        """End(nu) for nu = [[chi1, 0], [col, chi2]], chi1 + chi2 the diagonal
        of self; one module per distinct col, so each factors its D^1 once."""
        chi1, chi2 = self.diagonal_characters()
        col = np.asarray(col, dtype=np.int64) % self.modulus.pM
        key = col.tobytes()
        if key not in self._lower_modules:
            nu = np.zeros((self.group.order, 2, 2), dtype=np.int64)
            nu[:, 0, 0], nu[:, 1, 1], nu[:, 1, 0] = chi1, chi2, col
            self._lower_modules[key] = CoeffModule.end_of_rep(self.group, self.modulus, nu)
        return self._lower_modules[key]

    @functools.cached_property
    def slot_modules(self) -> list[list["CoeffModule"]]:
        """[s-1][t-1]: the scalar module of the (s,t) slot, twisted by
        chi_s * chi_t^(-1); built once, so each slot factors its D^1 once."""
        chars = self.diagonal_characters()
        mod = self.modulus
        inverses = [np.array([mod.inv(int(c)) for c in chi], dtype=np.int64) for chi in chars]
        return [
            [CoeffModule.scalar(self.group, mod, (chi_s * inv_t) % mod.pM) for inv_t in inverses]
            for chi_s in chars
        ]

    def act_all(self, table: np.ndarray) -> np.ndarray:
        """out[g, ...] = g . table[...], for any number of leading axes."""
        if not self.value_shape:  # char[g] * table, residues: below 2^62
            return self.char.reshape((-1,) + (1,) * table.ndim) * table % self.modulus.pM
        n, vs = self.action.shape[:2]
        lead = table.shape[: table.ndim - len(self.value_shape)]
        out = matmul_mod(self.action.reshape(n * vs, vs), table.reshape(-1, vs).T, self.modulus)
        return out.reshape(n, vs, -1).swapaxes(1, 2).reshape((n,) + lead + self.value_shape)

    def pair(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a . b, multiplying values elementwise for scalars (residues: below
        2^62) and as 2 x 2 matrices otherwise; leading axes broadcast."""
        if not self.value_shape:
            return a * b % self.modulus.pM
        return matmul_mod(a, b, self.modulus)

    def compatible(self, other: "CoeffModule") -> bool:
        if self is other:
            return True
        if self.group is not other.group or self.modulus != other.modulus:
            return False
        if self.kind != other.kind:
            return False
        if self.kind == "matrix":
            return np.array_equal(self.rho, other.rho)
        return np.array_equal(self.char, other.char)

    def cup_target(self, other: "CoeffModule") -> "CoeffModule":
        """Module receiving a cup product of cochains in self and other,
        decided once per other module; the action data is read-only, so the
        decision cannot go stale."""
        target = self._cup_targets.get(other)
        if target is None:
            target = self._cup_targets[other] = self._decide_cup_target(other)
        return target

    def _decide_cup_target(self, other: "CoeffModule") -> "CoeffModule":
        if self is other and self.kind == "matrix":
            return self
        if self.group is not other.group or self.modulus != other.modulus:
            raise ValueError("module mismatch")
        if self.kind == "scalar" and other.kind == "scalar":
            char = (self.char * other.char) % self.modulus.pM
            for module in (self, other):  # reuse a module, and its factored D^1
                if np.array_equal(char, module.char):
                    return module
            return CoeffModule.scalar(self.group, self.modulus, char)
        if self.kind == "matrix" and np.array_equal(self.rho, other.rho):
            return self
        raise ValueError("no cup target for these modules")


class Cochain:
    """Function table G^n -> V, degree n <= 3."""

    def __init__(self, module: CoeffModule, degree: int, table: np.ndarray, *, reduced=False):
        """reduced: table is an int64 array of residues mod p^M already (as
        ``CoeffModule.pair`` returns), so it is not reduced again."""
        if degree < 0 or degree > 3:
            raise ValueError("degree must be between 0 and 3")
        n = module.group.order
        expected = (n,) * degree + module.value_shape
        if not reduced:
            table = np.asarray(table, dtype=np.int64) % module.modulus.pM
        if table.shape != expected:
            raise ValueError(f"table shape {table.shape} != {expected}")
        self.module = module
        self.degree = degree
        self.table = table

    @classmethod
    def random(cls, module, degree, rng):
        n = module.group.order
        shape = (n,) * degree + module.value_shape
        return cls(module, degree, rng.integers(0, module.modulus.pM, shape))

    def is_zero(self) -> bool:
        return not self.table.any()

    def __add__(self, other):
        self._check(other)
        return Cochain(self.module, self.degree, self.table + other.table)

    def __sub__(self, other):
        self._check(other)
        return Cochain(self.module, self.degree, self.table - other.table)

    def __neg__(self):
        return Cochain(self.module, self.degree, -self.table)

    def __mul__(self, k: int):
        return Cochain(self.module, self.degree, self.table * (int(k) % self.module.modulus.pM))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.module.compatible(other.module)
            and np.array_equal(self.table, other.table)
        )

    def _check(self, other):
        if not self.module.compatible(other.module) or self.degree != other.degree:
            raise ValueError("cochain mismatch")

    def entry(self, s: int, t: int) -> "Cochain":
        """Extract the (s,t) matrix coordinate as a twisted scalar cochain.

        Only valid over End of a diagonal representation, where the (s,t)
        slot transforms by the character chi_s * chi_t^(-1).
        """
        scalar_mod = self.module.slot_modules[s - 1][t - 1]
        return Cochain(scalar_mod, self.degree, self.table[..., s - 1, t - 1])


def _differential(c: Cochain, last) -> np.ndarray:
    """The table of dc on the rows whose last argument lies in ``last``, an
    index into G (a slice or an index array), before reduction mod p^s."""
    if c.degree > 2:
        raise ValueError("coboundary implemented for degree <= 2")
    mod = c.module
    T = mod.group.table
    t = c.table
    if c.degree == 0:  # (dc)(g) = g.c - c
        return mod.act_all(t)[last] - t
    if c.degree == 1:  # (dc)(g,h) = g.c(h) - c(gh) + c(g)
        return mod.act_all(t[last]) - t[T[:, last]] + t[:, None]
    # (dc)(g,h,k) = g.c(h,k) - c(gh,k) + c(g,hk) - c(g,h)
    on_last = t[:, last]
    return mod.act_all(on_last) - on_last[T] + t[:, T[:, last]] - t[:, :, None]


def coboundary(c: Cochain) -> Cochain:
    """Standard inhomogeneous differential; d(d(c)) = 0."""
    return Cochain(c.module, c.degree + 1, _differential(c, slice(None)))


def cup(a: Cochain, b: Cochain) -> Cochain:
    """Cup product composed with the module pairing.

    (a cup b)(g_1,...,g_{i+j}) = a(g_1..g_i) . ((g_1...g_i) . b(g_{i+1}..)).
    Total degree up to 3 (enough for Leibniz checks on 1-cochains).
    """
    i, j = a.degree, b.degree
    if i + j > 3:
        raise ValueError("cup implemented for total degree <= 3")
    target = a.module.cup_target(b.module)
    G = a.module.group
    prefix = np.array(G.identity)  # [g_1, ..., g_i] = g_1 ... g_i
    for _ in range(i):
        prefix = G.table[prefix]
    acted = b.module.act_all(b.table)[prefix]
    front = a.table.reshape(a.table.shape[:i] + (1,) * j + target.value_shape)
    return Cochain(target, i + j, target.pair(front, acted), reduced=True)


def is_cocycle(c: Cochain) -> bool:
    """dc = 0, decided on the rows whose last argument is in
    ``group.generators`` only (module docstring)."""
    dc = _differential(c, list(c.module.group.generators))
    return not np.any(dc % c.module.modulus.pM)


def vanishes_in_h2(z: Cochain):
    """Decide z in B^2(G, V); returns (bool, witness 1-cochain or None).

    z is checked to be a cocycle by ``is_cocycle``, on the rows G^2 x S,
    S = ``group.generators``.  Then dx = z holds as soon as it holds on the
    rows G x S, since dx - z is a cocycle vanishing there; so x is solved
    against z.table[:, S] only.
    """
    if z.degree != 2:
        raise ValueError("input must be a 2-cochain")
    if not is_cocycle(z):
        raise ValueError("input is not a 2-cocycle")
    x = z.module.coboundary_factor.solve(z.table[:, z.module.group.generators].reshape(-1))
    if x is None:
        return False, None
    n = z.module.group.order
    shape = (n,) + z.module.value_shape
    return True, Cochain(z.module, 1, x.reshape(shape))


def _coboundary_matrix(module: CoeffModule) -> np.ndarray:
    """Rows G x S of the matrix of d: C^1 -> C^2 on flattened tables,
    S = ``group.generators``, in the order of z.table[:, S].

    Row block (g, s) holds g.(-) at column block s, -1 at block gs and +1
    at block g, after (dc)(g,s) = g.c(s) - c(gs) + c(g).
    """
    action = module.action
    n, vs = action.shape[:2]
    S = np.array(module.group.generators)
    g, j = np.indices((n, S.size))
    s = S[j]
    eye = np.eye(vs, dtype=np.int64)
    D = np.zeros((n, S.size, vs, n, vs), dtype=np.int64)
    D[g, j, :, s, :] += action[g]
    D[g, j, :, module.group.table[g, s], :] -= eye
    D[g, j, :, g, :] += eye
    return D.reshape(n * S.size * vs, n * vs) % module.modulus.pM


def random_cocycle(module: CoeffModule, rng) -> Cochain:
    """Random element of Z^1(G, V), uniform over a spanning set."""
    K = module.cocycle_span
    coeffs = rng.integers(0, module.modulus.pM, K.shape[1])
    v = matmul_mod(K, coeffs, module.modulus)
    n = module.group.order
    return Cochain(module, 1, v.reshape((n,) + module.value_shape))


def all_cocycles(module: CoeffModule):
    """Every element of Z^1(G, V); only for very small search spaces."""
    from itertools import product as iproduct

    K = module.cocycle_span
    q = module.modulus.pM
    coeffs = np.array(list(iproduct(range(q), repeat=K.shape[1])), dtype=np.int64)
    values = matmul_mod(coeffs, K.T, module.modulus)
    _, first = np.unique(values, axis=0, return_index=True)  # first occurrences, in order
    shape = (module.group.order,) + module.value_shape
    return [Cochain(module, 1, values[k].reshape(shape)) for k in np.sort(first)]


def is_homomorphism(G: FiniteGroup, nu: np.ndarray, mod: Modulus) -> bool:
    """nu(g) nu(h) = nu(gh) for all g, h, for a table of square matrices
    (characters, representations, unipotent and deformation tables)."""
    return np.array_equal(matmul_mod(nu[:, None], nu[None, :], mod), nu[G.table] % mod.pM)
