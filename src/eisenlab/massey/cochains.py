"""Group cochains with values in Z/p^s modules, cup products, coboundaries.

Two module shapes cover everything needed: a scalar module Z/p^s with a
character action, and the module of 2x2 matrices End(rho) for an explicit
representation rho, acted on by conjugation and paired by matrix
multiplication.  Both run through one code path:

* each module holds one read-only action tensor ``action`` of shape
  (order, vs, vs), the matrix of v -> g.v on flattened values (vs = 1 or
  4): the character as 1 x 1 blocks, or rho(g) (x) rho(g)^-T, since
  row-major vec(r X s) = (r (x) s^T) vec(X);
* acting on a cochain table with any number of leading axes is one
  ``matmul_mod`` against it, and so are the coboundaries in degrees 0-2;
  D^1 for ``vanishes_in_h2`` is scattered from it;
* the cup pairing multiplies values as d x d matrices (d = 1 for scalars)
  through ``matmul_mod``.

Every product is therefore exact.  The modulus must be below 2^31, the
bound of ``matmul_mod``, whose first call in ``CoeffModule`` (the
homomorphism check) raises otherwise; so an elementwise product of two
residues, as in the action tensor, fits int64.  The inhomogeneous
differential is the standard one:

  (dc)(g_1,...,g_{n+1}) = g_1 c(g_2,...) + sum (-1)^i c(..., g_i g_{i+1}, ...)
                          + (-1)^{n+1} c(g_1,...,g_n).
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
        """D^1: C^1 -> C^2 on flattened tables, built and factored once."""
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
        n, vs = self.action.shape[:2]
        lead = table.shape[: table.ndim - len(self.value_shape)]
        out = matmul_mod(self.action.reshape(n * vs, vs), table.reshape(-1, vs).T, self.modulus)
        return out.reshape(n, vs, -1).swapaxes(1, 2).reshape((n,) + lead + self.value_shape)

    def pair(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a . b, multiplying values as d x d matrices (d = 1 for scalars);
        leading axes broadcast."""
        square, k = self.value_shape or (1, 1), len(self.value_shape)
        out = matmul_mod(
            a.reshape(a.shape[: a.ndim - k] + square),
            b.reshape(b.shape[: b.ndim - k] + square),
            self.modulus,
        )
        return out.reshape(out.shape[:-2] + self.value_shape)

    def compatible(self, other: "CoeffModule") -> bool:
        if self.group is not other.group or self.modulus != other.modulus:
            return False
        if self.kind != other.kind:
            return False
        if self.kind == "matrix":
            return np.array_equal(self.rho, other.rho)
        return np.array_equal(self.char, other.char)

    def cup_target(self, other: "CoeffModule") -> "CoeffModule":
        """Module receiving a cup product of cochains in self and other."""
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

    def __init__(self, module: CoeffModule, degree: int, table: np.ndarray):
        if degree < 0 or degree > 3:
            raise ValueError("degree must be between 0 and 3")
        n = module.group.order
        expected = (n,) * degree + module.value_shape
        table = np.asarray(table, dtype=np.int64) % module.modulus.pM
        if table.shape != expected:
            raise ValueError(f"table shape {table.shape} != {expected}")
        self.module = module
        self.degree = degree
        self.table = table

    @classmethod
    def zero(cls, module, degree):
        n = module.group.order
        return cls(module, degree, np.zeros((n,) * degree + module.value_shape, np.int64))

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


def coboundary(c: Cochain) -> Cochain:
    """Standard inhomogeneous differential; d(d(c)) = 0."""
    if c.degree > 2:
        raise ValueError("coboundary implemented for degree <= 2")
    mod = c.module
    T = mod.group.table
    t = c.table
    out = mod.act_all(t)  # [g, ...] = g . c(...)
    if c.degree == 0:
        out = out - t
    elif c.degree == 1:  # (dc)(g,h) = g.c(h) - c(gh) + c(g)
        out = out - t[T] + t[:, None]
    else:  # (dc)(g,h,k) = g.c(h,k) - c(gh,k) + c(g,hk) - c(g,h)
        out = out - t[T, :] + t[:, T] - t[:, :, None]
    return Cochain(mod, c.degree + 1, out)


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
    return Cochain(target, i + j, target.pair(front, acted))


def is_cocycle(c: Cochain) -> bool:
    return coboundary(c).is_zero()


def vanishes_in_h2(z: Cochain):
    """Decide z in B^2(G, V); returns (bool, witness 1-cochain or None)."""
    if z.degree != 2:
        raise ValueError("input must be a 2-cochain")
    if not is_cocycle(z):
        raise ValueError("input is not a 2-cocycle")
    x = z.module.coboundary_factor.solve(z.table.reshape(-1))
    if x is None:
        return False, None
    n = z.module.group.order
    shape = (n,) + z.module.value_shape
    return True, Cochain(z.module, 1, x.reshape(shape))


def _coboundary_matrix(module: CoeffModule) -> np.ndarray:
    """Matrix of d: C^1 -> C^2 on flattened tables.

    Row block (g, h) holds g.(-) at column block h, -1 at block gh and +1
    at block g, after (dc)(g,h) = g.c(h) - c(gh) + c(g).
    """
    action = module.action
    n, vs = action.shape[:2]
    g, h = np.indices((n, n))
    eye = np.eye(vs, dtype=np.int64)
    D = np.zeros((n, n, vs, n, vs), dtype=np.int64)
    D[g, h, :, h, :] += action[g]
    D[g, h, :, module.group.table, :] -= eye
    D[g, h, :, g, :] += eye
    return D.reshape(n * n * vs, n * vs) % module.modulus.pM


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
