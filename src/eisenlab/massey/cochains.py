"""Group cochains with values in Z/p^s modules, cup products, coboundaries.

Two module shapes cover everything needed: a scalar module Z/p^s with a
character action, and the module of 2x2 matrices End(rho) for an explicit
representation rho, acted on by conjugation and paired by matrix
multiplication.  The inhomogeneous differential is the standard one:

  (dc)(g_1,...,g_{n+1}) = g_1 c(g_2,...) + sum (-1)^i c(..., g_i g_{i+1}, ...)
                          + (-1)^{n+1} c(g_1,...,g_n).
"""

from __future__ import annotations

import functools

import numpy as np

from ..corering.linalg import FullPivotFactor
from ..corering.zmod import Modulus
from .groups import FiniteGroup


class CoeffModule:
    """Finite coefficient module for group cochains.

    kind "scalar": values in Z/p^s, g acting by the unit char[g].
    kind "matrix": values in M_2(Z/p^s), g acting by rho(g) (.) rho(g)^-1,
    paired by matrix multiplication.

    The action data (``char``, ``rho``, ``rho_inv``) is read-only, so the
    factored coboundary D^1 cached on the module cannot go stale.
    """

    def __init__(self, group: FiniteGroup, modulus: Modulus, kind: str,
                 char: np.ndarray | None = None, rho: np.ndarray | None = None):
        self.group = group
        self.modulus = modulus
        self.kind = kind
        q = modulus.pM
        n = group.order
        if kind == "scalar":
            if char is None:
                char = np.ones(n, dtype=np.int64)
            char = np.asarray(char, dtype=np.int64) % q
            if any(not modulus.is_unit(int(c)) for c in char):
                raise ValueError("character values must be units")
            for g in range(n):
                for h in range(n):
                    if (char[g] * char[h] - char[group.mul(g, h)]) % q != 0:
                        raise ValueError("character is not a homomorphism")
            char.setflags(write=False)
            self.char = char
            self.value_shape: tuple[int, ...] = ()
        elif kind == "matrix":
            rho = np.asarray(rho, dtype=np.int64) % q
            if rho.shape != (n, 2, 2):
                raise ValueError("rho must be (order, 2, 2)")
            for g in range(n):
                for h in range(n):
                    if np.any((rho[g] @ rho[h] - rho[group.mul(g, h)]) % q != 0):
                        raise ValueError("rho is not a homomorphism")
            self.rho = rho
            self.rho_inv = np.zeros_like(rho)
            for g in range(n):
                det = int(rho[g, 0, 0] * rho[g, 1, 1] - rho[g, 0, 1] * rho[g, 1, 0]) % q
                dinv = modulus.inv(det)
                adj = np.array(
                    [[rho[g, 1, 1], -rho[g, 0, 1]], [-rho[g, 1, 0], rho[g, 0, 0]]],
                    dtype=np.int64,
                )
                self.rho_inv[g] = (adj * dinv) % q
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

    @property
    def value_size(self) -> int:
        return 1 if self.kind == "scalar" else 4

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

    def act(self, g: int, values: np.ndarray) -> np.ndarray:
        """Apply g to an array of values (leading axes arbitrary)."""
        q = self.modulus.pM
        if self.kind == "scalar":
            return (values * int(self.char[g])) % q
        return (self.rho[g] @ values @ self.rho_inv[g]) % q

    def act_all(self, table: np.ndarray) -> np.ndarray:
        """out[g, ...] = g . table[...] for a degree-1-shaped broadcast."""
        q = self.modulus.pM
        if self.kind == "scalar":
            return (self.char[:, None] * table[None, :]) % q
        # out[g, h] = rho[g] table[h] rho_inv[g]
        return np.einsum("gab,hbc,gcd->ghad", self.rho, table, self.rho_inv) % q

    def pair(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        q = self.modulus.pM
        if self.kind == "scalar":
            return (a * b) % q
        return (a @ b) % q

    def compatible(self, other: "CoeffModule") -> bool:
        if self.group is not other.group or self.modulus != other.modulus:
            return False
        if self.kind != other.kind:
            return False
        if self.kind == "matrix":
            return np.array_equal(self.rho, other.rho)
        return True

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
        return Cochain(self.module, self.degree, self.table * int(k))

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
    q = mod.modulus.pM
    G = mod.group
    n = G.order
    T = G.table
    t = c.table
    if c.degree == 0:
        if mod.kind == "scalar":
            out = (mod.char * int(t)) % q - t
        else:
            out = np.einsum("gab,bc,gcd->gad", mod.rho, t, mod.rho_inv) - t
        return Cochain(mod, 1, out)
    if c.degree == 1:
        gact = mod.act_all(t)  # [g, h] = g . c(h)
        out = gact - t[T] + t[:, None]
        return Cochain(mod, 2, out)
    # degree 2: (dc)(g,h,k) = g.c(h,k) - c(gh,k) + c(g,hk) - c(g,h)
    if mod.kind == "scalar":
        gact = (mod.char[:, None, None] * t[None, :, :]) % q
    else:
        gact = np.einsum("gab,hkbc,gcd->ghkad", mod.rho, t, mod.rho_inv) % q
    out = gact - t[T, :] + t[:, T] - t[:, :, None]
    return Cochain(mod, 3, out)


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
    n = G.order
    q = target.modulus.pM
    if i == 0:
        return Cochain(target, j, target.pair(a.table, b.table))
    if i == 1 and j == 1:  # hot path
        acted = b.module.act_all(b.table)  # [g, h] = g . b(h)
        if target.kind == "scalar":
            out = (a.table[:, None] * acted) % q
        else:
            out = np.einsum("gab,ghbc->ghac", a.table, acted) % q
        return Cochain(target, 2, out)
    from itertools import product as iproduct

    out = np.zeros((n,) * (i + j) + target.value_shape, dtype=np.int64)
    for front in iproduct(range(n), repeat=i):
        prefix = G.prod(front)
        acted = b.module.act(prefix, b.table)
        out[front] = target.pair(a.table[front], acted)
    return Cochain(target, i + j, out % q)


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
    """Matrix of d: C^1 -> C^2 on flattened tables."""
    n = module.group.order
    vs = module.value_size
    cols = []
    for k in range(n * vs):
        e = np.zeros(n * vs, dtype=np.int64)
        e[k] = 1
        c = Cochain(module, 1, e.reshape((n,) + module.value_shape))
        cols.append(coboundary(c).table.reshape(-1))
    return np.stack(cols, axis=1)


def random_cocycle(module: CoeffModule, rng) -> Cochain:
    """Random element of Z^1(G, V), uniform over a spanning set."""
    K = module.cocycle_span
    q = module.modulus.pM
    coeffs = rng.integers(0, q, K.shape[1])
    v = (K @ coeffs) % q
    n = module.group.order
    return Cochain(module, 1, v.reshape((n,) + module.value_shape))


def all_cocycles(module: CoeffModule):
    """Every element of Z^1(G, V); only for very small search spaces."""
    from itertools import product as iproduct

    K = module.cocycle_span
    q = module.modulus.pM
    n = module.group.order
    seen = set()
    out = []
    for coeffs in iproduct(range(q), repeat=K.shape[1]):
        v = tuple((K @ np.array(coeffs, dtype=np.int64)) % q)
        if v not in seen:
            seen.add(v)
            out.append(
                Cochain(module, 1, np.array(v, dtype=np.int64).reshape((n,) + module.value_shape))
            )
    return out
