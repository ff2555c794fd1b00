"""Scalars and polynomials over Z/p^M.

Everything downstream (Hecke matrices, zeta elements, Massey cochains) works
over a ring Z/p^M for a prime p > 3.  A ``Modulus`` bundles (p, M) and is
passed around explicitly; element values are plain Python ints in [0, p^M).

Valuations read from a residue mod p^M are only trustworthy below M, so a
valuation is either a plain int below M or ``AtLeast(M)``, a
precision-capped reading; there is no third, infinite kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

def valuation_p(x: int, p: int) -> int:
    """Largest k with p^k | x, for x != 0.

    A valuation is an int or AtLeast(M); x = 0 has neither and raises
    ValueError (``Modulus.valuation`` reads 0 mod p^M as AtLeast(M)).
    """
    if p < 2:
        raise ValueError(f"p must be prime, got {p}")
    if x == 0:
        raise ValueError("valuation of 0 is not an integer")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@dataclass(frozen=True)
class AtLeast:
    """A valuation known only to be >= bound (precision cap)."""

    bound: int

    def __repr__(self) -> str:
        return f">={self.bound}"


Valuation = int | AtLeast


@dataclass(frozen=True)
class Modulus:
    """Descriptor for the ring Z/p^M, p prime > 3, M >= 1."""

    p: int
    M: int

    def __post_init__(self):
        if self.p <= 3:
            raise ValueError(f"p must be a prime > 3, got {self.p}")
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        pM = self.p**self.M
        if pM >= 1 << 127:
            raise ValueError(f"p^M = {pM} does not fit a 128-bit word")
        object.__setattr__(self, "_pM", pM)

    @property
    def pM(self) -> int:
        return self._pM

    def inv(self, x: int) -> int:
        """Inverse of a unit mod p^M."""
        x %= self._pM
        if x % self.p == 0:
            raise ZeroDivisionError(f"{x} is not a unit mod {self.p}^{self.M}")
        return pow(x, -1, self._pM)

    def is_unit(self, x: int) -> bool:
        return x % self.p != 0

    def valuation(self, x: int) -> Valuation:
        """Valuation of a residue; readings >= M are capped to AtLeast(M)."""
        x %= self._pM
        if x == 0:
            return AtLeast(self.M)
        v = valuation_p(x, self.p)
        return v if v < self.M else AtLeast(self.M)


class PadicPoly:
    """Polynomial over Z/p^M, constant coefficient first.

    Coefficients are stored as plain ints sharing one modulus; trailing zero
    coefficients are trimmed unless the polynomial is identically zero.
    """

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs: Iterable[int], modulus: Modulus):
        cs = [c % modulus.pM for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        self.coeffs = cs
        self.modulus = modulus

    @classmethod
    def one(cls, modulus: Modulus) -> "PadicPoly":
        return cls([1], modulus)

    @property
    def degree(self) -> int:
        """Degree; 0 for constants including the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def is_distinguished(self) -> bool:
        """Monic with every non-leading coefficient divisible by p."""
        p = self.modulus.p
        return self.is_monic() and all(c % p == 0 for c in self.coeffs[:-1])

    def __eq__(self, other):
        return (
            isinstance(other, PadicPoly)
            and self.modulus == other.modulus
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((tuple(self.coeffs), self.modulus))

    def __repr__(self):
        m = self.modulus
        return f"PadicPoly({self.coeffs}, mod {m.p}^{m.M})"

    def __add__(self, other: "PadicPoly") -> "PadicPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return PadicPoly([x + y for x, y in zip(a, b)], self.modulus)

    def __sub__(self, other: "PadicPoly") -> "PadicPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return PadicPoly([x - y for x, y in zip(a, b)], self.modulus)

    def __mul__(self, other) -> "PadicPoly":
        if isinstance(other, int):
            return PadicPoly([c * other for c in self.coeffs], self.modulus)
        self._check(other)
        pM = self.modulus.pM
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % pM
        return PadicPoly(out, self.modulus)

    __rmul__ = __mul__

    def reversed(self) -> "PadicPoly":
        """y^deg * f(1/y): coefficient sequence reversed."""
        return PadicPoly(list(reversed(self.coeffs)), self.modulus)

    def mod_p(self) -> list[int]:
        """Coefficients reduced mod p (not trimmed)."""
        p = self.modulus.p
        return [c % p for c in self.coeffs]

    def coefficient_valuations(self) -> list[Valuation]:
        return [self.modulus.valuation(c) for c in self.coeffs]

    def monic_scaled(self) -> "PadicPoly":
        """Divide by the (unit) leading coefficient."""
        u = self.modulus.inv(self.coeffs[-1])
        return self * u

    def _check(self, other: "PadicPoly"):
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
