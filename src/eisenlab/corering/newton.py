"""Newton polygons, coefficient-valuation sequences, and Hensel lifting.

The valuation sequence z_i = min(z_{i-1}, v_p(coefficient_i)) of a
distinguished polynomial is a finer invariant than its Newton polygon (which
is the lower hull of the points (i, z_i)).  Valuations at or above the
working precision M are reported as the symbolic AtLeast(M), never as a
number; such points are omitted from hulls, which is sound because every
hull-relevant height is below M.

Arithmetic over F_p[x] (factoring, Bezout pairs, the Hensel corrections) is
sympy's ``galoistools``; the helpers here only convert between its
leading-first coefficient lists and the constant-first ``PadicPoly``.
"""

from __future__ import annotations

from dataclasses import dataclass

from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ

from .zmod import AtLeast, PadicPoly, Valuation


@dataclass(frozen=True)
class NewtonPolygon:
    """Vertices (i, v) of a lower convex hull, slopes strictly increasing."""

    vertices: tuple[tuple[int, int], ...]

    def segments(self):
        """Yield (i_left, v_left, i_right, v_right) per hull segment."""
        for a, b in zip(self.vertices, self.vertices[1:]):
            yield (a[0], a[1], b[0], b[1])

    def __repr__(self):
        return "NP{" + ", ".join(f"({i},{v})" for i, v in self.vertices) + "}"


def lower_convex_hull(points) -> NewtonPolygon:
    """Lower convex hull of (i, v) points, each v an int or AtLeast(M).

    AtLeast points are omitted.  Collinear interior points are not vertices.
    The last point must be an int; first coordinates must strictly increase.
    """
    pts = list(points)
    if not pts:
        raise ValueError("no points")
    for (i1, _), (i2, _) in zip(pts, pts[1:]):
        if i2 <= i1:
            raise ValueError("first coordinates must strictly increase")
    if isinstance(pts[-1][1], AtLeast):
        raise ValueError("last point must be an int, not AtLeast")
    hull: list[tuple[int, int]] = []
    for pt in [(i, int(v)) for i, v in pts if not isinstance(v, AtLeast)]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep strict convexity: drop (x2, y2) if on or above chord
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return NewtonPolygon(tuple(hull))


def t_sequence(g: PadicPoly) -> list[Valuation]:
    """The running-minimum valuation sequence of a distinguished monic g:
    z_0 = v(coeff_0), z_i = min(z_{i-1}, v(coeff_i)), precision-capped."""
    if not g.is_distinguished():
        raise ValueError("polynomial is not monic distinguished")
    out: list[Valuation] = []
    cur: Valuation = AtLeast(g.modulus.M)
    for v in g.coefficient_valuations():
        if isinstance(cur, AtLeast):
            cur = v
        elif not isinstance(v, AtLeast):
            cur = min(cur, v)
        out.append(cur)
    return out


def newton_polygon(f: PadicPoly) -> NewtonPolygon:
    """Newton polygon of f: hull of (i, v_p(coefficient_i))."""
    vals = f.coefficient_valuations()
    return lower_convex_hull(list(enumerate(vals)))


# -- F_p[x] and Hensel lifting ------------------------------------------------


def _gf(coeffs, p: int) -> list[int]:
    """Constant-first integer coefficients as a sympy F_p[x] list (leading first)."""
    return gt.gf_from_int_poly([int(c) for c in reversed(coeffs)], p)


def _from_gf(f) -> list[int]:
    """A sympy F_p[x] list back to constant-first Python ints."""
    return [int(c) for c in reversed(f)]


def _fp_factor(coeffs: list[int], p: int) -> list[tuple[tuple[int, ...], int]]:
    """Factor a monic polynomial over F_p into (irreducible, multiplicity).

    Irreducibles are monic and constant-first, ordered by degree and then by
    their coefficients read from the leading one down.
    """
    f = _gf(coeffs, p)
    if f[:1] != [1]:
        raise ArithmeticError("factor target must be monic")
    _, factors = gt.gf_factor(f, p, ZZ)
    return sorted(
        ((tuple(_from_gf(g)), int(k)) for g, k in factors),
        key=lambda gk: (len(gk[0]), gk[0][::-1]),
    )


def hensel_lift_coprime(F: PadicPoly, g0: list[int], h0: list[int]):
    """Lift a coprime factorization F = g0 * h0 (mod p) to mod p^M.

    g0 must be monic; h0 absorbs the leading coefficient of F (which need
    not be a unit).  Returns (G, H) with F = G * H exactly mod p^M, G monic
    of degree deg(g0), G = g0 and H = h0 mod p.  Linear Hensel steps; the
    Bezout pair s*g0 + t*h0 = 1 is computed once over F_p.
    """
    mod = F.modulus
    p, pM = mod.p, mod.pM
    g, h = _gf(g0, p), _gf(h0, p)
    if g[:1] != [1]:
        raise ValueError("g0 must be monic")
    s, t, gcd = gt.gf_gcdex(g, h, p, ZZ)
    if gcd != [1]:
        raise ValueError("factors are not coprime mod p")
    G, H = PadicPoly(_from_gf(g), mod), PadicPoly(_from_gf(h), mod)
    pk = p
    while pk < pM:
        err = (F - G * H).coeffs
        if any(x % pk for x in err):
            raise ArithmeticError("hensel drift")
        c = _gf([x // pk for x in err], p)
        # c = g * (s*c + q*h) + h * r with t*c = q*g + r, deg r < deg g
        q, r = gt.gf_div(gt.gf_mul(t, c, p, ZZ), g, p, ZZ)
        dh = gt.gf_add(gt.gf_mul(s, c, p, ZZ), gt.gf_mul(q, h, p, ZZ), p, ZZ)
        G = G + PadicPoly(_from_gf(r), mod) * pk
        H = H + PadicPoly(_from_gf(dh), mod) * pk
        pk *= p
    if not (F - G * H).is_zero():
        raise ArithmeticError("hensel lift failed to converge")
    return G, H


def hensel_split_distinguished(Q: PadicPoly):
    """Split monic Q = f * u with f distinguished (f = y^e mod p), u(0) a unit.

    e is the multiplicity of y in Q mod p.  Verified exactly on every call.
    """
    if not Q.is_monic():
        raise ValueError("Q must be monic")
    mod = Q.modulus
    Qp = Q.mod_p()
    e = 0
    while e < len(Qp) and Qp[e] == 0:
        e += 1
    n = Q.degree
    if e == 0:
        return PadicPoly.one(mod), Q
    if e >= n:
        return Q, PadicPoly.one(mod)
    f, u = hensel_lift_coprime(Q, [0] * e + [1], Qp[e:])
    if not f.is_distinguished():
        raise ArithmeticError("distinguished factor drifted")
    if not mod.is_unit(u.coeffs[0]):
        raise ArithmeticError("cofactor constant is not a unit")
    return f, u


def unit_window_factor(F: PadicPoly, lo: int, hi: int) -> PadicPoly:
    """Extract the monic factor of F whose mod-p support is y^lo..y^hi.

    Requires F mod p = y^lo * w(y) with w(0) != 0 and deg(F mod p) = hi
    (the shape produced by tilting a slope segment to slope zero).  Two
    coprime Hensel splits: strip y^lo from the bottom, then reverse to strip
    the positive-valuation top, leaving the unit window of degree hi - lo.
    """
    mod = F.modulus
    Fp = F.mod_p()
    deg_p = max((i for i, c in enumerate(Fp) if c), default=-1)
    if deg_p != hi or any(Fp[i] for i in range(lo)) or (lo < len(Fp) and Fp[lo] == 0):
        raise ValueError("polynomial does not have the expected mod-p window")
    if lo > 0:
        _, W = hensel_lift_coprime(F, [0] * lo + [1], Fp[lo:])
    else:
        W = F
    if W.degree > hi - lo:
        # reversed W has unit leading part of degree (deg W) - (hi - lo)
        Wr = W.reversed().monic_scaled()
        Wrp = Wr.mod_p()
        k = W.degree - (hi - lo)
        _, tail = hensel_lift_coprime(Wr, [0] * k + [1], Wrp[k:])
        W = tail.reversed()
    return W.monic_scaled()
