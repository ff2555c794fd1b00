"""Newton polygons, coefficient-valuation sequences, and Hensel lifting.

The valuation sequence z_i = min(z_{i-1}, v_p(coefficient_i)) of a
distinguished polynomial is a finer invariant than its Newton polygon (which
is the lower hull of the points (i, z_i)).  Valuations at or above the
working precision M are reported as the symbolic AtLeast(M), never as a
number; such points are omitted from hulls, which is sound because every
hull-relevant height is below M.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isinf

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


def _finite(v: Valuation) -> bool:
    if isinstance(v, AtLeast):
        return False
    return not (isinstance(v, float) and isinf(v))


def lower_convex_hull(points) -> NewtonPolygon:
    """Lower convex hull of (i, v) lattice points; infinite v omitted.

    Collinear interior points are not vertices.  The last point must be
    finite; first coordinates must strictly increase.
    """
    pts = list(points)
    if not pts:
        raise ValueError("no points")
    for (i1, _), (i2, _) in zip(pts, pts[1:]):
        if i2 <= i1:
            raise ValueError("first coordinates must strictly increase")
    if not _finite(pts[-1][1]):
        raise ValueError("last point must be finite")
    finite = [(i, int(v)) for i, v in pts if _finite(v)]
    hull: list[tuple[int, int]] = []
    for pt in finite:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep strict convexity: drop (x2, y2) if on or above chord
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return NewtonPolygon(tuple(hull))


def running_min_valuations(g: PadicPoly) -> list[Valuation]:
    """z_0 = v(coeff_0), z_i = min(z_{i-1}, v(coeff_i)), precision-capped."""
    vals = g.coefficient_valuations()
    out: list[Valuation] = []
    cur: Valuation = AtLeast(g.modulus.M)
    for v in vals:
        if isinstance(cur, AtLeast):
            cur = v
        elif not isinstance(v, AtLeast):
            cur = min(cur, v)
        out.append(cur)
    return out


def t_sequence(g: PadicPoly) -> list[Valuation]:
    """The running-minimum valuation sequence of a distinguished monic g."""
    if not g.is_distinguished():
        raise ValueError("polynomial is not monic distinguished")
    return running_min_valuations(g)


def newton_polygon(f: PadicPoly) -> NewtonPolygon:
    """Newton polygon of f: hull of (i, v_p(coefficient_i))."""
    vals = f.coefficient_valuations()
    return lower_convex_hull(list(enumerate(vals)))


# -- Hensel lifting ---------------------------------------------------------


def _fp_trim(a: list[int], p: int) -> list[int]:
    while len(a) > 1 and a[-1] % p == 0:
        a = a[:-1]
    return a


def _fp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x % p:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _fp_divmod(num: list[int], den: list[int], p: int):
    num = [x % p for x in num]
    den = _fp_trim([x % p for x in den], p)
    dn = len(den) - 1
    inv = pow(den[-1], -1, p)
    q = [0] * max(1, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = (num[i] * inv) % p
        if c:
            q[i - dn] = c
            for j, y in enumerate(den):
                num[i - dn + j] = (num[i - dn + j] - c * y) % p
    return _fp_trim(q, p), _fp_trim(num[:dn] or [0], p)


def _fp_ext_euclid(a: list[int], b: list[int], p: int):
    """(g, s, t) with s a + t b = g over F_p[x], g monic."""
    r0, r1 = _fp_trim(a[:], p), _fp_trim(b[:], p)
    s0, s1 = [1], [0]
    t0, t1 = [0], [1]

    def sub(u, v):
        n = max(len(u), len(v))
        u = u + [0] * (n - len(u))
        v = v + [0] * (n - len(v))
        return _fp_trim([(x - y) % p for x, y in zip(u, v)], p)

    while any(c % p for c in r1):
        q, r = _fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, _fp_mul(q, s1, p))
        t0, t1 = t1, sub(t0, _fp_mul(q, t1, p))
    inv = pow(r0[-1] % p, -1, p)
    scale = lambda u: [(x * inv) % p for x in u]
    return scale(r0), scale(s0), scale(t0)


def _fp_factor(coeffs: list[int], p: int) -> list[tuple[tuple[int, ...], int]]:
    """Factor a monic polynomial over F_p into (irreducible, multiplicity).

    Trial division by monic irreducibles in degree order; fine for the tiny
    degrees (<= 8) seen here.
    """
    f = _fp_trim([c % p for c in coeffs], p)
    if f[-1] % p != 1:
        raise ArithmeticError("factor target must be monic")
    out: list[tuple[tuple[int, ...], int]] = []

    def monic_polys(d):
        for mask in range(p**d):
            cs = []
            x = mask
            for _ in range(d):
                cs.append(x % p)
                x //= p
            yield cs + [1]

    irreducibles_cache: dict[int, list[list[int]]] = {}

    def irreducibles(d):
        if d in irreducibles_cache:
            return irreducibles_cache[d]
        irr = []
        for cand in monic_polys(d):
            if all(
                _fp_divmod(cand, q, p)[1] != [0]
                for dd in range(1, d // 2 + 1)
                for q in irreducibles(dd)
            ):
                irr.append(cand)
        irreducibles_cache[d] = irr
        return irr

    d = 1
    while len(f) - 1 > 0:
        if d > (len(f) - 1) // 2:
            out.append((tuple(f), 1))  # remainder is irreducible
            break
        for q in irreducibles(d):
            mult = 0
            while True:
                quo, rem = _fp_divmod(f, q, p)
                if rem == [0]:
                    f = quo
                    mult += 1
                else:
                    break
            if mult:
                out.append((tuple(q), mult))
            if len(f) - 1 == 0:
                break
        d += 1
    return out


def hensel_lift_coprime(F: PadicPoly, g0: list[int], h0: list[int]):
    """Lift a coprime factorization F = g0 * h0 (mod p) to mod p^M.

    g0 must be monic; h0 absorbs the leading coefficient of F (which need
    not be a unit).  Returns (G, H) with F = G * H exactly mod p^M, G monic
    of degree deg(g0), G = g0 and H = h0 mod p.  Linear Hensel steps; the
    Bezout pair is computed once over F_p.
    """
    mod = F.modulus
    p, M, pM = mod.p, mod.M, mod.pM
    g0 = _fp_trim([c % p for c in g0], p)
    h0 = _fp_trim([c % p for c in h0], p)
    if g0[-1] % p != 1:
        raise ValueError("g0 must be monic")
    gcd, s, t = _fp_ext_euclid(g0, h0, p)
    if len(gcd) != 1:
        raise ValueError("factors are not coprime mod p")
    dG = len(g0) - 1
    dH = F.degree - dG

    G = list(g0) + [0] * 0
    H = list(h0) + [0] * (dH + 1 - len(h0))
    pk = p
    while pk < pM:
        GH = PadicPoly(G, mod) * PadicPoly(H, mod)
        err = (F - GH).coeffs
        err = err + [0] * (F.degree + 1 - len(err))
        if any(x % pk for x in err):
            raise ArithmeticError("hensel drift")
        c = [(x // pk) % p for x in err]
        # correction: dG_corr = (t*c mod g0), dH_corr = s*c + (t*c div g0)*h0
        tc = _fp_mul(t, c, p)
        q, dg = _fp_divmod(tc, g0, p)
        sc = _fp_mul(s, c, p)
        qh = _fp_mul(q, h0, p)
        n = max(len(sc), len(qh))
        dh = [(x + y) % p for x, y in zip(sc + [0] * (n - len(sc)), qh + [0] * (n - len(qh)))]
        for i, x in enumerate(dg):
            if i < dG:
                G[i] = (G[i] + pk * x) % pM
        for i, x in enumerate(dh):
            if i <= dH:
                H[i] = (H[i] + pk * x) % pM
        pk *= p
    Gp = PadicPoly(G, mod)
    Hp = PadicPoly(H, mod)
    if not (F - Gp * Hp).is_zero():
        raise ArithmeticError("hensel lift failed to converge")
    return Gp, Hp


def hensel_split_distinguished(Q: PadicPoly):
    """Split monic Q = f * u with f distinguished (f = y^e mod p), u(0) a unit.

    e is the multiplicity of y in Q mod p.  Verified exactly on every call.
    """
    if not Q.is_monic():
        raise ValueError("Q must be monic")
    mod = Q.modulus
    p = mod.p
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
    p = mod.p
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
