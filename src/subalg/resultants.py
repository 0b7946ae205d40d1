"""Divided differences, resultants, and characteristic polynomials.

The characteristic polynomial of a pair is chi_{p,q}(x) = Res_y(P, Q) where
P, Q are the divided differences of p and q.  For t >= 3 generators the
parametric resultant R(x, z_2, ..., z_t) = Res_y(P_1, sum z_i P_i) is
homogeneous of degree deg(p_1) - 1 in the z variables; chi_A is the monic gcd
of its coefficient polynomials d_{(a_2, ..., a_t)}.

Resultants of y-polynomials whose coefficients are polynomials in x are
computed by evaluation at integer x-points, a Euclidean remainder sequence on
the specialized univariate polynomials, and Newton interpolation — exact
throughout, and far cheaper than eliminating on the symbolic Sylvester
matrix.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (ConstantInput, DegreesNotCoprime, FewerThanTwoGenerators,
                     SubalgError, ZeroPolynomialInY)
from .fields import QQ, common_field, is_zero_scalar
from .mpoly import MPoly
from .poly import Poly, poly_gcd


class DividedDifference:
    """P(x, y) = (p(x) - p(y)) / (x - y), stored as y-coefficients c_k(x)."""

    __slots__ = ("source", "table")

    def __init__(self, source, table):
        self.source = source
        self.table = tuple(table)

    @property
    def y_degree(self):
        return len(self.table) - 1


def divided_difference(p):
    """Construct P(x,y) with c_k(x) = sum_{n > k} a_n x^(n-1-k)."""
    if p.degree < 1:
        raise ConstantInput("divided difference needs deg p >= 1")
    m = p.degree
    table = []
    for k in range(m):
        coeffs = [p.coeff(n) for n in range(k + 1, m + 1)]
        table.append(Poly(coeffs, p.field))
    dd = DividedDifference(p, table)
    # Verify (x - y) * P = p(x) - p(y) by comparing y-coefficient tables.
    # p(x) - p(y) has y^k coefficient  (p(x) if k == 0 else 0) - a_k.
    # (x - y) * P has y^k coefficient  x*c_k - c_{k-1}.
    x = Poly.x(p.field)
    for k in range(m + 1):
        ck = table[k] if k < m else Poly.zero(p.field)
        ckm1 = table[k - 1] if k >= 1 else Poly.zero(p.field)
        lhs = x * ck - ckm1
        rhs = (p if k == 0 else Poly.zero(p.field)) - p.coeff(k)
        if lhs != rhs:
            raise SubalgError("divided-difference identity failed")
    return dd


# ---------------------------------------------------------------------------
# Univariate resultants over an exact field (Euclidean remainder sequence)
# ---------------------------------------------------------------------------


def _trim_list(a):
    n = len(a)
    while n and is_zero_scalar(a[n - 1]):
        n -= 1
    return a[:n]


def _scalar_resultant(A, B, field):
    """Res of two univariate polynomials given as ascending scalar lists.

    Standard Sylvester-determinant convention: Res(A, B) with n = deg B rows
    of A.  Computed by the Euclidean identity
    Res(A,B) = (-1)^(dA dB) lc(B)^(dA-dR) Res(B, R),  R = A mod B.
    """
    A, B = _trim_list(list(A)), _trim_list(list(B))
    if not A or not B:
        return field.zero
    sign = 1
    acc = field.one
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        if dA < dB:
            A, B = B, A
            if dA % 2 and dB % 2:
                sign = -sign
            continue
        if dB == 0:
            val = acc * B[0] ** dA
            return val if sign > 0 else -val
        # remainder of A by B
        R = list(A)
        lead_inv = field.one / B[-1]
        for k in range(dA - dB, -1, -1):
            c = R[k + dB] * lead_inv
            if not is_zero_scalar(c):
                for i in range(dB + 1):
                    R[k + i] = R[k + i] - c * B[i]
        R = _trim_list(R[:dB])
        if not R:
            return field.zero
        dR = len(R) - 1
        acc = acc * B[-1] ** (dA - dR)
        if dA % 2 and dB % 2:
            sign = -sign
        A, B = B, R


# ---------------------------------------------------------------------------
# Resultant in y of polynomials with Poly-in-x coefficients
# ---------------------------------------------------------------------------


def _max_x_degree(table):
    return max((c.degree for c in table if c), default=-1)


def _total_degree(table):
    return max((k + c.degree for k, c in enumerate(table) if c), default=-1)


def _newton_interpolate(points, values, field):
    """Poly through the (point, scalar value) pairs, by Newton's method."""
    n = len(points)
    coefs = list(values)  # divided differences, computed in place
    pts = [field.coerce(Fraction(p)) for p in points]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            inv = field.one / (pts[i] - pts[i - j])
            coefs[i] = (coefs[i] - coefs[i - 1]) * inv
    x = Poly.x(field)
    result = Poly.constant(coefs[n - 1], field)
    for i in range(n - 2, -1, -1):
        result = result * (x - pts[i]) + coefs[i]
    return result


def _newton_coeff_list(points, values, field):
    """Newton interpolation with Poly-valued samples.

    Returns the dense coefficient list (in the interpolation variable) whose
    entries are Polys in x.
    """
    n = len(points)
    pts = [field.coerce(Fraction(p)) for p in points]
    coefs = list(values)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            inv = field.one / (pts[i] - pts[i - j])
            coefs[i] = (coefs[i] - coefs[i - 1]) * inv
    out = [coefs[n - 1]]
    for i in range(n - 2, -1, -1):
        # out = out * (w - pts[i]) + coefs[i]
        shifted = [Poly.zero(field)] + out
        for k, c in enumerate(out):
            shifted[k] = shifted[k] + c * (-pts[i])
        shifted[0] = shifted[0] + coefs[i]
        out = shifted
    while out and out[-1].is_zero():
        out.pop()
    return out


def resultant_y_tables(f_table, g_table):
    """Res_y of two y-polynomials with Poly-in-x coefficients (exact)."""
    f_table = [c for c in f_table]
    g_table = [c for c in g_table]
    while f_table and f_table[-1].is_zero():
        f_table.pop()
    while g_table and g_table[-1].is_zero():
        g_table.pop()
    if not f_table or not g_table:
        raise ZeroPolynomialInY("resultant of the zero polynomial in y")
    field = QQ
    for c in f_table + g_table:
        field = common_field(field, c.field)
    f_table = [c.coerce_to(field) for c in f_table]
    g_table = [c.coerce_to(field) for c in g_table]
    mf, mg = len(f_table) - 1, len(g_table) - 1
    if mf == 0:
        return (f_table[0] ** mg).coerce_to(field)
    if mg == 0:
        sign = -1 if (mf % 2 and mg % 2) else 1
        val = g_table[0] ** mf
        return val if sign > 0 else -val
    # x-degree bound: min of the naive bound and the weighted (total degree)
    # bound, both safe.
    naive = mg * _max_x_degree(f_table) + mf * _max_x_degree(g_table)
    df, dg = _total_degree(f_table), _total_degree(g_table)
    weighted = df * mg + dg * mf - mf * mg
    bound = max(0, min(naive, weighted))
    points, values = [], []
    x0 = 0
    while len(points) < bound + 1:
        pt = Fraction(x0)
        x0 = -x0 if x0 > 0 else -x0 + 1  # 0, 1, -1, 2, -2, ...
        lead_f = f_table[-1](pt)
        lead_g = g_table[-1](pt)
        if is_zero_scalar(lead_f) or is_zero_scalar(lead_g):
            continue  # degree would drop; pick another sample
        A = [c(pt) for c in f_table]
        B = [c(pt) for c in g_table]
        points.append(pt)
        values.append(_scalar_resultant(A, B, field))
    return _newton_interpolate(points, values, field)


def resultant_y(f, g):
    """Res_y; inputs are DividedDifference values or y-coefficient lists
    of Polys in x."""
    f_table = f.table if isinstance(f, DividedDifference) else f
    g_table = g.table if isinstance(g, DividedDifference) else g
    return resultant_y_tables(f_table, g_table)


# ---------------------------------------------------------------------------
# Characteristic polynomials
# ---------------------------------------------------------------------------


def char_poly_pair(p, q):
    """chi_{p,q} = Res_y(P, Q), normalized monic (or exactly zero)."""
    if p.degree < 1 or q.degree < 1:
        raise ConstantInput("char_poly_pair needs two nonconstant inputs")
    P = divided_difference(p.monic())
    Q = divided_difference(q.monic())
    chi = resultant_y_tables(P.table, Q.table)
    return chi.monic() if chi else chi


def char_poly_multi(gens, symmetrize=False):
    """chi_A for t >= 2 generators; first generator is distinguished.

    With symmetrize=True, returns the monic gcd over all t choices of the
    distinguished generator.
    """
    gens = list(gens)
    if sum(1 for g in gens if g.degree >= 1) < 2:
        raise FewerThanTwoGenerators(
            "char_poly_multi needs >= 2 nonconstant generators")
    if any(g.degree < 1 for g in gens):
        raise ConstantInput("constant generator in char_poly_multi")
    if symmetrize:
        result = None
        for i in range(len(gens)):
            rotated = [gens[i]] + gens[:i] + gens[i + 1:]
            chi = char_poly_multi(rotated, symmetrize=False)
            if result is None:
                result = chi
            elif chi:
                result = poly_gcd(result, chi) if result else chi
        return result

    ps = [g.monic() for g in gens]
    field = QQ
    for p in ps:
        field = common_field(field, p.field)
    ps = [p.coerce_to(field) for p in ps]
    tables = [divided_difference(p).table for p in ps]
    h = ps[0].degree - 1  # homogeneity degree in the z variables
    rest = tables[1:]
    dq = max(len(t) - 1 for t in rest)

    def combo_table(weights):
        out = [Poly.zero(field) for _ in range(dq + 1)]
        for w, table in zip(weights, rest):
            if w == 0:
                continue
            for k, c in enumerate(table):
                out[k] = out[k] + w * c
        return out

    # Evaluate at z_2 = 1 and positive integer points for z_3..z_t, then
    # interpolate; by homogeneity a_2 = h - sum(a_3..a_t).
    nfree = len(rest) - 1

    def sample(weights_tail):
        weights = [Fraction(1)] + [Fraction(w) for w in weights_tail]
        table = combo_table(weights)
        while table and table[-1].is_zero():
            table.pop()
        if len(table) - 1 != dq:
            raise SubalgError("leading z-form vanished at a sample point")
        return resultant_y_tables(tables[0], table)

    def interpolate(prefix, remaining):
        """dict over exponents of the remaining z variables -> Poly."""
        if remaining == 0:
            return {(): sample(prefix)}
        pts = list(range(1, h + 2))
        sub = [interpolate(prefix + [w], remaining - 1) for w in pts]
        keys = set().union(*(s.keys() for s in sub))
        out = {}
        for key in keys:
            series = [s.get(key, Poly.zero(field)) for s in sub]
            for e, poly in enumerate(_newton_coeff_list(pts, series, field)):
                if poly:
                    out[(e,) + key] = poly
        return out

    d_polys = {}
    for tail, poly in interpolate([], nfree).items():
        s = sum(tail)
        if s > h:
            raise SubalgError("non-homogeneous parametric resultant")
        d_polys[(h - s,) + tail] = poly

    nonzero = [d for d in d_polys.values() if d]
    if not nonzero:
        return Poly.zero(field)
    chi = nonzero[0]
    for d in nonzero[1:]:
        chi = poly_gcd(chi, d)
        if chi.degree == 0:
            break
    return chi.monic()


# ---------------------------------------------------------------------------
# The algebraic relation F(p, q)
# ---------------------------------------------------------------------------


def resultant_relation(p, q):
    """F(p, q) = Res_y(p(y) - P, q(y) - Q) as an MPoly in (P, Q).

    F(p(x), q(x)) = 0 identically, and the support satisfies i*n + j*m <= nm.
    """
    if p.degree < 1 or q.degree < 1:
        raise ConstantInput("resultant_relation needs nonconstant inputs")
    m, n = p.degree, q.degree
    from math import gcd
    if gcd(m, n) != 1:
        raise DegreesNotCoprime(f"degrees {m}, {n} are not coprime")
    field = common_field(p.field, q.field)
    if p.leading_coeff() != field.one or q.leading_coeff() != field.one:
        raise SubalgError("resultant_relation requires monic inputs")
    p, q = p.coerce_to(field), q.coerce_to(field)
    # F has degree <= n in the first variable and <= m in the second.
    a_pts = [Fraction(i) for i in range(n + 1)]
    b_pts = [Fraction(j) for j in range(m + 1)]
    grid = []
    for a in a_pts:
        row = []
        for b in b_pts:
            A = [p.coeff(0) - field.coerce(a)] + \
                [p.coeff(k) for k in range(1, m + 1)]
            B = [q.coeff(0) - field.coerce(b)] + \
                [q.coeff(k) for k in range(1, n + 1)]
            row.append(_scalar_resultant(A, B, field))
        grid.append(row)
    # interpolate in b for each a, then in a coefficient-wise
    polys_in_b = [_newton_interpolate(b_pts, row, field) for row in grid]
    terms = {}
    for j in range(m + 1):
        col = [pb.coeff(j) for pb in polys_in_b]
        pa = _newton_interpolate(a_pts, col, field)
        for i in range(pa.degree + 1):
            c = pa.coeff(i)
            if not is_zero_scalar(c):
                terms[(i, j)] = Poly.constant(c, field)
    F = MPoly(terms, 2, field)
    for (i, j) in F.terms:
        # deg_x(p^i q^j) = i*m + j*n must not exceed nm
        if i * m + j * n > n * m:
            raise SubalgError("support bound violated in resultant relation")
    if (0, m) not in F.terms and (n, 0) not in F.terms:
        raise SubalgError("expected extreme term missing in F(p, q)")
    if F.substitute([p, q]):
        raise SubalgError("F(p(x), q(x)) != 0 — relation construction bug")
    return F
