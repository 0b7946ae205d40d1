"""Divided differences, resultants, and characteristic polynomials.

The characteristic polynomial of a pair is chi_{p,q}(x) = Res_y(P, Q) where
P, Q are the divided differences of p and q.  For t >= 3 generators chi_A is
the monic gcd of the coefficients d_a(x) of the parametric resultant
R(x, z_2, ..., z_t) = Res_y(P_1, sum z_i P_i), taken here as the gcd of its
values at a grid of integer z (see `char_poly_multi`).

Every resultant of y-polynomials whose coefficients are polynomials in one
variable goes through `resultant_y_tables`: evaluation at integer points, a
Euclidean remainder sequence on the specialized univariate polynomials, and
Newton interpolation — exact throughout, and far cheaper than eliminating on
the symbolic Sylvester matrix.  The characteristic polynomials and the
relation F(p, q) are all built on it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

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
        A = [c(pt) for c in f_table]
        B = [c(pt) for c in g_table]
        if is_zero_scalar(A[-1]) or is_zero_scalar(B[-1]):
            continue  # degree would drop; pick another sample
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

    chi_A is the monic gcd of the z-coefficients d_a(x) of
    R(x, z) = Res_y(P_1, sum z_i P_i), which is homogeneous of degree
    h = deg p_1 - 1 in z.  With z_2 = 1, the samples R(x, 1, w_3, ..., w_t)
    over the grid w in {1..h+1}^(t-2) are the images of the d_a under a
    tensor Vandermonde matrix, which is invertible; so samples and
    coefficients span the same Q-space of polynomials, and a gcd depends
    only on that span.  chi_A is therefore the running gcd of the samples,
    which stops once it is constant, and zero when every sample is.

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
    h = ps[0].degree - 1
    rest = tables[1:]
    dq = max(len(t) - 1 for t in rest)
    chi = Poly.zero(field)
    # Each monic p_i has leading y-coefficient 1 in P_i and every weight is
    # positive, so the combination keeps y-degree dq at every sample.
    for tail in product(range(1, h + 2), repeat=len(rest) - 1):
        combo = [Poly.zero(field) for _ in range(dq + 1)]
        for w, table in zip((1,) + tail, rest):
            for k, c in enumerate(table):
                combo[k] = combo[k] + w * c
        sample = resultant_y_tables(tables[0], combo)
        if sample:
            chi = poly_gcd(chi, sample)
            if chi.degree == 0:
                break
    return chi


# ---------------------------------------------------------------------------
# The algebraic relation F(p, q)
# ---------------------------------------------------------------------------


def resultant_relation(p, q):
    """F(p, q) = Res_y(p(y) - P, q(y) - Q) as an MPoly in (P, Q).

    F(p(x), q(x)) = 0 identically, and the support satisfies i*n + j*m <= nm.
    F has degree m in Q: each of the m + 1 values F(P, b) at Q = b is one
    `resultant_y_tables` call, with p(y) - P as a y-table of Polys in P,
    and each P-coefficient is then interpolated over b.
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
    P_table = [Poly((p.coeff(0), -field.one), field)] + \
        [Poly.constant(c, field) for c in p.coeffs[1:]]
    b_pts = [Fraction(j) for j in range(m + 1)]
    at_b = [resultant_y_tables(P_table, [Poly.constant(c, field) for c in
                                         (q - field.coerce(b)).coeffs])
            for b in b_pts]
    in_Q = [_newton_interpolate(b_pts, [f.coeff(i) for f in at_b], field)
            for i in range(n + 1)]
    terms = {(i, j): Poly.constant(f.coeff(j), field)
             for j in range(m + 1) for i, f in enumerate(in_Q)
             if not is_zero_scalar(f.coeff(j))}
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
