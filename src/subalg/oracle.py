"""Independent brute-force reference implementations.

Everything here is deliberately low-tech linear algebra / elimination so it
can cross-check the SAGBI and resultant machinery.  Only the arithmetic
layer (fields, Poly) and generic root extraction are reused; subduction and
the Euclidean resultant of the main path are not.  It clears denominators
by its own loop, not `poly._int_scaled`, so that it stays independent.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InfiniteSolutionSet, NoStabilization, SubalgError
from .fields import QQ, common_field, is_zero_scalar
from .poly import Poly, poly_gcd, squarefree_part


class SpanBasis:
    """Echelonized degree-bounded linear span of an algebra's products."""

    __slots__ = ("rows", "pivots", "degree_bound", "field")

    def __init__(self, rows, pivots, degree_bound, field):
        self.rows = rows          # each row: ascending coeff list, len bound+1
        self.pivots = pivots      # pivot degrees, one per row
        self.degree_bound = degree_bound
        self.field = field

    @property
    def pivot_degrees(self):
        return sorted(self.pivots)

    def reduce(self, vec):
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = vec[piv]
            if not is_zero_scalar(c):
                vec = [a - c * b for a, b in zip(vec, row)]
        return vec

    def reduce_poly(self, f):
        vec = [self.field.coerce(f.coeff(k)) if k <= f.degree
               else self.field.zero for k in range(self.degree_bound + 1)]
        return self.reduce(vec)


def _insert_row(rows, pivots, vec, field):
    """Reduce vec against the echelon rows (pivot = leading degree) and
    insert if independent.  Returns the new pivot degree or None."""
    for row, piv in zip(rows, pivots):
        c = vec[piv]
        if not is_zero_scalar(c):
            vec = [a - c * b for a, b in zip(vec, row)]
    lead = None
    for k in range(len(vec) - 1, -1, -1):
        if not is_zero_scalar(vec[k]):
            lead = k
            break
    if lead is None:
        return None
    inv = field.one / vec[lead]
    vec = [v * inv for v in vec]
    # back-substitute into existing rows to keep reduced form
    for i, row in enumerate(rows):
        c = row[lead]
        if not is_zero_scalar(c):
            rows[i] = [a - c * b for a, b in zip(row, vec)]
    rows.append(vec)
    pivots.append(lead)
    return lead


def oracle_span(gens, degree_bound):
    """Echelon basis of span{products of generators} up to the bound."""
    field = QQ
    for g in gens:
        field = common_field(field, g.field)
    gens = [g.coerce_to(field) for g in gens]

    def to_vec(p):
        return [field.coerce(p.coeff(k)) if k <= p.degree else field.zero
                for k in range(degree_bound + 1)]

    rows, pivots = [], []
    one = Poly.constant(field.one, field)
    frontier = [one]
    _insert_row(rows, pivots, to_vec(one), field)
    # polys whose span rows came from them; multiply frontier by generators
    known = [one]
    while frontier:
        new_frontier = []
        for p in frontier:
            for g in gens:
                prod = p * g
                if prod.degree > degree_bound:
                    continue
                if _insert_row(rows, pivots, to_vec(prod), field) is not None:
                    new_frontier.append(prod)
                    known.append(prod)
        frontier = new_frontier
    order = sorted(range(len(rows)), key=lambda i: pivots[i])
    rows = [rows[i] for i in order]
    pivots = [pivots[i] for i in order]
    return SpanBasis(rows, pivots, degree_bound, field)


def oracle_codimension(gens, degree_bound=None, max_rounds=8):
    """Number of degrees missing from the span, stable under bound growth."""
    max_deg = max(g.degree for g in gens)
    bound = degree_bound or (4 * max_deg + 8)
    prev = None
    stable = 0
    for _ in range(max_rounds):
        span = oracle_span(gens, bound)
        present = set(span.pivots)
        missing = [d for d in range(bound + 1) if d not in present]
        # ignore a tail of missing degrees butting against the bound: they
        # may only be missing because products were truncated
        while missing and missing[-1] > bound - max_deg:
            missing.pop()
        count = len(missing)
        if prev == count:
            stable += 1
            if stable >= 2:
                return count
        else:
            stable = 0
        prev = count
        bound += max_deg + 4
    raise NoStabilization("oracle codimension did not stabilize")


def oracle_member(f, gens, degree_bound=None):
    """Membership by reduction against the echelonized span."""
    bound = degree_bound or max(4 * max(g.degree for g in gens) + 8,
                                f.degree + 1)
    if f.degree > bound:
        bound = f.degree + max(g.degree for g in gens)
    span = oracle_span(gens, bound)
    residual = span.reduce_poly(f.coerce_to(span.field))
    return all(is_zero_scalar(c) for c in residual)


# ---------------------------------------------------------------------------
# Joint system {P_i(x, y) = 0}
# ---------------------------------------------------------------------------


def _divided_diff_table(p):
    """y-coefficients of (p(x) - p(y)) / (x - y) (local copy, on purpose)."""
    m = p.degree
    return [Poly([p.coeff(n) for n in range(k + 1, m + 1)], p.field)
            for k in range(m)]


def _ypoly_content(table):
    content = None
    for c in table:
        if c:
            content = c if content is None else poly_gcd(content, c)
    return content


def _ypoly_pseudo_rem(A, B):
    """Pseudo-remainder in y of y-polynomials with Poly coefficients."""
    A = [c for c in A]
    dB = len(B) - 1
    lead = B[-1]
    while len(A) - 1 >= dB:
        while A and A[-1].is_zero():
            A.pop()
        if len(A) - 1 < dB:
            break
        shift = len(A) - 1 - dB
        top = A[-1]
        A = [c * lead for c in A]
        for i, b in enumerate(B):
            A[shift + i] = A[shift + i] - top * b
        A.pop()
    while A and A[-1].is_zero():
        A.pop()
    return A


def _ypoly_gcd(A, B):
    """gcd in y over Q(x) (primitive PRS), coefficients made primitive."""
    A = [c for c in A]
    B = [c for c in B]
    while A and A[-1].is_zero():
        A.pop()
    while B and B[-1].is_zero():
        B.pop()
    if not A:
        return B
    if not B:
        return A
    if len(A) < len(B):
        A, B = B, A
    while True:
        R = _ypoly_pseudo_rem(A, B)
        if not R:
            break
        cont = _ypoly_content(R)
        if cont:
            R = [c.exact_div(cont) for c in R]
        A, B = B, R
        if len(B) == 1:
            break
    cont = _ypoly_content(B)
    if cont:
        B = [c.exact_div(cont) for c in B]
    return B


def _int_bareiss_det(mat):
    """Fraction-free determinant of an integer matrix."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (pkk * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def _sylvester_det_poly(f_table, g_table):
    """Res_y as an exact Poly, via integer evaluation of the Sylvester
    determinant and Lagrange interpolation (independent of the main path)."""
    mf, mg = len(f_table) - 1, len(g_table) - 1
    bound = mg * max(c.degree for c in f_table if c) + \
        mf * max(c.degree for c in g_table if c)
    # scale to integers
    denom = 1
    for c in list(f_table) + list(g_table):
        for co in c.coeffs:
            from math import gcd as _g
            denom = denom * co.denominator // _g(denom, co.denominator)

    def eval_int(c, x0):
        acc = 0
        for co in reversed(c.coeffs):
            acc = acc * x0 + int(co * denom)
        return acc

    points, values = [], []
    x0 = 0
    while len(points) < bound + 1:
        pt = x0
        x0 = -x0 if x0 > 0 else -x0 + 1
        fa = [eval_int(c, pt) for c in f_table]
        ga = [eval_int(c, pt) for c in g_table]
        if fa[-1] == 0 or ga[-1] == 0:
            continue
        size = mf + mg
        rows = []
        fd, gd = list(reversed(fa)), list(reversed(ga))
        for i in range(mg):
            rows.append([0] * i + fd + [0] * (mg - 1 - i))
        for i in range(mf):
            rows.append([0] * i + gd + [0] * (mf - 1 - i))
        assert all(len(r) == size for r in rows)
        points.append(pt)
        values.append(_int_bareiss_det(rows))
    # Newton interpolation over Fractions
    n = len(points)
    coefs = [Fraction(v) for v in values]
    pts = [Fraction(p) for p in points]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coefs[i] = (coefs[i] - coefs[i - 1]) / (pts[i] - pts[i - j])
    x = Poly.x(QQ)
    result = Poly.constant(coefs[n - 1], QQ)
    for i in range(n - 2, -1, -1):
        result = result * (x - pts[i]) + coefs[i]
    # undo the integer scaling: det scaled by denom^(mg) for f rows etc.
    scale = Fraction(denom) ** (mg + mf)
    return result / scale


def oracle_multi_char_roots(gens, seed=20, tol=1e-8):
    """Numeric x-values where all divided differences P_i vanish jointly.

    A common y-factor of all P_i means infinitely many solutions
    (common composition factor) and raises InfiniteSolutionSet.  Otherwise
    the solution x-values are recovered as the stable intersection of the
    root sets of Res_y(P_1, sum lambda_i P_i) over random lambda draws.
    """
    import random

    from .roots import aberth_roots

    gens = [g.monic() for g in gens]
    if len(gens) < 2:
        raise SubalgError("need at least two generators")
    if any(g.field is not QQ for g in gens):
        gens = [g.to_rational() for g in gens]
        if any(g is None for g in gens):
            raise SubalgError("oracle_multi_char_roots works over Q")
    tables = [_divided_diff_table(g) for g in gens]
    g_common = tables[0]
    for t in tables[1:]:
        g_common = _ypoly_gcd(g_common, t)
        if len(g_common) == 1:
            break
    if len(g_common) > 1:
        raise InfiniteSolutionSet(
            "all P_i share a y-factor: common composition factor")

    rng = random.Random(seed)
    rest = tables[1:]
    dq = max(len(t) - 1 for t in rest)
    root_sets = []
    attempts = 0
    while len(root_sets) < 3 and attempts < 10:
        attempts += 1
        lams = [rng.randint(1, 9) for _ in rest]
        combo = [Poly.zero(QQ) for _ in range(dq + 1)]
        for lam, t in zip(lams, rest):
            for k, c in enumerate(t):
                combo[k] = combo[k] + lam * c
        while combo and combo[-1].is_zero():
            combo.pop()
        if len(combo) - 1 != dq:
            continue
        res = _sylvester_det_poly(tables[0], combo)
        if res.is_zero():
            continue
        root_sets.append(squarefree_part(res))
    if len(root_sets) < 3:
        raise SubalgError("could not draw enough nondegenerate combinations")
    common = root_sets[0]
    for other in root_sets[1:]:
        common = poly_gcd(common, other)
    if common.degree < 1:
        return []
    roots, _ = aberth_roots(common)
    out = []
    for r in roots:
        if not any(abs(r - o) < tol for o in out):
            out.append(r)
    return out
