"""The Fraction/FieldElem arithmetic that the cleared integer kernels
replaced, kept verbatim as the reference the differential tests compare
against: the `Poly` operations on coefficient tuples, and the elimination
and condition rows of `subalg.linalg` and `subalg.conditions`.

Polynomials here are read through their scalar `coeffs` and built with
`Poly(coeffs, field)`; rows hold scalars (Fractions or FieldElems of one
field), not cleared integer lists.
"""

from math import factorial

from subalg.fields import common_field, field_of, format_scalar, \
    is_zero_scalar
from subalg.poly import Poly


# -- Poly operations on coefficient tuples --------------------------------


def add(a, b):
    """`Poly.__add__` on coefficient tuples (one field)."""
    ca, cb = list(a.coeffs), list(b.coeffs)
    if len(ca) < len(cb):
        ca, cb = cb, ca
    for i, c in enumerate(cb):
        ca[i] = ca[i] + c
    return Poly(ca, a.field)


def neg(a):
    return Poly([-c for c in a.coeffs], a.field)


def sub(a, b):
    return add(a, neg(b))


def scale(a, c):
    """a·c for a scalar c of a's field."""
    return Poly([x * c for x in a.coeffs], a.field)


def mul(a, b):
    """`Poly.__mul__` before the integer kernel (verbatim loop)."""
    if not a.coeffs or not b.coeffs:
        return Poly.zero(a.field)
    ca, cb = a.coeffs, b.coeffs
    out = [a.field.zero] * (len(ca) + len(cb) - 1)
    for i, ci in enumerate(ca):
        if is_zero_scalar(ci):
            continue
        for j, cj in enumerate(cb):
            if not is_zero_scalar(cj):
                out[i + j] = out[i + j] + ci * cj
    return Poly(out, a.field)


def divmod_(a, b):
    """`Poly.__divmod__` before the integer kernel (verbatim loop)."""
    field = a.field
    rem = list(a.coeffs)
    db = b.degree
    quot = [field.zero] * max(len(rem) - db, 0)
    inv_lead = field.one / b.coeffs[-1]
    for k in range(len(rem) - db - 1, -1, -1):
        c = rem[k + db] * inv_lead
        if not is_zero_scalar(c):
            quot[k] = c
            for i, bi in enumerate(b.coeffs):
                rem[k + i] = rem[k + i] - c * bi
    return Poly(quot, field), Poly(rem[:db], field)


def call(p, point):
    """`Poly.__call__` at an exact point before the integer kernel."""
    f = common_field(p.field, field_of(point))
    point = f.coerce(point)
    acc = f.zero
    for c in reversed(p.coeffs):
        acc = acc * point + f.coerce(c)
    return acc


def derivative(p, order=1):
    for _ in range(order):
        p = Poly([i * c for i, c in enumerate(p.coeffs)][1:], p.field)
    return p


def monic(p):
    if not p.coeffs:
        return p
    inv = p.field.one / p.coeffs[-1]
    return Poly([c * inv for c in p.coeffs], p.field)


def gcd(a, b):
    """`poly_gcd` over a number field before the cleared kernel: Euclid."""
    f = common_field(a.field, b.field)
    a, b = a.coerce_to(f), b.coerce_to(f)
    while b.coeffs:
        a, b = b, divmod_(a, b)[1]
    return monic(a)


def format_poly(coeffs, var="x"):
    """`format_poly` on a coefficient tuple."""
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if is_zero_scalar(c):
            continue
        cs = format_scalar(c)
        needs_parens = ("+" in cs[1:]) or ("-" in cs[1:]) or ("t" in cs
                                                              and i > 0)
        if i == 0:
            term = f"({cs})" if needs_parens else cs
        else:
            xp = var if i == 1 else f"{var}^{i}"
            if cs == "1":
                term = xp
            elif cs == "-1":
                term = f"-{xp}"
            elif needs_parens:
                term = f"({cs})*{xp}"
            else:
                term = f"{cs}*{xp}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out


# -- elimination and condition rows ----------------------------------------


def rref(rows, ncols, field):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_cols); zero rows are dropped.  The input is
    not mutated.
    """
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if not is_zero_scalar(mat[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = field.one / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and not is_zero_scalar(mat[i][c]):
                factor = mat[i][c]
                mat[i] = [a - factor * b if b else a
                          for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def echelon_nullspace(red, pivots, ncols, field):
    """Nullspace basis from a reduced echelon form, one vector per free
    column in increasing order; each is 1 at its free column and 0 at
    every other free column."""
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def nullspace(rows, ncols, field):
    """Basis of {v : M v = 0} where the rows of M are the given equations."""
    red, pivots = rref(rows, ncols, field)
    return echelon_nullspace(red, pivots, ncols, field)


def reduce_vector(vec, red, pivots):
    """Subtract multiples of echelon rows; returns the residual vector."""
    vec = list(vec)
    for row, pc in zip(red, pivots):
        c = vec[pc]
        if not is_zero_scalar(c):
            vec = [a - c * b if b else a for a, b in zip(vec, row)]
    return vec


def extend_echelon(vec, red, pivots, field):
    """Reduce vec against a running echelon form (rows `red`, pivot columns
    `pivots`).  If a residual is left, append it, scaled to 1 at its first
    nonzero column, and return True; return False when vec is dependent."""
    row = reduce_vector(vec, red, pivots)
    pc = next((c for c, v in enumerate(row) if not is_zero_scalar(v)), None)
    if pc is None:
        return False
    inv = field.one / row[pc]
    red.append([v * inv for v in row])
    pivots.append(pc)
    return True


def jet_row(order, point, degree, field):
    """(J(1), J(x), …, J(x^degree)) for the jet J: f ↦ f^(order)(point).

    J(x^k) = k!/(k−order)! · point^(k−order); one running falling factorial
    and one running power of the point, so no polynomial is built.
    """
    row = [field.zero] * (degree + 1)
    point = field.coerce(point)
    power = field.one
    falling = factorial(order)
    for k in range(order, degree + 1):
        row[k] = power * falling
        power = power * point
        falling = falling * (k + 1) // (k + 1 - order)
    return row


def monomial_row(functional, degree, field):
    """(L(1), L(x), …, L(x^degree)), with entries in `field`: the
    coefficient-weighted sum of the jet rows of the terms."""
    row = [field.zero] * (degree + 1)
    for order, point, coeff in functional.terms:
        coeff = field.coerce(coeff)
        jet = jet_row(order, point, degree, field)
        for k in range(order, degree + 1):
            row[k] = row[k] + coeff * jet[k]
    return row
