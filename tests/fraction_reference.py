"""The Fraction/FieldElem elimination and condition rows that the cleared
integer ones in `subalg.linalg` and `subalg.conditions` replaced, kept
verbatim as the reference the differential tests compare against.

Rows here hold scalars (Fractions or FieldElems of one field), not cleared
integer lists.
"""

from math import factorial

from subalg.fields import is_zero_scalar
from subalg.linalg import echelon_nullspace


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
