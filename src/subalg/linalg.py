"""Exact linear algebra over Q or a number field (dense, fraction-based).

Matrices are plain lists of row lists whose entries are Fractions or
FieldElems of one common field; both are falsy exactly when zero, which the
elimination loops use to skip zero entries.  Everything here is small (desk
scale), so classical Gauss-Jordan with exact division is the right tool.
"""

from __future__ import annotations

from .fields import is_zero_scalar


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
