"""Exact linear algebra over Q or a number field K = Q[t]/(m), fraction-free.

A row comes in cleared, as `poly._int_scaled` clears scalars: a flat list
of integer t̃-coordinates, one block of e = deg m per entry (Q is e = 1).
A row's scale changes no answer, so its denominator is not passed.

Elimination cross-multiplies, row ← L·row − row[c]·pivot_row for the pivot
L at column c, and divides the row by its integer content: the
integer-preserving elimination of Bareiss (1968, *Sylvester's identity and
multistep integer-preserving Gaussian elimination*), kept small by content
division.  Over K a pivot row is first multiplied by the cleared inverse of
its pivot, so every pivot is an integer block (L, 0, …, 0): one
`FieldElem.inverse` per pivot that is not rational, which raises
`NonInvertible` at a zero divisor.  Every row stays a nonzero rational
multiple of the row that Gauss-Jordan over K would hold, so the pivots are
the same.  Scalars appear only in answers: `rref` divides each pivot row by
its pivot once, at the end.
"""

from __future__ import annotations

from math import gcd, lcm

from .poly import _int_mul, _int_primitive, _int_scaled


def _integer_pivot(row, c, field):
    """The cleared row, scaled so that its block at column c is an integer
    (L, 0, …, 0): by the cleared inverse of that block when it is not
    rational (`NonInvertible` at a zero divisor)."""
    e = field.degree
    if not any(row[c * e + 1:(c + 1) * e]):
        return row
    pivot = field.from_tilde_coordinates(row[c * e:(c + 1) * e], 1)[0]
    inverse = _int_scaled((pivot.inverse(),), field)[0]
    return _int_primitive(_int_mul(inverse, row, field.tilde_modulus))


def _eliminate(row, pivot_row, c, field):
    """(L/g)·row − (row[c]/g)·pivot_row, divided by its integer content,
    for the integer pivot L of pivot_row at column c and g = gcd(L, row[c]):
    the row with column c cleared."""
    e = field.degree
    block = row[c * e:(c + 1) * e]
    if not any(block):
        return row
    lead = pivot_row[c * e]
    g = gcd(lead, *block)
    lead = lead // g
    if e == 1:
        x = block[0] // g
        return _int_primitive([lead * a - x * b
                               for a, b in zip(row, pivot_row)])
    product = _int_mul([a // g for a in block], pivot_row, field.tilde_modulus)
    return _int_primitive([lead * a - b for a, b in zip(row, product)])


def _echelon(rows, ncols, field):
    """(rows, pivot_cols): the reduced echelon form of cleared rows, by
    Gauss-Jordan cross-multiplication, as cleared rows, each with an
    integer pivot (L, 0, …, 0) at its pivot column; zero rows are
    dropped.  The input is not mutated."""
    e = field.degree
    mat = [row for row in rows if any(row)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(mat):
            break
        i = next((i for i in range(r, len(mat))
                  if any(mat[i][c * e:(c + 1) * e])), None)
        if i is None:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        mat[r] = _integer_pivot(mat[r], c, field)
        mat = [row if j == r else _eliminate(row, mat[r], c, field)
               for j, row in enumerate(mat)]
        pivots.append(c)
    return mat, pivots


def rref(rows, ncols, field):
    """Reduced row echelon form of cleared rows (see `_echelon`).

    Returns (reduced_rows, pivot_cols): scalar rows, each 1 at its pivot
    column; zero rows are dropped.  The input is not mutated.
    """
    mat, pivots = _echelon(rows, ncols, field)
    e = field.degree
    return ([field.from_tilde_coordinates(row, row[c * e])
             for row, c in zip(mat, pivots)], pivots)


def cleared_nullspace(rows, ncols, field):
    """Basis of {v : M v = 0}, the cleared rows of M the equations: one
    vector per free column f in increasing order, 1 at f and 0 at every
    other free column, cleared as (ints, d).  With L_r the integer pivot
    of echelon row r at its pivot column p_r, entry p_r is −row_r[f]/L_r,
    so d is the lcm of the L_r."""
    mat, pivots = _echelon(rows, ncols, field)
    e = field.degree
    d = lcm(*(row[c * e] for row, c in zip(mat, pivots)))
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [0] * (ncols * e)
        vec[f * e] = d
        for row, c in zip(mat, pivots):
            s = d // row[c * e]
            vec[c * e:(c + 1) * e] = [-a * s for a in row[f * e:(f + 1) * e]]
        basis.append((vec, d))
    return basis


def nullspace(rows, ncols, field):
    """`cleared_nullspace` as vectors of scalars."""
    return [field.from_tilde_coordinates(vec, d)
            for vec, d in cleared_nullspace(rows, ncols, field)]


def extend_echelon(vec, red, pivots, field):
    """Reduce the cleared row vec against a running echelon form of cleared
    rows `red` with integer pivots at the columns `pivots`.  If a residual
    is left, append it, with an integer pivot at its first nonzero column,
    and return True; return False when vec is dependent."""
    e = field.degree
    for row, pc in zip(red, pivots):
        vec = _eliminate(vec, row, pc, field)
    pc = next((c for c in range(len(vec) // e)
               if any(vec[c * e:(c + 1) * e])), None)
    if pc is None:
        return False
    red.append(_integer_pivot(vec, pc, field))
    pivots.append(pc)
    return True
