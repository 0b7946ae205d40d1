import random
from fractions import Fraction as F

import pytest

import fraction_reference as ref
from subalg.errors import NonInvertible
from subalg.fields import NumberField, QQ
from subalg.linalg import extend_echelon, nullspace, rref
from subalg.poly import _int_scaled


def cleared(rows, field):
    return [_int_scaled(row, field)[0] for row in rows]


def test_rref_and_rank():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    reduced, pivots = rref(cleared(rows, QQ), 3, QQ)
    assert len(reduced) == 2 and pivots == [0, 1]
    assert len(rref(cleared(rows, QQ), 3, QQ)[0]) == 2


def test_nullspace():
    rows = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    vectors = nullspace(cleared(rows, QQ), 3, QQ)
    assert len(vectors) == 1
    v = vectors[0]
    assert v[0] + v[1] == 0 and v[2] == 0


def test_nullspace_orthogonality():
    rows = [[F(2), F(-1), F(3), F(0)], [F(1), F(0), F(-1), F(2)]]
    for v in nullspace(cleared(rows, QQ), 4, QQ):
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_number_field_elimination():
    nf = NumberField([1, 0, 1])
    i = nf.gen()
    rows = [[nf.one, i], [i, nf.coerce(-1)]]   # second = i * first
    assert len(rref(cleared(rows, nf), 2, nf)[0]) == 1


def test_a_zero_divisor_pivot_raises():
    # Q[t]/(t^2 - 1) is no field: t - 1 is a zero divisor, and a pivot
    # there must raise rather than give a wrong rank
    nf = NumberField([-1, 0, 1])
    t = nf.gen()
    rows = [[t - 1, nf.one], [nf.one, nf.zero]]
    with pytest.raises(NonInvertible):
        rref(cleared(rows, nf), 2, nf)
    with pytest.raises(NonInvertible):
        extend_echelon(cleared(rows[:1], nf)[0], [], [], nf)
    with pytest.raises(NonInvertible):
        ref.rref(rows, 2, nf)
    with pytest.raises(NonInvertible):
        ref.extend_echelon(rows[0], [], [], nf)


def _random_matrix(rng, field, nrows, ncols):
    """Rows with small and large entries, zero rows, repeated rows and
    combinations of earlier rows."""
    gens = [field.one] if field is QQ else \
        [field.gen() ** u for u in range(field.degree)]

    def scalar():
        if rng.random() < 0.4:
            return field.zero
        bits = rng.choice((3, 40))
        return sum((g * F(rng.randint(-2 ** bits, 2 ** bits),
                          rng.randint(1, 2 ** rng.choice((1, 20))))
                    for g in gens if rng.random() < 0.7), field.zero)

    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([field.zero] * ncols)
        elif kind < 0.3 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            x, y = scalar(), scalar()
            rows.append([x * u + y * v for u, v in zip(a, b)])
        else:
            rows.append([scalar() for _ in range(ncols)])
    return rows


@pytest.mark.parametrize("modulus", [None, [1, 0, 1], [-2, 0, 1],
                                     [-2, 0, 0, 1], [F(-1, 2), 0, 1]],
                         ids=["Q", "Q(i)", "Q(sqrt 2)", "t^3-2", "t^2-1/2"])
def test_fraction_free_elimination_matches_the_fraction_loop(modulus):
    """rref (rows and pivots) and extend_echelon (accept or reject) agree
    with the Fraction Gauss-Jordan loop they replaced, including on zero
    and dependent rows and on more rows than columns; t^2 - 1/2 has
    mu = 2, so t̃-coordinates differ from t-coordinates."""
    field = QQ if modulus is None else NumberField(modulus)
    rng = random.Random(20261019 + len(modulus or ()))
    for _ in range(30 if modulus is None else 12):
        ncols = rng.randint(1, 6)
        rows = _random_matrix(rng, field, rng.randint(0, 8), ncols)
        red, pivots = rref(cleared(rows, field), ncols, field)
        assert (red, pivots) == ref.rref(rows, ncols, field)
        assert nullspace(cleared(rows, field), ncols, field) == \
            ref.nullspace(rows, ncols, field)
        new, old = ([], []), ([], [])
        for row in rows:
            assert extend_echelon(_int_scaled(row, field)[0], *new, field) \
                == ref.extend_echelon(row, *old, field)
        assert new[1] == old[1]
