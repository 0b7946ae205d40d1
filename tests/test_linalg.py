from fractions import Fraction as F

from subalg.fields import NumberField, QQ
from subalg.linalg import nullspace, rref


def test_rref_and_rank():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    reduced, pivots = rref(rows, 3, QQ)
    assert len(reduced) == 2 and pivots == [0, 1]
    assert len(rref(rows, 3, QQ)[0]) == 2


def test_nullspace():
    rows = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    vectors = nullspace(rows, 3, QQ)
    assert len(vectors) == 1
    v = vectors[0]
    assert v[0] + v[1] == 0 and v[2] == 0


def test_nullspace_orthogonality():
    rows = [[F(2), F(-1), F(3), F(0)], [F(1), F(0), F(-1), F(2)]]
    for v in nullspace(rows, 4, QQ):
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_number_field_elimination():
    nf = NumberField([1, 0, 1])
    i = nf.gen()
    rows = [[nf.one, i], [i, nf.coerce(-1)]]   # second = i * first
    assert len(rref(rows, 2, nf)[0]) == 1
