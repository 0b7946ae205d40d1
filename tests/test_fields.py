import random
from fractions import Fraction as F

import pytest

from subalg.errors import NonInvertible, SubalgError
from subalg.fields import (FieldElem, NumberField, QQ, common_field,
                           field_of, is_zero_scalar, scalar_to_json)


def test_rational_field_basics():
    assert QQ.coerce(3) == F(3)
    assert QQ.zero == 0 and QQ.one == 1
    assert is_zero_scalar(QQ.zero)
    assert not is_zero_scalar(F(1, 7))


def test_number_field_arithmetic():
    nf = NumberField([1, 0, 1], label="t^2+1")   # i^2 = -1
    i = nf.gen()
    assert i * i == nf.coerce(-1)
    assert (i + nf.one) * (i - nf.one) == nf.coerce(-2)
    inv = nf.one / i
    assert inv * i == nf.one


def test_number_field_division_by_zero():
    nf = NumberField([1, 0, 1])
    with pytest.raises((NonInvertible, ZeroDivisionError)):
        nf.one / nf.zero


def test_cyclotomic_powers():
    nf = NumberField([1, 0, 0, 0, 1], label="t^4+1")
    t = nf.gen()
    p = nf.one
    for _ in range(8):
        p = p * t
    assert p == nf.one


def test_common_field_widening():
    nf = NumberField([1, 0, 1])
    assert common_field(QQ, QQ) is QQ
    assert common_field(QQ, nf) is nf
    assert common_field(nf, QQ) is nf


def test_field_of():
    nf = NumberField([1, 0, 1])
    assert field_of(F(1, 2)) is QQ
    assert field_of(nf.gen()) is nf


def test_incompatible_fields_rejected():
    a = NumberField([1, 0, 1])
    b = NumberField([2, 0, 1])
    with pytest.raises(SubalgError):
        common_field(a, b)


def test_scalar_json_round_trip_forms():
    nf = NumberField([1, 0, 1])
    assert scalar_to_json(F(3, 2)) == "3/2"
    as_json = scalar_to_json(nf.gen())
    assert as_json == {"t_coeffs": ["0", "1"]}


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


def _list_divmod(a, b):
    a = list(a)
    db, dn = len(b) - 1, len(a) - 1
    inv_lead = F(1) / b[-1]
    quot = [F(0)] * max(dn - db + 1, 0)
    for k in range(dn - db, -1, -1):
        c = a[k + db] * inv_lead
        if c:
            quot[k] = c
            for i, bi in enumerate(b):
                a[k + i] -= c * bi
    return quot, _trim(a[:db])


def reference_inverse(a):
    """The extended Euclid against the modulus that one linear solve
    replaced (verbatim, with its Fraction-list division)."""
    m = list(a.field.modulus_coeffs)
    r0, r1 = m, _trim(list(a.coeffs))
    s0, s1 = [], [F(1)]
    while r1:
        q, r = _list_divmod(r0, r1)
        s_next = list(s0) + [F(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    s_next[i + j] -= qi * sj
        r0, r1 = r1, r
        s0, s1 = s1, _trim(s_next)
    if len(r0) != 1:
        raise NonInvertible("zero divisor")
    inv_c = F(1) / r0[0]
    return FieldElem(a.field._reduce([c * inv_c for c in s0]), a.field)


def test_inverse_matches_the_extended_euclid():
    rng = random.Random(20261019)
    for modulus in ([1, 0, 1], [-2, 0, 0, 1], [1, 0, 0, 0, 1],
                    [-1, -1, 0, 0, 0, 1], [F(-1, 2), 0, 1]):
        nf = NumberField(modulus)
        for _ in range(60):
            a = nf.from_coeffs([F(rng.randint(-30, 30), rng.randint(1, 9))
                                if rng.random() < 0.8 else 0
                                for _ in range(nf.degree)])
            if not a:
                continue
            inv, old = a.inverse(), reference_inverse(a)
            assert inv.coeffs == old.coeffs, (modulus, a)
            assert all(type(c) is F for c in inv.coeffs)
            assert a * inv == nf.one


def test_zero_divisors_and_non_square_free_moduli():
    split = NumberField([-1, 0, 1])             # t² − 1 = (t − 1)(t + 1)
    with pytest.raises(NonInvertible):
        (split.gen() - 1).inverse()
    with pytest.raises(NonInvertible):
        reference_inverse(split.gen() - 1)
    assert (split.gen() + 2).inverse() == reference_inverse(
        split.gen() + 2)
    for modulus in ([0, 0, 1], [1, 2, 1]):      # t², (t + 1)²
        with pytest.raises(SubalgError, match="square-free"):
            NumberField(modulus)


def test_tilde_coordinates_of_an_integral_modulus_are_the_t_coordinates():
    for modulus, mu in (([1, 0, 1], 1), ([F(-1, 2), 0, 1], 2)):
        nf = NumberField(modulus)
        assert nf.mu == mu
        scalars = [F(3, 4), nf.gen() * F(5, 3) + 1]
        expected = [a / nf.mu ** u for c in scalars
                    for u, a in enumerate(nf.coerce(c).coeffs)]
        coords = nf.tilde_coordinates(scalars)
        assert coords == expected
        assert all(type(c) is F for c in coords)
