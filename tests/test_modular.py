from fractions import Fraction as F
from itertools import islice

from subalg.fields import NumberField
from subalg.modular import (ResidueRing, crt, is_prime,
                            rational_reconstruction, word_primes)


def test_is_prime_matches_trial_division():
    def trial(m):
        return m > 1 and all(m % q for q in range(2, int(m ** 0.5) + 1))

    assert [m for m in range(2000) if is_prime(m)] == \
        [m for m in range(2000) if trial(m)]
    assert is_prime((1 << 61) - 1) and not is_prime((1 << 61) + 1)


def test_word_primes_descend_from_the_mersenne_prime():
    primes = list(islice(word_primes(), 3))
    assert primes[0] == (1 << 61) - 1
    assert primes == sorted(primes, reverse=True)
    assert all(is_prime(p) and p > 1 << 60 for p in primes)
    assert not any(is_prime(m) for m in range(primes[1] + 2, primes[0], 2))


def test_crt_and_rational_reconstruction():
    values = [F(-7, 12), F(345), F(0), F(-1, 99991)]
    p1, p2 = 1000003, 999983
    images = [[v.numerator * pow(v.denominator, -1, p) % p for v in values]
              for p in (p1, p2)]
    # one prime is too small for the last value, two suffice
    assert [rational_reconstruction(u, p1) for u in images[0]][:3] == \
        values[:3]
    assert rational_reconstruction(images[0][3], p1) != values[3]
    residues = crt(images[0], p1, images[1], p2)
    assert [rational_reconstruction(u, p1 * p2) for u in residues] == values


def test_residue_ring_arithmetic():
    qi = NumberField([1, 0, 1], label="t^2+1")
    t = qi.gen()
    ring = ResidueRing(qi.modulus_coeffs, 7)        # t^2 + 1 irreducible
    a = ring.element(2 + 3 * t)
    inv = ring.inverse(a)
    assert ring.element((2 + 3 * t).inverse()) == inv
    assert ring.dot([[a[0]], [a[1]]], [[inv[0]], [inv[1]]]) == (1, 0)
    # mod 5, t^2 + 1 = (t - 2)(t + 2): t - 2 is a zero divisor
    assert ResidueRing(qi.modulus_coeffs, 5).inverse((3, 1)) is None
    rational = ResidueRing((F(0), F(1)), 11)
    assert rational.inverse((3,)) == (4,) and rational.inverse((0,)) is None
    assert rational.element(F(1, 3)) == (4,)
