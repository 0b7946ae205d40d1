import random
from fractions import Fraction as F
from itertools import islice

from subalg import modular
from subalg.modular import (crt, evaluate_at, integral_modulus, is_prime,
                            lagrange_basis, modulus_roots, split_primes,
                            tilde_images, word_primes)


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


def test_word_primes_are_tested_once(monkeypatch):
    first = list(islice(word_primes(), 8))
    tested = []

    def counted(m):
        tested.append(m)
        return is_prime(m)
    monkeypatch.setattr(modular, "is_prime", counted)
    assert list(islice(word_primes(), 8)) == first
    assert tested == []
    # one prime past those found so far is searched for
    known = len(modular._WORD_PRIMES)
    assert list(islice(word_primes(), known + 1))[:8] == first
    assert tested and all(m > modular._WORD_PRIMES[-1] for m in tested[:-1])


# t² + 1, t² − 2, t³ − 2, t⁴ − t − 1 (Galois group S₄) and the reducible
# t² − 1, as ascending monic int tuples
SPLIT_MODULI = ((1, 0, 1), (-2, 0, 1), (-2, 0, 0, 1), (-1, -1, 0, 0, 1),
                (-1, 0, 1))


def test_modulus_roots_match_brute_force():
    for mt in SPLIT_MODULI:
        e = len(mt) - 1
        for p in filter(is_prime, range(200)):
            roots = tuple(r for r in range(p)
                          if sum(a * r ** u for u, a in enumerate(mt)) % p
                          == 0)
            assert modulus_roots(mt, p) == (roots if len(roots) == e
                                            else None), (mt, p)


def test_modulus_roots_at_word_primes():
    primes = list(islice(word_primes(), 60))
    for mt in SPLIT_MODULI:
        split = 0
        for p in primes:
            roots = modulus_roots(mt, p)
            if roots is not None:
                split += 1
                assert len(set(roots)) == len(mt) - 1
                assert all(sum(a * pow(r, u, p) for u, a in enumerate(mt))
                           % p == 0 for r in roots)
        assert split >= 1
        if mt == (1, 0, 1):
            assert split == sum(p % 4 == 1 for p in primes)
        if mt == (-1, 0, 1):
            assert split == len(primes)


def test_the_discriminant_filter_keeps_every_answer(monkeypatch):
    # t² + 1, t⁴ − 2t² + 9 (whose discriminant 384² is a square, so it
    # never filters), t⁴ − t − 1 and t⁵ − t − 1 at the first 200 word
    # primes: the answers are those computed with every discriminant
    # taken as a square, which turns the filter off
    moduli = {(1, 0, 1): -4, (9, 0, -2, 0, 1): 384 ** 2,
              (-1, -1, 0, 0, 1): -283, (-1, -1, 0, 0, 0, 1): 2869}
    primes = list(islice(word_primes(), 200))
    filtered, rejected = {}, 0
    for mt, disc in moduli.items():
        assert modular._discriminant(mt) == disc
        for p in primes:
            filtered[mt, p] = modulus_roots.__wrapped__(mt, p)
            rejected += pow(disc, (p - 1) // 2, p) != 1
    monkeypatch.setattr(modular, "_discriminant", lambda mt: 1)
    assert filtered == {(mt, p): modulus_roots.__wrapped__(mt, p)
                        for mt in moduli for p in primes}
    assert rejected > 200


def test_split_primes_are_the_filtered_primes():
    # Q, Q(i) and Q(∛2), at word primes and small primes, with unlucky
    # products that the first word prime or small primes divide: the
    # pairs of the brute-force filter, in the same order
    word = list(islice(word_primes(), 40))
    small = list(filter(is_prime, range(300)))
    for mt in ((0, 1), (1, 0, 1), (-2, 0, 0, 1)):
        for unlucky in (1, 6 * word[0], 35 * word[0] * word[3]):
            for primes in (word, small):
                expected = [(p, modulus_roots(mt, p)) for p in primes
                            if unlucky % p and modulus_roots(mt, p)]
                got = list(split_primes(list(mt), unlucky, iter(primes)))
                assert got == expected, (mt, unlucky)
    # over Q every prime splits, so only the unlucky ones are skipped
    assert next(split_primes((0, 1), 1, word_primes())) == (word[0], (0,))
    assert next(split_primes((0, 1), 6 * word[0], word_primes())) == \
        (word[1], (0,))


def test_lagrange_basis_inverts_the_vandermonde_matrix():
    p = 1000003
    thetas = [3, 17, 123456, 999999]
    rows = lagrange_basis(thetas, p)
    for i, row in enumerate(rows):
        assert [evaluate_at([row], theta, p)[0] for theta in thetas] == \
            [int(j == i) for j in range(len(thetas))]
    # tilde_images inverts evaluation: random t̃-coordinates of three
    # scalars, their values at each root of m̃ mod a word prime, and back
    rng = random.Random(5)
    mt = tuple(integral_modulus([F(-2), F(0), F(0), F(1)])[0])
    q, roots = next(split_primes(mt, 1, word_primes()))
    coords = [[rng.randrange(q) for _ in roots] for _ in range(3)]
    images = [evaluate_at(coords, theta, q) for theta in roots]
    assert tilde_images(images, roots, q) == \
        [a for cs in coords for a in cs]


def test_crt():
    values = [F(-7, 12), F(345), F(0), F(-1, 99991)]
    p1, p2 = 1000003, 999983
    images = [[v.numerator * pow(v.denominator, -1, p) % p for v in values]
              for p in (p1, p2)]
    residues = crt(images[0], p1, images[1], p2)
    # the residues of the values modulo p1·p2, which agree with both images
    M = p1 * p2
    assert residues == [v.numerator * pow(v.denominator, -1, M) % M
                        for v in values]
    assert [[r % p for r in residues] for p in (p1, p2)] == images
