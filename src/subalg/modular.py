"""Arithmetic modulo word-size primes, and the way back to exact values.

An exact scalar of K = Q[t]/(m) (over Q, m = t) reduces modulo a prime p
to its power-basis coordinates in R_p = F_p[t]/(m mod p), a tuple of
e = deg m plain ints.  Images computed in R_p come back to K coordinate by
coordinate: Chinese remaindering over several primes, then rational
reconstruction (von zur Gathen & Gerhard, *Modern Computer Algebra*,
sections 5.4 and 5.10).  A vector over R_p is kept as e int lists, one per
coordinate, so that over Q every vector operation is one pass over plain
ints.  `_int_mul` and `_fold` are the exact counterpart: products in
Z[t̃]/(m̃) on integer t̃-coordinates (see `poly._int_scaled`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m):
    """Miller-Rabin with the first twelve prime bases: deterministic for
    m < 3.3·10^24, a strong probable-prime test above."""
    if m < 2:
        return False
    for q in _SMALL_PRIMES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        v = pow(a, d, m)
        if v in (1, m - 1):
            continue
        for _ in range(s - 1):
            v = v * v % m
            if v == m - 1:
                break
        else:
            return False
    return True


def word_primes():
    """The primes below 2^61 in descending order, from 2^61 − 1."""
    m = (1 << 61) - 1               # a Mersenne prime
    yield m
    while True:
        m -= 2
        if is_prime(m):
            yield m


def crt(residues, modulus, image, p):
    """The residues modulo modulus·p that agree with `residues` modulo
    `modulus` and with `image` modulo the prime p."""
    inv = pow(modulus, -1, p)
    return [r + modulus * ((a - r) * inv % p)
            for r, a in zip(residues, image)]


def rational_reconstruction(u, modulus):
    """The fraction r/s ≡ u (mod modulus) with |r|, |s| ≤ √(modulus/2), or
    None when there is none.  Such a fraction is unique (modulus odd)."""
    bound = isqrt(modulus // 2)
    r0, r1, s0, s1 = modulus, u % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def coordinates(scalar):
    """The power-basis coordinates of a Fraction or FieldElem."""
    return getattr(scalar, "coeffs", (scalar,))


def integral_modulus(modulus):
    """(m̃, μ) for a monic m over Q (ascending Fractions) of degree e: μ is
    the least common denominator of m and m̃(s) = μ^e·m(s/μ), ascending
    ints, is monic and integral with root t̃ = μ·t.  An element with
    t-coordinates a_u has t̃-coordinates a_u/μ^u.  Over Q, m = t = m̃."""
    e = len(modulus) - 1
    mu = lcm(*(a.denominator for a in modulus))
    return [int(a * mu ** (e - u)) for u, a in enumerate(modulus)], mu


def _int_mul(a, b, mt):
    """Product of nonempty cleared lists over Z[t̃]/(m̃), m̃ = mt (ascending
    ints) of degree e, by Kronecker substitution: the blocks are spread to
    stride 2e − 1, so that one integer convolution holds every product of
    t̃-powers apart, and each output block is folded back by m̃."""
    e = len(mt) - 1
    if e > 1:
        a, b = _spread(a, e), _spread(b, e)
    x, n = a[0], len(b)
    out = [x * y for y in b] + [0] * (len(a) - 1)
    for i in range(1, len(a)):
        x = a[i]
        if x:
            out[i:i + n] = [o + x * y for o, y in zip(out[i:i + n], b)]
    return _fold(out, mt) if e > 1 else out


def _spread(a, e):
    """The blocks of a cleared list at stride 2e − 1, zero-padded."""
    s = 2 * e - 1
    out = [0] * ((len(a) // e - 1) * s + e)
    for u in range(e):
        out[u::s] = a[u::e]
    return out


def _fold(c, mt):
    """Blocks of 2e − 1 coordinates reduced to blocks of e modulo the
    monic mt (ascending, of degree e)."""
    e = len(mt) - 1
    s, low = 2 * e - 1, mt[:e]
    out = []
    for j in range(0, len(c), s):
        block = c[j:j + s]
        for w in range(s - 1, e - 1, -1):
            top = block[w]
            if top:
                block[w - e:w] = [x - top * y
                                  for x, y in zip(block[w - e:w], low)]
        out += block[:e]
    return out


def root_radius(mt):
    """Cauchy's bound R = 1 + max_(u<e) |m̃_u| on the complex roots of the
    monic m̃ (ascending ints)."""
    return 1 + max(abs(a) for a in mt[:-1])


def coordinate_bound(mt, B):
    """A bound on |disc m̃|·|a_u| for every coordinate of α = Σ_(u<e)
    a_u·θ̃^u whose conjugates all have |σ_i(α)| ≤ B, θ̃ a root of the monic
    integral m̃ (ascending ints) of degree e.

    Let θ̃_1, …, θ̃_e be the complex roots of m̃, so |θ̃_i| ≤ R =
    `root_radius(mt)`.  Inverting the Vandermonde matrix V = (θ̃_i^u),
    a_u = Σ_i [x^u] L_i(x)·σ_i(α)/m̃′(θ̃_i) with L_i = Π_(j≠i) (x − θ̃_j),
    whose coefficients are at most (1 + R)^(e−1); and 1/|m̃′(θ̃_i)| =
    Π_(j≠i) |m̃′(θ̃_j)| / |disc m̃| ≤ M′^(e−1)/|disc m̃| with
    M′ = Σ_k k·|m̃_k|·R^(k−1).  So
        |disc m̃|·|a_u| ≤ e·B·(1 + R)^(e−1)·M′^(e−1),
    which is B over Q (m̃ = t).
    """
    e = len(mt) - 1
    R = root_radius(mt)
    M1 = sum(k * abs(a) * R ** (k - 1) for k, a in enumerate(mt) if k)
    return e * B * (1 + R) ** (e - 1) * M1 ** (e - 1)


class ResidueRing:
    """R_p = F_p[t]/(m mod p) for a monic m over Q whose denominators p does
    not divide.  Elements are tuples of e = deg m ints in [0, p)."""

    __slots__ = ("p", "e", "modulus")

    def __init__(self, modulus, p):
        self.p = p
        self.modulus = [self.reduce(a) for a in modulus]
        self.e = len(modulus) - 1

    def reduce(self, a):
        """A Fraction mod p (p must not divide its denominator)."""
        p = self.p
        if a.denominator == 1:
            return a.numerator % p
        return a.numerator * pow(a.denominator, -1, p) % p

    def mul(self, a, b):
        """a·b in R_p."""
        if self.e == 1:
            return (a[0] * b[0] % self.p,)
        return self.dot([[x] for x in a], [[y] for y in b])

    def power(self, a, n):
        """a^n in R_p, by repeated squaring."""
        if self.e == 1:
            return (pow(a[0], n, self.p),)
        out = (1,) + (0,) * (self.e - 1)
        while n:
            if n & 1:
                out = self.mul(out, a)
            a, n = self.mul(a, a), n >> 1
        return out

    def element(self, scalar):
        return tuple(self.reduce(a) for a in coordinates(scalar))

    def split(self, scalars):
        """A vector of scalars as e int lists, one per coordinate."""
        rows = [self.element(a) for a in scalars]
        return [[row[u] for row in rows] for u in range(self.e)]

    def dot(self, a, b):
        """Σ_k a_k·b_k for vectors a, b given as coordinate lists; the
        shorter length wins."""
        e = self.e
        w = [0] * (2 * e - 1)
        for u in range(e):
            for v in range(e):
                w[u + v] += sum(map(mul, a[u], b[v]))
        if e == 1:
            return (w[0] % self.p,)
        return tuple(v % self.p for v in _fold(w, self.modulus))

    def shifts(self, f, count):
        """f, t·f, …, t^(count−1)·f in R_p."""
        out = [f]
        for _ in range(count - 1):
            g = out[-1]
            out.append(tuple((lo - g[-1] * mj) % self.p for lo, mj in
                             zip((0,) + g[:-1], self.modulus)))
        return out

    def matrix(self, f):
        """M with M[j][v] the t^j-coordinate of f·t^v: multiplication by f
        on coordinate lists is out_j = Σ_v M[j][v]·vec_v."""
        return list(zip(*self.shifts(f, self.e)))

    def axpy(self, f, x, y):
        """y − f·x for coordinate lists; entries are left unreduced."""
        out = []
        for yj, mj in zip(y, self.matrix(f)):
            for xv, m in zip(x, mj):
                if m:
                    yj = [a - m * b for a, b in zip(yj, xv)]
            out.append(yj)
        return out

    def scale(self, f, x):
        """f·x for coordinate lists, reduced."""
        p = self.p
        if self.e == 1:
            return [[f[0] * a % p for a in x[0]]]
        return [[sum(map(mul, mj, entry)) % p for entry in zip(*x)]
                for mj in self.matrix(f)]

    def inverse(self, f):
        """f^-1 in R_p, or None when f is a zero divisor: extended Euclid
        of f against m over F_p."""
        p = self.p
        if self.e == 1:
            return (pow(f[0], -1, p),) if f[0] % p else None
        r0, r1 = list(self.modulus), _trim(list(f))
        s0, s1 = [], [1]
        while r1:
            inv_lead = pow(r1[-1], -1, p)
            quot = [0] * max(len(r0) - len(r1) + 1, 0)
            rem = list(r0)
            for k in range(len(quot) - 1, -1, -1):
                q = rem[k + len(r1) - 1] * inv_lead % p
                quot[k] = q
                for i, b in enumerate(r1):
                    rem[k + i] = (rem[k + i] - q * b) % p
            s_next = s0 + [0] * max(0, len(quot) + len(s1) - 1 - len(s0))
            for i, q in enumerate(quot):
                for j, b in enumerate(s1):
                    s_next[i + j] = (s_next[i + j] - q * b) % p
            r0, r1 = r1, _trim(rem[:len(r1) - 1])
            s0, s1 = s1, _trim(s_next)
        if len(r0) != 1:
            return None
        inv = pow(r0[0], -1, p)     # s0·f ≡ r0 (mod m), deg s0 < e
        return tuple(a * inv % p for a in s0 + [0] * (self.e - len(s0)))


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
