"""Arithmetic modulo word-size primes, and the way back to exact values.

An exact scalar of K = Q[t]/(m) (over Q, m = t) reduces modulo a prime p
to its power-basis coordinates in R_p = F_p[t]/(m mod p), a tuple of
e = deg m plain ints.  Images computed in R_p come back to K coordinate by
coordinate, by Chinese remaindering over several primes (von zur Gathen &
Gerhard, *Modern Computer Algebra*, section 5.4), with the bound that says
when to stop (`coordinate_bound`).  Exact arithmetic on integer
t̃-coordinates is in `poly` (`poly._int_scaled`, `poly._int_mul`).

At a prime where the integral modulus m̃ has e distinct roots θ_i
(`modulus_roots`), t̃ ↦ θ_i gives R_p ≅ F_p^e: a scalar maps to its
values at the θ_i (`evaluate_at`), and values come back to coordinates
through the inverse Vandermonde matrix (`lagrange_basis`, `tilde_images`).
`split_primes` is the one loop over such primes.
"""

from __future__ import annotations

from functools import cache
from math import lcm
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


_WORD_PRIMES = [(1 << 61) - 1]     # a Mersenne prime, then those found


def word_primes():
    """The primes below 2^61 in descending order, from 2^61 − 1.  The
    primes found so far are kept, so each candidate is tested once per
    process."""
    i = 0
    while True:
        if i == len(_WORD_PRIMES):
            m = _WORD_PRIMES[-1] - 2
            while not is_prime(m):
                m -= 2
            _WORD_PRIMES.append(m)
        yield _WORD_PRIMES[i]
        i += 1


def crt(residues, modulus, image, p):
    """The residues modulo modulus·p that agree with `residues` modulo
    `modulus` and with `image` modulo the prime p."""
    inv = pow(modulus, -1, p)
    return [r + modulus * ((a - r) * inv % p)
            for r, a in zip(residues, image)]


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


def _horner(g, x, q):
    """g(x) mod q for an ascending int list g."""
    acc = 0
    for c in reversed(g):
        acc = (acc * x + c) % q
    return acc


def split_primes(mt, unlucky, primes):
    """(p, θs) for each prime p of the iterable `primes`, in its order,
    with p ∤ `unlucky` (a nonzero int: the caller's denominators and μ)
    and modulo which the monic m̃ = mt (ascending ints) has e distinct
    roots θs (`modulus_roots`, ascending; over Q every prime, θ = 0).

    At such a p, t̃ ↦ θ_i maps R_p = F_p[t̃]/(m̃ mod p) onto F_p, and
    together these maps give R_p ≅ F_p^e; p ∤ disc m̃.  Only finitely many
    primes divide `unlucky` or disc m̃, and m̃ splits completely modulo
    infinitely many primes, a set of density 1/[L : Q] for its splitting
    field L by Chebotarev's theorem.  So from any infinite sequence of
    primes infinitely many are yielded, and a caller that rejects only
    finitely many of them ends."""
    mt = tuple(mt)
    for p in primes:
        if unlucky % p:
            thetas = modulus_roots(mt, p)
            if thetas is not None:
                yield p, thetas


@cache
def modulus_roots(mt, p):
    """The e roots of the monic m̃ = mt (an ascending int tuple of degree
    e) modulo the prime p, ascending, when it has e distinct ones; else
    None.

    Stickelberger's theorem filters first: for odd p ∤ disc m̃, the
    Legendre symbol of disc m̃ is (−1)^(e − r), r the number of
    irreducible factors of m̃ mod p, so e distinct roots (r = e) need
    disc m̃ to be a nonzero square mod p (`_discriminant`, once per m̃).
    A linear factor gives its root, and a quadratic one x² + bx + c two
    distinct roots exactly when b² − 4c is a nonzero square, found by
    `_sqrt` (for odd p).  For e > 2, m̃ has e distinct roots exactly when
    it divides x^p − x, and it is split by equal-degree splitting (Cantor
    & Zassenhaus 1981), made deterministic: a = 0, 1, … is tried in turn
    on each factor g of degree > 2, which splits when
    gcd(g, (x + a)^((p−1)/2) − 1) is a proper factor.  For two roots
    θ ≠ θ′ the values of (θ + a)/(θ′ + a) cover F_p minus {1}, so some
    a < p makes it a non-residue, and then exactly one of θ, θ′ is a root
    of that gcd: every factor splits.  F_2 has two residues, tried both.
    """
    m = [a % p for a in mt]
    e = len(m) - 1
    if p == 2:
        roots = tuple(r for r in range(2) if not _horner(m, r, 2))
        return roots if len(roots) == e else None
    half = (p - 1) // 2
    if pow(_discriminant(mt) % p, half, p) != 1:
        return None
    if e > 2:
        x = [0, 1] + [0] * (e - 2)
        h = _power(x, half, m, p)                   # x^((p−1)/2) mod m̃
        if _mul_mod(_mul_mod(h, h, m, p), x, m, p) != x:
            return None                             # m̃ ∤ x^p − x
    roots, pending, a = [], [m], 0
    while pending:
        g = pending.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) == 3:
            c, b = g[0], g[1]
            d = (b * b - 4 * c) % p
            if not d or pow(d, half, p) != 1:
                return None
            r = _sqrt(d, p)
            roots += [(-b + r) * (half + 1) % p, (-b - r) * (half + 1) % p]
        else:
            s = _reduced(h, g, p) if a == 0 else \
                _power(_reduced([a, 1], g, p), half, g, p)
            d = _gcd([(s[0] - 1) % p] + s[1:], g, p)
            if 1 < len(d) < len(g):
                pending += [d, _quotient(g, d, p)]
            else:
                pending.append(g)
                a += 1
    return tuple(sorted(roots))


@cache
def _discriminant(mt):
    """disc m̃ = (−1)^(e(e−1)/2)·Res(m̃, m̃′) for the monic m̃ = mt (an
    ascending int tuple of degree e): the determinant of the Sylvester
    matrix by fraction-free elimination (Bareiss 1968), each division
    exact."""
    e = len(mt) - 1
    f = list(reversed(mt))
    g = [k * a for k, a in enumerate(mt)][:0:-1]
    n = 2 * e - 1
    rows = [[0] * i + f + [0] * (e - 2 - i) for i in range(e - 1)] + \
        [[0] * i + g + [0] * (e - 1 - i) for i in range(e)]
    sign, previous = (-1) ** (e * (e - 1) // 2), 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot], sign = rows[pivot], rows[k], -sign
        top = rows[k]
        for i in range(k + 1, n):
            row = rows[i]
            rows[i] = [(a * top[k] - row[k] * b) // previous
                       for a, b in zip(row, top)]
        previous = top[k]
    return sign * previous


def _sqrt(d, p):
    """A square root of the nonzero square d modulo the odd prime p
    (Tonelli–Shanks, with the least non-residue)."""
    q, k = p - 1, 0
    while q % 2 == 0:
        q, k = q // 2, k + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, r, t = pow(z, q, p), pow(d, (q + 1) // 2, p), pow(d, q, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (k - i - 1), p)
        k, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _reduced(f, g, p):
    """f mod (g, p) for a monic g, as deg g ints."""
    f, n = list(f), len(g) - 1
    for k in range(len(f) - 1, n - 1, -1):
        c = f[k] % p
        if c:
            f[k - n:k] = [a - c * b for a, b in zip(f[k - n:k], g)]
    return [a % p for a in f[:n]] + [0] * (n - len(f))


def _mul_mod(a, b, g, p):
    """a·b mod (g, p) for a monic g."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + len(b)] = [o + x * y for o, y in zip(out[i:], b)]
    return _reduced(out, g, p)


def _power(f, n, g, p):
    """f^n mod (g, p) for a monic g, by repeated squaring."""
    out = _reduced([1], g, p)
    while n:
        if n & 1:
            out = _mul_mod(out, f, g, p)
        f, n = _mul_mod(f, f, g, p), n >> 1
    return out


def _gcd(f, g, p):
    """The monic gcd of f and g over F_p (g monic)."""
    f = _trim(list(f))
    while f:
        inv = pow(f[-1], -1, p)
        f = [a * inv % p for a in f]
        g, f = f, _trim(_reduced(g, f, p))
    return g


def _quotient(f, d, p):
    """f/d over F_p for monic f and d, d dividing f."""
    f, n = list(f), len(d) - 1
    q = [0] * (len(f) - n)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = f[k + n] % p
        if c:
            f[k:k + n] = [a - c * b for a, b in zip(f[k:k + n], d)]
    return q


def evaluate_at(coords, theta, q):
    """The scalars given by their t̃-coordinate lists `coords`, with
    t̃ ↦ theta, modulo q."""
    powers = [pow(theta, u, q) for u in range(len(coords[0]))]
    return [sum(map(mul, cs, powers)) % q for cs in coords]


def lagrange_basis(thetas, q):
    """Row i: the coefficients (ascending, mod q) of L_i/L_i(θ_i),
    L_i = Π_(j≠i) (x − θ_j), for distinct θ_i modulo q: the polynomial of
    degree < e with the values v_i at the θ_i is Σ_i v_i·row_i (the
    inverse of the Vandermonde matrix (θ_i^u))."""
    rows = []
    for i, theta_i in enumerate(thetas):
        L = [1]
        for j, theta in enumerate(thetas):
            if j != i:
                L = [(hi - theta * lo) % q for lo, hi in zip(L + [0], [0] + L)]
        w = pow(_horner(L, theta_i, q), -1, q)
        rows.append([a * w % q for a in L])
    return rows


def tilde_images(images, thetas, p):
    """The t̃-coordinates mod p, flattened per entry, of the elements of
    R_p whose values at the θ_i are images[i] (one list per θ_i, entries
    in the same order): the inverse Vandermonde step."""
    basis = lagrange_basis(thetas, p)
    return [sum(map(mul, column, row)) % p
            for column in zip(*images) for row in zip(*basis)]


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
