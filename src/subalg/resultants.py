"""Divided differences, resultants, and characteristic polynomials.

The characteristic polynomial of a pair is chi_{p,q}(x) = Res_y(P, Q) where
P, Q are the divided differences of p and q.  For t >= 3 generators chi_A is
the monic gcd of the coefficients d_a(x) of the parametric resultant
R(x, z_2, ..., z_t) = Res_y(P_1, sum z_i P_i), taken here as the gcd of its
values on a principal lattice of integer z (see `char_poly_multi`).

Every resultant of y-polynomials whose coefficients are polynomials in one
variable goes through `resultant_y_tables`.  When its first argument is
monic in y (the divided difference of a monic polynomial), the second is
first reduced modulo it once, exactly over K on cleared ints, since
Res_y(f, g) = Res_y(f, g rem f) (`_reduced_y`); the lattice of
`char_poly_multi` reduces each generator once, and its samples combine
the remainders.  Its results are kept in a small memo, so χ of a pair
and the conductor of the same two elements take one lattice between
them (`_lattice_gcd`).  Then comes a modular resultant in the
manner of Collins (1971): evaluation at integer points, a Euclidean
remainder sequence on the specialized univariate polynomials, and Newton
interpolation, all on plain int scalars modulo word-size primes.  Over a
number field Q[t]/(m), only primes p modulo which the integral modulus m̃
has e = deg m distinct roots θ_i are used: there F_p[t̃]/(m̃) ≅ F_p^e by
t̃ ↦ θ_i, so the values at each θ_i give the image, which the inverse
Vandermonde matrix turns back into t̃-coordinates.  Over Q = Q[t]/(t)
every prime qualifies, with θ = 0.  The points come in pairs ±a, after
0: every polynomial is E(x²) + x·O(x²), so one evaluation of the even
and odd parts at a² gives both values of a pair, and the resultant is
interpolated as E and O, each on about half the points.  Each (θ_i,
point) is a lane, and all the lanes of a prime run one Euclid in
lockstep, one vector operation per coefficient and one modular inverse
per step for all of them (`_lane_euclid`).  The images are combined by
Chinese remaindering until the product of the primes exceeds twice a
proven bound on the result's coefficients, so the result is exact (see
`_resultant`).  The characteristic polynomials are built on it.

The relation F(p, q) = Res_y(p(y) − P, q(y) − Q) takes no resultant: it
is the lift of P^n − Q^m by one subduction over the SAGBI basis {p, q},
scaled to Res_y's leading coefficient (`resultant_relation`).
"""

from __future__ import annotations

from collections import OrderedDict
from math import gcd, isqrt

from .errors import (ConstantInput, DegreesNotCoprime, FewerThanTwoGenerators,
                     SubalgError, ZeroPolynomialInY)
from .fields import QQ, common_field
from .modular import (coordinate_bound, crt, root_radius, split_primes,
                      tilde_images, word_primes)
from .mpoly import MPoly
from .poly import Poly, _int_mul, _int_sum, _over_lcm, poly_gcd


class DividedDifference:
    """P(x, y) = (p(x) - p(y)) / (x - y), stored as y-coefficients c_k(x)."""

    __slots__ = ("table",)

    def __init__(self, table):
        self.table = tuple(table)


def divided_difference(p):
    """Construct P(x,y) with c_k(x) = sum_{n > k} a_n x^(n-1-k), so that
    (x - y)*P = p(x) - p(y) by construction."""
    if p.degree < 1:
        raise ConstantInput("divided difference needs deg p >= 1")
    ints, d = p.cleared()
    e = p.field.degree
    return DividedDifference(Poly.from_cleared(ints[(k + 1) * e:], d, p.field)
                             for k in range(p.degree))


# ---------------------------------------------------------------------------
# Resultant in y of polynomials with Poly-in-x coefficients
# ---------------------------------------------------------------------------


def _max_x_degree(table):
    return max((c.degree for c in table if c), default=-1)


def _total_degree(table):
    return max((k + c.degree for k, c in enumerate(table) if c), default=-1)


def _degree_bound(f_table, g_table):
    """A bound on deg_x Res_y(f, g) for y-degrees mf, mg ≥ 1: the least of
    the naive and the weighted (total degree) bound."""
    mf, mg = len(f_table) - 1, len(g_table) - 1
    naive = mg * _max_x_degree(f_table) + mf * _max_x_degree(g_table)
    weighted = (_total_degree(f_table) * mg + _total_degree(g_table) * mf
                - mf * mg)
    return max(0, min(naive, weighted))


def _reduced_y(table, monic):
    """The remainder, trimmed, of the y-table `table` modulo `monic`, a
    y-table of y-degree m ≥ 1 whose leading y-coefficient is the constant
    one, as `Poly`s over the field of `monic`; the zero remainder is the
    empty list.

    The work is on cleared ints (`Poly.cleared`): the remainder R over
    one denominator d, and `monic` as y^m + M/d_m, M the cleared
    coefficients below the lead over one denominator d_m.  The step on a
    nonzero top coefficient C·y^k of R drops it and takes
    d_m·R − C·y^(k−m)·M over d·d_m; with d_m = 1, the integral case, the
    denominator never grows.  No division, and no `Poly` until the end.
    """
    field = monic[-1].field
    mt, m = field.tilde_modulus, len(monic) - 1
    M, dm = _over_lcm([c.cleared() for c in monic[:-1]])
    rem, den = _over_lcm([c.cleared() for c in table])
    for k in range(len(rem) - 1, m - 1, -1):
        top = rem.pop()
        if any(top):
            if dm != 1:
                rem, den = [[dm * v for v in r] for r in rem], den * dm
            top = [-v for v in top]
            for j, b in enumerate(M):
                if b:
                    rem[k - m + j] = _int_sum(rem[k - m + j],
                                              _int_mul(top, b, mt))
    while rem and not any(rem[-1]):
        rem.pop()
    return [Poly.from_cleared(r, den, field) for r in rem]


def resultant_y_tables(f_table, g_table):
    """Res_y of two y-polynomials with Poly-in-x coefficients (exact; see
    `_resultant`).

    Reduction.  When f is monic in y (its leading y-coefficient is the
    constant one) of y-degree mf ≥ 1, and g has y-degree mg ≥ mf, g is
    replaced by g rem f (`_reduced_y`) before any point is taken; a zero g
    or a zero remainder gives 0.  Over a splitting field of f over K(x),
    Res(f, B) = lc(f)^n·Π B(r), the product over the mf roots r of f with
    multiplicity, for a y-polynomial B of formal degree n: both sides are
    polynomials in B's coefficients that agree where B's y^n coefficient is
    nonzero, so they agree everywhere.  With lc(f) = 1 this is Π B(r) for
    every formal degree n, and g(r) = (g rem f)(r) at each root, so
    Res(f, g) = Res(f, g rem f), whatever degree the remainder has, and 0
    for a zero remainder.  Both pairs have the same resultant, so the
    degree bound of either pair bounds it, and the interpolation takes
    the least of the two (`_degree_bound`): reduction never adds a point.

    Callers: the lattice samples of the characteristic polynomials
    (`_lattice_samples_gcd`), whose f is a divided difference P_1, monic
    in y, and the public `resultant_y`.  `resultant_relation` takes no
    resultant.
    """
    f_table = [c for c in f_table]
    g_table = [c for c in g_table]
    while f_table and f_table[-1].is_zero():
        f_table.pop()
    while g_table and g_table[-1].is_zero():
        g_table.pop()
    monic = len(f_table) > 1 and f_table[-1] == 1
    if not f_table or (not g_table and not monic):
        raise ZeroPolynomialInY("resultant of the zero polynomial in y")
    field = QQ
    for c in f_table + g_table:
        field = common_field(field, c.field)
    f_table = [c.coerce_to(field) for c in f_table]
    g_table = [c.coerce_to(field) for c in g_table]
    mf, mg = len(f_table) - 1, len(g_table) - 1
    bound = _degree_bound(f_table, g_table)
    if monic and mg >= mf:
        g_table = _reduced_y(g_table, f_table)
        mg = len(g_table) - 1
    if mg < 0:
        return Poly.zero(field)
    if mf == 0:
        return (f_table[0] ** mg).coerce_to(field)
    if mg == 0:
        return g_table[0] ** mf
    return _resultant(f_table, g_table, field,
                      min(bound, _degree_bound(f_table, g_table)))


def _resultant(f_table, g_table, field, bound):
    """Res_y(f, g) for y-tables over K = Q[t]/(m) (Q is Q[t]/(t)) of
    y-degrees mf, mg ≥ 1 with nonzero leading coefficients, from images
    modulo word-size primes.

    Points.  deg_x Res ≤ D = `bound` (see `_degree_bound` and
    `resultant_y_tables`), so Res is the interpolant of its values at any
    D + 1 or more points where both leading y-coefficients are nonzero,
    since there Res(f, g)(x0) = Res(f(x0), g(x0)).  Whether a point is
    good is decided exactly, on the two leading entries alone.  The points
    are 0, when it is good, and then a and −a for a = 1, 2, … wherever
    both are good, until there are D + 1 or one more.  Write each entry
    c(x) of F and G below as E(x²) + x·O(x²): then c(±a) = E(a²) ± a·O(a²),
    so one exact evaluation of the even and odd parts at a² gives the
    values at both points of a pair, with half the Horner steps of two
    evaluations (`_pair_values`).

    Clearing.  With t̃ = μ·t and m̃ monic and integral (`integral_modulus`),
    F = d_f·f and G = d_g·g have integer t̃-coordinates for the least
    common denominators d_f, d_g, so Res(F, G) = d_f^mg·d_g^mf·Res(f, g)
    is a polynomial in x whose coefficients have integer t̃-coordinates.

    Images.  The primes are those that `split_primes` takes from
    `word_primes` for d_f·d_g·μ: at each, t̃ ↦ θ_i maps
    R_p = F_p[t̃]/(m̃ mod p) onto F_p for each of the e roots θ_i of m̃
    mod p.  So for each θ_i the exact values F(x0), G(x0) are mapped to
    F_p, Res(F(x0), G(x0)) is taken there by Euclid, every (θ_i, x0) in
    one lockstep run (`_lane_euclid`), and the values are interpolated in
    F_p; the interpolants at the θ_i give the t̃-coordinates
    (`tilde_images`).  Res = E(x²) + x·O(x²) as well, and
    E(a²) = (Res(a) + Res(−a))/2, O(a²) = (Res(a) − Res(−a))/(2a) and
    E(0) = Res(0); E has degree ≤ ⌊D/2⌋ and O degree ≤ ⌊(D − 1)/2⌋, and
    with k pairs E has k or k + 1 points and O has k, enough for both.
    So Res comes from two Newton interpolants on the squares, each on
    about half the points (`_newton`; 2a < p for every a, so the
    divisions exist).  A prime is discarded if, at some point, Euclid
    would divide by a leading coefficient that is zero or a zero divisor
    in R_p, that is, zero at some θ_i: the remainder
    sequences at the θ_i are the images of the one in R_p only while
    every divisor's leading coefficient is nonzero at every θ_i, so such
    a coefficient shows as a zero leading coefficient or as divisors of
    different degrees at two θ_i (see `_image`).  (A zero leading
    coefficient of a dividend is harmless: Euclid keeps the formal
    degree.)  At the first discard that a point causes, Euclid runs once
    exactly over K at that point (`_exact_euclid`); K = Q[t]/(m) may have
    zero divisors, and `FieldElem.inverse` raises NonInvertible at a
    leading coefficient that is one.  If the exact run completes, each of
    its finitely many leading coefficients c has an inverse c⁻¹ in K.
    Modulo every prime that divides no denominator of the t̃-coordinates
    met in that run (remainders, the c and the c⁻¹), c·c⁻¹ = 1 still
    holds, so every c stays a unit, the remainder sequence mod p is the
    image of the exact one, and the point causes no discard.  So each
    point causes only finitely many discards, there are finitely many
    points, and the loop ends, since `split_primes` yields infinitely
    many primes.

    Prime count.  Let σ_1, …, σ_e be the embeddings t̃ ↦ θ̃_i, with
    |θ̃_i| ≤ R = `root_radius(m̃)`.  On |x| = 1 a coefficient F_k(x) has
    |σ_i(F_k(x))| ≤ F̂_k = Σ_(j,u) |F_(k,j,u)|·R^u (over Q, the 1-norm of
    F_k).  Hadamard's inequality on the Sylvester matrix (mg rows of F,
    mf rows of G) bounds |σ_i(Res(F, G))(x)| there by
    B = ‖F̂‖₂^mg·‖Ĝ‖₂^mf, and Cauchy's coefficient estimate bounds the
    conjugates of every x-coefficient by B too.  The t̃-coordinates of an
    x-coefficient are integers, so the Vandermonde step of
    `coordinate_bound` (shared with `roots._lifted_roots`) bounds them by
    H = coordinate_bound(m̃, B), which is B over Q.  Once the product M
    of the primes used exceeds 2H, the symmetric residues of the images
    combined by CRT are those coordinates exactly; dividing by
    d_f^mg·d_g^mf gives Res(f, g).  No rational reconstruction is needed,
    and no stabilisation test: the count of primes is fixed by H.
    """
    mf, mg = len(f_table) - 1, len(g_table) - 1
    count = bound + 1
    mt, mu = field.tilde_modulus, field.mu
    F, df = _cleared(f_table, field)
    G, dg = _cleared(g_table, field)

    def good(x0):
        return all(any(sum(c * x0 ** i for i, c in enumerate(coord))
                       for coord in table[-1]) for table in (F, G))

    zero, roots, a = int(good(0)), [], 0
    while zero + 2 * len(roots) < count:
        a += 1
        if good(a) and good(-a):
            roots.append(a)
    points = [0] * zero + [x for a in roots for x in (a, -a)]
    # at_f[k][u] lists coordinate u of F_k at each point in turn
    at_f, at_g = ([[_pair_values(coord, zero, roots) for coord in entry]
                   for entry in table] for table in (F, G))
    R = root_radius(mt)
    B = isqrt(_norm2(F, R) ** mg * _norm2(G, R) ** mf) + 1
    H = coordinate_bound(mt, B)
    residues, modulus, checked = None, 1, set()
    for p, thetas in split_primes(mt, df * dg * mu, word_primes()):
        image = _image(at_f, at_g, zero, roots, count, thetas, p)
        if isinstance(image, int):
            if image not in checked:
                checked.add(image)
                _exact_euclid(f_table, g_table, points[image], field)
            continue
        residues = image if residues is None else \
            crt(residues, modulus, image, p)
        modulus *= p
        if modulus > 2 * H:
            break
    half = modulus // 2
    return Poly(field.from_tilde_coordinates(
        [(r + half) % modulus - half for r in residues],
        df ** mg * dg ** mf), field)


def _cleared(table, field):
    """(T, d): the y-table cleared over one denominator d, the lcm of its
    entries' (`Poly.cleared`); T[k][u] lists the ints d·(t̃-coordinate u)
    of the x-coefficients of y^k."""
    lists, d = _over_lcm([poly.cleared() for poly in table])
    e = field.degree
    return [[ints[u::e] for u in range(e)] for ints in lists], d


def _norm2(table, R):
    """‖F̂‖₂² for the cleared table F (see `_resultant`)."""
    return sum(sum(abs(a) * R ** u for u, col in enumerate(coeff)
                   for a in col) ** 2 for coeff in table)


def _pair_values(c, zero, roots):
    """The values of the int polynomial c (ascending) at 0 when `zero`,
    then at a and −a for each a in `roots`, from its even and odd parts at
    a² (see `_resultant`)."""
    squares = [a * a for a in roots]
    even, odd = [0] * len(roots), [0] * len(roots)
    for i in range(len(c) - 1, -1, -1):
        if i % 2:
            odd = [v * s + c[i] for v, s in zip(odd, squares)]
        else:
            even = [v * s + c[i] for v, s in zip(even, squares)]
    odd = [a * v for a, v in zip(roots, odd)]
    values = [0] * (2 * len(roots))
    values[0::2] = [u + v for u, v in zip(even, odd)]
    values[1::2] = [u - v for u, v in zip(even, odd)]
    return [c[0] if c else 0] * zero + values


def _image(at_f, at_g, zero, roots, count, thetas, p):
    """The coefficients of Res(F, G) mod p, t̃-coordinates flattened per
    x-power, or, when the prime is discarded (see `_resultant`), the index
    of the point where Euclid met a leading coefficient that is no unit:
    zero at some θ_i, or zero at one θ_i but not at another, which shows
    as divisors of different degrees.  `at_f` and `at_g` list the exact
    t̃-coordinates of the y-coefficients at the points 0 (when `zero`),
    a_1, −a_1, a_2, … for the a_j of `roots`; `count` coefficients are
    returned.

    A lane is one (θ_i, point): each y-coefficient becomes one vector of
    its values mod p over every lane, θ-major, and `_lane_euclid` runs all
    the lanes at once.  The discard is the first lane in that order that
    meets a zero leading coefficient or whose degrees differ from those
    at θ_1 and the same point, as if each θ_i ran its points in turn.
    The values at each θ_i give E and O on the squares (see
    `_resultant`); one table of inverses of 1, …, 2·max a serves 1/(2a)
    and 1/(a² − b²) = 1/(a − b)·1/(a + b)."""
    lanes = []
    for at in (at_f, at_g):
        rows = []
        for coords in at:
            row = []
            for theta in thetas:
                acc, power = coords[0], 1
                for col in coords[1:]:
                    power = power * theta % p
                    acc = [u + power * v for u, v in zip(acc, col)]
                row += [v % p for v in acc]
            rows.append(row)
        lanes.append(rows)
    results = _lane_euclid(*lanes, p)
    n = zero + 2 * len(roots)
    for i, r in enumerate(results):
        if r is None or r[1] != results[i % n][1]:
            return i % n
    inverse = [0] + _inverses(range(1, 2 * max(roots, default=0) + 1), p)
    half = (p + 1) // 2
    values = []
    for i in range(0, len(results), n):
        vals = [r[0] for r in results[i:i + n]]
        plus, minus = vals[zero::2], vals[zero + 1::2]
        even = _newton([0] * zero + roots, vals[:zero] + [
            (u + v) * half % p for u, v in zip(plus, minus)], inverse, p)
        odd = _newton(roots, [(u - v) * inverse[2 * a] % p
                              for u, v, a in zip(plus, minus, roots)],
                      inverse, p)
        coeffs = [0] * (2 * len(even))
        coeffs[0::2] = even
        coeffs[1:2 * len(odd):2] = odd
        values.append(coeffs[:count])
    return tilde_images(values, thetas, p)


def _exact_euclid(f_table, g_table, x0, field):
    """Euclid on f(x0), g(x0) over K with `Poly` division, which inverts
    the leading coefficients that `_lane_euclid` inverts; raises
    NonInvertible at one that is a zero divisor of K."""
    a, b = sorted((Poly([c(x0) for c in table], field)
                   for table in (f_table, g_table)), key=lambda q: -q.degree)
    while b.degree > 0:
        a, b = b, a % b


def _lane_euclid(A, B, p):
    """For each lane i, (Res_y(A_i, B_i) in F_p, the divisors' degrees ≥ 1
    as a bit mask), or None when a divisor of degree ≥ 1 has a zero
    leading coefficient.  A and B are y-polynomials of the formal degrees
    len(A) − 1 and len(B) − 1 in every lane, coefficient-major: A[k][i],
    reduced mod p, is the y^k coefficient of lane i.

    With l = lc(B) nonzero and R = A mod B of degree dR ≥ 0,
    Res(A, B) = (−1)^(dA·dB)·l^(dA−dR)·Res(B, R), which holds for a formal
    degree dA as well; Res(A, B) = l^dA when dB = 0, and 0 when R = 0 and
    dB ≥ 1.  A group of lanes with equal degrees takes each remainder step
    together: one vector operation per coefficient, and one `pow` for the
    inverses of all its leads (`_inverses`).  Lanes whose lead is zero end
    as None; lanes whose remainder drops more than one degree, or is
    zero, leave the group, and those with equal degrees go on as a group
    of their own."""
    out = [None] * len(A[0])
    odd = 0
    if len(A) < len(B):
        A, B = B, A
        odd = (len(A) - 1) & (len(B) - 1) & 1
    groups = [(A, B, list(range(len(out))), [1] * len(out), odd, 0)]
    while groups:
        A, B, ids, acc, odd, mask = groups.pop()
        dA, dB = len(A) - 1, len(B) - 1
        if dB == 0:
            for i, a, lead in zip(ids, acc, B[0]):
                v = a * pow(lead, dA, p) % p
                out[i] = (-v % p if odd else v, mask)
            continue
        if not all(B[-1]):
            keep = [j for j, lead in enumerate(B[-1]) if lead]
            if not keep:
                continue
            A, B = ([[row[j] for j in keep] for row in rows]
                    for rows in (A, B))
            ids, acc = [ids[j] for j in keep], [acc[j] for j in keep]
        lead = B[-1]
        mask |= 1 << dB
        inv = _inverses(lead, p)
        R = list(A)
        for k in range(dA, dB - 1, -1):
            q = [r * v % p for r, v in zip(R[k], inv)]
            for j in range(dB):
                R[k - dB + j] = [r - c * b for r, c, b
                                 in zip(R[k - dB + j], q, B[j])]
        R = [[r % p for r in row] for row in R[:dB]]
        odd ^= dA & dB & 1
        if all(R[-1]):
            groups.append((B, R, ids, [a * pow(b, dA - dB + 1, p) % p
                                       for a, b in zip(acc, lead)],
                           odd, mask))
            continue
        degrees = [max((d for d in range(dB) if R[d][j]), default=-1)
                   for j in range(len(ids))]
        for d in set(degrees):
            js = [j for j, dj in enumerate(degrees) if dj == d]
            if d < 0:
                for j in js:
                    out[ids[j]] = (0, mask)
                continue
            groups.append(([[row[j] for j in js] for row in B],
                           [[row[j] for j in js] for row in R[:d + 1]],
                           [ids[j] for j in js],
                           [acc[j] * pow(lead[j], dA - d, p) % p
                            for j in js], odd, mask))
    return out


def _inverses(values, p):
    """The inverses mod p of the nonzero `values`, with one `pow`
    (Montgomery 1987): with the prefix products P_i = v_0·…·v_(i−1),
    1/v_i = P_i/P_(i+1), and 1/P_i = v_i/P_(i+1) walks back from the one
    inverse of the full product."""
    prefix, acc = [], 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % p
    inv, out = pow(acc, -1, p), [0] * len(prefix)
    for i in range(len(prefix) - 1, -1, -1):
        out[i] = prefix[i] * inv % p
        inv = inv * values[i] % p
    return out


def _newton(roots, values, inverse, p):
    """The coefficients mod p, ascending, of the polynomial of degree
    < len(roots) that takes the `values` at the squares a² of the distinct
    `roots` a ≥ 0, increasing: Newton's divided differences, each
    difference a² − b² inverted as `inverse[a − b]·inverse[a + b]`
    (`inverse[d]` is 1/d mod p), then the Newton form expanded."""
    n = len(roots)
    coefs = list(values)
    for j in range(1, n):
        coefs[j:] = [(coefs[i] - coefs[i - 1])
                     * inverse[roots[i] - roots[i - j]]
                     * inverse[roots[i] + roots[i - j]] % p
                     for i in range(j, n)]
    out = coefs[-1:]
    for i in range(n - 2, -1, -1):
        x = roots[i] * roots[i]
        out = [(a - x * b) % p for a, b in zip([coefs[i]] + out, out + [0])]
    return out


def resultant_y(f, g):
    """Res_y; inputs are DividedDifference values or y-coefficient lists
    of Polys in x."""
    f_table = f.table if isinstance(f, DividedDifference) else f
    g_table = g.table if isinstance(g, DividedDifference) else g
    return resultant_y_tables(f_table, g_table)


# ---------------------------------------------------------------------------
# Characteristic polynomials
# ---------------------------------------------------------------------------


def char_poly_pair(p, q):
    """chi_{p,q} = Res_y(P, Q), normalized monic (or exactly zero): the
    two-generator case of `char_poly_multi`, whose lattice is one sample."""
    if p.degree < 1 or q.degree < 1:
        raise ConstantInput("char_poly_pair needs two nonconstant inputs")
    return _lattice_gcd([p, q], 0)


def char_poly_multi(gens, symmetrize=False):
    """chi_A for t >= 2 generators; first generator is distinguished.

    chi_A is the monic gcd of the z-coefficients d_a(x) of
    R(x, z) = Res_y(P_1, sum z_i P_i), which is homogeneous of degree
    h = deg p_1 - 1 in z.  With z_2 = 1, R(x, 1, w) is a polynomial of
    total degree <= h in w = (z_3, ..., z_t) whose coefficients are the
    d_a.  The principal lattice {w in N^(t-2) : |w| <= h} is unisolvent
    for that degree (Chung & Yao 1977), so the samples there and the d_a
    span the same space of polynomials, and a gcd depends only on that
    span.  A zero weight may lower the y-degree of sum w_i P_i; P_1 is
    monic in y, so the sample is still the product of sum z_i P_i over
    the h roots of P_1 (see `resultant_y_tables`).  Each sample is one
    exact `resultant_y_tables` call (proof in `_resultant`), on
    combinations reduced modulo P_1 once (see `_lattice_gcd`), and they
    are taken cheapest first.  The running gcd stops once it is constant,
    and is zero when every sample is.

    The result depends on which generator is distinguished, not only on
    the algebra: for K[x⁴ − 2, x⁷ + 2x⁶ − 2x⁵ + x⁴ − 2x² − 2,
    x⁶ − x⁵ + x⁴ + x³ − x² + 1], whose SAGBI basis has two elements and
    whose conductor is x², it is x⁴, and x² with either other generator
    first.  `symmetrize` and `spectrum.characteristic_polynomial` give
    x².

    Stop at the conductor.  With t >= 3 generators whose degrees have
    gcd 1, the algebra A they generate has finite codimension and a
    conductor c (`Subalgebra.conductor`), and the gcd stops once its
    degree is deg c.  That stop is exact: a nonzero sample is
    ±Res_y(P_1, Q) = ±chi_{p_1, q} for q = sum z_i p_i in A, the
    conductor of K[p_1, q] ⊆ A, which lies in the conductor ideal c·K[x]
    of A; so c divides every nonzero sample and their running gcd, which
    can reach deg c only by equalling c.  Where chi_A ≠ c every sample is
    taken.  Two generators give one sample, whose conductor is that same
    resultant, and for a degree gcd > 1 `sagbi_complete` takes the full
    lattice gcd itself, so both keep the stop degree 0.

    The stop degree of a basis of at most two elements is 2·g, g the
    codimension, with no conductor taken: for two elements of coprime
    degrees a, b, c is their χ (`conditions.conductor`), of degree
    (a − 1)(b − 1) = 2g (Sylvester's count of the gaps of ⟨a, b⟩); one
    element is x + const, with c = 1 and g = 0.  A basis of three or more
    elements takes deg c from its conductor.

    With symmetrize=True, returns the monic gcd over all t choices of the
    distinguished generator, each stopped at the one stop degree of A.
    """
    gens = list(gens)
    if sum(1 for g in gens if g.degree >= 1) < 2:
        raise FewerThanTwoGenerators(
            "char_poly_multi needs >= 2 nonconstant generators")
    if any(g.degree < 1 for g in gens):
        raise ConstantInput("constant generator in char_poly_multi")
    least_degree = 0
    if len(gens) > 2 and gcd(*(g.degree for g in gens)) == 1:
        from .conditions import Subalgebra
        A = Subalgebra.from_generators(gens)
        least_degree = 2 * A.codimension() \
            if len(A.sagbi_basis().elements) <= 2 else A.conductor().degree
    if not symmetrize:
        return _lattice_gcd(gens, least_degree)
    result = None
    for i in range(len(gens)):
        chi = _lattice_gcd([gens[i]] + gens[:i] + gens[i + 1:], least_degree)
        if result is None:
            result = chi
        elif chi:
            result = poly_gcd(result, chi) if result else chi
    return result


_LATTICE_MEMO_SIZE = 8
_lattice_memo = OrderedDict()


def _lattice_gcd(gens, least_degree):
    """The running monic gcd of the lattice samples of `char_poly_multi`,
    stopped once its degree is `least_degree` (see `_lattice_samples_gcd`),
    from a memo of the last `_LATTICE_MEMO_SIZE` results.

    χ of a pair is wanted twice: `char_poly_pair` and the conductor of
    the same two elements (`conditions.conductor`) take the same lattice.
    The key is the field, the stop degree, and the cleared first entry
    c_0 = (p(x) − p(0))/x of each monic generator's divided difference,
    in order (the first generator is distinguished): c_0 fixes p up to
    its constant, which no c_k depends on, so equal keys have equal
    tables and equal χ.  The same immutable `Poly` is returned on a hit.
    """
    ps = [g.monic() for g in gens]
    field = QQ
    for p in ps:
        field = common_field(field, p.field)
    tables = [divided_difference(p.coerce_to(field)).table for p in ps]
    key = (field, least_degree,
           tuple((tuple(ints), d) for ints, d in
                 (table[0].cleared() for table in tables)))
    chi = _lattice_memo.get(key)
    if chi is None:
        chi = _lattice_samples_gcd(tables, least_degree, field)
        _lattice_memo[key] = chi
        if len(_lattice_memo) > _LATTICE_MEMO_SIZE:
            _lattice_memo.popitem(last=False)
    else:
        _lattice_memo.move_to_end(key)
    return chi


def _lattice_samples_gcd(tables, least_degree, field):
    """The running monic gcd of the lattice samples of the divided
    differences `tables` over `field`, stopped once its degree is
    `least_degree`.

    Samples are taken by least y-degree, then least |w|, so the first is
    Res_y(P_1, P_2); each is exact (see `_resultant`), so the gcd is
    exact too.  The stop is exact when `least_degree` bounds the
    gcd from below: 0 always, and deg c for elements that generate an
    algebra with conductor c (see `char_poly_multi`).

    Reduction once.  P_1 is monic in y, so each sample
    Res_y(P_1, Q) equals Res_y(P_1, Q rem P_1) (see `resultant_y_tables`),
    and remainders modulo P_1 are linear:
    (P_2 + Σ w_i·P_i) rem P_1 = P_2 rem P_1 + Σ w_i·(P_i rem P_1).  So
    P_2, …, P_t are reduced once (`_reduced_y`), every sample is Res_y of
    P_1 and a combination of y-degree < h, and a zero combination is a
    zero sample, which `resultant_y_tables` returns as 0.  No sample
    takes more points than its unreduced combination Q would: P_1 has
    y-degree, x-degree and total degree h, so for any Q the weighted
    bound h·t_Q (t_Q the total degree of Q) is at most the naive one,
    h·(deg_y Q + deg_x Q), and each reduction step subtracts
    c(x)·y^(k−h)·P_1 for a term c(x)·y^k of total degree ≤ t_Q, which
    has total degree ≤ t_Q too, so t_(Q rem P_1) ≤ t_Q.  For p_1 of
    degree 1, P_1 = 1 and nothing is reduced.
    """
    rest = tables[1:]
    h = len(tables[0]) - 1
    reduced = [_reduced_y(t, tables[0]) for t in rest] if h else rest

    def cost(w):
        return max(len(t) for t, wi in zip(rest, (1,) + w) if wi), sum(w), w

    chi = Poly.zero(field)
    for w in sorted(_principal_lattice(len(rest) - 1, h), key=cost):
        combo = list(reduced[0])
        for wi, table in zip(w, reduced[1:]):
            if wi:
                combo += [Poly.zero(field)] * (len(table) - len(combo))
                for k, c in enumerate(table):
                    combo[k] = combo[k] + wi * c
        sample = resultant_y_tables(tables[0], combo)
        if sample:
            chi = poly_gcd(chi, sample)
            if chi.degree <= least_degree:
                break
    return chi


def _principal_lattice(k, h):
    """Every w in N^k with |w| <= h."""
    if k == 0:
        yield ()
        return
    for first in range(h + 1):
        for tail in _principal_lattice(k - 1, h - first):
            yield (first,) + tail


# ---------------------------------------------------------------------------
# The algebraic relation F(p, q)
# ---------------------------------------------------------------------------


def resultant_relation(p, q):
    """F(p, q) = Res_y(p(y) − P, q(y) − Q) as an MPoly in (P, Q), for
    monic p, q of coprime degrees m, n, by one subduction.

    Lift.  {p, q} is a SAGBI basis (Abhyankar–Moh; see
    `sagbi.sagbi_complete`), and p^n − q^m has degree < nm, so it subduces
    over {p, q} to a constant r₀ with steps c·p^i·q^j (i the count of m
    in the step's representation, j that of n).  So
    L = P^n − Q^m − Σ c·P^i·Q^j − r₀ has L(p, q) = 0 (Robbiano &
    Sweedler 1990, *Subalgebra bases*).  Each step has degree
    i·m + j·n < nm, so i < n and j < m: deg_Q L = m, with Q^m
    coefficient −1.

    Scalar.  The relations of p and q are the kernel of K[P, Q] → K[x],
    a prime of height one, so principal, generated by an irreducible G.
    K(p, q) = K(x), since [K(x) : K(p, q)] divides m and n, so the
    minimal polynomial of q over K(p) has degree [K(x) : K(p)] = m and
    every nonzero element of the kernel has Q-degree ≥ m.  So
    deg_Q G = m, and L and F, both of Q-degree m, are G times units of
    K[P], that is, constants.  Res_y(p(y) − P, q(y) − Q) is the product
    of q(r) − Q over the m roots r of the monic p(y) − P, so its Q^m
    coefficient is (−1)^m, and F = (−1)^(m+1)·L.

    F(p(x), q(x)) = 0 identically, and the support satisfies
    i*m + j*n <= nm.
    """
    if p.degree < 1 or q.degree < 1:
        raise ConstantInput("resultant_relation needs nonconstant inputs")
    m, n = p.degree, q.degree
    if gcd(m, n) != 1:
        raise DegreesNotCoprime(f"degrees {m}, {n} are not coprime")
    field = common_field(p.field, q.field)
    if p.leading_coeff() != field.one or q.leading_coeff() != field.one:
        raise SubalgError("resultant_relation requires monic inputs")
    p, q = p.coerce_to(field), q.coerce_to(field)
    from .sagbi import SagbiBasis, subduce
    # m = n = 1 leaves one basis element: p^1 − q^1 is a constant
    rem, steps = subduce(p ** n - q ** m,
                         SagbiBasis([p, q] if m != n else [p]))
    if rem.degree >= 1:
        raise SubalgError("p^n − q^m does not subduce to a constant over "
                          "{p, q}")
    sign = field.one if m % 2 else -field.one        # (−1)^(m+1)
    terms = {(n, 0): sign, (0, m): -sign, (0, 0): -sign * rem.coeff(0)}
    for _, c, rep in steps:
        terms[(rep.count(m), rep.count(n))] = -sign * c
    F = MPoly({e: Poly.constant(c, field) for e, c in terms.items()}, 2,
              field)
    for (i, j) in F.terms:
        # deg_x(p^i q^j) = i*m + j*n must not exceed nm
        if i * m + j * n > n * m:
            raise SubalgError("support bound violated in resultant relation")
    if (0, m) not in F.terms and (n, 0) not in F.terms:
        raise SubalgError("expected extreme term missing in F(p, q)")
    if F.substitute([p, q]):
        raise SubalgError("F(p(x), q(x)) != 0 — relation construction bug")
    return F
