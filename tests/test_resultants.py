import importlib.util
import os
import random
import subprocess
import sys
from collections import OrderedDict
from fractions import Fraction as F
from itertools import chain, takewhile
from math import isqrt
from operator import mul
from pathlib import Path

import pytest

from subalg import resultants, sagbi
from subalg.conditions import Subalgebra
from subalg.errors import (ConstantInput, DegreesNotCoprime,
                           FewerThanTwoGenerators, UnpairedRoot,
                           ZeroPolynomialInY)
from subalg.fields import QQ, NumberField, common_field, is_zero_scalar
from subalg.modular import (_reduced, _trim, coordinate_bound, crt,
                            evaluate_at, root_radius, split_primes,
                            tilde_images, word_primes)
from subalg.mpoly import MPoly
from subalg.parsing import parse_poly as P
from subalg.poly import Poly, poly_gcd
from subalg.resultants import (_max_x_degree, _principal_lattice,
                               _total_degree, char_poly_multi, char_poly_pair,
                               divided_difference, resultant_relation,
                               resultant_y, resultant_y_tables)
from subalg.spectrum import characteristic_polynomial


def _trim_list(a):
    n = len(a)
    while n and is_zero_scalar(a[n - 1]):
        n -= 1
    return a[:n]


def reference_scalar_resultant(A, B, field):
    """The exact Euclid that the modular images replaced: Res of two
    univariate polynomials given as ascending scalar lists, by
    Res(A,B) = (-1)^(dA dB) lc(B)^(dA-dR) Res(B, R),  R = A mod B."""
    A, B = _trim_list(list(A)), _trim_list(list(B))
    if not A or not B:
        return field.zero
    sign = 1
    acc = field.one
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        if dA < dB:
            A, B = B, A
            if dA % 2 and dB % 2:
                sign = -sign
            continue
        if dB == 0:
            val = acc * B[0] ** dA
            return val if sign > 0 else -val
        R = list(A)
        lead_inv = field.one / B[-1]
        for k in range(dA - dB, -1, -1):
            c = R[k + dB] * lead_inv
            if not is_zero_scalar(c):
                for i in range(dB + 1):
                    R[k + i] = R[k + i] - c * B[i]
        R = _trim_list(R[:dB])
        if not R:
            return field.zero
        dR = len(R) - 1
        acc = acc * B[-1] ** (dA - dR)
        if dA % 2 and dB % 2:
            sign = -sign
        A, B = B, R


def _newton_interpolate(points, values, field):
    """Poly through the (point, scalar value) pairs, by Newton's method
    over the field (the exact interpolation the modular engine replaced)."""
    n = len(points)
    coefs = list(values)  # divided differences, computed in place
    pts = [field.coerce(F(p)) for p in points]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            inv = field.one / (pts[i] - pts[i - j])
            coefs[i] = (coefs[i] - coefs[i - 1]) * inv
    x = Poly.x(field)
    result = Poly.constant(coefs[n - 1], field)
    for i in range(n - 2, -1, -1):
        result = result * (x - pts[i]) + coefs[i]
    return result


def reference_resultant_y_tables(f_table, g_table):
    """The `resultant_y_tables` that the modular images replaced: exact
    evaluation, Euclid and Newton interpolation over the field."""
    f_table, g_table = list(f_table), list(g_table)
    while f_table and f_table[-1].is_zero():
        f_table.pop()
    while g_table and g_table[-1].is_zero():
        g_table.pop()
    field = QQ
    for c in f_table + g_table:
        field = common_field(field, c.field)
    f_table = [c.coerce_to(field) for c in f_table]
    g_table = [c.coerce_to(field) for c in g_table]
    mf, mg = len(f_table) - 1, len(g_table) - 1
    if mf == 0:
        return (f_table[0] ** mg).coerce_to(field)
    if mg == 0:
        return g_table[0] ** mf
    naive = mg * _max_x_degree(f_table) + mf * _max_x_degree(g_table)
    df, dg = _total_degree(f_table), _total_degree(g_table)
    bound = max(0, min(naive, df * mg + dg * mf - mf * mg))
    points, values = [], []
    x0 = 0
    while len(points) < bound + 1:
        pt = F(x0)
        x0 = -x0 if x0 > 0 else -x0 + 1
        A = [c(pt) for c in f_table]
        B = [c(pt) for c in g_table]
        if is_zero_scalar(A[-1]) or is_zero_scalar(B[-1]):
            continue
        points.append(pt)
        values.append(reference_scalar_resultant(A, B, field))
    return _newton_interpolate(points, values, field)


def reference_unreduced_resultant(f_table, g_table):
    """The `resultant_y_tables` that reduction modulo a monic f replaced:
    the modular engine on the tables as given, with their own degree
    bound."""
    f_table, g_table = list(f_table), list(g_table)
    while f_table and f_table[-1].is_zero():
        f_table.pop()
    while g_table and g_table[-1].is_zero():
        g_table.pop()
    if not f_table or not g_table:
        raise ZeroPolynomialInY("resultant of the zero polynomial in y")
    field = QQ
    for c in f_table + g_table:
        field = common_field(field, c.field)
    f_table = [c.coerce_to(field) for c in f_table]
    g_table = [c.coerce_to(field) for c in g_table]
    mf, mg = len(f_table) - 1, len(g_table) - 1
    if mf == 0:
        return (f_table[0] ** mg).coerce_to(field)
    if mg == 0:
        return g_table[0] ** mf
    return resultants._resultant(f_table, g_table, field,
                                 resultants._degree_bound(f_table, g_table))


# The point-by-point modular kernel that the lockstep lanes replaced, kept
# as the reference: its resultant, image, scalar Euclid and Newton
# interpolation, renamed, bodies as they were.


def reference_modular_resultant(f_table, g_table, field, bound):
    """`resultants._resultant` on the points 0, 1, −1, 2, … with one
    scalar Euclid per (θ, point) and Newton on all points at once."""
    mf, mg = len(f_table) - 1, len(g_table) - 1
    count = bound + 1
    mt, mu = field.tilde_modulus, field.mu
    F, df = resultants._cleared(f_table, field)
    G, dg = resultants._cleared(g_table, field)
    powers = max(_max_x_degree(f_table), _max_x_degree(g_table)) + 1
    points, at_f, at_g = [], [], []
    x0 = 0
    while len(points) < count:
        xs = [x0 ** i for i in range(powers)]
        # af[k][u] is coordinate u of F_k(x0)
        af = [[sum(map(mul, cu, xs)) for cu in c] for c in F]
        ag = [[sum(map(mul, cu, xs)) for cu in c] for c in G]
        if any(af[-1]) and any(ag[-1]):
            points.append(x0)
            at_f += af
            at_g += ag
        x0 = -x0 if x0 > 0 else -x0 + 1  # 0, 1, -1, 2, -2, ...
    R = root_radius(mt)
    B = isqrt(resultants._norm2(F, R) ** mg
              * resultants._norm2(G, R) ** mf) + 1
    H = coordinate_bound(mt, B)
    residues, modulus, checked = None, 1, set()
    for p, thetas in split_primes(mt, df * dg * mu, word_primes()):
        image = reference_image(at_f, at_g, mf, mg, points, thetas, p)
        if isinstance(image, int):
            if image not in checked:
                checked.add(image)
                resultants._exact_euclid(f_table, g_table, points[image],
                                         field)
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


def reference_image(at_f, at_g, mf, mg, points, thetas, p):
    span = max(points) - min(points)
    inverse = {d: pow(d, -1, p) for d in range(-span, span + 1) if d}
    values, shapes = [], [None] * len(points)
    for theta in thetas:
        fs, gs = evaluate_at(at_f, theta, p), evaluate_at(at_g, theta, p)
        vals = []
        for i, shape in enumerate(shapes):
            r = reference_euclid(fs[i * (mf + 1):(i + 1) * (mf + 1)],
                                 gs[i * (mg + 1):(i + 1) * (mg + 1)], p)
            if r is None or shape is not None and r[1] != shape:
                return i
            vals.append(r[0])
            shapes[i] = r[1]
        values.append(reference_interpolate(points, vals, inverse, p))
    return tilde_images(values, thetas, p)


def reference_euclid(A, B, p):
    """(Res_y(A, B) in F_p, the divisors' degrees ≥ 1 as a bit mask) for
    ascending int lists of formal degrees, or None when a divisor of
    degree ≥ 1 has a zero leading coefficient; each divisor made monic."""
    acc, odd, degrees = 1, 0, 0
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        if dA < dB:
            A, B, dA, dB = B, A, dB, dA
            odd ^= dA & dB & 1
        lead = B[-1]
        acc = acc * pow(lead, dA, p) % p
        if dB == 0:
            return -acc % p if odd else acc, degrees
        if not lead:
            return None
        degrees |= 1 << dB
        inv = pow(lead, -1, p)
        B = [b * inv % p for b in B]
        R = _trim(_reduced(A, B, p))
        if not R:
            return 0, degrees
        odd ^= dA & dB & 1
        A, B = B, R


def reference_interpolate(points, values, inverse, p):
    """Newton on all the points (`inverse` maps each point difference to
    its inverse mod p)."""
    n = len(points)
    coefs = list(values)
    for j in range(1, n):
        coefs[j:] = [(coefs[i] - coefs[i - 1])
                     * inverse[points[i] - points[i - j]] % p
                     for i in range(j, n)]
    out = [coefs[-1]]
    for i in range(n - 2, -1, -1):
        x = points[i]
        out = [(a - x * b) % p for a, b in zip([coefs[i]] + out, out + [0])]
    return out


def test_divided_difference_identity():
    # (x - y)*P = p(x) - p(y), coefficient by coefficient in y: the y^k
    # coefficient is x*c_k - c_(k-1) on the left and
    # (p(x) if k == 0 else 0) - a_k on the right
    rng = random.Random(20261019)
    for field in (QQ, NumberField([1, 0, 1], label="t^2+1"),
                  NumberField([F(-1, 2), 0, 1], label="t^2-1/2")):
        t = F(0) if field is QQ else field.gen()
        polys = [P(src, field=field)
                 for src in ("x^3 - x", "x^5 + 2*x^2 - 1", "x^2")]
        polys += [Poly([F(rng.randint(-3, 3), rng.randint(1, 3))
                        + rng.randint(-2, 2) * t for _ in range(d)]
                       + [field.one], field)
                  for d in range(1, 10) for _ in range(2)]
        x, zero = Poly.x(field), Poly.zero(field)
        for p in polys:
            table = divided_difference(p).table
            assert len(table) == p.degree
            for k in range(p.degree + 1):
                ck = table[k] if k < p.degree else zero
                ckm1 = table[k - 1] if k >= 1 else zero
                assert x * ck - ckm1 == (p if k == 0 else zero) - p.coeff(k)


def test_divided_difference_rejects_constants():
    with pytest.raises(ConstantInput):
        divided_difference(P("5"))


def test_resultant_y_example():
    P1 = divided_difference(P("x^3 - x"))
    Q1 = divided_difference(P("x^2"))
    assert resultant_y(P1, Q1) == P("x^2 - 1")


def test_char_poly_pair_goldens():
    assert char_poly_pair(P("x^3 - x"), P("x^2")) == P("x^2 - 1")
    assert char_poly_pair(P("x^4 - x^2"), P("x^3")) == \
        P("x^2 * (x^4 - x^2 + 1)")


def test_char_poly_monomials():
    for m, n in ((2, 3), (2, 5), (3, 4), (4, 5), (5, 6)):
        assert char_poly_pair(P(f"x^{m}"), P(f"x^{n}")) == \
            P(f"x^{(m - 1) * (n - 1)}")


def test_char_poly_pair_is_symmetric_in_scaling():
    chi1 = char_poly_pair(P("2*x^3 - 2*x"), P("3*x^2"))
    chi2 = char_poly_pair(P("x^3 - x"), P("x^2"))
    assert chi1 == chi2


def test_char_poly_multi_needs_two_generators():
    with pytest.raises(FewerThanTwoGenerators):
        char_poly_multi([P("x^2")])


def test_char_poly_multi_pair_agreement():
    chi2 = char_poly_pair(P("x^3 - x"), P("x^2"))
    chim = char_poly_multi([P("x^3 - x"), P("x^2")])
    assert chim == chi2


def test_char_poly_multi_symmetrize_divides():
    gens = [P("x^12 + 3*x^6"), P("x^15"), P("x^10")]
    plain = char_poly_multi(gens)
    sym = char_poly_multi(gens, symmetrize=True)
    _, rem = divmod(plain, sym)
    assert rem.is_zero()


def test_char_poly_multi_needs_the_top_lattice_layer():
    # h = 2: the samples at w = 0 and w = 1 share the factor x, and only
    # the top layer |w| = 2 removes it
    p1, p2, p3 = P("x^3 - 3*x^2 + 2*x"), P("x^2 - x"), P("x^2 - 3*x")
    below = poly_gcd(char_poly_pair(p1, p2), char_poly_pair(p1, p2 + p3))
    assert below == P("x")
    assert char_poly_multi([p1, p2, p3]) == P("1")


def _random_table(rng, field, y_degree, x_degree, vanishing=False):
    """A y-table of Polys in x with rational, non-monic coordinates; with
    `vanishing`, the leading coefficient is zero at the sample points 0
    and 1."""
    def scalar():
        coords = [F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5, 12)))
                  for _ in range(field.degree)]
        return field.from_coeffs(coords)

    def poly(d):
        return Poly([scalar() for _ in range(d + 1)], field)

    table = [poly(rng.randint(-1, x_degree)) for _ in range(y_degree)]
    lead = poly(rng.randint(0, 2))
    while not lead:
        lead = poly(rng.randint(0, 2))
    if vanishing:
        lead = lead * P("x^2 - x").coerce_to(field)
    return table + [lead]


def _with_common_factor(rng, field, f, g):
    """f and g times the same y − h(x): their resultant is zero."""
    h = _random_table(rng, field, 0, 2)[0]
    y_minus_h = [-h, Poly.constant(field.one, field)]

    def times(table):
        out = [Poly.zero(field)] * (len(table) + 1)
        for k, c in enumerate(table):
            for j, d in enumerate(y_minus_h):
                out[k + j] = out[k + j] + c * d
        return out
    return times(f), times(g)


FIELDS = {"Q": QQ,
          "sqrt2": NumberField([-2, 0, 1], label="t^2-2"),
          "i": NumberField([1, 0, 1], label="t^2+1"),
          "cbrt2": NumberField([-2, 0, 0, 1], label="t^3-2"),
          # Galois group S₄: about one prime in 24 splits t⁴ − t − 1
          "S4": NumberField([-1, -1, 0, 0, 1], label="t^4-t-1")}


@pytest.mark.parametrize("name", list(FIELDS))
def test_resultant_y_tables_matches_the_fraction_path(name):
    field = FIELDS[name]
    rng = random.Random(name)
    zeros = 0
    for trial in range(24 if field is QQ else 10):
        f = _random_table(rng, field, rng.randint(1, 4), 3,
                          vanishing=trial % 3 == 0)
        g = _random_table(rng, field, rng.randint(1, 4), 3,
                          vanishing=trial % 4 == 1)
        if trial % 5 == 2:
            f, g = _with_common_factor(rng, field, f, g)
        new, old = resultant_y_tables(f, g), reference_resultant_y_tables(f, g)
        assert new == old and repr(new) == repr(old), (f, g)
        zeros += not new
    assert zeros >= 2


def test_resultant_y_tables_matches_sympy():
    # the determinant of sympy's Sylvester matrix, whose sign convention is
    # this module's; `sympy.resultant` differs in sign for some degrees
    sympy = pytest.importorskip("sympy")
    sylvester = pytest.importorskip(
        "sympy.polys.subresultants_qq_zz").sylvester
    DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
    x, y = sympy.symbols("x y")
    ring = sympy.QQ[x]
    rng = random.Random(11)

    def to_sympy(table):
        return sum(sympy.Rational(a.numerator, a.denominator)
                   * x ** i * y ** k
                   for k, c in enumerate(table) for i, a in enumerate(c.coeffs))

    for _ in range(12):
        f = _random_table(rng, QQ, rng.randint(1, 4), 3)
        g = _random_table(rng, QQ, rng.randint(1, 4), 3)
        matrix = sylvester(to_sympy(f), to_sympy(g), y, 1)
        det = DomainMatrix.from_Matrix(matrix).convert_to(ring).det()
        expected = sympy.Poly(ring.to_sympy(det), x).all_coeffs()[::-1]
        assert resultant_y_tables(f, g) == \
            Poly([F(int(a.p), int(a.q)) for a in expected]), (f, g)


def _counted_primes(first=()):
    """`word_primes`, preceded by `first`, recording what it yields."""
    seen = []

    def primes():
        for p in chain(first, word_primes()):
            seen.append(p)
            yield p
    return primes, seen


def test_large_coefficients_take_several_primes(monkeypatch):
    primes, seen = _counted_primes()
    monkeypatch.setattr(resultants, "word_primes", primes)
    rng = random.Random(300)
    big = 2 ** 300
    f = [Poly([F(rng.randint(-big, big), rng.randint(1, 9)) for _ in range(3)])
         for _ in range(4)]
    g = [Poly([F(rng.randint(-big, big)) for _ in range(2)]) for _ in range(3)]
    new = resultant_y_tables(f, g)
    assert len(seen) > 10
    assert new == reference_resultant_y_tables(f, g)


def test_an_unlucky_prime_is_discarded(monkeypatch):
    # over Q: 1000003 divides the leading coefficient of the divisor g at
    # every point
    bad = 1000003
    primes, seen = _counted_primes([bad])
    monkeypatch.setattr(resultants, "word_primes", primes)
    exact_runs = []     # the points of the exact runs that discards cause
    real = resultants._exact_euclid
    monkeypatch.setattr(resultants, "_exact_euclid",
                        lambda *args: exact_runs.append(args[2]) or
                        real(*args))
    f = [P("x^2 + 3"), P("5*x - 1"), P("x^3 + 2")]
    g = [P("x - 7"), Poly([F(bad), F(bad)])]
    assert resultant_y_tables(f, g) == reference_resultant_y_tables(f, g)
    assert seen == [bad, (1 << 61) - 1] and exact_runs == [0]
    # over Q(i): 4² ≡ −1 (mod 17), so t − 4 is a zero divisor modulo 17
    # (zero at the root 4 of t² + 1); the word primes ≡ 3 (mod 4) that
    # follow do not split t² + 1, so the first one ≡ 1 (mod 4) is used
    qi = NumberField([1, 0, 1], label="t^2+1")
    primes, seen = _counted_primes([17])
    monkeypatch.setattr(resultants, "word_primes", primes)
    exact_runs.clear()
    f = [P("x + t", field=qi), P("x^2 - 3", field=qi), P("2*x + 1", field=qi)]
    g = [P("x^2 + 5*t", field=qi), P("t - 4", field=qi)]
    assert resultant_y_tables(f, g) == reference_resultant_y_tables(f, g)
    assert exact_runs == [0]
    # (disc m̃ = 4 is one more resultant, taken modulo the first primes)
    skipped = list(takewhile(lambda p: p % 4 == 3, word_primes()))
    first_split = next(p for p in word_primes() if p % 4 == 1)
    last_17 = len(seen) - 1 - seen[::-1].index(17)
    assert seen[last_17:] == [17] + skipped + [first_split]


def test_a_zero_divisor_leading_coefficient_is_an_error():
    # over Q[t]/(t^2 - 1), 1 + t is a zero divisor and the leading
    # y-coefficient of g at every point, so every prime is discarded; and
    # y^3 mod (y^2 - 1 - t) = (1 + t)*y is a remainder with that leading
    # coefficient, zero at the root -1 of t^2 - 1 and not at 1, so Euclid
    # meets divisors of different degrees there; run in a child process
    # so that a loop that never ends fails the test
    src = Path(resultants.__file__).resolve().parents[1]
    code = (
        "from subalg.errors import NonInvertible\n"
        "from subalg.fields import NumberField\n"
        "from subalg.parsing import parse_poly as P\n"
        "from subalg.resultants import resultant_y_tables\n"
        "K = NumberField([-1, 0, 1], label='t^2-1')\n"
        "for f, g in ((['1', 'x'], ['x', '1 + t']),\n"
        "             (['0', '0', '0', '1'], ['-1 - t', '0', '1'])):\n"
        "    try:\n"
        "        resultant_y_tables([P(c, field=K) for c in f],\n"
        "                           [P(c, field=K) for c in g])\n"
        "    except NonInvertible:\n"
        "        print('NonInvertible')\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.split() == ["NonInvertible"] * 2, done.stderr


def _lanes(rng, p, dA, dB, n):
    """n lanes of y-polynomials mod p of formal degrees dA and dB, as
    ascending int lists: generic ones, zero leads of the divisor and of
    the dividend, and, for dA ≥ dB, dividends Q·B + R whose remainder R
    drops two or more degrees below dB or is zero."""
    def poly(d):
        return [rng.randrange(p) for _ in range(d + 1)]

    lanes = []
    for i in range(n):
        A, B = poly(dA), poly(dB)
        kind = i % 5
        if kind == 1:
            B[-1] = 0
        elif kind == 2:
            A[-1] = 0
        elif kind in (3, 4) and dA >= dB >= 1:
            B[-1] = B[-1] or 1
            R = poly(dB - 3) if kind == 3 and dB >= 3 else []
            A = R + [0] * (dA + 1 - len(R))
            for i, q in enumerate(poly(dA - dB)):
                for j, b in enumerate(B):
                    A[i + j] = (A[i + j] + q * b) % p
        lanes.append((A, B))
    return lanes


def test_the_lane_euclid_is_the_scalar_euclid_lane_by_lane():
    # every lane gives the reference's value and degree mask, or None
    # with it; the small primes make zero leads and degree drops common
    # at every step, not only where the lanes were built to have them
    rng = random.Random(20261021)
    kinds = set()
    for p in (5, 7, 13, (1 << 61) - 1):
        for dA in range(0, 7):
            for dB in range(0, 7):
                lanes = _lanes(rng, p, dA, dB, 40)
                A = [list(col) for col in zip(*(a for a, _ in lanes))]
                B = [list(col) for col in zip(*(b for _, b in lanes))]
                out = resultants._lane_euclid(A, B, p)
                expected = [reference_euclid(a, b, p) for a, b in lanes]
                assert out == expected, (p, dA, dB)
                kinds.update("None" if r is None else
                             "zero" if r[0] == 0 else "value"
                             for r in expected)
    assert kinds == {"None", "zero", "value"}


def test_the_resultant_matches_the_point_by_point_reference(monkeypatch):
    # every `_resultant` call of the benchmark's charpoly items 0-399 at
    # its default seed and at seed 7, and of random tables over every
    # field of FIELDS, equals the reference, repr and all
    calls = []
    resultant = resultants._resultant

    def recorded(*args):
        calls.append((args, resultant(*args)))
        return calls[-1][1]

    monkeypatch.setattr(resultants, "_resultant", recorded)
    monkeypatch.setattr(resultants, "_lattice_memo", OrderedDict())
    bench = _bench_workloads()
    for seed in (BENCH_SEED, 7):
        stream = bench.CharpolyStream(seed)
        for k in range(400):
            resultants._lattice_memo.clear()
            try:
                bench.run_charpoly(stream(k))
            except UnpairedRoot:    # item 36 at seed 7, see test_spectrum
                pass
    charpoly = len(calls)
    rng = random.Random(20261021)
    for field in FIELDS.values():
        for trial in range(8):
            resultant_y_tables(
                _random_table(rng, field, rng.randint(1, 4), 3,
                              vanishing=trial % 3 == 0),
                _random_table(rng, field, rng.randint(1, 4), 3))
    assert charpoly > 700 and len(calls) > charpoly + 30
    for args, new in calls:
        old = reference_modular_resultant(*args)
        assert new == old and repr(new) == repr(old), args


@pytest.mark.parametrize("zero", [0, 1])
@pytest.mark.parametrize("D", [0, 1, 2, 7, 12, 13])
def test_the_pair_interpolant_is_newton_on_the_same_points(D, zero):
    # Res_y(y, y + c(x)) = c(x), so `_image` interpolates c through the
    # values at the points 0 (with `zero`), a_1, −a_1, …; the reference
    # Newton on those points gives c, padded with zeros when one point
    # more than D + 1 is taken
    rng = random.Random(D * 2 + zero)
    p = (1 << 61) - 1
    k = (D + 1 - zero + 1) // 2
    roots = sorted(rng.sample(range(1, 3 * k + 2), k))
    points = [0] * zero + [x for a in roots for x in (a, -a)]
    c = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(D + 1)]
    one = resultants._pair_values([1], zero, roots)
    at_f = [[resultants._pair_values([], zero, roots)], [one]]
    at_g = [[resultants._pair_values(c, zero, roots)], [one]]
    image = resultants._image(at_f, at_g, zero, roots, D + 1, (0,), p)
    span = max(points) - min(points)
    inverse = {d: pow(d, -1, p) for d in range(-span, span + 1) if d}
    values = [sum(a * x ** i for i, a in enumerate(c)) % p for x in points]
    newton = reference_interpolate(points, values, inverse, p)
    assert image == newton[:D + 1] == [a % p for a in c]
    assert not any(newton[D + 1:])
    assert len(points) == D + 1 + (len(points) > D + 1)


def test_resultant_relation_properties():
    p, q = P("x^3 - x"), P("x^2")
    Frel = resultant_relation(p, q)
    assert not Frel.substitute([p, q])
    with pytest.raises(DegreesNotCoprime):
        resultant_relation(P("x^2"), P("x^4"))


def reference_substitute(F_rel, values):
    """`MPoly.substitute` with a fresh power per term (the retired loop)."""
    field = F_rel.field
    for v in values:
        field = common_field(field, v.field)
    out = Poly.zero(field)
    for e, p in F_rel.terms.items():
        term = p.coerce_to(field)
        for idx, power in enumerate(e):
            if power:
                term = term * values[idx] ** power
        out = out + term
    return out


def test_substitute_matches_fresh_powers():
    rng = random.Random(20261024)
    for m, n in ((2, 3), (3, 4), (2, 5), (4, 5), (3, 5), (5, 6)):
        p, q = (Poly([F(rng.randint(-3, 3)) for _ in range(d)] + [F(1)])
                for d in (m, n))
        Frel = resultant_relation(p, q)
        assert not Frel.substitute([p, q])
        for values in ([p + 1, q * F(-2, 3)], [P("x/2 - 1"), P("x^2 + 3")]):
            assert Frel.substitute(values) == \
                reference_substitute(Frel, values)
            dP = Frel.partial(0)
            assert dP.substitute(values) == reference_substitute(dP, values)


def test_partial_derivative_signs():
    p, q = P("x^3 - x"), P("x^2")
    Frel = resultant_relation(p, q)
    chi = char_poly_pair(p, q)
    dP = Frel.partial(0).substitute([p, q])
    dQ = Frel.partial(1).substitute([p, q])
    if dP == chi * q.derivative():
        assert dQ == -(chi * p.derivative())
    else:
        assert dP == -(chi * q.derivative())
        assert dQ == chi * p.derivative()


def _reference_newton_coeff_list(points, values, field):
    """Newton interpolation with Poly-valued samples, as a dense list of
    Poly coefficients in the interpolation variable."""
    n = len(points)
    pts = [field.coerce(F(p)) for p in points]
    coefs = list(values)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            inv = field.one / (pts[i] - pts[i - j])
            coefs[i] = (coefs[i] - coefs[i - 1]) * inv
    out = [coefs[n - 1]]
    for i in range(n - 2, -1, -1):
        shifted = [Poly.zero(field)] + out
        for k, c in enumerate(out):
            shifted[k] = shifted[k] + c * (-pts[i])
        shifted[0] = shifted[0] + coefs[i]
        out = shifted
    while out and out[-1].is_zero():
        out.pop()
    return out


def reference_char_poly_multi(gens, symmetrize=False):
    """The char_poly_multi that the gcd of samples replaced: interpolate
    the parametric resultant in every z variable, then take the gcd of its
    z-coefficients d_a."""
    if symmetrize:
        result = None
        for i in range(len(gens)):
            rotated = [gens[i]] + gens[:i] + gens[i + 1:]
            chi = reference_char_poly_multi(rotated)
            if result is None:
                result = chi
            elif chi:
                result = poly_gcd(result, chi) if result else chi
        return result
    ps = [g.monic() for g in gens]
    field = ps[0].field
    for p in ps:
        field = common_field(field, p.field)
    ps = [p.coerce_to(field) for p in ps]
    tables = [divided_difference(p).table for p in ps]
    h = ps[0].degree - 1
    rest = tables[1:]
    dq = max(len(t) - 1 for t in rest)

    def sample(weights_tail):
        weights = [F(1)] + [F(w) for w in weights_tail]
        table = [Poly.zero(field) for _ in range(dq + 1)]
        for w, t in zip(weights, rest):
            for k, c in enumerate(t):
                table[k] = table[k] + w * c
        return reference_resultant_y_tables(tables[0], table)

    def interpolate(prefix, remaining):
        if remaining == 0:
            return {(): sample(prefix)}
        pts = list(range(1, h + 2))
        sub = [interpolate(prefix + [w], remaining - 1) for w in pts]
        keys = set().union(*(s.keys() for s in sub))
        out = {}
        for key in keys:
            series = [s.get(key, Poly.zero(field)) for s in sub]
            for e, poly in enumerate(
                    _reference_newton_coeff_list(pts, series, field)):
                if poly:
                    out[(e,) + key] = poly
        return out

    d_polys = {}
    for tail, poly in interpolate([], len(rest) - 1).items():
        assert sum(tail) <= h
        d_polys[(h - sum(tail),) + tail] = poly
    nonzero = [d for d in d_polys.values() if d]
    if not nonzero:
        return Poly.zero(field)
    chi = nonzero[0]
    for d in nonzero[1:]:
        chi = poly_gcd(chi, d)
    return chi.monic()


def _multi_triples(seed, count):
    """Generators x^(2k) + c x^k, x^a, x^b of the benchmark's triples."""
    shapes = ((2, 5, 7), (3, 5, 7), (2, 7, 9), (3, 7, 5), (2, 10, 15),
              (3, 7, 9), (2, 9, 7), (3, 10, 15))
    rng = random.Random(seed)
    for k, a, b in shapes[:count]:
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        yield [Poly.monomial(2 * k) + c * Poly.monomial(k),
               Poly.monomial(a), Poly.monomial(b)]


def test_char_poly_multi_matches_the_z_interpolation():
    qi = NumberField([1, 0, 1], label="t^2+1")
    triples = list(_multi_triples(20261018, 8))
    # the criterion-2 set with x^10 distinguished, its cheapest rotation;
    # four generators sample a two-dimensional grid
    plain = triples + [
        [P("x^10"), P("x^12 + 3*x^6"), P("x^15")],
        [P("x^4 + t*x^2", field=qi), P("x^6", field=qi), P("x^9", field=qi)],
        [P("x^4 - x^2"), P("x^6 + x^3"), P("x^7"), P("x^9")],
        # the lattice {|w| <= 3} differs from the grid {1..4}^2
        [P("x^4 + x^2"), P("x^5"), P("x^6"), P("x^7")],
        # x^4 + x^2 and x^6 are both even: the w = 0 sample is zero
        [P("x^4 + x^2"), P("x^6"), P("x^7")]]
    assert char_poly_multi(plain[-2]).degree == 4
    assert not char_poly_pair(plain[-1][0], plain[-1][1])
    for gens in plain:
        assert char_poly_multi(gens) == reference_char_poly_multi(gens), gens
    for gens in [triples[0], [P("x^3 - x"), P("x^2")],
                 [P("x^4 + t*x^2", field=qi), P("x^5 + t*x^3", field=qi),
                  P("x^7", field=qi)]]:
        assert char_poly_multi(gens, symmetrize=True) == \
            reference_char_poly_multi(gens, symmetrize=True), gens


def _recorded_lattices(monkeypatch):
    """The `_lattice_gcd` calls that `char_poly_multi` and
    `char_poly_pair` make, as (stop degree, samples): every sample is one
    `resultant_y_tables` call, recorded only inside those calls, so a
    conductor's own resultant is not counted."""
    calls, inside = [], []
    lattice_gcd = resultants._lattice_gcd
    resultant = resultants.resultant_y_tables

    def lattice(gens, least_degree):
        inside.append([])
        try:
            return lattice_gcd(gens, least_degree)
        finally:
            calls.append((least_degree, inside.pop()))

    def recorded(f_table, g_table):
        sample = resultant(f_table, g_table)
        if inside:
            inside[-1].append(sample)
        return sample

    monkeypatch.setattr(resultants, "_lattice_gcd", lattice)
    monkeypatch.setattr(resultants, "resultant_y_tables", recorded)
    return calls


def test_char_poly_multi_stops_at_the_conductor(monkeypatch):
    # on the benchmark's triples: where chi = c the sampler stops at the
    # first sample that brings the gcd to c, elsewhere it takes all h + 1
    calls = _recorded_lattices(monkeypatch)
    stopped = []
    for gens in _multi_triples(20261018, 8):
        c = Subalgebra.from_generators(gens).conductor()
        calls.clear()
        chi = char_poly_multi(gens)
        assert chi == reference_char_poly_multi(gens), gens
        [(least_degree, samples)] = calls
        assert least_degree == c.degree, gens
        if chi == c:
            running, reached = Poly.zero(c.field), []
            for s in samples:
                running = poly_gcd(running, s) if s else running
                reached.append(running == c)
            assert reached.index(True) == len(samples) - 1, gens
            stopped.append(len(samples) < gens[0].degree)
        else:
            assert len(samples) == gens[0].degree, gens
    assert len(stopped) == 6 and all(stopped)


def test_char_poly_multi_takes_the_conductor_only_to_stop(monkeypatch):
    # two generators and a degree gcd > 1 keep the stop degree 0 and take
    # no conductor; a SAGBI basis of two elements stops at 2·codimension
    # and takes none either; symmetrize over a larger basis takes one
    # conductor for every rotation
    calls = _recorded_lattices(monkeypatch)
    conductors = []
    conductor = Subalgebra.conductor

    def counted(self):
        conductors.append(self)
        return conductor(self)

    monkeypatch.setattr(Subalgebra, "conductor", counted)
    pair = [P("x^3 - x"), P("x^2")]
    assert char_poly_multi(pair) == char_poly_pair(*pair)
    even = [P("x^4 + x"), P("x^6"), P("x^10")]
    assert char_poly_multi(even) == reference_char_poly_multi(even)
    assert [least for least, _ in calls] == [0, 0, 0]
    triples = list(_multi_triples(20261018, 2))
    for gens, size in zip(triples, (2, 3)):
        assert len(Subalgebra.from_generators(gens).sagbi_basis()
                   .elements) == size, gens
    calls.clear()
    two = triples[0]
    assert char_poly_multi(two, symmetrize=True) == \
        reference_char_poly_multi(two, symmetrize=True)
    assert not conductors
    c = conductor(Subalgebra.from_generators(two))
    assert c.degree == 2 * Subalgebra.from_generators(two).codimension()
    assert [least for least, _ in calls] == [c.degree] * 3
    calls.clear()
    three = triples[1]
    assert char_poly_multi(three, symmetrize=True) == \
        reference_char_poly_multi(three, symmetrize=True)
    c = conductor(Subalgebra.from_generators(three))
    assert len(conductors) == 1
    assert [least for least, _ in calls] == [c.degree] * 3


def reference_resultant_relation(p, q):
    """The relation that `resultant_y_tables` replaced: scalar resultants
    on an (n+1)×(m+1) grid of (P, Q), interpolated in Q, then in P."""
    m, n = p.degree, q.degree
    field = common_field(p.field, q.field)
    a_pts = [F(i) for i in range(n + 1)]
    b_pts = [F(j) for j in range(m + 1)]
    grid = [[reference_scalar_resultant(
        [p.coeff(0) - field.coerce(a)] + list(p.coeffs[1:]),
        [q.coeff(0) - field.coerce(b)] + list(q.coeffs[1:]), field)
        for b in b_pts] for a in a_pts]
    polys_in_b = [_newton_interpolate(b_pts, row, field) for row in grid]
    terms = {}
    for j in range(m + 1):
        pa = _newton_interpolate(a_pts, [pb.coeff(j) for pb in polys_in_b],
                                 field)
        for i in range(pa.degree + 1):
            if not is_zero_scalar(pa.coeff(i)):
                terms[(i, j)] = Poly.constant(pa.coeff(i), field)
    return MPoly(terms, 2, field)


WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
BENCH_SEED = 20261017  # bench/run.py DEFAULT_SEED


def _bench_workloads():
    """The benchmark's workloads module, loaded from bench/workloads.py."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def _charpoly_items(kind, count):
    """The first `count` items of one kind from the benchmark's charpoly
    stream at its default seed, as pairs of Polys over Q."""
    stream = _bench_workloads().CharpolyStream(BENCH_SEED)
    k, out = 0, []
    while len(out) < count:
        item = stream(k)
        if item.kind == kind:
            out.append(tuple(Poly([F(c) for c in coeffs])
                             for coeffs in item.polys))
        k += 1
    return out


def test_resultant_relation_takes_no_resultant(monkeypatch):
    # the relation is the lift of p^n - q^m by one subduction
    calls, subductions = [], []
    subduce = sagbi.subduce

    def counted(f_table, g_table):
        calls.append(None)
        return resultant_y_tables(f_table, g_table)

    def counted_subduce(f, basis):
        subductions.append(None)
        return subduce(f, basis)

    monkeypatch.setattr(resultants, "resultant_y_tables", counted)
    monkeypatch.setattr(sagbi, "subduce", counted_subduce)
    for p, q in ((P("x^3 - x"), P("x^2")), (P("x^5 + x - 1"), P("x^6 + 2")),
                 (P("x + 3"), P("x - 1")), (P("x + 3"), P("x^4 + x"))):
        subductions.clear()
        F_rel = resultant_relation(p, q)
        assert F_rel == reference_resultant_relation(p, q), (p, q)
        assert not calls and len(subductions) == 1, (p, q)


def test_resultant_relation_matches_the_scalar_grid():
    qi = NumberField([1, 0, 1], label="t^2+1")
    rng = random.Random(20261018)
    pairs = [tuple(Poly([F(rng.randint(-3, 3)) for _ in range(d)] + [F(1)])
                   for d in (m, n))
             for m, n in ((2, 3), (3, 4), (2, 5), (4, 5), (3, 5), (5, 6))]
    pairs += _charpoly_items("relation", 6)
    for m, n in ((2, 3), (3, 4), (3, 5), (4, 5)):
        # non-integral coefficients
        pairs.append(tuple(
            Poly([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
                 + [F(1)]) for d in (m, n)))
    t = qi.gen()
    for m, n in ((2, 3), (3, 4)):
        # over Q(i), with non-rational coefficients
        pairs.append(tuple(
            Poly([rng.randint(-2, 2) + rng.randint(-2, 2) * t
                  for _ in range(d)] + [1], qi) for d in (m, n)))
    assert any(p.field is qi for p, _ in pairs)
    for p, q in pairs:
        new, old = resultant_relation(p, q), reference_resultant_relation(p, q)
        assert new.terms == old.terms and repr(new) == repr(old), (p, q)
        assert {(q.degree, 0), (0, p.degree)} <= set(new.terms), (p, q)


def reference_char_poly_pair(p, q):
    """The char_poly_pair body that the lattice routine replaced."""
    chi = resultant_y_tables(divided_difference(p.monic()).table,
                             divided_difference(q.monic()).table)
    return chi.monic() if chi else chi


def _edge_pairs(qi):
    """Pairs beside the benchmark's: a zero χ, non-monic inputs and two
    over qi = Q(i)."""
    return [(P("x^2"), P("x^4")),
            (P("x^2 + x"), P("(x^2 + x)^2")),
            (P("2*x^3 - x"), P("x^2/3")),
            (P("x^3 + t*x", field=qi), P("x^2 - t", field=qi)),
            (P("x^4 + t*x^2", field=qi), P("x^5 + x", field=qi))]


def test_char_poly_pair_is_the_two_generator_lattice():
    qi = NumberField([1, 0, 1], label="t^2+1")
    pairs = _charpoly_items("pair", 100) + _edge_pairs(qi)
    for p, q in pairs:
        new, old = char_poly_pair(p, q), reference_char_poly_pair(p, q)
        assert new == old and new.field == old.field, (p, q)
        assert str(new) == str(old) and repr(new) == repr(old), (p, q)
    assert not char_poly_pair(P("x^2"), P("x^4"))
    assert char_poly_pair(*pairs[-1]).field == qi


def _counted_points(monkeypatch):
    """The interpolation points of every `_resultant` call, in turn."""
    points = []
    resultant = resultants._resultant

    def counted(f_table, g_table, field, bound):
        points.append(bound + 1)
        return resultant(f_table, g_table, field, bound)

    monkeypatch.setattr(resultants, "_resultant", counted)
    return points


def _tables(gens):
    """The divided differences of the monic generators over one field, as
    `_lattice_gcd` takes them."""
    ps = [g.monic() for g in gens]
    field = QQ
    for p in ps:
        field = common_field(field, p.field)
    return [list(divided_difference(p.coerce_to(field)).table) for p in ps]


def _combination(tables, weights):
    field = tables[0][0].field if tables[0] else QQ
    out = [Poly.zero(field)] * max(len(t) for t in tables)
    for w, table in zip(weights, tables):
        for k, c in enumerate(table):
            out[k] = out[k] + w * c
    return out


def _trimmed(table):
    table = list(table)
    while table and table[-1].is_zero():
        table.pop()
    return tuple(table)


def test_reduced_resultant_matches_the_unreduced_path(monkeypatch):
    # Res_y(f, g rem f) == Res_y(f, g) for f monic in y, repr and all,
    # and never on more interpolation points; the lattice's combinations
    # of the reduced tables are the remainders of the unreduced ones
    taken = []
    resultant = resultants.resultant_y_tables

    def recorded(f_table, g_table):
        taken.append(_trimmed(g_table))
        return resultant(f_table, g_table)

    monkeypatch.setattr(resultants, "resultant_y_tables", recorded)
    pairs = []
    for gens in _multi_triples(20261018, 8):
        tables = _tables(gens)
        h = len(tables[0]) - 1
        taken.clear()
        resultants._lattice_gcd(gens, 0)
        lattice = list(_principal_lattice(len(tables) - 2, h))
        assert len(taken) == len(lattice), gens
        for w in lattice:
            combo = _combination(tables[1:], (1,) + w)
            reduced = resultants._reduced_y(combo, tables[0])
            assert tuple(reduced) in taken, (gens, w)
            pairs.append((tables[0], reduced, tables[0], combo))
    monkeypatch.undo()
    points = _counted_points(monkeypatch)
    qi = NumberField([1, 0, 1], label="t^2+1")
    for p, q in _charpoly_items("pair", 100) + _edge_pairs(qi):
        f, g = _tables([p, q])
        pairs.append((f, g, f, g))
    for p, q in _charpoly_items("relation", 50):
        f, g = ([Poly.monomial(d, -1) + e.coeff(0)]
                + [Poly.constant(c) for c in e.coeffs[1:]]
                for e, d in ((p, 1), (q, q.degree + 1)))
        pairs.append((f, g, f, g))
    zero = 0
    for f, g, f_old, g_old in pairs:
        points.clear()
        new = resultant_y_tables(f, g)
        new_points = sum(points)
        points.clear()
        old = reference_unreduced_resultant(f_old, g_old)
        assert new == old and repr(new) == repr(old), (f, g)
        assert new_points <= sum(points), (f, g)
        zero += not new
    assert zero


def test_the_lattice_reduces_each_generator_once(monkeypatch):
    # P_2, ..., P_t are reduced modulo P_1 once per lattice, and every
    # sample pairs P_1 with a combination of y-degree < h
    reductions, y_degrees = [], []
    reduced_y, resultant = resultants._reduced_y, resultants.resultant_y_tables

    def counted_reduction(table, monic):
        reductions.append(None)
        return reduced_y(table, monic)

    def recorded(f_table, g_table):
        y_degrees.append((len(f_table) - 1, len(_trimmed(g_table)) - 1))
        return resultant(f_table, g_table)

    monkeypatch.setattr(resultants, "_reduced_y", counted_reduction)
    monkeypatch.setattr(resultants, "resultant_y_tables", recorded)
    for gens in list(_multi_triples(20261018, 8)) + [
            [P("x^4 + x^2"), P("x^6"), P("x^7")], [P("x^2"), P("x^4")]]:
        reductions.clear()
        y_degrees.clear()
        resultants._lattice_gcd(gens, 0)
        assert len(reductions) == len(gens) - 1, gens
        assert y_degrees and all(mg < h for h, mg in y_degrees), gens


def test_reduction_edge_cases(monkeypatch):
    points = _counted_points(monkeypatch)
    # a zero remainder: Q(x, y) of x^4 vanishes at y = -x
    f, g = _tables([P("x^2"), P("x^4")])
    assert resultants._reduced_y(g, f) == []
    assert not resultant_y_tables(f, g) and not points
    assert not reference_unreduced_resultant(f, g)
    assert not char_poly_pair(P("x^2"), P("x^4"))
    # a monic f and a zero g give 0; a non-monic f and a zero g raise
    assert not resultant_y_tables(f, [Poly.zero()])
    with pytest.raises(ZeroPolynomialInY):
        resultant_y_tables([Poly.constant(1), Poly.constant(2)], [])
    # f = 1 has no roots: Res_y(1, g) = 1, not a zero remainder
    assert resultant_y_tables([Poly.constant(1)], g) == 1
    # a remainder of y-degree 0 takes no interpolation point
    rng = random.Random(20261020)
    p, q = (Poly([F(rng.randint(-3, 3)) for _ in range(d)] + [F(1)])
            for d in (2, 9))
    f, g = _tables([p, q])
    assert len(resultants._reduced_y(g, f)) == 1
    points.clear()
    new = resultant_y_tables(f, g)
    assert not points
    old = reference_unreduced_resultant(f, g)
    assert new == old and repr(new) == repr(old) and points
    # y^5 rem (y^2 + x*y + 1) has x-degree 4, so the reduced pair's own
    # bound is 9; the unreduced pair's is 5, and the least is taken
    x = Poly.x()
    f = [Poly.constant(1), x, Poly.constant(1)]
    g = [Poly.zero()] * 5 + [Poly.constant(1)]
    assert resultants._degree_bound(f, resultants._reduced_y(g, f)) == 9
    points.clear()
    new = resultant_y_tables(f, g)
    assert new == 1 and points == [6]
    # a first table whose leading y-coefficient is not the constant one
    reductions = []
    reduced_y = resultants._reduced_y

    def counted(table, monic):
        reductions.append(None)
        return reduced_y(table, monic)

    monkeypatch.setattr(resultants, "_reduced_y", counted)
    for lead in (Poly.constant(2), x, x + 1):
        f = [x - 1, x * x + 2, lead]
        g = [x + 3, Poly.constant(1), x * x, x - 2, Poly.constant(1)]
        new = resultant_y_tables(f, g)
        old = reference_unreduced_resultant(f, g)
        assert new == old and repr(new) == repr(old), lead
    assert not reductions


def test_char_poly_multi_depends_on_the_distinguished_generator():
    # three generators whose SAGBI basis has two elements, with conductor
    # c: with the first generator distinguished the lattice gcd is c^2,
    # while symmetrize and characteristic_polynomial give c
    for sources, c in (
            (["x^5 - x^4 + x^3 + x^2 - x - 2", "x^2 - x + 1",
              "x^8 - x^7 - 2*x^6 - 2*x^4 + 2*x^3 - x^2 - x - 1"],
             P("x^2 - x + 1")),
            (["x^4 - 2", "x^7 + 2*x^6 - 2*x^5 + x^4 - 2*x^2 - 2",
              "x^6 - x^5 + x^4 + x^3 - x^2 + 1"], P("x^2"))):
        gens = [P(s) for s in sources]
        A = Subalgebra.from_generators(gens)
        assert len(A.sagbi_basis().elements) == 2 and A.conductor() == c
        chi = char_poly_multi(gens)
        assert chi == c * c and chi == reference_char_poly_multi(gens)
        assert char_poly_multi(gens, symmetrize=True) == c
        assert characteristic_polynomial(A) == c
    # K[x^12 + 3x^6, x^15, x^10], a SAGBI basis of three elements: the
    # distinguished and the symmetrized χ agree at x^50·q, while χ of the
    # algebra is x^54·q, so the two χ of the library disagree here
    gens = [P("x^12 + 3*x^6"), P("x^15"), P("x^10")]
    q, x = P("x^24 + 6*x^18 + 36*x^12 + 81*x^6 + 81"), P("x")
    A = Subalgebra.from_generators(gens)
    assert A.sagbi_basis().degrees == (10, 12, 15)
    assert char_poly_multi(gens) == x ** 50 * q
    assert char_poly_multi(gens, symmetrize=True) == x ** 50 * q
    assert characteristic_polynomial(A) == x ** 54 * q


def reference_reduced_y(table, monic):
    """The remainder of a y-table modulo a y-table with the constant lead
    one, by `Poly` arithmetic over K (the path the cleared ints replaced)."""
    m = len(monic) - 1
    rem = list(table)
    for k in range(len(rem) - 1, m - 1, -1):
        c = -rem.pop()
        if c:
            for j in range(m):
                rem[k - m + j] = rem[k - m + j] + c * monic[j]
    while rem and rem[-1].is_zero():
        rem.pop()
    return rem


def test_reduction_on_cleared_ints_matches_poly_arithmetic():
    # integral and non-integral monic tables over Q, Q(i) and Q(2^(1/3)),
    # zero entries included
    rng = random.Random(20261021)
    fields = (QQ, NumberField([1, 0, 1], label="t^2+1"),
              NumberField([-2, 0, 0, 1], label="t^3-2"))

    def scalar(field, den):
        if field is QQ:
            return F(rng.randint(-5, 5), rng.randint(1, den))
        return field.from_coeffs([F(rng.randint(-5, 5), rng.randint(1, den))
                                  for _ in range(field.degree)])

    def entry(field, den):
        if rng.random() < 0.15:
            return Poly.zero(field)
        return Poly([scalar(field, den) for _ in range(rng.randint(1, 5))],
                    field)

    for field in fields:
        for den in (1, 6):
            for _ in range(40):
                monic = [entry(field, den) for _ in range(rng.randint(1, 4))]
                monic.append(Poly.constant(field.one, field))
                table = [entry(field, 3) for _ in range(rng.randint(0, 9))]
                new = resultants._reduced_y(table, monic)
                old = reference_reduced_y(table, monic)
                assert new == old and list(map(repr, new)) == \
                    list(map(repr, old)), (table, monic)
                assert all(c.field is field for c in new)


def _counted_resultants(monkeypatch):
    calls = []
    resultant = resultants.resultant_y_tables

    def counted(f_table, g_table):
        calls.append(None)
        return resultant(f_table, g_table)

    monkeypatch.setattr(resultants, "resultant_y_tables", counted)
    return calls


def test_a_pair_and_its_spectrum_take_one_resultant(monkeypatch):
    # char_poly_pair and the conductor of the same two elements share χ
    calls = _counted_resultants(monkeypatch)
    for p, q in _charpoly_items("pair", 6) + [(P("x^2/3"), P("2*x^3 - x"))]:
        calls.clear()
        chi = char_poly_pair(p, q)
        A = Subalgebra.from_generators([p, q])
        A.spectrum()
        assert len(calls) == 1, (p, q)
        assert A.conductor() is chi, (p, q)
    qi = NumberField([1, 0, 1], label="t^2+1")
    p, q = P("x^2 - t", field=qi), P("x^3 + t*x", field=qi)
    calls.clear()
    chi = char_poly_pair(p, q)
    assert Subalgebra.from_generators([p, q]).conductor() is chi
    assert len(calls) == 1


def test_the_lattice_memo_is_bounded(monkeypatch):
    calls = _counted_resultants(monkeypatch)
    pairs = _charpoly_items("pair", 2 * resultants._LATTICE_MEMO_SIZE)
    for p, q in pairs:
        char_poly_pair(p, q)
        assert len(resultants._lattice_memo) <= \
            resultants._LATTICE_MEMO_SIZE
    assert len(calls) == len(pairs)
    assert len(resultants._lattice_memo) == resultants._LATTICE_MEMO_SIZE
    size = resultants._LATTICE_MEMO_SIZE
    calls.clear()
    char_poly_pair(*pairs[-size])       # the oldest entry kept, now the
    assert not calls                    # most recently used
    char_poly_pair(*pairs[0])           # dropped; its return drops the
    assert len(calls) == 1              # least recently used one
    char_poly_pair(*pairs[-size])
    assert len(calls) == 1
    char_poly_pair(*pairs[1 - size])
    assert len(calls) == 2


def test_the_lattice_memo_keeps_fields_and_stop_degrees_apart(monkeypatch):
    calls = _counted_resultants(monkeypatch)
    qi = NumberField([1, 0, 1], label="t^2+1")
    p, q = P("x^3 - 2*x + 1/2"), P("x^5 + x^2")
    over_q = char_poly_pair(p, q)
    over_qi = char_poly_pair(p.coerce_to(qi), q.coerce_to(qi))
    assert len(calls) == 2
    assert over_q.field is QQ and over_qi.field is qi
    assert over_qi == over_q
    # the same t̃-coordinates over two quadratic fields
    r2 = NumberField([-2, 0, 1], label="t^2-2")
    chis = [char_poly_pair(P("x^3 + t*x", field=k), P("x^2 - t", field=k))
            for k in (qi, r2)]
    assert len(calls) == 4 and chis[0].field is qi and chis[1].field is r2
    assert chis[0] != chis[1]
    # the constant terms do not enter χ: the same entry serves
    assert char_poly_pair(p + 7, q - 1) is over_q and len(calls) == 4
    gens = next(_multi_triples(20261018, 1))
    c = Subalgebra.from_generators(gens).conductor()
    calls.clear()
    full = resultants._lattice_gcd(gens, 0)
    taken = len(calls)
    stopped = resultants._lattice_gcd(gens, c.degree)
    assert len(calls) > taken and stopped is not full
    assert stopped == full == reference_char_poly_multi(gens)


def test_chi_with_a_cold_memo_equals_a_warm_one():
    # the first 100 items of the benchmark's charpoly stream: χ of each
    # with the memo emptied first, and again after the algebra's conductor
    # and χ of every item before it
    items = [("pair", g) for g in _charpoly_items("pair", 50)] + \
        [("multi", g) for g in _charpoly_items("multi", 25)] + \
        [("relation", g) for g in _charpoly_items("relation", 25)]

    def chi(kind, gens):
        return char_poly_multi(gens) if kind == "multi" else \
            char_poly_pair(*gens)

    cold = []
    for kind, gens in items:
        resultants._lattice_memo.clear()
        cold.append(chi(kind, gens))
    resultants._lattice_memo.clear()
    for (kind, gens), before in zip(items, cold):
        Subalgebra.from_generators(gens).conductor()
        warm = chi(kind, gens)
        assert warm == before and repr(warm) == repr(before), gens
