import random
from fractions import Fraction as F

import pytest

from subalg.errors import (ConstantInput, DegreesNotCoprime,
                           FewerThanTwoGenerators)
from subalg.fields import NumberField, common_field, is_zero_scalar
from subalg.mpoly import MPoly
from subalg.parsing import parse_poly as P
from subalg.poly import Poly, poly_gcd
from subalg.resultants import (_newton_interpolate, _scalar_resultant,
                               char_poly_multi, char_poly_pair,
                               divided_difference, resultant_relation,
                               resultant_y, resultant_y_tables)


def test_divided_difference_identity():
    for src in ("x^3 - x", "x^5 + 2*x^2 - 1", "x^2"):
        p = P(src)
        dd = divided_difference(p)
        assert dd.y_degree == p.degree - 1


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


def test_resultant_relation_properties():
    p, q = P("x^3 - x"), P("x^2")
    Frel = resultant_relation(p, q)
    assert not Frel.substitute([p, q])
    with pytest.raises(DegreesNotCoprime):
        resultant_relation(P("x^2"), P("x^4"))


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
        return resultant_y_tables(tables[0], table)

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


def reference_resultant_relation(p, q):
    """The relation that `resultant_y_tables` replaced: scalar resultants
    on an (n+1)×(m+1) grid of (P, Q), interpolated in Q, then in P."""
    m, n = p.degree, q.degree
    field = common_field(p.field, q.field)
    a_pts = [F(i) for i in range(n + 1)]
    b_pts = [F(j) for j in range(m + 1)]
    grid = [[_scalar_resultant(
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


def test_resultant_relation_matches_the_scalar_grid():
    rng = random.Random(20261018)
    for m, n in ((2, 3), (3, 4), (2, 5), (4, 5), (3, 5), (5, 6)):
        p, q = (Poly([F(rng.randint(-3, 3)) for _ in range(d)] + [F(1)])
                for d in (m, n))
        new, old = resultant_relation(p, q), reference_resultant_relation(p, q)
        assert new.terms == old.terms and repr(new) == repr(old), (p, q)
