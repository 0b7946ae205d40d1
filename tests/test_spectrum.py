from fractions import Fraction as F
from math import gcd, isqrt

import pytest

from case_draws import affine_variants, all_draws
from subalg import resultants, spectrum
from subalg.classify import classify, construct_case
from subalg.conditions import LinearFunctional, Subalgebra, kernel_subalgebra
from subalg.derivations import conjecture_dim_check, derivation_space
from subalg.errors import (NoDegreeTwoElement, ParameterDegeneracy,
                           SpectrumNotExact, UnpairedRoot)
from subalg.fields import QQ, NumberField, is_zero_scalar
from subalg.parsing import parse_poly
from subalg.poly import Poly, poly_gcd, squarefree_decompose
from subalg.roots import _default_candidates
from subalg.spectrum import (characteristic_polynomial, compute_clusters,
                             compute_spectrum, deg2_description,
                             deg2_from_description, spectrum_size_check)


def alg(*srcs, field=None):
    return Subalgebra.from_generators(
        [parse_poly(s, field=field) for s in srcs])


def test_pair_spectrum_exact():
    pts = alg("x^3 - x", "x^2").spectrum()
    assert sorted(p.value for p in pts) == [F(-1), F(1)]
    assert all(p.kind == "paired" and p.exact for p in pts)
    partners = {p.value: p.partner for p in pts}
    assert partners[F(1)] == F(-1) and partners[F(-1)] == F(1)


def test_full_algebra_has_an_empty_spectrum():
    A = alg("x")
    assert characteristic_polynomial(A) == Poly.constant(F(1))
    assert A.spectrum() == [] and A.clusters() == []
    B = alg("x + 1", "x^2")
    assert B.spectrum(mode="exact") == []


def test_derivative_spectrum():
    pts = alg("x^2", "x^5").spectrum()
    assert len(pts) == 1
    assert pts[0].value == F(0) and pts[0].kind == "derivative"


def test_exact_mode_raises_without_field():
    A = alg("x^4", "x^3 - x")
    with pytest.raises(SpectrumNotExact):
        A.spectrum(mode="exact")


def test_exact_mode_with_cyclotomic_field():
    nf = NumberField([1, 0, 0, 0, 1], label="t^4+1")
    pts = alg("x^4", "x^3 - x").spectrum(mode="exact", nf=nf)
    assert len(pts) == 6 and all(p.exact for p in pts)


def test_characteristic_polynomial_matches_pair():
    A = alg("x^3 - x", "x^2")
    chi = characteristic_polynomial(A)
    assert chi == parse_poly("x^2 - 1")


def test_clusters_partition_spectrum():
    A = kernel_subalgebra([LinearFunctional.difference(F(0), F(1)),
                           LinearFunctional.difference(F(0), F(2))])
    clusters = A.clusters()
    assert len(clusters) == 1
    assert sorted(p.value for p in clusters[0].members) == \
        [F(0), F(1), F(2)]


def test_size_bound_report():
    report = spectrum_size_check(alg("x^2", "x^3"))
    assert report["ok"] and report["spectrum_size"] == 1
    assert report["bound"] == 2


def test_deg2_description_round_trip():
    A = alg("x^2", "x^3 - x")
    desc = deg2_description(A)
    assert desc.alpha0 == 0 and desc.m0 == 0
    again = deg2_from_description(desc)
    assert again == A


def test_deg2_description_shifted():
    A = alg("(x-1)^2", "(x-1)^5")
    desc = deg2_description(A)
    assert desc.alpha0 == 1 and desc.m0 == 2 and desc.pairs == []


def test_deg2_requires_degree_two():
    with pytest.raises(NoDegreeTwoElement):
        deg2_description(alg("x^3", "x^4"))


def test_numeric_spectrum_is_not_cached():
    D = alg("x^3 - x", "x^2")
    assert not any(p.exact for p in D.spectrum(mode="numeric"))
    assert [repr(L) for L in D.conditions()] == ["f(-1) - f(1)"]


def test_a_cached_spectrum_is_reused_only_at_its_tol():
    # at tol = 1e-30 the numeric points of c = (x^2-2)(x^2-3) no longer
    # agree in pairs, so a fresh spectrum there has an unpaired root
    A = alg("x^2", "x*(x^2-2)*(x^2-3)")
    pts = A.spectrum()
    assert len(pts) == 4 and all(p.kind == "paired" for p in pts)
    with pytest.raises(UnpairedRoot):
        A.spectrum(tol=1e-30)
    with pytest.raises(UnpairedRoot):
        compute_spectrum(A, tol=1e-30)
    assert A.spectrum() is pts
    assert A.spectrum(tol=1e-8) is pts
    # the clusters are those of the cached spectrum, whatever its tol
    finer = A.spectrum(tol=1e-9)
    assert finer is not pts and [len(c) for c in A.clusters()] == [2, 2]
    assert A.spectrum(tol=1e-9) is finer


def test_a_field_request_ignores_an_inexact_cached_spectrum():
    A = alg("x^2", "x^3 - 2*x")
    assert not any(p.exact for p in A.spectrum())
    with pytest.raises(SpectrumNotExact):
        A.spectrum(mode="exact")
    nf = NumberField([-2, 0, 1], label="t^2-2")
    t = nf.gen()
    pts = A.spectrum(nf=nf)
    assert sorted(repr(p.value) for p in pts) == \
        sorted(repr(v) for v in (t, -t))
    assert A.spectrum() is pts
    assert A.spectrum(mode="exact") is pts
    assert [len(c) for c in A.clusters()] == [2]


def test_classify_and_derivations_never_build_chi(monkeypatch):
    def refuse(*args):
        raise AssertionError("a characteristic polynomial was built")

    monkeypatch.setattr(resultants, "resultant_y_tables", refuse)
    algebras = []
    for label, params, _ in all_draws():
        A = construct_case(label, params)
        assert classify(A).label == label
        alpha = params.get("alpha", params.get("gamma"))
        assert conjecture_dim_check(A, alpha)["equal"], label
        algebras.append(A)
    monkeypatch.undo()
    # multiplicities are read from chi on demand: the square-free factor
    # of chi that vanishes at the point
    for A in algebras:
        parts = squarefree_decompose(A.char_poly())
        for p in A.spectrum():
            assert p.exact
            assert p.multiplicity == next(
                k for f, k in parts if is_zero_scalar(f(p.value)))


def test_numeric_multiplicities_are_read_from_chi():
    # c = (x^3 - x - 1)(x^2 - 2) is one unsplit factor over Q, but chi
    # vanishes twice at the cubic's roots (one three-point cluster) and
    # once at the pair {sqrt 2, -sqrt 2}
    A = alg("(x^3-x-1)*(x+1)",
            *[f"(x^3-x-1)*(x^2-2)*x^{k}" for k in range(5)])
    assert A.conductor() == parse_poly("(x^3-x-1)*(x^2-2)")
    points = A.spectrum()
    assert len(points) == 5 and not any(p.exact for p in points)
    for p in points:
        assert p.multiplicity == (1 if abs(p.value ** 2 - 2) < 1e-6 else 2)


def test_a_rational_point_pairs_with_numeric_points():
    # A = K + c·K[x] with c = (x^2 - 2)^2 (x - 1) has one cluster
    # {1, sqrt 2, -sqrt 2}; the exact point 1 can only pair with a numeric
    # one, and sqrt 2, -sqrt 2 are double zeros of c (derivative-kind)
    A = alg(*[f"(x^2-2)^2*(x-1)*x^{k}" for k in range(5)])
    points = A.spectrum()
    assert len(points) == 3
    one = points[0]
    assert one.exact and one.value == 1 and one.kind == "paired"
    assert isinstance(one.partner, complex) and \
        abs(one.partner ** 2 - 2) < 1e-9
    assert one.to_json()["partner"] == {"re": one.partner.real,
                                        "im": one.partner.imag}
    assert [p.kind for p in points[1:]] == ["derivative"] * 2
    assert [len(c) for c in A.clusters()] == [3]


def test_a_number_field_point_without_an_exact_partner_is_an_error():
    # over Q(i) the point i of c = (x - t)(x^3 - x - 1) is exact, its
    # cluster mates are not, and Q(i) has no chosen complex embedding
    qi = NumberField([1, 0, 1], label="t^2+1")
    A = alg(*[f"(x - t)*(x^3-x-1)*x^{k}" for k in range(4)], field=qi)
    with pytest.raises(SpectrumNotExact):
        A.spectrum()


def test_number_field_points_and_numeric_points_cluster_apart():
    # over Q(i), A = K[x^2, x(x^2+1)(x^2-2)] has exact points t, -t and
    # numeric points sqrt 2, -sqrt 2; a number-field point has no embedding
    # to compare with a numeric one, so each pair is its own cluster
    qi = NumberField([1, 0, 1], label="t^2+1")
    t = qi.gen()
    A = alg("x^2", "x*(x^2+1)*(x^2-2)", field=qi)
    points = A.spectrum()
    assert [(p.exact, p.kind) for p in points] == \
        [(True, "paired")] * 2 + [(False, "paired")] * 2
    clusters = A.clusters()
    assert [len(c) for c in clusters] == [2, 2]
    assert {p.value for p in clusters[0].members if p.exact} | \
        {p.value for p in clusters[1].members if p.exact} == {t, -t}
    assert all(len({p.exact for p in c.members}) == 1 for c in clusters)
    space = derivation_space(A, t)
    assert space.k_alpha == 2


def reference_characteristic_polynomial(A, pair_chi):
    """The χ_A rule that the stop at the conductor replaced: the gcd over
    coprime pairs, stopping only when it is unchanged twice."""
    basis = Subalgebra.of(A).sagbi_basis()
    products = {p.degree: p for p in basis.degree_products(
        basis.semigroup.conductor + max(basis.degrees))[1:]}
    degrees = list(products)
    pairs = sorted(((d1, d2) for i, d1 in enumerate(degrees)
                    for d2 in degrees[i + 1:] if gcd(d1, d2) == 1),
                   key=lambda t: t[0] + t[1])
    chi, unchanged = None, 0
    for d1, d2 in pairs[:6]:
        c = pair_chi(products[d1], products[d2])
        new = c.monic() if chi is None else poly_gcd(chi, c).monic()
        unchanged = unchanged + 1 if chi is not None and \
            new.degree == chi.degree else 0
        chi = new
        if unchanged >= 2 or chi.degree == 0:
            break
    return chi.monic()


def _draws_and_images():
    for label, params, _ in all_draws():
        yield construct_case(label, params)
        if any(hasattr(v, "field") for v in params.values()):
            continue
        for moved in affine_variants(params)[:2]:
            try:
                yield construct_case(label, moved)
            except ParameterDegeneracy:
                continue


def test_chi_stops_at_the_conductor(monkeypatch):
    # every lattice sample is one `resultant_y_tables` call; where chi = c
    # the sampler stops at the first sample that brings the gcd to c
    samples = []
    real = resultants.resultant_y_tables

    def recorded(f_table, g_table):
        samples.append(real(f_table, g_table))
        return samples[-1]

    monkeypatch.setattr(resultants, "resultant_y_tables", recorded)
    at_conductor = 0
    for A in _draws_and_images():
        c = A.conductor()
        old = reference_characteristic_polynomial(A, resultants.char_poly_pair)
        samples.clear()
        assert characteristic_polynomial(A) == old, A
        if old == c:
            at_conductor += 1
            running, reached = Poly.zero(c.field), []
            for s in samples:
                running = poly_gcd(running, s) if s else running
                reached.append(running == c)
            assert reached.index(True) == len(samples) - 1, A
    assert at_conductor


def reference_exact_sqrt(r, field):
    """The square root search that `split_roots` of y² − r replaced."""
    value = field.coerce(r)
    rat = value if isinstance(value, (int, F)) else value.to_rational()
    if rat is not None:
        rat = F(rat)
        num = den = None
        if rat >= 0:
            num, den = isqrt(rat.numerator), isqrt(rat.denominator)
            if num * num != rat.numerator or den * den != rat.denominator:
                num = None
        if num is not None:
            return field.coerce(F(num, den))
        if field is QQ:
            return None
    return next((c for c in _default_candidates(field) if c * c == value),
                None)


def test_square_roots_match_the_candidate_search():
    qi = NumberField([1, 0, 1], label="t^2+1")
    q2 = NumberField([-2, 0, 1], label="t^2-2")
    for field in (QQ, qi, q2):
        values = [F(0), F(1, 4), F(2), F(-1), F(9, 4)]
        if field is not QQ:
            values += [field.gen(), 2 * field.gen()]
        for r in values:
            got = spectrum._square_root(r, field)
            assert got == reference_exact_sqrt(r, field), (field, r)
            assert got is None or got * got == field.coerce(r)
