from fractions import Fraction as F

import pytest

from case_draws import all_draws
from subalg import resultants
from subalg.classify import classify, construct_case
from subalg.conditions import LinearFunctional, Subalgebra, kernel_subalgebra
from subalg.derivations import conjecture_dim_check, derivation_space
from subalg.errors import NoDegreeTwoElement, SpectrumNotExact
from subalg.fields import NumberField, is_zero_scalar
from subalg.parsing import parse_poly
from subalg.poly import Poly, squarefree_decompose
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
