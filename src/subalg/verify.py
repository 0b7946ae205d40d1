"""Built-in golden-example verification suite.

Each check exercises one documented behavior end to end with exact
arithmetic; `run_verify` returns a (name, ok, detail) row per check and the
CLI renders them as a pass/fail table.
"""

from __future__ import annotations

from fractions import Fraction as F

from .classify import classify, construct_case, type_of
from .conditions import (LinearFunctional, Subalgebra,
                         conditions_from_subalgebra,
                         is_subalgebra_condition_set, intersect_and_join,
                         kernel_subalgebra)
from .derivations import (conjecture_dim_check, derivation_space,
                          integral_derivation, k_alpha, ln_coefficients,
                          NOT_INTEGRAL)
from .fields import NumberField, QQ
from .oracle import oracle_member, oracle_multi_char_roots
from .parsing import parse_poly
from .poly import Poly, squarefree_decompose
from .resultants import (char_poly_multi, char_poly_pair, divided_difference,
                         resultant_relation, resultant_y)
from .roots import aberth_roots, rational_roots
from .sagbi import membership, sagbi_complete, subduce
from .semigroup import (DegreeSemigroup, genus3_type_enumeration, NOT_MEMBER)
from .spectrum import (compute_clusters, deg2_description,
                       spectrum_size_check)


def _phi8():
    return NumberField([1, 0, 0, 0, 1], label="t^4+1")


def _phi12():
    return NumberField([1, 0, -1, 0, 1], label="t^4-t^2+1")


def _pp(src, field=None):
    return parse_poly(src, field=field)


def _alg(*srcs, field=None):
    return Subalgebra.from_generators([_pp(s, field) for s in srcs])


def _diff(a, b):
    return LinearFunctional.difference(a, b)


def _dc(terms):
    return LinearFunctional.derivative_combo(terms)


# ---------------------------------------------------------------------------
# individual checks (each raises AssertionError on failure)
# ---------------------------------------------------------------------------


def check_eval_difference():
    p = _pp("x^3 - x")
    assert p(F(1)) == 0 and p(F(-1)) == 0


def check_number_field_powers():
    nf = _phi8()
    t = nf.gen()
    t4 = t * t * t * t
    assert t4 == nf.coerce(-1)
    assert t4 * t4 == nf.coerce(1)


def check_divided_differences():
    dd = divided_difference(_pp("x^3 - x"))
    assert list(dd.table) == [_pp("x^2 - 1"), _pp("x"), _pp("1")]
    dd = divided_difference(_pp("x^2"))
    assert list(dd.table) == [_pp("x"), _pp("1")]
    n = 5
    dd = divided_difference(_pp("x^5"))
    assert list(dd.table) == [_pp(f"x^{n - 1 - i}") for i in range(n)]


def check_resultant_in_y():
    P = divided_difference(_pp("x^3 - x"))
    Q = divided_difference(_pp("x^2"))
    assert resultant_y(P, Q) == _pp("x^2 - 1")


def check_charpoly_pair():
    assert char_poly_pair(_pp("x^3 - x"), _pp("x^2")) == _pp("x^2 - 1")
    for m, n in ((2, 3), (3, 4), (4, 9), (5, 7)):
        chi = char_poly_pair(_pp(f"x^{m}"), _pp(f"x^{n}"))
        assert chi == _pp(f"x^{(m - 1) * (n - 1)}")
    chi = char_poly_pair(_pp("x^4 - x^2"), _pp("x^3"))
    assert chi == _pp("x^2 * (x^4 - x^2 + 1)")


def check_charpoly_multi():
    chi = char_poly_multi([_pp("x^12 + 3*x^6"), _pp("x^15"), _pp("x^10")])
    assert chi == _pp("x^50 * (x^24 + 6*x^18 + 36*x^12 + 81*x^6 + 81)")


def check_partial_derivative_identity():
    p, q = _pp("x^3 - x"), _pp("x^2")
    Frel = resultant_relation(p, q)
    chi = char_poly_pair(p, q)
    value = Frel.partial(0).substitute([p, q])
    expected = chi * q.derivative()
    assert value == expected or value == -expected


def check_squarefree_decomposition():
    parts = squarefree_decompose(_pp("x^2 * (x^4 - x^2 + 1)"))
    assert sorted(((f, m) for f, m in parts), key=lambda t: t[0].degree) \
        == [(_pp("x"), 2), (_pp("x^4 - x^2 + 1"), 1)]


def check_root_finding():
    exact = rational_roots(_pp("x^2 - 1"))
    assert sorted(v for v, _ in exact) == [F(-1), F(1)]
    numeric, residual = aberth_roots(_pp("x^4 - x^2 + 1"))
    assert len(numeric) == 4 and residual < 1e-10
    assert all(abs(abs(z) - 1) < 1e-10 for z in numeric)


def check_semigroups():
    S = DegreeSemigroup([3, 4])
    assert S.gaps == (1, 2, 5) and S.genus == 3
    S = DegreeSemigroup([2, 5])
    assert S.gaps == (1, 3) and S.genus == 2
    for m, n in ((2, 7), (3, 5), (4, 9)):
        assert DegreeSemigroup([m, n]).genus == (m - 1) * (n - 1) // 2
    assert DegreeSemigroup([3, 4]).represent(5) is NOT_MEMBER


def check_genus_type_tables():
    assert genus3_type_enumeration(1) == [(2, 3)]
    assert genus3_type_enumeration(2) == [(2, 5), (3, 4, 5)]
    assert genus3_type_enumeration(3) == \
        [(2, 7), (3, 4), (3, 5, 7), (4, 5, 6, 7)]


def check_subduction():
    basis = _alg("x^3 - x", "x^2").sagbi_basis()
    rem, _ = subduce(_pp("x^7 - x"), basis)
    assert rem.degree < 1


def check_sagbi_completion():
    basis = sagbi_complete([_pp("x^3 - x"), _pp("x^2")])
    assert sorted(basis.degrees) == [2, 3]
    assert basis.semigroup.genus == 1
    basis = sagbi_complete([_pp("x^3"), _pp("x^4"), _pp("x^5")])
    assert sorted(basis.degrees) == [3, 4, 5]
    assert basis.semigroup.genus == 2


def check_single_condition_kernels():
    alpha, beta = F(2), F(-1)
    A = kernel_subalgebra([_dc([(1, alpha, F(1))])])
    x = Poly.x(QQ)
    y = x - alpha
    assert sorted(A.sagbi_basis().degrees) == [2, 3]
    assert A.contains(y * y) and A.contains(y ** 3)
    A = kernel_subalgebra([_diff(alpha, beta)])
    assert sorted(A.sagbi_basis().degrees) == [2, 3]
    assert A.contains((x - alpha) * (x - beta))
    assert A.contains((x - alpha) ** 2 * (x - beta))


def check_membership():
    A = _alg("x^3 - x", "x^2")
    assert membership(_pp("x^7 - x"), A)[0]
    assert not membership(_pp("x"), A)[0]
    full = sagbi_complete([_pp("x^3 - x"), _pp("x^4"), _pp("x^5 - 1")])
    assert full.semigroup.genus == 0


def check_functional_application():
    assert _diff(F(1), F(-1)).apply(_pp("x^3 - x")) == 0
    nf = _phi12()
    # cube roots of unity inside the degree-12 cyclotomic field: t^4 = t^2-1
    t = nf.gen()
    w = t * t - nf.coerce(1)          # primitive 6th root squared
    w = w * w                          # primitive cube root of unity
    L = _dc([(1, nf.coerce(1), nf.coerce(1)), (1, w, w * w),
             (1, w * w, w)])
    assert L.apply(_pp("x^4 - x", field=nf)) == nf.zero


def check_condition_set_recognition():
    a, b = F(0), F(1)
    only_deriv = [_dc([(1, a, F(1)), (1, b, F(1))])]
    assert not is_subalgebra_condition_set(only_deriv)
    assert is_subalgebra_condition_set([_diff(a, b)] + only_deriv)
    spectacular = [
        _dc([(1, F(0), F(1))]),
        _dc([(3, F(0), F(1)), (2, F(0), F(-3))]),
        _dc([(5, F(0), F(1)), (4, F(0), F(-10))]),
    ]
    assert is_subalgebra_condition_set(spectacular)


def check_kernel_examples():
    A = kernel_subalgebra([_dc([(1, F(0), F(1))]),
                           _dc([(2, F(0), F(1))]),
                           _dc([(5, F(0), F(1))])])
    assert A == _alg("x^3", "x^4")

    nf8 = _phi8()
    t = nf8.gen()
    one = nf8.coerce(1)
    A = kernel_subalgebra([_diff(one, -one), _diff(t, -(t * t * t)),
                           _diff(t * t * t, -t)])
    assert A == Subalgebra.from_generators(
        [_pp("x^4", field=nf8), _pp("x^3 - x", field=nf8)])

    nf12 = _phi12()
    t = nf12.gen()
    e5 = t * t * t * t * t
    A = kernel_subalgebra([_dc([(1, nf12.zero, nf12.coerce(1))]),
                           _diff(t, e5), _diff(-t, -e5)])
    assert A == Subalgebra.from_generators(
        [_pp("x^4 - x^2", field=nf12), _pp("x^3", field=nf12)])


def check_condition_recovery():
    A = _alg("x^3", "x^4")
    conds = conditions_from_subalgebra(A, [F(0)])
    assert kernel_subalgebra(conds) == A
    A = _alg("x^3 - x", "x^2")
    conds = conditions_from_subalgebra(A, [F(1), F(-1)])
    assert len(conds) == 1 and kernel_subalgebra(conds) == A


def check_join_is_everything():
    A1 = kernel_subalgebra([_dc([(1, F(0), F(1))])])
    A2 = kernel_subalgebra([_dc([(1, F(1), F(1))])])
    inter, join = intersect_and_join(A1, A2)
    assert join.sagbi_basis().semigroup.genus == 0
    assert inter.codimension() == 2
    # generators with disjoint spectra also join to everything
    joined = sagbi_complete([_pp("x^4"), _pp("x^5"), _pp("x^3 - x")])
    assert joined.semigroup.genus == 0


def check_spectra():
    pts = _alg("x^3 - x", "x^2").spectrum()
    assert sorted(p.value for p in pts) == [F(-1), F(1)]
    assert all(p.kind == "paired" for p in pts)

    nf12 = _phi12()
    pts = _alg("x^4 - x^2", "x^3").spectrum(nf=nf12)
    assert all(p.exact for p in pts)
    kinds = sorted(p.kind for p in pts)
    assert len(pts) == 5 and kinds.count("derivative") == 1
    assert sum(1 for p in pts if p.kind == "paired") == 4

    nf8 = _phi8()
    pts = _alg("x^4", "x^3 - x").spectrum(nf=nf8)
    assert all(p.exact for p in pts)
    assert len(pts) == 6 and all(p.kind == "paired" for p in pts)


def check_clusters():
    A = _alg("x^3 - x", "x^2")
    clusters = A.clusters()
    assert len(clusters) == 1
    assert sorted(p.value for p in clusters[0].members) == [F(-1), F(1)]

    A = kernel_subalgebra([_diff(F(0), F(1)), _diff(F(0), F(2))])
    clusters = A.clusters()
    assert len(clusters) == 1 and len(clusters[0].members) == 3

    nf8 = _phi8()
    A = _alg("x^4", "x^3 - x")
    pts = A.spectrum(nf=nf8)
    assert all(p.exact for p in pts)
    clusters = compute_clusters(A, spectrum=pts)
    assert sorted(len(c.members) for c in clusters) == [2, 2, 2]


def check_size_bound():
    report = spectrum_size_check(_alg("x^2", "x^3"))
    assert report["spectrum_size"] == 1 and report["bound"] == 2
    assert report["ok"]
    nf8 = _phi8()
    A = _alg("x^4", "x^3 - x")
    pts = A.spectrum(nf=nf8)
    assert all(p.exact for p in pts)
    report = spectrum_size_check(A, spectrum=pts)
    assert report["spectrum_size"] == 6 and report["bound"] == 6
    assert report["ok"]


def check_degree_two_normal_form():
    desc = deg2_description(_alg("x^2", "x^3 - x"))
    assert desc.alpha0 == 0 and desc.m0 == 0
    assert [(a, b, m) for a, b, m in desc.pairs] == [(F(1), F(-1), 0)]
    desc = deg2_description(_alg("x^2", "x^5"))
    assert desc.alpha0 == 0 and desc.m0 == 2 and desc.pairs == []


def check_cotangent_dimensions():
    full = sagbi_complete([_pp("x"), _pp("x^2 + 1")])
    assert k_alpha(full, F(3)) == 1
    A = kernel_subalgebra([_diff(F(0), F(1)), _diff(F(0), F(2))])
    assert k_alpha(A, F(0)) == 3
    assert k_alpha(_alg("x^2", "x^3"), F(0)) == 2


def check_derivation_spaces():
    A = kernel_subalgebra([_dc([(1, F(0), F(1))])])
    space = derivation_space(A, F(0))
    assert space.dimension == 2
    orders = sorted(o for D in space.combo_basis for o, _, _ in D.terms)
    assert min(orders) >= 2

    A = kernel_subalgebra([_diff(F(1), F(-1))])
    space = derivation_space(A, F(1))
    assert space.dimension == 2

    A = kernel_subalgebra([_dc([(1, F(0), F(1))]), _dc([(1, F(2), F(1))])])
    space = derivation_space(A, F(0))
    assert space.dimension == 2


def check_dimension_conjecture_examples():
    for label, params in (
        ("codim1/pair", {"alpha": F(0), "beta": F(1)}),
        ("codim2/s=1", {"alpha": F(0), "a": F(3), "b": F(1)}),
        ("codim2/s=4", {"alpha": F(0), "beta": F(1), "gamma": F(2),
                        "delta": F(4)}),
    ):
        A = construct_case(label, params)
        report = conjecture_dim_check(A, params["alpha"])
        assert report["equal"], label

    # one cluster of three points: every combo derivation is found
    A = kernel_subalgebra([_diff(F(0), F(1)), _diff(F(0), F(2))])
    report = conjecture_dim_check(A, F(0))
    assert report["equal"] and report["k_alpha"] == 3

    # paired points with opposite weighted first derivatives admit a mixed
    # second-derivative derivation
    A = kernel_subalgebra([_diff(F(0), F(1)),
                           _dc([(1, F(0), F(1)), (1, F(1), F(1))])])
    space = derivation_space(A, F(0))
    assert space.dimension == space.k_alpha >= 2


def check_ln_rows():
    assert ln_coefficients(9) == {9: 1, 8: -4, 6: 11, 4: -11}
    assert ln_coefficients(13) == \
        {13: 1, 12: -6, 10: 50, 8: -294, 6: 882, 4: -882}


def check_integral_derivation():
    B = _alg("x^2", "x^3")
    A = _alg("x^2", "x^5")
    L = _dc([(1, F(0), F(1))])
    D = integral_derivation(B, A, L, _pp("x"))
    assert D is not NOT_INTEGRAL


def check_classification_examples():
    A = kernel_subalgebra([_diff(F(0), F(2)), _dc([(1, F(1), F(1))])])
    result = classify(A)
    assert result.label == "codim2/s=3" and result.type == (2, 5)

    nf8 = _phi8()
    A = _alg("x^4", "x^3 - x")
    result = classify(A, nf=nf8)
    assert result.label == "codim3/s=6" and result.type == (3, 4)

    A = kernel_subalgebra([_dc([(1, F(0), F(1))]), _dc([(1, F(1), F(1))]),
                           _dc([(1, F(2), F(1))])])
    result = classify(A)
    assert result.label == "codim3/s=3/case1"
    assert result.type == (4, 5, 6, 7)


def check_canonical_constructions():
    A = construct_case("codim1/pair", {"alpha": F(1), "beta": F(-1)})
    assert sorted(A.sagbi_basis().degrees) == [2, 3]
    assert A.contains(_pp("(x-1)*(x+1)"))
    assert A.contains(_pp("(x-1)^2*(x+1)"))

    A = construct_case("codim2/s=1", {"alpha": F(0), "a": F(3), "b": F(1)})
    assert type_of(A) == (3, 4, 5)
    for L in A.conditions():
        assert all(o >= 1 for o, _, _ in L.terms)

    A = construct_case("codim3/s=1/case2",
                       {"alpha": F(0), "a": F(1), "d": F(0)})
    assert type_of(A) == (3, 5, 7)
    assert A.contains(_pp("x^3 - x^2"))

    assert type_of(_alg("x^3 - x", "x^2")) == (2, 3)


def check_codimensions():
    assert _alg("x^3 - x", "x^2").codimension() == 1
    assert _alg("x^4", "x^3 - x").codimension() == 3
    assert _alg("x^4 - x^2", "x^3").codimension() == 3


def check_oracle_membership():
    gens = [_pp("x^3 - x"), _pp("x^2")]
    assert oracle_member(_pp("x^7 - x"), gens)
    assert not oracle_member(_pp("x"), gens)


def check_oracle_char_roots():
    roots = oracle_multi_char_roots([_pp("x^3 - x"), _pp("x^2")])
    assert sorted(round(z.real) for z in roots) == [-1, 1]
    assert all(abs(z.imag) < 1e-8 for z in roots)

    gens = [_pp("x^12 + 3*x^6"), _pp("x^15"), _pp("x^10")]
    roots = oracle_multi_char_roots(gens)
    b = _pp("x^24 + 6*x^18 + 36*x^12 + 81*x^6 + 81")
    nonzero = [z for z in roots if abs(z) > 1e-8]
    assert len(nonzero) == 24
    assert any(abs(z) <= 1e-8 for z in roots)
    for z in nonzero:
        val = 0j
        for k in range(b.degree, -1, -1):
            val = val * z + complex(b.coeff(k))
        assert abs(val) < 1e-6 * max(1.0, abs(z) ** b.degree)


CHECKS = [
    ("evaluation difference at 1 and -1", check_eval_difference),
    ("number-field generator powers", check_number_field_powers),
    ("divided-difference tables", check_divided_differences),
    ("resultant in y of divided differences", check_resultant_in_y),
    ("characteristic polynomial of pairs", check_charpoly_pair),
    ("characteristic polynomial of three generators", check_charpoly_multi),
    ("partial-derivative identity", check_partial_derivative_identity),
    ("square-free decomposition", check_squarefree_decomposition),
    ("exact and numeric root finding", check_root_finding),
    ("degree-semigroup gaps and genus", check_semigroups),
    ("type enumeration for genus 1-3", check_genus_type_tables),
    ("subduction remainder", check_subduction),
    ("basis completion", check_sagbi_completion),
    ("single-condition kernels", check_single_condition_kernels),
    ("membership decisions", check_membership),
    ("linear-functional application", check_functional_application),
    ("condition-set recognition", check_condition_set_recognition),
    ("kernel subalgebras of condition sets", check_kernel_examples),
    ("condition recovery from algebras", check_condition_recovery),
    ("join of disjoint-spectrum algebras", check_join_is_everything),
    ("spectrum computation", check_spectra),
    ("cluster computation", check_clusters),
    ("spectrum size bound", check_size_bound),
    ("degree-two normal form", check_degree_two_normal_form),
    ("cotangent-space dimensions", check_cotangent_dimensions),
    ("derivation spaces", check_derivation_spaces),
    ("derivation-dimension equality", check_dimension_conjecture_examples),
    ("odd-derivation coefficient rows", check_ln_rows),
    ("integral derivations", check_integral_derivation),
    ("classification of known algebras", check_classification_examples),
    ("canonical case constructions", check_canonical_constructions),
    ("codimension values", check_codimensions),
    ("membership oracle", check_oracle_membership),
    ("root oracle for characteristic polynomials", check_oracle_char_roots),
]


def run_verify():
    """Run every check; returns [(name, ok, detail)]."""
    rows = []
    for name, fn in CHECKS:
        try:
            fn()
            rows.append((name, True, ""))
        except AssertionError as exc:
            rows.append((name, False, str(exc) or "assertion failed"))
        except Exception as exc:                       # noqa: BLE001
            rows.append((name, False, f"{type(exc).__name__}: {exc}"))
    return rows
