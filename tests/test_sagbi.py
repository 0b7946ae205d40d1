from fractions import Fraction as F

from subalg.conditions import LinearFunctional, kernel_subalgebra
from subalg.parsing import parse_poly as P
from subalg.sagbi import (SagbiBasis, membership, sagbi_complete,
                          sagbi_extend, subduce)


def test_complete_already_closed():
    basis = sagbi_complete([P("x^3 - x"), P("x^2")])
    assert sorted(basis.degrees) == [2, 3]
    assert basis.semigroup.genus == 1


def test_complete_adds_elements():
    # the generator degrees 3, 4, 5 suggest genus 2, but the algebra is all
    # of K[x]; completion must discover the low-degree elements
    basis = sagbi_complete([P("x^4"), P("x^5"), P("x^3 - x")])
    assert basis.semigroup.genus == 0
    assert 1 in basis.degrees


def test_subduction_certificates():
    basis = sagbi_complete([P("x^3 - x"), P("x^2")])
    rem, cert = subduce(P("x^7 - x"), basis)
    assert rem.degree < 1
    rebuilt = rem
    for _degree, coeff, rep in cert:
        prod = None
        for d in rep:
            e = next(e for e in basis.elements if e.degree == d)
            prod = e if prod is None else prod * e
        rebuilt = rebuilt + prod * coeff
    assert rebuilt == P("x^7 - x")


def test_membership_decisions():
    basis = sagbi_complete([P("x^3 - x"), P("x^2")])
    assert membership(P("x^9 - x"), basis)[0]
    assert not membership(P("x"), basis)[0]
    assert membership(P("7"), basis)[0]


def test_extend_by_functional():
    basis = sagbi_complete([P("x")])
    L = LinearFunctional.derivative_combo([(1, F(0), F(1))])
    extended = sagbi_extend(basis, L)
    assert sorted(extended.degrees) == [2, 3]
    for e in extended.elements:
        assert L.apply(e) == 0


def test_extend_matches_kernel():
    L = LinearFunctional.difference(F(0), F(1))
    basis = sagbi_complete([P("x")])
    extended = sagbi_extend(basis, L)
    direct = kernel_subalgebra([L]).sagbi_basis()
    assert sorted(extended.degrees) == sorted(direct.degrees)


def test_coerce_to_number_field():
    from subalg.fields import NumberField
    nf = NumberField([1, 0, 1])
    basis = sagbi_complete([P("x^3 - x"), P("x^2")]).coerce_to(nf)
    assert basis.field is nf
    assert sorted(basis.degrees) == [2, 3]


def test_degree_products_one_per_semigroup_degree():
    basis = sagbi_complete([P("x^3 - x"), P("x^2")])
    products = basis.degree_products(6)
    assert [p.degree for p in products] == [0, 2, 3, 4, 5, 6]
    assert products[0] == 1
    assert all(membership(p, basis)[0] for p in products)
