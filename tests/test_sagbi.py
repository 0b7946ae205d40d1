import random
from fractions import Fraction as F
from functools import reduce
from math import gcd

import pytest

from case_draws import all_draws
from subalg import sagbi
from subalg.classify import construct_case
from subalg.conditions import LinearFunctional, _dot, kernel_subalgebra
from subalg.errors import InfiniteCodimension
from subalg.fields import QQ, NumberField, common_field, is_zero_scalar
from subalg.oracle import oracle_codimension, oracle_member
from subalg.parsing import parse_poly as P
from subalg.poly import Poly, _int_scaled
from subalg.sagbi import (SagbiBasis, membership, sagbi_complete,
                          sagbi_extend, subduce)
from subalg.semigroup import NOT_MEMBER, DegreeSemigroup


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


def test_complete_settles_a_degree_gcd_above_one(monkeypatch):
    # completion can lower the gcd of the generator degrees: chi of the
    # generators decides, and is 0 only for infinite codimension
    for srcs, genus in ((("x^2", "x^4 + x"), 0),       # K[x]
                        (("x^2", "x^6 + x^3"), 1),     # K[x^2, x^3]
                        (("x^4", "x^6 + x"), 5)):
        gens = [P(src) for src in srcs]
        basis = sagbi_complete(gens)
        assert basis.semigroup.genus == genus == oracle_codimension(gens)
        assert all(oracle_member(e, gens) for e in basis.elements)
        assert all(membership(g, basis)[0] for g in gens)
    gens = [P("x^2"), P("x^4 + x^2")]
    with pytest.raises(InfiniteCodimension):
        sagbi_complete(gens)
    assert not any(oracle_member(P(f"x^{k}"), gens) for k in (1, 3, 5, 7))
    # degrees with gcd 1 take no resultant
    monkeypatch.setattr(sagbi, "_lattice_gcd", None)
    assert sagbi_complete([P("x^3 - x"), P("x^2")]).semigroup.genus == 1


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


def reference_minimalize(basis):
    """The `_minimalize` that the minimal-generator rule replaced: drop an
    element while the rest keeps the genus and subduces it away."""
    elements = list(basis.elements)
    changed = True
    while changed and len(elements) > 1:
        changed = False
        for i, e in enumerate(elements):
            rest = elements[:i] + elements[i + 1:]
            if reduce(gcd, (r.degree for r in rest)) != 1:
                continue
            rest_sg = DegreeSemigroup([r.degree for r in rest])
            if not rest_sg.contains(e.degree):
                continue
            if rest_sg.genus != basis.semigroup.genus:
                continue
            rem, _ = subduce(e, SagbiBasis(rest, rest_sg))
            if rem.degree < 1:
                elements = rest
                changed = True
                break
    return SagbiBasis(elements)


def _generator_sets():
    """Case-draw bases with and without redundant products, and random
    coprime-degree pairs with their products."""
    for label, params, _ in all_draws()[::4]:
        elements = construct_case(label, params).sagbi_basis().elements
        yield list(elements)
        yield list(elements) + [elements[0] * e for e in elements]
    rng = random.Random(20261018)
    for m, n in ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5)):
        p, q = (Poly([F(rng.randint(-3, 3)) for _ in range(d)] + [F(1)])
                for d in (m, n))
        yield [p, q, p * q, p * p]


def test_minimalize_matches_the_retired_loop(monkeypatch):
    for gens in _generator_sets():
        monkeypatch.setattr(sagbi, "_minimalize", reference_minimalize)
        old = sagbi_complete(gens)
        monkeypatch.undo()
        new = sagbi_complete(gens)
        assert new.elements == old.elements, gens
        assert new.semigroup == old.semigroup, gens


def reference_subduce(f, basis):
    """`subduce` before the cleared kernel: the number-field loop, which
    was the Q loop too before the integer kernel (verbatim)."""
    field = common_field(f.field, basis.field)
    coeffs = list(f.coerce_to(field).coeffs)
    steps = []
    S = basis.semigroup
    while len(coeffs) > 1:
        d = len(coeffs) - 1
        rep = S.represent(d)
        if rep is NOT_MEMBER:
            break
        c = coeffs.pop()
        prod = basis.product_for(rep).coerce_to(field).coeffs  # monic
        for k, b in enumerate(prod[:d]):
            if b:
                coeffs[k] = coeffs[k] - c * b
        while coeffs and is_zero_scalar(coeffs[-1]):
            coeffs.pop()
        steps.append((d, c, rep))
    return Poly(coeffs, field), steps


def _subduction_inputs(basis, rng):
    """Members of the algebra of `basis` (random rational combinations of
    its degree products) and the same plus a random dense polynomial."""
    bound = basis.semigroup.conductor + 2 * max(basis.degrees)
    products = basis.degree_products(bound)
    for _ in range(3):
        member = Poly.zero(basis.field)
        for prod in products:
            if rng.random() < 0.6:
                member = member + prod * F(rng.randint(-40, 40),
                                           rng.randint(1, 12))
        noise = Poly([F(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in range(rng.randint(1, bound))])
        yield member
        yield member + noise
        yield noise


def _non_integral_bases():
    """Monic bases whose degree products have denominators != 1."""
    gens = [P("x^2 + x/3"), P("x^3 - x/2")]
    return [sagbi_complete(gens), SagbiBasis(gens),
            sagbi_complete([P("x^3 - 2/7*x^2 + x/5"), P("x^4 + 3/4*x")])]


def test_subduce_matches_the_fraction_loop():
    rng = random.Random(20261022)
    bases = [construct_case(label, params).sagbi_basis()
             for label, params, _ in all_draws()] + _non_integral_bases()
    for basis in bases:
        for f in _subduction_inputs(basis, rng):
            rem, steps = subduce(f, basis)
            old_rem, old_steps = reference_subduce(f, basis)
            assert rem.coeffs == old_rem.coeffs and rem.field is old_rem.field
            assert steps == old_steps
    for basis in _non_integral_bases():
        reps = [basis.semigroup.represent(d) for d in range(2, 12)]
        assert any(basis.cleared_product(rep, QQ)[1] != 1 for rep in reps
                   if rep is not NOT_MEMBER)


def test_subduce_over_a_larger_field_reuses_the_basis_products(
        monkeypatch):
    # f over Q(i) against a Q basis: the remainder is the retired loop's,
    # and a second subduction multiplies no polynomials again
    nf = NumberField([1, 0, 1], "Q(i)")
    i = nf.gen()
    basis = _non_integral_bases()[0]
    f = P("x^9 - 3/2*x^4 + x") * i + P("x^8 + x^5/7")
    old_rem, old_steps = reference_subduce(f, basis)
    products = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    for _ in range(2):
        products.clear()
        rem, steps = subduce(f, basis)
        assert rem.coeffs == old_rem.coeffs and rem.field is nf
        assert steps == old_steps
    assert len(old_steps) > 1 and not products


def test_dot_matches_the_fraction_dot():
    rng = random.Random(20261023)

    def row(n):
        return [F(0) if rng.random() < 0.3 else
                F(rng.randint(-2 ** 120, 2 ** 120), rng.randint(1, 2 ** 90))
                for _ in range(n)]

    for _ in range(100):
        a, b = row(rng.randint(0, 12)), row(rng.randint(0, 12))
        value = _dot(_int_scaled(a, QQ), _int_scaled(b, QQ), QQ)
        assert type(value) is F
        assert value == sum((u * v for u, v in zip(a, b)), F(0))
    functionals = [
        LinearFunctional.difference(F(1, 3), F(-5, 2)),
        LinearFunctional.derivative_combo(
            [(1, F(2, 7), F(3)), (2, F(-1), F(-1, 4)), (0, F(1, 9), F(5)),
             (0, F(0), F(-5))])]
    for L in functionals:
        for _ in range(20):
            f = Poly(row(rng.randint(0, 10)))
            expected = sum((c * r for c, r in
                            zip(f.coeffs, L.monomial_row(f.degree, QQ))),
                           F(0))
            assert L.apply(f) == expected


def _number_field_bases():
    """SAGBI bases over the moduli of tests/test_roots.py (t^2 - 1/2 has
    mu = 2), with non-rational coefficients, and the bases of the
    number-field case draws."""
    out = []
    for modulus in ([1, 0, 1], [-2, 0, 1], [-2, 0, 0, 1], [1, 0, 0, 0, 1],
                    [F(-1, 2), 0, 1]):
        nf = NumberField(modulus)
        t = nf.gen()
        gens = [Poly([nf.zero, t, F(1, 3) * t, nf.one], nf),
                Poly([F(2), nf.zero, t + 1, nf.zero, nf.one], nf)]
        out += [sagbi_complete(gens), SagbiBasis(gens)]
    out += [construct_case(label, params).sagbi_basis()
            for label, params, _ in all_draws()
            if any(hasattr(v, "field") for v in params.values())]
    return out


def _field_subduction_inputs(basis, rng):
    """As `_subduction_inputs`, with coefficients in the basis field."""
    nf = basis.field
    bound = basis.semigroup.conductor + max(basis.degrees)

    def scalar():
        return nf.from_coeffs([F(rng.randint(-20, 20), rng.randint(1, 6))
                               for _ in range(nf.degree)])

    for _ in range(2):
        member = Poly.zero(nf)
        for prod in basis.degree_products(bound):
            if rng.random() < 0.6:
                member = member + prod * scalar()
        noise = Poly([scalar() for _ in range(rng.randint(1, bound))], nf)
        yield member
        yield member + noise
        yield noise


def test_subduce_matches_the_field_elem_loop():
    rng = random.Random(20261029)
    for basis in _number_field_bases():
        inputs = list(_field_subduction_inputs(basis, rng))
        # a Q polynomial against a number-field basis, and a number-field
        # polynomial against a Q basis of the same algebra
        inputs.append(P("x^6 - 2/3*x^4 + x"))
        for f in inputs:
            rem, steps = subduce(f, basis)
            old_rem, old_steps = reference_subduce(f, basis)
            assert rem.coeffs == old_rem.coeffs and rem.field is old_rem.field
            assert steps == old_steps
        assert any(membership(f, basis)[0] for f in inputs)
    rational = sagbi_complete([P("x^3 - x"), P("x^2")])
    nf = NumberField([1, 0, 1])
    f = P("x^5 - 3*x^3 + x^2").coerce_to(nf) + Poly([nf.zero, nf.gen()], nf)
    rem, steps = subduce(f, rational)
    old_rem, old_steps = reference_subduce(f, rational)
    assert rem.coeffs == old_rem.coeffs and rem.field is nf
    assert steps == old_steps
