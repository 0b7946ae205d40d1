import random
from fractions import Fraction as F
from functools import reduce
from math import gcd

import pytest

import fraction_reference as ref
from case_draws import all_draws
from subalg import sagbi
from subalg.classify import construct_case
from subalg.conditions import (LinearFunctional, Subalgebra, _dot,
                               is_subalgebra_condition_set, kernel_subalgebra)
from subalg.errors import (ConditionVanishesOnB, InfiniteCodimension,
                           NotSubalgebraConditions, SubalgError)
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


def test_complete_checks_relations_above_conductor_plus_max_degree():
    # completion reaches x^5, x^6 + x^3, x^7, x^8, x^9 + x^6/2, whose
    # semigroup has conductor 5; the relation x^7·x^8 − (x^5)^3 of degree
    # 15 lies above 5 + 9 and subduces to −x^3/4, so x^3 is in the algebra
    gens = [P("x^6 + x^3"), P("x^5"), P("x^7")]
    A = Subalgebra.from_generators(gens)
    assert A.codimension() == 3 == oracle_codimension(gens)
    assert A.sagbi_basis().degrees == (3, 5, 7)
    assert A.conductor() == P("x^5")


# (h, a, b): generators x^(2h) + c·x^h, x^a, x^b
_MULTI_TRIPLES = ((2, 5, 7), (3, 5, 7), (2, 7, 9), (3, 7, 5), (2, 10, 15),
                  (3, 7, 9), (2, 9, 7), (3, 10, 15))


def test_complete_matches_the_oracle_on_the_multi_generator_triples():
    rng = random.Random(20261025)
    for h, a, b in _MULTI_TRIPLES:
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        gens = [Poly.monomial(2 * h) + c * Poly.monomial(h),
                Poly.monomial(a), Poly.monomial(b)]
        basis = sagbi_complete(gens)
        assert basis.semigroup.genus == oracle_codimension(gens), (h, a, b, c)
        assert all(oracle_member(e, gens) for e in basis.elements)


def _factorizations(d, degrees):
    """Every multiset of `degrees` summing to d, as exponent tuples."""
    if not degrees:
        return [()] if d == 0 else []
    first, rest = degrees[0], degrees[1:]
    return [(k,) + tail for k in range(d // first + 1)
            for tail in _factorizations(d - k * first, rest)]


def _class_count(factorizations):
    """Connected components of the graph linking two factorizations that
    share a degree."""
    seen, count = set(), 0
    for i in range(len(factorizations)):
        if i in seen:
            continue
        count, stack = count + 1, [i]
        seen.add(i)
        while stack:
            u = factorizations[stack.pop()]
            for j, v in enumerate(factorizations):
                if j not in seen and any(a and b for a, b in zip(u, v)):
                    seen.add(j)
                    stack.append(j)
    return count


def test_betti_degrees_lie_within_the_relations_bound():
    """Every degree whose factorizations fall into more than one linking
    class (a Betti degree) is at most F + a₁ + a₂, and `_relations`
    yields one relation per extra class in exactly those degrees; checked
    by brute force up to F + a₁ + a₂ + max degree, for every degree set in
    {2, …, 10} of size at most 4 with gcd 1."""
    from itertools import combinations
    for size in (2, 3, 4):
        for degrees in combinations(range(2, 11), size):
            if reduce(gcd, degrees) != 1:
                continue
            frobenius = DegreeSemigroup(degrees).conductor - 1
            bound = frobenius + degrees[-1] + degrees[-2]
            extra = {}
            for d in range(1, bound + degrees[-1] + 1):
                classes = _class_count(_factorizations(d, degrees))
                if classes > 1:
                    extra[d] = classes - 1
            assert max(extra) <= bound, degrees
            assert {sum(first): len(others) for first, others in
                    sagbi._relations(degrees, frobenius)} == extra, degrees


def test_two_elements_of_coprime_degrees_take_no_subduction(monkeypatch):
    def no_subduction(f, basis):
        raise AssertionError("subduce called")
    monkeypatch.setattr(sagbi, "subduce", no_subduction)
    rng = random.Random(20261026)
    for m, n in ((2, 3), (3, 5), (4, 7), (5, 6)):
        gens = [Poly([F(rng.randint(-3, 3)) for _ in range(k)] + [F(1)])
                for k in (m, n)]
        basis = sagbi_complete(gens)
        assert basis.degrees == (m, n)
        assert basis.semigroup.genus == (m - 1) * (n - 1) // 2
    monkeypatch.undo()
    assert sagbi_complete(gens).semigroup.genus == oracle_codimension(gens)


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
    extended = Subalgebra(_sagbi=sagbi_extend(basis, L))
    assert extended == kernel_subalgebra([L])


def test_extend_one_condition_at_a_time_matches_the_kernel():
    # K[x] cut down by each draw's conditions in turn, where every prefix
    # of them cuts out an algebra, is the draw's algebra
    chains = 0
    for label, params, _ in all_draws()[::3]:
        A = construct_case(label, params)
        conds = A.conditions()
        if not all(is_subalgebra_condition_set(conds[:k + 1])
                   for k in range(len(conds))):
            continue
        basis = SagbiBasis([Poly.x(A.field)])
        for L in conds:
            basis = sagbi_extend(basis, L)
        assert Subalgebra(_sagbi=basis) == A, (label, params)
        chains += 1
    assert chains >= 15


def reference_sagbi_extend(basis, functional):
    """The `sagbi_extend` that one projection replaced: project the basis
    elements, g·e_j and g³ away from the first element g with L(g) != 0,
    complete, and check the result afterwards (verbatim)."""
    elems = list(basis.elements)
    g = None
    for e in elems:
        if not is_zero_scalar(functional.apply(e)):
            g = e
            break
    if g is None:
        raise ConditionVanishesOnB(
            "functional vanishes on the whole algebra: codimension "
            "does not grow")
    c = functional.apply(g)

    def project(u):
        return u - (functional.apply(u) / c) * g.coerce_to(
            common_field(u.field, g.field))

    candidates = []
    for e in elems:
        if e is not g:
            candidates.append(project(e))
    for e in elems:
        candidates.append(project(g * e))
    candidates.append(project(g * g * g))
    candidates = [u for u in candidates if u.degree >= 1]
    result = sagbi_complete(candidates)
    for u in result.elements:
        if not is_zero_scalar(functional.apply(u)):
            raise SubalgError("extension element violates the functional")
    return result


def _extension_inputs(rng):
    """(basis, functional) pairs: case-draw bases (every number-field draw
    among them), against random difference and first-derivative
    conditions, which always cut out an algebra, and second-order or
    mixed-order ones, which mostly do not; at small rational points, and
    at points of Q(i) and of Q[t]/(t^4 + 1) for the Q bases."""
    qi, q8 = NumberField([1, 0, 1], "Q(i)"), NumberField([1, 0, 0, 0, 1])
    draws = all_draws()
    picked = draws[::4] + [d for d in draws
                           if any(hasattr(v, "field") for v in d[1].values())]
    for label, params, _ in picked:
        basis = construct_case(label, params).sagbi_basis()
        fields = [QQ] if basis.field is not QQ else [QQ, qi, q8]
        for field in fields:
            t = field.one if field is QQ else field.gen()
            a, b = (rng.randint(-2, 2) + rng.randint(0, 1) * t
                    for _ in range(2))
            if a != b:
                yield basis, LinearFunctional.difference(a, b)
            yield basis, LinearFunctional.derivative_combo([(1, a, F(1))])
            yield basis, LinearFunctional.derivative_combo(
                [(2, a, F(1))] if rng.random() < 0.5 else
                [(1, a, F(1)), (0, a + 1, F(1)), (0, a, F(-1))])


def test_extend_matches_the_completion_it_replaced():
    outcomes, fields = {}, set()
    for basis, L in _extension_inputs(random.Random(20261019)):
        try:
            old = reference_sagbi_extend(basis, L)
        except SubalgError as exc:
            old = exc
        try:
            new = sagbi_extend(basis, L)
        except SubalgError as exc:
            new = exc
        if isinstance(old, ConditionVanishesOnB):
            assert isinstance(new, ConditionVanishesOnB), (basis, L)
        elif isinstance(old, SubalgError):
            assert isinstance(new, NotSubalgebraConditions), (basis, L)
        else:
            assert Subalgebra(_sagbi=new) == Subalgebra(_sagbi=old), (basis,
                                                                      L)
            assert new.semigroup.genus == basis.semigroup.genus + 1
            assert all(is_zero_scalar(L.apply(e)) and membership(e, basis)[0]
                       for e in new.elements)
            fields.add(new.field.degree)
        outcome = type(new).__name__
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes["SagbiBasis"] >= 50
    assert outcomes["ConditionVanishesOnB"] and \
        outcomes["NotSubalgebraConditions"]
    assert fields == {1, 2, 4}


def test_extend_rejects_a_kernel_that_is_no_algebra():
    # mixed orders: L = f'(0) + f(1) − f(0) on K[x] kills x² − x/2 but not
    # its square
    x = sagbi_complete([P("x")])
    L = LinearFunctional.derivative_combo(
        [(1, F(0), F(1)), (0, F(1), F(1)), (0, F(0), F(-1))])
    with pytest.raises(NotSubalgebraConditions):
        sagbi_extend(x, L)
    assert not is_subalgebra_condition_set([L])
    # f''(0) on K[x]: the completion claimed that it vanishes on all of
    # K[x], as it vanishes on x; but L(x²) = 2, and L(x·x) != 0
    L = LinearFunctional.derivative_combo([(2, F(0), F(1))])
    assert L.apply(P("x^2")) == 2
    with pytest.raises(NotSubalgebraConditions):
        sagbi_extend(x, L)
    with pytest.raises(ConditionVanishesOnB):
        reference_sagbi_extend(x, L)
    # on K[x², x³] the same L cuts out an algebra: K[x³, x⁴, x⁵]
    cusp = sagbi_complete([P("x^2"), P("x^3")])
    assert sagbi_extend(cusp, L).degrees == (3, 4, 5)


def test_extend_raises_when_the_functional_vanishes():
    # f(1) − f(−1) vanishes on K[x², x³ − x], f'(0) on K[x², x³]
    for gens, L in (
            (("x^2", "x^3 - x"), LinearFunctional.difference(F(1), F(-1))),
            (("x^2", "x^3"),
             LinearFunctional.derivative_combo([(1, F(0), F(1))]))):
        with pytest.raises(ConditionVanishesOnB):
            sagbi_extend(sagbi_complete([P(g) for g in gens]), L)


def test_the_conductor_is_computed_once_per_basis(monkeypatch):
    from subalg import conditions
    computed = []
    solve = conditions.conductor
    monkeypatch.setattr(conditions, "conductor",
                        lambda basis: computed.append(basis) or solve(basis))
    # an algebra cut out by conditions reads its conductor off them
    A = construct_case("codim2/s=1", {"alpha": F(0), "a": F(0), "b": F(1)})
    assert A.conductor().degree == 4 and computed == []
    B = Subalgebra.from_generators(A.sagbi_basis().elements)
    c = B.conductor()
    for L in (LinearFunctional.difference(F(1), F(2)),
              LinearFunctional.derivative_combo([(1, F(1), F(1))])):
        sagbi_extend(B.sagbi_basis(), L)
    assert len(computed) == 1 and c == A.conductor()
    # coerce_to hands the conductor on, coerced
    qi = NumberField([1, 0, 1])
    assert B.sagbi_basis().coerce_to(qi).conductor() == c.coerce_to(qi)
    assert len(computed) == 1


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
        assert any(basis.product_for(rep).cleared()[1] != 1 for rep in reps
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
                            zip(f.coeffs, ref.monomial_row(L, f.degree, QQ))),
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
