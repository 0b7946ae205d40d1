from fractions import Fraction as F

import pytest

import fraction_reference as ref
from case_draws import affine_variants, all_draws, family_draws
from subalg import spectrum
from subalg.classify import construct_case
from subalg.conditions import LinearFunctional, Subalgebra, kernel_subalgebra
from subalg.derivations import (NOT_INTEGRAL, _Jets, conjecture_dim_check,
                                derivation_space, integral_derivation,
                                k_alpha, ln_coefficients)
from subalg.errors import EvenInput, SpectrumNotExact
from subalg.fields import NumberField, common_field, field_of, is_zero_scalar
from subalg.linalg import extend_echelon, rref
from subalg.parsing import parse_poly as P
from subalg.poly import Poly
from subalg.sagbi import sagbi_complete


def alg(*srcs):
    return Subalgebra.from_generators([P(s) for s in srcs])


def deriv(*terms):
    return LinearFunctional.derivative_combo(
        [(o, F(p), F(c)) for o, p, c in terms])


def test_k_alpha_values():
    assert k_alpha(alg("x^2", "x^3"), F(0)) == 2
    assert k_alpha(alg("x^2", "x^3"), F(5)) == 1
    assert k_alpha(alg("x^3", "x^4"), F(0)) == 2


def test_k_alpha_cluster():
    A = kernel_subalgebra([LinearFunctional.difference(F(0), F(1)),
                           LinearFunctional.difference(F(0), F(2))])
    assert k_alpha(A, F(0)) == 3


def test_derivation_space_single_point():
    A = kernel_subalgebra([deriv((1, 0, 1))])
    space = derivation_space(A, F(0))
    assert space.dimension == 2 == space.k_alpha
    for D in space.combo_basis:
        assert all(order >= 2 for order, _, _ in D.terms)


def test_derivation_space_off_spectrum():
    A = alg("x^2", "x^3")
    space = derivation_space(A, F(7))
    assert space.dimension == 1
    D = space.combo_basis[0]
    assert [(o, p) for o, p, _ in D.terms] == [(1, F(7))]


def test_leibniz_holds_for_solutions():
    A = kernel_subalgebra([LinearFunctional.difference(F(1), F(-1))])
    space = derivation_space(A, F(1))
    basis = A.sagbi_basis()
    for D in space.combo_basis:
        for f in basis.elements:
            for g in basis.elements:
                left = D.apply(f * g)
                right = D.apply(f) * g(F(1)) + f(F(1)) * D.apply(g)
                assert left == right


def test_conjecture_check_report():
    report = conjecture_dim_check(alg("x^2", "x^3"), F(0))
    assert report["equal"] and report["k_alpha"] == 2
    assert report["proved_region"]


def test_ln_rows_golden():
    assert ln_coefficients(1) == {1: 1}
    assert ln_coefficients(3) == {3: 1, 2: -1}
    assert ln_coefficients(9) == {9: 1, 8: -4, 6: 11, 4: -11}
    assert ln_coefficients(13) == \
        {13: 1, 12: -6, 10: 50, 8: -294, 6: 882, 4: -882}


def test_ln_rejects_even():
    with pytest.raises(EvenInput):
        ln_coefficients(4)


def test_integral_derivation():
    B = alg("x^2", "x^3")
    A = alg("x^2", "x^5")
    L = deriv((1, 0, 1))
    D = integral_derivation(B, A, L, P("x"))
    assert D is not NOT_INTEGRAL
    assert all(order >= 1 for order, _, _ in D.terms)


def test_integral_rejected_when_product_leaves():
    B = alg("x^3", "x^4")
    A = alg("x^3", "x^5")
    L = deriv((1, 0, 1))
    assert integral_derivation(B, A, L, P("x")) is NOT_INTEGRAL


def test_partial_cluster_is_an_error():
    # the cluster {1, sqrt 2, -sqrt 2} of A = Q[(x^2-2)^2 (x-1) x^k] has
    # numeric members over Q: derivations at 1 alone would give dimension
    # 1 against k_alpha = 5, so no derivation space is given; over
    # Q(sqrt 2) the whole cluster is exact and the dimensions agree
    gens = [f"(x^2 - 2)^2 * (x - 1) * x^{k}" for k in range(5)]
    A = Subalgebra.from_generators([P(g) for g in gens])
    with pytest.raises(SpectrumNotExact):
        derivation_space(A, F(1))
    nf = NumberField([-2, 0, 1], label="t^2-2")
    A = Subalgebra.from_generators([P(g, field=nf) for g in gens])
    space = derivation_space(A, nf.one)
    assert space.dimension == space.k_alpha == 5


# --- the spectrum-read cluster and the H² modulus that g replaced ----------

def _spectrum_cluster(A, alpha, field):
    """The cluster of α read off `A.spectrum(nf=field)`, α first; [α]
    off the spectrum."""
    A = Subalgebra.of(A)
    if not is_zero_scalar(A.conductor()(alpha)):
        return [alpha]
    point = next(p for p in A.spectrum(nf=field)
                 if p.exact and field.coerce(p.value) == alpha)
    members = point.cluster.members
    values = [field.coerce(p.value) for p in members if p.exact]
    if len(values) < len(members):
        raise SpectrumNotExact(f"the cluster of {alpha!r} is not exact")
    return [alpha] + [v for v in values if v != alpha]


def _squared_modulus_space(A, alpha):
    """(k_α, combo terms, witnesses) modulo G = H², with jets of order
    < 2·ord_β H at each point β of `_spectrum_cluster`: M_α² modulo G by
    `linalg`, the jets and their nullspace by plain field elements."""
    basis = A.sagbi_basis()
    field = common_field(basis.field, field_of(alpha))
    basis, alpha = basis.coerce_to(field), field.coerce(alpha)
    H = basis.conductor()
    if not is_zero_scalar(H(alpha)):
        H = H * Poly((-alpha, field.one), field)
    G = H * H
    D = G.degree
    m = [p - p(alpha) for p in basis.degree_products(D - 1)[1:]]
    size = D * field.degree

    def cleared(h):
        row = h.cleared()[0]
        return row + [0] * (size - len(row))

    red, pivots = [], []
    for e in basis.elements:
        for p in m:
            extend_echelon(cleared((e - e(alpha)) * p % G), red, pivots,
                           field)
    k = len(m) - len(red)
    points = _spectrum_cluster(A, alpha, field)
    mults = [2 * H.order_at(point) for point in points]
    coords = [(order, j) for order in range(1, max(mults))
              for j, mult in enumerate(mults) if order < mult]

    def jets(h):
        return [h.derivative(order)(points[j]) for order, j in coords]

    vectors = ref.nullspace([jets(Poly(row, field)) for row in
                             rref(red, D, field)[0]], len(coords), field)
    vectors, _ = ref.rref(vectors, len(coords), field)
    values = [jets(p) for p in m]
    chosen, acted, acted_pivots = [], [], []
    for vec in vectors:
        action = [sum((c * v for c, v in zip(vec, pv)), field.zero)
                  for pv in values]
        if ref.extend_echelon(action, acted, acted_pivots, field):
            chosen.append(vec)
    combos = [tuple((order, points[j], c) for (order, j), c in
                    zip(coords, vec) if not is_zero_scalar(c))
              for vec in chosen]
    witnesses = [p for p in m if extend_echelon(cleared(p), red, pivots,
                                                 field)]
    return k, combos, witnesses


def test_gcd_modulus_matches_the_squared_modulus():
    # every draw and its first affine image, at every exact spectrum
    # point and one point off the spectrum; and a cluster {0, 1, 2, 3}
    # whose points are roots of c of orders 2, 2, 1, 1, so that the
    # points of the cluster must be ordered by that order first
    cases = [(label, construct_case(label, moved))
             for label, params, _ in all_draws()
             for moved in (params, affine_variants(params)[0])]
    cases.append(("orders", kernel_subalgebra(
        [LinearFunctional.difference(F(0), F(b)) for b in (1, 2, 3)] +
        [deriv((1, 0, 1), (1, 1, -2))])))
    checked = 0
    for label, A in cases:
        points = [p.value for p in A.spectrum() if p.exact]
        assert points, label
        for alpha in points + [F(11, 3)]:
            space = derivation_space(A, alpha)
            k, combos, witnesses = _squared_modulus_space(A, alpha)
            assert space.k_alpha == k, label
            assert [D.terms for D in space.combo_basis] == combos, label
            assert space.quotient_witnesses == witnesses, label
            checked += 1
    assert checked > 4 * len(all_draws())


def _assert_modulus(A, alpha, degree, squared_degree):
    jets = _Jets(A, alpha)
    assert jets.degree == degree
    assert 2 * jets.H.degree == squared_degree
    assert (jets.H * jets.H) % (jets.H * jets.g) == Poly.zero(jets.field)


def test_the_modulus_is_h_times_the_gcd():
    A = alg("x^2", "x^3")
    _assert_modulus(A, F(0), 4, 4)      # H = g = x^2
    _assert_modulus(A, F(5), 4, 6)      # H = x^2 (x - 5), g = x - 5
    cluster = kernel_subalgebra([LinearFunctional.difference(F(0), F(1)),
                                 LinearFunctional.difference(F(0), F(2))])
    _assert_modulus(cluster, F(0), 6, 6)   # g = H = x (x - 1) (x - 2)
    jets = _Jets(cluster, F(2))
    assert [jets.multiplicity(F(b)) for b in range(4)] == [2, 2, 2, 0]
    # codim 3, s = 1: H = (x - alpha)^6, g = (x - alpha)^3 or (x - alpha)^2
    for label, degree in (("codim3/s=1/case1", 9), ("codim3/s=1/case2", 8)):
        params = next(p for name, p, _ in all_draws() if name == label)
        _assert_modulus(construct_case(label, params), params["alpha"],
                        degree, 12)


def test_an_unsplit_gcd_leftover_is_an_error(monkeypatch):
    # A = Q + x (x^2 - 2) Q[x]: f(0) = f(sqrt 2) = f(-sqrt 2), so the
    # cluster of 0 has two points outside Q, found as the factor x^2 - 2
    # of g that does not split; no spectrum is computed on the way
    A = alg(*[f"x^{k} * (x^2 - 2)" for k in (1, 2, 3)])
    assert A.codimension() == 2

    def no_spectrum(A, nf=None):
        raise AssertionError("a spectrum was computed")

    monkeypatch.setattr(spectrum, "compute_spectrum", no_spectrum)
    assert k_alpha(A, F(0)) == 3
    assert _Jets(A, F(0)).g == P("x^3 - 2*x")
    with pytest.raises(SpectrumNotExact):
        derivation_space(A, F(0))
    monkeypatch.undo()
    with pytest.raises(SpectrumNotExact):
        _spectrum_cluster(A, F(0), A.sagbi_basis().field)


# --- the bound-growing path that the exact presentation replaced ----------

def _old_spans(basis, alpha, bound):
    """Spanning sets of M_α and of M_α² up to the degree bound."""
    m1 = [p - p(alpha) for p in basis.degree_products(bound)[1:]]
    m1 = [p for p in m1 if p.degree >= 1]
    m2 = [p * q for i, p in enumerate(m1) for q in m1[i:]
          if p.degree + q.degree <= bound]
    return m1, m2


def _old_row(p, bound):
    return [p.coeff(k) for k in range(bound + 1)]


def _old_k_alpha(basis, alpha, field):
    """dim M_α/M_α², stable twice over a growing degree bound.

    The ranks of both spans at each bound are kept in running echelon
    forms, padded with zero columns as the bound grows.
    """
    conductor = basis.semigroup.conductor
    step = max(conductor, 4)
    start = max(2 * conductor + 4, 8)
    forms = ([], [], []), ([], [], [])   # (rows, pivots, added) per span
    prev, stable, low = None, 0, 0
    for bound in range(start, start + 12 * step + 1, step):
        spans = _old_spans(basis, alpha, bound)
        for (red, pivots, added), span in zip(forms, spans):
            red[:] = [r + [field.zero] * (bound + 1 - len(r)) for r in red]
            added += [ref.extend_echelon(_old_row(h, bound), red, pivots,
                                         field)
                      for h in span if h.degree > low]
        low = bound
        value = sum(forms[0][2]) - sum(forms[1][2])
        if value == prev:
            stable += 1
            if stable >= 2:
                return value
        else:
            stable = 0
        prev = value
    raise AssertionError("old k_alpha did not stabilize")


def _old_derivation_space(A, alpha):
    """(k_α, combo terms, witnesses) from spans up to a degree bound."""
    basis = A.sagbi_basis() if hasattr(A, "sagbi_basis") else A
    field = common_field(basis.field, field_of(alpha))
    basis = basis.coerce_to(field)
    alpha = field.coerce(alpha)
    conductor = basis.semigroup.conductor
    max_order = max(conductor + 2, 2)
    k = _old_k_alpha(basis, alpha, field)
    points = _spectrum_cluster(A, alpha, field)
    bound = max(2 * conductor + 4, 2 * max_order + 4)
    m1, m2 = _old_spans(basis, alpha, bound)
    # equations on a basis of span(m2): same row space, fewer rows
    red2, piv2 = ref.rref([_old_row(h, bound) for h in m2], bound + 1,
                          field)
    squares = [Poly(row, field) for row in red2]
    aprods = basis.degree_products(bound)[1:]
    for attempt in range(2):
        coords = [(order, j) for order in range(1, max_order + 1)
                  for j in range(len(points))]
        equations = [[h.derivative(order)(points[j]) for order, j in coords]
                     for h in squares]
        vectors = ref.nullspace(equations, len(coords), field)
        vectors, _ = ref.rref(vectors, len(coords), field)
        values = [[p.derivative(order)(points[j]) for order, j in coords]
                  for p in aprods]
        chosen, red, pivots = [], [], []
        for vec in vectors:
            row = [sum((c * v for c, v in zip(vec, pv)), field.zero)
                   for pv in values]
            if ref.extend_echelon(row, red, pivots, field):
                chosen.append(vec)
        vectors = chosen
        if len(vectors) >= k or attempt == 1:
            break
        max_order += conductor + 2
    combos = [tuple((order, points[j], c)
                    for (order, j), c in zip(coords, vec)
                    if not is_zero_scalar(c)) for vec in vectors]
    witnesses = [p for p in m1
                 if ref.extend_echelon(_old_row(p, bound), red2, piv2, field)]
    return k, combos, witnesses


def _differential_cases():
    cases = []
    for label, params in family_draws():
        A = construct_case(label, params)
        alpha = params.get("alpha", params.get("gamma"))
        off = F(11, 3)
        assert not is_zero_scalar(A.char_poly()(off))
        cases += [(label, A, alpha), (label, A, off)]
    cases.append(("codim0", sagbi_complete([P("x"), P("x^2+1")]), F(3)))
    return cases


def test_exact_path_matches_bound_growing_path():
    for label, A, alpha in _differential_cases():
        space = derivation_space(A, alpha)
        k, combos, witnesses = _old_derivation_space(A, alpha)
        assert space.k_alpha == k_alpha(A, alpha) == k, (label, alpha)
        assert [D.terms for D in space.combo_basis] == combos, (label, alpha)
        assert space.quotient_witnesses == witnesses, (label, alpha)


@pytest.mark.parametrize("coefficients", ["Q", "Q(sqrt 2)"])
def test_cluster_at_a_point_of_an_extension_field(coefficients):
    # K[x^2, x^3 - 2x]: the spectrum {t, -t} (t^2 = 2) is one cluster, so
    # alpha = t carries f'(t) and f'(-t) whether A is over Q or over Q(t)
    nf = NumberField([-2, 0, 1], label="t^2-2")
    t = nf.gen()
    field = nf if coefficients != "Q" else None
    A = Subalgebra.from_generators([P("x^2", field=field),
                                    P("x^3 - 2*x", field=field)])
    space = derivation_space(A, t)
    assert space.k_alpha == 2
    assert [repr(D) for D in space.combo_basis] == ["f'(t)", "f'(-t)"]
    assert conjecture_dim_check(A, t)["equal"]


def _assert_leibniz(A, space):
    """D(fg) = D(f)·g(α) + f(α)·D(g) for every solved D and every pair of
    degree products of degree 1 .. conductor + 4, with D applied through
    its monomial row by a plain sum."""
    basis = A.sagbi_basis()
    field = common_field(basis.field, field_of(space.alpha))
    alpha, bound = space.alpha, basis.semigroup.conductor + 4
    products = [p.coerce_to(field)
                for p in basis.degree_products(bound)[1:]]
    at_alpha = [f(alpha) for f in products]
    for D in space.combo_basis:
        row = ref.monomial_row(D, 2 * bound, field)

        def apply(f):
            return sum((c * r for c, r in zip(f.coeffs, row)), field.zero)

        value = [apply(f) for f in products]
        for i, f in enumerate(products):
            for j in range(i, len(products)):
                assert apply(f * products[j]) == \
                    value[i] * at_alpha[j] + at_alpha[i] * value[j]


def test_every_solved_derivation_satisfies_leibniz():
    checked = 0
    for label, params, _ in all_draws():
        for moved in [params] + affine_variants(params):
            A = construct_case(label, moved)
            space = derivation_space(A, moved.get("alpha", moved.get("gamma")))
            assert space.dimension >= 1
            _assert_leibniz(A, space)
            checked += 1
    assert checked == 5 * len(all_draws())
