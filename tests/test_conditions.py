import importlib
import random
from fractions import Fraction as F

import pytest

import fraction_reference as ref
from case_draws import affine_variants, all_draws, family_draws
from subalg import conditions, roots, spectrum
from subalg.classify import construct_case
from subalg.conditions import (LinearFunctional, Subalgebra, _JetTable,
                               _annihilator, _jet_image, _jet_row,
                               _normalize_conditions,
                               conditions_from_subalgebra, conductor,
                               intersect_and_join,
                               is_subalgebra_condition_set,
                               kernel_subalgebra)
from subalg.errors import (DegenerateConditions, NotSubalgebraConditions,
                           SpectrumNotExact, SubalgError)
from subalg.fields import (QQ, NumberField, common_field, field_of,
                           is_zero_scalar)
from subalg.linalg import cleared_nullspace, nullspace
from subalg.oracle import oracle_codimension, oracle_member
from subalg.parsing import parse_poly as P
from subalg.poly import (Poly, _int_combination, _int_scaled, _int_values,
                         _over_lcm, squarefree_part)
from subalg.resultants import char_poly_pair
from subalg.roots import split_roots
from subalg.sagbi import (SagbiBasis, read_off_basis, sagbi_complete,
                          sagbi_extend)
from test_resultants import _charpoly_items
from test_sagbi import _extension_inputs

classify_module = importlib.import_module("subalg.classify")


def diff(a, b):
    return LinearFunctional.difference(F(a), F(b))


def deriv(*terms):
    return LinearFunctional.derivative_combo(
        [(o, F(p), F(c)) for o, p, c in terms])


def scalars(row, field):
    """The entries of a cleared row (ints, d) as scalars of the field."""
    return field.from_tilde_coordinates(*row)


def table_row(L, degree, field):
    """The cleared monomial row of L up to x^degree, from a jet table of L
    alone."""
    return _JetTable([L.terms], field).rows(degree)[0]


# `monomial_row` and `_read_terms`: the per-condition rows and the term
# reading that `_JetTable` replaced, kept verbatim as the reference.

def reference_monomial_row(self, degree, field):
    """(L(1), L(x), …, L(x^degree)) over `field`, cleared: (ints, d)
    as `poly._int_scaled` gives, d not always least.  The sum of the
    terms' jet rows, over one denominator (`poly._over_lcm`), weighted
    by the cleared coefficients (`poly._int_combination`)."""
    terms = [term for term in self.terms if term[0] <= degree]
    jets, dj = _over_lcm([_jet_row(order, point, degree, field)
                          for order, point, _ in terms])
    coeffs, dc = _int_scaled([coeff for _, _, coeff in terms], field)
    row = _int_combination(coeffs, jets, field.tilde_modulus)
    return row or [0] * (field.degree * (degree + 1)), dc * dj


def reference_read_terms(conds, field):
    """(rows, tops): each condition as {(order, point): coefficient} over
    `field`, its equal (order, point) terms summed and zero sums dropped,
    and {p: N_p}, the top order at which some row reads the point p."""
    rows, tops = [], {}
    for L in conds:
        row = {}
        for order, point, coeff in L.terms:
            key = (order, field.coerce(point))
            row[key] = row.get(key, field.zero) + field.coerce(coeff)
        rows.append({k: a for k, a in row.items() if not is_zero_scalar(a)})
        for order, point in rows[-1]:
            tops[point] = max(order, tops.get(point, 0))
    return rows, tops


def test_functional_application():
    assert diff(1, -1).apply(P("x^3 - x")) == 0
    assert diff(1, -1).apply(P("x^2")) == 0
    assert diff(1, -1).apply(P("x")) == 2
    assert deriv((1, 0, 1)).apply(P("x^2 + 3*x")) == 3


def test_monomial_row_matches_apply():
    qi = NumberField([1, 0, 1], label="t^2+1")
    i = qi.gen()
    functionals = [
        diff(1, -1),
        deriv((1, 0, 1), (2, 1, -3), (0, 2, 5), (0, 3, -5)),
        deriv((5, F(1, 2), 1), (4, F(1, 2), -10)),
        LinearFunctional.difference(i, -i),
        LinearFunctional.derivative_combo(
            [(1, i, qi.coerce(2)), (3, qi.coerce(1), i),
             (0, qi.zero, i), (0, i, -i)]),
    ]

    def by_derivatives(L, f):
        return sum((c * f.derivative(order)(p) for order, p, c in L.terms),
                   f.field.zero)

    for L in functionals:
        x = Poly.x(L.field)
        assert scalars(table_row(L, 12, L.field), L.field) == \
            [by_derivatives(L, x ** k) for k in range(13)]
        f = P("x^5 - 2*x^3 + x/3 + 4").coerce_to(L.field)
        assert L.apply(f) == by_derivatives(L, f)
    # rows of rational conditions coerced into a number field
    x = Poly.x(qi)
    L = functionals[1]
    assert scalars(table_row(L, 9, qi), qi) == \
        [by_derivatives(L, x ** k) for k in range(10)]


def test_jet_row_reads_derivatives():
    qi = NumberField([1, 0, 1], label="t^2+1")
    i = qi.gen()
    cases = [(P("x^7 - 3*x^4 + x/2 - 5"), [F(0), F(2), F(-1, 3)]),
             (P("x^6 + (1+t)*x^3 - t*x", field=qi), [qi.zero, i, 2 - i])]
    for f, points in cases:
        for k in range(f.degree + 2):
            for p in points:
                row = scalars(_jet_row(k, p, f.degree, f.field), f.field)
                value = sum((c * r for c, r in zip(f.coeffs, row)),
                            f.field.zero)
                assert value == f.derivative(k)(p), (f, k, p)


def test_cleared_rows_match_the_fraction_rows():
    """`_jet_row` and the jet table agree entry by entry with the Fraction
    rows they replaced: at points with denominators, at number-field
    points (t^2 - 1/2 has t̃ = 2t), at degree 0 and with orders above the
    degree, where a term adds nothing."""
    for modulus in (None, [1, 0, 1], [-2, 0, 0, 1], [F(-1, 2), 0, 1]):
        field = QQ if modulus is None else NumberField(modulus)
        t = field.one if field is QQ else field.gen()
        points = [field.zero, field.coerce(3), field.coerce(F(-7, 12)),
                  field.coerce(F(5, 2 ** 40))]
        if field is not QQ:
            points += [t, t / 3 - F(1, 2), t * t + 2]
        for degree in (0, 1, 5, 9):
            for order in range(degree + 3):
                for p in points:
                    assert scalars(_jet_row(order, p, degree, field),
                                   field) == \
                        ref.jet_row(order, p, degree, field), \
                        (field, order, p, degree)
        functionals = [
            LinearFunctional.difference(points[2], points[3]),
            LinearFunctional.difference(points[-1], points[1]),
            LinearFunctional.derivative_combo(
                [(1, points[-1], t), (4, points[2], F(2, 9)),
                 (0, points[1], F(1, 3)), (0, points[3], F(-1, 3))]),
            LinearFunctional.derivative_combo(
                [(7, points[-2], 3 * t), (2, points[2], F(-5, 4))])]
        for L in functionals:
            for degree in (-1, 0, 1, 3, 6, 10):
                assert scalars(table_row(L, degree, field), field) == \
                    ref.monomial_row(L, degree, field), (L, degree)
            for f in (P("x^2 + 1"), P("x^3/7 - 2*x + 5"), Poly.zero()):
                f = f.coerce_to(field)
                assert L.apply(f) == sum(
                    (c * r for c, r in zip(
                        f.coeffs, ref.monomial_row(L, f.degree, field))),
                    field.zero)
    assert deriv((3, 0, 1), (2, 1, 1)).apply(P("x + 1")) == 0


# `annihilator` and `_annihilator_equations`: the degree-product
# annihilator that `_annihilator` on the jet image replaced, kept verbatim
# as the reference.

def annihilator(basis, coords):
    """Coefficient vectors v with Σ v_i f^(o_i)(p_i) = 0 on all of A: the
    nullspace of `_annihilator_equations`.

    `coords` lists (order o_i, point p_i) in the field of `basis`; c is
    the conductor of A, the algebra of `basis`, as cached on the basis
    (coerced with it, see `SagbiBasis.coerce_to`).  Exact: A = A_{<deg c} ⊕
    c·K[x], and with m the top order, a functional reads c·h at p only
    through the (m − ord_p(c))-jet of h at p, which the h of degree
    < Σ_p max(0, m + 1 − ord_p(c)) already take.  So it vanishes on A iff
    it vanishes on A below degree deg c plus that sum.  The returned vectors
    span the nullspace of the functionals on the degree products up to
    that degree.
    """
    return nullspace(_annihilator_equations(basis, coords), len(coords),
                     basis.field)


def _annihilator_equations(basis, coords):
    """The cleared system of `annihilator`: one row per degree product up
    to its bound, holding the values of the jets at `coords` on it."""
    field, c = basis.field, basis.conductor()
    m = max(order for order, _ in coords)
    bound = c.degree - 1 + sum(max(0, m + 1 - c.order_at(point))
                               for point in {point for _, point in coords})
    jets, _ = _over_lcm([_jet_row(order, point, bound, field)
                         for order, point in coords])
    return _int_values([P.cleared()[0] for P in basis.degree_products(bound)],
                       jets, field)


def test_annihilator_matches_a_large_degree_bound():
    draws = family_draws()
    assert any(hasattr(v, "field") for _, params in draws
               for v in params.values())
    for label, params in draws:
        A = construct_case(label, params)
        points = A.spectrum()
        assert all(p.exact for p in points)
        points = [p.value for p in points]
        field = A.field
        for p in points:
            field = common_field(field, field_of(p))
        basis = A.sagbi_basis().coerce_to(field)
        s = len(points)
        coords = [(order, p) for order in range(6) for p in points]
        bound = basis.semigroup.conductor + 4 * s + 20
        rows = [_int_scaled([g.derivative(order)(p) for order, p in coords],
                            field)[0]
                for g in basis.degree_products(bound)]
        expected = nullspace(rows, len(coords), field)
        assert annihilator(basis, coords) == expected, label
        for conds in (None, A.conditions()):
            image = _jet_image(basis, points, field, conds)
            assert _annihilator(image, coords, field) == expected, label


def test_condition_json_round_trip():
    for L in (diff(1, -1), deriv((1, 0, 1), (2, 1, -3))):
        again = LinearFunctional.from_json(L.to_json())
        assert again.kind == L.kind
        for f in (P("x^5 - x"), P("x^2 + 7")):
            assert again.apply(f) == L.apply(f)


def test_subalgebra_condition_recognition():
    assert not is_subalgebra_condition_set([deriv((1, 0, 1), (1, 1, 1))])
    assert is_subalgebra_condition_set(
        [diff(0, 1), deriv((1, 0, 1), (1, 1, 1))])
    assert is_subalgebra_condition_set([deriv((1, 0, 1))])


def test_kernel_simple():
    A = kernel_subalgebra([deriv((1, 0, 1))])
    assert A.codimension() == 1
    assert A.contains(P("x^2")) and A.contains(P("x^3"))
    assert not A.contains(P("x"))


def test_kernel_rejects_non_subalgebra_conditions():
    with pytest.raises(NotSubalgebraConditions):
        kernel_subalgebra([deriv((1, 0, 1), (1, 1, 1))])


def _conditions_field(conds):
    field = QQ
    for L in conds:
        field = common_field(field, L.field)
    return field


def _order_and_point_count(conds):
    """(N, s): one more than the highest derivative order the conditions
    read, and the number of distinct points they read it at."""
    points = []
    for L in conds:
        for p in L.points():
            if p not in points:
                points.append(p)
    return max(order for L in conds for order, _, _ in L.terms) + 1, \
        len(points)


def _monomial_kernel(rows, degree_bound, field):
    """(rank, kernel) of the cleared condition rows on 1, x, …, x^bound.

    One reduction with ascending degree columns: every kernel polynomial is
    x^d plus terms at pivot degrees below d, so its leading degree d is a
    free column and the kernel comes out sorted by degree.  The kernel
    vectors come out cleared, and are the polynomials' cleared forms.
    """
    ncols = degree_bound + 1
    vectors = cleared_nullspace(
        [ints[:ncols * field.degree] for ints, _ in rows], ncols, field)
    return ncols - len(vectors), [Poly.from_cleared(ints, d, field)
                                  for ints, d in vectors]


def reference_kernel_subalgebra(conds):
    """`kernel_subalgebra` on the monomial kernel that `conditions._cut`
    replaced (verbatim): the kernel up to B = N·s + 2n + 2 (N = max
    derivative order + 1, s = point count, n = condition count), closure
    checked below N·s."""
    field = _conditions_field(conds)
    n = len(conds)
    N, s = _order_and_point_count(conds)
    low = N * s
    bound = low + 2 * n + 2
    rows = [reference_monomial_row(L, max(bound, 2 * low - 2), field)
            for L in conds]
    r, kernel = _monomial_kernel(rows, bound, field)
    if r < n:
        raise DegenerateConditions(
            f"only {r} of {n} conditions are independent", reduced_count=r)
    if not reference_closed_under_products(rows, kernel, low, field):
        raise NotSubalgebraConditions("kernel is not closed")
    return Subalgebra(conditions=_normalize_conditions(conds),
                      _sagbi=read_off_basis(kernel))


def reference_is_subalgebra_condition_set(conds):
    """The subalgebra check on the monomial kernel below N·s (verbatim)."""
    if not conds:
        return True
    field = _conditions_field(conds)
    N, s = _order_and_point_count(conds)
    low = N * s
    rows = [reference_monomial_row(L, 2 * low - 2, field) for L in conds]
    _, kernel = _monomial_kernel(rows, low - 1, field)
    return reference_closed_under_products(rows, kernel, low, field)


def _random_condition_sets(rng, count):
    """Lists of 1–4 conditions at points in {−3, …, 3, 1/2}: differences,
    and combinations of order-1–3 derivative terms, some with a balanced
    pair of order-0 terms."""
    points = [F(p) for p in range(-3, 4)] + [F(1, 2)]
    for _ in range(count):
        conds = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.4:
                conds.append(LinearFunctional.difference(
                    *rng.sample(points, 2)))
                continue
            terms = [(rng.randint(1, 3), rng.choice(points),
                      F(rng.choice((-2, -1, 1, 2, 3))))
                     for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.3:
                a, b = rng.sample(points, 2)
                c = F(rng.randint(1, 3))
                terms += [(0, a, c), (0, b, -c)]
            conds.append(LinearFunctional.derivative_combo(terms))
        yield conds


def _kernel_outcome(kernel, conds):
    """kernel(conds) as comparable data: the cleared SAGBI elements and
    the normalized condition list, or the error type and reduced count."""
    try:
        A = kernel(conds)
    except (DegenerateConditions, NotSubalgebraConditions) as exc:
        return type(exc).__name__, getattr(exc, "reduced_count", None)
    return ([e.cleared() for e in A.sagbi_basis().elements],
            repr(A.conditions()))


def test_the_cut_matches_the_monomial_kernel_on_random_sets(monkeypatch):
    """`kernel_subalgebra` and `is_subalgebra_condition_set` give what the
    monomial kernel gave: the same cleared SAGBI elements, normalized
    condition lists, error types and reduced counts, and booleans."""
    sets = list(_random_condition_sets(random.Random(5), 600))
    new = [(_kernel_outcome(kernel_subalgebra, conds),
            is_subalgebra_condition_set(conds)) for conds in sets]
    monkeypatch.setattr(conditions, "is_subalgebra_condition_set",
                        reference_is_subalgebra_condition_set)
    outcomes = {}
    for conds, (outcome, is_set) in zip(sets, new):
        old = _kernel_outcome(reference_kernel_subalgebra, conds)
        assert outcome == old, conds
        assert is_set == reference_is_subalgebra_condition_set(conds), conds
        name = outcome[0] if isinstance(outcome[0], str) else "basis"
        outcomes[name] = outcomes.get(name, 0) + 1
    assert set(outcomes) == {"basis", "DegenerateConditions",
                             "NotSubalgebraConditions"}, outcomes


def reference_cut(basis, conds):
    """`_cut` on the degree products for every algebra, K[x] too: the path
    that K[x]'s cut on its own condition rows replaced (verbatim, but for
    the references it calls, `reference_read_terms`,
    `reference_monomial_row` and `reference_closed_under_products`, and
    the tops, returned as (point, N_p) pairs as `_cut` returns them)."""
    field = basis.field
    for L in conds:
        field = common_field(field, L.field)
    tops = reference_read_terms(conds, field)[1]
    D = basis.conductor().degree + sum(top + 1 for top in tops.values())
    products = [P.coerce_to(field) for P in basis.degree_products(2 * D - 1)]
    rows = [reference_monomial_row(L, 2 * D - 1, field) for L in conds]
    kernel = list(conditions._killed_combinations(products, rows, field))
    return (len(products) - len(kernel), kernel,
            reference_closed_under_products(rows, kernel, D, field),
            list(tops.items()))


def _condition_lists():
    """The 600 random condition sets, then the conditions of every draw
    and its affine variants (the number-field draws among them)."""
    yield from _random_condition_sets(random.Random(5), 600)
    for label, params, _ in all_draws():
        for moved in [params, *affine_variants(params)]:
            yield construct_case(label, moved)._conditions


def test_the_jet_table_reads_conditions_as_read_terms_did():
    """A jet table holds each condition as `_read_terms` read it, with its
    distinct points indexed instead of hashed, and the same top orders.
    Its rows at the cut's degree 2D − 1, and at lower degrees read
    afterwards as prefixes, are the rows `monomial_row` gave."""
    fields = set()
    for conds in _condition_lists():
        field = _conditions_field(conds)
        table = _JetTable([L.terms for L in conds], field)
        terms, tops = reference_read_terms(conds, field)
        points = table.points
        assert all(p != q for i, p in enumerate(points)
                   for q in points[i + 1:])
        assert [{(order, points[i]): a for (order, i), a in row.items()}
                for row in table.terms] == terms
        assert {points[i]: top for i, top in table.tops.items()} == tops
        top = 2 * sum(N + 1 for N in tops.values()) - 1
        for degree in (top, top // 2, 1, 0):
            assert [scalars(row, field) for row in table.rows(degree)] == \
                [scalars(reference_monomial_row(L, degree, field), field)
                 for L in conds], (conds, degree)
        fields.add(field.degree)
    assert fields == {1, 2}


def test_a_prefix_of_a_top_degree_row_is_the_lower_degree_row():
    """The jet row at degree T, cut to degree d, is the row at d over a
    denominator w^(T−d) times larger, w the point's cleared denominator:
    the same rationals (zero below the order).  A table asked for T, then
    for d, gives the rows a table asked for d alone gives."""
    for modulus in (None, [1, 0, 1], [F(-1, 2), 0, 1]):
        field = QQ if modulus is None else NumberField(modulus)
        t = field.one if field is QQ else field.gen()
        e = field.degree
        points = [field.zero, field.coerce(F(-7, 12)), t / 3 - F(1, 2),
                  field.coerce(F(5, 2 ** 40))]
        for p in points:
            w = _int_scaled((p,), field)[1]
            for order in range(5):
                for T in (order, 4, 9):
                    top, dt = _jet_row(order, p, T, field)
                    for d in range(T + 1):
                        low, dd = _jet_row(order, p, d, field)
                        prefix = top[:e * (d + 1)]
                        if order > d:
                            assert not any(prefix) and not any(low)
                            continue
                        assert prefix == [c * w ** (T - d) for c in low]
                        assert dt == dd * w ** (T - d)
        L = LinearFunctional.derivative_combo(
            [(1, points[2], t), (3, points[1], F(2, 9)),
             (0, points[3], F(1, 3)), (0, points[0], F(-1, 3))])
        table = _JetTable([L.terms, diff(1, 3).terms], field)
        table.rows(11)
        for d in (11, 6, 3, 0):
            assert [scalars(row, field) for row in table.rows(d)] == \
                [scalars(row, field) for row in _JetTable(
                    [L.terms, diff(1, 3).terms], field).rows(d)]


def test_the_polynomial_ring_cut_matches_the_products_path(monkeypatch):
    """K[x] cut on its condition rows (an identity product matrix) gives
    what the degree products gave (`reference_cut` on `_POLYNOMIAL_RING`):
    the rank, closure, top orders and SAGBI basis.  End to end, on the
    600 random sets and every draw with its affine variants,
    `kernel_subalgebra` gives the same cleared elements, conductor roots
    and conditions, or error types and reduced counts, and
    `is_subalgebra_condition_set` the same booleans."""
    lists = list(_condition_lists())
    for conds in lists:
        rank, kernel, closed, tops = conditions._cut(
            conditions._POLYNOMIAL_RING, conds)
        old = reference_cut(conditions._POLYNOMIAL_RING, conds)
        assert (rank, closed, sorted(tops, key=str)) == \
            (old[0], old[2], sorted(old[3], key=str)), conds
        if closed and rank == len(conds):
            assert [e.cleared() for e in read_off_basis(kernel).elements] \
                == [e.cleared() for e in read_off_basis(old[1]).elements]

    def outcomes():
        out = []
        for conds in lists:
            try:
                A = kernel_subalgebra(conds)
                basis = A.sagbi_basis()
                got = ([e.cleared() for e in basis.elements],
                       basis.conductor_roots, repr(A.conditions()))
            except (DegenerateConditions, NotSubalgebraConditions) as exc:
                got = type(exc).__name__, getattr(exc, "reduced_count", None)
            out.append((got, is_subalgebra_condition_set(conds)))
        return out

    new = outcomes()
    monkeypatch.setattr(conditions, "_cut", reference_cut)
    assert outcomes() == new
    assert {got[0] for got, _ in new if isinstance(got[0], str)} == \
        {"DegenerateConditions", "NotSubalgebraConditions"}


def test_extension_is_the_cut_it_was(monkeypatch):
    """`sagbi_extend` cuts by the products path, now reading a jet table:
    on the 160 extension inputs it gives the cleared elements and error
    types that `reference_cut` gives."""
    inputs = list(_extension_inputs(random.Random(20261019)))

    def outcomes():
        out = []
        for basis, L in inputs:
            try:
                out.append([e.cleared()
                            for e in sagbi_extend(basis, L).elements])
            except SubalgError as exc:
                out.append(type(exc).__name__)
        return out

    new = outcomes()
    monkeypatch.setattr(conditions, "_cut", reference_cut)
    assert outcomes() == new
    assert len(inputs) == 160 and any(isinstance(x, list) for x in new)
    assert {x for x in new if isinstance(x, str)} == \
        {"ConditionVanishesOnB", "NotSubalgebraConditions"}


def test_kernel_matches_completion_and_oracle():
    """The echelon read-off gives the basis SAGBI completion gave."""
    for label, params, _ in all_draws():
        conds = construct_case(label, params).conditions()
        A = kernel_subalgebra(conds)
        basis = A.sagbi_basis()
        # the replaced path: kernel rows from Poly evaluation, completed
        field = _conditions_field(conds)
        N, s = _order_and_point_count(conds)
        bound = N * s + 2 * len(conds) + 2
        x = Poly.x(field)
        rows = [_int_scaled([L.apply(x ** k) for k in range(bound + 1)],
                            field) for L in conds]
        _, kernel = _monomial_kernel(rows, bound, field)
        old = sagbi_complete([p for p in kernel if p.degree >= 1])
        assert basis.elements == old.elements, label
        assert basis.semigroup == old.semigroup, label
        # the oracle grows its bound until the count is stable, so start
        # it low: its default 4·deg + 8 start costs 5x as much here
        start = 2 * max(basis.degrees) + 2
        assert oracle_codimension(list(basis.elements), start) == \
            A.codimension() == len(conds), label


def test_kernel_rejects_dependent_conditions():
    # f'(0) + f'(1) alone cuts out no algebra (see
    # test_kernel_rejects_non_subalgebra_conditions); twice, it is
    # dependent first: dependence is checked before closure
    for conds in ([diff(0, 1), diff(0, 1)],
                  [deriv((1, 0, 1), (1, 1, 1)), deriv((1, 0, 2), (1, 1, 2))]):
        with pytest.raises(DegenerateConditions) as info:
            kernel_subalgebra(conds)
        assert info.value.reduced_count == 1


def test_subalgebra_equality_and_containment():
    A = Subalgebra.from_generators([P("x^3 - x"), P("x^2")])
    B = kernel_subalgebra([diff(1, -1)])
    assert A == B
    assert A.contains(P("x^6 - 2*x^4 + x^2"))


def test_conditions_round_trip_monomial():
    A = Subalgebra.from_generators([P("x^3"), P("x^4")])
    conds = conditions_from_subalgebra(A, [F(0)])
    assert len(conds) == 3
    assert kernel_subalgebra(conds) == A


def test_conditions_round_trip_pair():
    A = Subalgebra.from_generators([P("x^3 - x"), P("x^2")])
    conds = conditions_from_subalgebra(A, [F(1), F(-1)])
    assert len(conds) == 1 and conds[0].kind == "diff"
    assert kernel_subalgebra(conds) == A


def test_conditions_cut_out_every_draw():
    # the derived conditions hold on A by construction (`annihilator`);
    # their kernel is A itself
    for label, params, _ in all_draws():
        A = construct_case(label, params)
        conds = conditions_from_subalgebra(A, A.spectrum())
        assert kernel_subalgebra(conds) == A, label


def test_conditions_need_every_zero_of_the_conductor():
    # from generators, and cut out by a condition (its jets read off it)
    for A in (Subalgebra.from_generators([P("x^3 - x"), P("x^2")]),
              kernel_subalgebra([diff(1, -1)])):
        for points in ([F(1)], [F(1), F(-1), F(0)]):
            with pytest.raises(SpectrumNotExact):
                conditions_from_subalgebra(A, points)


def test_equality_reads_one_containment_for_equal_degrees():
    """Two algebras of semigroup <2, 3> that differ compare unequal in both
    directions, though their SAGBI degrees agree; the same algebra from
    other generators compares equal in both directions."""
    A = kernel_subalgebra([diff(1, -1)])
    B = kernel_subalgebra([diff(2, -2)])
    assert A.sagbi_basis().degrees == B.sagbi_basis().degrees == (2, 3)
    assert A != B and B != A
    assert not (A == B or B == A)
    C = Subalgebra.from_generators([P("x^2 + x^3 - x"), P("x^3 - x")])
    assert A == C and C == A


def test_intersect_and_join():
    A1 = kernel_subalgebra([deriv((1, 0, 1))])
    A2 = kernel_subalgebra([deriv((1, 1, 1))])
    inter, join = intersect_and_join(A1, A2)
    assert inter.codimension() == 2
    assert join.sagbi_basis().semigroup.genus == 0
    assert not inter.contains(P("x"))
    assert inter.contains(P("x^3 - 3/2*x^2"))


def test_intersect_drops_dependent_conditions():
    A = kernel_subalgebra([diff(0, 1), deriv((1, 2, 1))])
    B = kernel_subalgebra([diff(0, 1), deriv((1, 3, 1))])
    inter, _ = intersect_and_join(A, B)
    assert inter.codimension() == 3
    assert len(inter.conditions()) == 3
    same, _ = intersect_and_join(A, A)
    assert same == A and len(same.conditions()) == 2


def reference_intersection(A1, A2):
    """The intersection that one projection replaced: the kernel of the
    union of both condition lists, dependent conditions removed."""
    A1, A2 = Subalgebra.of(A1), Subalgebra.of(A2)
    conds = list(A1.conditions())
    for L in A2.conditions():
        conds.append(L)
    # drop dependent conditions: reduce each row against a running echelon
    # form and keep the condition when a residual is left
    field = _conditions_field(conds)
    N, s = _order_and_point_count(conds)
    bound = N * s + 2 * len(conds) + 2
    red, pivots = [], []
    kept = [L for L in conds
            if ref.extend_echelon(ref.monomial_row(L, bound, field), red,
                                  pivots, field)]
    return kernel_subalgebra(kept)


def test_intersection_matches_the_conditions_route_it_replaced():
    draws = [(label, params) for label, params, _ in all_draws()]
    rational = [d for d in draws
                if not any(hasattr(v, "field") for v in d[1].values())]
    gaussian = [d for d in draws
                if any(getattr(v, "field", QQ).label == "t^2+1"
                       for v in d[1].values())]
    rng = random.Random(20261019)
    pairs = [tuple(rng.sample(rational, 2)) for _ in range(24)]
    pairs += [(gaussian[0], gaussian[1]), (gaussian[0], rational[3])]
    compared = 0
    for d1, d2 in pairs:
        A1, A2 = construct_case(*d1), construct_case(*d2)
        inter, _ = intersect_and_join(A1, A2)
        try:
            old = reference_intersection(A1, A2)
        except SpectrumNotExact:
            continue
        assert inter == old, (d1, d2)
        assert inter.codimension() >= max(A1.codimension(),
                                          A2.codimension())
        compared += 1
    assert compared >= 20
    assert inter.field.degree == 2


def test_intersection_reads_no_spectrum(monkeypatch):
    """K[x², x³ − 2x] ∩ K[x² − x, x³]: the first spectrum is ±√2, which
    the conditions route could not read over Q."""
    from subalg import spectrum

    def forbidden(*args, **kwargs):
        raise AssertionError("the intersection read a spectrum")

    for module, name in ((spectrum, "compute_spectrum"),
                         (conditions, "_jet_image"),
                         (conditions, "kernel_subalgebra"),
                         (Subalgebra, "conditions")):
        monkeypatch.setattr(module, name, forbidden)
    A1 = Subalgebra.from_generators([P("x^2"), P("x^3 - 2*x")])
    A2 = Subalgebra.from_generators([P("x^2 - x"), P("x^3")])
    inter, _ = intersect_and_join(A1, A2)
    monkeypatch.undo()
    with pytest.raises(SpectrumNotExact):
        reference_intersection(A1, A2)
    elements = inter.sagbi_basis().elements
    assert inter.codimension() == 2 == oracle_codimension(list(elements))
    assert all(A1.contains(e) and A2.contains(e) for e in elements)


def test_intersection_with_the_polynomial_ring():
    x = Subalgebra.from_generators([P("x")])
    assert intersect_and_join(x, x)[0] == x
    for label, params in family_draws():
        A = construct_case(label, params)
        assert intersect_and_join(A, x)[0] == A, label
        assert intersect_and_join(x, A)[0] == A, label


def test_conditions_of_the_polynomial_ring_are_empty():
    from subalg.spectrum import spectrum_size_check
    x = Subalgebra.from_generators([P("x")])
    assert x.conditions() == []
    assert spectrum_size_check(x) == {
        "codimension": 0, "spectrum_size": 0, "bound": 0, "ok": True,
        "all_differences": True}


def test_conductor_examples():
    assert conductor(sagbi_complete([P("x^2"), P("x^3")])) == P("x^2")
    assert conductor(sagbi_complete([P("x")])) == Poly.constant(F(1))
    # not Gorenstein: the conductor is a proper factor of chi
    A = construct_case("codim2/s=1", {"alpha": F(1), "a": F(2), "b": F(0)})
    assert A.conductor() == P("(x - 1)^3")
    assert A.char_poly() == P("(x - 1)^6")


def _conductor_cases():
    """Every draw, two affine images of each rational draw, and the
    Gaussian draw moved by x -> x + 1."""
    for label, params, _ in all_draws():
        yield label, params
        if not any(hasattr(v, "field") for v in params.values()):
            for moved in affine_variants(params)[:2]:
                yield label, moved
    label, params = next((label, params) for label, params in family_draws()
                         if any(hasattr(v, "field")
                                for v in params.values()))
    yield label, {k: v + 1 if k in ("alpha", "beta", "gamma") else v
                  for k, v in params.items()}


def test_conductor_is_the_conductor_of_every_draw():
    for label, params in _conductor_cases():
        A = construct_case(label, params)
        basis = A.sagbi_basis()
        c, chi = A.conductor(), A.char_poly()
        assert c.leading_coeff() == 1 and c.degree <= 2 * A.codimension()
        # c·K[x] ⊆ A: products of SAGBI elements up to degree D span A_{≤D}
        x = Poly.x(c.field)
        for i in range(basis.degrees[0]):
            assert oracle_member(c * x ** i, list(basis.elements),
                                 c.degree + i), label
        assert (chi % c).is_zero(), label
        assert squarefree_part(c) == squarefree_part(chi), label


def _random_pairs(seed, degrees):
    """Monic integer pairs (p, q) of the given degrees, coefficients in
    [−3, 3]."""
    rng = random.Random(seed)
    for m, n in degrees:
        yield (Poly([F(rng.randint(-3, 3)) for _ in range(m)] + [F(1)]),
               Poly([F(rng.randint(-3, 3)) for _ in range(n)] + [F(1)]))


def test_conductor_of_a_coprime_pair_is_its_charpoly():
    degrees = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (2, 7), (5, 7),
               (7, 8), (8, 9)]
    for p, q in _random_pairs(20261018, degrees * 2):
        assert Subalgebra.from_generators([p, q]).conductor() == \
            char_poly_pair(p, q).monic(), (p, q)


def reference_conductor(basis):
    """The exact-nullspace conductor that the modular one replaced: one
    nullspace over the degree products up to 2n, whose equations are the
    gap coordinates of x^i·c for 0 < i < d, in Fraction arithmetic."""
    S, d, field = basis.semigroup, basis.degrees[0], basis.field
    n = S.genus
    top = 2 * n
    gaps = {g: j for j, g in enumerate(S.gaps)}
    products = {p.degree: p for p in basis.degree_products(top + d - 1)}
    normal = []          # normal[k]: the gap coordinates of x^k

    def gap_coordinates(coeffs, shift):
        vec = [field.zero] * n
        for k, a in enumerate(coeffs):
            if not is_zero_scalar(a):
                vec = [v + a * w for v, w in zip(vec, normal[k + shift])]
        return vec

    for k in range(top + d):
        if k in gaps:
            normal.append([field.one if j == gaps[k] else field.zero
                           for j in range(n)])
        else:
            normal.append([-v for v in
                           gap_coordinates(products[k].coeffs[:k], 0)])
    columns = [products[k] for k in sorted(products) if k <= top]
    equations = [row for i in range(1, d) for row in
                 zip(*(gap_coordinates(p.coeffs, i) for p in columns))]
    lowest = ref.nullspace(equations, len(columns), field)[0]
    return sum((a * p for a, p in zip(lowest, columns)
                if not is_zero_scalar(a)), Poly.zero(field))


def test_conductor_matches_the_exact_nullspace():
    nf = NumberField([-2, 0, 1], label="t^2-2")
    t = nf.gen()
    algebras = [construct_case(label, params)
                for label, params in _conductor_cases()]
    algebras.append(construct_case("codim1/pair",
                                   {"alpha": 1 + t, "beta": 1 - t}))
    # three-element bases over fields of degree 3, 4 and 5
    for modulus in ([-2, 0, 0, 1], [-1, -1, 0, 0, 1], [-1, -1, 0, 0, 0, 1]):
        k = NumberField(modulus)
        u = k.gen()
        algebras += [construct_case("codim3/s=1/case1",
                                    {"alpha": u, "a": k.zero, "b": k.one,
                                     "c": 2 + u}),
                     construct_case("codim2/s=2-pair",
                                    {"alpha": k.zero, "beta": 2 + u,
                                     "a": k.one, "b": k.coerce(3)})]
    # a denominator 3 (alpha = 1/3); over Q(i), a point 2 + t of norm 5;
    # c = (x - 1)^6 of a three-element basis
    qi = NumberField([1, 0, 1], label="t^2+1")
    algebras += [
        construct_case("codim1/pair", {"alpha": F(1, 3), "beta": F(-1)}),
        construct_case("codim2/s=2-pair",
                       {"alpha": qi.zero, "beta": 2 + qi.gen(), "a": qi.one,
                        "b": qi.coerce(3)}),
        construct_case("codim3/s=1/case1",
                       {"alpha": F(1), "a": F(0), "b": F(1), "c": F(2)})]
    assert algebras[-1].conductor() == P("(x - 1)^6")
    degrees = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (4, 7), (5, 6),
               (5, 7), (5, 8), (6, 7), (7, 8), (8, 9)]
    algebras += [Subalgebra.from_generators(pair)
                 for pair in _random_pairs(20261019, degrees)]
    for A in algebras:
        assert A.conductor() == reference_conductor(A.sagbi_basis()), A


def test_two_element_conductor_is_chi(monkeypatch):
    """On a two-element basis `conductor` is χ, with no projection of the
    degree products; it equals the exact nullspace."""
    bases = [construct_case(label, params).sagbi_basis()
             for label, params in _conductor_cases()]
    bases += [Subalgebra.from_generators(pair).sagbi_basis()
              for pair in _charpoly_items("pair", 50)]
    two = [basis for basis in bases if len(basis.elements) == 2]
    assert len(two) > 50 and any(b.field.degree > 1 for b in two)
    projected = []
    vanishing = conditions._vanishing
    monkeypatch.setattr(conditions, "_vanishing",
                        lambda *args: projected.append(args) or
                        vanishing(*args))
    for basis in two:
        c = conductor(basis)
        assert not projected
        assert c == reference_conductor(basis), basis


def test_conductor_of_elements_that_are_no_sagbi_basis_raises():
    # x^7·x^8 − (x^5)^3 subduces to −x^3/4: no element of the gap degree 3
    basis = SagbiBasis([P("x^5"), P("x^6 + x^3"), P("x^7"), P("x^8"),
                        P("x^9 + 1/2*x^6")])
    with pytest.raises(SubalgError, match="not a SAGBI basis"):
        basis.conductor()


def test_every_shift_below_the_smallest_degree_counts():
    """c·K[x] ⊆ A needs x^i·c ∈ A for every i below the smallest positive
    degree d.  In K[x⁴, x⁵, x⁶], x⁴·x and x⁴·x² lie in A but x⁴·x³ = x⁷
    does not, so c is x⁸; in K[x³, x⁴, x⁵], 1·x does not, so c is x³."""
    for gens, c, outside in (("x^4 x^5 x^6", "x^8", ("x^4", 3)),
                             ("x^3 x^4 x^5", "x^3", ("1", 1))):
        elements = [P(g) for g in gens.split()]
        basis = SagbiBasis(elements)
        assert conductor(basis) == reference_conductor(basis) == P(c)
        x, d = Poly.x(), basis.degrees[0]
        assert all(oracle_member(P(c) * x ** i, elements, P(c).degree + i)
                   for i in range(d))
        f, i = P(outside[0]), outside[1]
        assert all(oracle_member(f * x ** j, elements, f.degree + j)
                   for j in range(i))
        assert not oracle_member(f * x ** i, elements, f.degree + i)


def reference_dot(a, b, field):
    """`_dot` over a number field before the cleared kernel (verbatim
    loop, on the rows themselves)."""
    acc = field.zero
    for u, v in zip(a, b):
        if not is_zero_scalar(u):
            acc = acc + u * v
    return acc


def test_dot_matches_the_field_elem_dot():
    rng = random.Random(20261030)
    for modulus in ([1, 0, 1], [-2, 0, 1], [-2, 0, 0, 1], [1, 0, 0, 0, 1],
                    [F(-1, 2), 0, 1]):
        nf = NumberField(modulus)

        def row(n):
            out = []
            for _ in range(n):
                kind = rng.randrange(3)
                if kind == 0:
                    out.append(nf.zero)
                elif kind == 1:
                    out.append(nf.coerce(F(rng.randint(-9, 9),
                                           rng.randint(1, 5))))
                else:
                    out.append(nf.from_coeffs(
                        [F(rng.randint(-2 ** 70, 2 ** 70),
                           rng.randint(1, 2 ** 40))
                         for _ in range(nf.degree)]))
            return out

        for _ in range(40):
            a, b = row(rng.randint(0, 10)), row(rng.randint(0, 10))
            value = conditions._dot(_int_scaled(a, nf), _int_scaled(b, nf),
                                    nf)
            assert value == reference_dot(a, b, nf)
            assert value.field is nf
        t = nf.gen()
        L = LinearFunctional.derivative_combo(
            [(1, t + F(1, 2), 3 * t), (2, F(-1), F(1, 4)), (0, t, nf.one),
             (0, F(2, 3), -nf.one)])
        for _ in range(10):
            f = Poly(row(rng.randint(0, 9)), nf)
            assert L.apply(f) == reference_dot(
                f.coeffs, scalars(reference_monomial_row(L, f.degree, nf),
                                  nf), nf)


# --- algebras cut out by conditions, classified from them -----------------

def reference_closed_under_products(rows, kernel, low, field):
    """The closure check on re-cleared `Poly` products (verbatim)."""
    small = [p for p in kernel if 1 <= p.degree < low]
    for i, p in enumerate(small):
        for q in small[i:]:
            product = (p * q).cleared()[0]
            if any(any(conditions._int_dot(product, row, field))
                   for row, _ in rows):
                return False
    return True


def test_closure_on_int_products_matches_poly_products(monkeypatch):
    """`_closed_under_products` on `_int_mul` products gives the booleans
    that re-cleared `Poly` products gave, on every random set and draw.
    K[x] hands it the cleared kernel vectors below D, which no `Poly` is
    built for: the reference reads them as Polys."""
    outcomes = []
    real = conditions._closed_under_products

    def spy(rows, small, field):
        closed = real(rows, small, field)
        kernel = [Poly.from_cleared(list(p), 1, field) for p in small]
        low = max((p.degree for p in kernel), default=0) + 1
        assert all(p.degree >= 1 for p in kernel)
        assert closed == reference_closed_under_products(rows, kernel, low,
                                                         field)
        outcomes.append(closed)
        return closed

    monkeypatch.setattr(conditions, "_closed_under_products", spy)
    for conds in _random_condition_sets(random.Random(5), 600):
        is_subalgebra_condition_set(conds)
    for label, params, _ in all_draws():
        construct_case(label, params)
    assert set(outcomes) == {True, False}


def _cut_out_algebras():
    """The algebras of every draw and its affine variants, then those of
    the random condition sets that cut out one."""
    for label, params, _ in all_draws():
        for moved in [params, *affine_variants(params)]:
            yield construct_case(label, moved)
    for conds in _random_condition_sets(random.Random(5), 600):
        try:
            yield kernel_subalgebra(conds)
        except (DegenerateConditions, NotSubalgebraConditions):
            pass


def test_conductor_and_exact_spectrum_are_read_off_the_conditions():
    """The conductor read off the conditions is the projection's (or, for
    two elements, χ), and its zeros are `split_roots` of it, in its order,
    with nothing left unsplit."""
    count = 0
    for A in _cut_out_algebras():
        basis = A.sagbi_basis()
        c = basis.conductor()
        assert c == conductor(basis), A
        assert split_roots(c) == (basis.conductor_roots, []), A
        count += 1
    assert count == 71 * 5 + 134


def test_annihilators_solved_against_conditions_match_degree_products(
        monkeypatch):
    """`_annihilator` on the jet image returns the vectors of the
    degree-product `annihilator`, scale included, for each algebra both
    as cut out by conditions (image from them) and from the generators
    (image from the degree products): on every coordinate list that
    classify asks for on the draws and their variants, and on every order
    up to the top one at the spectrum points, the top order lying outside
    the image at each point, plus the first of 7, 8, … off the
    spectrum."""
    asked = []
    real = classify_module._annihilator

    def spy(image, coords, field):
        asked.append(coords)
        return real(image, coords, field)

    monkeypatch.setattr(classify_module, "_annihilator", spy)
    compared = algebras = 0
    for A in _cut_out_algebras():
        points = [p for p, _ in A.sagbi_basis().conductor_roots]
        top = max(k for _, k in A.sagbi_basis().conductor_roots)
        B = Subalgebra.from_generators(A.sagbi_basis().elements)
        off = next(q for q in map(A.field.coerce, range(7, 20))
                   if q not in points)
        for X in (A, B):
            basis, field = X.sagbi_basis(), X.field
            asked[:] = [[(order, p) for order in range(top, -1, -1)
                         for p in points] + [(1, off)]]
            if X.codimension() <= 3:
                classify_module.classify(X)
            image = _jet_image(basis, points, field, X._conditions)
            for coords in asked:
                assert real(image, coords, field) == \
                    annihilator(basis, coords), (X, coords)
            compared += len(asked)
            algebras += 1
    assert algebras == 2 * (71 * 5 + 134)
    assert compared > 2000


def test_zero_and_cancelling_terms_are_not_read():
    """A zero coefficient or terms that cancel read nothing: the
    conductor, spectrum and classification are those of the same algebra
    given by generators."""
    x = Poly.x()
    cases = [
        ([deriv((1, 0, 1), (3, 0, 0))], x ** 2),
        ([deriv((1, 1, 1), (2, 1, 1), (2, 1, -1))], (x - 1) ** 2),
        ([deriv((1, 0, 1), (1, 5, 2), (1, 5, -2)), diff(1, 2)],
         x ** 2 * (x - 1) * (x - 2)),
        ([deriv((0, 3, 1), (0, 3, -1), (1, 0, 1), (2, 0, 1)),
          deriv((1, 0, 1))], x ** 3),
    ]
    for conds, c in cases:
        A = kernel_subalgebra(conds)
        B = Subalgebra.from_generators(A.sagbi_basis().elements)
        assert A.conductor() == B.conductor() == c
        assert [(p.value, p.kind) for p in A.spectrum()] == \
            [(p.value, p.kind) for p in B.spectrum()]
        a, b = classify_module.classify(A), classify_module.classify(B)
        assert (a.label, a.parameters) == (b.label, b.parameters)


def test_an_algebra_cut_out_by_conditions_is_classified_from_them(
        monkeypatch):
    """`classify` and `spectrum()` of a `construct_case` algebra call no
    projection conductor, root search or degree-product jet image; the
    same algebra from generators calls all three, the last once if the
    conditions answered an annihilator and never otherwise."""
    calls = {}

    def spy(module, name, key):
        real = getattr(module, name)

        def counted(*args):
            calls[key] = calls.get(key, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    def image(basis, points, field, conds=None):
        key = "conditions" if conds else "degree products"
        calls[key] = calls.get(key, 0) + 1
        return conditions._jet_image(basis, points, field, conds)

    spy(conditions, "conductor", "conductor")
    spy(roots, "split_roots", "split_roots")
    spy(spectrum, "split_roots", "split_roots")
    monkeypatch.setattr(classify_module, "_jet_image", image)
    answered = 0
    for label, params, _ in all_draws():
        A = construct_case(label, params)
        calls.clear()
        assert classify_module.classify(A).label == label and A.spectrum()
        solved = calls.pop("conditions", 0)
        assert calls == {} and solved <= 1, label
        B = Subalgebra.from_generators(A.sagbi_basis().elements)
        calls.clear()
        assert classify_module.classify(B).label == label and B.spectrum()
        expected = {"conductor": 1, "split_roots": 1,
                    "degree products": solved}
        assert calls == {k: n for k, n in expected.items() if n}, label
        answered += solved
    assert answered > 40


def test_classify_gives_one_answer_from_conditions_and_generators(
        monkeypatch):
    """On every draw and its affine variants, `classify` of the
    `construct_case` algebra and of the same algebra from its SAGBI
    elements agree in label, parameters, type and canonical basis; each
    call reads each condition list once (a jet table per list: A's own
    conditions for the image, and the fresh list the canonical basis
    builds) and builds at most one jet image."""
    calls, tables = {}, []
    real_image, real_table = classify_module._jet_image, _JetTable.__init__

    def image(*args):
        calls["_jet_image"] = calls.get("_jet_image", 0) + 1
        return real_image(*args)

    def table(self, term_lists, field):
        tables.append(list(term_lists))     # kept alive: ids stay unique
        real_table(self, tables[-1], field)

    monkeypatch.setattr(classify_module, "_jet_image", image)
    monkeypatch.setattr(_JetTable, "__init__", table)
    compared = own_reads = 0
    for label, params, _ in all_draws():
        for moved in [params, *affine_variants(params)]:
            A = construct_case(label, moved)
            B = Subalgebra.from_generators(A.sagbi_basis().elements)
            answers = []
            for X in (A, B):
                calls.clear()
                tables.clear()
                r = classify_module.classify(X)
                assert calls.get("_jet_image", 0) <= 1, (label, calls)
                read = [id(terms) for lists in tables for terms in lists]
                assert len(read) == len(set(read)), label
                own = [L.terms for L in X._conditions or ()]
                reads = sum(own != [] and len(lists) == len(own) and all(
                    a is b for a, b in zip(lists, own)) for lists in tables)
                assert reads <= 1, label
                own_reads += reads
                answers.append((r.label, r.parameters, r.type,
                                r.canonical_basis))
            assert answers[0] == answers[1], (label, moved)
            assert answers[0][0] == label
            compared += 1
    assert compared == 71 * 5 and own_reads > 40
