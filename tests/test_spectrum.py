import random
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
from subalg.fields import QQ, NumberField, field_of, is_zero_scalar
from subalg.parsing import parse_poly
from subalg.poly import Poly, poly_gcd, squarefree_decompose
from subalg.roots import aberth_roots, refined_roots, split_roots
from subalg.spectrum import (SpectrumPoint, characteristic_polynomial,
                             compute_clusters, deg2_description,
                             deg2_from_description, spectrum_size_check)
from test_roots import reference_candidates, unpaired_pair


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
    assert B.spectrum() == []


def test_derivative_spectrum():
    pts = alg("x^2", "x^5").spectrum()
    assert len(pts) == 1
    assert pts[0].value == F(0) and pts[0].kind == "derivative"


def test_exact_mode_with_cyclotomic_field():
    nf = NumberField([1, 0, 0, 0, 1], label="t^4+1")
    pts = alg("x^4", "x^3 - x").spectrum(nf=nf)
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


K8 = NumberField([1, 0, 0, 0, 1], label="t^4+1")
K12 = NumberField([1, 0, -1, 0, 1], label="t^4-t^2+1")


def test_an_inexact_spectrum_fails_conditions_and_classify():
    # over Q, c = (x^2 - 1)(x^4 + 1): the roots of x^4 + 1 are numeric
    A = alg("x^4", "x^3 - x")
    points = A.spectrum()
    assert len(points) == 6 and sum(not p.exact for p in points) == 4
    with pytest.raises(SpectrumNotExact):
        A.conditions()
    with pytest.raises(SpectrumNotExact):
        classify(A)
    assert classify(A, nf=K8).label == "codim3/s=6"
    assert [repr(L) for L in alg("x^3 - x", "x^2").conditions()] == \
        ["f(-1) - f(1)"]


def _counted_spectra(monkeypatch):
    """The nf of every `compute_spectrum` call from now on."""
    calls = []
    real = spectrum.compute_spectrum

    def counted(A, nf=None):
        calls.append(nf)
        return real(A, nf=nf)

    monkeypatch.setattr(spectrum, "compute_spectrum", counted)
    return calls


def test_the_spectrum_is_computed_once_per_field(monkeypatch):
    calls = _counted_spectra(monkeypatch)
    A = alg("x^4", "x^3 - x")
    requests = ({}, {"nf": K8}, {"nf": K12})
    first = [A.spectrum(**kw) for kw in requests]
    assert all(A.spectrum(**kw) is pts for kw, pts in zip(requests, first))
    assert calls == [QQ, K8, K12]
    # each request gets points of its own field only: over Q and over
    # Q(zeta_12) the primitive 8th roots of unity are numeric
    for field, pts in zip((QQ, K8, K12), first):
        assert len(pts) == 6
        assert all(field_of(p.value) in (QQ, field) for p in pts if p.exact)
    assert [p.exact for p in first[0]] == [p.exact for p in first[2]] == \
        [True] * 2 + [False] * 4
    assert all(p.exact for p in first[1])


def test_derivations_reuse_the_extension_field_spectrum(monkeypatch):
    calls = _counted_spectra(monkeypatch)
    A = alg("x^4", "x^3 - x")
    t = K8.gen()
    spaces = [derivation_space(A, t) for _ in range(2)]
    assert calls == []      # the cluster comes from one gcd, not a spectrum
    assert spaces[0].dimension == spaces[1].dimension == spaces[0].k_alpha


def test_classify_and_derivations_build_chi_only_as_the_conductor(
        monkeypatch):
    # an algebra cut out by conditions reads its conductor off them, so
    # no basis takes a resultant
    calls = []
    real = resultants.resultant_y_tables

    def counted(f_table, g_table):
        calls.append(None)
        return real(f_table, g_table)

    monkeypatch.setattr(resultants, "resultant_y_tables", counted)
    algebras = []
    for label, params, _ in all_draws():
        calls.clear()
        A = construct_case(label, params)
        assert classify(A).label == label
        alpha = params.get("alpha", params.get("gamma"))
        assert conjecture_dim_check(A, alpha)["equal"], label
        assert calls == [], label
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


def test_an_unsplit_factor_outside_q_is_not_exact(monkeypatch):
    # over Q(i), K[x^2 - t, x^3 + t*x] has c = x^2 + t: it has no root in
    # Q(i), and a coefficient outside Q gives it no numeric roots either
    qi = NumberField([1, 0, 1], label="t^2+1")
    A = alg("x^2 - t", "x^3 + t*x", field=qi)
    assert A.conductor() == parse_poly("x^2 + t", field=qi)
    monkeypatch.setattr(spectrum, "aberth_roots", None)     # never reached
    with pytest.raises(SpectrumNotExact, match="x\\^2 \\+ t"):
        A.spectrum()
    with pytest.raises(SpectrumNotExact):
        A.conditions()
    with pytest.raises(SpectrumNotExact):
        classify(alg("x^2 - t", "x^3 + t*x", field=qi))


def test_a_failed_spectrum_is_computed_once(monkeypatch):
    qi = NumberField([1, 0, 1], label="t^2+1")
    A = alg(*[f"(x - t)*(x^3-x-1)*x^{k}" for k in range(4)], field=qi)
    calls = []
    real = spectrum.compute_spectrum

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)
    monkeypatch.setattr(spectrum, "compute_spectrum", counted)
    for _ in range(3):
        with pytest.raises(SpectrumNotExact):
            A.spectrum()
    assert len(calls) == 1


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
    # every lattice sample is one `resultant_y_tables` call; a two-element
    # basis takes none, its chi being the conductor; for more elements,
    # where chi = c the sampler stops at the first sample that brings the
    # gcd to c
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
        if len(A.sagbi_basis().elements) == 2:
            assert not samples and A.char_poly() is c, A
        elif old == c:
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
    return next((c for c in reference_candidates(field) if c * c == value),
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
            ref = reference_exact_sqrt(r, field)
            if ref is not None:
                assert got == ref, (field, r)
            assert got is None or got * got == field.coerce(r)
    # a square root that is no power of t: sqrt(2i) = 1 + i
    assert spectrum._square_root(2 * qi.gen(), qi) == 1 + qi.gen()


# --- the pairing and clustering that one agreement table replaced ---------

def reference_embed(value):
    r = spectrum._rational(value)
    if r is None:
        raise SpectrumNotExact("cannot embed a number-field point "
                               "numerically without an embedding")
    return float(r)


def reference_classify(basis, value, exact, all_vals, tol):
    """(kind, partner) of a root of c.  A partner of the same exactness is
    preferred; an exact point and a numeric one are compared through
    `_embed`.  A point left without a partner after a comparison that a
    number-field point without an embedding prevented raises
    SpectrumNotExact."""
    elements = basis.elements
    if exact:
        deriv = all(is_zero_scalar(e.derivative()(value)) for e in elements)
    else:
        deriv = all(abs(e.derivative()(value)) < tol for e in elements)
    if deriv:
        return "derivative", None
    unembedded = False
    for other, other_exact in sorted(all_vals, key=lambda v: v[1] != exact):
        if other_exact == exact and \
                (other == value if exact else abs(other - value) < tol):
            continue                # the point itself
        if other_exact != exact and \
                spectrum._rational(value if exact else other) is None:
            unembedded = True
            continue
        if reference_agree(elements, value, other, tol):
            return "paired", other
    if unembedded:
        raise SpectrumNotExact(
            f"characteristic root {value!r} has no partner that can be "
            "compared without a complex embedding of the number field")
    raise UnpairedRoot(
        f"characteristic root {value!r} is neither derivative-kind nor "
        "pairable")


def reference_agree(elements, a, b, tol):
    """Do all elements take one value at the spectrum points a and b?
    Exactly when both are exact, else numerically.  A number-field point
    with no rational value has no embedding to compare by, so it agrees
    with no numeric point."""
    if not isinstance(a, complex) and not isinstance(b, complex):
        return all(e(a) == e(b) for e in elements)
    a, b = (v if isinstance(v, complex) else spectrum._rational(v)
            for v in (a, b))
    if a is None or b is None:
        return False
    a, b = complex(a), complex(b)
    return all(abs(e(a) - e(b)) < tol * reference_scale(e, a)
               for e in elements)


def reference_scale(e, z):
    az, acc, power = abs(z), 1.0, 1.0
    for c in e.coeffs:
        try:
            acc += abs(complex(reference_embed(c))) * power
        except SpectrumNotExact:
            acc += power
        power *= az
    return acc


def reference_compute_clusters(A, spectrum, tol=spectrum.PAIR_TOL):
    """Partition of the spectrum: α ∼ β iff all basis elements agree (the
    member lists of the retired `Cluster`s, which also kept witnesses)."""
    A = Subalgebra.of(A)
    basis = A.sagbi_basis()
    n = len(spectrum)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if reference_agree(basis.elements, spectrum[i].value,
                               spectrum[j].value, tol):
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = [[spectrum[i] for i in idxs] for idxs in groups.values()]
    clusters.sort(key=lambda members: -len(members))
    return clusters


def _unclassified(A):
    """The points of the spectrum of A, before `_classify`."""
    exact, leftover = split_roots(A.conductor())
    return [SpectrumPoint(v) for v, _ in exact] + \
        [SpectrumPoint(z, exact=False) for rest, _ in leftover
         for z in aberth_roots(rest)[0]]


def _numeric_examples():
    qi = NumberField([1, 0, 1], label="t^2+1")
    yield alg("x^2", "x*(x^2-2)*(x^2-3)")
    yield alg("x^2", "x^3 - 2*x")
    yield alg("(x^3-x-1)*(x+1)",
              *[f"(x^3-x-1)*(x^2-2)*x^{k}" for k in range(5)])
    yield alg(*[f"(x^2-2)^2*(x-1)*x^{k}" for k in range(5)])
    # one cluster {1, sqrt 2, -sqrt 2}: sqrt 2 pairs with -sqrt 2 first
    yield alg(*[f"(x^2-2)*(x-1)*x^{k}" for k in range(3)])
    yield alg(*[f"(x - t)*(x^3-x-1)*x^{k}" for k in range(4)], field=qi)
    yield alg("x^2", "x*(x^2+1)*(x^2-2)", field=qi)


def test_one_agreement_table_matches_the_retired_pairing_and_clusters():
    checked = numeric = 0
    for A in [*_draws_and_images(), *_numeric_examples()]:
        elements = A.sagbi_basis().elements
        points = _unclassified(A)
        all_vals = [(p.value, p.exact) for p in points]
        try:
            expected = [reference_classify(A.sagbi_basis(), p.value,
                                           p.exact, all_vals, 1e-8)
                        for p in points]
        except (SpectrumNotExact, UnpairedRoot) as exc:
            with pytest.raises(type(exc)):
                spectrum._classify(elements, points)
            continue
        spectrum._classify(elements, points)
        assert [(p.kind, p.partner) for p in points] == expected, A
        old = reference_compute_clusters(A, points)
        new = compute_clusters(A, points)
        assert [[points.index(p) for p in members] for members in old] == \
            [[points.index(p) for p in c.members] for c in new], A
        assert all(any(q is p for q in p.cluster.members) for p in points)
        checked += 1
        numeric += not all(p.exact for p in points)
    assert checked > 100 and numeric >= 4


def test_the_agreement_table_is_symmetric():
    # e = x^2 - 2x takes values 0 and 5e-8 at 0 and 2 + 2.5e-8, where its
    # terms have sizes 1 and 9: the pair agrees within 1e-8 of the larger
    # size in either order, where the scale of the first point alone
    # would pair them only when 2 + 2.5e-8 comes first
    e = parse_poly("x^2 - 2*x")
    for values in ([0j, 2 + 2.5e-8 + 0j], [2 + 2.5e-8 + 0j, 0j]):
        points = [SpectrumPoint(z, exact=False) for z in values]
        spectrum._classify([e], points)
        assert [p.partner for p in points] == values[::-1]
        assert points[0].cluster is points[1].cluster


def test_pairs_that_the_retired_pairing_left_unpaired():
    # c has an unsplit factor of degree 12; the retired pairing, which
    # scaled at the point being classified, left 0.5052 unpaired
    A = alg("x^3 - 3*x^2 + 2", "x^7 - 2*x^6 - 3*x^5 + x^4 - x^2 - x + 3")
    points = A.spectrum()
    partner = {round(p.value.real, 4): round(p.partner.real, 4)
               for p in points if abs(p.value.imag) < 1e-6}
    assert partner[0.5052] == 2.9256 and partner[2.927] == -0.4272
    # both pairs are pairs: 50-digit roots of c agree on both generators
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    c = sympy.Poly(list(reversed([str(a) for a in A.conductor().coeffs])),
                   x)
    roots = [r for r in c.nroots(n=50) if abs(sympy.im(r)) < 1e-30]
    p = sympy.Poly(x ** 3 - 3 * x ** 2 + 2, x)
    q = sympy.Poly(x ** 7 - 2 * x ** 6 - 3 * x ** 5 + x ** 4 - x ** 2 - x
                   + 3, x)
    for a, b in ((0.5052, 2.9256), (2.927, -0.4272)):
        ra = next(r for r in roots if abs(r - a) < 1e-3)
        rb = next(r for r in roots if abs(r - b) < 1e-3)
        assert abs(p.eval(ra) - p.eval(rb)) < 1e-40
        assert abs(q.eval(ra) - q.eval(rb)) < 1e-40


def test_float_coefficients_evaluate_as_poly_call_does():
    # `_classify` converts the coefficients to doubles once per call; the
    # values and scales must be those of Poly.__call__ and of the
    # per-coefficient conversion, bit for bit, or pairings could move
    rng = random.Random(30)
    for _ in range(50):
        e = Poly([F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 999))
                  for _ in range(rng.randint(1, 12))])
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        cs = spectrum._complex_coeffs(e)
        assert spectrum._horner(cs, z) == e(z)
        az, scale, power = abs(z), 1.0, 1.0
        for c in e.coeffs:
            scale += abs(float(c)) * power
            power *= az
        assert spectrum._size(cs, z) == scale == spectrum._scale(e, z)


def test_aberth_starts_inside_large_coefficients():
    # the conductor is irreducible of degree 42 with coefficients up to
    # 4e5; started on Cauchy's circle, Aberth ran out of sweeps
    # (NonConvergence) before every root converged
    A = alg("x^7 - x^6 + x^5 + x^4 + x^3 + 3*x^2 - x - 2",
            "x^8 - 2*x^7 + 2*x^5 - 2*x^4 - 2*x^2 + 2*x - 2")
    points = A.spectrum()
    assert len(points) == A.conductor().degree
    assert all(p.kind == "paired" for p in points)
    c = A.conductor()
    assert all(abs(c(p.value)) < 1e-6 * spectrum._scale(c, p.value)
               for p in points)


@pytest.mark.parametrize("name", ["default:150", "6:58", "9:36", "3:86"])
def test_refined_roots_pair_what_the_aberth_roots_leave_unpaired(
        name, monkeypatch):
    calls = []

    def counted(p, roots):
        calls.append(p.degree)
        return refined_roots(p, roots)

    monkeypatch.setattr(spectrum, "refined_roots", counted)
    p, q = unpaired_pair(name)
    points = Subalgebra.from_generators([p, q]).spectrum()
    assert calls and points
    assert all(pt.kind == "paired" for pt in points)
    for pt in points:
        a, b = complex(pt.value), complex(pt.partner)
        for e in (p, q):
            assert abs(e(a) - e(b)) <= \
                1e-12 * max(spectrum._scale(e, a), spectrum._scale(e, b))


@pytest.mark.xfail(raises=UnpairedRoot, strict=True,
                   reason="a tight cluster of six roots near -2.85 is not "
                   "resolved in 8 Newton steps: the float pairing fails "
                   "until ROADMAP item 2 pairs the roots exactly")
def test_refined_roots_leave_a_tight_cluster_unpaired():
    Subalgebra.from_generators(list(unpaired_pair("7:36"))).spectrum()
