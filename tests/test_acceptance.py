"""End-to-end acceptance suite.

Each test covers one numbered criterion; the conftest hook prints a
one-line pass/fail verdict per criterion at the end of the run.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from conftest import register_criterion
from case_draws import all_draws, affine_variants
from subalg.conditions import (LinearFunctional, Subalgebra,
                               conditions_from_subalgebra, kernel_subalgebra)
from subalg.derivations import conjecture_dim_check, ln_coefficients
from subalg.errors import ConditionVanishesOnB, ParameterDegeneracy
from subalg.classify import classify, construct_case, type_of
from subalg.fields import QQ, NumberField
from subalg.oracle import (oracle_codimension, oracle_member,
                           oracle_multi_char_roots)
from subalg.parsing import parse_poly
from subalg.poly import Poly, squarefree_decompose
from subalg.resultants import char_poly_multi, char_poly_pair, \
    resultant_relation
from subalg.roots import aberth_roots
from subalg.sagbi import membership, sagbi_extend
from subalg.spectrum import compute_spectrum
from subalg.verify import run_verify

register_criterion(1, "pair characteristic polynomials, exact, < 1 s each")
register_criterion(2, "multi-generator characteristic polynomial + roots")
register_criterion(3, "partial-derivative identity on random pairs")
register_criterion(4, "cyclotomic kernel examples round trip")
register_criterion(5, "codimension formula on random coprime pairs")
register_criterion(6, "spectrum size bound on random instances")
register_criterion(7, "no new spectrum points outside the added condition")
register_criterion(8, "derivation dimension equals cotangent dimension")
register_criterion(9, "logarithmic-derivative coefficient rows 1..19")
register_criterion(10, "classification round trip over all families")
register_criterion(11, "membership agrees with the linear-span oracle")
register_criterion(12, "golden verification suite")


def P(src, field=None):
    return parse_poly(src, field=field)


def _random_monic(degree, rng, low=-3, high=3):
    coeffs = [F(rng.randint(low, high)) for _ in range(degree)] + [F(1)]
    return Poly(coeffs)


def _coprime_degree_pairs(max_degree):
    return [(m, n) for m in range(2, max_degree)
            for n in range(m + 1, max_degree + 1) if math.gcd(m, n) == 1]


def _close(z, w, tol=1e-8):
    return abs(complex(z) - complex(w)) <= tol


# ---------------------------------------------------------------------------
# shared draw list: every classification family with at least five draws,
# padded with affine images of the first rational draw of the family
# ---------------------------------------------------------------------------

_PADDED = None


def padded_draws():
    global _PADDED
    if _PADDED is not None:
        return _PADDED
    by_label = {}
    for label, params, expected in all_draws():
        by_label.setdefault(label, []).append((params, expected))
    out = []
    for label, entries in by_label.items():
        rows = [(label, params, expected) for params, expected in entries]
        rationals = [params for params, _ in entries
                     if all(not hasattr(v, "field") for v in params.values())]
        if rationals:
            # number-field draws come on top of five rational rows
            count = len(rationals)
            for moved in affine_variants(rationals[0]):
                if count >= 5:
                    break
                try:
                    construct_case(label, moved)
                except ParameterDegeneracy:
                    continue
                rows.append((label, moved, None))
                count += 1
        out.extend(rows)
    _PADDED = out
    return _PADDED


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_pair_charpolys():
    goldens = [
        ("x^3 - x", "x^2", "x^2 - 1"),
        ("x^4 - x^2", "x^3", "x^2 * (x^4 - x^2 + 1)"),
    ]
    for m, n in _coprime_degree_pairs(9):
        goldens.append((f"x^{m}", f"x^{n}", f"x^{(m - 1) * (n - 1)}"))
    for p_src, q_src, chi_src in goldens:
        start = time.monotonic()
        chi = char_poly_pair(P(p_src), P(q_src))
        elapsed = time.monotonic() - start
        assert chi == P(chi_src), (p_src, q_src)
        assert elapsed < 1.0, (p_src, q_src, elapsed)


def test_criterion_02_multi_charpoly():
    start = time.monotonic()
    gens = [P("x^12 + 3*x^6"), P("x^15"), P("x^10")]
    chi = char_poly_multi(gens)
    assert chi == P("x^50 * (x^24 + 6*x^18 + 36*x^12 + 81*x^6 + 81)")

    chi_roots = [0j]
    for factor, _ in squarefree_decompose(chi):
        reduced = factor
        while reduced.coeff(0) == 0 and reduced.degree > 0:
            reduced = reduced.exact_div(Poly.x(reduced.field))
        if reduced.degree >= 1:
            roots, residual = aberth_roots(reduced)
            assert residual < 1e-9
            chi_roots.extend(roots)
    oracle_roots = oracle_multi_char_roots(gens)
    for z in oracle_roots:
        assert any(_close(z, w) for w in chi_roots), z
    for w in chi_roots:
        assert any(_close(w, z) for z in oracle_roots), w
    assert time.monotonic() - start < 60.0


def test_criterion_03_partial_derivative_identity():
    rng = random.Random(20260824)
    pairs = _coprime_degree_pairs(6)
    for trial in range(20):
        m, n = pairs[rng.randrange(len(pairs))]
        p, q = _random_monic(m, rng), _random_monic(n, rng)
        Frel = resultant_relation(p, q)
        chi = char_poly_pair(p, q)
        dP = Frel.partial(0).substitute([p, q])
        dQ = Frel.partial(1).substitute([p, q])
        plus = (chi * q.derivative(), -(chi * p.derivative()))
        minus = (-(chi * q.derivative()), chi * p.derivative())
        assert (dP, dQ) in (plus, minus), (trial, p.coeffs, q.coeffs)


def test_criterion_04_cyclotomic_kernels():
    start = time.monotonic()

    def dc(terms):
        return LinearFunctional.derivative_combo(terms)

    def diff(a, b):
        return LinearFunctional.difference(a, b)

    examples = []

    conds = [dc([(k, F(0), F(1))]) for k in (1, 2, 5)]
    examples.append((conds, [P("x^3"), P("x^4")], [F(0)]))

    nf8 = NumberField([1, 0, 0, 0, 1], label="t^4+1")
    t = nf8.gen()
    one = nf8.coerce(1)
    conds = [diff(one, -one), diff(t, -(t * t * t)), diff(t * t * t, -t)]
    examples.append((conds,
                     [P("x^4", field=nf8), P("x^3 - x", field=nf8)],
                     [one, -one, t, -t, t * t * t, -(t * t * t)]))

    nf12 = NumberField([1, 0, -1, 0, 1], label="t^4-t^2+1")
    t = nf12.gen()
    e5 = t * t * t * t * t
    conds = [dc([(1, nf12.zero, nf12.coerce(1))]), diff(t, e5),
             diff(-t, -e5)]
    examples.append((conds,
                     [P("x^4 - x^2", field=nf12), P("x^3", field=nf12)],
                     [nf12.zero, t, e5, -t, -e5]))

    nf3 = NumberField([1, 1, 1], label="t^2+t+1")
    eps = nf3.gen()
    one = nf3.coerce(1)
    conds = [diff(one, eps), diff(one, eps * eps),
             dc([(1, one, one), (1, eps, eps * eps), (1, eps * eps, eps)])]
    examples.append((conds,
                     [P("x^4 - x", field=nf3), P("x^3", field=nf3)],
                     [one, eps, eps * eps]))

    for conds, gens, spectrum in examples:
        A = kernel_subalgebra(conds)
        expected = Subalgebra.from_generators(gens)
        assert A == expected
        recovered = conditions_from_subalgebra(A, spectrum)
        assert kernel_subalgebra(recovered) == A
    assert time.monotonic() - start < 30.0


def test_criterion_05_codimension_formula():
    rng = random.Random(5)
    pairs = _coprime_degree_pairs(7)
    for trial in range(20):
        m, n = pairs[rng.randrange(len(pairs))]
        p, q = _random_monic(m, rng), _random_monic(n, rng)
        assert oracle_codimension([p, q]) == (m - 1) * (n - 1) // 2, \
            (trial, p.coeffs, q.coeffs)


def test_criterion_06_spectrum_size_bound():
    # the first 50 rational draws and every number-field draw
    count = fields = 0
    for label, params, _ in padded_draws():
        number_field = any(hasattr(v, "field") for v in params.values())
        if count >= 50 and not number_field:
            continue
        A = construct_case(label, params)
        n = A.codimension()
        assert n <= 3
        points = compute_spectrum(A)
        assert len(points) <= 2 * n, (label, params, len(points))
        fields += number_field
        count += not number_field
    assert count == 50 and fields


def test_criterion_07_no_ghost_points():
    rng = random.Random(7)
    bases = [(label, params) for label, params, _ in padded_draws()
             if not label.startswith("codim3")]
    done = fields = 0
    attempts = 0
    while done < 30 and attempts < 300:
        attempts += 1
        label, params = bases[rng.randrange(len(bases))]
        B = construct_case(label, params)
        if rng.random() < 0.5:
            a, b = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
            if a == b:
                continue
            L = LinearFunctional.difference(a, b)
        else:
            a = F(rng.randint(-4, 4))
            L = LinearFunctional.derivative_combo([(1, a, F(1))])
        try:
            extended = sagbi_extend(B.sagbi_basis(), L)
        except ConditionVanishesOnB:
            continue
        # exact points compare exactly, numeric ones within 1e-8
        allowed = [pt.value for pt in compute_spectrum(B)] + L.points()
        for pt in compute_spectrum(extended):
            if pt.exact:
                assert pt.value in allowed, (label, params, pt.value)
            else:
                assert any(_close(pt.value, w) for w in allowed
                           if isinstance(w, complex)), (label, params, pt)
        done += 1
        fields += B.field is not QQ
    assert done == 30 and fields


def test_criterion_08_derivation_dimension_conjecture():
    for label, params, _ in padded_draws():
        A = construct_case(label, params)
        alpha = params.get("alpha", params.get("gamma"))
        report = conjecture_dim_check(A, alpha)
        assert report["equal"], (label, params, report)


def test_criterion_09_log_derivative_rows():
    table = {
        1: {1: 1},
        3: {3: 1, 2: -1},
        5: {5: 1, 4: -2},
        7: {7: 1, 6: -3, 4: 3},
        9: {9: 1, 8: -4, 6: 11, 4: -11},
        11: {11: 1, 10: -5, 8: 26, 6: -78, 4: 78},
        13: {13: 1, 12: -6, 10: 50, 8: -294, 6: 882, 4: -882},
        15: {15: 1, 14: -7, 12: 85, 10: -816, 8: 4811, 6: -14433,
             4: 14433},
        17: {17: 1, 16: -8, 14: 133, 12: -1881, 10: 18145, 8: -106989,
             6: 320967, 4: -320967},
        19: {19: 1, 18: -9, 16: 196, 14: -3822, 12: 54399, 10: -524880,
             8: 3094881, 6: -9284643, 4: 9284643},
    }
    for n, row in table.items():
        assert ln_coefficients(n) == row, n


def test_criterion_10_classification_round_trip():
    start = time.monotonic()
    for label, params, expected in padded_draws():
        A = construct_case(label, params)
        result = classify(A)
        assert result.label == label, (label, params, result.label)
        if expected is not None:
            assert result.type == expected == type_of(A), (label, params)
        B = construct_case(result.label, result.parameters)
        assert B == A, (label, params)
    assert time.monotonic() - start < 300.0


def test_criterion_11_membership_matches_oracle():
    rng = random.Random(11)
    pairs = _coprime_degree_pairs(6)
    probes = 0
    for _ in range(20):
        m, n = pairs[rng.randrange(len(pairs))]
        p, q = _random_monic(m, rng), _random_monic(n, rng)
        A = Subalgebra.from_generators([p, q])
        for _ in range(10):
            if rng.random() < 0.5:
                f = Poly.constant(F(rng.randint(-2, 2)))
                for _ in range(rng.randint(1, 3)):
                    term = Poly.constant(F(rng.randint(-2, 2)))
                    for _ in range(rng.randint(0, 2)):
                        term = term * p
                    for _ in range(rng.randint(0, 2)):
                        term = term * q
                    f = f + term
            else:
                f = Poly([F(rng.randint(-4, 4))
                          for _ in range(rng.randint(1, 13))] + [F(1)])
            assert membership(f, A)[0] == oracle_member(f, [p, q]), \
                (p.coeffs, q.coeffs, f.coeffs)
            probes += 1
    assert probes == 200


def test_criterion_12_verification_suite():
    start = time.monotonic()
    rows = run_verify()
    failures = [(name, detail) for name, ok, detail in rows if not ok]
    assert not failures, failures
    assert time.monotonic() - start < 600.0
