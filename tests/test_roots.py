import random
from fractions import Fraction as F
from math import gcd as int_gcd

import pytest

from subalg import roots as roots_module
from subalg.errors import FieldMismatch, NonConvergence
from subalg.fields import QQ, NumberField, is_zero_scalar
from subalg.modular import integral_modulus, is_prime
from subalg.parsing import parse_poly as P
from subalg.poly import Poly, squarefree_decompose
from subalg.roots import (aberth_roots, field_roots, rational_roots,
                          refined_roots, split_roots)
from test_resultants import reference_scalar_resultant


def test_rational_roots_with_multiplicity():
    roots = dict(rational_roots(P("x^2 * (x - 1)^3 * (2*x + 1)")))
    assert roots == {F(0): 2, F(1): 3, F(-1, 2): 1}


def test_rational_roots_none():
    assert rational_roots(P("x^2 + 1")) == []


def test_rational_roots_large_coefficients():
    p = P("(x - 1000003)*(x + 999999)")
    assert dict(rational_roots(p)) == {F(1000003): 1, F(-999999): 1}


def test_aberth_accuracy():
    roots, residual = aberth_roots(P("x^3 - 1"))
    assert residual < 1e-10
    assert sorted(round(abs(z), 6) for z in roots) == [1.0, 1.0, 1.0]


def test_aberth_rejects_field_coefficients():
    nf = NumberField([1, 0, 1], label="t^2+1")
    with pytest.raises(FieldMismatch):
        aberth_roots(P("x^2 - t", field=nf))


def test_field_roots_cyclotomic():
    nf = NumberField([1, 0, -1, 0, 1], label="t^4-t^2+1")
    t = nf.gen()
    found, leftover = field_roots(P("x^4 - x^2 + 1").coerce_to(nf), nf)
    assert found == [(t, 1), (-t, 1), (t ** 3 - t, 1), (t - t ** 3, 1)]
    assert leftover == []


def test_hybrid_prefers_exact():
    # exact roots first; only the unsplit rest goes to Aberth
    roots, leftover = split_roots(P("(x - 2)*(x^2 + 1)"))
    assert roots == [(F(2), 1)] and leftover == [(P("x^2 + 1"), 1)]
    numeric, _ = aberth_roots(leftover[0][0])
    assert len(numeric) == 2
    assert all(abs(z.imag) > 0.9 for z in numeric)


def test_split_roots_returns_the_unsplit_rest():
    roots, leftover = split_roots(P("(x - 1)^2 * (x^2 - 2)"))
    assert roots == [(F(1), 2)]
    assert leftover == [(P("x^2 - 2"), 1)]


def test_hybrid_over_a_field_splits_exactly():
    # over a field that splits it, nothing is left for Aberth
    nf = NumberField([1, 0, 1], label="t^2+1")
    t = nf.gen()
    roots, leftover = split_roots(P("(x - 2)*(x^2 + 1)^2"), nf=nf)
    assert dict(roots) == {nf.coerce(2): 1, t: 2, -t: 2}
    assert leftover == []


# --- the exact searches that p-adic lifting replaced ----------------------

def _reference_factorize(n):
    """Prime factorization of n > 0 (trial division + Pollard rho)."""
    factors = {}

    def add(p):
        factors[p] = factors.get(p, 0) + 1

    d = 2
    while d * d <= n and d < 100000:
        while n % d == 0:
            add(d)
            n //= d
        d += 1 if d == 2 else 2
    if n == 1:
        return factors

    def rho(m):
        if m % 2 == 0:
            return 2
        c = 1
        while True:
            x = y = 2
            d = 1
            while d == 1:
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                d = int_gcd(abs(x - y), m)
            if d != m:
                return d
            c += 1

    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            add(m)
            continue
        d = rho(m)
        stack.extend([d, m // d])
    return factors


def _reference_divisors(n):
    if n == 0:
        return []
    out = [1]
    for p, e in _reference_factorize(abs(n)).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return out


def reference_rational_roots(p):
    """Rational roots by the divisors of a_0 and a_n of each square-free
    factor's integer form."""
    out = []
    for factor, mult in squarefree_decompose(p):
        denom = 1
        for c in factor.coeffs:
            denom = denom * c.denominator // int_gcd(denom, c.denominator)
        ints = [int(c * denom) for c in factor.coeffs]
        low = next(i for i, c in enumerate(ints) if c)
        if low > 0:
            out.append((F(0), mult))
            ints = ints[low:]
        if len(ints) <= 1:
            continue
        for num in _reference_divisors(ints[0]):
            for den in _reference_divisors(ints[-1]):
                if int_gcd(num, den) != 1:
                    continue
                for cand in (F(num, den), F(-num, den)):
                    acc = F(0)
                    for c in reversed(ints):
                        acc = acc * cand + c
                    if not acc:
                        out.append((cand, mult))
    return sorted(out)


def reference_candidates(nf):
    """Trial roots in nf: ±t^k for k < 6·[nf:Q] + 13, then 0, ±1, ±2."""
    out = []
    t = nf.gen()
    power = nf.one
    for _ in range(6 * nf.degree + 13):
        for c in (power, -power):
            if c not in out:
                out.append(c)
        power = power * t
    for r in (0, 1, -1, 2, -2):
        c = nf.coerce(r)
        if c not in out:
            out.append(c)
    return out


def reference_split_roots(p, nf):
    """Rational roots of each rational square-free factor, then its roots
    among `reference_candidates`, then the root of a linear rest."""
    candidates = reference_candidates(nf)
    roots, leftover = [], []
    for factor, mult in squarefree_decompose(p):
        f = factor.coerce_to(nf)
        rat = factor.to_rational()
        if rat is not None:
            for v, _ in reference_rational_roots(rat):
                roots.append((nf.coerce(v), mult))
                f = f.exact_div(Poly((-nf.coerce(v), nf.one), nf))
        for c in candidates:
            if f.degree < 1:
                break
            if is_zero_scalar(f(c)):
                roots.append((c, mult))
                f = f.exact_div(Poly((-c, nf.one), nf))
        if f.degree == 1:
            roots.append((-f.coeff(0) / f.leading_coeff(), mult))
        elif f.degree > 1:
            leftover.append((f, mult))
    return roots, leftover


def _random_rational_poly(rng):
    """A product of planted linear factors (some with large or fractional
    roots, some repeated) and a random integer polynomial."""
    p = Poly.constant(F(rng.choice((1, 2, -3, 6))))
    for _ in range(rng.randint(0, 4)):
        num = rng.choice((rng.randint(-30, 30), rng.randint(-10 ** 7, 10 ** 7),
                          1000003, -999999))
        den = rng.choice((1, 1, 2, 3, 7, 12, 1024, 999983))
        p = p * Poly((-F(num), F(den))) ** rng.randint(1, 3)
    rest = Poly([F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
                + [F(rng.randint(1, 4))])
    return p * rest


def test_rational_roots_match_the_divisor_search():
    rng = random.Random(20261018)
    for _ in range(60):
        p = _random_rational_poly(rng)
        assert rational_roots(p) == reference_rational_roots(p), p


def _fields():
    return {
        "sqrt2": NumberField([-2, 0, 1], label="t^2-2"),
        "i": NumberField([1, 0, 1], label="t^2+1"),
        "cbrt2": NumberField([-2, 0, 0, 1], label="t^3-2"),
        "phi8": NumberField([1, 0, 0, 0, 1], label="t^4+1"),
        "half": NumberField([F(-1, 2), 0, 1], label="t^2-1/2"),
    }


def test_lifted_roots_take_the_discriminant_of_the_exact_euclid(monkeypatch):
    seen = []
    real = roots_module._discriminant

    def spy(mt):
        seen.append((tuple(mt), real(mt)))
        return seen[-1][1]

    monkeypatch.setattr(roots_module, "_discriminant", spy)
    fields = [QQ, *_fields().values()]
    for nf in fields:
        split_roots(P("x^2 - 2", field=nf))
    assert {mt for mt, _ in seen} == \
        {tuple(integral_modulus(nf.modulus_coeffs)[0]) for nf in fields}
    for mt, disc in seen:
        assert abs(disc) == abs(reference_scalar_resultant(
            [F(a) for a in mt], [F(k * a) for k, a in enumerate(mt)][1:], QQ))


def _random_element(rng, nf):
    coords = [rng.choice((F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-7, 3),
                          F(3), F(1, 5)))
              for _ in range(nf.degree)]
    return nf.from_coeffs(coords)


def test_field_roots_include_the_candidate_search():
    rng = random.Random(7)
    for nf in _fields().values():
        t = nf.gen()
        for _ in range(8):
            planted = [rng.choice((t, -t, t ** 2, -t ** 3, nf.coerce(2)))
                       for _ in range(rng.randint(1, 3))]
            planted += [_random_element(rng, nf)
                        for _ in range(rng.randint(0, 2))]
            p = Poly.from_roots(planted, nf) * P("x^2 + x + 7", field=nf)
            got = {v for v, _ in split_roots(p)[0]}
            ref = {v for v, _ in reference_split_roots(p, nf)[0]}
            assert ref <= got, (nf, p)


def test_order_matches_the_candidate_search_where_it_splits():
    # rational polynomials whose roots are rational or ±t^k: the order of
    # the lifted roots is the order the candidate list gave
    fields = _fields()
    cases = [("phi8", "x * (x^4 + 1) * (x^2 - 1)"),
             ("phi8", "(x^2 + 1)^2 * (x^4 + 1)"),
             ("sqrt2", "(x^2 - 2) * (x + 3)^2 * (x^4 - 4)"),
             ("i", "(x^2 + 1)^2 * (x - 2) * (x^4 - 1)"),
             ("cbrt2", "(x^3 - 2) * (x^3 - 4) * x"),
             ("half", "(2*x^2 - 1) * (x - 1/2)")]
    phi12 = NumberField([1, 0, -1, 0, 1], label="t^4-t^2+1")
    for name, src in cases:
        nf = fields[name]
        p = P(src)
        assert split_roots(p, nf) == reference_split_roots(p, nf), src
    p = P("x^2 * (x^4 - x^2 + 1)")
    assert split_roots(p, phi12) == reference_split_roots(p, phi12)
    # a power t^k with k >= [K:Q] can share its top coordinate with a lower
    # power, and then the orders differ: over Q(zeta_12), t^4 = t^2 - 1
    # comes before -t^2 here and after it in the candidate list
    p = P("(x^2 + 1) * (x^2 + x + 1)")
    t = phi12.gen()
    assert [v for v, _ in split_roots(p, phi12)[0]] == \
        [t ** 2 - 1, -t ** 2, t ** 3, -t ** 3]
    assert [v for v, _ in reference_split_roots(p, phi12)[0]] == \
        [-t ** 2, t ** 3, -t ** 3, t ** 2 - 1]


@pytest.mark.parametrize("name", ["sqrt2", "i", "cbrt2", "phi8", "half"])
def test_planted_roots_are_found(name):
    nf = _fields()[name]
    t = nf.gen()
    rng = random.Random(name)
    fixed = [1 + t, F(1, 2) - t, F(-7, 3) * t, F(1, 5) - 3 * t]
    if nf.degree > 2:
        fixed += [1 + t ** 2, 3 * t ** 2, F(1, 5) - t + t ** 2]
    for trial in range(6):
        planted = rng.sample(fixed, 2) + [_random_element(rng, nf)
                                          for _ in range(trial % 3)]
        mults = [rng.randint(1, 2) for _ in planted]
        p = Poly.constant(nf.coerce(F(rng.choice((1, 3, -2)), 5)), nf)
        for r, k in zip(planted, mults):
            p = p * Poly((-r, nf.one), nf) ** k
        p = p * P("x^3 - 3*x + 7", field=nf)
        roots, leftover = split_roots(p)
        got = dict(roots)
        assert len(got) == len(roots)
        for r, k in zip(planted, mults):
            assert got.get(r, 0) >= k, (p, r)
        for v in got:
            assert is_zero_scalar(p(v)), (p, v)
        rest = Poly.constant(nf.one, nf)
        for f, k in leftover:
            rest = rest * f ** k
        assert rest * Poly.from_roots(
            [v for v, k in roots for _ in range(k)], nf) == p.monic()


def test_rational_roots_of_a_field_factor_come_first():
    nf = _fields()["i"]
    t = nf.gen()
    p = Poly.from_roots([t, nf.coerce(2), -t + 1, nf.coerce(-1)], nf)
    assert [v for v, _ in split_roots(p)[0]] == [-1, 2, t, 1 - t]


def _to_sympy(value, gen):
    import sympy
    coords = getattr(value, "coeffs", (value,))
    return sympy.expand(sum(sympy.Rational(c.numerator, c.denominator)
                            * gen ** u for u, c in enumerate(coords)))


@pytest.mark.parametrize("modulus", [(-2, 0, 1), (1, 0, 1)])
def test_roots_match_sympy_factoring(modulus):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    gen = sympy.sqrt(2) if modulus[0] == -2 else sympy.I
    nf = NumberField(modulus)
    sources = ["(x^2 - 2*x - 1) * (x^2 + 1)", "x^4 - 4", "x^2 - 2*t",
               "(x - 2 - 3*t) * (2*x - 1 + 2*t) * (x^3 - 5)",
               "x^4 + 1", "(x^2 + 2) * (9*x^2 - 8)"]
    for src in sources:
        expr = sympy.sympify(src.replace("^", "**"), locals={"t": gen})
        _, factors = sympy.factor_list(expr, x, extension=gen)
        expected = {sympy.expand(sympy.radsimp(-f.coeff(x, 0) / f.coeff(x, 1)))
                    for f, _ in factors if sympy.degree(f, x) == 1}
        got = {_to_sympy(v, gen) for v, _ in split_roots(P(src, field=nf))[0]}
        assert got == expected, src


def _leftover_factors(pairs):
    """The factors of the conductors of K[p, q] that `split_roots` leaves
    to Aberth."""
    from subalg.conditions import Subalgebra
    return [rest for p, q in pairs for rest, _ in
            split_roots(Subalgebra.from_generators([p, q]).conductor())[1]]


# the degree-42 conductor of tests/test_spectrum.py
# test_aberth_starts_inside_large_coefficients
LARGE_COEFFICIENTS = (P("x^7 - x^6 + x^5 + x^4 + x^3 + 3*x^2 - x - 2"),
                      P("x^8 - 2*x^7 + 2*x^5 - 2*x^4 - 2*x^2 + 2*x - 2"))


# charpoly pair items (seed:item) of the benchmark stream whose Aberth
# roots leave a point unpaired; the refined roots pair all but 7:36
UNPAIRED_BY_ABERTH = {
    "default:150": ((-2, 1, 1, 3, 2, 2, 1, 3, 1),
                    (0, 1, 2, 1, -3, -3, 2, 3, 3, 1)),
    "6:58": ((2, 0, 1, -2, -3, 1), (-3, 2, 2, 2, 3, -2, -1, -3, 1)),
    "9:36": ((-3, -3, -2, 2, -3, 1, -1, 2, 1),
             (-1, 0, -1, 0, 3, 3, 2, -1, 2, 1)),
    "3:86": ((3, 1, -1, -3, 1), (-2, 3, 0, 0, -1, 2, -1, -3, -2, 1)),
    "7:36": ((-2, 2, -1, -1, 1, 2, -2, 2, 1),
             (-1, 3, 1, -3, 1, 0, 1, 1, 3, 1)),
}


def unpaired_pair(name):
    return tuple(Poly([F(c) for c in cs]) for cs in UNPAIRED_BY_ABERTH[name])


def _one_to_one(candidates):
    """Can each i take its own j from candidates[i] (augmenting paths)?"""
    owner = {}

    def augment(i, seen):
        for j in candidates[i]:
            if j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(candidates)))


def test_aberth_roots_are_the_roots_one_to_one(monkeypatch):
    # each returned z has a root of f within n·|f(z)/f′(z)| (from
    # f′/f(z) = Σ 1/(z − r)); disjoint discs hold one root each, and
    # overlapping ones are matched to sympy's 30-digit roots
    sympy = pytest.importorskip("sympy")
    import mpmath
    from test_resultants import _charpoly_items
    large = _leftover_factors([LARGE_COEFFICIENTS])
    assert [f.degree for f in large] == [42]
    factors = _leftover_factors(_charpoly_items("pair", 200))
    assert len(factors) > 150
    cluster = _leftover_factors([unpaired_pair("7:36")])
    matched = 0
    with mpmath.workdps(30):
        for f in factors + large + cluster:
            roots, _ = aberth_roots(f)
            assert len(roots) == f.degree
            coeffs = [mpmath.mpf(c.numerator) / c.denominator
                      for c in reversed(f.coeffs)]
            discs = []
            for z in roots:
                value, slope = mpmath.polyval(coeffs, z, derivative=True)
                discs.append((z, f.degree * abs(value / slope)))
            if all(abs(z - w) > r + s for i, (z, r) in enumerate(discs)
                   for w, s in discs[i + 1:]):
                continue
            x = sympy.Symbol("x")
            exact = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                                for c in reversed(f.coeffs)], x)
            true = [mpmath.mpmathify(w)
                    for w in exact.nroots(n=30, maxsteps=200)]
            assert _one_to_one([[j for j, w in enumerate(true)
                                 if abs(z - w) <= r] for z, r in discs]), f
            matched += 1
    assert matched >= 1
    monkeypatch.setattr(roots_module, "MAX_ITERATIONS", 5)
    with pytest.raises(NonConvergence):
        aberth_roots(large[0])


def test_refined_roots_are_the_correctly_rounded_roots():
    sympy = pytest.importorskip("sympy")
    from subalg.conditions import Subalgebra
    (f, _), = split_roots(Subalgebra.from_generators(
        unpaired_pair("default:150")).conductor())[1]
    assert f.degree == 56
    refined = refined_roots(f, aberth_roots(f)[0])
    x = sympy.Symbol("x")
    true = [complex(w) for w in sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator)
         for c in reversed(f.coeffs)], x).nroots(n=60, maxsteps=200)]
    nearest = [min(range(len(true)), key=lambda j: abs(z - true[j]))
               for z in refined]
    assert sorted(nearest) == list(range(len(true)))
    assert all(abs(z - true[j]) <= 1e-15 * abs(true[j])
               for z, j in zip(refined, nearest))
    assert sorted(refined, key=lambda z: (z.real, z.imag)) == \
        sorted((z.conjugate() for z in refined),
               key=lambda z: (z.real, z.imag))
    # a real start stays on the real axis, on the correctly rounded root
    g = P("x^5 - 3*x + 1")
    starts = [complex(r) for r in (-1.4, 0.3, 1.2)]
    real = sorted(float(r.evalf(30)) for r in sympy.Poly(
        [1, 0, 0, 0, -3, 1], x).real_roots())
    got = refined_roots(g, starts)
    assert all(z.imag == 0 for z in got)
    assert [z.real for z in got] == real
