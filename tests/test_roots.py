from fractions import Fraction as F

from subalg.fields import NumberField
from subalg.parsing import parse_poly as P
from subalg.roots import (aberth_roots, field_roots, hybrid_roots,
                          rational_roots, split_roots)


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


def test_field_roots_cyclotomic():
    nf = NumberField([1, 0, -1, 0, 1], label="t^4-t^2+1")
    p = P("x^4 - x^2 + 1")
    t = nf.gen()
    candidates = []
    power = nf.one
    for _ in range(12):
        power = power * t
        candidates.extend([power, -power])
    found, leftover = field_roots(p.coerce_to(nf), nf, candidates)
    assert len(found) == 4
    assert all(f.degree == 0 for f, _ in leftover)


def test_hybrid_prefers_exact():
    rs = hybrid_roots(P("(x - 2)*(x^2 + 1)"))
    assert dict(rs.exact_roots) == {F(2): 1}
    assert len(rs.numeric_roots) == 2
    assert all(abs(z.imag) > 0.9 for z, _, _ in rs.numeric_roots)


def test_split_roots_returns_the_unsplit_rest():
    roots, leftover = split_roots(P("(x - 1)^2 * (x^2 - 2)"))
    assert roots == [(F(1), 2)]
    assert leftover == [(P("x^2 - 2"), 1)]


def test_hybrid_over_a_field_splits_exactly():
    nf = NumberField([1, 0, 1], label="t^2+1")
    t = nf.gen()
    rs = hybrid_roots(P("(x - 2)*(x^2 + 1)^2"), nf=nf)
    assert dict(rs.exact_roots) == {nf.coerce(2): 1, t: 2, -t: 2}
    assert rs.numeric_roots == []
