"""Spectrum of a subalgebra: characteristic roots, pairing, clusters.

The spectrum of A consists of the points α where either every element of A
has vanishing derivative (derivative-kind) or some β ≠ α satisfies
f(α) = f(β) for all f in A (paired).  Both kinds are roots of the
characteristic polynomial χ, the multi-generator characteristic polynomial
of the SAGBI basis of A.  They are read off the conductor c of A, which
has the same zeros; χ is built only for the multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .conditions import Subalgebra, conditions_from_subalgebra
from .errors import (BoundViolated, NoDegreeTwoElement, SpectrumNotExact,
                     SubalgError, UnpairedRoot)
from .fields import format_scalar, is_zero_scalar, scalar_to_json
from .poly import Poly, _as_float, poly_gcd, squarefree_decompose
from .resultants import _lattice_gcd
from .roots import aberth_roots, refined_roots, split_roots

PAIR_TOL = 1e-8


@dataclass
class SpectrumPoint:
    """One point of the spectrum of `algebra`, with its classification
    (set by `_classify`)."""

    value: object                  # exact scalar or complex
    kind: str = None               # "derivative" or "paired"
    partner: object = None         # paired partner's value
    exact: bool = True
    algebra: object = dc_field(default=None, repr=False, compare=False)
    factor: object = dc_field(default=None, repr=False, compare=False)
    cluster: object = dc_field(default=None, repr=False, compare=False)

    @cached_property
    def multiplicity(self):
        """The order of the point as a root of χ, built on first read.  A
        numeric point's `factor` of c splits exactly over the square-free
        factors f_k of χ; the point is a root of the part smallest at it."""
        chi = self.algebra.char_poly()
        if self.exact:
            return chi.order_at(self.value)
        parts = [(poly_gcd(self.factor, f), k)
                 for f, k in squarefree_decompose(chi)]
        return min((abs(g(self.value)) / _scale(g, self.value), k)
                   for g, k in parts if g.degree >= 1)[1]

    def to_json(self):
        out = {"value": _value_json(self.value),
               "multiplicity": self.multiplicity,
               "kind": self.kind, "exact": self.exact}
        if self.partner is not None:
            out["partner"] = _value_json(self.partner)
        return out

    def __repr__(self):
        v = format_scalar(self.value) if self.exact else str(self.value)
        return f"SpectrumPoint({v}, {self.kind})"


def _value_json(value):
    """An exact scalar as `scalar_to_json`, a numeric one as re/im."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return scalar_to_json(value)


@dataclass
class Cluster:
    """An equivalence class of spectrum points under value-agreement."""

    members: list

    def __len__(self):
        return len(self.members)


def characteristic_polynomial(A):
    """Monic χ of A: the multi-generator χ of its SAGBI basis (see
    `resultants.char_poly_multi`).  With at most two elements, χ is the
    conductor c of A (1 for K[x]; see `conditions.conductor`) and no
    resultant is taken here.  With more, the lattice gcd stops exactly
    when it reaches c, by the proof in `char_poly_multi`; where χ ≠ c
    every sample is taken.
    """
    A = Subalgebra.of(A)
    basis = A.sagbi_basis()
    if len(basis.elements) <= 2:
        return A.conductor()
    return _lattice_gcd(basis.elements, A.conductor().degree)


def compute_spectrum(A, nf=None):
    """The spectrum of A over nf (default: the field of A) as classified
    SpectrumPoints (see `_classify`).

    The points are the zeros of the conductor c of A.  The exact ones are
    `split_roots` of c over nf, ordered by their order as roots of c, then
    rational values by value, then the others as `split_roots` orders them
    (over A's field, the basis's `conductor_roots` if known, no search);
    the roots of the unsplit rest follow as complex double-precision
    points (`exact` False), for factors over Q.  An unsplit factor with a
    coefficient outside Q has no chosen complex embedding and raises
    SpectrumNotExact.  So which points are exact depends only on the
    field.  Multiplicities are read from χ only when asked for.

    The complex points are first the `aberth_roots` of the rounded
    factors.  If one of them is left unpaired (UnpairedRoot), every
    factor's roots are refined by Newton's method on its exact integer
    form (`refined_roots`) and the points are classified once more; an
    UnpairedRoot then propagates.
    """
    A = Subalgebra.of(A)
    roots = A.sagbi_basis().conductor_roots
    exact, leftover = (roots, []) if roots is not None and \
        nf in (None, A.field) else split_roots(A.conductor(), nf)
    for rest, _ in leftover:
        if rest.to_rational() is None:
            raise SpectrumNotExact(
                f"the factor {rest} of the conductor has no roots over "
                f"{rest.field}, and a coefficient outside Q gives its roots "
                "no numeric value")
    numeric = [(rest, aberth_roots(rest)[0]) for rest, _ in leftover]

    def classified(numeric):
        points = [SpectrumPoint(v, algebra=A) for v, _ in exact] + \
            [SpectrumPoint(z, exact=False, algebra=A, factor=rest)
             for rest, roots in numeric for z in roots]
        _classify(A.sagbi_basis().elements, points)
        return points

    try:
        return classified(numeric)
    except UnpairedRoot:
        return classified([(rest, refined_roots(rest, roots))
                           for rest, roots in numeric])


def _rational(value):
    """An exact scalar's rational value, or None for a number-field point
    outside Q (which has no chosen complex embedding)."""
    from fractions import Fraction
    if isinstance(value, (int, Fraction)):
        return value
    return value.to_rational()


def _classify(elements, points):
    """Set the kind, partner and cluster of every point, from one table
    of agreement between the points.

    Two points agree when every element takes one value at both: exactly
    when both points are exact, and otherwise when |e(a) − e(b)| <
    PAIR_TOL·max(`_scale`(e, a), `_scale`(e, b)) for every element e, so
    the table is symmetric.  Some pairs with a numeric point cannot be
    compared: a number-field point with no rational value has no complex
    embedding, and no element with a non-rational coefficient can be
    evaluated at a complex point.  Each element is evaluated once per
    point, and at complex points only when there is a numeric point and
    every element is over Q; the coefficients of the elements and their
    derivatives are then converted to doubles once.

    A point is derivative-kind when every e′ vanishes there (below
    PAIR_TOL at a numeric point).  Otherwise its partner is the first
    point that agrees with it, those of its own exactness searched first;
    a point without one raises SpectrumNotExact when some comparison was
    not possible, else UnpairedRoot.  The clusters are the classes of
    agreement, their members in point order.
    """
    numeric = any(not p.exact for p in points) and \
        all(e.to_rational() is not None for e in elements)
    derivatives = [e.derivative() for e in elements]
    if numeric:
        floats = [_complex_coeffs(e) for e in elements]
        float_derivatives = [_complex_coeffs(d) for d in derivatives]
    exact_values, complex_values, deriv = [], [], []
    for p in points:
        if p.exact:
            exact_values.append([e(p.value) for e in elements])
            deriv.append(all(is_zero_scalar(d(p.value)) for d in derivatives))
            z = _rational(p.value) if numeric else None
        else:
            exact_values.append(None)
            deriv.append(numeric and all(abs(_horner(cs, p.value)) < PAIR_TOL
                                         for cs in float_derivatives))
            z = p.value if numeric else None
        complex_values.append(None if z is None else
                              [(_horner(cs, complex(z)), _size(cs, complex(z)))
                               for cs in floats])

    def agree(i, j):
        if exact_values[i] is not None and exact_values[j] is not None:
            return exact_values[i] == exact_values[j]
        if complex_values[i] is None or complex_values[j] is None:
            return None                 # not comparable
        return all(abs(u - v) < PAIR_TOL * max(su, sv) for (u, su), (v, sv)
                   in zip(complex_values[i], complex_values[j]))

    n = len(points)
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = agree(i, j)

    for i, p in enumerate(points):
        if deriv[i]:
            p.kind = "derivative"
            continue
        others = sorted((j for j in range(n) if j != i),
                        key=lambda j: points[j].exact != p.exact)
        j = next((j for j in others if table[i][j]), None)
        if j is not None:
            p.kind, p.partner = "paired", points[j].value
        elif any(table[i][j] is None for j in others):
            raise SpectrumNotExact(
                f"characteristic root {p.value!r} has no partner that can "
                "be compared without a complex embedding of the number "
                "field")
        else:
            raise UnpairedRoot(
                f"characteristic root {p.value!r} is neither "
                "derivative-kind nor pairable")

    groups, component = {}, [None] * n
    for i in range(n):
        if component[i] is None:
            component[i], stack = i, [i]
            while stack:
                k = stack.pop()
                for j in range(n):
                    if table[k][j] and component[j] is None:
                        component[j] = i
                        stack.append(j)
        groups.setdefault(component[i], []).append(points[i])
    for members in groups.values():
        cluster = Cluster(members)
        for p in members:
            p.cluster = cluster


def _complex_coeffs(e):
    """The coefficients of e over Q as complex doubles, as `Poly.__call__`
    converts them at a complex point."""
    return [complex(_as_float(c)) for c in e.coeffs]


def _horner(cs, z):
    """e(z) from `_complex_coeffs(e)`, in `Poly.__call__`'s order, so
    bit for bit its value."""
    acc = 0j
    for c in reversed(cs):
        acc = acc * z + c
    return acc


def _scale(e, z):
    """1 + Σ |e_k|·|z|^k for e over Q: the size of the terms of e(z)."""
    return _size(_complex_coeffs(e), z)


def _size(cs, z):
    """`_scale(e, z)` from `_complex_coeffs(e)`."""
    az, acc, power = abs(z), 1.0, 1.0
    for c in cs:
        acc += abs(c.real) * power
        power *= az
    return acc


def compute_clusters(A, spectrum=None):
    """The clusters of the spectrum (default: A's own-field one), as
    `_classify` set them: largest first, then in point order."""
    if spectrum is None:
        spectrum = Subalgebra.of(A).spectrum()
    clusters = {id(p.cluster): p.cluster for p in spectrum}
    return sorted(clusters.values(), key=len, reverse=True)


def spectrum_size_check(A, spectrum=None):
    """Check |Sp(A)| ≤ 2·codim; report, raising BoundViolated on failure."""
    A = Subalgebra.of(A)
    n = A.codimension()
    if spectrum is None:
        spectrum = A.spectrum()
    size = len(spectrum)
    report = {"codimension": n, "spectrum_size": size, "bound": 2 * n,
              "ok": size <= 2 * n, "all_differences": None}
    if size > 2 * n:
        raise BoundViolated(
            f"spectrum size {size} exceeds 2·codim = {2 * n}")
    if size == 2 * n and all(p.exact for p in spectrum):
        conds = conditions_from_subalgebra(A, spectrum)
        report["all_differences"] = all(L.kind == "diff" for L in conds)
    return report


# ---------------------------------------------------------------------------
# Algebras containing a degree-2 element
# ---------------------------------------------------------------------------


@dataclass
class Deg2Description:
    """Normal form of an algebra containing a monic degree-2 polynomial.

    After the shift x → x + α0 the degree-2 element is x² and the odd
    generator is x^(2·m0+1) · Π_i (x² − (α_i − α0)²)^(m_i + 1); spectrum
    pairs are (α_i, β_i) with β_i = 2·α0 − α_i.
    """

    alpha0: object
    m0: int
    pairs: list          # [(alpha_i, beta_i, m_i)]
    field: object


def deg2_description(A):
    """Extract the normal form; raises NoDegreeTwoElement otherwise."""
    basis = Subalgebra.of(A).sagbi_basis()
    field = basis.field
    deg2 = next((e for e in basis.elements if e.degree == 2), None)
    if deg2 is None:
        raise NoDegreeTwoElement("no degree-2 element in the SAGBI basis")
    two = field.coerce(2)
    alpha0 = -deg2.coeff(1) / two
    odd_elem = next((e for e in basis.elements if e.degree % 2 == 1), None)
    if odd_elem is None:
        raise SubalgError("degenerate basis: no odd-degree element")
    shifted = odd_elem.taylor_shift(alpha0)          # p(x + α0)
    odd_part_coeffs = [shifted.coeff(k) if k % 2 == 1 else field.zero
                       for k in range(shifted.degree + 1)]
    odd = Poly(odd_part_coeffs, field)
    if odd.degree != shifted.degree:
        raise SubalgError("odd generator lost its leading term")
    # odd = x · h(x²)
    h = Poly([odd.coeff(2 * k + 1) for k in range((odd.degree + 1) // 2)],
             field)
    m0 = 0
    while m0 < h.degree + 1 and is_zero_scalar(h.coeff(m0)):
        m0 += 1
    h = Poly(h.coeffs[m0:], field)
    roots, leftover = split_roots(h)
    if leftover:
        raise SpectrumNotExact("odd-generator roots not exact")
    pairs = []
    for r, m in roots:
        gamma = _square_root(r, field)
        if gamma is None:
            raise SpectrumNotExact(
                f"square root of {format_scalar(field.coerce(r))} not in "
                "the field")
        alpha_i = field.coerce(alpha0) + gamma
        beta_i = field.coerce(alpha0) - gamma
        pairs.append((alpha_i, beta_i, m - 1))
    return Deg2Description(alpha0=alpha0, m0=m0, pairs=pairs, field=field)


def _square_root(r, field):
    """A root of y² − r in the field (`split_roots`), or None: the
    nonnegative one when r is a rational square, else the first in the
    order `split_roots` gives (t before −t)."""
    roots = [v for v, _ in split_roots(
        Poly((-field.coerce(r), field.zero, field.one), field))[0]]
    rational = [v for v in roots if _rational(v) is not None]
    if rational:
        return max(rational, key=_rational)
    return roots[0] if roots else None


def deg2_from_description(desc):
    """Inverse constructor: the two generators from the normal form."""
    field = desc.field
    x = Poly.x(field)
    alpha0 = field.coerce(desc.alpha0)
    y = x - alpha0
    g2 = y * y
    odd = y ** (2 * desc.m0 + 1)
    for alpha_i, beta_i, m_i in desc.pairs:
        gamma = field.coerce(alpha_i) - alpha0
        odd = odd * (y * y - gamma * gamma) ** (m_i + 1)
    return Subalgebra(generators=[g2, odd])
