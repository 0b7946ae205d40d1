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
from .poly import Poly, poly_gcd, squarefree_decompose
from .resultants import _lattice_gcd
from .roots import RESIDUAL_TOL, aberth_roots, split_roots

PAIR_TOL = 1e-8


@dataclass
class SpectrumPoint:
    """One point of the spectrum of `algebra`, with its classification."""

    value: object                  # exact scalar or complex
    kind: str                      # "derivative" or "paired"
    partner: object = None         # paired partner's value
    exact: bool = True
    algebra: object = dc_field(default=None, repr=False, compare=False)
    factor: object = dc_field(default=None, repr=False, compare=False)

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
    witnesses: dict = dc_field(default_factory=dict)

    def __len__(self):
        return len(self.members)


def characteristic_polynomial(A):
    """Monic χ of A: the multi-generator χ of its SAGBI basis (see
    `resultants._lattice_gcd`).  K[x] itself (codimension 0) has χ = 1
    and an empty spectrum.

    The gcd stops exactly when it reaches the conductor c of A: each
    nonzero sample is χ_{e, q} of two elements of A, which generates the
    conductor of K[e, q] (it is F_Q(e, q)/e′, Dedekind's formula for a
    plane curve), and K[e, q] ⊆ A gives c | χ_{e, q}, so the gcd can never
    fall below c.  Where χ ≠ c every sample is taken.
    """
    A = Subalgebra.of(A)
    basis = A.sagbi_basis()
    if basis.semigroup.genus == 0:
        return Poly.constant(basis.field.one, basis.field)
    return _lattice_gcd(basis.elements, A.conductor().degree)


def compute_spectrum(A, mode="hybrid", nf=None, tol=PAIR_TOL):
    """The spectrum of A as classified SpectrumPoints.

    The points are the zeros of the conductor c of A.  The exact ones come
    from `split_roots` of c over nf (default: the field of A), so they are
    ordered by their order as roots of c, then rational values by value,
    then the others as `split_roots` orders them; the modes differ in what
    happens to the unsplit rest.
    mode = "exact": any unsplit rest raises SpectrumNotExact;
    mode = "numeric": every point as a complex double-precision root;
    mode = "hybrid" (default): exact where possible, numeric otherwise.
    Multiplicities are read from χ only when asked for.
    """
    A = Subalgebra.of(A)
    basis = A.sagbi_basis()
    c = A.conductor()
    if c.degree < 1:
        return []
    exact, leftover = split_roots(c, nf)
    if leftover and mode == "exact":
        raise SpectrumNotExact(
            f"irreducible factor of degree {leftover[0][0].degree} has "
            "no root in the supplied field")
    exact = [v for v, _ in exact]
    numeric = [(z, rest) for rest, _ in leftover
               for z in aberth_roots(rest, tol=RESIDUAL_TOL)[0]]
    if mode == "numeric":
        numeric = [(complex(_embed(v)), Poly.from_roots([v])) for v in exact] \
            + numeric
        exact = []

    all_vals = [(v, True) for v in exact] + [(v, False) for v, _ in numeric]
    return [SpectrumPoint(v, *_classify(basis, v, True, all_vals, tol),
                          algebra=A) for v in exact] + \
        [SpectrumPoint(z, *_classify(basis, z, False, all_vals, tol),
                       exact=False, algebra=A, factor=rest)
         for z, rest in numeric]


def _rational(value):
    """An exact scalar's rational value, or None for a number-field point
    outside Q (which has no chosen complex embedding)."""
    from fractions import Fraction
    if isinstance(value, (int, Fraction)):
        return value
    return value.to_rational()


def _embed(value):
    r = _rational(value)
    if r is None:
        raise SpectrumNotExact("cannot embed a number-field point "
                               "numerically without an embedding")
    return float(r)


def _classify(basis, value, exact, all_vals, tol):
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
                _rational(value if exact else other) is None:
            unembedded = True
            continue
        if _agree(elements, value, other, tol):
            return "paired", other
    if unembedded:
        raise SpectrumNotExact(
            f"characteristic root {value!r} has no partner that can be "
            "compared without a complex embedding of the number field")
    raise UnpairedRoot(
        f"characteristic root {value!r} is neither derivative-kind nor "
        "pairable")


def _agree(elements, a, b, tol):
    """Do all elements take one value at the spectrum points a and b?
    Exactly when both are exact, else numerically.  A number-field point
    with no rational value has no embedding to compare by, so it agrees
    with no numeric point."""
    if not isinstance(a, complex) and not isinstance(b, complex):
        return all(e(a) == e(b) for e in elements)
    a, b = (v if isinstance(v, complex) else _rational(v) for v in (a, b))
    if a is None or b is None:
        return False
    a, b = complex(a), complex(b)
    return all(abs(e(a) - e(b)) < tol * _scale(e, a) for e in elements)


def _scale(e, z):
    az, acc, power = abs(z), 1.0, 1.0
    for c in e.coeffs:
        try:
            acc += abs(complex(_embed(c))) * power
        except SpectrumNotExact:
            acc += power
        power *= az
    return acc


def compute_clusters(A, spectrum=None, tol=PAIR_TOL):
    """Partition of the spectrum: α ∼ β iff all basis elements agree."""
    A = Subalgebra.of(A)
    basis = A.sagbi_basis()
    if spectrum is None:
        spectrum = A.spectrum()
    n = len(spectrum)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    witnesses = {}
    for i in range(n):
        for j in range(i + 1, n):
            same = _agree(basis.elements, spectrum[i].value,
                          spectrum[j].value, tol)
            witnesses[(i, j)] = same
            if same:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for idxs in groups.values():
        members = [spectrum[i] for i in idxs]
        w = {(i, j): witnesses[(min(i, j), max(i, j))]
             for i in idxs for j in idxs if i < j}
        clusters.append(Cluster(members=members, witnesses=w))
    clusters.sort(key=lambda c: -len(c.members))
    return clusters


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
