"""Subduction, SAGBI completion, SAGBI extension, and membership.

A SAGBI basis here is a set of monic polynomials, one per degree, whose
degrees generate the degree semigroup of the subalgebra they generate.
Subduction repeatedly subtracts a scalar multiple of a product of basis
elements matching the leading degree; membership holds iff the remainder is
a constant.
"""

from __future__ import annotations

from math import gcd
from functools import reduce

from .errors import (ConditionVanishesOnB, InfiniteCodimension, SubalgError)
from .fields import QQ, common_field, is_zero_scalar
from .poly import Poly
from .semigroup import NOT_MEMBER, DegreeSemigroup


class SagbiBasis:
    """Monic basis elements with strictly increasing degrees."""

    __slots__ = ("elements", "semigroup", "field", "_by_degree",
                 "_product_cache")

    def __init__(self, elements, semigroup=None):
        elements = sorted((e.monic() for e in elements if e.degree >= 1),
                          key=lambda e: e.degree)
        if not elements:
            raise SubalgError("empty SAGBI basis")
        degrees = [e.degree for e in elements]
        if len(set(degrees)) != len(degrees):
            raise SubalgError("duplicate degrees in SAGBI basis")
        field = QQ
        for e in elements:
            field = common_field(field, e.field)
        self.elements = tuple(e.coerce_to(field) for e in elements)
        self.field = field
        self.semigroup = semigroup or DegreeSemigroup(degrees)
        self._by_degree = {e.degree: e for e in self.elements}
        self._product_cache = {}

    @property
    def degrees(self):
        return tuple(e.degree for e in self.elements)

    def product_for(self, rep):
        """Monic product of basis elements whose degrees form `rep`, built
        on the cached product of its prefix."""
        rep = tuple(rep)
        prod = self._product_cache.get(rep)
        if prod is None:
            prod = self.product_for(rep[:-1]) * self._by_degree[rep[-1]] \
                if rep else Poly.constant(self.field.one, self.field)
            self._product_cache[rep] = prod
        return prod

    def degree_products(self, bound):
        """One algebra element per semigroup degree 0..bound: the monic
        product for each degree's representation, the constant 1 first.
        They span the algebra up to degree `bound`."""
        S = self.semigroup
        return [self.product_for(S.represent(d)) for d in range(bound + 1)
                if S.contains(d)]

    def coerce_to(self, field):
        if field is self.field:
            return self
        return SagbiBasis([e.coerce_to(field) for e in self.elements],
                          self.semigroup)

    def __repr__(self):
        return f"SagbiBasis(degrees={list(self.degrees)})"


def subduce(f, basis):
    """Subduct f against the basis.

    Returns (remainder, certificate).  The remainder is constant or has a
    gap degree; each certificate step is (degree, coefficient, representation)
    recording the subtracted product of basis elements.  Every generator of
    the semigroup is the degree of a basis element, so each representation
    names basis elements.
    """
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


def _all_representations(d, degrees):
    """All multisets of the given degrees summing to d (nonincreasing)."""
    degrees = sorted(set(degrees), reverse=True)
    out = []

    def rec(remaining, max_deg, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for g in degrees:
            if g > max_deg or g > remaining:
                continue
            acc.append(g)
            rec(remaining - g, g, acc)
            acc.pop()

    rec(d, max(degrees, default=0), [])
    return out


def _eliminate_degrees(gens):
    """Reduce generators to monic elements with pairwise distinct degrees."""
    field = QQ
    for g in gens:
        field = common_field(field, g.field)
    work = [g.coerce_to(field) for g in gens if g.degree >= 1]
    by_degree = {}
    queue = sorted(work, key=lambda g: g.degree)
    while queue:
        g = queue.pop(0).monic()
        d = g.degree
        if d < 1:
            continue
        if d not in by_degree:
            by_degree[d] = g
            continue
        diff = g - by_degree[d]
        if diff.degree >= 1:
            queue.append(diff)
            queue.sort(key=lambda h: h.degree)
    return [by_degree[d] for d in sorted(by_degree)]


def sagbi_complete(gens):
    """SAGBI basis of the algebra generated by gens.

    Completion loop: for every degree (up to conductor + max element degree)
    with more than one product representation, subduce the difference of the
    canonical product against each alternative; a nonconstant remainder is a
    new basis element.  Its degree is a gap, so each round lowers the genus,
    which is finite once the degrees have gcd 1: the loop ends within
    genus-many rounds.
    """
    elements = _eliminate_degrees(list(gens))
    if not elements:
        raise SubalgError("no nonconstant generators")
    if reduce(gcd, (e.degree for e in elements)) != 1:
        raise InfiniteCodimension(
            "generator degrees have gcd > 1: infinite codimension")
    while True:
        basis = SagbiBasis(elements)
        degrees = basis.degrees
        bound = basis.semigroup.conductor + max(degrees)
        new_elements = []
        for d in range(min(degrees) + 1, bound + 1):
            reps = _all_representations(d, degrees)
            if len(reps) < 2:
                continue
            canonical = reps[0]
            base_prod = basis.product_for(canonical)
            for other in reps[1:]:
                diff = base_prod - basis.product_for(other)
                if diff.degree < 1:
                    continue
                rem, _ = subduce(diff, basis)
                if rem.degree >= 1:
                    new_elements.append(rem.monic())
            if new_elements:
                break
        if not new_elements:
            return _minimalize(basis)
        elements = _eliminate_degrees(list(elements) + new_elements)


def _minimalize(basis):
    """Keep the elements whose degrees are minimal generators of the degree
    semigroup: in a SAGBI basis any other element subduces away over the
    rest, and no element at a minimal generator can be dropped."""
    S = basis.semigroup
    return SagbiBasis([e for e in basis.elements if e.degree in S.generators],
                      S)


def sagbi_extend(basis, functional):
    """SAGBI basis of ker(functional) within the algebra of `basis`.

    Picks the minimal-degree basis element g with functional(g) != 0 and
    replaces every element u by u - (L(u)/L(g)) g, adding g*g_j, g^2, g^3
    corrections; the result is completed and minimalized.
    """
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


def membership(f, algebra):
    """Is f in the algebra?  Returns (bool, certificate)."""
    from .conditions import Subalgebra
    rem, steps = subduce(f, Subalgebra.of(algebra).sagbi_basis())
    return rem.degree < 1, steps
