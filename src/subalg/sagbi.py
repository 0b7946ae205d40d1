"""Subduction, SAGBI completion, SAGBI extension, and membership.

A SAGBI basis here is a set of monic polynomials, one per degree, whose
degrees generate the degree semigroup of the subalgebra they generate.
Subduction repeatedly subtracts a scalar multiple of a product of basis
elements matching the leading degree; membership holds iff the remainder is
a constant.
"""

from __future__ import annotations

from math import gcd, prod
from functools import reduce

from .errors import (ConditionVanishesOnB, InfiniteCodimension,
                     NotSubalgebraConditions, SubalgError)
from .fields import QQ, common_field
from .poly import Poly, _int_cancel, _int_trim
from .resultants import _lattice_gcd
from .semigroup import NOT_MEMBER, DegreeSemigroup


class SagbiBasis:
    """Monic basis elements with strictly increasing degrees; the degree
    products and the conductor are cached.  `conductor_roots`, if known
    (`conditions.kernel_subalgebra`), lists the conductor's zeros."""

    __slots__ = ("elements", "semigroup", "field", "_by_degree",
                 "_product_cache", "_conductor", "conductor_roots")

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
        self._conductor = self.conductor_roots = None

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

    def conductor(self):
        """The conductor c of the algebra, computed once: ∏ (x − p)^k over
        `conductor_roots` if known, else `conditions.conductor`; `coerce_to`
        hands it on, coerced."""
        if self._conductor is None and self.conductor_roots is None:
            from .conditions import conductor
            self._conductor = conductor(self)
        elif self._conductor is None:
            x = Poly.x(self.field)
            self._conductor = prod(((x - p) ** k for p, k
                                    in self.conductor_roots), start=x ** 0)
        return self._conductor

    def coerce_to(self, field):
        if field is self.field:
            return self
        basis = SagbiBasis([e.coerce_to(field) for e in self.elements],
                           self.semigroup)
        basis._conductor = self.conductor().coerce_to(field)
        return basis

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
    S, mt, e = basis.semigroup, field.tilde_modulus, field.degree
    steps = []
    # the remainder is coeffs/den, cleared (see `Poly.cleared`)
    coeffs, den = f.coerce_to(field).cleared()
    coeffs = list(coeffs)
    while len(coeffs) > e:
        d = len(coeffs) // e - 1
        rep = S.represent(d)
        if rep is NOT_MEMBER:
            break
        steps.append((d, field.from_tilde_coordinates(coeffs[-e:], den)[0],
                      rep))
        # prod is monic, so the top block of its cleared form is (pd, 0, …)
        prod = basis.product_for(rep).coerce_to(field).cleared()[0]
        coeffs, m, _ = _int_cancel(coeffs, prod, mt)
        coeffs, den = _int_trim(coeffs, e), den * m
    return Poly.from_cleared(coeffs, den, field), steps


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


def _relations(degrees, frobenius):
    """The pairs of products whose subduction decides SAGBI: (first,
    others) per degree with representations (factorizations over
    `degrees`) in more than one linking class, two representations being
    linked when they share a degree; `first` is the first representation
    of the first class, `others` the first of each other class.

    One relation per extra class generates every relation among the
    representations (Rosales & García-Sánchez, *Finitely generated
    commutative monoids*, ch. 9): linked representations differ by a
    multiple of a relation in a lower degree.  Only degrees d ≤ F + a₁ + a₂
    (F the Frobenius number, a₁, a₂ the two largest degrees) can have two
    classes: if d − aᵢ − aⱼ lies in the semigroup for aᵢ, aⱼ taken from
    two representations, a representation of d − aᵢ − aⱼ plus aᵢ and aⱼ
    links them.
    """
    bound = frobenius + sum(sorted(degrees)[-2:])
    for d in range(min(degrees) + 1, bound + 1):
        firsts, supports = [], []
        for rep in _all_representations(d, degrees):
            support = set(rep)
            linked = [i for i, s in enumerate(supports) if s & support]
            if not linked:
                firsts.append(rep)
                supports.append(support)
                continue
            for i in reversed(linked[1:]):      # merge into the earliest
                support |= supports.pop(i)
                firsts.pop(i)
            supports[linked[0]] |= support
        if len(firsts) > 1:
            yield firsts[0], firsts[1:]


def sagbi_complete(gens):
    """SAGBI basis of the algebra generated by gens.

    Completion loop: for every relation of `_relations`, subduce the
    difference of its two products; a nonconstant remainder is a new basis
    element.  Its degree is a gap, so each round lowers the genus, which is
    finite once the degrees have gcd 1: the loop ends within genus-many
    rounds.  Two elements of coprime degrees m, n are a SAGBI basis as
    they are (the Abhyankar–Moh semigroup theorem): their relation F(P, Q)
    has the leading form P^n − Q^m, and modulo F every element of K[p, q]
    is a sum of terms p^i·q^j with j < m, whose degrees i·m + j·n are
    distinct, so no leading term cancels.

    Completion can lower the gcd of the generator degrees, so a gcd > 1 is
    settled first by χ of the generators (`resultants._lattice_gcd`): χ = 0
    iff the codimension is infinite (InfiniteCodimension).  Otherwise each
    nonzero sample is χ of a pair of elements that generate a subalgebra
    of finite codimension, so it lies in that subalgebra's conductor
    ideal, and the gcd χ of the samples lies in the conductor ideal of A.
    So χ and x·χ are elements of A of coprime degrees; they are added
    before completion, and `_minimalize` drops them where redundant.
    """
    elements = _eliminate_degrees(list(gens))
    if not elements:
        raise SubalgError("no nonconstant generators")
    if reduce(gcd, (e.degree for e in elements)) != 1:
        chi = _lattice_gcd(elements, 0) if len(elements) > 1 else None
        if not chi:
            raise InfiniteCodimension(
                "the generators have a common composition factor: "
                "infinite codimension")
        elements = _eliminate_degrees(
            elements + [chi, chi * Poly.x(chi.field)])
    while True:
        basis = SagbiBasis(elements)
        degrees = basis.degrees
        if len(degrees) == 2 and gcd(*degrees) == 1:
            return _minimalize(basis)
        new_elements = []
        for first, others in _relations(degrees,
                                        basis.semigroup.conductor - 1):
            base_prod = basis.product_for(first)
            for other in others:
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


def read_off_basis(elements):
    """The SAGBI basis of an algebra from elements of it with distinct
    leading degrees that include the minimal generators of its semigroup,
    as every degree below the conductor plus the smallest positive degree
    does: the elements at the minimal generators of the degrees."""
    by_degree = {p.degree: p for p in elements if p.degree >= 1}
    semigroup = DegreeSemigroup(by_degree)
    return SagbiBasis([by_degree[d] for d in semigroup.generators],
                      semigroup)


def sagbi_extend(basis, functional):
    """SAGBI basis of B ∩ ker L, B the algebra of `basis` and L the
    functional: B cut by L (`conditions._cut`), one projection of the
    degree products of B up to degree 2D − 1, D = deg c·h (c the conductor
    of B, h a power of x − p at each point p of L), with no completion.

    Rank 0 means that L vanishes on all of B (ConditionVanishesOnB); it is
    checked before closure.  A kernel that is not closed under
    multiplication raises NotSubalgebraConditions.
    """
    from .conditions import _cut
    rank, kernel, closed, _ = _cut(basis, [functional])
    if rank == 0:
        raise ConditionVanishesOnB(
            "functional vanishes on the whole algebra: codimension "
            "does not grow")
    if not closed:
        raise NotSubalgebraConditions(
            "the kernel of the functional in the algebra is not closed "
            "under multiplication: a product of two kernel elements fails "
            "it")
    return read_off_basis(kernel)


def membership(f, algebra):
    """Is f in the algebra?  Returns (bool, certificate)."""
    from .conditions import Subalgebra
    rem, steps = subduce(f, Subalgebra.of(algebra).sagbi_basis())
    return rem.degree < 1, steps
