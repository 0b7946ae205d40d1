"""Numerical semigroups of degrees: gaps, genus, conductor, representations."""

from __future__ import annotations

from math import gcd
from functools import reduce

from .errors import InfiniteCodimension


class NotMember:
    """Sentinel value: the degree is a gap."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotMember"

    def __bool__(self):
        return False


NOT_MEMBER = NotMember()


class DegreeSemigroup:
    """The additive semigroup generated by a set of degrees with gcd 1.

    `generators` is the minimal generating set.  `represent(d)` gives one
    multiset of generators summing to d, chosen greedily on the largest
    generator so downstream subduction is deterministic; it is filled on
    demand into one table.
    """

    __slots__ = ("generators", "gaps", "conductor", "genus", "_reps")

    def __init__(self, degrees):
        degrees = sorted({int(d) for d in degrees if int(d) > 0})
        if not degrees:
            raise InfiniteCodimension("no positive degrees supplied")
        if reduce(gcd, degrees) != 1:
            raise InfiniteCodimension(
                f"degree gcd is {reduce(gcd, degrees)} > 1: "
                "infinite codimension")
        # membership sieve up to a safe bound
        probe = degrees[0] * degrees[-1] + degrees[-1] + 1
        member = [False] * (probe + 1)
        member[0] = True
        for d in range(1, probe + 1):
            member[d] = any(d >= g and member[d - g] for g in degrees)
        gaps = [d for d in range(1, probe + 1) if not member[d]]
        self.gaps = tuple(gaps)
        self.genus = len(gaps)
        self.conductor = (gaps[-1] + 1) if gaps else 0
        # an input is a minimal generator iff it is no sum of two nonzero
        # members, which are then sums of smaller inputs
        self.generators = tuple(
            d for d in degrees
            if not any(member[k] and member[d - k] for k in range(1, d)))
        self._reps = {0: ()}

    def contains(self, d):
        if d < 0:
            return False
        if d >= self.conductor:
            return True
        return d not in self.gaps

    def represent(self, d):
        """One multiset of generators summing to d, or NOT_MEMBER: the
        largest generator g with d − g in S, then d − g the same way."""
        if not self.contains(d):
            return NOT_MEMBER
        chain = []
        while d not in self._reps:
            g = next(g for g in reversed(self.generators)
                     if g <= d and self.contains(d - g))
            chain.append((d, g))
            d -= g
        rep = self._reps[d]
        # g is at least every generator in the representation of d − g
        # (that one's first is also a candidate at d), so the multiset
        # stays sorted in descending order
        for e, g in reversed(chain):
            rep = (g,) + rep
            self._reps[e] = rep
        return rep

    def __eq__(self, other):
        if not isinstance(other, DegreeSemigroup):
            return NotImplemented
        return self.generators == other.generators

    def __repr__(self):
        return (f"DegreeSemigroup(gens={list(self.generators)}, "
                f"gaps={list(self.gaps)})")


def genus3_type_enumeration(genus=3):
    """The complete list of numerical-semigroup types for genus 1..3."""
    table = {
        1: [(2, 3)],
        2: [(2, 5), (3, 4, 5)],
        3: [(2, 7), (3, 4), (3, 5, 7), (4, 5, 6, 7)],
    }
    return [tuple(t) for t in table[genus]]
