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

    `generators` is the minimal generating set.  `representations` maps each
    member d <= table_bound to one multiset of generators summing to d,
    chosen greedily on the largest generator (ties broken by generator
    order) so downstream subduction is deterministic.
    """

    __slots__ = ("generators", "gaps", "conductor", "genus", "table_bound",
                 "representations")

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
        conductor = (gaps[-1] + 1) if gaps else 0
        self.gaps = tuple(gaps)
        self.genus = len(gaps)
        self.conductor = conductor
        self.table_bound = conductor + 2 * self.genus + 4
        # minimal generators: inputs not generated by the other inputs
        minimal = [d for d in degrees
                   if not _generated_by(d, [g for g in degrees if g != d])]
        self.generators = tuple(minimal if minimal else degrees[:1])
        # greedy representation table
        reps = {0: ()}
        gens_desc = sorted(self.generators, reverse=True)
        for d in range(1, self.table_bound + 1):
            if not self._is_member(d):
                continue
            rep = self._greedy(d, gens_desc)
            assert rep is not None
            reps[d] = rep
        self.representations = reps

    def _is_member(self, d):
        if d < 0:
            return False
        if d >= self.conductor:
            return True
        return d not in self.gaps

    def contains(self, d):
        return self._is_member(d)

    def _greedy(self, d, gens_desc):
        """Greedy-largest-first representation with backtracking."""
        if d == 0:
            return ()
        for g in gens_desc:
            if g <= d and self._is_member(d - g):
                sub = self._greedy(d - g, gens_desc)
                if sub is not None:
                    return tuple(sorted(sub + (g,), reverse=True))
        return None

    def represent(self, d):
        """One multiset of generators summing to d, or NOT_MEMBER."""
        if d < 0 or not self._is_member(d):
            return NOT_MEMBER
        if d in self.representations:
            return self.representations[d]
        rep = self._greedy(d, sorted(self.generators, reverse=True))
        return rep if rep is not None else NOT_MEMBER

    def __eq__(self, other):
        if not isinstance(other, DegreeSemigroup):
            return NotImplemented
        return self.generators == other.generators

    def __repr__(self):
        return (f"DegreeSemigroup(gens={list(self.generators)}, "
                f"gaps={list(self.gaps)})")


def _generated_by(d, gens):
    """Is d a nonnegative integer combination of gens?"""
    gens = [g for g in gens if 0 < g <= d]
    if not gens:
        return d == 0
    reachable = [False] * (d + 1)
    reachable[0] = True
    for v in range(1, d + 1):
        reachable[v] = any(v >= g and reachable[v - g] for g in gens)
    return reachable[d]


def genus3_type_enumeration(genus=3):
    """The complete list of numerical-semigroup types for genus 1..3."""
    table = {
        1: [(2, 3)],
        2: [(2, 5), (3, 4, 5)],
        3: [(2, 7), (3, 4), (3, 5, 7), (4, 5, 6, 7)],
    }
    return [tuple(t) for t in table[genus]]
