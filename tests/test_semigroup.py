from functools import reduce
from itertools import combinations
from math import gcd

import pytest

from subalg.errors import InfiniteCodimension
from subalg.semigroup import (DegreeSemigroup, NOT_MEMBER,
                              genus3_type_enumeration)


def test_monomial_examples():
    S = DegreeSemigroup([3, 4])
    assert S.generators == (3, 4)
    assert S.gaps == (1, 2, 5)
    assert S.genus == 3 and S.conductor == 6
    S = DegreeSemigroup([2, 5])
    assert S.gaps == (1, 3) and S.genus == 2


def test_coprime_genus_formula():
    for m in range(2, 8):
        for n in range(m + 1, 10):
            from math import gcd
            if gcd(m, n) == 1:
                assert DegreeSemigroup([m, n]).genus == \
                    (m - 1) * (n - 1) // 2


def test_membership_and_representations():
    S = DegreeSemigroup([3, 4])
    assert S.contains(7) and not S.contains(5)
    assert S.represent(5) is NOT_MEMBER
    rep = S.represent(11)
    assert sum(rep) == 11 and set(rep) <= {3, 4}


def test_minimal_generators_filtered():
    S = DegreeSemigroup([3, 4, 7, 8])
    assert S.generators == (3, 4)


def test_gcd_greater_than_one_rejected():
    with pytest.raises(InfiniteCodimension):
        DegreeSemigroup([4, 6])


def test_not_member_is_falsy_singleton():
    assert not NOT_MEMBER
    assert DegreeSemigroup([2, 3]).represent(1) is NOT_MEMBER


def test_type_enumeration():
    assert genus3_type_enumeration(1) == [(2, 3)]
    assert genus3_type_enumeration(2) == [(2, 5), (3, 4, 5)]
    assert genus3_type_enumeration(3) == \
        [(2, 7), (3, 4), (3, 5, 7), (4, 5, 6, 7)]


def test_enumeration_matches_gap_counts():
    for genus in (1, 2, 3):
        for gens in genus3_type_enumeration(genus):
            assert DegreeSemigroup(list(gens)).genus == genus
            assert DegreeSemigroup(list(gens)).generators == gens


class ReferenceSemigroup:
    """The DegreeSemigroup that one sieve replaced: a second sieve per
    input for minimality, an eager greedy table up to conductor + 2·genus
    + 4, and recursive greedy search beyond it."""

    def __init__(self, degrees):
        degrees = sorted(set(degrees))
        probe = degrees[0] * degrees[-1] + degrees[-1] + 1
        member = [True] + [False] * probe
        for d in range(1, probe + 1):
            member[d] = any(d >= g and member[d - g] for g in degrees)
        self.gaps = tuple(d for d in range(1, probe + 1) if not member[d])
        self.genus = len(self.gaps)
        self.conductor = self.gaps[-1] + 1 if self.gaps else 0
        self.generators = tuple(
            d for d in degrees
            if not self._generated_by(d, [g for g in degrees if g != d]))
        self.table = {d: self._greedy(d) for d in
                      range(self.conductor + 2 * self.genus + 5)
                      if self._is_member(d)}

    @staticmethod
    def _generated_by(d, gens):
        gens = [g for g in gens if 0 < g <= d]
        if not gens:
            return d == 0
        reachable = [True] + [False] * d
        for v in range(1, d + 1):
            reachable[v] = any(v >= g and reachable[v - g] for g in gens)
        return reachable[d]

    def _is_member(self, d):
        return d >= 0 and (d >= self.conductor or d not in self.gaps)

    def _greedy(self, d):
        if d == 0:
            return ()
        for g in sorted(self.generators, reverse=True):
            if g <= d and self._is_member(d - g):
                sub = self._greedy(d - g)
                if sub is not None:
                    return tuple(sorted(sub + (g,), reverse=True))
        return None

    def represent(self, d):
        if not self._is_member(d):
            return NOT_MEMBER
        return self.table[d] if d in self.table else self._greedy(d)


def test_one_sieve_matches_the_reference():
    for size in range(1, 5):
        for degrees in combinations(range(2, 14), size):
            if reduce(gcd, degrees) != 1:
                continue
            S, R = DegreeSemigroup(degrees), ReferenceSemigroup(degrees)
            assert (S.generators, S.gaps, S.genus, S.conductor) == \
                (R.generators, R.gaps, R.genus, R.conductor), degrees
            # descending, so most representations are filled on demand
            # from a larger degree first
            for d in range(S.conductor + 2 * max(degrees), -2, -1):
                assert S.represent(d) == R.represent(d), (degrees, d)
