"""The algebraic relation F(P, Q) between two generators, as a sparse
polynomial in the auxiliary variables.

`resultant_relation` returns F as an MPoly: terms map exponent tuples over
the auxiliary variables to nonzero Poly coefficients (constants for F).
The relation is checked by substituting polynomials for the variables and
by its partial derivatives.
"""

from __future__ import annotations

from .fields import common_field
from .poly import Poly


class MPoly:
    __slots__ = ("terms", "nvars", "field")

    def __init__(self, terms, nvars, field):
        clean = {}
        for expo, p in terms.items():
            p = p.coerce_to(field)
            if p:
                clean[tuple(expo)] = p
                assert len(expo) == nvars
        self.terms = clean
        self.nvars = nvars
        self.field = field

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def partial(self, index):
        """Partial derivative with respect to auxiliary variable index."""
        terms = {}
        for e, p in self.terms.items():
            if e[index] == 0:
                continue
            ne = list(e)
            ne[index] -= 1
            terms[tuple(ne)] = terms.get(tuple(ne), Poly.zero(self.field)) \
                + e[index] * p
        return MPoly(terms, self.nvars, self.field)

    def substitute(self, values):
        """Replace each auxiliary variable with a Poly in x; returns Poly."""
        assert len(values) == self.nvars
        field = self.field
        for v in values:
            field = common_field(field, v.field)
        # powers[idx][k] = values[idx]^k, as running products
        powers = []
        for idx, v in enumerate(values):
            run = [Poly.constant(field.one, field)]
            for _ in range(max((e[idx] for e in self.terms), default=0)):
                run.append(run[-1] * v)
            powers.append(run)
        out = Poly.zero(field)
        for e, p in self.terms.items():
            term = p.coerce_to(field)
            for idx, power in enumerate(e):
                if power:
                    term = term * powers[idx][power]
            out = out + term
        return out

    def __repr__(self):
        items = sorted(self.terms.items())
        body = " + ".join(f"z{e}*({p})" for e, p in items) or "0"
        return f"MPoly({body})"
