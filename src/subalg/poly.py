"""Dense univariate polynomials over Q or a number field.

Coefficients are stored ascending; the zero polynomial is the empty tuple.
Every value is immutable.  Mixed-field arithmetic coerces through
:func:`subalg.fields.common_field` (Q embeds into any declared field).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import lcm

from .errors import (BothZero, DivisionByZeroPoly, FieldMismatch, ZeroInput)
from .fields import (QQ, FieldElem, common_field, field_of, format_scalar,
                     is_zero_scalar)


class Poly:
    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field=None):
        if field is None:
            field = QQ
            for c in coeffs:
                if isinstance(c, FieldElem):
                    field = common_field(field, c.field)
        coeffs = [field.coerce(c) for c in coeffs]
        n = len(coeffs)
        while n and is_zero_scalar(coeffs[n - 1]):
            n -= 1
        self.coeffs = tuple(coeffs[:n])
        self.field = field

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field=QQ):
        return cls((), field)

    @classmethod
    def constant(cls, value, field=None):
        if field is None:
            field = field_of(value)
        return cls((value,), field)

    @classmethod
    def x(cls, field=QQ):
        return cls((0, 1), field)

    @classmethod
    def monomial(cls, degree, coeff=1, field=None):
        if field is None:
            field = field_of(Fraction(coeff) if isinstance(coeff, int)
                             else coeff)
        return cls([0] * degree + [coeff], field)

    @classmethod
    def from_roots(cls, roots, field=None):
        if field is None:
            field = QQ
            for r in roots:
                field = common_field(field, field_of(r))
        p = cls.constant(field.one, field)
        for r in roots:
            p = p * cls((-field.coerce(r), field.one), field)
        return p

    # -- basic queries ---------------------------------------------------

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading_coeff(self):
        if not self.coeffs:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k):
        """Coefficient of x^k (zero beyond the degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def __bool__(self):
        return bool(self.coeffs)

    # -- field handling --------------------------------------------------

    def coerce_to(self, field):
        if field is self.field:
            return self
        return Poly(self.coeffs, field)

    def to_rational(self):
        """Descend to a Poly over Q if every coefficient is rational."""
        if self.field is QQ:
            return self
        rat = []
        for c in self.coeffs:
            r = c.to_rational()
            if r is None:
                return None
            rat.append(r)
        return Poly(rat, QQ)

    def _pair(self, other):
        if isinstance(other, Poly):
            f = common_field(self.field, other.field)
            return self.coerce_to(f), other.coerce_to(f)
        if isinstance(other, (int, Fraction, FieldElem)):
            f = common_field(self.field, field_of(other))
            return self.coerce_to(f), Poly.constant(f.coerce(other), f)
        return None, None

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        ca, cb = list(a.coeffs), list(b.coeffs)
        if len(ca) < len(cb):
            ca, cb = cb, ca
        for i, c in enumerate(cb):
            ca[i] = ca[i] + c
        return Poly(ca, a.field)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs], self.field)

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return b + (-a)

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if not a.coeffs or not b.coeffs:
            return Poly.zero(a.field)
        if a.field is QQ:
            (ia, da), (ib, db) = _int_scaled(a.coeffs), _int_scaled(b.coeffs)
            d = da * db
            return Poly([Fraction(c, d) for c in _int_mul(ia, ib)], QQ)
        ca, cb = a.coeffs, b.coeffs
        out = [a.field.zero] * (len(ca) + len(cb) - 1)
        for i, ci in enumerate(ca):
            if is_zero_scalar(ci):
                continue
            for j, cj in enumerate(cb):
                if not is_zero_scalar(cj):
                    out[i + j] = out[i + j] + ci * cj
        return Poly(out, a.field)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = Poly.constant(self.field.one, self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if not b.coeffs:
            raise DivisionByZeroPoly("polynomial division by zero")
        field = a.field
        if field is QQ:
            # s·A = Q·B + R for the cleared A = sa·a and B = sb·b, so
            # a = (sb·Q / (s·sa))·b + R / (s·sa)
            (ia, sa), (ib, sb) = _int_scaled(a.coeffs), _int_scaled(b.coeffs)
            iq, ir, s = _int_divide(ia, ib)
            return (Poly([Fraction(c * sb, s * sa) for c in iq], QQ),
                    Poly([Fraction(c, s * sa) for c in ir], QQ))
        rem = list(a.coeffs)
        db = b.degree
        quot = [field.zero] * max(len(rem) - db, 0)
        inv_lead = field.one / b.coeffs[-1]
        for k in range(len(rem) - db - 1, -1, -1):
            c = rem[k + db] * inv_lead
            if not is_zero_scalar(c):
                quot[k] = c
                for i, bi in enumerate(b.coeffs):
                    rem[k + i] = rem[k + i] - c * bi
        return Poly(quot, field), Poly(rem[:db], field)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if r:
            raise ValueError("exact_div: division is not exact")
        return q

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, FieldElem)):
            f = common_field(self.field, field_of(other))
            inv = f.one / f.coerce(other)
            return self.coerce_to(f) * inv
        return NotImplemented

    # -- calculus / evaluation ------------------------------------------

    def derivative(self, order=1):
        p = self
        for _ in range(order):
            p = Poly([i * c for i, c in enumerate(p.coeffs)][1:], p.field)
        return p

    def order_at(self, point):
        """How many leading derivatives vanish at the point."""
        p, k = self, 0
        while p.coeffs and is_zero_scalar(p(point)):
            p, k = p.derivative(), k + 1
        return k

    def __call__(self, point):
        """Horner evaluation at a scalar (exact) or complex (numeric)."""
        if isinstance(point, (complex, float)):
            acc = 0j
            for c in reversed(self.coeffs):
                acc = acc * point + complex(_as_float(c))
            return acc
        f = common_field(self.field, field_of(point))
        point = f.coerce(point)
        if f is QQ:
            # p(u/w) = Σ C_i·u^i·w^(n−i) / (d·w^n), C = d·p cleared
            ints, d = _int_scaled(self.coeffs)
            u, w = point.numerator, point.denominator
            acc, power = 0, 1
            for c in reversed(ints):
                acc = acc * u + c * power
                power *= w
            return Fraction(acc, d * (power // w)) if ints else f.zero
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = acc * point + f.coerce(c)
        return acc

    def compose(self, inner):
        """self(inner(x)) by Horner."""
        a, b = self._pair(inner)
        acc = Poly.zero(a.field)
        for c in reversed(a.coeffs):
            acc = acc * b + Poly.constant(c, a.field)
        return acc

    def taylor_shift(self, c):
        """Return p(x + c)."""
        f = common_field(self.field, field_of(c))
        return self.coerce_to(f).compose(Poly((f.coerce(c), f.one), f))

    def monic(self):
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        if lead == self.field.one:
            return self
        return self / lead

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldElem)):
            if is_zero_scalar(other):
                return not self.coeffs
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        if not isinstance(other, Poly):
            return NotImplemented
        if self.degree != other.degree:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __repr__(self):
        return f"Poly({format_poly(self)})"

    def __str__(self):
        return format_poly(self)


def _as_float(c):
    if isinstance(c, FieldElem):
        r = c.to_rational()
        if r is None:
            raise FieldMismatch(
                "numeric evaluation of a non-rational field element")
        return float(r)
    return float(c)


def format_poly(p, var="x"):
    """Render ascending-coefficient polynomial in conventional order."""
    if not p.coeffs:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        if is_zero_scalar(c):
            continue
        cs = format_scalar(c)
        needs_parens = ("+" in cs[1:]) or ("-" in cs[1:]) or ("t" in cs
                                                              and i > 0)
        if i == 0:
            term = f"({cs})" if needs_parens else cs
        else:
            xp = var if i == 1 else f"{var}^{i}"
            if cs == "1":
                term = xp
            elif cs == "-1":
                term = f"-{xp}"
            elif needs_parens:
                term = f"({cs})*{xp}"
            else:
                term = f"{cs}*{xp}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out


# ---------------------------------------------------------------------------
# Integer kernels: Q arithmetic on cleared integer coefficient lists
# ---------------------------------------------------------------------------


def _int_scaled(coeffs):
    """(ints, d): d the least common denominator of the Fractions and ints
    the integers d·c_i."""
    dens = [c.denominator for c in coeffs]
    d = lcm(*dens)
    if d == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (d // q) for c, q in zip(coeffs, dens)], d


def _int_primitive(a):
    g = 0
    for c in a:
        g = int_gcd(g, abs(c))
    if g > 1:
        a = [c // g for c in a]
    return a


def _int_clear(p):
    """Scale a Poly over Q to a primitive integer coefficient list."""
    return _int_primitive(_int_scaled(p.coeffs)[0])


def _int_mul(a, b):
    """Product of nonempty integer coefficient lists (ascending)."""
    out = [0] * (len(a) + len(b) - 1)
    n = len(b)
    for i, x in enumerate(a):
        if x:
            out[i:i + n] = [o + x * y for o, y in zip(out[i:i + n], b)]
    return out


def _int_divide(a, b):
    """Pseudo-division of integer coefficient lists (ascending, b with a
    nonzero leading coefficient): (q, r, s) with s·a = q·b + r, s > 0 and
    r shorter than b.  Each step scales by lead/g only, g the gcd of the
    top coefficient and the lead (sign of the lead), so s stays 1 when
    the lead is 1."""
    r, n, lead = list(a), len(b) - 1, b[-1]
    q, s = [0] * max(len(r) - n, 0), 1
    for k in range(len(r) - n - 1, -1, -1):
        top = r.pop()
        if not top:
            continue
        g = int_gcd(top, lead) if lead > 0 else -int_gcd(top, lead)
        m, t = lead // g, top // g
        if m != 1:
            r = [m * c for c in r]
            q = [m * c for c in q]
            s *= m
        q[k] = t
        for i, bi in enumerate(b[:n]):
            r[k + i] -= t * bi
    return q, r, s


def _int_trim(a):
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return a[:n]


# ---------------------------------------------------------------------------
# gcd and square-free machinery
# ---------------------------------------------------------------------------


def poly_gcd(a, b):
    """Monic gcd.  Over Q a primitive PRS keeps coefficients small."""
    if a.is_zero() and b.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    f = common_field(a.field, b.field)
    a, b = a.coerce_to(f), b.coerce_to(f)
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if f is QQ:
        u, v = _int_clear(a), _int_clear(b)
        if len(u) < len(v):
            u, v = v, u
        while v:
            u, v = v, _int_primitive(_int_trim(_int_divide(u, v)[1]))
        return Poly([Fraction(c) for c in u], QQ).monic()
    while b:
        a, b = b, a % b
    return a.monic()


def squarefree_decompose(p):
    """Yun's algorithm: p = c * prod f_i^{m_i}, f_i monic square-free."""
    if p.is_zero():
        raise ZeroInput("square-free decomposition of zero")
    p = p.monic()
    if p.degree == 0:
        return []
    out = []
    g = poly_gcd(p, p.derivative())
    w = p.exact_div(g)
    m = 1
    while w.degree > 0:
        y = poly_gcd(w, g)
        factor = w.exact_div(y)
        if factor.degree > 0:
            out.append((factor.monic(), m))
        w = y
        g = g.exact_div(y)
        m += 1
    return out


def squarefree_part(p):
    prod = Poly.constant(p.field.one, p.field)
    for f, _ in squarefree_decompose(p):
        prod = prod * f
    return prod
