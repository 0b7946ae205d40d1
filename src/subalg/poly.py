"""Dense univariate polynomials over Q or a number field.

Coefficients are ascending; the zero polynomial has none.  A Poly keeps
them cleared, as integer t̃-coordinates over one denominator (see
`_int_scaled`), and every ring operation runs on that form.  The integer
kernel on cleared lists (`_int_mul`, `_int_divide`, `_int_dot`, …) is
here too; other modules reach it through `Poly` operations or through
one of its helpers.  Every value is immutable.  Mixed-field arithmetic
coerces through :func:`subalg.fields.common_field` (Q embeds into any
declared field).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial, lcm
from math import gcd as int_gcd
from operator import mul

from .errors import (BothZero, DivisionByZeroPoly, FieldMismatch, ZeroInput)
from .fields import (QQ, FieldElem, common_field, field_of, format_scalar,
                     is_zero_scalar)
from .modular import _gcd, evaluate_at, split_primes, word_primes


class Poly:
    """A polynomial held in one or both of two forms, each computed at
    most once: the tuple `coeffs` of scalars, and `cleared()`, the
    t̃-coordinates over their least common denominator as `_int_scaled`
    gives them.  Every ring operation runs on the cleared form and builds
    its result from ints (`from_cleared`); `coeffs` is built only when it
    is read."""

    __slots__ = ("field", "_coeffs", "_ints", "_den")

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
        self._coeffs = tuple(coeffs[:n])
        self.field = field
        self._ints = self._den = None

    @classmethod
    def from_cleared(cls, ints, den, field):
        """The polynomial ints/den over `field`, for a flat int list of
        t̃-coordinates (blocks of e = deg m) and den ≠ 0: trimmed and
        brought to the least denominator.  The list is kept, not copied,
        and must not be changed afterwards."""
        e = field.degree
        n = len(ints)
        if e == 1:
            while n and not ints[n - 1]:
                n -= 1
        else:
            while n and not any(ints[n - e:n]):
                n -= e
        if n < len(ints):
            ints = ints[:n]
        g = int_gcd(den, *ints)
        if den < 0:
            g = -g
        if g != 1:
            ints, den = [c // g for c in ints], den // g
        p = object.__new__(cls)
        p.field, p._coeffs, p._ints, p._den = field, None, ints, den
        return p

    def cleared(self):
        """(ints, d): the t̃-coordinates of the coefficients as ints over
        their least common denominator d, exactly as `_int_scaled` clears
        them; the zero polynomial is ([], 1).  Computed once; the list is
        shared and must not be changed."""
        if self._ints is None:
            self._ints, self._den = _int_scaled(self._coeffs, self.field)
        return self._ints, self._den

    @property
    def coeffs(self):
        """The coefficients, ascending, as a tuple of scalars; the zero
        polynomial is the empty tuple."""
        if self._coeffs is None:
            self._coeffs = tuple(
                self.field.from_tilde_coordinates(self._ints, self._den))
        return self._coeffs

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field=QQ):
        return cls.from_cleared([], 1, field)

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
        if self._ints is None:
            return len(self._coeffs) - 1
        return len(self._ints) // self.field.degree - 1

    def is_zero(self):
        return not (self._coeffs if self._ints is None else self._ints)

    def leading_coeff(self):
        if self.is_zero():
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.coeff(self.degree)

    def coeff(self, k):
        """Coefficient of x^k (zero beyond the degree)."""
        if not 0 <= k <= self.degree:
            return self.field.zero
        if self._coeffs is not None:
            return self._coeffs[k]
        e = self.field.degree
        return self.field.from_tilde_coordinates(
            self._ints[k * e:(k + 1) * e], self._den)[0]

    def __bool__(self):
        return not self.is_zero()

    def shift(self, k):
        """x^k·self."""
        ints, d = self.cleared()
        if not ints:
            return self
        return Poly.from_cleared([0] * (k * self.field.degree) + ints, d,
                                 self.field)

    # -- field handling --------------------------------------------------

    def coerce_to(self, field):
        if field is self.field:
            return self
        ints, d = self.cleared()
        if self.field is QQ:        # a rational is t̃-coordinate 0
            e = field.degree
            spread = [0] * (len(ints) * e)
            spread[::e] = ints
            return Poly.from_cleared(spread, d, field)
        e = self.field.degree
        if field is QQ:
            if any(c for u, c in enumerate(ints) if u % e):
                raise FieldMismatch(f"cannot coerce {self!r} into Q")
            return Poly.from_cleared(ints[::e], d, QQ)
        return Poly(self.coeffs, field)

    def to_rational(self):
        """Descend to a Poly over Q if every coefficient is rational, else
        None."""
        try:
            return self.coerce_to(QQ)
        except FieldMismatch:
            return None

    def _pair(self, other):
        if isinstance(other, Poly):
            f = common_field(self.field, other.field)
            return self.coerce_to(f), other.coerce_to(f)
        if isinstance(other, (int, Fraction, FieldElem)):
            f = common_field(self.field, field_of(other))
            return self.coerce_to(f), Poly.from_cleared(
                *_int_scaled((other,), f), f)
        return None, None

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        (ia, da), (ib, db) = a.cleared(), b.cleared()
        if da != db:            # over the lcm of the denominators
            g = int_gcd(da, db)
            ia, ib = [c * (db // g) for c in ia], [c * (da // g) for c in ib]
            da = da // g * db
        return Poly.from_cleared(_int_sum(ia, ib), da, a.field)

    __radd__ = __add__

    def __neg__(self):
        ints, d = self.cleared()
        return Poly.from_cleared([-c for c in ints], d, self.field)

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
        (ia, da), (ib, db) = a.cleared(), b.cleared()
        if not ia or not ib:
            return Poly.zero(a.field)
        return Poly.from_cleared(_int_mul(ia, ib, a.field.tilde_modulus),
                                 da * db, a.field)

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
        iq, r, d, sb = a._divide(b)
        return Poly.from_cleared([c * sb for c in iq], d, a.field), r

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        """The remainder alone: its quotient is not built."""
        a, b = self._pair(other)
        return NotImplemented if a is None else a._divide(b)[1]

    def _divide(self, b):
        """(Q, r, d, sb) with self = (sb·Q/d)·b + r for b ≠ 0 in the field
        of self: `_int_divide` gives s·A = Q·B + R for the cleared
        A = sa·self and B = sb·b, so d = s·sa and r = R/d."""
        if b.is_zero():
            raise DivisionByZeroPoly("polynomial division by zero")
        (ia, sa), (ib, sb) = self.cleared(), b.cleared()
        iq, ir, s = _int_divide(ia, ib, self.field)
        return iq, Poly.from_cleared(ir, s * sa, self.field), s * sa, sb

    def exact_div(self, other):
        q, r = divmod(self, other)
        if r:
            raise ValueError("exact_div: division is not exact")
        return q

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, FieldElem)):
            f = common_field(self.field, field_of(other))
            return self * (f.one / f.coerce(other))
        return NotImplemented

    # -- calculus / evaluation ------------------------------------------

    def derivative(self, order=1):
        """The order-th derivative: block k + order of the cleared form
        times (k + order)!/k! is block k."""
        ints, d = self.cleared()
        e = self.field.degree
        out, factor = [], factorial(order)
        for k in range(len(ints) // e - order):
            j = (k + order) * e
            out += [c * factor for c in ints[j:j + e]]
            factor = factor * (k + order + 1) // (k + 1)
        return Poly.from_cleared(out, d, self.field)

    def order_at(self, point):
        """How many times x − point divides self (0 for the zero
        polynomial), the number of leading derivatives that vanish there.
        With self = Σ A_k·x^k/d cleared, n its degree and the point
        cleared to z/w, it is the order of z as a root of
        Â = Σ A_k·w^(n−k)·x^k, since Â(w·x) = w^n·d·self(x).  Synthetic
        division of Â by x − z (`accumulate` of the Horner steps) stays on
        ints, one pass per factor and one more.  Over Q a block is one
        int."""
        f = common_field(self.field, field_of(point))
        ints = self.coerce_to(f).cleared()[0]
        e, mt = f.degree, f.tilde_modulus
        z, w = _int_scaled((point,), f)
        if e == 1:
            blocks = [c * w ** k for k, c in enumerate(reversed(ints))]
            zero = 0

            def step(acc, c):
                return acc * z[0] + c
        else:
            blocks = [[c * w ** k for c in ints[j:j + e]]
                      for k, j in enumerate(range(len(ints) - e, -1, -e))]
            zero = [0] * e

            def step(acc, block):
                return [a + b for a, b in zip(block, _int_mul(acc, z, mt))]
        k = 0
        while blocks:
            quotient = list(accumulate(blocks, step))
            if quotient.pop() != zero:
                return k
            blocks, k = quotient, k + 1
        return k

    def __call__(self, point):
        """Horner evaluation at a scalar (exact) or complex (numeric)."""
        if isinstance(point, (complex, float)):
            acc = 0j
            for c in reversed(self.coeffs):
                acc = acc * point + complex(_as_float(c))
            return acc
        f = common_field(self.field, field_of(point))
        ints, d = self.coerce_to(f).cleared()
        if not ints:
            return f.zero
        if f.degree == 1:           # read the one t̃-coordinate directly
            (z,) = f.tilde_coordinates((point,))
            z, w = [z.numerator], z.denominator
        else:
            z, w = _int_scaled((point,), f)
        value, power = _int_horner(ints, z, w, f.tilde_modulus)
        return f.from_tilde_coordinates(value, d * power)[0]

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
        """self over its leading coefficient: over a rational lead L/d the
        cleared form ints/d becomes ints/L."""
        ints, d = self.cleared()
        if not ints:
            return self
        e = self.field.degree
        if e > 1 and any(ints[1 - e:]):       # a lead that is not rational
            return self * self.leading_coeff().inverse()
        lead = ints[-e]
        if lead == d:
            return self
        return Poly.from_cleared(ints, lead, self.field)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldElem)):
            if is_zero_scalar(other):
                return self.is_zero()
            return self.degree == 0 and self.coeff(0) == other
        if not isinstance(other, Poly):
            return NotImplemented
        if self.field is other.field:
            return self.cleared() == other.cleared()
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        """From the cleared form's rational coordinates, so equal Polys
        over different fields (rational ones) hash alike."""
        ints, d = self.cleared()
        return hash((d, tuple(ints[::self.field.degree])))

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
    coeffs = p.coeffs
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
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
# Integer kernels: arithmetic over K = Q[t]/(m) on cleared integer lists
# ---------------------------------------------------------------------------


def _int_scaled(coeffs, field):
    """(ints, d): the cleared form of scalars of K = Q[t]/(m), e = deg m.
    With t̃ = μ·t (`modular.integral_modulus`), d is the least common
    denominator of their t̃-coordinates, and block k of ints (entries
    k·e … k·e + e − 1) holds d times those of the k-th scalar.  Over Q
    (e = 1) these are the integers d·c_k."""
    coords = field.tilde_coordinates(coeffs)
    dens = [c.denominator for c in coords]
    d = lcm(*dens)
    if d == 1:
        return [c.numerator for c in coords], 1
    return [c.numerator * (d // q) for c, q in zip(coords, dens)], d


def _over_lcm(rows):
    """(lists, d): the int lists of cleared rows (ints, q) over one
    denominator d, the lcm of theirs; as the columns of a system they keep
    their ratios."""
    d = lcm(*(q for _, q in rows))
    return [ints if q == d else [c * (d // q) for c in ints]
            for ints, q in rows], d


def _int_mul(a, b, mt):
    """Product of nonempty cleared lists over Z[t̃]/(m̃), m̃ = mt (ascending
    ints) of degree e, by Kronecker substitution (von zur Gathen & Gerhard,
    *Modern Computer Algebra*, section 8.4): the blocks are spread to
    stride 2e − 1, so that one integer convolution holds every product of
    t̃-powers apart, and each output block is folded back by m̃."""
    e = len(mt) - 1
    if e > 1:
        a, b = _spread(a, e), _spread(b, e)
    x, n = a[0], len(b)
    out = [x * y for y in b] + [0] * (len(a) - 1)
    for i in range(1, len(a)):
        x = a[i]
        if x:
            out[i:i + n] = [o + x * y for o, y in zip(out[i:i + n], b)]
    return _fold(out, mt) if e > 1 else out


def _spread(a, e):
    """The blocks of a cleared list at stride 2e − 1, zero-padded."""
    s = 2 * e - 1
    out = [0] * ((len(a) // e - 1) * s + e)
    for u in range(e):
        out[u::s] = a[u::e]
    return out


def _fold(c, mt):
    """Blocks of 2e − 1 coordinates reduced to blocks of e modulo the
    monic mt (ascending, of degree e)."""
    e = len(mt) - 1
    s, low = 2 * e - 1, mt[:e]
    out = []
    for j in range(0, len(c), s):
        block = c[j:j + s]
        for w in range(s - 1, e - 1, -1):
            top = block[w]
            if top:
                block[w - e:w] = [x - top * y
                                  for x, y in zip(block[w - e:w], low)]
        out += block[:e]
    return out


def _int_dot(a, b, field):
    """Σ a_i·b_i for two cleared int lists, as one block of e ints: the
    products of t̃-coordinates are summed unreduced in 2e − 1 coordinates,
    then folded once by m̃."""
    e = field.degree
    if e == 1:
        return [sum(map(mul, a, b))]
    acc = [0] * (2 * e - 1)
    for u in range(e):
        for v in range(e):
            acc[u + v] += sum(map(mul, a[u::e], b[v::e]))
    return _fold(acc, field.tilde_modulus)


def _int_values(lists, rows, field):
    """The values of the functionals with the cleared monomial rows `rows`
    on the cleared polynomials `lists`: one flat list of `_int_dot` blocks
    per polynomial, over the rows in turn."""
    return [[x for r in rows for x in _int_dot(a, r, field)] for a in lists]


def _int_combination(vec, lists, mt):
    """Σ_j V_j·L_j for the blocks V_j of the flat cleared vector `vec` and
    the nonempty cleared lists L_j (any lengths), skipping zero blocks;
    [] when every block is zero."""
    e = len(mt) - 1
    acc = []
    for j, b in enumerate(lists):
        block = vec[j * e:(j + 1) * e]
        if any(block):
            term = ([block[0] * c for c in b] if e == 1
                    else _int_mul(block, b, mt))
            acc = _int_sum(acc, term) if acc else term
    return acc


def _int_sum(a, b):
    """a + b for two int lists, the shorter one padded with zeros."""
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


def _int_primitive(a):
    g = int_gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _int_cancel(r, b, mt):
    """Pop the top block T of the cleared list r and cancel it against b,
    whose top block is (L, 0, …, 0): returns (r′, m, t) with t = T/g and
    m = L/g for g = ±gcd(L, T) (sign of L), so r′ = m·r − t·x^k·b without
    its top block; m = 1 when L = 1.  The caller scales by m."""
    e = len(mt) - 1
    top, lead = r[-e:], b[-e]
    del r[-e:]
    if not any(top):
        return r, 1, top
    g = int_gcd(lead, *top)
    if lead < 0:
        g = -g
    m, t = lead // g, top if g == 1 else [c // g for c in top]
    if m != 1:
        r = [m * c for c in r]
    k = len(r) - len(b) + e        # zip drops the top block of t·b
    if e == 1:                     # the block t is one integer
        x = t[0]
        r[k:] = [u - x * y for u, y in zip(r[k:], b)]
    else:
        r[k:] = [u - y for u, y in zip(r[k:], _int_mul(t, b, mt))]
    return r, m, t


def _int_divide(a, b, field):
    """Pseudo-division of cleared lists over K = field (b ≠ 0): (q, r, s)
    with s·a = q·b + r, s > 0 and r shorter than b, by `_int_cancel` steps,
    so s stays 1 when b's lead is 1.  A lead that is not rational is made
    so first: b is multiplied by the cleared inverse of its lead
    (`NonInvertible` at a zero divisor), and q by the same at the end."""
    mt, e = field.tilde_modulus, field.degree
    inv = None
    if any(b[len(b) - e + 1:]):
        lead = field.from_tilde_coordinates(b[-e:], 1)[0]
        inv = _int_scaled((lead.inverse(),), field)[0]
        b = _int_mul(b, inv, mt)
    r, n = list(a), len(b) // e - 1
    q, s = [0] * max(len(r) - n * e, 0), 1
    for k in range(len(r) // e - n - 1, -1, -1):
        r, m, t = _int_cancel(r, b, mt)
        if m != 1:
            q = [m * c for c in q]
            s *= m
        q[k * e:(k + 1) * e] = t
    if inv is not None and q:
        q = _int_mul(q, inv, mt)
    return q, r, s


def _int_horner(a, z, w, mt):
    """(v, w^n) with v = Σ_k A_k·z^k·w^(n−k) for the cleared list a of
    blocks A_0 … A_n and the block z, by Horner, so p(z/w) = v/(d·w^n)
    for p = a/d.  At e = 1 a block is one integer."""
    e = len(mt) - 1
    acc, power = a[-e:], 1
    if e == 1:
        (acc,), (z,) = acc, z
        for c in reversed(a[:-1]):
            power *= w
            acc = acc * z + c * power
        return [acc], power
    for j in range(len(a) - 2 * e, -1, -e):
        power *= w
        acc = [x + c * power for x, c in
               zip(_int_mul(acc, z, mt), a[j:j + e])]
    return acc, power


def _int_trim(a, e):
    """Drop the zero top blocks of a cleared list, in place."""
    while a and not any(a[-e:]):
        del a[-e:]
    return a


# ---------------------------------------------------------------------------
# gcd and square-free machinery
# ---------------------------------------------------------------------------


def poly_gcd(a, b):
    """Monic gcd, by a primitive PRS on cleared lists (`_int_divide`)."""
    if a.is_zero() and b.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    f = common_field(a.field, b.field)
    a, b = a.coerce_to(f), b.coerce_to(f)
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    u, v = sorted((_int_primitive(p.cleared()[0]) for p in (a, b)),
                  key=len, reverse=True)
    while v:
        u, v = v, _int_primitive(_int_trim(_int_divide(u, v, f)[1], f.degree))
    return Poly.from_cleared(u, 1, f).monic()


def squarefree_decompose(p):
    """Yun's algorithm (Yun 1976): p = c * prod f_i^{m_i}, f_i monic
    square-free, as [(f_i, m_i)] by ascending m_i, for the monic c of p.

    A square-free c is first certified modulo one prime, with no gcd over
    K = Q[t]/(m), and then [(c, 1)] is returned, as Yun would.  Clear c
    to d·c with integer t̃-coordinates (t̃ = μ·t, m̃ monic and integral;
    see `_int_scaled`); its cleared lead is d.  The prime q is the first
    that `modular.split_primes` takes from `modular.word_primes` for d·μ,
    and t̃ ↦ θ₀, the first root of m̃ mod q, maps c to c̄ in F_q[x], monic
    of the same degree.  If gcd(c̄, c̄′) = 1 in F_q[x], c is square-free.
    Proof: suppose f² | c with f monic, deg f ≥ 1.  The coefficients of f
    are symmetric functions of some roots of c, so they are integral over
    Z_(q)[θ̃], the ring the coefficients of c lie in (q ∤ d).  q ∤ disc m̃,
    as m̃ has e distinct roots mod q, so Z_(q)[θ̃] is integrally closed in
    K (the index of Z[θ̃] in the integral closure of Z divides disc m̃):
    f and c/f² have coefficients in Z_(q)[θ̃].  The ring map t̃ ↦ θ₀ onto
    F_q then gives f̄² | c̄ with f̄ monic and deg f̄ ≥ 1, so c̄ and c̄′
    have the common factor f̄.
    """
    if p.is_zero():
        raise ZeroInput("square-free decomposition of zero")
    p = p.monic()
    if p.degree == 0:
        return []
    if _certified_squarefree(p):
        return [(p, 1)]
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


def _certified_squarefree(c):
    """Is gcd(c̄, c̄′) = 1 for the monic c of degree ≥ 1 at the one prime
    and root θ₀ of `squarefree_decompose`?"""
    field = c.field
    ints, d = c.cleared()
    e = field.degree
    q, thetas = next(split_primes(field.tilde_modulus, d * field.mu,
                                  word_primes()))
    scale = pow(d, -1, q)
    image = [v * scale % q for v in evaluate_at(
        [ints[j:j + e] for j in range(0, len(ints), e)], thetas[0], q)]
    derivative = [k * v % q for k, v in enumerate(image)][1:]
    return _gcd(derivative, image, q) == [1]


def squarefree_part(p):
    prod = Poly.constant(p.field.one, p.field)
    for f, _ in squarefree_decompose(p):
        prod = prod * f
    return prod
