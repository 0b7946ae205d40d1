"""Exact coefficient fields: rationals and simple number fields Q[t]/(m(t)).

Number-field elements are dense coefficient vectors reduced mod a monic
square-free modulus; irreducibility is *not* checked — a failed inversion
surfaces as :class:`~subalg.errors.NonInvertible`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatch, NonInvertible, SubalgError
from .modular import integral_modulus

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RationalField:
    """The field Q, as a singleton coefficient-field descriptor."""

    degree = 1
    label = "Q"
    modulus_coeffs = (_ZERO, _ONE)      # Q = Q[t]/(t)
    tilde_modulus, mu = [0, 1], 1       # t̃ = t, see `integral_modulus`

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, FieldElem):
            r = value.to_rational()
            if r is not None:
                return r
        raise FieldMismatch(f"cannot coerce {value!r} into Q")

    def from_coeffs(self, coeffs):
        return Fraction(coeffs[0])

    def tilde_coordinates(self, scalars):
        """Over Q the t̃-coordinates are the scalars themselves."""
        return scalars

    def from_tilde_coordinates(self, ints, d):
        """The scalars whose flattened t̃-coordinates are ints/d (the
        entries of ints may be Fractions too)."""
        return [Fraction(c, d) for c in ints]

    @property
    def zero(self):
        return _ZERO

    @property
    def one(self):
        return _ONE

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class NumberField:
    """Q[t]/(m(t)) for a monic, square-free modulus m of degree d >= 1."""

    def __init__(self, modulus_coeffs, label=None):
        coeffs = [Fraction(c) for c in modulus_coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            raise SubalgError("number-field modulus must have degree >= 1")
        if coeffs[-1] != 1:
            raise SubalgError("number-field modulus must be monic")
        self.modulus_coeffs = tuple(coeffs)
        self.degree = len(coeffs) - 1
        self.label = label or "Q[t]/(m)"
        try:        # m is square-free iff m′ is invertible mod m
            FieldElem([i * c for i, c in enumerate(coeffs)][1:],
                      self).inverse()
        except NonInvertible:
            raise SubalgError(
                "number-field modulus must be square-free") from None
        self.tilde_modulus, self.mu = integral_modulus(coeffs)
        self._mu_powers = [self.mu ** u for u in range(self.degree)]

    # -- construction helpers -------------------------------------------

    def __call__(self, value):
        return self.coerce(value)

    def gen(self):
        """The class of t."""
        if self.degree == 1:
            return FieldElem((-self.modulus_coeffs[0],), self)
        coeffs = [_ZERO] * self.degree
        coeffs[1] = _ONE
        return FieldElem(tuple(coeffs), self)

    def from_coeffs(self, coeffs):
        return FieldElem(self._reduce([Fraction(c) for c in coeffs]), self)

    def coerce(self, value):
        if isinstance(value, FieldElem):
            if value.field is self:
                return value
            r = value.to_rational()
            if r is not None:
                return self.coerce(r)
            raise FieldMismatch(
                f"element of {value.field.label} used in {self.label}")
        if isinstance(value, (int, Fraction)):
            coeffs = [_ZERO] * self.degree
            coeffs[0] = Fraction(value)
            return FieldElem(tuple(coeffs), self)
        raise FieldMismatch(f"cannot coerce {value!r} into {self.label}")

    def tilde_coordinates(self, scalars):
        """The t̃-coordinates a_u/μ^u of the scalars (a_u their
        t-coordinates, t̃ = μ·t), flattened: e = deg m per scalar."""
        if self.mu == 1:
            return [a for c in scalars for a in self.coerce(c).coeffs]
        return [a / w for c in scalars
                for a, w in zip(self.coerce(c).coeffs, self._mu_powers)]

    def from_tilde_coordinates(self, ints, d):
        """The scalars whose flattened t̃-coordinates are ints/d (the
        entries of ints may be Fractions too)."""
        e, powers = self.degree, self._mu_powers
        return [FieldElem(tuple(Fraction(c * w, d) for c, w in
                                zip(ints[j:j + e], powers)), self)
                for j in range(0, len(ints), e)]

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)

    # -- internal --------------------------------------------------------

    def _reduce(self, coeffs):
        """Reduce an ascending Fraction list mod the modulus; pad to d."""
        m = self.modulus_coeffs
        d = self.degree
        coeffs = list(coeffs)
        for k in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[k]
            if c:
                for i in range(d + 1):
                    coeffs[k - d + i] -= c * m[i]
        coeffs = coeffs[:d]
        coeffs += [_ZERO] * (d - len(coeffs))
        return tuple(coeffs)

    def __repr__(self):
        return f"NumberField({self.label})"


class FieldElem:
    """An element of a :class:`NumberField`, reduced mod the modulus."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field):
        self.coeffs = tuple(coeffs)
        self.field = field
        assert len(self.coeffs) == field.degree

    # -- conversions -----------------------------------------------------

    def to_rational(self):
        """Return self as a Fraction if it lies in Q, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    # -- arithmetic ------------------------------------------------------

    def _co(self, other):
        if isinstance(other, FieldElem):
            if other.field is self.field:
                return other
            r = other.to_rational()
            if r is None:
                raise FieldMismatch("mixed number fields")
            return self.field.coerce(r)
        if isinstance(other, (int, Fraction)):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return FieldElem(tuple(a + b for a, b in zip(self.coeffs, o.coeffs)),
                         self.field)

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(tuple(-a for a in self.coeffs), self.field)

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return FieldElem(tuple(a - b for a, b in zip(self.coeffs, o.coeffs)),
                         self.field)

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        prod = [_ZERO] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return FieldElem(self.field._reduce(prod), self.field)

    __rmul__ = __mul__

    def inverse(self):
        """One linear solve: the t-coordinates v of the inverse satisfy
        M·v = e₀, M the matrix of multiplication by self, whose column j
        is self·t^j mod m.  M is singular iff self is a zero divisor."""
        if not self:
            raise ZeroDivisionError("inversion of zero field element")
        from .linalg import rref
        from .poly import _int_scaled
        field, d = self.field, self.field.degree
        columns = [self.coeffs]
        for _ in range(d - 1):
            columns.append(field._reduce((_ZERO,) + columns[-1]))
        rows = [_int_scaled([*row, int(i == 0)], QQ)[0]
                for i, row in enumerate(zip(*columns))]
        red, pivots = rref(rows, d, QQ)
        if len(pivots) < d:
            raise NonInvertible(
                f"gcd with modulus has degree {d - len(pivots)}: "
                f"{field.label} is not a field at this element")
        return FieldElem(tuple(row[d] for row in red), field)

    def __truediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.to_rational() == other
        if isinstance(other, FieldElem):
            if other.field is self.field:
                return self.coeffs == other.coeffs
            a, b = self.to_rational(), other.to_rational()
            return a is not None and a == b
        return NotImplemented

    def __hash__(self):
        r = self.to_rational()
        if r is not None:
            return hash(r)
        return hash((self.coeffs, id(self.field)))

    def __repr__(self):
        return f"FieldElem({format_scalar(self)})"

    def __str__(self):
        return format_scalar(self)


def common_field(f1, f2):
    """The smallest declared field containing both; raises FieldMismatch."""
    if f1 is f2:
        return f1
    if f1 is QQ:
        return f2
    if f2 is QQ:
        return f1
    raise FieldMismatch(f"incompatible fields {f1!r} and {f2!r}")


def field_of(value):
    if isinstance(value, FieldElem):
        return value.field
    if isinstance(value, (int, Fraction)):
        return QQ
    raise FieldMismatch(f"not a scalar: {value!r}")


def is_zero_scalar(value):
    if isinstance(value, FieldElem):
        return not value
    return value == 0


def format_scalar(value):
    """Human-readable rendering of a Fraction or FieldElem."""
    if isinstance(value, FieldElem):
        r = value.to_rational()
        if r is not None:
            return format_scalar(r)
        parts = []
        for i, c in enumerate(value.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(format_scalar(c))
            else:
                tpow = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    parts.append(tpow)
                elif c == -1:
                    parts.append(f"-{tpow}")
                else:
                    parts.append(f"{format_scalar(c)}*{tpow}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"
    return str(value)


def scalar_to_json(value):
    """JSON form: rationals as "p/q" strings, field elements as coeff lists."""
    if isinstance(value, FieldElem):
        r = value.to_rational()
        if r is not None:
            return scalar_to_json(r)
        return {"t_coeffs": [scalar_to_json(c) for c in value.coeffs]}
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else str(value.numerator)
    return str(value)
