"""Recursive-descent parser for polynomial and scalar expressions.

Grammar:
    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' uint)?
    base   := integer | name | '(' expr ')'

Multiplication is always explicit; '/' requires a constant divisor.  Names
are resolved through an environment; the default environment knows 'x' and,
when a field is supplied, its generator 't'.

Each source string is tokenized and parsed once into a tree (`_compile`,
cached), which is then evaluated on scalars, and on cleared integer
coefficient lists once x or a Poly from the environment enters
(`_evaluate`); one Poly is built from such a value at the end.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import ParseError, UnknownSymbol
from .fields import QQ, is_zero_scalar
from .poly import Poly, _int_mul, _int_scaled, _int_sum, _int_trim

_OPERATORS = set("+-*/^()")


def _tokenize(src):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append((c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append((int(src[i:j]), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append((src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", position=i)
    return tokens


class _Parser:
    """Builds the expression tree of one source string: tuples
    ("num", n), ("name", s), ("neg", a), ("^", a, n), (op, a, b) for op
    one of "+", "-", "*", and ("/", a, b, position), the position a
    division error reports."""

    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) \
            else None

    def position(self):
        return self.tokens[self.pos][1] if self.pos < len(self.tokens) \
            else len(self.src)

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok[0]

    def expect(self, symbol):
        if self.peek() != symbol:
            raise ParseError(f"expected {symbol!r}", position=self.position())
        self.advance()

    def parse(self):
        tree = self.expr()
        if self.pos < len(self.tokens):
            raise ParseError("trailing input", position=self.position())
        return tree

    def expr(self):
        negate = False
        if self.peek() == "-":
            self.advance()
            negate = True
        tree = self.term()
        if negate:
            tree = ("neg", tree)
        while self.peek() in ("+", "-"):
            op = self.advance()
            tree = (op, tree, self.term())
        return tree

    def term(self):
        tree = self.factor()
        while self.peek() in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            tree = (op, tree, rhs) if op == "*" else \
                (op, tree, rhs, self.position())
        return tree

    def factor(self):
        tree = self.base()
        if self.peek() == "^":
            pos = self.position()
            self.advance()
            exponent = self.peek()
            if not isinstance(exponent, int) or exponent < 0:
                raise ParseError("exponent must be a nonnegative integer",
                                 position=pos)
            self.advance()
            tree = ("^", tree, exponent)
        return tree

    def base(self):
        tok = self.peek()
        pos = self.position()
        if tok == "(":
            self.advance()
            tree = self.expr()
            self.expect(")")
            return tree
        if isinstance(tok, int):
            self.advance()
            return ("num", tok)
        if isinstance(tok, str) and tok not in _OPERATORS:
            self.advance()
            return ("name", tok)
        raise ParseError("expected a value", position=pos)


@lru_cache(maxsize=1024)
def _compile(src):
    """The expression tree of src (see `_Parser`), tokenized and parsed
    once per source string."""
    return _Parser(src).parse()


def _evaluate(tree, env, field):
    """The value of an expression tree: a scalar of the field, or, once x
    (or a Poly from env) enters, a cleared polynomial (ints, den) over the
    field as `poly._int_scaled` clears it.  Polynomial values combine on
    ints (`poly._int_mul`, `_int_sum`), unreduced, with a scalar cleared
    where it meets one; the caller builds one Poly or scalar at the end.
    Names resolve through env (a Poly there is coerced into the field),
    then x and, over a number field, its generator t."""
    op, e = tree[0], field.degree
    if op == "num":
        return field.coerce(tree[1])
    if op == "name":
        name = tree[1]
        if name in env:
            value = env[name]
            if isinstance(value, Poly):
                return value.coerce_to(field).cleared()
            return field.coerce(value)
        if name == "x":
            return [0] * e + [1] + [0] * (e - 1), 1
        if name == "t":
            if field is QQ:
                raise UnknownSymbol(
                    "generator 't' used without a declared field")
            return field.gen()
        raise UnknownSymbol(f"unknown symbol {name!r}")
    a = _evaluate(tree[1], env, field)
    if op == "neg":
        return ([-c for c in a[0]], a[1]) if isinstance(a, tuple) else -a
    if op == "^":
        if not isinstance(a, tuple):
            return a ** tree[2]
        power, mt = [1] + [0] * (e - 1), field.tilde_modulus
        for _ in range(tree[2]):
            power = _int_trim(_int_mul(power, a[0], mt), e) if a[0] else []
        return power, a[1] ** tree[2]
    b = _evaluate(tree[2], env, field)
    if op == "/":
        if isinstance(b, tuple):
            if len(b[0]) != e:
                raise ParseError("division by a non-constant" if b[0]
                                 else "division by zero", position=tree[3])
            b = field.from_tilde_coordinates(*b)[0]
        elif is_zero_scalar(b):
            raise ParseError("division by zero", position=tree[3])
        if not isinstance(a, tuple):
            return a / b
        op, b = "*", field.one / b      # a polynomial times 1/b
    if not isinstance(a, tuple) and not isinstance(b, tuple):
        return a + b if op == "+" else a - b if op == "-" else a * b
    (a, da), (b, db) = (v if isinstance(v, tuple) else _scalar(v, field)
                        for v in (a, b))
    if op == "*":
        if not a or not b:
            return [], 1
        return _int_trim(_int_mul(a, b, field.tilde_modulus), e), da * db
    g = gcd(da, db)
    sa, sb = db // g, (da // g if op == "+" else -da // g)
    return _int_trim(_int_sum([c * sa for c in a], [c * sb for c in b]),
                     e), da // g * db


def _scalar(value, field):
    """A scalar of the field, cleared: one block, or [] for zero."""
    ints, den = _int_scaled((value,), field)
    return (ints if any(ints) else []), den


def parse_expr(src, env=None, field=None):
    """Evaluate an expression to a Poly over the field (default Q).

    env maps extra names to scalars or polynomials.
    """
    field = field or QQ
    value = _evaluate(_compile(src), env or {}, field)
    if not isinstance(value, tuple):
        value = _scalar(value, field)
    return Poly.from_cleared(*value, field)


def parse_poly(src, field=None):
    """Parse a polynomial in x (and t over a number field)."""
    return parse_expr(src, field=field)


def parse_scalar(src, env=None, field=None):
    """Evaluate an expression that must be constant; returns the scalar."""
    field = field or QQ
    value = _evaluate(_compile(src), env or {}, field)
    if not isinstance(value, tuple):
        return value
    ints, den = value
    if len(ints) > field.degree:
        raise ParseError("expected a constant expression", position=0)
    return field.from_tilde_coordinates(ints or [0] * field.degree, den)[0]
