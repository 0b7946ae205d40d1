"""Recursive-descent parser for polynomial and scalar expressions.

Grammar:
    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' uint)?
    base   := integer | name | '(' expr ')'

Multiplication is always explicit; '/' requires a constant divisor.  Names
are resolved through an environment; the default environment knows 'x' and,
when a field is supplied, its generator 't'.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, UnknownSymbol
from .fields import QQ
from .poly import Poly

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
    def __init__(self, src, env, field):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.env = env
        self.field = field

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
        value = self.expr()
        if self.pos < len(self.tokens):
            raise ParseError("trailing input", position=self.position())
        return value

    def expr(self):
        negate = False
        if self.peek() == "-":
            self.advance()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek() in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            else:
                if rhs.degree != 0:
                    raise ParseError("division by zero" if rhs.is_zero()
                                     else "division by a non-constant",
                                     position=self.position())
                value = value / rhs.coeff(0)
        return value

    def factor(self):
        value = self.base()
        if self.peek() == "^":
            pos = self.position()
            self.advance()
            exponent = self.peek()
            if not isinstance(exponent, int) or exponent < 0:
                raise ParseError("exponent must be a nonnegative integer",
                                 position=pos)
            self.advance()
            value = value ** exponent
        return value

    def base(self):
        tok = self.peek()
        pos = self.position()
        if tok == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        if isinstance(tok, int):
            self.advance()
            return Poly.constant(self.field.coerce(Fraction(tok)), self.field)
        if isinstance(tok, str) and tok not in _OPERATORS:
            self.advance()
            if tok in self.env:
                value = self.env[tok]
                if isinstance(value, Poly):
                    return value.coerce_to(self.field) \
                        if value.field is QQ else value
                return Poly.constant(self.field.coerce(value), self.field)
            if tok == "t":
                raise UnknownSymbol(
                    "generator 't' used without a declared field")
            raise UnknownSymbol(f"unknown symbol {tok!r}")
        raise ParseError("expected a value", position=pos)


def parse_expr(src, env=None, field=None):
    """Evaluate an expression to a Poly over the field (default Q).

    env maps extra names to scalars or polynomials.
    """
    field = field or QQ
    base_env = {"x": Poly.x(field)}
    if field is not QQ:
        base_env["t"] = field.gen()
    if env:
        base_env.update(env)
    return _Parser(src, base_env, field).parse()


def parse_poly(src, field=None):
    """Parse a polynomial in x (and t over a number field)."""
    return parse_expr(src, field=field)


def parse_scalar(src, env=None, field=None):
    """Evaluate an expression that must be constant; returns the scalar."""
    value = parse_expr(src, env=env, field=field)
    if value.degree > 0:
        raise ParseError("expected a constant expression", position=0)
    return value.coeff(0)
