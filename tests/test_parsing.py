from fractions import Fraction as F

import pytest

from subalg.errors import ParseError, UnknownSymbol
from subalg.fields import NumberField
from subalg.parsing import parse_expr, parse_poly, parse_scalar
from subalg.poly import Poly


def test_basic_polynomials():
    assert parse_poly("x^3 - x") == Poly((0, -1, 0, 1))
    assert parse_poly("1/2*x^2 + 3") == Poly((F(3), F(0), F(1, 2)))
    assert parse_poly("  x ^ 2   -  1 ") == Poly((-1, 0, 1))


def test_parentheses_and_products():
    assert parse_poly("(x-1)*(x+1)") == Poly((-1, 0, 1))
    assert parse_poly("(x-1)^2*(x+1)") == parse_poly("x^3 - x^2 - x + 1")


def test_generator_symbol_requires_field():
    with pytest.raises(UnknownSymbol):
        parse_poly("t*x + 1")
    nf = NumberField([1, 0, 1])
    p = parse_poly("t*x + 1", field=nf)
    assert p.coeff(1) == nf.gen()


def test_env_resolution():
    p = parse_expr("a*x + b", env={"a": F(2), "b": F(-3)})
    assert p == Poly((-3, 2))


def test_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_poly("x +")
    assert info.value.position is not None
    with pytest.raises(ParseError):
        parse_poly("x ? 1")
    with pytest.raises(ParseError):
        parse_poly("x^-2")
    with pytest.raises(ParseError):
        parse_poly("x / (x + 1)")
    with pytest.raises(ParseError, match="division by zero") as info:
        parse_poly("1/0")
    assert info.value.position == 3


def test_scalar_parsing():
    assert parse_scalar("3/4 + 1") == F(7, 4)
    with pytest.raises(ParseError):
        parse_scalar("x + 1")
