from fractions import Fraction as F

import pytest

from subalg import parsing
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


def test_each_source_is_parsed_once(monkeypatch):
    tokenize, calls = parsing._tokenize, []
    monkeypatch.setattr(parsing, "_tokenize",
                        lambda src: calls.append(src) or tokenize(src))
    parsing._compile.cache_clear()
    nf = NumberField([1, 0, 1])
    src = "(a - t)^2*x + a/3"
    assert parse_expr(src, env={"a": F(3), "t": F(1)}) == \
        Poly((F(1), F(4)))
    assert parse_scalar("a/3 - 1", env={"a": F(3)}) == 0
    assert parse_scalar("a/3 - 1", env={"a": F(6)}) == 1
    value = parse_expr(src, env={"a": nf.one}, field=nf)
    assert value == Poly((nf.coerce(F(1, 3)), (1 - nf.gen()) ** 2), nf)
    assert calls == [src, "a/3 - 1"]


def test_scalars_and_polynomials_evaluate_alike():
    nf = NumberField([-2, 0, 1])
    t = nf.gen()
    assert parse_scalar("(t + 1)^2/(3 - t)", field=nf) == \
        (t + 1) ** 2 / (3 - t)
    assert parse_scalar("x - x + 2") == 2
    assert type(parse_scalar("7/2")) is F
    assert parse_scalar("t*t", field=nf).field is nf
    assert parse_expr("3*t/2", field=nf) == Poly((3 * t / 2,), nf)
    assert parse_expr("0*x") == Poly.zero()
    assert parse_expr("u + x", env={"u": Poly((1, 1))}) == Poly((1, 2))


@pytest.mark.parametrize("src, error, message, position", [
    ("x +", ParseError, "expected a value", 3),
    ("x ? 1", ParseError, "unexpected character '?'", 2),
    ("x^-2", ParseError, "exponent must be a nonnegative integer", 1),
    ("x / (x + 1)", ParseError, "division by a non-constant", 11),
    ("2 / (x - x) + 1", ParseError, "division by zero", 12),
    ("1/0", ParseError, "division by zero", 3),
    ("(x + 1", ParseError, "expected ')'", 6),
    ("x 1", ParseError, "trailing input", 2),
    ("y + 1", UnknownSymbol, "unknown symbol 'y'", None),
    ("t*x", UnknownSymbol, "generator 't' used without a declared field",
     None),
])
def test_errors_keep_messages_and_positions(src, error, message, position):
    for _ in range(2):          # parsed, then read from the cache
        with pytest.raises(error) as info:
            parse_poly(src)
        assert str(info.value) == message
        assert info.value.position == position
