import importlib
import random
from fractions import Fraction as F

import pytest

from case_draws import affine_variants, all_draws
from subalg import parsing
from subalg.errors import ParseError, SubalgError, UnknownSymbol
from subalg.fields import QQ, NumberField, is_zero_scalar
from subalg.parsing import parse_expr, parse_poly, parse_scalar
from subalg.poly import Poly

classify = importlib.import_module("subalg.classify")


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


# `_evaluate` as it was, on a `Poly` or scalar per tree node: the
# evaluator that the cleared-int one replaced, kept verbatim as the
# reference, with `parse_expr` and `parse_scalar` on top of it.

def reference_evaluate(tree, env, field):
    """The value of an expression tree: a scalar of the field, or a Poly
    once x (or a Poly from env) enters.  Names resolve through env, then x
    and, over a number field, its generator t."""
    op = tree[0]
    if op == "num":
        return field.coerce(tree[1])
    if op == "name":
        name = tree[1]
        if name in env:
            value = env[name]
            if isinstance(value, Poly):
                return value.coerce_to(field) if value.field is QQ else value
            return field.coerce(value)
        if name == "x":
            return Poly.x(field)
        if name == "t":
            if field is QQ:
                raise UnknownSymbol(
                    "generator 't' used without a declared field")
            return field.gen()
        raise UnknownSymbol(f"unknown symbol {name!r}")
    value = reference_evaluate(tree[1], env, field)
    if op == "neg":
        return -value
    if op == "^":
        return value ** tree[2]
    rhs = reference_evaluate(tree[2], env, field)
    if op == "+":
        return value + rhs
    if op == "-":
        return value - rhs
    if op == "*":
        return value * rhs
    if isinstance(rhs, Poly):
        if rhs.degree != 0:
            raise ParseError("division by zero" if rhs.is_zero()
                             else "division by a non-constant",
                             position=tree[3])
        rhs = rhs.coeff(0)
    elif is_zero_scalar(rhs):
        raise ParseError("division by zero", position=tree[3])
    return value / rhs


def reference_parse_expr(src, env=None, field=None):
    field = field or QQ
    value = reference_evaluate(parsing._compile(src), env or {}, field)
    return value if isinstance(value, Poly) else Poly.constant(value, field)


def reference_parse_scalar(src, env=None, field=None):
    field = field or QQ
    value = reference_evaluate(parsing._compile(src), env or {}, field)
    if not isinstance(value, Poly):
        return value
    if value.degree > 0:
        raise ParseError("expected a constant expression", position=0)
    return value.coeff(0)


def _outcome(parse, src, env, field):
    """parse(src) and the type of its value, or the error it raises, with
    its message and position."""
    try:
        value = parse(src, env=env, field=field)
    except SubalgError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)
    if isinstance(value, Poly):
        return value.field, value.coeffs
    return type(value), value, getattr(value, "field", None)


def _same(src, env, field, poly=True):
    """parse_scalar, and parse_expr when `poly`, agree with the
    reference evaluator on src."""
    if poly:
        assert _outcome(parse_expr, src, env, field) == \
            _outcome(reference_parse_expr, src, env, field), src
    assert _outcome(parse_scalar, src, env, field) == \
        _outcome(reference_parse_scalar, src, env, field), src


def test_every_case_expression_evaluates_as_the_poly_evaluator_did():
    """Every template of every type branch, every helper, guard and
    `when` expression, and every side condition and condition of the 26
    families, with the parameters of every draw and its affine variants
    (Q and number fields), evaluates with `parse_expr` and `parse_scalar`
    to the values, types and errors of the reference evaluator.  Helpers
    enter the environment as `canonical_case_basis` builds it."""
    count, fields = 0, set()
    for label, params, _ in all_draws():
        for moved in [params, *affine_variants(params)]:
            case, values, field = classify._checked_case(label, moved)
            values = classify._normalize_params(case, values, field)
            env = dict(values)
            scalars = [spec.get(key) for spec in case["conditions"]
                       for key in ("alpha", "beta")]
            scalars += [expr for spec in case["conditions"]
                        for term in spec.get("terms", ()) for expr in term[1:]]
            scalars += [expr for side in case.get("side", [])
                        for exprs in side.values() for expr in exprs]
            for src in filter(None, scalars):
                _same(src, env, field)
                count += 1
            conds = classify._build_conditions(case, values, field)
            for helper in case.get("helpers", []):
                if "needs_nonzero" in helper:
                    _same(helper["needs_nonzero"], dict(values), field)
                    if is_zero_scalar(parse_scalar(
                            helper["needs_nonzero"], env=dict(values),
                            field=field)):
                        continue
                if "expr" in helper:
                    _same(helper["expr"], env, field)
                    env[helper["name"]] = parse_expr(helper["expr"],
                                                     env=env, field=field)
                elif helper["to"] in env:
                    env[helper["name"]] = conds[helper["apply"]].apply(
                        env[helper["to"]])
                count += 1
            for entry in case["types"]:
                for expr, _ in entry["when"]:
                    _same(expr, env, field)
                for src in entry["basis"]:
                    _same(src, env, field)
                count += len(entry["when"]) + len(entry["basis"])
            fields.add(field.degree)
    assert fields == {1, 2} and count > 5000


def test_random_expressions_evaluate_as_the_poly_evaluator_did():
    """Random expressions over Q and Q(i), with scalars and a polynomial
    in the environment, parse to the reference evaluator's values and
    types, or raise its errors with the same messages and positions:
    division by zero, by a non-constant, a non-constant scalar, unknown
    symbols and syntax errors among them."""
    rng = random.Random(20261021)
    atoms = ["x", "t", "a", "b", "u", "0", "1", "2", "7", "(x - x)",
             "(a - a)", "y"]
    operators = ["+", "-", "*", "/"]

    def expression(depth):
        if depth == 0 or rng.random() < 0.3:
            atom = rng.choice(atoms)
            return f"{atom}^{rng.randint(0, 3)}" if rng.random() < 0.2 \
                else atom
        return (f"({expression(depth - 1)} {rng.choice(operators)} "
                f"{expression(depth - 1)})" if rng.random() < 0.5 else
                f"-{expression(depth - 1)} {rng.choice(operators)} "
                f"{expression(depth - 1)}")

    qi = NumberField([1, 0, 1])
    outcomes = set()
    for field in (QQ, qi):
        t = field.one if field is QQ else field.gen()
        env = {"a": F(3, 4), "b": t * 2 - F(1, 3),
               "u": Poly((F(1, 2), t, 1), field)}
        for _ in range(400):
            src = expression(3)
            if rng.random() < 0.05:
                src += rng.choice([" +", " )", " ?", "^-1", " 1"])
            _same(src, env, field)
            outcomes.add(_outcome(parse_scalar, src, env, field)[0])
    assert {"ParseError", "UnknownSymbol"} <= outcomes
