"""Parameter draws covering every classification family and type branch.

Each entry is (label, params, expected_type_or_None).  `special_draws`
adds configurations whose coefficients must be solved for (degenerate
branches where an extra basis element appears in low degree).
"""

from fractions import Fraction as F

from subalg.fields import NumberField, is_zero_scalar
from subalg.parsing import parse_expr
from subalg.poly import Poly
from subalg.roots import rational_roots

DRAWS = [
    ("codim1/deriv", {"gamma": F(2)}, (2, 3)),
    ("codim1/pair", {"alpha": F(1), "beta": F(-1)}, (2, 3)),

    ("codim2/s=1", {"alpha": F(0), "a": F(0), "b": F(1)}, (2, 5)),
    ("codim2/s=1", {"alpha": F(1), "a": F(2), "b": F(3)}, (3, 4, 5)),
    ("codim2/s=1", {"alpha": F(1), "a": F(2), "b": F(0)}, (3, 4, 5)),
    ("codim2/s=2-pair", {"alpha": F(0), "beta": F(1), "a": F(2), "b": F(2)},
     (2, 5)),
    ("codim2/s=2-pair", {"alpha": F(0), "beta": F(1), "a": F(1), "b": F(3)},
     (3, 4, 5)),
    ("codim2/s=2-pair", {"alpha": F(0), "beta": F(2), "a": F(0), "b": F(1)},
     (3, 4, 5)),
    ("codim2/s=2-deriv", {"alpha": F(0), "beta": F(1)}, (3, 4, 5)),
    ("codim2/s=3", {"alpha": F(0), "beta": F(2), "gamma": F(1)}, (2, 5)),
    ("codim2/s=3", {"alpha": F(0), "beta": F(1), "gamma": F(3)}, (3, 4, 5)),
    ("codim2/s=3-cluster", {"alpha": F(0), "beta": F(1), "gamma": F(2)},
     (3, 4, 5)),
    ("codim2/s=4", {"alpha": F(0), "beta": F(3), "gamma": F(1),
                    "delta": F(2)}, (2, 5)),
    ("codim2/s=4", {"alpha": F(0), "beta": F(1), "gamma": F(2),
                    "delta": F(4)}, (3, 4, 5)),

    ("codim3/s=1/case1", {"alpha": F(0), "a": F(1), "b": F(2), "c": F(3)},
     (4, 5, 6, 7)),
    ("codim3/s=1/case1", {"alpha": F(1), "a": F(0), "b": F(1), "c": F(2)},
     (3, 5, 7)),
    ("codim3/s=1/case1", {"alpha": F(0), "a": F(0), "b": F(0), "c": F(1)},
     (3, 4)),
    ("codim3/s=1/case2", {"alpha": F(0), "a": F(2), "d": F(3)},
     (4, 5, 6, 7)),
    ("codim3/s=1/case2", {"alpha": F(1), "a": F(2), "d": F(0)}, (3, 5, 7)),
    ("codim3/s=1/case3", {"alpha": F(0), "c": F(1), "d": F(5)},
     (4, 5, 6, 7)),
    ("codim3/s=1/case3", {"alpha": F(0), "c": F(1), "d": F(0)}, (2, 7)),

    ("codim3/s=2/case1", {"alpha": F(0), "beta": F(1), "a": F(2),
                          "b": F(1)}, (3, 5, 7)),
    ("codim3/s=2/case1", {"alpha": F(0), "beta": F(1), "a": F(1),
                          "b": F(1)}, (4, 5, 6, 7)),
    ("codim3/s=2/case1", {"alpha": F(0), "beta": F(1), "a": F(0),
                          "b": F(1)}, (4, 5, 6, 7)),
    ("codim3/s=2/case2", {"alpha": F(0), "beta": F(2), "a": F(6),
                          "b": F(2), "c": F(3)}, (3, 4)),
    ("codim3/s=2/case2", {"alpha": F(0), "beta": F(1), "a": F(1),
                          "b": F(1), "c": F(-4)}, (3, 5, 7)),
    ("codim3/s=2/case2", {"alpha": F(0), "beta": F(1), "a": F(1),
                          "b": F(1), "c": F(1)}, (4, 5, 6, 7)),
    ("codim3/s=2/case3", {"alpha": F(0), "beta": F(1), "a": F(0),
                          "b": F(1)}, (2, 7)),
    ("codim3/s=2/case3", {"alpha": F(0), "beta": F(1), "a": F(1),
                          "b": F(1)}, (4, 5, 6, 7)),
    ("codim3/s=2/case4", {"alpha": F(0), "beta": F(1), "a": F(12),
                          "b": F(-1), "c": F(1)}, (3, 4)),
    ("codim3/s=2/case4", {"alpha": F(0), "beta": F(1), "a": F(1),
                          "b": F(2), "c": F(1)}, None),

    ("codim3/s=3/case1", {"alpha": F(0), "beta": F(1), "gamma": F(3)},
     (4, 5, 6, 7)),
    ("codim3/s=3/case1", {"alpha": F(0), "beta": F(2), "gamma": F(1)},
     (4, 5, 6, 7)),
    ("codim3/s=3/case2", {"alpha": F(0), "beta": F(2), "gamma": F(1),
                          "a": F(1), "b": F(1)}, (2, 7)),
    ("codim3/s=3/case2", {"alpha": F(0), "beta": F(2), "gamma": F(1),
                          "a": F(1), "b": F(2)}, (4, 5, 6, 7)),
    ("codim3/s=3/case2", {"alpha": F(0), "beta": F(1), "gamma": F(3),
                          "a": F(1), "b": F(1)}, (4, 5, 6, 7)),
    ("codim3/s=3/case2", {"alpha": F(0), "beta": F(1), "gamma": F(2),
                          "a": F(1), "b": F(3)}, (4, 5, 6, 7)),
    ("codim3/s=3/case3", {"alpha": F(0), "beta": F(1), "gamma": F(3),
                          "a": F(4), "b": F(9), "c": F(1)}, (3, 4)),
    ("codim3/s=3/case3", {"alpha": F(0), "beta": F(1), "gamma": F(2),
                          "a": F(1), "b": F(1), "c": F(1)}, None),
    ("codim3/s=3/case4", {"alpha": F(0), "beta": F(2), "gamma": F(1),
                          "a": F(0), "b": F(1)}, (2, 7)),
    ("codim3/s=3/case4", {"alpha": F(0), "beta": F(2), "gamma": F(1),
                          "a": F(1), "b": F(1)}, (4, 5, 6, 7)),
    ("codim3/s=3/case4", {"alpha": F(0), "beta": F(1), "gamma": F(3),
                          "a": F(1), "b": F(0)}, None),
    ("codim3/s=3/case4", {"alpha": F(0), "beta": F(1), "gamma": F(3),
                          "a": F(1), "b": F(1)}, None),

    ("codim3/s=4/case1", {"alpha": F(0), "beta": F(1), "gamma": F(2),
                          "delta": F(3)}, (4, 5, 6, 7)),
    ("codim3/s=4/case2", {"alpha": F(0), "beta": F(3), "gamma": F(1),
                          "delta": F(2), "a": F(1), "b": F(1)}, (2, 7)),
    ("codim3/s=4/case2", {"alpha": F(0), "beta": F(3), "gamma": F(1),
                          "delta": F(2), "a": F(1), "b": F(2)},
     (4, 5, 6, 7)),
    ("codim3/s=4/case2", {"alpha": F(0), "beta": F(1), "gamma": F(2),
                          "delta": F(4), "a": F(1), "b": F(3)}, None),
    ("codim3/s=4/case3", {"alpha": F(0), "beta": F(1), "gamma": F(2),
                          "delta": F(4)}, None),
    ("codim3/s=4/case4", {"alpha": F(0), "beta": F(1), "gamma": F(2),
                          "delta": F(4)}, None),

    ("codim3/s=5/case1", {"alpha": F(0), "beta": F(3), "gamma": F(1),
                          "delta": F(2), "lam": F(5)}, (4, 5, 6, 7)),
    ("codim3/s=5/case1", {"alpha": F(0), "beta": F(1), "gamma": F(2),
                          "delta": F(4), "lam": F(5)}, None),
    ("codim3/s=5/case2", {"alpha": F(0), "beta": F(2), "gamma": F(-1),
                          "delta": F(3), "lam": F(1)}, (2, 7)),
    ("codim3/s=5/case2", {"alpha": F(0), "beta": F(2), "gamma": F(-1),
                          "delta": F(3), "lam": F(4)}, (4, 5, 6, 7)),
    ("codim3/s=5/case2", {"alpha": F(0), "beta": F(1), "gamma": F(2),
                          "delta": F(4), "lam": F(5)}, None),

    ("codim3/s=6", {"alpha": F(0), "beta": F(4), "gamma": F(1),
                    "delta": F(3), "lam": F(-1), "mu": F(5)}, (2, 7)),
    ("codim3/s=6", {"alpha": F(0), "beta": F(1), "gamma": F(2),
                    "delta": F(4), "lam": F(5), "mu": F(7)}, None),
]


def _poly(expr, env=None, field=None):
    return parse_expr(expr, env=env, field=field)


def _tau(al, be, ga, de):
    """Third root of the cubic vanishing equally on both pairs."""
    return (ga * ga + ga * de + de * de + al * be
            - (al + be) * (ga + de)) / (ga + de - al - be)


def special_draws():
    """Configurations whose coefficients are solved for a specific branch."""
    out = []
    # two pairs + critical point with a degree-4 element: gamma from the
    # reciprocal-sum equation
    a, b, d = F(0), F(1), F(4)
    inv = -(1 / (a - d) + 1 / (b - d))
    g = d + 1 / inv
    out.append(("codim3/s=4/case4",
                {"alpha": a, "beta": b, "gamma": g, "delta": d}, (3, 5, 7)))
    # triple cluster + pair, extra low-degree element when lam = tau
    al, be, ga, de = F(0), F(1), F(2), F(4)
    out.append(("codim3/s=5/case1",
                {"alpha": al, "beta": be, "gamma": ga, "delta": de,
                 "lam": _tau(al, be, ga, de)}, (3, 5, 7)))

    # pair with weighted derivative condition: (a, c) so the functional
    # kills the degree-3 element
    al, be, b = F(0), F(1), F(2)
    env = {"alpha": al, "beta": be, "b": b}
    g1 = _poly("(x-alpha)*(x-beta)*((1-b)*x-(alpha-b*beta))", env)
    u = g1.derivative()(be)
    v = g1.derivative(2)(al) - b * b * g1.derivative(2)(be)
    assert u != 0 and v != 0
    out.append(("codim3/s=2/case4",
                {"alpha": al, "beta": be, "a": v, "b": b, "c": -u},
                (3, 5, 7)))

    # pair + point with weighted derivatives: (a, b) with q'(gamma) = 0
    al, be, ga = F(0), F(1), F(3)
    q10 = _poly("(x-alpha)*(x-beta)*(x-alpha)", {"alpha": al, "beta": be})
    q01 = _poly("(x-alpha)*(x-beta)*(0-x+beta)", {"alpha": al, "beta": be})
    g10, g01 = q10.derivative()(ga), q01.derivative()(ga)
    a_, b_ = g01, -g10
    assert a_ != b_ and (a_ != 0 or b_ != 0)
    out.append(("codim3/s=3/case2",
                {"alpha": al, "beta": be, "gamma": ga, "a": a_, "b": b_},
                (3, 5, 7)))

    # three points, one derivative sum: c from the vanishing on the cubic
    al, be, ga = F(0), F(1), F(3)
    p1 = _poly("(x-alpha)*(x-beta)*(x-gamma)",
               {"alpha": al, "beta": be, "gamma": ga})
    d1 = p1.derivative()
    c_ = -(d1(al) + d1(be)) / d1(ga)
    out.append(("codim3/s=3/case3",
                {"alpha": al, "beta": be, "gamma": ga,
                 "a": F(1), "b": F(1), "c": c_}, (3, 5, 7)))

    # pair + double derivative point: (a, b) annihilating the cubic
    al, be, ga = F(0), F(1), F(3)
    q2 = _poly("(x-gamma)^2*((alpha+beta-2*gamma)*x"
               "-(alpha^2+alpha*beta+beta^2-2*(alpha+beta)*gamma+gamma^2))",
               {"alpha": al, "beta": be, "gamma": ga})
    a_, b_ = q2.derivative(3)(ga), -q2.derivative(2)(ga)
    assert a_ != 0 or b_ != 0
    out.append(("codim3/s=3/case4",
                {"alpha": al, "beta": be, "gamma": ga, "a": a_, "b": b_},
                (3, 5, 7)))

    # two pairs with a weighted derivative condition: a with D(q) = 0
    al, be, ga, de = F(0), F(1), F(2), F(4)
    q = _poly("(x-alpha)*(x-beta)*(x-tau)",
              {"alpha": al, "beta": be, "tau": _tau(al, be, ga, de)})
    a_ = -q.derivative()(be) / q.derivative()(al)
    out.append(("codim3/s=4/case2",
                {"alpha": al, "beta": be, "gamma": ga, "delta": de,
                 "a": a_, "b": F(1)}, (3, 5, 7)))

    # same family, degree-4 branch: beta chosen so the quartic condition
    # degenerates, then D(q) = 0
    al, ga, de = F(0), F(1), F(2)
    be = (ga * ga + de * de) / (ga + de)
    q = _poly("(x-alpha)*(x-beta)*(x-tau)",
              {"alpha": al, "beta": be, "tau": _tau(al, be, ga, de)})
    a_, b_ = q.derivative()(be), -q.derivative()(al)
    out.append(("codim3/s=4/case2",
                {"alpha": al, "beta": be, "gamma": ga, "delta": de,
                 "a": a_, "b": b_}, (3, 4)))

    # pair + two derivative points: with gamma = 0 the level condition
    # g1(alpha) = g1(beta) fixes delta
    al, be, ga = F(1), F(2), F(0)
    de = 2 * (al * al + al * be + be * be) / (3 * (al + be))
    out.append(("codim3/s=4/case3",
                {"alpha": al, "beta": be, "gamma": ga, "delta": de},
                (3, 5, 7)))

    # two pairs + point: conic configuration with a rational critical point
    out.append(("codim3/s=5/case2",
                {"alpha": F(0), "beta": F(1), "gamma": F(6, 7),
                 "delta": F(-2, 7), "lam": F(2, 3)}, (3, 5, 7)))

    # pair + double derivative point, degree-4 branch: Gaussian points with
    # (alpha-gamma)^2 + (beta-gamma)^2 = 0
    qi = NumberField([1, 0, 1], label="t^2+1")
    al, be, ga = qi.coerce(1), qi.gen(), qi.zero
    q2 = _poly("(x-gamma)^2*((alpha+beta-2*gamma)*x"
               "-(alpha^2+alpha*beta+beta^2-2*(alpha+beta)*gamma+gamma^2))",
               {"alpha": al, "beta": be, "gamma": ga}, field=qi)
    a_, b_ = q2.derivative(3)(ga), -q2.derivative(2)(ga)
    p4b = _poly("(x-gamma)^2*(x-alpha)*(x-beta)",
                {"alpha": al, "beta": be, "gamma": ga}, field=qi)
    check = a_ * p4b.derivative(2)(ga) + b_ * p4b.derivative(3)(ga)
    assert is_zero_scalar(check)
    out.append(("codim3/s=3/case4",
                {"alpha": al, "beta": be, "gamma": ga, "a": a_, "b": b_},
                (3, 4)))

    # three pairs on level curves of both x^3 - x and x^4 - (89/49) x^2
    out.append(("codim3/s=6",
                {"alpha": F(-1), "beta": F(1),
                 "gamma": F(8, 7), "delta": F(-5, 7),
                 "lam": F(-8, 7), "mu": F(5, 7)}, (3, 4)))
    # three pairs on the x^3 - x level curves only
    out.append(("codim3/s=6",
                {"alpha": F(-1), "beta": F(1),
                 "gamma": F(8, 7), "delta": F(-5, 7),
                 "lam": F(21, 19), "mu": F(-16, 19)}, (3, 5, 7)))

    # number-field points that are no powers of t: a pair over Q(sqrt 2)
    # whose conductor x^2 - 2x - 1 is irreducible over Q, and a Gaussian
    # pair with a derivative condition
    q2 = NumberField([-2, 0, 1], label="t^2-2")
    t = q2.gen()
    out.append(("codim1/pair", {"alpha": 1 + t, "beta": 1 - t}, (2, 3)))
    t = qi.gen()
    out.append(("codim2/s=2-deriv", {"alpha": 2 + 3 * t, "beta": F(1, 2) - t},
                (3, 4, 5)))
    return out


def all_draws():
    return DRAWS + special_draws()


def family_draws():
    """(label, params): the first draw of each family, plus the first
    number-field draw of a family."""
    seen = {}
    for label, params, _ in all_draws():
        number_field = any(hasattr(v, "field") for v in params.values())
        seen.setdefault((label, number_field), params)
    return [(label, params) for (label, _), params in seen.items()]


def affine_variants(params, transforms=((F(2), F(1)), (F(1), F(-1)),
                                        (F(1, 2), F(2)), (F(3), F(-2)))):
    """Images of a parameter set under x -> (x - mu) / lam.

    Point parameters move with the map; coefficient parameters are left
    unchanged, which stays inside the family because every family is
    closed under affine changes of the variable up to rescaling the
    condition coefficients.
    """
    point_names = {"alpha", "beta", "gamma", "delta", "lam", "mu"}
    out = []
    for lam, mu in transforms:
        moved = {}
        for name, value in params.items():
            if name in point_names:
                moved[name] = (value - mu) / lam if not hasattr(
                    value, "field") else (value - value.field.coerce(mu)) \
                    / value.field.coerce(lam)
            else:
                moved[name] = value
        out.append(moved)
    return out
