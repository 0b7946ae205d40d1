"""Classification of subalgebras of codimension at most three.

Every subalgebra of codimension n <= 3 is cut out by n linear conditions
supported on its spectrum and falls into one of finitely many families,
determined by the spectrum size, the cluster structure, and algebraic
relations between the condition coefficients.  The family tables live in
``data/cases.json``: each entry stores the condition templates, the side
conditions on the parameters, and per-branch canonical bases given as
expression templates (helpers such as ``Dq`` denote a condition functional
applied to a helper polynomial).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .conditions import (LinearFunctional, Subalgebra, _JetTable,
                         _annihilator, _jet_image, kernel_subalgebra)
from .errors import (ClassificationError, ParameterDegeneracy,
                     SpectrumNotExact, UnsupportedCodimension)
from .fields import QQ, common_field, field_of, is_zero_scalar
from .parsing import parse_expr, parse_scalar
from .poly import Poly
from .sagbi import subduce


def _load_cases():
    with resources.files("subalg.data").joinpath("cases.json").open() as fh:
        return json.load(fh)["cases"]


CASES = _load_cases()


@dataclass
class ClassificationResult:
    """Outcome of classify(): the matched family and its data."""

    label: str
    codimension: int
    spectrum_size: int
    type: tuple
    parameters: dict
    canonical_basis: list
    symmetries: str

    def to_json(self):
        from .fields import scalar_to_json
        return {
            "label": self.label,
            "codimension": self.codimension,
            "spectrum_size": self.spectrum_size,
            "type": list(self.type),
            "parameters": {k: scalar_to_json(v)
                           for k, v in self.parameters.items()},
            "canonical_basis": [str(p) for p in self.canonical_basis],
            "symmetries": self.symmetries,
        }


# --- template evaluation -------------------------------------------------

def _params_field(params):
    field = QQ
    for v in params.values():
        field = common_field(field, field_of(v))
    return field


def _check_sides(case, params, field):
    env = dict(params)
    for side in case.get("side", []):
        if "nonzero" in side:
            for expr in side["nonzero"]:
                if is_zero_scalar(parse_scalar(expr, env=env, field=field)):
                    raise ParameterDegeneracy(
                        f"side condition violated: {expr} must be nonzero")
        elif "any_nonzero" in side:
            values = [parse_scalar(e, env=env, field=field)
                      for e in side["any_nonzero"]]
            if all(is_zero_scalar(v) for v in values):
                raise ParameterDegeneracy(
                    "side condition violated: not all of "
                    f"{side['any_nonzero']} may vanish")
        elif "distinct" in side:
            names = side["distinct"]
            values = [parse_scalar(n, env=env, field=field) for n in names]
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    if values[i] == values[j]:
                        raise ParameterDegeneracy(
                            f"side condition violated: {names[i]} and "
                            f"{names[j]} must differ")


def _build_conditions(case, params, field):
    env = dict(params)
    conds = []
    for spec in case["conditions"]:
        if spec["kind"] == "diff":
            a = parse_scalar(spec["alpha"], env=env, field=field)
            b = parse_scalar(spec["beta"], env=env, field=field)
            conds.append(LinearFunctional.difference(a, b))
        else:
            terms = []
            for order, point, coeff in spec["terms"]:
                p = parse_scalar(point, env=env, field=field)
                c = parse_scalar(coeff, env=env, field=field)
                if not is_zero_scalar(c):
                    terms.append((order, p, c))
            conds.append(LinearFunctional.derivative_combo(terms))
    return conds


def _eval_helpers(case, params, field, table):
    env = dict(params)
    for helper in case.get("helpers", []):
        guard = helper.get("needs_nonzero")
        if guard is not None and is_zero_scalar(
                parse_scalar(guard, env=dict(params), field=field)):
            continue
        if "expr" in helper:
            env[helper["name"]] = parse_expr(helper["expr"], env=env,
                                             field=field)
        else:
            target = env.get(helper["to"])
            if target is None:
                continue
            env[helper["name"]] = table.apply(helper["apply"], target)
    return env


def _match_type_entry(case, env, field):
    for entry in case["types"]:
        ok = True
        for expr, want in entry["when"]:
            value = parse_scalar(expr, env=env, field=field)
            zero = is_zero_scalar(value)
            if (want == "zero") != zero:
                ok = False
                break
        if ok:
            return entry
    raise ClassificationError("no type branch matched the parameters")


def _normalize_params(case, params, field):
    """Reorder interchangeable points so the basis templates are valid."""
    hook = case.get("normalize")
    if not hook:
        return params
    p = dict(params)
    if hook == "two_gamma_not_mid":
        names = ["alpha", "beta", "gamma"]
        values = [p[n] for n in names]
        for k in range(3):
            a, b, g = values[k % 3], values[(k + 1) % 3], values[(k + 2) % 3]
            if not is_zero_scalar(a + b - g - g):
                return dict(p, alpha=a, beta=b, gamma=g)
        return p
    if hook == "prefer_delta_nonzero_triple":
        triple = [p["alpha"], p["beta"], p["lam"]]
        g, d = p["gamma"], p["delta"]
        for k in range(3):
            a, b, l = triple[k % 3], triple[(k + 1) % 3], triple[(k + 2) % 3]
            if not is_zero_scalar(g + d - a - b):
                return dict(p, alpha=a, beta=b, lam=l)
        return p
    if hook == "prefer_delta_nonzero_three_pairs":
        pairs = [(p["alpha"], p["beta"]), (p["gamma"], p["delta"]),
                 (p["lam"], p["mu"])]
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                (a, b), (g, d) = pairs[i], pairs[j]
                if not is_zero_scalar(g + d - a - b):
                    rest = [pairs[k] for k in range(3) if k not in (i, j)][0]
                    return dict(p, alpha=a, beta=b, gamma=g, delta=d,
                                lam=rest[0], mu=rest[1])
        return p
    return p


def _checked_case(label, params):
    """(case, params, field): the table entry of `label` and the parameters
    coerced into their common field, after the side conditions pass."""
    if label not in CASES:
        raise ClassificationError(f"unknown case label {label!r}")
    case = CASES[label]
    field = _params_field(params)
    params = {k: field.coerce(v) if field is not QQ else v
              for k, v in params.items()}
    _check_sides(case, params, field)
    return case, params, field


def canonical_case_basis(label, params):
    """The matched type degrees and canonical basis for the parameters.

    Returns (type_tuple, [Poly]); raises ParameterDegeneracy when a side
    condition fails and ClassificationError when no branch matches.
    """
    case, params, field = _checked_case(label, params)
    params = _normalize_params(case, params, field)
    conds = _build_conditions(case, params, field)
    table = _JetTable([L.terms for L in conds], field)
    # every jet row once, at the top basis degree of the family
    table.rows(max(max(entry["type"]) for entry in case["types"]))
    env = _eval_helpers(case, params, field, table)
    entry = _match_type_entry(case, env, field)
    basis = [parse_expr(tpl, env=env, field=field).monic()
             for tpl in entry["basis"]]
    degrees = tuple(sorted(p.degree for p in basis))
    if degrees != tuple(entry["type"]):
        raise ClassificationError(
            f"canonical basis degrees {degrees} do not match the claimed "
            f"type {tuple(entry['type'])} for {label}")
    for p in basis:
        if any(not is_zero_scalar(table.apply(k, p))
               for k in range(len(conds))):
            raise ClassificationError(
                f"canonical basis element of {label} violates a "
                "defining condition")
    return tuple(entry["type"]), basis


def construct_case(label, params):
    """Build the subalgebra of a case table entry from its parameters."""
    case, params, field = _checked_case(label, params)
    conds = _build_conditions(case, params, field)
    A = kernel_subalgebra(conds)
    if A.codimension() != case["codim"]:
        raise ParameterDegeneracy(
            f"parameters collapse {label} to codimension "
            f"{A.codimension()} instead of {case['codim']}")
    return A


def type_of(A):
    """Minimal generator degrees of the degree semigroup of A."""
    return tuple(Subalgebra.of(A).semigroup().generators)


# --- invariants of a given subalgebra -----------------------------------

def _single_ann(ann, terms, label):
    """The one annihilating coefficient vector on `terms`, scaled to 1 at
    its first nonzero entry."""
    vecs = ann(terms)
    if len(vecs) != 1:
        raise ClassificationError(
            f"expected one condition of shape {terms} for {label}, "
            f"found {len(vecs)}")
    vec = vecs[0]
    lead = next(v for v in vec if not is_zero_scalar(v))
    return [v / lead for v in vec]


def _pure_vanishes(ann, order, point):
    """Does f ↦ f^(order)(point) vanish on all of A?"""
    return bool(ann([(order, point)]))


def _exact_clusters(A, nf):
    """The point values of each cluster of the spectrum over nf, largest
    clusters first; SpectrumNotExact if a point is not in nf."""
    clusters = []
    for cluster in A.clusters(nf):
        if not all(pt.exact for pt in cluster.members):
            raise SpectrumNotExact(
                "classification requires an exact spectrum")
        clusters.append([pt.value for pt in cluster.members])
    return clusters


# --- the classifier ------------------------------------------------------

def classify(A, nf=None):
    """Match A against the classification tables for codimension <= 3.

    Recovers the family label, the parameters (modulo the documented
    symmetries), and the canonical basis of the matched type branch, from
    the spectrum over nf (default: the field of A).  Every point must lie
    in that field, else SpectrumNotExact.  Annihilators are read off A's
    jet image (`_jet_image`), built on the first one asked for.
    """
    A = Subalgebra.of(A)
    basis = A.sagbi_basis()
    n = basis.semigroup.genus
    if n == 0:
        return ClassificationResult(
            label="codim0", codimension=0, spectrum_size=0, type=(1,),
            parameters={}, canonical_basis=[Poly.x(basis.field)],
            symmetries="none")
    if n > 3:
        raise UnsupportedCodimension(
            f"classification covers codimension <= 3, got {n}")
    clusters = _exact_clusters(A, nf)
    points = [v for values in clusters for v in values]
    field = basis.field
    for v in points:
        field = common_field(field, field_of(v))
    s = len(points)
    profile = tuple(len(values) for values in clusters)
    basis = basis.coerce_to(field)
    image = None            # the jet image of A, built by the first ann()

    def ann(coords):
        nonlocal image
        if image is None:
            image = _jet_image(basis, points, field, A._conditions)
        return _annihilator(image, coords, field)

    label, params = _dispatch(ann, n, s, profile, clusters)
    type_degrees, canonical = canonical_case_basis(label, params)
    if type_degrees != type_of(basis):
        raise ClassificationError(
            f"matched branch type {type_degrees} disagrees with the "
            f"semigroup type {type_of(basis)}")
    for p in canonical:
        rem, _ = subduce(p, basis)
        if rem.degree >= 1:
            raise ClassificationError(
                "canonical basis element is not a member of the algebra")
    return ClassificationResult(
        label=label, codimension=n, spectrum_size=s,
        type=type_degrees, parameters=params, canonical_basis=canonical,
        symmetries=CASES[label].get("symmetries", ""))


def _dispatch(ann, n, s, profile, clusters):
    if n == 1:
        return _dispatch_codim1(s, clusters)
    if n == 2:
        return _dispatch_codim2(ann, s, profile, clusters)
    return _dispatch_codim3(ann, s, profile, clusters)


def _dispatch_codim1(s, clusters):
    if s == 1:
        return "codim1/deriv", {"gamma": clusters[0][0]}
    values = clusters[0]
    return "codim1/pair", {"alpha": values[0], "beta": values[1]}


def _dispatch_codim2(ann, s, profile, clusters):
    if s == 1:
        alpha = clusters[0][0]
        a, b = _single_ann(ann, [(2, alpha), (3, alpha)], "codim2/s=1")
        return "codim2/s=1", {"alpha": alpha, "a": a, "b": b}
    if s == 2 and profile == (1, 1):
        return "codim2/s=2-deriv", {"alpha": clusters[0][0],
                                    "beta": clusters[1][0]}
    if s == 2:
        alpha, beta = clusters[0]
        a, b = _single_ann(ann, [(1, alpha), (1, beta)],
                           "codim2/s=2-pair")
        return "codim2/s=2-pair", {"alpha": alpha, "beta": beta,
                                   "a": a, "b": b}
    if s == 3 and profile == (2, 1):
        alpha, beta = clusters[0]
        return "codim2/s=3", {"alpha": alpha, "beta": beta,
                              "gamma": clusters[1][0]}
    if s == 3:
        a, b, g = clusters[0]
        return "codim2/s=3-cluster", {"alpha": a, "beta": b, "gamma": g}
    if s == 4 and profile == (2, 2):
        return "codim2/s=4", {"alpha": clusters[0][0],
                              "beta": clusters[0][1],
                              "gamma": clusters[1][0],
                              "delta": clusters[1][1]}
    raise ClassificationError(
        f"unrecognized codimension-2 cluster profile {profile}")


def _dispatch_codim3(ann, s, profile, clusters):
    if s == 1:
        return _codim3_s1(ann, clusters[0][0])
    if s == 2:
        return _codim3_s2(ann, profile, clusters)
    if s == 3:
        return _codim3_s3(ann, profile, clusters)
    if s == 4:
        return _codim3_s4(ann, profile, clusters)
    if s == 5:
        return _codim3_s5(ann, profile, clusters)
    if s == 6 and profile == (2, 2, 2):
        pairs = [tuple(values) for values in clusters]
        params = {"alpha": pairs[0][0], "beta": pairs[0][1],
                  "gamma": pairs[1][0], "delta": pairs[1][1],
                  "lam": pairs[2][0], "mu": pairs[2][1]}
        return "codim3/s=6", params
    raise ClassificationError(
        f"unrecognized codimension-3 cluster profile {profile}")


def _codim3_s1(ann, alpha):
    pure = {i for i in range(1, 6) if _pure_vanishes(ann, i, alpha)}
    if 1 not in pure:
        raise ClassificationError(
            "codimension-3 point spectrum without f'(alpha) = 0")
    if 2 in pure:
        a, b, c = _single_ann(ann, [(3, alpha), (4, alpha), (5, alpha)],
                              "codim3/s=1/case1")
        return "codim3/s=1/case1", {"alpha": alpha, "a": a, "b": b, "c": c}
    if 3 in pure:
        c, d = _single_ann(ann, [(5, alpha), (2, alpha)],
                           "codim3/s=1/case3")
        return "codim3/s=1/case3", {"alpha": alpha, "c": c, "d": d}
    u, v = _single_ann(ann, [(3, alpha), (2, alpha)],
                       "codim3/s=1/case2")
    if is_zero_scalar(u):
        raise ClassificationError(
            "second-order condition without third-order term")
    a = v / (u + u + u)
    p, q, r = _single_ann(ann, [(5, alpha), (4, alpha), (2, alpha)],
                          "codim3/s=1/case2")
    if is_zero_scalar(p):
        raise ClassificationError(
            "fourth-order condition without fifth-order term")
    return "codim3/s=1/case2", {"alpha": alpha, "a": a, "d": r / p}


def _codim3_s2(ann, profile, clusters):
    if profile == (1, 1):
        points = [clusters[0][0], clusters[1][0]]
        for i, pt in enumerate(points):
            vecs = ann([(2, pt), (3, pt)])
            if vecs:
                a, b = vecs[0]
                other = points[1 - i]
                return "codim3/s=2/case1", {"alpha": pt, "beta": other,
                                            "a": a, "b": b}
        raise ClassificationError(
            "two critical points without a higher-order condition")
    p0, p1 = clusters[0]
    for alpha, beta in ((p0, p1), (p1, p0)):
        if _pure_vanishes(ann, 1, alpha):
            a, b, c = _single_ann(
                ann, [(2, alpha), (3, alpha), (1, beta)],
                "codim3/s=2/case2")
            return "codim3/s=2/case2", {"alpha": alpha, "beta": beta,
                                        "a": a, "b": b, "c": c}
    u, v = _single_ann(ann, [(1, p0), (1, p1)], "codim3/s=2")
    b = v / u if not is_zero_scalar(u) else None
    if b is not None and u == v:
        a, b2, _ = _single_ann(
            ann, [(1, p0), (2, p0), (2, p1)], "codim3/s=2/case3")
        return "codim3/s=2/case3", {"alpha": p0, "beta": p1,
                                    "a": a, "b": b2}
    if b is None:
        raise ClassificationError(
            "paired points with a one-sided first-order condition but no "
            "pure vanishing")
    a, c, _ = _single_ann(
        ann, [(1, p1), (2, p0), (2, p1)], "codim3/s=2/case4")
    return "codim3/s=2/case4", {"alpha": p0, "beta": p1,
                                "a": a, "b": b, "c": c}


def _codim3_s3(ann, profile, clusters):
    if profile == (1, 1, 1):
        pts = [values[0] for values in clusters]
        return "codim3/s=3/case1", {"alpha": pts[0], "beta": pts[1],
                                    "gamma": pts[2]}
    if profile == (2, 1):
        alpha, beta = clusters[0]
        gamma = clusters[1][0]
        vecs = ann([(2, gamma), (3, gamma)])
        if vecs:
            a, b = vecs[0]
            return "codim3/s=3/case4", {"alpha": alpha, "beta": beta,
                                        "gamma": gamma, "a": a, "b": b}
        a, b = _single_ann(ann, [(1, alpha), (1, beta)],
                           "codim3/s=3/case2")
        return "codim3/s=3/case2", {"alpha": alpha, "beta": beta,
                                    "gamma": gamma, "a": a, "b": b}
    a, b, g = clusters[0]
    ca, cb, cc = _single_ann(ann, [(1, a), (1, b), (1, g)],
                             "codim3/s=3/case3")
    return "codim3/s=3/case3", {"alpha": a, "beta": b, "gamma": g,
                                "a": ca, "b": cb, "c": cc}


def _codim3_s4(ann, profile, clusters):
    if profile == (4,):
        vals = clusters[0]
        return "codim3/s=4/case1", {"alpha": vals[0], "beta": vals[1],
                                    "gamma": vals[2], "delta": vals[3]}
    if profile == (2, 2):
        pairs = [tuple(values) for values in clusters]
        for i in (0, 1):
            vecs = ann([(1, pairs[i][0]), (1, pairs[i][1])])
            if vecs:
                a, b = vecs[0]
                return "codim3/s=4/case2", {
                    "alpha": pairs[i][0], "beta": pairs[i][1],
                    "gamma": pairs[1 - i][0], "delta": pairs[1 - i][1],
                    "a": a, "b": b}
        raise ClassificationError(
            "two pair clusters without a first-order condition")
    if profile == (2, 1, 1):
        alpha, beta = clusters[0]
        return "codim3/s=4/case3", {"alpha": alpha, "beta": beta,
                                    "gamma": clusters[1][0],
                                    "delta": clusters[2][0]}
    if profile == (3, 1):
        a, b, g = clusters[0]
        return "codim3/s=4/case4", {"alpha": a, "beta": b, "gamma": g,
                                    "delta": clusters[1][0]}
    raise ClassificationError(
        f"unrecognized spectrum-4 cluster profile {profile}")


def _codim3_s5(ann, profile, clusters):
    if profile == (3, 2):
        a, b, l = clusters[0]
        g, d = clusters[1]
        return "codim3/s=5/case1", {"alpha": a, "beta": b, "gamma": g,
                                    "delta": d, "lam": l}
    if profile == (2, 2, 1):
        (a, b), (g, d) = [tuple(values) for values in clusters[:2]]
        lam = clusters[2][0]
        return "codim3/s=5/case2", {"alpha": a, "beta": b, "gamma": g,
                                    "delta": d, "lam": lam}
    raise ClassificationError(
        f"unrecognized spectrum-5 cluster profile {profile}")
