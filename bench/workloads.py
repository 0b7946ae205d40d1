"""Seeded inputs, items and correctness checks of the benchmark workloads.

A workload is an endless stream of independent items.  ``stream(seed)(k)``
returns the k-th input and depends only on (seed, k); ``run(input)`` is the
timed call into the library's public API; ``check(input, output)`` runs
outside the timed region and raises WrongAnswer on a wrong result.

Input properties the generators vary, and the constants that fix them:

- height of the affine maps x -> (x - mu) / lam applied to every
  IMAGE_EVERY-th rational case draw: lam = +-p/q with 1 <= p, q <= LAM_HEIGHT, mu = p/q with |p| <= MU_HEIGHT
  and 1 <= q <= MU_HEIGHT.  Draws of families whose conditions mix
  derivative orders only get translations (lam = 1): their images then keep
  family and type with unchanged coefficient parameters, so no image
  degenerates and the expected type still holds.
- number-field share: every NF_EVERY-th roundtrip/derivations item is a
  number-field draw.  In roundtrip it is alternately the translation
  x -> x - NF_SHIFT (fixed, because these images cost 6-10 s each and
  their cost would dominate the spread between seeds) and the base draw;
  derivations only takes the base draw (see README.md).
- degree cap of the charpoly pairs: coprime (m, n) with n <= DEGREE_CAP,
  coefficients in [-COEFF_BOUND, COEFF_BOUND].
- mix of charpoly item kinds: the fixed cycle KIND_CYCLE.

The order of families, degree pairs and triples is fixed, so a run covers
the same composition whatever the seed; the seed moves lam, mu and the
coefficients.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from subalg import (NumberField, Poly, Subalgebra, aberth_roots,
                    canonical_case_basis, char_poly_multi, char_poly_pair,
                    classify, conjecture_dim_check, construct_case,
                    membership, oracle_multi_char_roots, resultant_relation,
                    squarefree_decompose, type_of)

LAM_HEIGHT = 2
MU_HEIGHT = 2
NF_EVERY = 16
IMAGE_EVERY = 3
NF_SHIFT = Fraction(-1)
DEGREE_CAP = 9
COEFF_BOUND = 3
KIND_CYCLE = ("pair", "multi", "pair", "relation")

POINT_NAMES = ("alpha", "beta", "gamma", "delta", "lam", "mu")
DRAWS_FILE = Path(__file__).with_name("draws.json")


class WrongAnswer(Exception):
    """The library returned a result that fails a correctness check."""


# ---------------------------------------------------------------------------
# case draws: roundtrip and derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Draw:
    label: str
    params: dict
    expected: tuple | None
    scale: bool
    number_field: bool


def _scalar(data, fields):
    if isinstance(data, str):
        return Fraction(data)
    key = tuple(data["modulus"])
    if key not in fields:
        fields[key] = NumberField([Fraction(c) for c in key])
    return fields[key].from_coeffs([Fraction(c) for c in data["coeffs"]])


def load_draws():
    """The frozen base draws of every family and type branch."""
    fields = {}
    out = []
    for label, params, expected, scale in json.loads(DRAWS_FILE.read_text()):
        values = {k: _scalar(v, fields) for k, v in params.items()}
        out.append(Draw(label, values, tuple(expected) if expected else None,
                        scale, any(hasattr(v, "field")
                                   for v in values.values())))
    return out


def _spread(groups):
    """Interleave groups so that every prefix mixes all of them evenly."""
    keyed = [((j + 0.5) / len(g), gi, item)
             for gi, g in enumerate(groups) for j, item in enumerate(g)]
    return [item for _, _, item in sorted(keyed, key=lambda t: t[:2])]


def _ratio(rng, num_height, den_height, signed):
    num = rng.randint(-num_height, num_height) if signed \
        else rng.randint(1, num_height)
    return Fraction(num, rng.randint(1, den_height))


def affine_image(draw, lam, mu):
    """The draw moved by x -> (x - mu) / lam; coefficients unchanged."""
    moved = {}
    for name, value in draw.params.items():
        if name in POINT_NAMES:
            if hasattr(value, "field"):
                f = value.field
                value = (value - f.coerce(mu)) / f.coerce(lam)
            else:
                value = (value - mu) / lam
        moved[name] = value
    return Draw(draw.label, moved, draw.expected, draw.scale,
                draw.number_field)


class DrawStream:
    """Item k of the roundtrip and derivations streams.

    Rational draws are walked family by family in a fixed interleaved
    order of codimensions; every IMAGE_EVERY-th visit of a family is a
    seeded affine image.  Every NF_EVERY-th item is the number-field draw.
    """

    def __init__(self, seed, nf_images):
        self.seed = seed
        self.nf_images = nf_images
        draws = load_draws()
        by_family = {}
        for d in draws:
            if not d.number_field:
                by_family.setdefault(d.label, []).append(d)
        by_codim = {}
        for label in by_family:
            by_codim.setdefault(label.split("/")[0], []).append(label)
        self.families = _spread([by_codim[c] for c in sorted(by_codim)])
        self.by_family = by_family
        self.nf_draws = [d for d in draws if d.number_field]

    def __call__(self, k):
        if k % NF_EVERY == NF_EVERY // 2:
            j = k // NF_EVERY
            draw = self.nf_draws[(j // 2) % len(self.nf_draws)]
            if self.nf_images and j % 2 == 0:
                return affine_image(draw, Fraction(1), NF_SHIFT)
            return draw
        # rational items before k: k minus the number-field positions below k
        i = k - (k + NF_EVERY - NF_EVERY // 2 - 1) // NF_EVERY
        rnd, pos = divmod(i, len(self.families))
        family = self.by_family[self.families[pos]]
        draw = family[rnd % len(family)]
        if (rnd + pos) % IMAGE_EVERY != IMAGE_EVERY - 1:
            return draw
        rng = random.Random(self.seed * 1_000_003 + k)
        lam = Fraction(1)
        if draw.scale:
            lam = _ratio(rng, LAM_HEIGHT, LAM_HEIGHT, signed=False)
            lam *= rng.choice((1, -1))
        mu = Fraction(0)
        while mu == 0:
            mu = _ratio(rng, MU_HEIGHT, MU_HEIGHT, signed=True)
        return affine_image(draw, lam, mu)


def _codim(label):
    return int(label.split("/")[0][len("codim"):])


def run_roundtrip(draw):
    A = construct_case(draw.label, draw.params)
    result = classify(A)
    B = construct_case(result.label, result.parameters)
    return {"algebra": A, "result": result, "equal": B == A}


def check_roundtrip(draw, out):
    result = out["result"]
    if not out["equal"]:
        raise WrongAnswer(f"{draw.label}: rebuilt algebra differs")
    if result.label != draw.label:
        raise WrongAnswer(f"{draw.label}: classified as {result.label}")
    if draw.expected is not None and \
            not result.type == draw.expected == type_of(out["algebra"]):
        raise WrongAnswer(f"{draw.label}: type {result.type}, expected "
                          f"{draw.expected}")


def run_derivations(draw):
    _, basis = canonical_case_basis(draw.label, draw.params)
    A = Subalgebra.from_generators(basis)
    alpha = draw.params.get("alpha", draw.params.get("gamma"))
    return {"algebra": A, "report": conjecture_dim_check(A, alpha)}


def check_derivations(draw, out):
    report = out["report"]
    if not report["equal"]:
        raise WrongAnswer(f"{draw.label}: k_alpha {report['k_alpha']} != "
                          f"derivation dimension {report['dim_combo']}")
    if report["codimension"] != _codim(draw.label):
        raise WrongAnswer(f"{draw.label}: codimension "
                          f"{report['codimension']}")


# ---------------------------------------------------------------------------
# charpoly: pairs, multi-generator triples, resultant relations
# ---------------------------------------------------------------------------

PAIR_DEGREES = _spread([
    [(m, n) for m in range(2, DEGREE_CAP) for n in range(m + 1, DEGREE_CAP + 1)
     if math.gcd(m, n) == 1 and m * n <= 20],
    [(m, n) for m in range(2, DEGREE_CAP) for n in range(m + 1, DEGREE_CAP + 1)
     if math.gcd(m, n) == 1 and m * n > 20],
])
# (k, a, b): generators x^(2k) + c x^k, x^a, x^b
MULTI_TRIPLES = ((2, 5, 7), (3, 5, 7), (2, 7, 9), (3, 7, 5), (2, 10, 15),
                 (3, 7, 9), (2, 9, 7), (3, 10, 15))
RELATION_DEGREES = ((2, 3), (3, 4), (2, 5), (4, 5), (3, 5), (5, 6))


@dataclass(frozen=True)
class CharpolyInput:
    kind: str
    polys: tuple          # ascending integer coefficient lists
    probes: tuple = ()    # member sums: ((c, i, j), ...) meaning c p^i q^j


def _random_monic(rng, degree):
    return tuple(rng.randint(-COEFF_BOUND, COEFF_BOUND)
                 for _ in range(degree)) + (1,)


class CharpolyStream:
    """Item k of the charpoly stream; its kind is KIND_CYCLE[k % 4]."""

    def __init__(self, seed):
        self.seed = seed

    def __call__(self, k):
        rng = random.Random(self.seed * 1_000_003 + k)
        cycles, pos = divmod(k, len(KIND_CYCLE))
        kind = KIND_CYCLE[pos]
        # items of this kind before item k
        nth = cycles * KIND_CYCLE.count(kind) + KIND_CYCLE[:pos].count(kind)
        if kind == "pair":
            m, n = PAIR_DEGREES[nth % len(PAIR_DEGREES)]
            probes = tuple(
                tuple((rng.choice((-2, -1, 1, 2)), rng.randint(0, 2),
                       rng.randint(0, 2)) for _ in range(rng.randint(1, 3)))
                for _ in range(2))
            return CharpolyInput(kind, (_random_monic(rng, m),
                                        _random_monic(rng, n)), probes)
        if kind == "multi":
            h, a, b = MULTI_TRIPLES[nth % len(MULTI_TRIPLES)]
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            first = [0] * (2 * h + 1)
            first[h], first[2 * h] = c, 1
            return CharpolyInput(kind, (tuple(first), (0,) * a + (1,),
                                        (0,) * b + (1,)))
        m, n = RELATION_DEGREES[nth % len(RELATION_DEGREES)]
        return CharpolyInput(kind, (_random_monic(rng, m),
                                    _random_monic(rng, n)))


def _poly(coeffs):
    return Poly([Fraction(c) for c in coeffs])


def _member(terms, p, q):
    f = Poly.zero()
    for c, i, j in terms:
        f = f + (p ** i) * (q ** j) * c
    return f


def run_charpoly(item):
    polys = [_poly(c) for c in item.polys]
    if item.kind == "multi":
        return {"chi": char_poly_multi(polys)}
    p, q = polys
    if item.kind == "relation":
        return {"relation": resultant_relation(p, q)}
    A = Subalgebra.from_generators([p, q])
    codim = A.codimension()
    chi = char_poly_pair(p, q)
    spectrum = A.spectrum()
    gap = p.degree * q.degree - p.degree - q.degree
    members = [_member(terms, p, q) for terms in item.probes]
    probes = [membership(f, A)[0] for f in members]
    probes.append(membership(members[0] + Poly.monomial(gap), A)[0])
    return {"algebra": A, "codim": codim, "chi": chi, "spectrum": spectrum,
            "probes": probes}


def _scaled_residual(poly, z):
    value = 0j
    scale = 0.0
    for c in reversed(poly.coeffs):
        value = value * z + float(c)
    for i, c in enumerate(poly.coeffs):
        scale += abs(float(c)) * abs(z) ** i
    return abs(value) / scale


def _numeric_roots(chi):
    roots = [0j] if chi.coeff(0) == 0 else []
    x = Poly.x()
    for factor, _ in squarefree_decompose(chi):
        while factor.degree > 0 and factor.coeff(0) == 0:
            factor = factor.exact_div(x)
        if factor.degree >= 1:
            found, _ = aberth_roots(factor)
            for z in found:
                if _scaled_residual(factor, z) > 1e-9:
                    raise WrongAnswer(f"Aberth root {z} has scaled residual "
                                      f"{_scaled_residual(factor, z):.3g}")
            roots.extend(found)
    return roots


def check_charpoly(item, out):
    polys = [_poly(c) for c in item.polys]
    if item.kind == "multi":
        # criterion 2: the roots of chi are the oracle's joint roots
        chi_roots = _numeric_roots(out["chi"])
        oracle = oracle_multi_char_roots(polys)
        for a, b in ((chi_roots, oracle), (oracle, chi_roots)):
            for z in a:
                if not any(abs(z - w) <= 1e-8 for w in b):
                    raise WrongAnswer(f"multi chi root {z} unmatched")
        return
    p, q = polys
    m, n = p.degree, q.degree
    if item.kind == "relation":
        # criterion 3: dF/dP(p, q), dF/dQ(p, q) = +-(chi q', -chi p')
        F = out["relation"]
        chi = char_poly_pair(p, q)
        dP = F.partial(0).substitute([p, q])
        dQ = F.partial(1).substitute([p, q])
        plus = (chi * q.derivative(), -(chi * p.derivative()))
        if (dP, dQ) not in (plus, (-plus[0], -plus[1])):
            raise WrongAnswer(f"partial-derivative identity fails for "
                              f"{item.polys}")
        if F.substitute([p, q]):
            raise WrongAnswer(f"F(p, q) != 0 for {item.polys}")
        return
    if out["codim"] != (m - 1) * (n - 1) // 2:
        raise WrongAnswer(f"codimension {out['codim']} of degrees {m}, {n}")
    if out["probes"] != [True, True, False]:
        raise WrongAnswer(f"membership probes {out['probes']}")
    chi = out["chi"]
    if len(out["spectrum"]) > 2 * out["codim"]:
        raise WrongAnswer(f"{len(out['spectrum'])} spectrum points")
    for pt in out["spectrum"]:
        if pt.exact:
            if chi(pt.value) != 0:
                raise WrongAnswer(f"exact point {pt.value} is not a root")
        elif _scaled_residual(chi, complex(pt.value)) > 1e-6:
            raise WrongAnswer(f"numeric point {pt.value} is not a root")


@dataclass(frozen=True)
class Workload:
    """A stream of items, how to run and check one, and run sizes.

    A run measures the first ceil(seconds * rate) items: rate is the
    workload's item rate when the benchmark was written, so a run then
    lasted about `seconds`, and every later commit runs the same items.
    """

    stream: object            # seed -> (k -> input)
    run: object
    check: object
    warmup: object            # a small fixed input, run and checked in set-up
    rate: float               # items per second when written
    trace_items: int          # items of a --trace 1 run


WARM_DRAW = Draw("codim1/pair", {"alpha": Fraction(1), "beta": Fraction(-1)},
                 (2, 3), True, False)
WARM_PAIR = CharpolyInput("pair", ((0, -1, 0, 1), (0, 0, 1)),
                          (((1, 1, 0),), ((1, 0, 1),)))

WORKLOADS = {
    "roundtrip": Workload(lambda seed: DrawStream(seed, nf_images=True),
                          run_roundtrip, check_roundtrip, WARM_DRAW,
                          rate=1.3, trace_items=12),
    "derivations": Workload(lambda seed: DrawStream(seed, nf_images=False),
                            run_derivations, check_derivations, WARM_DRAW,
                            rate=1.8, trace_items=12),
    "charpoly": Workload(CharpolyStream, run_charpoly, check_charpoly,
                         WARM_PAIR, rate=5.0, trace_items=32),
}
