"""Root extraction: rational roots, number-field candidate roots, and
numeric complex roots by simultaneous (Aberth–Ehrlich) iteration.

`split_roots` is the one exact cascade (rational roots, then field
candidates); its callers differ only in what they do with the unsplit rest.

Square-free decomposition lives in :mod:`subalg.poly`; it is re-exported
here because root finding is its main consumer.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd as int_gcd

from .errors import NonConvergence, SubalgError, ZeroInput
from .fields import QQ, is_zero_scalar
from .modular import is_prime
from .poly import Poly, squarefree_decompose

RESIDUAL_TOL = 1e-12
MAX_ITERATIONS = 200


@dataclass
class RootSet:
    """Roots of a polynomial, exact where possible."""

    source: Poly
    exact_roots: list = dc_field(default_factory=list)     # (value, mult)
    numeric_roots: list = dc_field(default_factory=list)   # (complex, mult, residual)


# ---------------------------------------------------------------------------
# Rational roots
# ---------------------------------------------------------------------------


def _factorize(n):
    """Prime factorization of n > 0 (trial division + Pollard rho)."""
    factors = {}

    def add(p):
        factors[p] = factors.get(p, 0) + 1

    d = 2
    while d * d <= n and d < 100000:
        while n % d == 0:
            add(d)
            n //= d
        d += 1 if d == 2 else 2
    if n == 1:
        return factors

    def rho(m):
        if m % 2 == 0:
            return 2
        c = 1
        while True:
            x = y = 2
            d = 1
            while d == 1:
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                d = int_gcd(abs(x - y), m)
            if d != m:
                return d
            c += 1

    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            add(m)
            continue
        d = rho(m)
        stack.extend([d, m // d])
    return factors


def _divisors(n):
    if n == 0:
        return []
    out = [1]
    for p, e in _factorize(abs(n)).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return out


def rational_roots(p):
    """All rational roots of p with multiplicities (exact)."""
    if p.field is not QQ:
        p = p.to_rational()
        if p is None:
            raise SubalgError("rational_roots: polynomial not over Q")
    if p.is_zero():
        raise ZeroInput("rational_roots of the zero polynomial")
    out = []
    for factor, mult in squarefree_decompose(p):
        # integer-primitive form
        denom = 1
        for c in factor.coeffs:
            denom = denom * c.denominator // int_gcd(denom, c.denominator)
        ints = [int(c * denom) for c in factor.coeffs]
        low = next(i for i, c in enumerate(ints) if c)
        if low > 0:
            out.append((Fraction(0), mult))
            ints = ints[low:]
        if len(ints) <= 1:
            continue
        a0, an = ints[0], ints[-1]
        for num in _divisors(a0):
            for den in _divisors(an):
                if int_gcd(num, den) != 1:
                    continue
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if not _eval_int(ints, cand):
                        out.append((cand, mult))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def _eval_int(ints, r):
    acc = Fraction(0)
    for c in reversed(ints):
        acc = acc * r + c
    return acc


# ---------------------------------------------------------------------------
# Numeric roots (Aberth–Ehrlich)
# ---------------------------------------------------------------------------


def aberth_roots(p, tol=RESIDUAL_TOL, max_iter=MAX_ITERATIONS):
    """All complex roots of a square-free polynomial, double precision.

    Returns (roots, residual_bound).  Residuals are backward-error scaled:
    |p(z)| <= tol * sum |c_i| |z|^i.
    """
    coeffs = [complex(_to_float(c)) for c in p.coeffs]
    lead = coeffs[-1]
    coeffs = [c / lead for c in coeffs]
    n = len(coeffs) - 1
    if n == 0:
        return [], 0.0
    if n == 1:
        return [-coeffs[0]], 0.0
    radius = 1.0 + max(abs(c) for c in coeffs[:-1])
    roots = [radius * cmath.exp(2j * cmath.pi * (k / n) + 0.4j)
             for k in range(n)]
    deriv = [i * c for i, c in enumerate(coeffs)][1:]

    def horner(cs, z):
        acc = 0j
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    def scale_at(z):
        az, acc, power = abs(z), 0.0, 1.0
        for c in coeffs:
            acc += abs(c) * power
            power *= az
        return acc

    for _ in range(max_iter):
        converged = True
        for k in range(n):
            z = roots[k]
            pz = horner(coeffs, z)
            if abs(pz) <= tol * scale_at(z):
                continue
            converged = False
            dz = horner(deriv, z)
            if dz == 0:
                roots[k] = z + 1e-6 * (1 + abs(z))
                continue
            w = pz / dz
            s = sum(1.0 / (z - roots[j]) for j in range(n) if j != k)
            denom = 1.0 - w * s
            if denom == 0:
                roots[k] = z + 1e-6 * (1 + abs(z))
                continue
            roots[k] = z - w / denom
        if converged:
            break
    else:
        raise NonConvergence(
            f"Aberth iteration did not converge in {max_iter} steps")
    residual = max(abs(horner(coeffs, z)) for z in roots)
    return roots, residual


def _to_float(c):
    from .fields import FieldElem
    if isinstance(c, FieldElem):
        r = c.to_rational()
        if r is None:
            raise SubalgError("numeric mode on non-rational coefficients")
        return float(r)
    return float(c)


# ---------------------------------------------------------------------------
# Field-mode roots
# ---------------------------------------------------------------------------


def field_roots(p, nf, candidates):
    """Roots of p over the number field nf: those among the candidates,
    and the root of any linear factor they leave.

    Returns (roots_with_mult, unsplit_remainder_factors).
    """
    p = p.coerce_to(nf)
    found = []
    leftovers = []
    for factor, mult in squarefree_decompose(p):
        f = factor.coerce_to(nf)
        seen = set()
        for cand in candidates:
            c = nf.coerce(cand)
            if c in seen:
                continue
            seen.add(c)
            if f.degree < 1:
                break
            if is_zero_scalar(f(c)):
                found.append((c, mult))
                f = f.exact_div(Poly((-c, nf.one), nf))
        if f.degree == 1:
            found.append((-f.coeff(0) / f.leading_coeff(), mult))
        elif f.degree > 1:
            leftovers.append((f, mult))
    return found, leftovers


def _default_candidates(nf):
    """Trial roots in nf: ±t^k for k < 6·[nf:Q] + 13, then 0, ±2."""
    out = []
    t = nf.gen()
    power = nf.one
    for _ in range(6 * nf.degree + 13):
        for c in (power, -power):
            if c not in out:
                out.append(c)
        power = power * t
    for r in (0, 1, -1, 2, -2):
        c = nf.coerce(r)
        if c not in out:
            out.append(c)
    return out


# ---------------------------------------------------------------------------
# The root cascade
# ---------------------------------------------------------------------------


def split_roots(p, nf=None):
    """Exact roots of p, and the part of p they leave unsplit.

    Each square-free factor of p gives up its rational roots, then, over
    the number field nf, its roots among the default candidates
    (`field_roots`).  Returns (roots, leftover): roots lists (value,
    multiplicity) with values in nf when nf is given; leftover lists
    (rest, multiplicity) for each factor whose rest is nonconstant.
    """
    candidates = _default_candidates(nf) if nf is not None else None
    roots, leftover = [], []
    for factor, mult in squarefree_decompose(p):
        rest = factor
        rat = rest.to_rational()
        if rat is not None:
            for v, _ in rational_roots(rat):
                roots.append((v if nf is None else nf.coerce(v), mult))
                rest = rest.exact_div(
                    Poly((-v, 1), QQ).coerce_to(rest.field))
        if nf is not None and rest.degree >= 1:
            found, unsplit = field_roots(rest, nf, candidates)
            roots.extend((v, mult) for v, _ in found)
            rest = Poly.constant(nf.one, nf)
            for f, _ in unsplit:
                rest = rest * f
        if rest.degree >= 1:
            leftover.append((rest, mult))
    return roots, leftover


def hybrid_roots(p, nf=None, tol=RESIDUAL_TOL):
    """Exact roots where possible (`split_roots`), numeric for the rest.

    Returns a RootSet whose exact and numeric parts together account for
    every root of p (multiplicity-correct).
    """
    if p.degree < 1:
        raise ZeroInput("hybrid_roots needs a nonconstant polynomial")
    exact, leftover = split_roots(p, nf)
    rs = RootSet(source=p, exact_roots=exact)
    for rest, mult in leftover:
        roots, residual = aberth_roots(rest, tol=tol)
        rs.numeric_roots.extend((z, mult, residual) for z in roots)
    return rs
