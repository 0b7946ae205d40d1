"""Root extraction: exact roots over Q or a number field by p-adic lifting,
numeric complex roots by simultaneous (Aberth–Ehrlich) iteration, and
their Newton refinement on the exact polynomial.

`field_roots` is the one exact search: every square-free factor gives up
all its roots in the field (`_lifted_roots`, the same code for Q, which is
Q[t]/(t), and for every Q[t]/(m)).  `split_roots` runs it over the field
of the polynomial or a supplied one; its callers differ only in what they
do with the unsplit rest.

Square-free decomposition lives in :mod:`subalg.poly`; it is re-exported
here because root finding is its main consumer.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import count, product
from math import ceil, exp, log, pi

from .errors import NonConvergence, SubalgError
from .fields import QQ, is_zero_scalar
from .modular import (_discriminant, _horner, coordinate_bound, coordinates,
                      evaluate_at, is_prime, lagrange_basis, root_radius,
                      split_primes)
from .poly import Poly, _as_float, squarefree_decompose

RESIDUAL_TOL = 1e-12
MAX_ITERATIONS = 200


# ---------------------------------------------------------------------------
# Exact roots by p-adic lifting
# ---------------------------------------------------------------------------


def _lifted_roots(f, field):
    """Every root in `field` (QQ or a NumberField Q[t]/(m)) of a
    square-free f over it: rational roots first, by value, then the
    others in `_order_key` order.

    Let e = deg m (over Q, m = t) and t̃ = μ·t with μ the least common
    denominator of m, so that m̃(s) = μ^e·m(s/μ) is monic and integral.
    Make f monic and let δ be the common denominator of the
    t̃-coordinates of its coefficients.

    Denominator.  δ·α is a root of the monic polynomial δ^n·f(x/δ), whose
    coefficients δ^k·f_(n−k) are integral, so δ·α is an algebraic
    integer, and the algebraic integers of Q(θ̃) lie in
    (1/disc m̃)·Z[θ̃].  Hence Δ = δ·|disc m̃| makes Δ·α = Σ A_u·t̃^u with
    integers A_u.

    Height.  Let θ̃_1, …, θ̃_e be the complex roots of m̃; by Cauchy's
    bound |θ̃_i| ≤ R = `root_radius(m̃)`.  The conjugate σ_i(α) is a
    root of f_i = f with t̃ ↦ θ̃_i, so |σ_i(α)| ≤ B = 1 + max_(j<n)
    Σ_u |f_(j,u)|·R^u (Cauchy's bound on f_i).  So, by the Vandermonde
    step of `coordinate_bound`, the coordinates a_u = A_u/Δ satisfy
        |A_u| = δ·|disc m̃|·|a_u| ≤ H = δ·coordinate_bound(m̃, B),
    which for e = 1 is δ times Cauchy's bound on f over Q.

    Lifting.  Take the least prime p that `split_primes` takes from the
    ascending primes for δ (so p ∤ δ·disc m̃, and m̃ has e roots θ_i
    mod p) modulo which every root of every f_i (t̃ ↦ θ_i) is simple;
    such a prime exists, since f is square-free and `split_primes` yields
    infinitely many primes.  The roots of the f_i modulo p are found by
    trying every residue; Newton's method lifts the θ_i and then the
    roots of the f_i to q = p^k > 2^65·H.  Every root α of f in the field
    has σ_i(α) among the lifted roots of f_i (a p-adic integer, since
    p ∤ δ, with a simple root modulo p), so α comes from one tuple of
    them: V^(−1) (`lagrange_basis`) times the tuple times Δ gives the A_u
    modulo q, and since q > 2·H the symmetric residues are the A_u
    themselves; |disc m̃| is `modular._discriminant`.  A tuple whose
    residues exceed H is no root; any other is kept only if f(α) = 0
    exactly.
    A root missing from the output is therefore not in the field.  The
    factor 2^64 in q makes a spurious tuple pass the height test with
    probability about 2^(−64·e), so almost no tuple reaches the exact
    evaluation.
    """
    f = f.monic()
    mt, e = field.tilde_modulus, field.degree
    ints, delta = f.coerce_to(field).cleared()      # δ·f, cleared
    coords = [ints[j:j + e] for j in range(0, len(ints), e)]
    R = root_radius(mt)
    B = 1 + Fraction(max(sum(abs(a) * R ** u for u, a in enumerate(cs))
                         for cs in coords[:-1]), delta)
    H = ceil(delta * coordinate_bound(mt, B))

    for p, thetas in split_primes(mt, delta, filter(is_prime, count(2))):
        images = [evaluate_at(coords, theta, p) for theta in thetas]
        starts = [[r for r in range(p) if not _horner(g, r, p)]
                  for g in images]
        if all(_horner(_derivative(g), r, p)
               for g, rs in zip(images, starts) for r in rs):
            break
    q = p
    while q <= H << 65:
        q *= p
    thetas = [_lift(mt, theta, q) for theta in thetas]
    images = [evaluate_at(coords, theta, q) for theta in thetas]
    scale = delta * abs(_discriminant(tuple(mt)))
    # columns[i][r]: the contribution Δ·r·V^(−1)[·][i] of the lifted root r
    # of f_i to the coordinates
    columns = [[[a * scale * _lift(g, r, q) % q for a in row] for r in rs]
               for g, rs, row in zip(images, starts,
                                     lagrange_basis(thetas, q))]
    half = q // 2
    out = []
    for tup in product(*columns):
        A = [(sum(col) + half) % q - half for col in zip(*tup)]
        if max(map(abs, A)) > H:
            continue
        alpha = field.from_tilde_coordinates(A, scale)[0]
        if is_zero_scalar(f(alpha)):
            out.append(alpha)
    return sorted(out, key=_order_key)


def _order_key(value):
    """Rational values first, by value; then by the index of the highest
    nonzero coordinate, then by the coordinates from the top down, larger
    first (t before −t, t³ − t before t − t³)."""
    c = coordinates(value)
    top = max((u for u, a in enumerate(c) if a), default=0)
    if top == 0:
        return 0, (c[0],)
    return top, tuple(-a for a in c[top::-1])


def _derivative(g):
    return [k * c for k, c in enumerate(g)][1:]


def _lift(g, r, q):
    """The root modulo q of the int list g that lifts its simple root r
    modulo the prime dividing q (Newton's method)."""
    dg = _derivative(g)
    while (v := _horner(g, r, q)):
        r = (r - v * pow(_horner(dg, r, q), -1, q)) % q
    return r


def field_roots(p, nf):
    """The roots of p in nf (QQ or a NumberField), and the part of p they
    leave unsplit.

    Returns (roots, leftover): roots lists (value, multiplicity), each
    square-free factor's roots in `_lifted_roots` order; leftover lists
    (rest, multiplicity) for each factor whose rest is nonconstant.
    """
    roots, leftover = [], []
    for factor, mult in squarefree_decompose(p):
        rest = factor.coerce_to(nf)
        for v in _lifted_roots(rest, nf):
            roots.append((v, mult))
            rest = rest.exact_div(Poly((-v, nf.one), nf))
        if rest.degree >= 1:
            leftover.append((rest, mult))
    return roots, leftover


def rational_roots(p):
    """All rational roots of p with multiplicities (exact), sorted."""
    rat = p.to_rational()
    if rat is None:
        raise SubalgError("rational_roots: polynomial not over Q")
    return sorted(field_roots(rat, QQ)[0])


def split_roots(p, nf=None):
    """Exact roots of p in nf (default: the field of p), and the part of
    p they leave unsplit, as `field_roots`."""
    return field_roots(p, p.field if nf is None else nf)


# ---------------------------------------------------------------------------
# Numeric roots (Aberth–Ehrlich)
# ---------------------------------------------------------------------------


def _newton_polygon_starts(coeffs):
    """Bini's Aberth starts for the complex `coeffs` (ascending, top one
    nonzero): each edge a → b of the upper convex hull of the points
    (k, log|c_k|) with c_k ≠ 0, the i-th from the left, gets b − a starts
    on the circle of radius (|c_a|/|c_b|)^(1/(b−a)) at the angles
    2πj/(b−a) + 2πi/n + 0.7.  A root at zero (c_0 = 0) starts there."""
    n = len(coeffs) - 1
    hull = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        y = log(abs(c))
        while len(hull) >= 2:
            (k0, y0), (k1, y1) = hull[-2:]
            if (k1 - k0) * (y - y0) < (y1 - y0) * (k - k0):
                break               # a right turn: (k1, y1) stays
            hull.pop()
        hull.append((k, y))
    starts = [0j] * hull[0][0]
    for i, ((a, ya), (b, yb)) in enumerate(zip(hull, hull[1:])):
        radius = exp((ya - yb) / (b - a))
        starts += [radius * cmath.exp(1j * (2 * pi * (j / (b - a) + i / n)
                                            + 0.7))
                   for j in range(b - a)]
    return starts


def aberth_roots(p):
    """All complex roots of a square-free polynomial, double precision.

    Returns (roots, residual_bound).  Each root is corrected until its
    backward-error scaled residual |p(z)| <= RESIDUAL_TOL·Σ|c_i|·|z|^i,
    within MAX_ITERATIONS sweeps (else NonConvergence), and then once
    more.  The roots start on Bini's circles (Bini 1996, *Numerical
    computation of polynomial zeros by means of Aberth's method*; see
    `_newton_polygon_starts`): each edge of the upper convex hull of the
    points (k, log|c_k|) holds as many roots as it is long, near the
    circle it gives, so each root starts near its modulus.  Started on
    one circle (Fujiwara's bound), the iterates of the small and large
    roots first travel to their moduli: on the unsplit factors of the
    benchmark's charpoly pairs that took 18 sweeps in the median against
    9, and up to 86 against 16.
    """
    coeffs = [complex(_as_float(c)) for c in p.coeffs]
    lead = coeffs[-1]
    coeffs = [c / lead for c in coeffs]
    n = len(coeffs) - 1
    if n == 0:
        return [], 0.0
    if n == 1:
        return [-coeffs[0]], 0.0
    roots = _newton_polygon_starts(coeffs)
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    reversed_coeffs, reversed_deriv = coeffs[::-1], deriv[::-1]
    sizes = [abs(c) for c in coeffs]
    # Σ|c_k|·|z|^k ≤ Σ|c_k|·max(1, |z|)^n, with room for the rounding
    cap = 1.01 * RESIDUAL_TOL * sum(sizes)

    def horner(reversed_cs, z):
        acc = 0j
        for c in reversed_cs:
            acc = acc * z + c
        return acc

    def corrected(k, pz):
        """Root k after one Aberth step, or None where the step is
        undefined."""
        z = roots[k]
        dz = horner(reversed_deriv, z)
        if dz == 0:
            return None
        w = pz / dz
        denom = 1.0 - w * sum([1.0 / (z - r)
                               for r in roots[:k] + roots[k + 1:]])
        return None if denom == 0 else z - w / denom

    # a root that passes the residual test is never moved again, so only
    # the roots moved in the last sweep are tested
    moving = range(n)
    for _ in range(MAX_ITERATIONS):
        moved = []
        for k in moving:
            z = roots[k]
            pz = horner(reversed_coeffs, z)
            az = abs(z)
            try:
                passable = abs(pz) <= cap * max(1.0, az) ** n
            except OverflowError:
                passable = True
            if passable:
                scale, power = 0.0, 1.0
                for size in sizes:
                    scale += size * power
                    power *= az
                if abs(pz) <= RESIDUAL_TOL * scale:
                    continue
            moved.append(k)
            new = corrected(k, pz)
            roots[k] = z + 1e-6 * (1 + abs(z)) if new is None else new
        if not moved:
            break
        moving = moved
    else:
        raise NonConvergence(
            f"Aberth iteration did not converge in {MAX_ITERATIONS} steps")
    for k in range(n):
        new = corrected(k, horner(reversed_coeffs, roots[k]))
        if new is not None:
            roots[k] = new
    residual = max(abs(horner(reversed_coeffs, z)) for z in roots)
    return roots, residual


def refined_roots(p, roots):
    """The complex `roots` of p (rational coefficients), each refined by
    Newton's method on the exact integer form of p (`Poly.cleared`).

    Each step writes z as a Gaussian integer over a power of two, takes
    z − p(z)/p′(z) exactly (Horner over Z[i]) and rounds it to a complex
    double (int / int rounds correctly).  A root stops when the rounded
    value stops moving, or after 8 steps.
    """
    ints, _ = p.to_rational().cleared()
    dints = _derivative(ints)
    out = []
    for z in roots:
        for _ in range(8):
            new = _newton_step(ints, dints, z)
            if new == z:
                break
            z = new
        out.append(z)
    return out


def _newton_step(ints, dints, z):
    """z − g(z)/g′(z), rounded to a complex double, for g with the int
    coefficients `ints` and g′ with `dints`; z itself where g′(z) = 0."""
    (a, da), (b, db) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    d = max(da, db)
    a, b, e = a * (d // da), b * (d // db), d.bit_length() - 1
    gr, gi = _gaussian_horner(ints, a, b, e)
    hr, hi = _gaussian_horner(dints, a, b, e)
    # with G = gr + i·gi = d^n·g(z) and H = hr + i·hi = d^(n−1)·g′(z):
    # z − g(z)/g′(z) = ((a + ib)·H − G) / (d·H)
    nr, ni = a * hr - b * hi - gr, a * hi + b * hr - gi
    den = d * (hr * hr + hi * hi)
    if not den:
        return z
    return complex((nr * hr + ni * hi) / den, (ni * hr - nr * hi) / den)


def _gaussian_horner(cs, a, b, e):
    """2^(e·m)·g((a + ib)/2^e) as (re, im) ints, for the int list cs of
    g, of degree m."""
    xr = xi = 0
    for k, c in enumerate(reversed(cs)):
        xr, xi = xr * a - xi * b + (c << e * k), xr * b + xi * a
    return xr, xi
