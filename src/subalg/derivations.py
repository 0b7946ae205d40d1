"""Point derivations of a subalgebra.

An α-derivation of A is a linear functional D with D(fg) = D(f)·g(α) +
f(α)·D(g); equivalently D annihilates constants and the square of the
maximal ideal M_α = {f ∈ A : f(α) = 0}.  The number k_α = dim M_α/M_α²
bounds the derivation space and is conjectured to equal its dimension.

Both are exact linear algebra modulo one polynomial G; no degree bound is
grown and no spectrum is computed.  The conductor c of A vanishes exactly
on the spectrum, and c·K[x] ⊆ A (`conditions.conductor`).  With H = c,
times (x − α) when c(α) ≠ 0, H·K[x] lies in M_α.  Let g = gcd(H, u_e)
over the SAGBI elements e, u_e = e − e(α); x − α divides g.  Each u_e
lies in M_α, so u_e·H·K[x] and H²·K[x] lie in M_α², and so does their
sum G·K[x], G = H·g.  So M_α and M_α² are determined by their images in
K[x]/(G), of dimension deg G ≤ 2·deg H.

The roots of g, the roots of H at which every e takes its value at α,
are the cluster of α (every β with e(β) = e(α) for each e): for such
β ≠ α, c(β)·h(β) = c(α)·h(α) for every h, as c·h ∈ A, so β is a root of
H exactly when α is; off it h = 1 and h = x give β = α.  χ is not built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb

from .conditions import LinearFunctional, Subalgebra, _jet_row
from .errors import EvenInput, SpectrumNotExact
from .fields import common_field, field_of, is_zero_scalar
from .linalg import cleared_nullspace, extend_echelon, rref
from .poly import Poly, _int_scaled, _int_values, _over_lcm, poly_gcd
from .roots import _order_key, field_roots
from .sagbi import subduce


class NotIntegral:
    """Returned when a·f′ fails to stay inside B for some f in A."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotIntegral"

    def __bool__(self):
        return False


NOT_INTEGRAL = NotIntegral()


@dataclass
class DerivationSpace:
    """Solution space of α-derivations expressed as derivative combos."""

    alpha: object
    k_alpha: int
    combo_basis: list          # LinearFunctional, orders >= 1
    quotient_witnesses: list   # Poly representatives of M_alpha / M_alpha^2

    @property
    def dimension(self):
        return len(self.combo_basis)


class _Jets:
    """M_α and M_α² modulo G = H·g, for H and g as in the module docstring.

    `m` lists m_d = P_d − P_d(α) for the semigroup degrees 1 <= d < D =
    deg G (P_d the degree product of degree d); M_α = span(m) ⊕ G·K[x],
    and `rows` are their cleared coefficient lists (`Poly.cleared`).
    Since M_α = Σ_e u_e·A over the SAGBI elements e, M_α² = Σ_e u_e·M_α,
    so the remainders (u_e·m_d) mod G span M_α² modulo G.  `E` is a
    running echelon form of their cleared forms, as rows on 1, x, …,
    x^(D−1) (pivot columns `pivots`, see `linalg.extend_echelon`).
    """

    def __init__(self, A, alpha):
        basis = A.sagbi_basis()
        n = basis.semigroup.genus
        field = common_field(basis.field, field_of(alpha))
        basis = basis.coerce_to(field)
        alpha = field.coerce(alpha)
        H = basis.conductor()
        if not is_zero_scalar(H(alpha)):
            H = H * Poly((-alpha, field.one), field)
        us = [e - e(alpha) for e in basis.elements]
        g = reduce(poly_gcd, us, H)
        G = H * g
        D = G.degree
        self.m = [p - p(alpha) for p in basis.degree_products(D - 1)[1:]]
        assert len(self.m) == D - 1 - n
        self.rows = [p.cleared()[0] for p in self.m]
        self.E, self.pivots = [], []
        for u in us:
            for p in self.m:
                r = (u * p % G).cleared()[0]
                extend_echelon(r + [0] * (D * field.degree - len(r)), self.E,
                               self.pivots, field)
        self.basis, self.field, self.alpha, self.degree, self.H, self.g = \
            basis, field, alpha, D, H, g

    @property
    def k_alpha(self):
        return len(self.m) - len(self.E)

    def multiplicity(self, beta):
        """The multiplicity of β as a root of G."""
        return self.H.order_at(beta) + self.g.order_at(beta)


def k_alpha(A, alpha):
    """dim M_α/M_α² = (D − 1 − n) − rank of M_α² modulo G (see `_Jets`)."""
    return _Jets(Subalgebra.of(A), alpha).k_alpha


def _cluster_points(jets):
    """The cluster of α, α first: the roots of g (see the module
    docstring), [α] with no root sought when g is a power of x − α.  The
    others follow in `compute_spectrum`'s order of exact points: by their
    order as roots of c = H, then `roots._order_key`.  A factor of g that
    does not split over the field raises SpectrumNotExact: a partial
    cluster would give a wrong derivation space.
    """
    g, alpha = jets.g, jets.alpha
    if g.order_at(alpha) == g.degree:
        return [alpha]
    roots, leftover = field_roots(g, jets.field)
    if leftover:
        raise SpectrumNotExact(
            f"the cluster of {alpha!r} has points outside {jets.field!r}")
    return [alpha] + sorted((v for v, _ in roots if v != alpha),
                            key=lambda v: (jets.H.order_at(v), _order_key(v)))


def derivation_space(A, alpha):
    """All α-derivations of A as combinations of derivatives at the
    cluster of α.

    Solves exactly for coefficients c_ij with Σ c_ij f^(i)(α_j) = 0 on
    M_α²: on the rows of `_Jets.E`, over the orders 1 <= i <
    mult_{α_j}(G).  Higher orders need not be read: G·K[x] ⊆ M_α², and a
    functional of order >= mult_{α_j}(G) at α_j does not vanish on it.
    Solutions that act on A as a combination of earlier ones are dropped.
    For α outside the spectrum the space is span{f ↦ f′(α)}.

    Every solution D satisfies the Leibniz identity by construction: D
    kills 1 (its orders are >= 1) and M_α², and each f in A is
    f(α) + m_f with m_f in M_α, so
    D(fg) = D(f(α)·g(α) + f(α)·m_g + g(α)·m_f + m_f·m_g)
          = f(α)·D(g) + g(α)·D(f).
    """
    A = Subalgebra.of(A)
    jets = _Jets(A, alpha)
    field, k = jets.field, jets.k_alpha
    points = _cluster_points(jets)
    mults = [jets.multiplicity(point) for point in points]
    coords = [(order, point) for order in range(1, max(mults))
              for point, mult in zip(points, mults) if order < mult]
    jet_rows, _ = _over_lcm([_jet_row(order, point, jets.degree - 1, field)
                             for order, point in coords])
    vectors, _ = rref([v for v, _ in cleared_nullspace(
                           _int_values(jets.E, jet_rows, field), len(coords),
                           field)], len(coords), field)
    # drop functionals that act on A (spanned by 1 and the m_d) as a
    # combination of earlier ones: they add no derivation.  Only ranks are
    # read here, so each m_d's values may keep its own scale.
    values = _int_values(jets.rows, jet_rows, field)
    actions = _int_values([_int_scaled(vec, field)[0] for vec in vectors],
                          values, field)
    red, pivots = [], []
    chosen = [vec for vec, action in zip(vectors, actions)
              if extend_echelon(action, red, pivots, field)]

    combos = [LinearFunctional.derivative_combo(
                  [(order, point, coeff) for (order, point), coeff
                   in zip(coords, vec) if not is_zero_scalar(coeff)])
              for vec in chosen]

    # quotient witnesses: the m_d that complete M_alpha^2 to M_alpha
    red, pivots = list(jets.E), list(jets.pivots)
    size = jets.degree * field.degree
    witnesses = [p for p, row in zip(jets.m, jets.rows)
                 if extend_echelon(row + [0] * (size - len(row)), red,
                                   pivots, field)]
    return DerivationSpace(alpha=jets.alpha, k_alpha=k, combo_basis=combos,
                           quotient_witnesses=witnesses)


def conjecture_dim_check(A, alpha):
    """Compare dim of the derivation space with k_α; returns a report."""
    A = Subalgebra.of(A)
    space = derivation_space(A, alpha)
    n = A.codimension()
    return {
        "alpha": alpha,
        "k_alpha": space.k_alpha,
        "dim_combo": space.dimension,
        "equal": space.k_alpha == space.dimension,
        "codimension": n,
        "proved_region": n <= 3,
    }


def ln_coefficients(n):
    """Coefficients C_i of the functional L_n = Σ C_i c^(n−i) D_i.

    C_n = 1; all other odd entries and even entries above n vanish; the
    even entries below n are determined descending by
    Σ_k binom(m, k) · C_{2m+k} = 0.
    """
    if n < 1 or n % 2 == 0:
        raise EvenInput(f"L_n is defined for odd n >= 1, got {n}")
    coeffs = {n: 1}
    if n == 1:
        return coeffs
    for m in range((n - 1) // 2, 0, -1):
        total = 0
        for k in range(1, m + 1):
            total += comb(m, k) * coeffs.get(2 * m + k, 0)
        coeffs[2 * m] = -total
    return {i: c for i, c in coeffs.items() if c != 0}


def integral_derivation(B, A, L, a):
    """The derivation f ↦ L(a·f′) of B when a is an integral for (B, A).

    Requires a·f′ ∈ B for every SAGBI element f of A (checked by
    subduction); returns NOT_INTEGRAL otherwise.  The result is expanded
    into a derivative combination via the Leibniz rule.
    """
    B_basis = Subalgebra.of(B).sagbi_basis()
    A_basis = Subalgebra.of(A).sagbi_basis()
    field = common_field(B_basis.field, common_field(A_basis.field, a.field))
    a = a.coerce_to(field)
    for f in A_basis.elements:
        rem, _ = subduce(a * f.coerce_to(field).derivative(), B_basis)
        if rem.degree >= 1:
            return NOT_INTEGRAL
    terms = {}
    for order, point, coeff in L.terms:
        point = field.coerce(point)
        coeff = field.coerce(coeff)
        for k in range(order + 1):
            new_order = order + 1 - k
            c = coeff * comb(order, k) * a.derivative(k)(point)
            if is_zero_scalar(c):
                continue
            key = (new_order, point)
            terms[key] = terms.get(key, field.zero) + c
    combo = [(order, point, c) for (order, point), c in terms.items()
             if not is_zero_scalar(c)]
    if not combo:
        return NOT_INTEGRAL
    D = LinearFunctional.derivative_combo(combo)
    return D
