"""Linear conditions on polynomials and the subalgebras they cut out.

A condition is a linear functional built from point evaluations and
derivatives that annihilates constants; a finite independent set of such
functionals whose joint kernel is closed under multiplication defines a
subalgebra of finite codimension.  This module converts both ways between
the condition presentation and the generator presentation.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .errors import (DegenerateConditions, NotSubalgebraConditions,
                     SpectrumNotExact, SubalgError)
from .fields import (QQ, common_field, field_of, format_scalar,
                     is_zero_scalar, scalar_to_json)
from .linalg import echelon_nullspace, extend_echelon, nullspace, rref
from .modular import (ResidueRing, coordinates, crt, rational_reconstruction,
                      word_primes)
from .poly import Poly
from .sagbi import SagbiBasis, sagbi_complete, subduce
from .semigroup import DegreeSemigroup


class LinearFunctional:
    """A condition f ↦ f(α) − f(β) or f ↦ Σ c_j f^(i_j)(α_j).

    Difference conditions require α ≠ β.  Derivative combinations whose
    order-0 coefficients do not sum to zero would fail on constants and are
    rejected.
    """

    __slots__ = ("kind", "alpha", "beta", "terms", "field")

    def __init__(self, kind, *, alpha=None, beta=None, terms=None):
        self.kind = kind
        if kind == "diff":
            field = common_field(field_of(alpha), field_of(beta))
            self.alpha = _coerce(alpha, field)
            self.beta = _coerce(beta, field)
            if self.alpha == self.beta:
                raise SubalgError("difference condition needs two distinct "
                                  "points")
            self.terms = ((0, self.alpha, field.one),
                          (0, self.beta, -field.one))
            self.field = field
        elif kind == "deriv":
            if not terms:
                raise SubalgError("empty derivative combination")
            field = QQ
            for order, point, coeff in terms:
                field = common_field(field, field_of(point))
                field = common_field(field, field_of(coeff))
            norm = tuple((int(order), _coerce(point, field),
                          _coerce(coeff, field))
                         for order, point, coeff in terms)
            zero_sum = field.zero
            for order, _, coeff in norm:
                if order == 0:
                    zero_sum = zero_sum + coeff
            if not is_zero_scalar(zero_sum):
                raise SubalgError("order-0 coefficients must sum to zero "
                                  "so constants satisfy the condition")
            self.alpha = self.beta = None
            self.terms = norm
            self.field = field
        else:
            raise SubalgError(f"unknown functional kind {kind!r}")

    @classmethod
    def difference(cls, alpha, beta):
        return cls("diff", alpha=alpha, beta=beta)

    @classmethod
    def derivative_combo(cls, terms):
        return cls("deriv", terms=list(terms))

    def apply(self, f):
        field = common_field(self.field, f.field)
        row = self.monomial_row(f.degree, field)
        return _dot(f.coerce_to(field).coeffs, row, field.zero)

    def monomial_row(self, degree, field):
        """(L(1), L(x), …, L(x^degree)), with entries in `field`: the
        coefficient-weighted sum of the jet rows of the terms."""
        row = [field.zero] * (degree + 1)
        for order, point, coeff in self.terms:
            coeff = _coerce(coeff, field)
            jet = _jet_row(order, point, degree, field)
            for k in range(order, degree + 1):
                row[k] = row[k] + coeff * jet[k]
        return row

    def points(self):
        return [point for _, point, _ in self.terms]

    def max_order(self):
        return max(order for order, _, _ in self.terms)

    def to_json(self):
        if self.kind == "diff":
            return {"kind": "diff", "alpha": scalar_to_json(self.alpha),
                    "beta": scalar_to_json(self.beta)}
        return {"kind": "deriv",
                "terms": [{"order": order, "point": scalar_to_json(point),
                           "coeff": scalar_to_json(coeff)}
                          for order, point, coeff in self.terms]}

    @classmethod
    def from_json(cls, data, field=None):
        if data.get("kind") == "diff":
            return cls.difference(_scalar_from_json(data["alpha"], field),
                                  _scalar_from_json(data["beta"], field))
        if data.get("kind") == "deriv":
            return cls.derivative_combo(
                [(t["order"], _scalar_from_json(t["point"], field),
                  _scalar_from_json(t["coeff"], field))
                 for t in data["terms"]])
        raise SubalgError(f"unknown functional kind {data.get('kind')!r}")

    def __repr__(self):
        if self.kind == "diff":
            return (f"f({format_scalar(self.alpha)}) - "
                    f"f({format_scalar(self.beta)})")
        parts = []
        for order, point, coeff in self.terms:
            d = "f" + "'" * order if order <= 3 else f"f^({order})"
            c = format_scalar(coeff)
            if c == "1":
                prefix = ""
            elif c == "-1":
                prefix = "-"
            elif any(op in c[1:] for op in "+-"):
                prefix = f"({c})*"
            else:
                prefix = c + "*"
            parts.append(f"{prefix}{d}({format_scalar(point)})")
        return " + ".join(parts).replace("+ -", "- ")


def _jet_row(order, point, degree, field):
    """(J(1), J(x), …, J(x^degree)) for the jet J: f ↦ f^(order)(point).

    J(x^k) = k!/(k−order)! · point^(k−order); one running falling factorial
    and one running power of the point, so no polynomial is built.
    """
    row = [field.zero] * (degree + 1)
    point = _coerce(point, field)
    power = field.one
    falling = factorial(order)
    for k in range(order, degree + 1):
        row[k] = power * falling
        power = power * point
        falling = falling * (k + 1) // (k + 1 - order)
    return row


def _dot(a, b, zero):
    """Σ a_i·b_i, skipping the zero entries of a."""
    acc = zero
    for u, v in zip(a, b):
        if not is_zero_scalar(u):
            acc = acc + u * v
    return acc


def _coerce(value, field):
    if field is QQ:
        return Fraction(value) if not hasattr(value, "field") else \
            value.to_rational()
    return field.coerce(value)


def _scalar_from_json(data, field):
    if isinstance(data, dict) and "t_coeffs" in data:
        if field is None:
            raise SubalgError("field element in JSON but no field supplied")
        return field.from_coeffs([Fraction(c) for c in data["t_coeffs"]])
    value = Fraction(str(data))
    return value if field is None else field.coerce(value)


def _conditions_field(conds):
    field = QQ
    for L in conds:
        field = common_field(field, L.field)
    return field


def _order_and_point_count(conds):
    """(N, s): one more than the highest derivative order the conditions
    read, and the number of distinct points they read it at."""
    points = []
    for L in conds:
        for p in L.points():
            if p not in points:
                points.append(p)
    return max(L.max_order() for L in conds) + 1, len(points)


def _monomial_kernel(rows, degree_bound, field):
    """(rank, kernel) of the condition rows on 1, x, …, x^bound.

    One reduction with ascending degree columns: every kernel polynomial is
    x^d plus terms at pivot degrees below d, so its leading degree d is a
    free column and the kernel comes out sorted by degree.
    """
    ncols = degree_bound + 1
    red, pivots = rref([row[:ncols] for row in rows], ncols, field)
    kernel = [Poly(v, field)
              for v in echelon_nullspace(red, pivots, ncols, field)]
    return len(red), kernel


def _closed_under_products(rows, kernel, low, field):
    """Is the kernel V of the condition rows closed under multiplication?

    Every condition reads f only through f^(k)(α) with k < N at the s
    points, so V contains the ideal π^N·K[x] (π = ∏(x − α)) and
    V = V_{<low} ⊕ π^N·K[x] with low = N·s.  Products with the ideal stay
    in it, so V is an algebra iff every product of two elements of
    V_{<low} satisfies every condition.  `kernel` must contain a basis of
    V_{<low}; `rows` must reach degree 2·low − 2.
    """
    small = [p for p in kernel if 1 <= p.degree < low]
    for i, p in enumerate(small):
        for q in small[i:]:
            coeffs = (p * q).coeffs
            if any(not is_zero_scalar(_dot(coeffs, row, field.zero))
                   for row in rows):
                return False
    return True


def is_subalgebra_condition_set(conds):
    """Does the joint kernel of the conditions form a subalgebra?

    Exact: checks the products of kernel elements of degree < N·s (see
    `_closed_under_products`).
    """
    if not conds:
        return True
    field = _conditions_field(conds)
    N, s = _order_and_point_count(conds)
    low = N * s
    rows = [L.monomial_row(2 * low - 2, field) for L in conds]
    _, kernel = _monomial_kernel(rows, low - 1, field)
    return _closed_under_products(rows, kernel, low, field)


class Subalgebra:
    """A finite-codimension subalgebra of K[x].

    Presented by generators or a SAGBI basis (`kernel_subalgebra` builds
    one from conditions and keeps them); the SAGBI basis, degree
    semigroup, codimension, conditions and spectrum are computed lazily
    and cached.
    """

    def __init__(self, generators=None, conditions=None, _sagbi=None):
        self._generators = list(generators or ()) or None
        self._conditions = list(conditions or ()) or None
        self._sagbi = _sagbi
        if self._generators is None and _sagbi is None:
            raise SubalgError("subalgebra needs generators or a SAGBI basis")
        self._spectrum = None
        self._spectrum_tol = None
        self._clusters = None
        self._char_poly = None
        self._conductor = None

    @classmethod
    def of(cls, A):
        """A as a Subalgebra: a Subalgebra itself, the algebra of a
        SagbiBasis, or the algebra generated by an iterable of Polys."""
        if isinstance(A, Subalgebra):
            return A
        if isinstance(A, SagbiBasis):
            return cls(_sagbi=A)
        try:
            gens = list(A)
        except TypeError:
            gens = None
        if not gens or not all(isinstance(g, Poly) for g in gens):
            raise SubalgError(
                "expected a Subalgebra, a SagbiBasis or generator "
                f"polynomials, got {type(A).__name__}")
        return cls.from_generators(gens)

    @classmethod
    def from_generators(cls, generators):
        return cls(generators=generators)

    @property
    def generators(self):
        if self._generators is None:
            self._generators = list(self.sagbi_basis().elements)
        return self._generators

    def sagbi_basis(self):
        if self._sagbi is None:
            self._sagbi = sagbi_complete(self._generators)
        return self._sagbi

    def semigroup(self):
        return self.sagbi_basis().semigroup

    def codimension(self):
        return self.semigroup().genus

    @property
    def field(self):
        return self.sagbi_basis().field

    def conditions(self):
        if self._conditions is None:
            spectrum = self.spectrum(mode="exact")
            self._conditions = conditions_from_subalgebra(self, spectrum)
        return self._conditions

    def conductor(self):
        """The conductor c of A (see `conductor`), computed once."""
        if self._conductor is None:
            self._conductor = conductor(self.sagbi_basis())
        return self._conductor

    def char_poly(self):
        """The characteristic polynomial χ of A, computed once."""
        if self._char_poly is None:
            from .spectrum import characteristic_polynomial
            self._char_poly = characteristic_polynomial(self)
        return self._char_poly

    def spectrum(self, mode="hybrid", nf=None, tol=1e-8):
        """The spectrum (see `compute_spectrum`), cached.

        "numeric" results are never cached.  The cached spectrum is reused
        only at the tol it was computed with: by "hybrid" without nf, and
        otherwise only when every point is exact; else the spectrum is
        computed afresh and replaces it.
        """
        from .spectrum import compute_spectrum
        if mode == "numeric":
            return compute_spectrum(self, mode=mode, nf=nf, tol=tol)
        cached = self._spectrum
        if cached is None or tol != self._spectrum_tol or not (
                (mode == "hybrid" and nf is None) or
                all(p.exact for p in cached)):
            self._spectrum = compute_spectrum(self, mode=mode, nf=nf,
                                              tol=tol)
            self._spectrum_tol = tol
            self._clusters = None
        return self._spectrum

    def clusters(self):
        """The clusters of the cached (or a new hybrid) spectrum."""
        if self._clusters is None:
            from .spectrum import compute_clusters
            self._clusters = compute_clusters(self, self._spectrum)
        return self._clusters

    def contains(self, f):
        rem, _ = subduce(f, self.sagbi_basis())
        return rem.degree < 1

    def __eq__(self, other):
        if not isinstance(other, Subalgebra):
            return NotImplemented
        b1, b2 = self.sagbi_basis(), other.sagbi_basis()
        if b1.degrees != b2.degrees:
            return False
        return all(other.contains(e) for e in b1.elements) and \
            all(self.contains(e) for e in b2.elements)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.sagbi_basis().elements)
        return f"Subalgebra(<{gens}>)"


def kernel_subalgebra(conds):
    """The subalgebra of all polynomials satisfying the conditions.

    Row-reduces the condition matrix on 1, x, …, x^B once, with ascending
    degree columns (B = N·s + 2n + 2; N = max derivative order + 1, s =
    point count, n = condition count).  Fewer than n pivots means dependent
    conditions.  Otherwise each kernel vector is x^d plus terms at pivot
    degrees, so the free columns d ≥ 1 are the degree semigroup S up to B,
    and the kernel vectors at the minimal generators of S form the SAGBI
    basis; no completion is run.  B covers those generators: n < N·s, and
    every minimal generator of a genus-n semigroup is at most 3n.

    Closure is checked exactly: the kernel is an algebra iff every product
    of two kernel elements of degree < N·s satisfies every condition
    (`_closed_under_products`), since π^N·K[x] (π the product of x − p
    over the points) is an ideal inside the kernel that supplies every
    degree ≥ N·s.  So the leading degrees are closed under addition, and
    the n pivots are exactly the gaps: the semigroup has genus n.
    """
    if not conds:
        raise SubalgError("kernel_subalgebra needs at least one condition")
    field = _conditions_field(conds)
    n = len(conds)
    N, s = _order_and_point_count(conds)
    low = N * s
    bound = low + 2 * n + 2
    rows = [L.monomial_row(max(bound, 2 * low - 2), field) for L in conds]
    r, kernel = _monomial_kernel(rows, bound, field)
    if r < n:
        raise DegenerateConditions(
            f"only {r} of {n} conditions are independent", reduced_count=r)
    if not _closed_under_products(rows, kernel, low, field):
        raise NotSubalgebraConditions(
            "kernel is not closed under multiplication: a product of two "
            f"kernel elements of degree < {low} fails a condition")
    by_degree = {p.degree: p for p in kernel if p.degree >= 1}
    semigroup = DegreeSemigroup(by_degree)
    basis = SagbiBasis([by_degree[d] for d in semigroup.generators],
                       semigroup)
    return Subalgebra(conditions=_normalize_conditions(conds), _sagbi=basis)


def _normalize_conditions(conds):
    """Difference conditions first where the exchange is legal.

    Greedy left-to-right: a difference condition may move before a
    derivative condition when every prefix of the reordered list still
    passes the subalgebra check.
    """
    conds = list(conds)
    changed = True
    while changed:
        changed = False
        for i in range(len(conds) - 1):
            a, b = conds[i], conds[i + 1]
            if a.kind == "deriv" and b.kind == "diff":
                swapped = conds[:i] + [b, a] + conds[i + 2:]
                if all(is_subalgebra_condition_set(swapped[:k + 1])
                       for k in range(len(swapped))):
                    conds = swapped
                    changed = True
                    break
    return conds


def conductor(basis):
    """The monic c of least degree with c·K[x] ⊆ A (A the algebra of
    `basis`), from images modulo word-size primes.

    The system: deg c ≤ 2n (n the codimension), so c is a combination of
    the degree products P_k, k ≤ 2n.  With d the smallest positive degree,
    K[x] = ⊕_{i<d} x^i·K[P_d], so c·K[x] ⊆ A iff x^i·c ∈ A for 0 ≤ i < d;
    for a combination of the P_k that says that the coordinates of x^i·c
    on the gap monomials vanish for 0 < i < d (K[x] = A ⊕ span{x^g : g a
    gap}).  With ascending degree columns, c is the kernel vector at the
    lowest free column.

    Images: modulo each prime p that divides no denominator of the basis
    or of the field modulus, `_conductor_image` solves the system over R_p
    (see `modular`).  Degree lemma: the reduction of every element of the
    conductor ideal c·K[x] is a kernel vector mod p, so the lowest free
    column mod p is at most that of c: an image never has a higher degree
    than c.  If it has the same degree, the columns below are independent
    mod p, so the kernel vector there is unique and the image is c mod p.
    Only the images of the highest degree seen so far are kept; they are
    combined by CRT, and every coefficient is rationally reconstructed.

    Certificate: a candidate is accepted only if it is monic and
    x^i·candidate subduces exactly to a constant for 0 ≤ i < d.  It is then
    in the conductor ideal, so c divides it; its degree is at most deg c,
    so it is c.

    Termination: only finitely many primes divide a denominator, make a
    pivot a zero divisor in R_p or drop the rank.  Every other prime gives
    c mod p, and once the product M of those primes exceeds 2H², H the
    largest numerator or denominator among c's coordinates, reconstruction
    returns c.  So there is no prime cap and no stabilization rule.
    """
    S, d, field = basis.semigroup, basis.degrees[0], basis.field
    e = field.degree
    products = {P.degree: P
                for P in basis.degree_products(2 * S.genus + d - 1)}
    unlucky = lcm(*(a.denominator for a in field.modulus_coeffs),
                  *(a.denominator for g in basis.elements for s in g.coeffs
                    for a in coordinates(s)))
    best, modulus, residues = -1, 1, []
    for p in word_primes():
        if unlucky % p == 0:
            continue
        image = _conductor_image(products, S, d,
                                 ResidueRing(field.modulus_coeffs, p))
        if image is None or len(image) - 1 < best:
            continue
        flat = [a for coeff in image for a in coeff]
        if len(image) - 1 > best:
            best, modulus, residues = len(image) - 1, p, flat
        else:
            residues, modulus = crt(residues, modulus, flat, p), modulus * p
        values = [rational_reconstruction(r, modulus) for r in residues]
        if None in values:
            continue
        c = Poly([field.from_coeffs(values[k:k + e])
                  for k in range(0, len(values), e)], field)
        if c.degree == best and c.leading_coeff() == 1 and \
                _in_conductor_ideal(c, basis):
            return c


def _in_conductor_ideal(f, basis):
    """Is f·K[x] ⊆ A?  Exact: x^i·f subduces to a constant for every
    0 ≤ i < d (d the smallest positive degree), x^i·f by a shift."""
    zero = [basis.field.zero]
    return all(subduce(Poly(zero * i + list(f.coeffs), f.field),
                       basis)[0].degree < 1
               for i in range(basis.degrees[0]))


def _conductor_image(products, S, d, ring):
    """The coefficients (in R_p) of the image of the conductor mod p: the
    kernel vector at the lowest free column of the system of `conductor`,
    as a combination of the products.  None when a pivot is a zero divisor
    in R_p.

    The gap coordinates of x^k come from one triangular pass
    (x^k = P_k − lower terms).  The columns are reduced one at a time
    against the echelon rows of the columns before them, with the
    combination that reduces them; the first that reduces to zero is the
    lowest free column.
    """
    p, e = ring.p, ring.e
    top = 2 * S.genus
    reduced = {k: ring.split(P.coeffs) for k, P in products.items()}
    gap_index = {g: j for j, g in enumerate(S.gaps)}
    normal = [[[] for _ in range(e)] for _ in S.gaps]  # [gap][coordinate]
    for k in range(top + d):
        if k in gap_index:
            for j, coords in enumerate(normal):
                for v, values in enumerate(coords):
                    values.append(int(j == gap_index[k] and v == 0))
        else:
            for coords in normal:
                for values, a in zip(coords, ring.dot(reduced[k], coords)):
                    values.append(-a % p)
    shifted = [[[values[i:] for values in coords] for coords in normal]
               for i in range(1, d)]
    columns = [k for k in sorted(reduced) if k <= top]
    echelon = []                    # (pivot, row, combination), all mod p
    for index, k in enumerate(columns):
        row = [[] for _ in range(e)]
        for block in shifted:
            for coords in block:
                for values, a in zip(row, ring.dot(reduced[k], coords)):
                    values.append(a)
        combo = [[int(j == index and v == 0) for j in range(len(columns))]
                 for v in range(e)]
        for pivot, prow, pcombo in echelon:
            f = tuple(values[pivot] % p for values in row)
            if any(f):
                row = ring.axpy(f, prow, row)
                combo = ring.axpy(f, pcombo, combo)
        row = [[a % p for a in values] for values in row]
        combo = [[a % p for a in values] for values in combo]
        pivot = next((q for q in range(len(row[0]))
                      if any(values[q] for values in row)), None)
        if pivot is None:
            used = [reduced[j] for j in columns[:index + 1]]
            return [ring.dot(combo, [[P[v][i] if i < len(P[v]) else 0
                                      for P in used] for v in range(e)])
                    for i in range(k + 1)]
        inv = ring.inverse(tuple(values[pivot] for values in row))
        if inv is None:
            return None
        echelon.append((pivot, ring.scale(inv, row), ring.scale(inv, combo)))


def annihilator(basis, coords, c):
    """Coefficient vectors v with Σ v_i f^(o_i)(p_i) = 0 on all of A.

    `coords` lists (order o_i, point p_i); c is the conductor of A (the
    algebra of `basis`); all lie in one field.  Exact: A = A_{<deg c} ⊕
    c·K[x], and with m the top order, a functional reads c·h at p only
    through the (m − ord_p(c))-jet of h at p, which the h of degree
    < Σ_p max(0, m + 1 − ord_p(c)) already take.  So it vanishes on A iff
    it vanishes on A below degree deg c plus that sum.  The returned vectors
    span the nullspace of the functionals on the degree products up to
    that degree.
    """
    field = basis.field
    m = max(order for order, _ in coords)
    bound = c.degree - 1 + sum(max(0, m + 1 - c.order_at(point))
                               for point in {point for _, point in coords})
    jets = [_jet_row(order, point, bound, field) for order, point in coords]
    equations = [[_dot(g.coeffs, jet, field.zero) for jet in jets]
                 for g in basis.degree_products(bound)]
    return nullspace(equations, len(coords), field)


def conditions_from_subalgebra(A, spectrum):
    """Independent conditions cutting out A, derived from its spectrum.

    With c the conductor of A, the conditions are the functionals of order
    < max ord_α(c) at the spectrum points that annihilate A
    (`annihilator`): they vanish on c·K[x], so they read only jets of
    order < ord_α(c) at each α, and codim(A) of them are independent.
    Order-0 parts are rewritten as point differences where possible.
    The points must be exactly the zeros of c.
    """
    A = Subalgebra.of(A)
    basis = A.sagbi_basis()
    points = []
    for p in spectrum:
        value = getattr(p, "value", p)
        if isinstance(value, complex):
            raise SpectrumNotExact(
                "conditions need exact (rational or number-field) spectrum "
                "points")
        if value not in points:
            points.append(value)
    field = basis.field
    for p in points:
        field = common_field(field, field_of(p))
    basis = basis.coerce_to(field)
    points = [_coerce(p, field) for p in points]
    if not points:
        raise SpectrumNotExact("empty spectrum")

    c = A.conductor().coerce_to(field)
    orders = [c.order_at(p) for p in points]
    if 0 in orders or sum(orders) != c.degree:
        raise SpectrumNotExact("the points are not the zeros of the "
                               "conductor")
    # coordinates: (order, point) with higher orders first, so reduced
    # rows with only order-0 support surface as pure differences
    coords = [(order, p) for order in range(max(orders) - 1, -1, -1)
              for p in points]
    W, _ = rref(annihilator(basis, coords, c), len(coords), field)

    functionals = []
    for vec in W:
        terms = []
        for (order, point), coeff in zip(coords, vec):
            if not is_zero_scalar(coeff):
                terms.append((order, point, coeff))
        if len(terms) == 2 and terms[0][0] == 0 and terms[1][0] == 0 \
                and is_zero_scalar(terms[0][2] + terms[1][2]):
            functionals.append(
                LinearFunctional.difference(terms[0][1], terms[1][1]))
        else:
            functionals.append(LinearFunctional.derivative_combo(terms))
    for L in functionals:
        for e in basis.elements:
            if not is_zero_scalar(L.apply(e)):
                raise SubalgError("derived condition fails on a basis "
                                  "element")
    return _normalize_conditions(functionals)


def intersect_and_join(A1, A2):
    """(A1 ∩ A2, algebra generated by A1 ∪ A2).

    The intersection is the kernel of the union of the condition lists
    (dependencies removed); the join is the SAGBI completion of the union
    of the generators.
    """
    A1, A2 = Subalgebra.of(A1), Subalgebra.of(A2)
    conds = list(A1.conditions())
    for L in A2.conditions():
        conds.append(L)
    # drop dependent conditions: reduce each row against a running echelon
    # form and keep the condition when a residual is left
    field = _conditions_field(conds)
    N, s = _order_and_point_count(conds)
    bound = N * s + 2 * len(conds) + 2
    red, pivots = [], []
    kept = [L for L in conds
            if extend_echelon(L.monomial_row(bound, field), red, pivots,
                              field)]
    intersection = kernel_subalgebra(kept)

    gens = list(A1.sagbi_basis().elements) + list(A2.sagbi_basis().elements)
    join_basis = sagbi_complete(gens)
    if join_basis.semigroup.genus == 0 and 1 in join_basis.degrees:
        # the join is all of K[x]; present it canonically
        join_basis = SagbiBasis([Poly.x(join_basis.field)])
    return intersection, Subalgebra(_sagbi=join_basis)
