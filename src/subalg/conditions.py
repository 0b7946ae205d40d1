"""Linear conditions on polynomials and the subalgebras they cut out.

A condition is a linear functional built from point evaluations and
derivatives that annihilates constants; a finite independent set of such
functionals whose joint kernel is closed under multiplication defines a
subalgebra of finite codimension.  This module converts both ways between
the condition presentation and the generator presentation.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import (DegenerateConditions, NotSubalgebraConditions,
                     SpectrumNotExact, SubalgError)
from .fields import (QQ, common_field, field_of, format_scalar,
                     is_zero_scalar, scalar_to_json)
from .linalg import cleared_nullspace, nullspace, rref
from .poly import (Poly, _int_combination, _int_dot, _int_mul, _int_scaled,
                   _int_trim, _int_values, _over_lcm, poly_gcd)
from .resultants import _lattice_gcd
from .roots import _order_key
from .sagbi import SagbiBasis, read_off_basis, sagbi_complete, subduce


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
            self.alpha = field.coerce(alpha)
            self.beta = field.coerce(beta)
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
            norm = tuple((int(order), field.coerce(point),
                          field.coerce(coeff))
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
        return _JetTable([self.terms], field).apply(0, f)

    def points(self):
        return [point for _, point, _ in self.terms]

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


class _JetTable:
    """Conditions, each given by its (order, point, coefficient) terms,
    read once over `field`.  `terms[k]` is condition k as {(order, i):
    coefficient}, equal terms summed and zero sums dropped, i indexing the
    distinct `points`; `tops` maps i to N_p, the top order read at the
    point.  Points are told apart by ==, never hashed: a list holds a few,
    and hashing a Fraction costs a modular inverse of its denominator.

    `rows(d)` are the conditions' cleared monomial rows (L(1), …, L(x^d)),
    combinations of jet rows (`_jet_row`).  Each jet row is computed once,
    at the top degree T asked for so far, and a degree d < T reads a
    prefix: entry k of the row at T is k!/(k−o)!·z^(k−o)·w^(T−k) over
    w^(T−o), the rational of the row at d over a w^(T−d) times larger
    denominator, and a combination of prefixes is the prefix of the
    combination.
    """

    __slots__ = ("field", "points", "terms", "tops", "_degree", "_rows")

    def __init__(self, term_lists, field):
        self.field, self.points, self.terms, self.tops = field, [], [], {}
        for terms in term_lists:
            summed = {}
            for order, point, coeff in terms:
                point = field.coerce(point)
                i = next((i for i, p in enumerate(self.points)
                          if p == point), len(self.points))
                if i == len(self.points):
                    self.points.append(point)
                coeff = field.coerce(coeff)
                summed[order, i] = summed[order, i] + coeff \
                    if (order, i) in summed else coeff
            summed = {key: a for key, a in summed.items()
                      if not is_zero_scalar(a)}
            for order, i in summed:
                self.tops[i] = max(order, self.tops.get(i, 0))
            self.terms.append(summed)
        self._degree, self._rows = -1, [([], 1)] * len(self.terms)

    def rows(self, degree):
        """The conditions' cleared monomial rows up to x^degree, (ints, d)
        as `poly._int_scaled` gives, d not always least."""
        field = self.field
        e = field.degree
        if degree > self._degree:
            jets, self._rows = {}, []
            for terms in self.terms:
                for order, i in terms:
                    if (order, i) not in jets:
                        jets[order, i] = _jet_row(order, self.points[i],
                                                  degree, field)
                lists, dj = _over_lcm([jets[key] for key in terms])
                coeffs, dc = _int_scaled(list(terms.values()), field)
                row = _int_combination(coeffs, lists, field.tilde_modulus)
                self._rows.append((row or [0] * (e * (degree + 1)), dc * dj))
            self._degree = degree
        if degree == self._degree:
            return self._rows
        return [(row[:e * (degree + 1)], d) for row, d in self._rows]

    def apply(self, k, f):
        """Condition k on the polynomial f, a scalar of the field.  The dot
        with the row at the top degree reads only its first deg f + 1
        entries (`poly._int_dot`), the row at deg f."""
        f = f.coerce_to(self.field)
        row = self.rows(max(f.degree, self._degree))[k]
        return _dot(f.cleared(), row, self.field)


def _jet_row(order, point, degree, field):
    """(J(1), J(x), …, J(x^degree)) for the jet J: f ↦ f^(order)(point),
    cleared: (ints, d) as `poly._int_scaled` gives.

    With the point cleared once to z/w, J(x^k) = k!/(k−order)!·z^(k−order)
    ·w^(degree−k) over d = w^(degree−order): one running falling factorial
    (an int) and running powers of z and w, so no polynomial is built.  A
    jet of order above the degree is zero on every x^k.
    """
    e, mt = field.degree, field.tilde_modulus
    row = [0] * (e * (degree + 1))
    if order > degree:
        return row, 1
    (z, w), n = _int_scaled((point,), field), degree - order
    w_powers = [1]
    for _ in range(n):
        w_powers.append(w_powers[-1] * w)
    falling = factorial(order)
    if e == 1:                  # an entry is one int
        power = 1
        for k in range(order, degree + 1):
            row[k] = power * falling * w_powers[degree - k]
            power *= z[0]
            falling = falling * (k + 1) // (k + 1 - order)
        return row, w_powers[n]
    power = [1] + [0] * (e - 1)
    for k in range(order, degree + 1):
        scale = falling * w_powers[degree - k]
        row[k * e:(k + 1) * e] = [a * scale for a in power]
        if k < degree:
            power = _int_mul(power, z, mt)
            falling = falling * (k + 1) // (k + 1 - order)
    return row, w_powers[n]


def _dot(a, b, field):
    """Σ a_i·b_i as a scalar, for two rows cleared by `poly._int_scaled`
    (a row that enters many dots is cleared once; see `poly._int_dot`)."""
    (ia, da), (ib, db) = a, b
    return field.from_tilde_coordinates(_int_dot(ia, ib, field), da * db)[0]


def _scalar_from_json(data, field):
    if isinstance(data, dict) and "t_coeffs" in data:
        if field is None:
            raise SubalgError("field element in JSON but no field supplied")
        return field.from_coeffs([Fraction(c) for c in data["t_coeffs"]])
    value = Fraction(str(data))
    return value if field is None else field.coerce(value)


def _closed_under_products(rows, small, field):
    """Is the kernel V of the condition rows (in an algebra) closed under
    multiplication, given V = V_{<low} ⊕ I for an ideal I of K[x] inside
    V?  Products with I stay in I, so V is an algebra iff every product of
    two elements of V_{<low} satisfies every condition (see `_cut`).
    `small` must hold the cleared int lists of a basis of V_{<low} with no
    constant; the cleared `rows` must reach degree 2·low − 2.  A product
    is tested as `_int_mul` of the cleared factors, a nonzero multiple of
    it, with no reduction.
    """
    for i, p in enumerate(small):
        for q in small[i:]:
            product = _int_mul(p, q, field.tilde_modulus)
            if any(any(_int_dot(product, row, field)) for row, _ in rows):
                return False
    return True


def _killed_combinations(products, rows, field):
    """The combinations of `products` (over `field`, ascending distinct
    degrees) that every functional in `rows` (cleared monomial rows over
    `field` reaching the top degree) kills, as a generator: one reduction
    of the rows' values on the products, cleared over one denominator, and
    one combination per free column, the product there plus multiples of
    those at pivot columns below it.  They span the kernel, with the
    distinct leading degrees of the free columns.  Each is summed on the
    cleared products, when it is read: Σ (v_j/w)·(P_j/D) for the cleared
    kernel vector v/w and the products P_j/D over one denominator D."""
    cleared, den = _over_lcm([P.cleared() for P in products])
    values = _int_values([row for row, _ in rows], cleared, field)
    return (Poly.from_cleared(
                _int_combination(vec, cleared, field.tilde_modulus), w * den,
                field)
            for vec, w in cleared_nullspace(values, len(products), field))


_POLYNOMIAL_RING = SagbiBasis([Poly.x()])
_POLYNOMIAL_RING.conductor_roots = []       # its conductor is 1


def _cut(basis, conds):
    """(rank, kernel, closed, tops) for V = B ∩ ker(conds), B the algebra
    of `basis`: the rank of the conditions on B, elements of V (an
    iterable) with distinct leading degrees that include every minimal
    generator of its degrees, whether V is closed under multiplication,
    and [(p, N_p)] (see below).  `kernel_subalgebra` and `is_subalgebra_condition_set` cut
    K[x] (`_POLYNOMIAL_RING`) by all their conditions at once,
    `sagbi.sagbi_extend` an algebra by one.

    Let c be the conductor of B, N_p the top order the conditions read at
    the point p (`_JetTable`), h = ∏_p (x − p)^(N_p + 1) and D = deg c +
    Σ_p (N_p + 1) = deg c·h, read off the degrees (c·h is not built).
    c·K[x] ⊆ B, and a condition reads c·h·q at p only through its
    N_p-jet, which is zero, so c·h·K[x] ⊆ V: every degree ≥ D is in the
    semigroup S(V), whose conductor and smallest positive degree are then
    at most D, so its minimal generators are at most 2D − 1 and
    `read_off_basis` reads the SAGBI basis off `kernel`.  The degree
    products up to 2D − 1 span B_{<2D}, and the combinations of them that
    the conditions kill (`_killed_combinations`) span V_{<2D}; the
    conditions vanish on c·h·K[x] and B = B_{<D} ⊕ c·h·K[x], so the rank
    on B is the number of products less the number of combinations.
    Division by c·h gives V = V_{<D} ⊕ c·h·K[x], so V is an algebra iff
    every product of two combinations of degree < D satisfies every
    condition (`_closed_under_products`).

    For B = K[x] the products are x⁰ … x^(2D−1), whose cleared matrix is
    the identity, so the nullspace of the conditions' rows is V_{<2D}
    itself, each vector the cleared coefficients of its polynomial: x^d at
    its free column d plus terms at pivot columns below d.  The closure
    check multiplies the vectors; a Poly is built only when `kernel` is
    read, at the degrees that are no sum of two smaller positive ones (the
    minimal generators of S(V) when V is closed).
    """
    field = basis.field
    for L in conds:
        field = common_field(field, L.field)
    table = _JetTable([L.terms for L in conds], field)
    D = basis.conductor().degree + sum(top + 1 for top in table.tops.values())
    rows = table.rows(2 * D - 1)
    if basis is _POLYNOMIAL_RING:
        e, vectors = field.degree, {}
        for vec, w in cleared_nullspace([row for row, _ in rows], 2 * D,
                                        field):
            vec = _int_trim(vec, e)
            vectors[len(vec) // e - 1] = vec, w
        rank = 2 * D - len(vectors)
        small = [vec for d, (vec, _) in vectors.items() if 1 <= d < D]
        kernel = (Poly.from_cleared(vec, w, field)
                  for d, (vec, w) in vectors.items()
                  if d >= 1 and not any(1 <= a < d and d - a in vectors
                                        for a in vectors))
    else:
        products = [P.coerce_to(field)
                    for P in basis.degree_products(2 * D - 1)]
        kernel = list(_killed_combinations(products, rows, field))
        rank = len(products) - len(kernel)
        small = [p.cleared()[0] for p in kernel if 1 <= p.degree < D]
    return (rank, kernel, _closed_under_products(rows, small, field),
            [(table.points[i], top) for i, top in table.tops.items()])


def is_subalgebra_condition_set(conds):
    """Does the joint kernel of the conditions form a subalgebra?  Exact:
    the closure check of K[x] cut by them (`_cut`)."""
    return not conds or _cut(_POLYNOMIAL_RING, conds)[2]


class Subalgebra:
    """A finite-codimension subalgebra of K[x].

    Presented by generators or a SAGBI basis (`kernel_subalgebra` builds
    one from conditions and keeps them); the SAGBI basis, degree
    semigroup, codimension, conditions and spectrum are computed lazily
    and cached.  `conditions`, when given, must cut out A exactly, as
    `kernel_subalgebra` and `conditions()` set them (`_jet_image` reads them).
    """

    def __init__(self, generators=None, conditions=None, _sagbi=None):
        self._generators = list(generators or ()) or None
        self._conditions = list(conditions or ()) or None
        self._sagbi = _sagbi
        if self._generators is None and _sagbi is None:
            raise SubalgError("subalgebra needs generators or a SAGBI basis")
        self._spectra = {}
        self._char_poly = None

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
            self._conditions = conditions_from_subalgebra(
                self, self.spectrum())
        return self._conditions

    def conductor(self):
        """The conductor c of A (see `conductor`), cached on the SAGBI
        basis (`SagbiBasis.conductor`)."""
        return self.sagbi_basis().conductor()

    def char_poly(self):
        """χ of A, computed once; `conductor()` itself for ≤ 2 elements."""
        if self._char_poly is None:
            from .spectrum import characteristic_polynomial
            self._char_poly = characteristic_polynomial(self)
        return self._char_poly

    def spectrum(self, nf=None):
        """The spectrum over nf (default: the field of A; see
        `compute_spectrum`), computed once per field: a `SubalgError` it
        raised is kept and raised again."""
        key = self.field if nf is None else nf
        if key not in self._spectra:
            from .spectrum import compute_spectrum
            try:
                self._spectra[key] = compute_spectrum(self, nf=key)
            except SubalgError as exc:
                self._spectra[key] = exc
                raise
        spectrum = self._spectra[key]
        if isinstance(spectrum, SubalgError):
            raise spectrum.with_traceback(None)
        return spectrum

    def clusters(self, nf=None):
        """The clusters of `spectrum(nf)` (see `compute_clusters`)."""
        from .spectrum import compute_clusters
        return compute_clusters(self, self.spectrum(nf))

    def contains(self, f):
        rem, _ = subduce(f, self.sagbi_basis())
        return rem.degree < 1

    def __eq__(self, other):
        """Equal SAGBI degrees and A ⊆ B (A = self, B = other): equal
        degrees give equal semigroups, so codim A = codim B, and then
        A ⊆ B already gives A = B (B/A has dimension 0)."""
        if not isinstance(other, Subalgebra):
            return NotImplemented
        b1, b2 = self.sagbi_basis(), other.sagbi_basis()
        if b1.degrees != b2.degrees:
            return False
        return all(other.contains(e) for e in b1.elements)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.sagbi_basis().elements)
        return f"Subalgebra(<{gens}>)"


def kernel_subalgebra(conds):
    """The subalgebra of all polynomials satisfying the conditions: K[x]
    cut by all of them at once (`_cut`), with no completion.

    Fewer than n = len(conds) independent conditions raise
    DegenerateConditions, before closure is checked; a kernel that is not
    closed under multiplication raises NotSubalgebraConditions.  Otherwise
    the leading degrees of the kernel are closed under addition and the n
    pivots are exactly the gaps, so the semigroup has genus n, and the
    kernel elements at its minimal generators form the SAGBI basis.

    The conductor's zeros are read off the conditions onto the basis
    (`SagbiBasis.conductor_roots`).  With N_p the top order at which some
    condition reads p (`_JetTable`), c = ∏_p (x − p)^(N_p + 1): c·g has
    a zero N_p-jet at each p, so c·K[x] ⊆ A and the conductor c_A divides
    c.  Were ord_p c_A = k ≤ N_p, f = (x − p)^k·c/(x − p)^(N_p + 1) would
    be a multiple of c_A, and a condition with coefficient a ≠ 0 at
    (N_p, p) would read f·g as a·N_p! ≠ 0 for the g with f·g ≡ (x − p)^N_p
    mod (x − p)^(N_p + 1).  So c_A = c; its zeros are listed as
    `roots.field_roots` would: by order, then `_order_key`.
    """
    if not conds:
        raise SubalgError("kernel_subalgebra needs at least one condition")
    rank, kernel, closed, tops = _cut(_POLYNOMIAL_RING, conds)
    if rank < len(conds):
        raise DegenerateConditions(
            f"only {rank} of {len(conds)} conditions are independent",
            reduced_count=rank)
    if not closed:
        raise NotSubalgebraConditions(
            "kernel is not closed under multiplication: a product of two "
            "kernel elements fails a condition")
    basis = read_off_basis(kernel)
    basis.conductor_roots = sorted(((p, N + 1) for p, N in tops),
                                   key=lambda r: (r[1], _order_key(r[0])))
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
    """The monic c of least degree with c·K[x] ⊆ A, A the algebra of
    `basis`: 1 for K[x]; for two elements, their monic χ, one resultant
    (`resultants._lattice_gcd`); for more, one projection of the degree
    products.

    Two elements: A = K[e₁, e₂] is a plane curve with normalization K[x],
    F its relation, so c·K[x] = (F_Q(e₁, e₂)/e₁′)·K[x] = χ·K[x], by
    Dedekind's formula (Serre, *Groupes algébriques et corps de classes*,
    ch. IV) and the partial-derivative identity F_Q(e₁, e₂) = ∓χ·e₁′
    (acceptance criterion 3).

    More elements: let n be the codimension, d the smallest positive
    degree and D = 2n + d.  deg c ≤ 2n, so c is a combination of the
    degree products P_k, k ≤ 2n.  K[x] = ⊕_{i<d} x^i·K[P_d], so
    f·K[x] ⊆ A iff x^i·f ∈ A for 0 < i < d.  Each x^i·f has degree < D,
    and A_{<D} is the span of the P_k, k < D, so x^i·f ∈ A iff
    Σ_l f_l·λ_{l+i} = 0 for every functional λ on K[x]_{<D} that vanishes
    on them (`_vanishing`).  The combinations of the P_k, k ≤ 2n, that
    these shifted functionals kill (`_killed_combinations`) span
    c·K[x]_{≤2n−deg c}; the first, at the lowest free column, is a scalar
    times c.  No certificate is needed: every combination f has each
    x^i·f in the span of products of the elements, so f·K[x] lies in the
    algebra they generate even when they are not a SAGBI basis.  No
    combination at all means that they are not.
    """
    if basis.semigroup.genus == 0:
        return Poly.constant(basis.field.one, basis.field)
    if len(basis.elements) == 2:
        return _lattice_gcd(basis.elements, 0)
    d, field = basis.degrees[0], basis.field
    top, e = 2 * basis.semigroup.genus, field.degree
    products = basis.degree_products(top + d - 1)
    shifted = [(row[i * e:(i + top + 1) * e], w)
               for row, w in _vanishing(products, top + d, field)
               for i in range(1, d)]
    first = next(_killed_combinations(
        [P for P in products if P.degree <= top], shifted, field), None)
    if first is None:
        raise SubalgError(
            f"no conductor of degree <= {top}: the elements of degrees "
            f"{list(basis.degrees)} are not a SAGBI basis")
    return first.monic()


def _vanishing(products, D, field):
    """The functionals on K[x]_{<D} that vanish on the span of `products`
    (all of degree < D), as cleared monomial rows: the nullspace of the
    products' cleared rows."""
    e = field.degree
    return cleared_nullspace(
        [P.cleared()[0] + [0] * (e * (D - P.degree - 1)) for P in products],
        D, field)


def _jet_image(basis, points, field, conds=None):
    """(coords, rows): the image of A, the algebra of `basis`, on the jets
    (order o, point p) with o < ord_p c, c its conductor, over `field`;
    `coords` lists them highest order first (reduced rows with only order-0
    support then surface as differences), and the cleared `rows` span the
    image there.  The points must be the zeros of c, else SpectrumNotExact.

    Hermite interpolation maps K[x] onto K^coords with kernel c·K[x] ⊆ A.
    `conds` that cut out A vanish on c·K[x], so they read only coords and
    the image is their nullspace there; they give ord_p c = N_p + 1, N_p
    their top order at p (`_JetTable`; see `kernel_subalgebra`), so c is
    not built.  Else the rows are the jets of the degree products below
    deg c: A = A_{<deg c} ⊕ c·K[x], and c·K[x] is zero on coords.
    """
    points = [field.coerce(p) for p in points]
    if conds:
        table = _JetTable([L.terms for L in conds], field)
        at = [next((i for i, q in enumerate(table.points) if q == p), None)
              for p in points]
        orders = [table.tops.get(i, -1) + 1 for i in at]
        degree = sum(top + 1 for top in table.tops.values())
    else:
        basis = basis.coerce_to(field)
        c = basis.conductor()
        orders, degree = [c.order_at(p) for p in points], c.degree
    if 0 in orders or sum(orders) != degree:
        raise SpectrumNotExact("the points are not the zeros of the "
                               "conductor")
    columns = [(order, j)
               for order in range(max(orders, default=0) - 1, -1, -1)
               for j, k in enumerate(orders) if order < k]
    coords = [(order, points[j]) for order, j in columns]
    if conds:
        return coords, [vec for vec, _ in cleared_nullspace(
            [_int_scaled([terms.get((order, at[j]), field.zero)
                          for order, j in columns], field)[0]
             for terms in table.terms], len(coords), field)]
    jets, _ = _over_lcm([_jet_row(order, p, degree - 1, field)
                         for order, p in coords])
    return coords, _int_values(
        [P.cleared()[0] for P in basis.degree_products(degree - 1)],
        jets, field)


def _annihilator(image, coords, field):
    """Coefficient vectors v with Σ v_i f^(o_i)(p_i) = 0 on all of A, for
    the distinct (o_i, p_i) of `coords` in `field`, off A's `image`
    (`_jet_image`): one nullspace of the image rows on these columns, with
    a unit row at each column outside the image (an order ≥ ord_p c, or a
    point off the spectrum).  c·K[x] ⊆ A is zero on the image's columns
    and, by Hermite interpolation, takes any values on the others at once:
    v vanishes on A iff it is zero outside and kills the rows inside.  That
    is the solution space of the jets on A's degree products up to any
    large enough degree, so `nullspace` gives the same canonical vectors
    (1 at a free column), scale included.
    """
    image_coords, rows = image
    e = field.degree
    column = {u: i for i, u in enumerate(image_coords)}
    at = [column.get((order, field.coerce(p))) for order, p in coords]
    equations = [[x for i in at
                  for x in ([0] * e if i is None else row[i * e:(i + 1) * e])]
                 for row in rows]
    equations += [[int(k == j * e) for k in range(e * len(at))]
                  for j, i in enumerate(at) if i is None]
    return nullspace(equations, len(coords), field)


def conditions_from_subalgebra(A, spectrum):
    """Independent conditions cutting out A, derived from its spectrum.

    With c the conductor of A, the conditions are the reduced basis of the
    functionals on A's jets below c that vanish on A (`_jet_image`): every
    condition vanishes on c·K[x], so it reads only those jets, and codim(A)
    of them are independent.  Order-0 parts are rewritten as point
    differences where possible.  The points must be exactly the zeros of
    c; for K[x] (c = 1, no points) the list is empty.
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
    coords, rows = _jet_image(basis, points, field, A._conditions)
    W, _ = rref([v for v, _ in cleared_nullspace(rows, len(coords), field)],
                len(coords), field)

    functionals = []
    for vec in W:
        terms = [(order, point, coeff) for (order, point), coeff
                 in zip(coords, vec) if not is_zero_scalar(coeff)]
        if len(terms) == 2 and terms[0][0] == 0 and terms[1][0] == 0 \
                and is_zero_scalar(terms[0][2] + terms[1][2]):
            functionals.append(
                LinearFunctional.difference(terms[0][1], terms[1][1]))
        else:
            functionals.append(LinearFunctional.derivative_combo(terms))
    return _normalize_conditions(functionals)


def intersect_and_join(A1, A2):
    """(A1 ∩ A2, algebra generated by A1 ∪ A2).

    The intersection is one projection, as in `sagbi.sagbi_extend`, and
    reads no spectrum.  With c₁, c₂ the conductors, h = lcm(c₁, c₂) and
    D = deg h, h·K[x] lies in both algebras, so division by h gives
    A1 ∩ A2 = (A1_{<D} ∩ A2_{<D}) ⊕ h·K[x].  The nullspace of the degree
    products of A2 below D is the functionals on K[x]_{<D} that vanish on
    A2 (`_vanishing`); the combinations of the degree products of A1 below D that they
    kill (`_killed_combinations`) span A1_{<D} ∩ A2, one per leading
    degree.  The SAGBI basis is read off those and h·x^j for
    j < max(D, 2), which fill the degrees D, …, 2D − 1 (and give x when
    D = 0).  An intersection of algebras is an algebra, so no closure is
    checked.  The join is the SAGBI completion of the union of the
    generators.
    """
    A1, A2 = Subalgebra.of(A1), Subalgebra.of(A2)
    field = common_field(A1.field, A2.field)
    b1, b2 = (A.sagbi_basis().coerce_to(field) for A in (A1, A2))
    c1, c2 = b1.conductor(), b2.conductor()
    h = (c1 * c2).exact_div(poly_gcd(c1, c2))
    D = h.degree
    vanishing = _vanishing(b2.degree_products(D - 1), D, field)
    fill = [h.shift(j) for j in range(max(D, 2))]
    intersection = Subalgebra(_sagbi=read_off_basis(
        [*_killed_combinations(b1.degree_products(D - 1), vanishing, field),
         *fill]))

    gens = list(A1.sagbi_basis().elements) + list(A2.sagbi_basis().elements)
    join_basis = sagbi_complete(gens)
    if join_basis.semigroup.genus == 0 and 1 in join_basis.degrees:
        # the join is all of K[x]; present it canonically
        join_basis = SagbiBasis([Poly.x(join_basis.field)])
    return intersection, Subalgebra(_sagbi=join_basis)
