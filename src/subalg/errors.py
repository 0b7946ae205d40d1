"""Exception hierarchy shared across the library.

Every error that a caller may reasonably want to catch programmatically has
its own class; they all derive from :class:`SubalgError` so that the CLI can
map any domain failure to a single exit code.
"""


class SubalgError(Exception):
    """Base class for all domain errors raised by this library."""


# --- arithmetic ---------------------------------------------------------

class FieldMismatch(SubalgError):
    """Operands live over incompatible coefficient fields."""


class DivisionByZeroPoly(SubalgError):
    """Polynomial division by the zero polynomial."""


class NonInvertible(SubalgError):
    """An element of Q[t]/(m) has no inverse: m is not irreducible over the
    subfield actually needed.  Reported, never silently ignored."""


class BothZero(SubalgError):
    """gcd of two zero polynomials requested."""


class ZeroInput(SubalgError):
    """Operation undefined for the zero polynomial."""


# --- resultants ---------------------------------------------------------

class ConstantInput(SubalgError):
    """A nonconstant polynomial was required."""


class ZeroPolynomialInY(SubalgError):
    """Resultant input is identically zero as a polynomial in y."""


class FewerThanTwoGenerators(SubalgError):
    """char_poly_multi needs at least two nonconstant generators."""


class DegreesNotCoprime(SubalgError):
    """resultant_relation requires coprime degrees."""


# --- roots --------------------------------------------------------------

class NonConvergence(SubalgError):
    """Numeric root iteration failed to reach the residual tolerance."""


# --- semigroup / sagbi --------------------------------------------------

class InfiniteCodimension(SubalgError):
    """The subalgebra has infinite codimension: its degree semigroup has
    gcd > 1 (the generators' χ is 0; see `sagbi_complete`)."""


class ConditionVanishesOnB(SubalgError):
    """sagbi_extend got a functional that is identically zero on B
    (exact: it vanishes on every degree product of B up to degree 2D − 1;
    see `conditions._cut`)."""


# --- conditions ---------------------------------------------------------

class NotSubalgebraConditions(SubalgError):
    """The condition list does not cut out a subalgebra (kernel_subalgebra),
    or a functional's kernel in an algebra B is not closed under
    multiplication (sagbi_extend)."""


class DegenerateConditions(SubalgError):
    """Linearly dependent conditions: actual codimension is smaller.

    The reduced (true) count is carried in :attr:`reduced_count`.
    """

    def __init__(self, message, reduced_count=None):
        super().__init__(message)
        self.reduced_count = reduced_count


class SpectrumNotExact(SubalgError):
    """An exact spectrum was required but only numeric roots are known."""


# --- spectrum -----------------------------------------------------------

class UnpairedRoot(SubalgError):
    """A root of the candidate characteristic polynomial is neither
    derivative-kind nor pairable with a partner root."""


class BoundViolated(SubalgError):
    """|Sp(A)| exceeded 2 * codim."""


class NoDegreeTwoElement(SubalgError):
    """deg2_description requires a monic degree-2 element in A."""


# --- derivations --------------------------------------------------------

class NoStabilization(SubalgError):
    """A dimension computation failed to stabilize below its degree cap."""


class EvenInput(SubalgError):
    """ln_coefficients requires an odd index."""


# --- classify -----------------------------------------------------------

class UnsupportedCodimension(SubalgError):
    """Classification is implemented only for codimension <= 3."""


class ParameterDegeneracy(SubalgError):
    """Case parameters violate a side condition (e.g. required a != b)."""


class ClassificationError(SubalgError):
    """No case table entry matched the computed invariants."""


# --- oracle -------------------------------------------------------------

class InfiniteSolutionSet(SubalgError):
    """The joint system P_i(x, y) = 0 has a common y-factor, hence
    infinitely many solutions (common composition factor)."""


# --- cli ----------------------------------------------------------------

class ParseError(SubalgError):
    """Expression syntax error; carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class UnknownSymbol(ParseError):
    """'t' used without a declared number field."""
