"""Subalgebras of finite codimension in K[x].

Exact computation of SAGBI bases, degree semigroups, characteristic
polynomials, spectra and clusters, linear conditions, point derivations,
and classification of subalgebras of codimension up to three — over the
rationals or a number field Q[t]/(m), with a brute-force linear-algebra
oracle for cross-validation.
"""

from .classify import (ClassificationResult, canonical_case_basis, classify,
                       construct_case, type_of)
from .conditions import (LinearFunctional, Subalgebra,
                         conditions_from_subalgebra, intersect_and_join,
                         is_subalgebra_condition_set, kernel_subalgebra)
from .derivations import (DerivationSpace, NOT_INTEGRAL,
                          conjecture_dim_check, derivation_space,
                          integral_derivation, k_alpha, ln_coefficients)
from .errors import ParseError, SubalgError
from .fields import FieldElem, NumberField, QQ
from .oracle import (oracle_codimension, oracle_member,
                     oracle_multi_char_roots, oracle_span)
from .parsing import parse_expr, parse_poly, parse_scalar
from .poly import Poly, format_poly, poly_gcd, squarefree_decompose
from .resultants import (char_poly_multi, char_poly_pair,
                         divided_difference, resultant_relation,
                         resultant_y)
from .roots import aberth_roots, field_roots, rational_roots
from .sagbi import SagbiBasis, membership, sagbi_complete, subduce
from .semigroup import (DegreeSemigroup, NOT_MEMBER,
                        genus3_type_enumeration)
from .spectrum import (Cluster, SpectrumPoint, characteristic_polynomial,
                       compute_clusters, compute_spectrum,
                       deg2_description, deg2_from_description,
                       spectrum_size_check)
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "ClassificationResult", "Cluster", "DegreeSemigroup", "DerivationSpace",
    "FieldElem", "LinearFunctional", "NOT_INTEGRAL", "NOT_MEMBER",
    "NumberField", "ParseError", "Poly", "QQ", "SagbiBasis", "SpectrumPoint",
    "SubalgError", "Subalgebra", "aberth_roots", "canonical_case_basis",
    "char_poly_multi", "char_poly_pair", "characteristic_polynomial",
    "classify", "compute_clusters", "compute_spectrum",
    "conditions_from_subalgebra", "conjecture_dim_check", "construct_case",
    "deg2_description", "deg2_from_description", "derivation_space",
    "divided_difference", "field_roots", "format_poly",
    "genus3_type_enumeration", "integral_derivation",
    "intersect_and_join", "is_subalgebra_condition_set", "k_alpha",
    "kernel_subalgebra", "ln_coefficients", "membership",
    "oracle_codimension", "oracle_member", "oracle_multi_char_roots",
    "oracle_span", "parse_expr", "parse_poly", "parse_scalar", "poly_gcd",
    "rational_roots", "resultant_relation", "resultant_y", "run_verify",
    "sagbi_complete", "spectrum_size_check", "squarefree_decompose",
    "subduce", "type_of",
]
