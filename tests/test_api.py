from fractions import Fraction as F

import pytest

import subalg
from subalg.classify import type_of
from subalg.conditions import Subalgebra
from subalg.derivations import conjecture_dim_check, derivation_space, k_alpha
from subalg.errors import SubalgError
from subalg.parsing import parse_poly as P
from subalg.sagbi import membership
from subalg.spectrum import deg2_description, spectrum_size_check


def _pair_algebra():
    return Subalgebra.from_generators([P("x^2"), P("x^3 - x")])


def _answers(A):
    space = derivation_space(A, F(1))
    return {
        "derivation_space": (space.k_alpha, repr(space.combo_basis),
                             space.quotient_witnesses),
        "k_alpha": k_alpha(A, F(1)),
        "conjecture_dim_check": conjecture_dim_check(A, F(1)),
        "type_of": type_of(A),
        "membership": (membership(P("x^7 - x"), A),
                       membership(P("x"), A)),
        "spectrum_size_check": spectrum_size_check(A),
        "deg2_description": deg2_description(A),
    }


@pytest.mark.parametrize("shape", ["subalgebra", "sagbi_basis"])
def test_algebra_shapes_agree(shape):
    A = _pair_algebra()
    given = A if shape == "subalgebra" else A.sagbi_basis()
    answers = _answers(given)
    assert answers == _answers(_pair_algebra())
    # alpha = 1 is paired with -1: both points carry a derivation
    assert answers["derivation_space"][0] == 2
    assert answers["conjecture_dim_check"]["equal"]


def test_of_accepts_generators_and_rejects_other_values():
    A = _pair_algebra()
    assert Subalgebra.of(A) is A
    assert Subalgebra.of(A.sagbi_basis()) == A
    assert Subalgebra.of([P("x^2"), P("x^3 - x")]) == A
    for bad in (3, [], [3, 4]):
        with pytest.raises(SubalgError):
            Subalgebra.of(bad)


def test_constructor_rejects_empty_generators():
    for gens in ([], (), iter([])):
        with pytest.raises(SubalgError):
            Subalgebra(generators=gens)


def test_every_export_resolves():
    missing = [name for name in subalg.__all__
               if not hasattr(subalg, name)]
    assert missing == []
