from fractions import Fraction as F

import pytest

from case_draws import family_draws
from subalg.classify import (CASES, canonical_case_basis, classify,
                             construct_case, type_of)
from subalg.conditions import LinearFunctional, Subalgebra, kernel_subalgebra
from subalg.derivations import conjecture_dim_check
from subalg.errors import (ClassificationError, ParameterDegeneracy,
                           UnsupportedCodimension)
from subalg.fields import NumberField
from subalg.parsing import parse_poly as P


def test_case_table_well_formed():
    assert len(CASES) == 26
    for label, case in CASES.items():
        assert case["codim"] in (1, 2, 3)
        assert case["params"]
        assert case["types"], label


def test_construct_basic_families():
    A = construct_case("codim1/deriv", {"gamma": F(0)})
    assert type_of(A) == (2, 3) and A.codimension() == 1
    A = construct_case("codim2/s=1", {"alpha": F(0), "a": F(3), "b": F(1)})
    assert type_of(A) == (3, 4, 5) and A.codimension() == 2


def test_construct_rejects_degenerate_parameters():
    with pytest.raises(ParameterDegeneracy):
        construct_case("codim1/pair", {"alpha": F(1), "beta": F(1)})
    with pytest.raises(ParameterDegeneracy):
        construct_case("codim2/s=1", {"alpha": F(0), "a": F(0), "b": F(0)})


def test_an_unknown_label_is_a_classification_error():
    for build in (construct_case, canonical_case_basis):
        with pytest.raises(ClassificationError, match="codim9/bogus"):
            build("codim9/bogus", {})


def test_canonical_basis_degrees_match_type():
    ty, basis = canonical_case_basis(
        "codim3/s=1/case2", {"alpha": F(0), "a": F(1), "d": F(0)})
    assert ty == (3, 5, 7)
    assert sorted(e.degree for e in basis) == [3, 5, 7]


def test_classify_round_trip_simple():
    for label, params in (
        ("codim1/deriv", {"gamma": F(2)}),
        ("codim1/pair", {"alpha": F(0), "beta": F(3)}),
        ("codim2/s=2-deriv", {"alpha": F(0), "beta": F(1)}),
    ):
        A = construct_case(label, params)
        result = classify(A)
        assert result.label == label
        assert result.type == type_of(A)
        assert construct_case(label, result.parameters) == A


def test_classify_full_algebra():
    result = classify(Subalgebra.from_generators([P("x")]))
    assert result.codimension == 0


def test_classify_rejects_high_codimension():
    A = Subalgebra.from_generators([P("x^4"), P("x^5")])
    with pytest.raises(UnsupportedCodimension):
        classify(A)


def test_classify_generated_algebra():
    A = Subalgebra.from_generators([P("x^3 - x"), P("x^2")])
    result = classify(A)
    assert result.label == "codim1/pair"
    assert sorted((result.parameters["alpha"],
                   result.parameters["beta"])) == [F(-1), F(1)]


def test_classify_over_number_field():
    nf = NumberField([1, 0, -1, 0, 1], label="t^4-t^2+1")
    A = Subalgebra.from_generators([P("x^4 - x^2"), P("x^3")])
    result = classify(A, nf=nf)
    assert result.label == "codim3/s=5/case2"
    assert result.type == (3, 4) == type_of(A)
    B = construct_case(result.label, result.parameters)
    assert sorted(B.sagbi_basis().degrees) == [3, 4]


def test_classification_result_json():
    A = construct_case("codim1/deriv", {"gamma": F(1)})
    payload = classify(A).to_json()
    import json
    json.dumps(payload)
    assert payload["label"] == "codim1/deriv"


def test_gaussian_image_with_a_linear_factor_round_trips():
    # the Q(i) draw moved by x -> x + 1: its conductor keeps the linear
    # factor x - (1 + t) over Q(i), whose root is none of the trial roots
    label, params = next((label, params) for label, params in family_draws()
                         if any(hasattr(v, "field")
                                for v in params.values()))
    moved = {k: v + 1 if k in ("alpha", "beta", "gamma") else v
             for k, v in params.items()}
    A = construct_case(label, moved)
    result = classify(A)
    assert result.label == label
    assert construct_case(result.label, result.parameters) == A
    report = conjecture_dim_check(A, moved["alpha"])
    assert report["k_alpha"] == report["dim_combo"] == 2
