import json

import pytest

from subalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_charpoly(capsys):
    code, out, _ = run(capsys, "charpoly", "x^3 - x", "x^2")
    assert code == 0 and out.strip() == "x^2 - 1"


def test_charpoly_json(capsys):
    code, out, _ = run(capsys, "charpoly", "x^3 - x", "x^2", "--json")
    assert code == 0
    assert json.loads(out)["charpoly"] == "x^2 - 1"


def test_semigroup(capsys):
    code, out, _ = run(capsys, "semigroup", "3", "4")
    assert code == 0
    assert "gaps: 1, 2, 5" in out and "genus: 3" in out


def test_member(capsys):
    code, out, _ = run(capsys, "member", "x^7 - x",
                       "--algebra", "x^3 - x", "x^2")
    assert code == 0 and "member" in out
    code, out, _ = run(capsys, "member", "x",
                       "--algebra", "x^3 - x", "x^2")
    assert code == 0 and "not a member" in out


def test_sagbi(capsys):
    code, out, _ = run(capsys, "sagbi", "x^3 - x", "x^2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["codimension"] == 1 and data["degrees"] == [2, 3]


def test_spectrum(capsys):
    code, out, _ = run(capsys, "spectrum", "x^3 - x", "x^2", "--json")
    assert code == 0
    values = {p["value"] for p in json.loads(out)["points"]}
    assert values == {"1", "-1"}


def test_classify_with_field(capsys):
    code, out, _ = run(capsys, "classify", "x^4 - x^2", "x^3",
                       "--field", "t^4 - t^2 + 1")
    assert code == 0
    assert "codim3/s=5/case2" in out and "(3, 4)" in out


def test_construct(capsys):
    code, out, _ = run(capsys, "construct", "codim1/pair",
                       "alpha=1", "beta=-1")
    assert code == 0 and "(2, 3)" in out


def test_ln_coeffs(capsys):
    code, out, _ = run(capsys, "ln-coeffs", "13", "--json")
    assert code == 0
    assert json.loads(out)["coefficients"]["8"] == -294


def test_kernel_from_file(tmp_path, capsys):
    path = tmp_path / "conds.json"
    conds = [{"kind": "deriv",
              "terms": [{"order": o, "point": "0", "coeff": "1"}]}
             for o in (1, 2, 5)]
    path.write_text(json.dumps(conds))
    code, out, _ = run(capsys, "kernel", "--conditions", str(path))
    assert code == 0 and "codimension: 3" in out


def test_kernel_rejects_bound_flag(tmp_path, capsys):
    path = tmp_path / "conds.json"
    path.write_text(json.dumps([{"kind": "diff", "alpha": "0",
                                 "beta": "1"}]))
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--bound", "3", "--conditions", str(path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bound" in capsys.readouterr().err


def test_spectrum_rejects_tol_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "x^2", "x^3", "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "charpoly", "x +", "x^2")
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "charpoly", "1/0", "x^2")
    assert code == 2 and "division by zero" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "classify", "x^4", "x^5")
    assert code == 3 and "error" in err


def test_an_unsplit_factor_outside_q_exits_3(capsys):
    code, _, err = run(capsys, "spectrum", "x^2 - t", "x^3 + t*x",
                       "--field", "t^2+1")
    assert code == 3 and "SpectrumNotExact" in err


def test_malformed_condition_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    code, _, err = run(capsys, "kernel", "--conditions", str(path))
    assert code == 2


def test_derivations(capsys):
    code, out, _ = run(capsys, "derivations", "x^3", "x^4",
                       "--alpha", "0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["k_alpha"] == data["dimension"] == 2
