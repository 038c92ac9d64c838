"""End-to-end command-line tests, run in process via main(argv)."""

import json

import pytest

from charbound.cli import main

from conftest import fixture_path

FIG8_SL2 = str(fixture_path("figure_eight_sl2.json"))
FIG8_SL3 = str(fixture_path("figure_eight_sl3.json"))
HANDLEBODY = str(fixture_path("handlebody_f2_sl2.json"))


def test_bound_basic(capsys):
    assert main(["bound", "--n", "2", "--t", "1", "--chi", "0"]) == 0
    out = capsys.readouterr().out
    assert "= 1" in out
    assert "SL(2)" in out


def test_bound_json(capsys):
    assert main(["bound", "--json", "--n", "3", "--t", "1", "--chi", "-1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["general_bound"] == 10
    assert payload["sl_n_bound"] == 10
    assert payload["d"] == 8 and payload["r"] == 2 and payload["z"] == 0


def test_global_flag_before_subcommand(capsys):
    # --json lives on both the main parser and the subparsers
    assert main(["--json", "bound", "--n", "2", "--t", "0", "--chi", "-1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["general_bound"] == 3


def test_certify_fixture(capsys):
    assert main(["certify", FIG8_SL2]) == 0
    out = capsys.readouterr().out
    assert "verdict: BOUND_MET" in out
    assert "estimated dim X0 = 1" in out
    assert "bound  r*t - d*chi + z = 1" in out


def test_certify_json(capsys):
    assert main(["certify", "--json", FIG8_SL2]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "BOUND_MET"
    assert payload["dim_X0_estimate"] == 1
    assert payload["bound"]["general_bound"] == 1
    assert payload["tangent"]["dim_Z1"] == 4
    assert payload["structure"]["irreducible"] is True


def test_certify_sl3_fixture(capsys):
    assert main(["certify", "--json", FIG8_SL3]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_X0_estimate"] == 2
    assert payload["bound"]["general_bound"] == 2


def test_certify_missing_file(capsys):
    assert main(["certify", "/nonexistent/input.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_certify_reducible_input_exits_2(tmp_path, capsys):
    # same-letter diagonal images kill the relator exactly but are reducible
    doc = {
        "group": {"family": "SL", "n": 2},
        "presentation": {
            "generators": ["a", "b"],
            "relators": ["abAbaBAbAB"],
        },
        "representation": {
            "a": [[[2, 0], [0, 0]], [[0, 0], [0.5, 0]]],
            "b": [[[2, 0], [0, 0]], [[0, 0], [0.5, 0]]],
        },
    }
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps(doc))
    assert main(["certify", str(path)]) == 2
    assert "HYPOTHESES_NOT_MET" in capsys.readouterr().out


def test_certify_wrong_chi_exits_1(tmp_path, capsys):
    with open(FIG8_SL2) as fh:
        doc = json.load(fh)
    doc["euler_characteristic"] = -1
    path = tmp_path / "wrong_chi.json"
    path.write_text(json.dumps(doc))
    with pytest.warns(UserWarning):
        code = main(["certify", str(path)])
    assert code == 1
    assert "BOUND_VIOLATION_SUSPECT_INPUT" in capsys.readouterr().out


def test_certify_coarse_tol_exits_3(capsys):
    assert main(["certify", "--tol-rank", "0.2", FIG8_SL2]) == 3
    assert "UNRELIABLE" in capsys.readouterr().out
    # same flag accepted before the subcommand
    assert main(["--tol-rank", "0.2", "certify", FIG8_SL2]) == 3


def test_survey_basic(capsys):
    assert main(["survey", FIG8_SL2, "--samples", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "estimate multiset" in out
    assert "3 samples" in out


def test_survey_json(capsys):
    assert main(["survey", "--json", FIG8_SL2,
                 "--samples", "4", "--seed", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["num_samples"] == 4
    assert payload["estimate_counts"] == {"1": 4}
    assert payload["errors"] == []
    assert payload["verdicts"] == ["BOUND_MET"] * 4


def test_goldman_check(capsys):
    assert main(["goldman-check", "--genus", "2", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "expected dim Z1 = (2g-1)d + z = 9" in out
    assert "ok" in out


def test_goldman_check_json(capsys):
    assert main(["goldman-check", "--json", "--genus", "2", "--n", "3",
                 "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["expected_dim_Z1"] == 24
    assert payload["dim_Z1"] == 24
    assert payload["ok"] is True


def test_json_key_order(capsys):
    assert main(["certify", "--json", FIG8_SL3]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["residual", "structure", "tangent", "manifold",
                             "bound", "dim_X0_estimate", "verdict"]
    assert list(payload["structure"]) == [
        "centralizer_dim_full_image", "peripheral_centralizer_dims",
        "irreducible", "boundary_regular"]
    assert list(payload["tangent"]) == [
        "jacobian_rank", "dim_Z1", "dim_B1", "dim_H1", "deficiency_floor",
        "singular_values_margin", "reliable"]
    assert list(payload["manifold"]) == ["torus_count", "euler_characteristic"]
    assert list(payload["bound"]) == ["general_bound", "formula_used", "t",
                                      "chi", "d", "r", "z"]
    assert main(["bound", "--json", "--n", "3", "--t", "1", "--chi", "-1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["general_bound", "formula_used", "t", "chi", "d",
                             "r", "z", "sl_n_bound"]
    assert main(["goldman-check", "--json", "--genus", "2", "--n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["genus", "n", "expected_dim_Z1", "dim_Z1",
                             "residual", "margin", "attempts", "ok"]


def test_fox_selftest(capsys):
    assert main(["fox-selftest", "--pairs", "3", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "3 random pairs" in out


def test_fox_selftest_json(capsys):
    assert main(["fox-selftest", "--json", "--pairs", "2", "--seed", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["max_deviation"] < 1e-6


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_ambiguous_abbreviation_rejected():
    # allow_abbrev is off, so --tol must not silently match --tol-rank
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--tol", "0.1", FIG8_SL2])
    assert exc.value.code == 2
