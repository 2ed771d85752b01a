"""Command-line behavior: output shapes, exit codes, determinism."""

import json
import math

import pytest

from cliffex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_appell_text_output(capsys):
    code, out, _ = run(capsys, "appell", "--n", "3", "--k", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x0 + 1/3 r w"
    assert lines[1] == "c[0] = 1"
    assert lines[2] == "c[1] = 1/3"


def test_appell_degree_zero(capsys):
    code, out, _ = run(capsys, "appell", "--n", "3", "--k", "0")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_appell_json_output(capsys):
    code, out, _ = run(capsys, "appell", "--n", "3", "--k", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["text"] == "x0^2 + 2/3 x0 r w - 1/3 r^2"
    assert data["c_table"][2] == {"k": 2, "c": "1/3"}


def test_even_dimension_is_a_parse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["appell", "--n", "4", "--k", "1"])
    assert excinfo.value.code != 0
    assert "n must be odd (> 1)" in capsys.readouterr().err


def test_fueter_normalized_output(capsys):
    code, out, _ = run(capsys, "fueter", "--n", "3", "--k", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x0 + 1/3 r w"
    assert lines[1] == "alpha = -1/6"


def test_fueter_below_threshold(capsys):
    code, out, _ = run(capsys, "fueter", "--n", "3", "--k", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0"
    assert "k < n-1" in lines[1]


def test_fueter_raw_output(capsys):
    code, out, _ = run(capsys, "fueter", "--n", "5", "--k", "4", "--raw")
    assert code == 0
    assert out.splitlines()[0] == "8"


def test_verify_theorem1_passes(capsys):
    code, out, _ = run(capsys, "verify", "theorem1", "--n", "3", "--kmax", "15")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_verify_recurrence_exp(capsys):
    code, out, _ = run(capsys, "verify", "recurrence", "--series", "exp", "--n", "3", "--K", "40")
    assert code == 0
    assert "gamma = 1" in out
    assert out.splitlines()[-1] == "PASS"


def test_verify_recurrence_geometric_fails_with_violation(capsys):
    code, out, _ = run(
        capsys, "verify", "recurrence", "--series", "geometric", "--n", "3", "--K", "10"
    )
    assert code == 1
    assert out.splitlines()[-1] == "FAIL"
    assert "a_3 = 1" in out


def test_compare_emits_schema_json(capsys):
    code, out, _ = run(capsys, "compare", "--n", "3", "--series", "exp", "--K", "40")
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True
    assert data["gamma"] == "1"
    assert data["first_violation"] is None
    assert len(data["coefficients"]) == 41
    assert all(row["equal"] for row in data["coefficients"])


def test_eval_closed_form_exp(capsys):
    code, out, _ = run(
        capsys, "eval", "--n", "3", "--closed-form", "--gamma", "1", "--init", "1,1", "--z", "1"
    )
    assert code == 0
    assert abs(float(out.strip()) - math.e) < 1e-12


def test_eval_closed_form_at_zero_is_exact(capsys):
    code, out, _ = run(
        capsys, "eval", "--n", "3", "--closed-form", "--gamma", "1", "--init", "1,1", "--z", "0"
    )
    assert code == 0
    assert out.strip() == "1"


def test_eval_series_at_point(capsys):
    code, out, _ = run(capsys, "eval", "--n", "3", "--series", "sinh", "--point", "0,1,0,0")
    assert code == 0
    value = out.strip()
    assert value.endswith("e1")
    magnitude = float(value.split()[0])
    assert abs(magnitude - 0.301168678939757) < 1e-12


def test_eval_point_dimension_mismatch(capsys):
    code, _, err = run(capsys, "eval", "--n", "3", "--series", "exp", "--point", "0,1")
    assert code == 2
    assert "coordinates" in err


def test_eval_closed_form_requires_parameters(capsys):
    code, _, err = run(capsys, "eval", "--n", "3", "--closed-form", "--z", "1")
    assert code == 2
    assert "error" in err


def test_coefficient_file_round_trip(tmp_path, capsys):
    path = tmp_path / "series.txt"
    path.write_text(
        "# exponential prefix, then zeros\n"
        "1\n"
        "1\n"
        "1/2  # a_2\n"
        "1/6\n"
    )
    code, out, _ = run(
        capsys, "verify", "recurrence", "--coeffs", str(path), "--n", "3", "--K", "5"
    )
    assert code == 1  # finite truncation of exp violates the recurrence eventually
    code2, out2, _ = run(capsys, "compare", "--n", "3", "--coeffs", str(path), "--K", "3")
    assert code2 == 0
    data = json.loads(out2)
    assert data["coefficients"][2]["eta"] == "1/2"


def test_lmax_environment_variable_caps_summation(capsys, monkeypatch):
    monkeypatch.setenv("CLIFFEX_LMAX", "1")
    code, _, err = run(
        capsys, "eval", "--n", "3", "--closed-form", "--gamma", "1", "--init", "1,1", "--z", "2"
    )
    assert code == 2
    assert "error" in err
    monkeypatch.delenv("CLIFFEX_LMAX")
    code_ok, out, _ = run(
        capsys, "eval", "--n", "3", "--closed-form", "--gamma", "1", "--init", "1,1", "--z", "2"
    )
    assert code_ok == 0
    assert abs(float(out.strip()) - math.exp(2)) < 1e-12


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "compare", "--n", "5", "--series", "cosh", "--K", "12")
    _, second, _ = run(capsys, "compare", "--n", "5", "--series", "cosh", "--K", "12")
    assert first == second
    _, a1, _ = run(capsys, "appell", "--n", "7", "--k", "6")
    _, a2, _ = run(capsys, "appell", "--n", "7", "--k", "6")
    assert a1 == a2


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nosuchsuite", "--n", "3"])


@pytest.mark.parametrize(
    "argv",
    [
        ("appell", "--n", "3", "--k", "-1"),
        ("fueter", "--n", "3", "--k", "-1"),
        ("verify", "theorem1", "--n", "3", "--kmax", "-1"),
        ("verify", "monogenic", "--n", "5", "--kmax", "-2"),
        ("verify", "recurrence", "--n", "3", "--K", "-1"),
        ("verify", "closed-form", "--n", "3", "--M", "-1"),
        ("compare", "--n", "3", "--K", "-1"),
        ("eval", "--n", "3", "--series", "exp", "--point", "0,1,0,0", "--K", "-1"),
    ],
)
def test_negative_sizes_are_user_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be nonnegative" in err
    assert len(err.splitlines()) == 1


def test_coefficient_file_division_by_zero_names_the_line(tmp_path, capsys):
    path = tmp_path / "series.txt"
    path.write_text("# header\n1\n\n1/0  # broken\n1/2\n")
    code, out, err = run(capsys, "compare", "--n", "3", "--coeffs", str(path), "--K", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "line 4" in err and "'1/0'" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--n", "3", "--series", "exp", "--point", "1e400,0,0,0"),
        ("eval", "--n", "3", "--series", "exp", "--point", "0,0,1e400,0"),
        ("eval", "--n", "3", "--series", "exp", "--point", "1e200,0,0,0"),
        ("eval", "--n", "3", "--closed-form", "--gamma", "1", "--init", "1,1", "--z", "1e400"),
    ],
)
def test_overflowing_float_evaluation_is_a_user_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: float evaluation overflowed")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("tolerance", ["0", "-1", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--n", "3", "--closed-form", "--gamma", "1", "--init", "1,1", "--z", "1"),
        ("eval", "--n", "3", "--series", "exp", "--point", "0,1,0,0"),
        ("verify", "closed-form", "--n", "3", "--M", "10"),
    ],
)
def test_tolerance_must_be_finite_and_positive(capsys, argv, tolerance):
    code, out, err = run(capsys, *argv, "--tolerance=" + tolerance)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --tolerance must be a finite number > 0")
    assert len(err.splitlines()) == 1


def test_negative_lmax_environment_variable_is_a_user_error(capsys, monkeypatch):
    monkeypatch.setenv("CLIFFEX_LMAX", "-3")
    code, out, err = run(
        capsys, "eval", "--n", "3", "--closed-form", "--gamma", "1", "--init", "1,1", "--z", "2"
    )
    assert code == 2
    assert out == ""
    assert err == "error: CLIFFEX_LMAX must be nonnegative, got '-3'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--n", "3", "--closed-form", "--gamma", "1", "--init", "1,1", "--z", "1e100"),
        ("eval", "--n", "3", "--closed-form", "--gamma", "1e300", "--init", "1,1", "--z", "1e10"),
    ],
)
def test_closed_form_z_beyond_the_float_range_is_a_user_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "float range" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "suite, lines",
    [
        (
            "theorem1",
            [
                "ok   tau_5[z^(k+4)] = P_k^5 exactly for k = 0..15",
                "ok   tau_5[z^k] = 0 for all k < 4",
            ],
        ),
        (
            "monogenic",
            [
                "ok   vekua_residual(P_k^5) = (0, 0) for k = 0..30",
                "ok   expanded D P_k^5 = 0 (full operator) for k = 0..8",
            ],
        ),
        (
            "appell-property",
            [
                "ok   d/dx0 P_k^5 = k P_(k-1)^5 for k = 1..30",
                "ok   P_k^5(1) = 1 for k = 0..30",
            ],
        ),
    ],
)
def test_verify_without_kmax_uses_the_suite_default(capsys, suite, lines):
    code, out, err = run(capsys, "verify", suite, "--n", "5")
    assert code == 0
    assert err == ""
    assert out.splitlines() == lines + ["PASS"]
