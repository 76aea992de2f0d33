"""End-to-end command-line behavior, output schemas, and exit codes."""

import json
from pathlib import Path

import pytest

from galring.cli import main

DATA = Path(__file__).parent / "data"
GR42_S1 = ("-p", "2", "-a", "2", "-m", "2", "-s", "1", "--gamma", "0,3")
Z4_S2 = ("-p", "2", "-a", "2", "-m", "1", "-s", "2", "--gamma", "3")
# recorded outputs; the GR(4,2) words pin the integer-encoding word order
GOLDEN = (
    ("code_gr42_s1_i1", ("code", *GR42_S1, "-i", "1", "--words")),
    ("dual_gr42_s1_i3", ("dual", *GR42_S1, "-i", "3", "--words")),
    ("code_z4_s2_i5", ("code", *Z4_S2, "-i", "5", "--words")),
    ("dual_z4_s2_i5", ("dual", *Z4_S2, "-i", "5", "--words")),
    ("distances_gr42_s1", ("distances", *GR42_S1, "--oracle")),
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_info_z4(capsys):
    code, out, _ = run(capsys, "ring-info", "-p", "2", "-a", "2", "-m", "1")
    assert code == 0
    data = json.loads(out)
    assert data["units"] == 2
    assert data["size"] == 4
    assert data["h"] == [0, 1]


def test_ring_info_gr42(capsys):
    code, out, _ = run(capsys, "ring-info", "-p", "2", "-a", "2", "-m", "2")
    assert code == 0
    data = json.loads(out)
    assert data["units"] == 12
    assert data["h"] == [1, 1, 1]
    assert data["zeta"] == [0, 1]
    assert len(data["teichmuller"]) == 4


def test_ring_info_nonprime_exits_1(capsys):
    code, _, err = run(capsys, "ring-info", "-p", "4", "-a", "2", "-m", "1")
    assert code == 1
    assert "prime" in err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "-p", "2", "-a", "2", "-m", "1", "3")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "Type1" and data["chain"] is True

    code, out, _ = run(capsys, "classify", "-p", "2", "-a", "3", "-m", "1", "5")
    data = json.loads(out)
    assert data["type"] == "Type0" and data["chain"] is False

    code, out, _ = run(capsys, "classify", "-p", "2", "-a", "2", "-m", "1", "2")
    data = json.loads(out)
    assert data["type"] == "NonUnit" and data["chain"] is None


def test_classify_vector_element(capsys):
    code, out, _ = run(
        capsys, "classify", "-p", "2", "-a", "2", "-m", "2", "3,2"
    )
    assert code == 0
    assert json.loads(out)["unit"] == [3, 2]
    # plain integers are rejected for m >= 2
    code, _, err = run(capsys, "classify", "-p", "2", "-a", "2", "-m", "2", "3")
    assert code == 1 and "coefficients" in err


def test_code_words(capsys):
    code, out, _ = run(
        capsys, "code", "-p", "2", "-a", "2", "-m", "1", "-s", "2",
        "--gamma", "3", "-i", "7", "--words",
    )
    assert code == 0
    data = json.loads(out)
    assert data["cardinality"] == 2
    assert data["words"] == [[0, 0, 0, 0], [2, 2, 2, 2]]


def test_code_words_csv(capsys):
    code, out, _ = run(
        capsys, "code", "-p", "2", "-a", "2", "-m", "1", "-s", "2",
        "--gamma", "3", "-i", "7", "--words", "--format", "csv",
    )
    assert code == 0
    assert out == "0,0,0,0\n2,2,2,2\n"


def test_code_validation_errors(capsys):
    code, _, err = run(
        capsys, "code", "-p", "2", "-a", "2", "-m", "1", "-s", "2",
        "--gamma", "3", "-i", "9",
    )
    assert code == 1
    code, _, err = run(
        capsys, "code", "-p", "2", "-a", "2", "-m", "1", "-s", "2",
        "--gamma", "1", "-i", "3",
    )
    assert code == 1 and "Type" in err


def test_dual(capsys):
    code, out, _ = run(
        capsys, "dual", "-p", "2", "-a", "2", "-m", "1", "-s", "2",
        "--gamma", "3", "-i", "5",
    )
    assert code == 0
    data = json.loads(out)
    assert data["i"] == 3 and data["gamma"] == [3] and data["cardinality"] == 32
    # dual of the zero code is the full space
    code, out, _ = run(
        capsys, "dual", "-p", "2", "-a", "2", "-m", "1", "-s", "2",
        "--gamma", "3", "-i", "8",
    )
    assert json.loads(out)["cardinality"] == 256


def test_distances_oracle(capsys):
    code, out, _ = run(
        capsys, "distances", "-p", "2", "-a", "2", "-m", "1", "-s", "2",
        "--gamma", "3", "--oracle",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 9
    assert all(r["agree"] is True for r in rows)
    assert [r["d_hamming_formula"] for r in rows] == [1, 1, 1, 1, 1, 2, 2, 4, 0]


def test_distances_csv_header(capsys):
    code, out, _ = run(
        capsys, "distances", "-p", "2", "-a", "2", "-m", "1", "-s", "2",
        "--gamma", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "p,a,m,s,gamma,i,cardinality,d_hamming_formula,d_hamming_oracle,"
        "d_hom_formula,d_hom_oracle"
    )
    assert len(lines) == 10
    assert lines[1] == "2,2,1,2,3,0,256,1,,1,"


def test_selfdual(capsys):
    code, out, _ = run(
        capsys, "selfdual", "-p", "2", "-a", "2", "-m", "1", "-s", "2",
        "--gamma", "3",
    )
    assert code == 0
    codes = json.loads(out)["codes"]
    assert len(codes) == 1 and codes[0]["i"] == 4


def test_budget_flag_and_env(capsys, monkeypatch):
    code, _, err = run(
        capsys, "code", "-p", "2", "-a", "2", "-m", "1", "-s", "2",
        "--gamma", "3", "-i", "4", "--words", "--budget", "10",
    )
    assert code == 2 and "cap is 10" in err
    monkeypatch.setenv("GALRING_BUDGET", "10")
    code, _, err = run(
        capsys, "code", "-p", "2", "-a", "2", "-m", "1", "-s", "2",
        "--gamma", "3", "-i", "4", "--words",
    )
    assert code == 2
    # an explicit flag beats the environment
    code, out, _ = run(
        capsys, "code", "-p", "2", "-a", "2", "-m", "1", "-s", "2",
        "--gamma", "3", "-i", "4", "--words", "--budget", "1000000",
    )
    assert code == 0
    monkeypatch.setenv("GALRING_BUDGET", "0")
    code, _, err = run(
        capsys, "code", "-p", "2", "-a", "2", "-m", "1", "-s", "2",
        "--gamma", "3", "-i", "4", "--words",
    )
    assert code == 1


def test_verify_config_pass(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"rings": [[2, 2, 1, 1]], "gammas": "all-units"}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert any("expected-non-chain" in line for line in lines)


def test_verify_config_budget_exceeded(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"rings": [[3, 2, 1, 2]]}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2 and "requires" in err


def test_verify_config_invalid(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"rings": [[4, 2, 1, 1]]}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 1
    cfg.write_text(json.dumps({"gammas": "all-units"}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 1 and "rings" in err
    code, _, err = run(capsys, "verify", "--config", str(tmp_path / "nope.json"))
    assert code == 1


def test_verify_config_output_report(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    report = tmp_path / "report.json"
    cfg.write_text(
        json.dumps(
            {
                "rings": [[2, 2, 1, 1]],
                "gammas": [3],
                "output": str(report),
            }
        )
    )
    code, _, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    payload = json.loads(report.read_text())
    assert all(entry["passed"] for entry in payload)


def test_reruns_byte_identical(capsys):
    argv = [
        "distances", "-p", "3", "-a", "2", "-m", "1", "-s", "1",
        "--gamma", "2", "--oracle",
    ]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    argv = ["ring-info", "-p", "2", "-a", "2", "-m", "2"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_out_of_range_input_exits_1(capsys, tmp_path):
    # out-of-range integers are rejected, never reduced modulo anything
    code, _, err = run(capsys, "classify", "-p", "2", "-a", "2", "-m", "1", "17")
    assert code == 1 and "outside" in err
    code, _, _ = run(
        capsys, "code", "-p", "2", "-a", "2", "-m", "1", "-s", "2",
        "--gamma", "7", "-i", "3",
    )
    assert code == 1
    for text in ("3,4", "-1,1"):
        code, _, err = run(
            capsys, "classify", "-p", "2", "-a", "2", "-m", "2", "--", text
        )
        assert code == 1 and "[0, 4)" in err
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"rings": [[2, 2, 1, 1]], "gammas": [17]}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 1 and out == ""


def test_bad_budget_flag_exits_1(capsys, tmp_path):
    # exit code 2 is reserved for an exceeded budget
    for value in ("-5", "0", "many"):
        code, _, _ = run(
            capsys, "code", "-p", "2", "-a", "2", "-m", "1", "-s", "2",
            "--gamma", "3", "-i", "4", "--words", "--budget", value,
        )
        assert code == 1
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"rings": [[2, 2, 1, 1]]}))
    code, out, err = run(capsys, "verify", "--config", str(cfg), "--budget", "-5")
    assert code == 1 and out == "" and "--budget" in err


@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("name, argv", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(capsys, name, argv, fmt):
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out == (DATA / f"{name}.{fmt}").read_text()


def test_verify_budget_needs_config(capsys):
    # the default suite always runs at the default caps
    code, out, err = run(capsys, "verify", "--budget", "3")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--config" in err


@pytest.mark.parametrize(
    "config",
    (
        pytest.param({"rings": [[2, 2, 1, 1]], "budget": "100"}, id="budget-str"),
        pytest.param({"rings": [[2, 2, 1, 1]], "budget": True}, id="budget-bool"),
        pytest.param({"rings": [["2", 2, 1, 1]]}, id="ring-str"),
        pytest.param({"rings": [[2, 2, 1.0, 1]]}, id="ring-float"),
        pytest.param({"rings": [[2, 2, 1]]}, id="ring-short"),
        pytest.param({"rings": 5}, id="rings-int"),
        pytest.param({"rings": [[2, 2, 1, 1]], "gammas": [3.0]}, id="gamma-float"),
        pytest.param({"rings": [[2, 2, 1, 1]], "gammas": 3}, id="gammas-int"),
        pytest.param({"rings": [[2, 2, 1, 1]], "output": 5}, id="output-int"),
        pytest.param([[2, 2, 1, 1]], id="not-an-object"),
    ),
)
def test_verify_config_wrong_types_exit_1(capsys, tmp_path, config):
    # configs are JSON: strings, floats and booleans are rejected, not
    # coerced or passed on to the ring arithmetic or to open()
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    (
        ("ring-info", "-p", "x", "-a", "2", "-m", "1"),
        ("code", *Z4_S2),
        ("distances", *Z4_S2, "--format", "xml"),
        ("selfdual", *Z4_S2, "--budget", "abc"),
    ),
    ids=("bad-int", "missing-i", "bad-choice", "selfdual-budget"),
)
def test_usage_errors_exit_1(capsys, argv):
    # exit code 2 is reserved for an exceeded budget, so argparse's usage
    # errors exit with the validation code; selfdual runs no oracle and
    # takes no --budget
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["code", "--help"])
    assert exc.value.code == 0
    assert "--budget" in capsys.readouterr().out


@pytest.mark.parametrize(
    "config",
    (
        pytest.param({"rings": []}, id="no-rings"),
        pytest.param({"rings": [[2, 2, 1, 1]], "gammas": []}, id="no-gammas"),
        pytest.param({"rings": [[2, 1, 1, 1]], "gammas": "all-type1"}, id="no-type1"),
    ),
)
def test_empty_sweep_exits_1(capsys, tmp_path, config):
    # a sweep that selects no (ring, gamma) pair checks nothing
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "no (ring, gamma)" in err
