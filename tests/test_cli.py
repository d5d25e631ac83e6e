"""Command-line interface: flags, exit codes, report emission, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from genfrac.cli import main, run

TWO_INV_GAMMA_HALF = 1.1283791670955125739
SRC = Path(__file__).resolve().parents[1] / "src"


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_kop_example(capsys):
    code, out, err = _run(
        capsys,
        ["eval", "--op", "K", "--kernel", "rl", "--alpha", "0.5",
         "--pset", "0,1,1,0", "--f", "1", "--t", "1"],
    )
    assert code == 0
    assert out.strip() == f"{TWO_INV_GAMMA_HALF:.10f}"


def test_eval_endpoint_refusal(capsys):
    code, out, err = _run(
        capsys,
        ["eval", "--op", "A", "--alpha", "0.5", "--pset", "0,1,1,0", "--f", "1", "--t", "0"],
    )
    assert code == 1
    assert out == ""
    assert "refused" in err


def test_eval_partial_operator(capsys):
    code, out, err = _run(
        capsys,
        ["eval", "--op", "K", "--alpha", "0.5", "--pset", "0,1,1,0",
         "--axis", "1", "--rect", "0,1,0,1", "--f", "t1*t2", "--t", "1", "--t2", "0.5"],
    )
    assert code == 0
    assert float(out) == pytest.approx(0.5 * 0.75225277806367504926, rel=1e-9)


def test_eval_partial_needs_rect_and_t2(capsys):
    code, _, err = _run(
        capsys,
        ["eval", "--op", "K", "--alpha", "0.5", "--pset", "0,1,1,0",
         "--axis", "1", "--f", "t1*t2", "--t", "1"],
    )
    assert code == 1
    assert "--rect" in err


def test_eval_tempered_kernel(capsys):
    code, out, _ = _run(
        capsys,
        ["eval", "--op", "K", "--kernel", "tempered:1", "--alpha", "0.5",
         "--pset", "0,1,1,0", "--f", "1", "--t", "1"],
    )
    assert code == 0
    assert float(out) == pytest.approx(0.84270079294971486934, rel=1e-9)


def test_eval_bad_expression(capsys):
    code, _, err = _run(
        capsys,
        ["eval", "--op", "K", "--alpha", "0.5", "--pset", "0,1,1,0", "--f", "t1 +", "--t", "1"],
    )
    assert code == 1
    assert "offset 4" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_nonfinite_is_numerical_failure(capsys):
    code, _, err = _run(
        capsys,
        ["eval", "--op", "K", "--alpha", "0.5", "--pset", "0,1,1,0",
         "--f", "log(t-2)", "--t", "1"],
    )
    assert code == 2
    assert "numerical failure" in err


def test_verify_green_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys,
        ["verify", "green", "--alpha", "0.5", "--kernel", "rl", "--psets", "left,left",
         "--f", "t1+t2", "--g", "t1*t2", "--eta", "sin(t1)*t2",
         "--rect", "0,1,0,1", "--tol", "1e-4", "--json", str(path)],
    )
    assert code == 0
    assert out == ""  # report went to the file only
    doc = json.loads(path.read_text())
    assert doc["identity"] == "green"
    assert doc["rel_residual"] <= 1e-4
    assert doc["inputs"] == {"f": "t1+t2", "g": "t1*t2", "eta": "sin(t1)*t2"}


def test_verify_exit_3_on_tight_tolerance(capsys):
    code, out, err = _run(
        capsys,
        ["verify", "green", "--alpha", "0.5", "--psets", "left,left",
         "--f", "t1+t2", "--g", "t1*t2", "--eta", "sin(t1)*t2",
         "--rect", "0,1,0,1", "--tol", "1e-13"],
    )
    assert code == 3
    assert "exceeds tolerance" in err
    assert json.loads(out)["identity"] == "green"  # report still emitted


def test_verify_ibp_requires_both_etas(capsys):
    code, _, err = _run(
        capsys,
        ["verify", "ibp", "--alpha", "0.5", "--psets", "left,left",
         "--f", "t1+t2", "--g", "t1*t2", "--eta1", "t1^2", "--rect", "0,1,0,1"],
    )
    assert code == 1
    assert "--eta2" in err


def test_verify_ibp_ok(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "ibp", "--alpha", "0.5", "--psets", "left,left",
         "--f", "t1+t2", "--g", "t1*t2", "--eta1", "t1^2", "--eta2", "t2^2",
         "--rect", "0,1,0,1", "--tol", "1e-5"],
    )
    assert code == 0
    assert json.loads(out)["identity"] == "ibp2d"


def test_verify_green_rl(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "green-rl", "--alpha", "0.5", "--f", "t1+t2", "--g", "t1*t2",
         "--eta", "t1^2*t2", "--rect", "0,1,0,1", "--tol", "1e-4"],
    )
    assert code == 0
    assert json.loads(out)["identity"] == "green_rl_corollary"


def test_verify_green_rl_rejects_conflicting_flags(capsys):
    code, _, err = _run(
        capsys,
        ["verify", "green-rl", "--alpha", "0.5", "--kernel", "tempered:1",
         "--f", "t1+t2", "--g", "t1*t2", "--eta", "t1^2*t2", "--rect", "0,1,0,1"],
    )
    assert code == 1
    assert "green-rl" in err


def test_mixed_pset_sugar_both_spellings(capsys):
    base = ["verify", "ibp", "--alpha", "0.5", "--f", "t1+t2", "--g", "t1*t2",
            "--eta1", "t1^2", "--eta2", "t2^2", "--rect", "0,1,0,1"]
    _, out_a, _ = _run(capsys, base + ["--psets", "mixed:0.5,0.5,left"])
    _, out_b, _ = _run(capsys, base + ["--psets", "mixed:0.5:0.5,left"])
    assert out_a == out_b
    assert json.loads(out_a)["psets"] == ["0,1,0.5,0.5", "0,1,1,0"]


def test_raw_pset_in_pair(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "ibp", "--alpha", "0.5", "--psets", "0,1,0.3,0.7,right",
         "--f", "t1+t2", "--g", "t1*t2", "--eta1", "t1^2", "--eta2", "t2^2",
         "--rect", "0,1,0,1"],
    )
    assert code == 0
    assert json.loads(out)["psets"] == ["0,1,0.3,0.7", "0,1,0,1"]


def test_converge_csv(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, out, _ = _run(
        capsys,
        ["converge", "green", "--alpha", "0.5", "--psets", "left,left",
         "--f", "t1+t2", "--g", "t1*t2", "--eta", "sin(t1)*t2",
         "--rect", "0,1,0,1", "--panel-seq", "8,16", "--csv", str(path)],
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "nodes,rel_residual,lhs,rhs_area,rhs_boundary"
    assert len(lines) == 3
    r8 = float(lines[1].split(",")[1])
    r16 = float(lines[2].split(",")[1])
    assert r16 <= r8


def test_tightened_tolerance_never_exits_zero(capsys):
    # representative corpus slice with an unreachable tolerance: exit 3 always
    cases = [
        ("ibp", ["--eta1", "t1^2", "--eta2", "t2^2"], "left,left", "rl"),
        ("ibp", ["--eta1", "sin(t1)*t2", "--eta2", "t1*cos(t2)"], "mixed,mixed", "tempered:1"),
        ("green", ["--eta", "sin(t1)*t2"], "left,left", "rl"),
        ("green", ["--eta", "exp(t1)*t2"], "right,right", "tempered:1"),
    ]
    for identity, eta_flags, psets, kernel in cases:
        code, out, _ = _run(
            capsys,
            ["verify", identity, "--alpha", "0.25", "--kernel", kernel,
             "--psets", psets, "--f", "t1+t2", "--g", "t1*t2", *eta_flags,
             "--rect", "0,1,0,1", "--tol", "1e-16"],
        )
        assert code == 3, (identity, psets, kernel)
        assert json.loads(out)["rel_residual"] > 1e-16


def test_verify_report_byte_identical_across_runs(capsys):
    argv = ["verify", "green", "--alpha", "0.5", "--psets", "left,left",
            "--f", "t1+t2", "--g", "t1*t2", "--eta", "sin(t1)*t2", "--rect", "0,1,0,1"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


def test_usage_error_unknown_subcommand(capsys):
    code, _, err = _run(capsys, ["frobnicate"])
    assert code == 1
    assert "error" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "genfrac" in out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "ibp", "--alpha", "0.5", "--psets", "left,left", "--rect", "0,1,0,1",
         "--f", "exp(350*t1)", "--g", "exp(350*t2)", "--eta1", "exp(350*t1)*exp(350*t2)",
         "--eta2", "1", "--tol", "1e-4"],
        ["verify", "green", "--alpha", "0.5", "--psets", "right,right", "--rect", "0,1,0,1",
         "--f", "t1+t2", "--g", "log(t1)", "--eta", "t1*t2", "--tol", "1e-4"],
    ],
    ids=["ibp-overflow", "green-log-edge"],
)
def test_verify_nonfinite_report_is_numerical_failure(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""  # no NaN or Infinity reaches the report
    assert "numerical failure" in err


@pytest.mark.parametrize("flag", ["--order", "--panels"])
def test_zero_rule_size_is_usage_error(capsys, flag):
    code, out, err = _run(
        capsys,
        ["eval", "--op", "K", "--alpha", "0.5", "--pset", "0,1,1,0", "--f", "1", "--t", "1",
         flag, "0"],
    )
    assert code == 1
    assert out == ""
    assert "must be >= 1" in err


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy would double the cold start
    code = (
        "import genfrac, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
