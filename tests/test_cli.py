import json

import pytest

from minor_overlaps import cli
from minor_overlaps.errors import NumericError
from minor_overlaps.reports import (
    BULK_CURVE_HEADER,
    MINOR_CURVE_HEADER,
    TRAJECTORY_HEADER,
)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theory_kernel_goe_curve(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    code, stdout, _ = _run(capsys, [
        "theory", "--kernel", "goe", "--q", "0.9", "--t", "1", "--x", "0.5",
        "--bins", "50", "--out", str(out)])
    assert code == 0
    assert stdout == ""  # --out given: stdout stays silent
    lines = out.read_text().strip().split("\n")
    assert lines[0] == BULK_CURVE_HEADER
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[6] == "" and first[9] == "0"  # no MC columns on theory curves
    # round-trip floats
    assert float(first[0]) == pytest.approx(-1.862, abs=1e-3)


def test_theory_spike_f_value(capsys):
    code, stdout, _ = _run(capsys, [
        "theory", "--spike-f", "--lambda", "1", "--mu", "0.3",
        "--qfrac", "0.3", "--t", "0.2"])
    assert code == 0
    assert stdout.splitlines() == ["value", "0.125"]


def test_theory_lambda_star_zero(capsys):
    code, stdout, _ = _run(capsys, [
        "theory", "--lambda-star", "--mu", "0", "--t", "1", "--qfrac", "0.5"])
    assert code == 0
    assert abs(float(stdout.splitlines()[1])) < 1e-12


def test_theory_domain_error_exit_code(capsys):
    code, _, stderr = _run(capsys, [
        "theory", "--spike-f", "--lambda", "1", "--mu", "0.3",
        "--qfrac", "0.3", "--t", "0.5"])
    assert code == 2
    assert "minor spike" in stderr


def test_theory_spike_g_curve(capsys):
    code, stdout, _ = _run(capsys, [
        "theory", "--spike-g", "--lambda", "3", "--qfrac", "0.7", "--t", "1",
        "--bins", "10"])
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == MINOR_CURVE_HEADER
    assert len(lines) == 11


def test_compare_runs_and_gates(capsys, tmp_path):
    args = ["compare", "--bulk", "--N", "100", "--qfrac", "0.5", "--t", "1",
            "--x", "0.5", "--trials", "100", "--seed", "7", "--bins", "13",
            "--out", str(tmp_path / "cmp.csv")]
    code, _, stderr = _run(capsys, args + ["--min-coverage", "0.0"])
    assert code == 0
    assert "coverage=" in stderr and "aborted=0 pool_threads=" in stderr
    code, _, _ = _run(capsys, args + ["--min-coverage", "1.5"])
    assert code == 3


def test_same_command_twice_is_byte_identical(capsys, tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["simulate", "--N", "90", "--qfrac", "0.5", "--t", "1",
            "--trials", "100", "--seed", "3", "--bins", "9"]
    assert _run(capsys, base + ["--out", str(out_a)])[0] == 0
    assert _run(capsys, base + ["--out", str(out_b), "--threads", "3"])[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_json_report_schema(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = _run(capsys, [
        "simulate", "--N", "90", "--qfrac", "0.5", "--trials", "100",
        "--seed", "3", "--bins", "9", "--format", "json", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert list(obj.keys()) == ["config", "estimates", "theory", "coverage",
                                "wall_time_s", "tool_version"]
    assert obj["tool_version"] == "0.1.0"
    assert len(obj["estimates"]) == len(obj["theory"])
    assert obj["config"]["n_dim"] == 90


def test_spike_path_trajectory_csv(capsys):
    code, stdout, _ = _run(capsys, [
        "spike", "--mode", "spike", "--path", "--lambda", "1", "--qfrac", "0.3",
        "--N", "120", "--t-max", "0.6", "--steps", "6", "--seed", "5"])
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 8


def test_spike_bulk_command(capsys, tmp_path):
    out = tmp_path / "sb.csv"
    code, _, stderr = _run(capsys, [
        "spike", "--mode", "bulk", "--lambda", "3", "--qfrac", "0.7", "--t", "0.5",
        "--N", "100", "--trials", "100", "--bins", "9", "--seed", "2",
        "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith(MINOR_CURVE_HEADER)
    assert "total_mass" in stderr
    assert "absorbed=" in stderr and "aborted=0 pool_threads=" in stderr
    assert "trial_blas_threads=" in stderr


def test_bernoulli_spike_command(capsys):
    code, stdout, stderr = _run(capsys, [
        "bernoulli", "--mode", "spike", "--p", "1.0", "--qfrac", "0.5",
        "--sizes", "60,80", "--trials", "100", "--seed", "4", "--threads", "2"])
    assert code == 0
    assert "aborted=0 pool_threads=2 trial_blas_threads=" in stderr
    lines = stdout.strip().split("\n")
    assert lines[0].startswith("N,n,p,q,")
    assert len(lines) == 3


def test_simulate_with_spectrum_model(capsys, tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text('{"atoms": [[-1.0, 0.5], [1.0, 0.5]], "spikes": [], "q": 0.5}')
    out = tmp_path / "general.csv"
    code, _, stderr = _run(capsys, [
        "simulate", "--N", "120", "--qfrac", "0.5", "--t", "1", "--trials", "100",
        "--bins", "15", "--seed", "12", "--model", str(model_path), "--out", str(out)])
    assert code == 0
    assert "aborted=0 pool_threads=" in stderr and "trial_blas_threads=" in stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0] == BULK_CURVE_HEADER
    assert len(lines) == 16


def test_model_atom_without_entries_exits_two(capsys, tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text('{"atoms": [[0.0, 0.999], [5.0, 0.001]], "spikes": [], "q": 0.5}')
    code, _, stderr = _run(capsys, [
        "simulate", "--N", "200", "--qfrac", "0.5", "--trials", "100",
        "--model", str(model_path)])
    assert code == 2
    assert "atom at 5.0" in stderr and "size 200" in stderr


@pytest.mark.parametrize("argv", [
    ["spike", "--mode", "spike", "--lambda", "1", "--qfrac", "0.3", "--t", "0.05",
     "--N", "100"],
    ["bernoulli", "--mode", "bulk", "--p", "0.5", "--qfrac", "0.5", "--N", "80",
     "--bins", "7"],
])
def test_monte_carlo_run_fields_on_stderr(capsys, argv):
    code, _, stderr = _run(capsys, argv + ["--trials", "100", "--seed", "2", "--threads", "2"])
    assert code == 0
    assert "aborted=0 pool_threads=2 trial_blas_threads=" in stderr
    assert ("absorbed=" in stderr) == (argv[0] == "spike")


def test_model_atom_outside_minor_block_exits_two(capsys, tmp_path):
    # the only entry at 5 sits at index 100, just outside the leading 100x100 block
    model_path = tmp_path / "model.json"
    model_path.write_text('{"atoms": [[0.0, 0.995], [5.0, 0.005]], "spikes": [], "q": 0.5}')
    for argv in (["theory", "--kernel", "general", "--qfrac", "0.5", "--t", "1",
                  "--mu", "0.5", "--lambda-range", "-1", "1", "--n0", "200"],
                 ["simulate", "--N", "200", "--qfrac", "0.5", "--trials", "100"]):
        code, _, stderr = _run(capsys, argv + ["--model", str(model_path)])
        assert code == 2
        assert "atom at 5.0" in stderr and "leading 100x100 block at size 200" in stderr


def test_theory_general_kernel_curve(capsys, tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text('{"atoms": [[-1.0, 0.5], [1.0, 0.5]], "spikes": [], "q": 0.5}')
    code, stdout, _ = _run(capsys, [
        "theory", "--kernel", "general", "--model", str(model_path), "--qfrac", "0.5",
        "--t", "1", "--mu", "0.5", "--lambda-range", "-1.5", "1.5",
        "--bins", "12", "--n0", "200"])
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == BULK_CURVE_HEADER
    assert len(lines) >= 6  # gap rows are skipped
    for line in lines[1:]:
        assert float(line.split(",")[4]) > 0


def test_probe_correlation_command(capsys):
    code, stdout, _ = _run(capsys, [
        "probe", "--kind", "correlation", "--N", "40", "--n", "20",
        "--samples", "10000", "--seed", "8"])
    assert code == 0
    assert stdout.startswith("row,kind,")


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["simulate", "--N", "50", "--qfrac", "0.5", "--frobnicate", "1"])
    assert excinfo.value.code == 2


def test_numeric_failure_maps_to_exit_four(capsys, monkeypatch):
    def boom(config):
        raise NumericError("forced failure")

    monkeypatch.setattr(cli.montecarlo, "run_bulk_experiment", boom)
    code, _, stderr = _run(capsys, [
        "simulate", "--N", "90", "--qfrac", "0.5", "--trials", "100"])
    assert code == 4
    assert "forced failure" in stderr
