import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    k, judged, tail = re.search(r"misses=(\d+)/(\d+) miss_tail_p=(\S+)", stderr).groups()
    assert 0 <= int(k) <= int(judged) and 0 < float(tail) <= 1
    assert "refused=" not in stderr  # closed-form theory refuses no node
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
    for command in (["simulate"], ["compare", "--min-coverage", "0"]):
        code, _, stderr = _run(capsys, command + [
            "--N", "120", "--qfrac", "0.5", "--t", "1", "--trials", "100",
            "--bins", "15", "--seed", "12", "--model", str(model_path), "--out", str(out)])
        assert code == 0
        assert "aborted=0 pool_threads=" in stderr and "trial_blas_threads=" in stderr
        assert re.search(r"trial_blas_threads=\S+ refused=\d+$", stderr.strip())
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


def _counting(calls, key, fn):
    """Wrap a solver ``fn(model, z, ...)``: count its calls and the points it solves."""
    def counted(*args):
        calls[key] += 1
        calls[key + "_points"] += np.size(args[1])
        return fn(*args)
    return counted


def test_theory_general_kernel_curve(capsys, tmp_path, monkeypatch):
    model_path = tmp_path / "model.json"
    model_path.write_text('{"atoms": [[-1.0, 0.5], [1.0, 0.5]], "spikes": [], "q": 0.5}')
    calls = dict.fromkeys(("full", "full_points", "minor", "minor_points"), 0)
    monkeypatch.setattr(cli, "solve_stieltjes", _counting(calls, "full", cli.solve_stieltjes))
    monkeypatch.setattr(cli, "solve_minor_stieltjes",
                        _counting(calls, "minor", cli.solve_minor_stieltjes))
    code, stdout, stderr = _run(capsys, [
        "theory", "--kernel", "general", "--model", str(model_path), "--qfrac", "0.5",
        "--t", "1", "--mu", "0.5", "--lambda-range", "-1.5", "1.5",
        "--bins", "12", "--n0", "200"])
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == BULK_CURVE_HEADER
    assert len(lines) >= 6  # gap rows are skipped
    for line in lines[1:]:
        assert float(line.split(",")[4]) > 0
    assert stderr.strip() == f"refused={12 - (len(lines) - 1)}"
    # one Richardson pair for the minor value at mu, one per lambda on the full
    # side, and one solver call for each side
    assert calls == {"full": 1, "full_points": 2 * 12, "minor": 1, "minor_points": 2}


@pytest.mark.parametrize("flags, message", [
    (["--qfrac", "1"], "0 < q < 1"),
    (["--qfrac", "0.5", "--mu", "5"], "mu=5.0 lies outside the minor bulk"),
], ids=["q-one", "mu-outside-minor-bulk"])
def test_theory_general_refused_everywhere_exits_two(capsys, tmp_path, flags, message):
    model_path = tmp_path / "model.json"
    model_path.write_text('{"atoms": [[-1.0, 0.5], [1.0, 0.5]], "spikes": [], "q": 0.5}')
    code, stdout, stderr = _run(capsys, [
        "theory", "--kernel", "general", "--model", str(model_path), "--mu", "0.3",
        "--lambda-range", "-2.5", "2.5", "--bins", "8", "--n0", "200"] + flags)
    assert code == 2
    assert stdout == ""
    assert message in stderr


@pytest.mark.parametrize("argv, flag", [
    (["--kernel", "goe", "--t", "1"], "--q"),
    (["--spike-f", "--t", "0.2", "--q", "0.3"], "--lambda"),
    (["--spike-g", "--t", "1", "--q", "0.5"], "--lambda"),
    (["--lambda-star", "--t", "1", "--q", "0.5"], "--mu"),
    (["--interlace", "--t", "1"], "--q"),
    (["--spike-mass", "--q", "0.5"], "--lambda"),
    (["--bernoulli-expansion", "--N", "100"], "--q"),
    (["--kernel", "general", "--mu", "0.3", "--lambda-range", "-1", "1"], "--model"),
    (["--kernel", "general", "--model", "m.json", "--lambda-range", "-1", "1"], "--mu"),
    (["--kernel", "general", "--model", "m.json", "--mu", "0.3"], "--lambda-range"),
    (["--spike-f", "--q", "0.3"], "--lambda and --mu"),
    (["--bernoulli-expansion", "--N", "100", "--p", "0.7"], "--n or --q"),
], ids=["kernel-goe", "spike-f", "spike-g", "lambda-star", "interlace", "spike-mass",
        "bernoulli-expansion", "kernel-general-model", "kernel-general-mu",
        "kernel-general-lambda-range", "spike-f-lambda-and-mu", "bernoulli-expansion-n-or-q"])
def test_theory_missing_flag_exits_two(capsys, argv, flag):
    code, stdout, stderr = _run(capsys, ["theory"] + argv)
    assert code == 2
    assert stdout == ""
    assert flag in stderr
    mode = " ".join(argv[:2]) if argv[0] == "--kernel" else argv[0]
    assert stderr.startswith(f"error: theory {mode} needs ")


def test_probe_correlation_command(capsys):
    code, stdout, stderr = _run(capsys, [
        "probe", "--kind", "correlation", "--N", "40", "--n", "20",
        "--samples", "10000", "--seed", "8"])
    assert code == 0
    assert stdout.startswith("row,kind,")
    assert re.fullmatch(r"coverage=\S+\n", stderr)  # serial: no pool to report


def test_probe_drift_reports_its_threads(capsys):
    code, stdout, stderr = _run(capsys, [
        "probe", "--kind", "drift", "--N", "20", "--n", "10", "--trials", "1000"])
    assert code == 0
    assert stdout.startswith("row,kind,")
    cores = len(os.sched_getaffinity(0))
    assert re.fullmatch(rf"coverage=\S+ pool_threads={cores} trial_blas_threads=(1|None) "
                        r"stepper=(dsyevr|eigh)\n", stderr)


_DRIFT = ["probe", "--kind", "drift", "--N", "20", "--n", "10", "--trials", "1000"]
_CORRELATION = ["probe", "--kind", "correlation", "--N", "20", "--n", "10",
                "--samples", "10000"]


@pytest.mark.parametrize("argv, fragment", [
    (_DRIFT + ["--n", "0"], "1 <= n < n_dim"),
    (_DRIFT + ["--n", "2"], "n >= 3"),
    (_DRIFT + ["--n", "20"], "1 <= n < n_dim"),
    (_DRIFT + ["--n", "25"], "1 <= n < n_dim"),
    (_CORRELATION + ["--n", "20"], "1 <= n < n_dim"),
    (_CORRELATION + ["--n", "2"], "n >= 3"),
    (_CORRELATION + ["--n", "1"], "n >= 3"),
    (_DRIFT + ["--dt", "0"], "dt > 0"),
    (_CORRELATION + ["--dt", "0"], "dt > 0"),
    (_CORRELATION + ["--dt=-1"], "dt > 0"),
    (_DRIFT + ["--dt=-1e-4"], "dt > 0"),
    (_DRIFT + ["--t", "0"], "t > 0"),
    (_CORRELATION + ["--N", "101"], "n_dim <= 100"),
    (_DRIFT + ["--N", "101"], "n_dim <= 100"),
], ids=["drift-n-0", "drift-n-2", "drift-n-equals-N", "drift-n-above-N", "correlation-n-equals-N",
        "correlation-n-2", "correlation-n-1", "drift-dt-0", "correlation-dt-0",
        "correlation-dt-negative", "drift-dt-negative", "drift-t-0", "correlation-N-101",
        "drift-N-101"])
def test_probe_invalid_input_exits_two(capsys, argv, fragment):
    code, stdout, stderr = _run(capsys, argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and fragment in stderr


@pytest.mark.parametrize("argv", [
    ["simulate", "--N", "40", "--qfrac", "0.5", "--trials", "100"],
    ["compare", "--N", "40", "--qfrac", "0.5", "--trials", "100"],
    ["bernoulli", "--mode", "bulk", "--p", "0.5", "--N", "40", "--qfrac", "0.5",
     "--trials", "100"],
    ["spike", "--mode", "bulk", "--lambda", "3", "--qfrac", "0.7", "--N", "40",
     "--trials", "100"],
    ["theory", "--kernel", "goe", "--q", "0.5"],
    ["theory", "--spike-g", "--lambda", "3", "--q", "0.7"],
    ["theory", "--kernel", "general", "--model", "MODEL", "--mu", "0.3", "--q", "0.5",
     "--lambda-range", "-2", "2"],
], ids=["simulate", "compare", "bernoulli-bulk", "spike-bulk", "theory-goe", "theory-spike-g",
        "theory-general"])
@pytest.mark.parametrize("bins", ["0", "-3"])
def test_bins_below_one_exits_two_before_any_trial(capsys, tmp_path, monkeypatch, argv, bins):
    model_path = tmp_path / "model.json"
    model_path.write_text('{"atoms": [[-1.0, 0.5], [1.0, 0.5]], "spikes": [], "q": 0.5}')

    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran")

    monkeypatch.setattr(cli.montecarlo, "_run_decomposed", no_trials)
    argv = [str(model_path) if a == "MODEL" else a for a in argv]
    code, stdout, stderr = _run(capsys, argv + ["--bins", bins])
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: need bins >= 1, got {bins}\n"


@pytest.mark.parametrize("modes", [
    [],
    ["--spike-f", "--interlace"],
    ["--kernel", "goe", "--spike-mass"],
], ids=["none", "spike-f-and-interlace", "kernel-and-spike-mass"])
def test_theory_needs_exactly_one_mode(capsys, modes):
    argv = ["theory", "--lambda", "1", "--mu", "0.3", "--qfrac", "0.3", "--t", "0.2"]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv + modes)
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["simulate", "--N", "50", "--qfrac", "0.5", "--frobnicate", "1"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["theory", "--kernel", "goe", "--q", "0.5", "--format", "json"],
    ["theory", "--kernel", "goe", "--q", "0.5", "--seed", "3"],
    ["theory", "--kernel", "goe", "--q", "0.5", "--threads", "2"],
    ["probe", "--kind", "correlation", "--N", "40", "--n", "20", "--samples", "10000",
     "--threads", "2"],
    ["spike", "--mode", "spike", "--path", "--lambda", "1", "--qfrac", "0.3", "--N", "60",
     "--steps", "2", "--format", "json"],
    ["spike", "--mode", "spike", "--path", "--lambda", "1", "--qfrac", "0.3", "--N", "60",
     "--steps", "2", "--threads", "7"],
], ids=["theory-format", "theory-seed", "theory-threads", "probe-threads", "spike-path-json",
        "spike-path-threads"])
def test_flag_the_subcommand_would_ignore_exits_two(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses a flag the subcommand does not declare
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


_SPIKE_PATH = ["spike", "--mode", "spike", "--path", "--lambda", "1", "--qfrac", "0.3",
               "--N", "60", "--steps", "2"]
_SPIKE_SPIKE = ["spike", "--mode", "spike", "--lambda", "1", "--qfrac", "0.3", "--N", "60",
                "--trials", "100"]
_SPIKE_BULK = ["spike", "--mode", "bulk", "--lambda", "3", "--qfrac", "0.7", "--N", "40",
               "--trials", "100"]
_BERNOULLI_BULK = ["bernoulli", "--mode", "bulk", "--p", "0.5", "--qfrac", "0.5", "--N", "40",
                   "--trials", "100"]
_BERNOULLI_SPIKE = ["bernoulli", "--mode", "spike", "--p", "0.7", "--qfrac", "0.5",
                    "--sizes", "30,40", "--trials", "100"]
_SPIKE_F = ["theory", "--spike-f", "--lambda", "1", "--mu", "0.3", "--qfrac", "0.3",
            "--t", "0.2"]
_SPIKE_G = ["theory", "--spike-g", "--lambda", "3", "--qfrac", "0.7", "--t", "1"]
_KERNEL_GOE = ["theory", "--kernel", "goe", "--q", "0.5"]
_KERNEL_GENERAL = ["theory", "--kernel", "general", "--model", "m.json", "--mu", "0.3",
                   "--lambda-range", "-2.5", "2.5"]
_EXPANSION = ["theory", "--bernoulli-expansion", "--N", "200", "--p", "0.7"]


@pytest.mark.parametrize("argv, mode, flag", [
    (_SPIKE_BULK + ["--path"], "spike --mode bulk", "--path"),
    (_SPIKE_BULK + ["--t-max", "1"], "spike --mode bulk", "--t-max"),
    (_SPIKE_BULK + ["--steps", "5"], "spike --mode bulk", "--steps"),
    (_SPIKE_BULK + ["--mu", "0.2"], "spike --mode bulk", "--mu"),
    (_SPIKE_SPIKE + ["--t-max", "1"], "spike --mode spike", "--t-max"),
    (_SPIKE_SPIKE + ["--steps", "5"], "spike --mode spike", "--steps"),
    (_SPIKE_SPIKE + ["--bins", "5"], "spike --mode spike", "--bins"),
    (_SPIKE_PATH + ["--t", "0.5"], "spike --path", "--t"),
    (_SPIKE_PATH + ["--trials", "100"], "spike --path", "--trials"),
    (_SPIKE_PATH + ["--bins", "5"], "spike --path", "--bins"),
    (_SPIKE_PATH + ["--mu", "0.2"], "spike --path", "--mu"),
    (_SPIKE_PATH + ["--threads", "7"], "spike --path", "--threads"),
    (_BERNOULLI_SPIKE + ["--bins", "3"], "bernoulli --mode spike", "--bins"),
    (_BERNOULLI_SPIKE + ["--bins", "0"], "bernoulli --mode spike", "--bins"),
    (_BERNOULLI_SPIKE + ["--N", "50"], "bernoulli --mode spike", "--N"),
    (_BERNOULLI_BULK + ["--sizes", "30,40"], "bernoulli --mode bulk", "--sizes"),
    (_CORRELATION + ["--trials", "5"], "probe --kind correlation", "--trials"),
    (_DRIFT + ["--samples", "5"], "probe --kind drift", "--samples"),
    (_SPIKE_F + ["--bins", "3", "--x", "0.9", "--n0", "5"], "theory --spike-f",
     "--x or --bins or --n0"),
    (_KERNEL_GOE + ["--x", "0.2", "--mu", "0.3"], "theory --kernel goe", "--x with --mu"),
    (_KERNEL_GOE + ["--model", "m.json"], "theory --kernel goe", "--model"),
    (_KERNEL_GENERAL + ["--x", "0.2"], "theory --kernel general", "--x"),
    (_EXPANSION + ["--q", "0.5", "--n", "10"], "theory --bernoulli-expansion",
     "--n with --q"),
    (_EXPANSION + ["--q", "0.5", "--t", "5"], "theory --bernoulli-expansion", "--t"),
    (_SPIKE_G + ["--mu", "0.5", "--bins", "3"], "theory --spike-g", "--bins with --mu"),
], ids=["spike-bulk-path", "spike-bulk-t-max", "spike-bulk-steps", "spike-bulk-mu",
        "spike-spike-t-max", "spike-spike-steps", "spike-spike-bins", "spike-path-t",
        "spike-path-trials", "spike-path-bins", "spike-path-mu", "spike-path-threads",
        "bernoulli-spike-bins", "bernoulli-spike-bins-zero", "bernoulli-spike-N",
        "bernoulli-bulk-sizes", "correlation-trials", "drift-samples",
        "theory-spike-f-bins-x-n0", "theory-kernel-goe-x-with-mu", "theory-kernel-goe-model",
        "theory-kernel-general-x", "theory-expansion-n-with-q", "theory-expansion-t",
        "theory-spike-g-bins-with-mu"])
def test_flag_of_another_mode_exits_two(capsys, monkeypatch, argv, mode, flag):
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran")

    monkeypatch.setattr(cli.montecarlo, "_run_decomposed", no_trials)
    code, stdout, stderr = _run(capsys, argv)
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: {mode} does not read {flag}\n"


def test_mode_table_agrees_with_parser():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, (_, modes) in cli.MODES.items():
        parser = subparsers.choices[command]
        actions = {a.dest: a for a in parser._actions}
        named = {dest for _, row in modes.values() for key in row for dest in key.split("|")}
        assert named <= set(actions), command
        for dest in named:  # the table holds the only default of a mode-dependent flag
            assert actions[dest].default is None and not actions[dest].required, dest
        selectors = {a.dest for group in parser._mutually_exclusive_groups if group.required
                     for a in group._group_actions}
        for dest, action in actions.items():  # every other flag is read by every mode
            assert (dest in named or dest in selectors or dest in ("help", "out")
                    or action.required or action.default is not None), (command, dest)


@pytest.mark.parametrize("argv", [
    ["simulate", "--N", "40", "--qfrac", "0.5", "--trials", "100", "--bins", "3",
     "--threads", "-5"],
    ["spike", "--mode", "spike", "--lambda", "1", "--qfrac", "0.3", "--t", "0.2", "--N", "60",
     "--trials", "100", "--threads", "-1"],
], ids=["simulate", "spike"])
def test_negative_threads_exits_two(capsys, argv):
    code, stdout, stderr = _run(capsys, argv)
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: threads must be >= 0, got {argv[-1]}\n"


@pytest.mark.parametrize("argv, flag", [
    (["theory", "--interlace", "--x", "0.3", "--t", "nan", "--qfrac", "0.9"], "--t"),
    (["simulate", "--N", "40", "--qfrac", "0.5", "--trials", "100", "--bins", "3",
      "--t", "nan"], "--t"),
    (_DRIFT + ["--dt", "nan"], "--dt"),
    (["theory", "--kernel", "goe", "--q", "inf"], "--qfrac/--q"),
    (["theory", "--spike-mass", "--lambda=-inf", "--q", "0.5"], "--lambda"),
    (_KERNEL_GENERAL + ["--lambda-range", "-1", "inf"], "--lambda-range"),
    (["compare", "--N", "40", "--qfrac", "0.5", "--min-coverage", "nan"], "--min-coverage"),
    (["spike", "--mode", "spike", "--path", "--lambda", "1", "--qfrac", "0.3", "--N", "40",
      "--t-max", "inf"], "--t-max"),
    (["bernoulli", "--mode", "bulk", "--p", "NaN", "--qfrac", "0.5"], "--p"),
], ids=["theory-interlace-t-nan", "simulate-t-nan", "drift-dt-nan", "theory-q-inf",
        "theory-lambda-minus-inf", "theory-lambda-range-inf", "compare-min-coverage-nan",
        "spike-t-max-inf", "bernoulli-p-nan"])
def test_non_finite_float_exits_two_at_parse_time(capsys, argv, flag):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: invalid finite float value: " in captured.err


@pytest.mark.parametrize("sizes", ["30,x", "30,,40", "30,4.5", ""],
                         ids=["letter", "empty-item", "float", "empty"])
def test_malformed_sizes_exit_two_at_parse_time(capsys, sizes):
    argv = ["bernoulli", "--mode", "spike", "--p", "0.7", "--qfrac", "0.5", "--sizes", sizes,
            "--trials", "100"]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: argument --sizes: invalid comma list of integers: {sizes!r}"
            in captured.err)


def test_sizes_list_keeps_its_accepted_forms(capsys, monkeypatch):
    seen = []

    def record(config):
        seen.append(config.n_dims)
        raise NumericError("stop after the config")

    monkeypatch.setattr(cli.montecarlo, "run_bernoulli_spike", record)
    base = ["bernoulli", "--mode", "spike", "--p", "0.7", "--qfrac", "0.5", "--trials", "100"]
    for sizes in ("30,40", " 30, 40", "30"):
        assert _run(capsys, base + ["--sizes", sizes])[0] == 4
    assert seen == [(30, 40), (30, 40), (30,)]


@pytest.mark.parametrize("argv", [
    ["theory", "--interlace", "--qfrac", "0.9"],
    ["simulate", "--N", "40", "--qfrac", "0.5", "--trials", "100", "--bins", "3"],
    _BERNOULLI_SPIKE,
], ids=["theory-interlace", "simulate", "bernoulli-spike"])
@pytest.mark.parametrize("target", ["missing-dir/x.csv", "."], ids=["missing-dir", "directory"])
def test_unwritable_out_exits_two(capsys, tmp_path, argv, target):
    out = tmp_path / target
    code, stdout, stderr = _run(capsys, argv + ["--out", str(out)])
    assert code == 2
    assert stdout == ""
    reason = "No such file or directory" if target != "." else "Is a directory"
    assert stderr.endswith(f"error: --out {out}: {reason}\n")


_SPIKES = '{"atoms": [[-1.0, 0.5], [1.0, 0.5]], "spikes": [4.0], "q": 0.5}'


@pytest.mark.parametrize("argv, text, message", [
    (["simulate"], _SPIKES, "model field 'spikes' is not supported"),
    (["compare"], _SPIKES, "model field 'spikes' is not supported"),
    (["theory", "--kernel", "general"], _SPIKES, "model field 'spikes' is not supported"),
    (["simulate"], None, "No such file or directory"),
    (["simulate"], '{"q": 0.5}', "model needs at least one atom"),
    (["simulate"], '{"atoms": [[0.0, 1.0]', "Expecting"),
    (["theory", "--kernel", "general"], '{"atoms": [[Infinity, 0.5], [1.0, 0.5]], "q": 0.5}',
     "atom locations must be finite"),
    (["simulate"], '{"atoms": [[-1.0, NaN], [1.0, 1.0]], "q": 0.5}',
     "atom weights must be finite"),
    (["theory", "--kernel", "general"], '{"atoms": [[-1.0, 0.5], [1.0, 0.5]], "q": "0.5"}',
     "model field 'q' must be a number, got '0.5'"),
    (["simulate"], '{"atoms": [[null, 0.5], [1.0, 0.5]], "q": 0.5}',
     "atom location must be a number, got None"),
    (["simulate"], '{"atoms": 5, "q": 0.5}',
     "model field 'atoms' must be a list of [location, weight] pairs, got 5"),
    (["simulate"], '[[-1.0, 0.5], [1.0, 0.5]]', "model must be a JSON object, got list"),
], ids=["simulate-spikes", "compare-spikes", "theory-kernel-general-spikes", "missing-file",
        "no-atoms", "bad-json", "infinite-atom", "nan-weight", "string-q", "null-location",
        "atoms-not-a-list", "list-document"])
def test_refused_model_exits_two(capsys, tmp_path, monkeypatch, argv, text, message):
    model_path = tmp_path / "model.json"
    if text is not None:
        model_path.write_text(text)

    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran")

    monkeypatch.setattr(cli.montecarlo, "_run_decomposed", no_trials)
    flags = (["--mu", "0.3", "--lambda-range", "-2.5", "2.5"] if argv[0] == "theory"
             else ["--N", "40", "--qfrac", "0.5", "--trials", "100"])
    code, stdout, stderr = _run(capsys, argv + flags + ["--model", str(model_path)])
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"error: {' '.join(argv)} --model {model_path}: ")
    assert message in stderr


def test_numeric_failure_maps_to_exit_four(capsys, monkeypatch):
    def boom(config):
        raise NumericError("forced failure")

    monkeypatch.setattr(cli.montecarlo, "run_bulk_experiment", boom)
    code, _, stderr = _run(capsys, [
        "simulate", "--N", "90", "--qfrac", "0.5", "--trials", "100"])
    assert code == 4
    assert "forced failure" in stderr


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; its import used to be most of every run's set-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, minor_overlaps.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
