import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minor_overlaps import cli
from minor_overlaps.errors import NumericError
from minor_overlaps.overlaps_theory import FiniteInitialTransform
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


def test_compare_runs_and_gates(capsys, tmp_path, monkeypatch):
    args = ["compare", "--bulk", "--N", "100", "--qfrac", "0.5", "--t", "1",
            "--x", "0.5", "--trials", "100", "--seed", "7", "--bins", "13",
            "--out", str(tmp_path / "cmp.csv")]
    code, _, stderr = _run(capsys, args + ["--min-coverage", "0.0"])
    assert code == 0
    assert "coverage=" in stderr and "aborted=0 pool_threads=" in stderr
    k, judged, tail = re.search(r"misses=(\d+)/(\d+) miss_tail_p=(\S+)", stderr).groups()
    assert 0 <= int(k) <= int(judged) and 0 < float(tail) <= 1
    assert "refused=" not in stderr  # closed-form theory refuses no node
    # this run covers every judged bin; the gate is read on a report that covers half
    run = cli.montecarlo.run_bulk_experiment
    monkeypatch.setattr(cli.montecarlo, "run_bulk_experiment",
                        lambda config, model=None: dataclasses.replace(run(config), coverage=0.5))
    code, _, stderr = _run(capsys, args + ["--min-coverage", "0.6"])
    assert code == 3 and stderr.endswith("coverage below threshold 0.6\n")


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
    assert ("absorbed=" in stderr) == ("minor_at_edge=" in stderr) == (argv[0] == "spike")


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
    theory = cli.overlaps_theory
    monkeypatch.setattr(theory, "solve_stieltjes",
                        _counting(calls, "full", theory.solve_stieltjes))
    monkeypatch.setattr(theory, "solve_minor_stieltjes",
                        _counting(calls, "minor", theory.solve_minor_stieltjes))
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
    (["--qfrac", "1"], "--q must be in (0, 1), got 1.0"),
    (["--qfrac", "0.5", "--mu", "5"], "mu=5.0 lies outside the minor bulk"),
    (["--n0", "1"], "error: --n0 must be large enough that every atom gets an entry in the "
     "matrix and its minor, got 1 (atom at 1.0 with weight 0.5 gets no entry at size 1;"),
], ids=["q-one", "mu-outside-minor-bulk", "n0-one"])
def test_theory_general_refused_everywhere_exits_two(capsys, tmp_path, flags, message):
    model_path = tmp_path / "model.json"
    model_path.write_text('{"atoms": [[-1.0, 0.5], [1.0, 0.5]], "spikes": [], "q": 0.5}')
    code, stdout, stderr = _run(capsys, [
        "theory", "--kernel", "general", "--model", str(model_path), "--mu", "0.3",
        "--lambda-range", "-2.5", "2.5", "--bins", "8", "--n0", "200"] + flags)
    assert code == 2
    assert stdout == ""
    assert message in stderr


def _never(*args, **kwargs):
    raise AssertionError("the run started")


#: every stage that sets a run up: a refused argument must reach none of them
SET_UP = ((cli.montecarlo, "_run_decomposed"), (cli.montecarlo, "_scan_general_support"),
          (cli.montecarlo, "representative_diagonal"), (cli.montecarlo, "sample_path"),
          (cli.overlaps_theory, "representative_diagonal"), (cli.probes, "_frozen_state"),
          (FiniteInitialTransform, "from_matrix"), (FiniteInitialTransform, "from_diagonal"))


def _refuse_set_up(monkeypatch):
    for owner, name in SET_UP:
        monkeypatch.setattr(owner, name, _never)


_GENERAL = ["theory", "--kernel", "general", "--model", "{model}", "--mu", "0.3",
            "--lambda-range", "-2", "2"]
_PATH = ["spike", "--mode", "spike", "--path", "--lambda", "1", "--qfrac", "0.3", "--N", "30"]
_SIMULATE = ["simulate", "--N", "40", "--qfrac", "0.5", "--trials", "100"]
_COMPARE = ["compare", "--N", "40", "--qfrac", "0.5", "--trials", "100"]
_BULK_SPIKE = ["spike", "--mode", "bulk", "--lambda", "3", "--qfrac", "0.7", "--N", "40",
               "--trials", "100"]
_TOP_SPIKE = ["spike", "--mode", "spike", "--lambda", "1", "--qfrac", "0.3", "--N", "60",
              "--trials", "100"]
_BULK_BERNOULLI = ["bernoulli", "--mode", "bulk", "--qfrac", "0.5", "--trials", "100"]


@pytest.mark.parametrize("argv, message", [
    (["theory", "--kernel", "goe", "--q", "-0.5"], "--q must be in (0, 1), got -0.5"),
    (["theory", "--kernel", "goe", "--q", "0.5", "--t", "-1"], "--t must be > 0, got -1.0"),
    (["theory", "--spike-g", "--lambda", "3", "--q", "-0.7", "--t", "1"],
     "--q must be in (0, 1], got -0.7"),
    (["theory", "--spike-g", "--lambda", "3", "--q", "0.7", "--t", "-1"],
     "--t must be > 0, got -1.0"),
    (_GENERAL + ["--n0", "0"], "--n0 must be >= 1, got 0"),
    (_GENERAL + ["--n0", "-4"], "--n0 must be >= 1, got -4"),
    (_GENERAL + ["--t", "0"], "--t must be > 0, got 0.0"),
    (["theory", "--spike-mass", "--lambda", "3", "--q", "-0.5"], "--q must be in (0, 1], got -0.5"),
    (["theory", "--interlace", "--q", "-0.5"], "--q must be in (0, 1], got -0.5"),
    (["theory", "--interlace", "--q", "0.5", "--x", "1.5"], "--x must be in [0, 1], got 1.5"),
    (["theory", "--bernoulli-expansion", "--q", "-0.5"],
     "--q must be in (0, 1] with round(qN) >= 1, got -0.5"),
    (["theory", "--bernoulli-expansion", "--n", "0"], "--n must be in [1, 400], got 0"),
    (["theory", "--bernoulli-expansion", "--q", "0.5", "--N", "0"], "--N must be >= 1, got 0"),
    (_PATH + ["--t-max", "0"], "--t-max must be > 0, got 0.0"),
    (_PATH + ["--t-max", "-1"], "--t-max must be > 0, got -1.0"),
    (["spike", "--mode", "spike", "--lambda", "1", "--qfrac", "0.001", "--N", "60", "--t", "0.2"],
     "--q must be in (0, 1] with round(qN) >= 1, got 0.001"),
    (["spike", "--mode", "spike", "--lambda", "1", "--mu", "0.5", "--qfrac", "0.001", "--N",
      "60", "--t", "0.2"], "--q must be in (0, 1] with round(qN) >= 1, got 0.001"),
    (["spike", "--mode", "bulk", "--lambda", "3", "--qfrac", "0.005", "--N", "60", "--t", "1"],
     "--q must be in (0, 1) with 1 <= round(qN) <= N-1, got 0.005"),
    (["bernoulli", "--mode", "spike", "--p", "0.7", "--qfrac", "0.5", "--sizes", "400,-3",
      "--trials", "100"], "--sizes must be a list of sizes N with 1 <= round(qN) <= N-1, got -3"),
    (["bernoulli", "--mode", "spike", "--p", "0.7", "--qfrac", "0.5", "--sizes", "30,1",
      "--trials", "100"], "--sizes must be a list of sizes N with 1 <= round(qN) <= N-1, got 1"),
    (["probe", "--kind", "drift", "--N", "20", "--n", "10", "--trials", "1000", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["simulate", "--N", "40", "--qfrac", "0.5", "--trials", "100", "--seed", "-2"],
     "--seed must be >= 0, got -2"),
    (_COMPARE + ["--min-coverage", "2"], "--min-coverage must be in [0, 1], got 2.0"),
    (_COMPARE + ["--min-coverage", "-1"], "--min-coverage must be in [0, 1], got -1.0"),
    (_SIMULATE + ["--t", "-1"], "--t must be > 0, got -1.0"),
    (_SIMULATE + ["--x", "2"], "--x must be in [0, 1], got 2.0"),
    (["simulate", "--N", "40", "--qfrac", "1.5"],
     "--q must be in (0, 1) with 1 <= round(qN) <= N-1, got 1.5"),
    (["simulate", "--N", "0", "--qfrac", "0.5"], "--N must be >= 2, got 0"),
    (_BULK_SPIKE + ["--t", "0"], "--t must be > 0, got 0.0"),
    (_BULK_SPIKE + ["--t", "-1"], "--t must be > 0, got -1.0"),
    (_TOP_SPIKE + ["--t", "-1"], "--t must be >= 0, got -1.0"),
    (_BULK_BERNOULLI + ["--p", "1.5", "--N", "40"], "--p must be in (0, 1), got 1.5"),
    (_BULK_BERNOULLI + ["--p", "0.5", "--N", "1"], "--N must be >= 2, got 1"),
    (_SIMULATE[:-1] + ["50"], "--trials must be >= 100, got 50"),
    (_SIMULATE[:-1] + ["99", "--model", "{model}"], "--trials must be >= 100, got 99"),
    (_COMPARE[:-1] + ["0"], "--trials must be >= 100, got 0"),
    (_TOP_SPIKE[:-1] + ["50"], "--trials must be >= 100, got 50"),
    (_BULK_SPIKE[:-1] + ["50"], "--trials must be >= 100, got 50"),
    (_BULK_BERNOULLI[:-1] + ["50", "--p", "0.5", "--N", "40"], "--trials must be >= 100, got 50"),
    (["bernoulli", "--mode", "spike", "--p", "0.7", "--qfrac", "0.5", "--sizes", "30,40",
      "--trials", "50"], "--trials must be >= 100, got 50"),
    (["bernoulli", "--mode", "spike", "--p", "1.5", "--qfrac", "0.5", "--sizes", "30,40",
      "--trials", "100"], "--p must be in (0, 1], got 1.5"),
    (["bernoulli", "--mode", "spike", "--p", "0", "--qfrac", "0.5", "--sizes", "30,40",
      "--trials", "100"], "--p must be in (0, 1], got 0.0"),
    (_PATH + ["--steps", "0"], "--steps must be >= 1, got 0"),
    (_PATH + ["--steps", "-2"], "--steps must be >= 1, got -2"),
    (["spike", "--mode", "spike", "--path", "--lambda", "1", "--qfrac", "0.04", "--N", "30"],
     "--q must be in (0, 1] with round(qN) >= 2, got 0.04"),
    (["spike", "--mode", "spike", "--path", "--lambda", "1", "--qfrac", "1.5", "--N", "30"],
     "--q must be in (0, 1] with round(qN) >= 2, got 1.5"),
    (["spike", "--mode", "spike", "--path", "--lambda", "1", "--qfrac", "0.5", "--N", "1"],
     "--N must be >= 2, got 1"),
    (["theory", "--spike-f", "--lambda", "1", "--mu", "0.3", "--q", "1.5", "--t", "0.2"],
     "--q must be in (0, 1], got 1.5"),
    (["theory", "--lambda-star", "--mu", "0.3", "--q", "0"], "--q must be in (0, 1], got 0.0"),
    (["theory", "--spike-f", "--lambda", "1", "--mu", "0.3", "--q", "0.3", "--t", "-1"],
     "--t must be >= 0, got -1.0"),
    (["theory", "--lambda-star", "--mu", "0.3", "--q", "0.5", "--t", "-1"],
     "--t must be > 0, got -1.0"),
    (["theory", "--kernel", "goe", "--q", "0.5", "--x", "1.5"], "--x must be in [0, 1], got 1.5"),
    (_GENERAL + ["--q", "1.5"], "--q must be in (0, 1), got 1.5"),
    (["theory", "--bernoulli-expansion", "--q", "0.5", "--p", "1.5"],
     "--p must be in (0, 1], got 1.5"),
    (_SIMULATE + ["--threads", "-1"], "--threads must be >= 0, got -1"),
    (_TOP_SPIKE + ["--t", "0.2", "--threads", "-1"], "--threads must be >= 0, got -1"),
    (_BULK_SPIKE + ["--threads", "-1"], "--threads must be >= 0, got -1"),
    (_BULK_BERNOULLI + ["--p", "0.5", "--N", "40", "--threads", "-1"],
     "--threads must be >= 0, got -1"),
    (["bernoulli", "--mode", "spike", "--p", "0.7", "--qfrac", "0.5", "--sizes", "30,40",
      "--trials", "100", "--threads", "-1"], "--threads must be >= 0, got -1"),
    (["spike", "--mode", "bulk", "--lambda", "3", "--qfrac", "0.995", "--N", "60"],
     "--q must be in (0, 1) with 1 <= round(qN) <= N-1, got 0.995"),
    (_TOP_SPIKE + ["--t", "0.2", "--lambda=-1"], "--lambda must be > 0, got -1.0"),
    (_TOP_SPIKE + ["--t", "0.2", "--mu", "2"], "--mu must be in (0, 1.0], got 2.0"),
    (_PATH + ["--lambda=-1"], "--lambda must be >= 0, got -1.0"),
    (["bernoulli", "--mode", "spike", "--p", "0.7", "--qfrac", "1.5", "--sizes", "30,40",
      "--trials", "100"], "--q must be in (0, 1), got 1.5"),
    (_SIMULATE + ["--qfrac", "1.5", "--model", "{model}"],
     "--q must be in (0, 1) with 1 <= round(qN) <= N-1, got 1.5"),
    (_SIMULATE + ["--N", "0", "--model", "{model}"], "--N must be >= 2, got 0"),
    (_BULK_SPIKE + ["--lambda=-3"], "--lambda must be > 0, got -3.0"),
    (["theory", "--kernel", "general", "--model", "{model_q_one}", "--mu", "0.3",
      "--lambda-range", "-2", "2"], '--model must be a model with "q" in (0, 1), got "q": 1'),
    (["simulate", "--N", "200", "--qfrac", "0.5", "--trials", "100", "--model", "{model_rare}"],
     "--N must be large enough that every atom gets an entry in the matrix and its minor, got "
     "200 (atom at 5.0 with weight 0.001 gets no entry at size 200; use a larger size)"),
    (["theory", "--kernel", "goe", "--q", "0.5", "--mu", "5"],
     "--mu must be in the minor bulk [-1.41421, 1.41421], got 5.0"),
    (["theory", "--kernel", "goe", "--q", "0.5", "--mu", "1.5"],
     "--mu must be in the minor bulk [-1.41421, 1.41421], got 1.5"),
    (["theory", "--lambda-star", "--mu", "5", "--q", "0.5"],
     "--mu must be in the minor bulk [-1.41421, 1.41421], got 5.0"),
    (["theory", "--spike-g", "--lambda", "3", "--q", "0.5", "--mu", "5"],
     "--mu must be in the minor bulk [-1.41421, 1.41421], got 5.0"),
    (_TOP_SPIKE + ["--t", "0.2", "--mu", "0.5", "--qfrac", "1"],
     "--q must be in (0, 1) with 1 <= round(qN) <= N-1, got 1.0"),
], ids=["goe-q", "goe-t", "spike-g-q", "spike-g-t", "general-n0-zero", "general-n0-negative",
        "general-t", "spike-mass-q", "interlace-q", "interlace-x", "bernoulli-expansion-q",
        "bernoulli-expansion-n", "bernoulli-expansion-N", "spike-path-t-max-zero",
        "spike-path-t-max-negative", "spike-spike-empty-minor", "split-spike-empty-minor",
        "spike-bulk-empty-minor", "bernoulli-spike-negative-size", "bernoulli-spike-size-one",
        "probe-seed-negative", "simulate-seed-negative", "compare-min-coverage-above-one",
        "compare-min-coverage-negative", "simulate-t", "simulate-x", "simulate-q",
        "simulate-N", "spike-bulk-t-zero", "spike-bulk-t-negative", "spike-spike-t",
        "bernoulli-bulk-p", "bernoulli-bulk-N", "simulate-trials", "simulate-model-trials",
        "compare-trials", "spike-spike-trials", "spike-bulk-trials", "bernoulli-bulk-trials",
        "bernoulli-spike-trials", "bernoulli-spike-p-above-one", "bernoulli-spike-p-zero",
        "spike-path-steps-zero", "spike-path-steps-negative", "spike-path-one-minor-level",
        "spike-path-q-above-one", "spike-path-N", "spike-f-q-above-one", "lambda-star-q-zero",
        "spike-f-t-negative", "lambda-star-t-negative", "goe-x", "general-q",
        "bernoulli-expansion-p", "simulate-threads-negative", "spike-spike-threads-negative",
        "spike-bulk-threads-negative", "bernoulli-bulk-threads-negative",
        "bernoulli-spike-threads-negative", "spike-bulk-full-minor", "spike-spike-lambda-negative",
        "split-spike-mu-above-lambda", "spike-path-lambda-negative", "bernoulli-spike-q",
        "simulate-model-q", "simulate-model-N", "spike-bulk-lambda-negative",
        "general-model-q-one", "simulate-model-N-leaves-an-atom-out", "goe-mu-outside",
        "goe-mu-just-outside", "lambda-star-mu-outside", "spike-g-mu-outside",
        "split-spike-q-one"])
def test_theory_refuses_a_bad_range_before_the_arithmetic(capsys, tmp_path, monkeypatch, argv,
                                                         message):
    # exit 2 names the flag and its range, and numpy warns of nothing first;
    # pytest records warnings instead of printing them, so they are caught here
    # no trial, path, model realization or initial transform starts
    _refuse_set_up(monkeypatch)
    model_path, model_q_one = tmp_path / "model.json", tmp_path / "model_q_one.json"
    model_rare = tmp_path / "model_rare.json"
    model_path.write_text('{"atoms": [[-1.0, 0.5], [1.0, 0.5]], "spikes": [], "q": 0.5}')
    model_q_one.write_text('{"atoms": [[-1.0, 0.5], [1.0, 0.5]], "spikes": [], "q": 1}')
    model_rare.write_text('{"atoms": [[0.0, 0.999], [5.0, 0.001]], "q": 0.5}')
    argv = [arg.format(model=model_path, model_q_one=model_q_one, model_rare=model_rare)
            for arg in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, stderr = _run(capsys, argv)
    assert code == 2 and stdout == ""
    assert stderr == f"error: {message}\n" and "Warning" not in stderr
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("argv, formula", [
    (["theory", "--spike-f", "--lambda", "1e200", "--mu", "1e199", "--q", "0.3", "--t", "0.2"],
     "spike_spike_overlap"),
    (["theory", "--spike-g", "--lambda", "1e200", "--q", "0.5"], "spike_bulk_overlap"),
    (["theory", "--spike-mass", "--lambda", "1e200", "--q", "0.3", "--t", "0.2"],
     "spike_bulk_mass"),
    (["spike", "--mode", "spike", "--lambda", "1e200", "--qfrac", "0.3", "--t", "0.2",
      "--N", "60", "--trials", "100"], "spike_spike_overlap"),
    (["spike", "--mode", "bulk", "--lambda", "1e200", "--qfrac", "0.7", "--t", "1",
      "--N", "40", "--trials", "100"], "spike_bulk_mass"),
], ids=["theory-spike-f", "theory-spike-g", "theory-spike-mass", "spike-spike", "spike-bulk"])
def test_an_overflowing_spike_formula_exits_four(capsys, argv, formula):
    # spike ** 2 of a Python float raises OverflowError; the run refuses it, with no traceback
    code, stdout, stderr = _run(capsys, argv)
    assert (code, stdout) == (4, "")
    assert stderr == f"numeric failure: {formula} overflows a float at spike=1e+200\n"


def test_spike_run_without_two_kept_trials_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(cli.montecarlo, "_spike_absorbed", lambda top_eval, t: True)
    code, stdout, stderr = _run(capsys, [
        "spike", "--mode", "spike", "--lambda", "1", "--qfrac", "0.3", "--t", "0.2",
        "--N", "60", "--trials", "100"])
    assert (code, stdout) == (4, "")
    assert stderr == ("numeric failure: 0 of 100 trials kept (0 aborted, 100 absorbed); "
                      "a run needs at least 2\n")


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


@pytest.mark.parametrize("argv, message", [
    (_DRIFT + ["--n", "0"], "--n must be in [3, 19], got 0"),
    (_DRIFT + ["--n", "2"], "--n must be in [3, 19], got 2"),
    (_DRIFT + ["--n", "20"], "--n must be in [3, 19], got 20"),
    (_DRIFT + ["--n", "25"], "--n must be in [3, 19], got 25"),
    (_CORRELATION + ["--n", "20"], "--n must be in [3, 19], got 20"),
    (_CORRELATION + ["--n", "2"], "--n must be in [3, 19], got 2"),
    (_CORRELATION + ["--n", "1"], "--n must be in [3, 19], got 1"),
    (_DRIFT + ["--dt", "0"], "--dt must be > 0, got 0.0"),
    (_CORRELATION + ["--dt", "0"], "--dt must be > 0, got 0.0"),
    (_CORRELATION + ["--dt=-1"], "--dt must be > 0, got -1.0"),
    (_DRIFT + ["--dt=-1e-4"], "--dt must be > 0, got -0.0001"),
    (_DRIFT + ["--t", "0"], "--t must be > 0, got 0.0"),
    (_CORRELATION + ["--N", "101"], "--N must be in [4, 100], got 101"),
    (_DRIFT + ["--N", "101"], "--N must be in [4, 100], got 101"),
    (_DRIFT + ["--trials", "999"], "--trials must be >= 1000, got 999"),
    (_CORRELATION + ["--samples", "999"], "--samples must be >= 10000, got 999"),
    (_CORRELATION + ["--t", "-1"], "--t must be >= 0, got -1.0"),
    (_DRIFT + ["--N", "3", "--n", "2"], "--N must be in [4, 100], got 3"),
], ids=["drift-n-0", "drift-n-2", "drift-n-equals-N", "drift-n-above-N", "correlation-n-equals-N",
        "correlation-n-2", "correlation-n-1", "drift-dt-0", "correlation-dt-0",
        "correlation-dt-negative", "drift-dt-negative", "drift-t-0", "correlation-N-101",
        "drift-N-101", "drift-trials", "correlation-samples", "correlation-t-negative",
        "drift-N-3"])
def test_probe_invalid_input_exits_two(capsys, monkeypatch, argv, message):
    # each flag is refused by name before the frozen state is built
    _refuse_set_up(monkeypatch)
    code, stdout, stderr = _run(capsys, argv)
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {message}\n"


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
    assert stderr == f"error: --bins must be >= 1, got {bins}\n"


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
    assert stderr == f"error: --threads must be >= 0, got {argv[-1]}\n"


@pytest.mark.parametrize("argv", [
    ["compare", "--bulk", "--N", "40", "--qfrac", "0.5", "--trials", "100"],
    _SPIKE_SPIKE, _SPIKE_BULK, _BERNOULLI_BULK, _BERNOULLI_SPIKE,
], ids=["compare", "spike-spike", "spike-bulk", "bernoulli-bulk", "bernoulli-spike"])
def test_threads_above_the_pool_bound_exit_two_before_any_thread_starts(capsys, monkeypatch,
                                                                        argv):
    def never(*args, **kwargs):
        raise AssertionError("the pool started")

    monkeypatch.setattr(cli.montecarlo, "ThreadPoolExecutor", never)
    limit = cli.montecarlo.max_threads()
    code, stdout, stderr = _run(capsys, argv + ["--threads", str(limit + 1)])
    assert code == 2
    assert stdout == ""
    assert stderr == (f"error: --threads must be at most {limit} (4 per available core), "
                      f"got {limit + 1}\n")


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
def test_unwritable_out_exits_two(capsys, monkeypatch, tmp_path, argv, target):
    # refused before any work: the run's computation fails the test if it is called
    def computes(*args, **kwargs):
        raise AssertionError("computed before --out was refused")

    for module, name in ((cli.overlaps_theory, "interlace_interval"),
                         (cli.montecarlo, "run_bulk_experiment"),
                         (cli.montecarlo, "run_bernoulli_spike")):
        monkeypatch.setattr(module, name, computes)
    out = tmp_path / target
    code, stdout, stderr = _run(capsys, argv + ["--out", str(out)])
    assert code == 2
    assert stdout == ""
    reason = "No such file or directory" if target != "." else "Is a directory"
    assert stderr == f"error: --out {out}: {reason}\n"


def test_out_that_goes_away_during_the_run_exits_two(capsys, monkeypatch, tmp_path):
    # the directory passes the check before the run and is gone when the run writes
    out = tmp_path / "gone" / "x.csv"
    out.parent.mkdir()
    interlace_interval = cli.overlaps_theory.interlace_interval

    def removes_the_directory(*args):
        out.parent.rmdir()
        return interlace_interval(*args)

    monkeypatch.setattr(cli.overlaps_theory, "interlace_interval", removes_the_directory)
    code, stdout, stderr = _run(capsys, ["theory", "--interlace", "--qfrac", "0.9",
                                         "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert stderr == f"error: --out {out}: No such file or directory\n"


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
    def boom(config, model=None):
        raise NumericError("forced failure")

    monkeypatch.setattr(cli.montecarlo, "run_bulk_experiment", boom)
    code, _, stderr = _run(capsys, [
        "simulate", "--N", "90", "--qfrac", "0.5", "--trials", "100"])
    assert code == 4
    assert "forced failure" in stderr


def _python_with_src(code: str, timeout=None, env=None) -> str:
    """Stdout of ``python -c code`` in a fresh interpreter that imports the package from ``src``.

    ``env`` adds to the caller's environment.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=timeout).stdout


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; its import used to be most of every run's set-up
    out = _python_with_src("import sys, minor_overlaps.cli; "
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_gauss_constants_are_leggauss_and_a_model_run_loads_no_numpy_polynomial():
    nodes, weights = np.polynomial.legendre.leggauss(5)
    assert cli.montecarlo._GAUSS_NODES.tobytes() == nodes.tobytes()
    assert cli.montecarlo._GAUSS_WEIGHTS.tobytes() == weights.tobytes()
    model = Path(__file__).resolve().parent / "golden" / "two_atom_model.json"
    argv = ["simulate", "--N", "40", "--qfrac", "0.5", "--t", "1", "--trials", "100",
            "--bins", "9", "--model", str(model)]
    out = _python_with_src(f"import sys; from minor_overlaps import cli; code = cli.main({argv}); "
                           "print(code, 'numpy.polynomial' in sys.modules)")
    assert out.splitlines()[-1] == "0 False"


def test_correlation_probe_prints_the_same_bytes_at_any_blas_thread_count():
    # OpenBLAS reads its count at start-up, so each count needs its own
    # interpreter; at the caller's count, 50 of these rows differed in their
    # last digits between one thread and two
    argv = ["probe", "--kind", "correlation", "--N", "60", "--n", "30", "--samples", "20000",
            "--seed", "3"]
    code = f"from minor_overlaps import cli; cli.main({argv})"
    one, two = (_python_with_src(code, env={"OPENBLAS_NUM_THREADS": k}) for k in ("1", "2"))
    assert len(one.splitlines()) == 82
    assert one == two


def test_bisections_stop_where_the_float_spacing_exceeds_their_width():
    # at t = 1e8 the roots lie beyond 4.5e3, where adjacent floats are more than
    # 1e-12 apart: a width test alone never ends, so the run sits in its own
    # interpreter and a hang fails the test after 60 s
    argvs = [["theory", "--interlace", "--q", "0.5", "--t", "1e8", "--x", "0.1"],
             ["theory", "--kernel", "goe", "--q", "0.5", "--t", "1e8", "--x", "0.1",
              "--bins", "3"],
             ["theory", "--lambda-star", "--mu", "1e4", "--q", "0.5", "--t", "1e8"]]
    out = _python_with_src(f"from minor_overlaps import cli; "
                           f"print([cli.main(argv) for argv in {argvs}])", timeout=60)
    lines = out.splitlines()
    assert lines[-1] == "[0, 0, 0]"
    lower, upper = (float(v) for v in lines[1].split(",")[3:])
    assert -2e4 < lower < upper < 2e4
    peak = float(lines[-2])
    assert 1e4 <= peak <= 1e4 / np.sqrt(0.5)  # mu <= peak <= mu / sqrt(q)


_MODEL = str(Path(__file__).resolve().parent / "golden" / "two_atom_model.json")
_THREADS = f"int[0,{cli.montecarlo.max_threads()}]"
_SHARED = {"--trials": "int[100,inf)", "--threads": _THREADS, "--seed": "int[0,inf)"}

#: a valid run of each mode, and the range of each numeric flag it reads; a
#: range is an interval such as "(0,1]", of integers when it starts with "int"
_RANGES = {
    "simulate": (_SIMULATE + ["--bins", "5"], {
        "--N": "int[2,inf)", "--q": "(0,1)", "--t": "(0,inf)", "--x": "[0,1]",
        "--bins": "int[1,inf)", **_SHARED}),
    "spike-spike": (_TOP_SPIKE + ["--t", "0.2"], {
        "--N": "int[1,inf)", "--q": "(0,1]", "--t": "[0,inf)", "--lambda": "(0,inf)",
        "--mu": "(0,1]", **_SHARED}),
    "spike-bulk": (_BULK_SPIKE + ["--bins", "5"], {
        "--N": "int[2,inf)", "--q": "(0,1)", "--t": "(0,inf)", "--lambda": "(0,inf)",
        "--bins": "int[1,inf)", **_SHARED}),
    "spike-path": (_PATH, {
        "--N": "int[2,inf)", "--q": "(0,1]", "--lambda": "[0,inf)", "--t-max": "(0,inf)",
        "--steps": "int[1,inf)", "--seed": "int[0,inf)"}),
    "bernoulli-bulk": (_BULK_BERNOULLI + ["--p", "0.5", "--N", "40", "--bins", "5"], {
        "--N": "int[2,inf)", "--q": "(0,1)", "--p": "(0,1)", "--bins": "int[1,inf)", **_SHARED}),
    "bernoulli-spike": (_BERNOULLI_SPIKE, {
        "--q": "(0,1)", "--p": "(0,1]", "--sizes": "int[2,inf)", **_SHARED}),
    "probe-drift": (_DRIFT, {
        "--N": "int[4,100]", "--n": "int[3,19]", "--t": "(0,inf)", "--dt": "(0,inf)",
        "--trials": "int[1000,inf)", "--seed": "int[0,inf)"}),
    "probe-correlation": (_CORRELATION, {
        "--N": "int[4,100]", "--n": "int[3,19]", "--t": "[0,inf)", "--dt": "(0,inf)",
        "--samples": "int[10000,inf)", "--seed": "int[0,inf)"}),
    "kernel-goe": (_KERNEL_GOE, {
        "--q": "(0,1)", "--t": "(0,inf)", "--x": "[0,1]", "--bins": "int[1,inf)"}),
    "kernel-general": ([a.replace("m.json", _MODEL) for a in _KERNEL_GENERAL]
                       + ["--q", "0.5", "--bins", "8", "--n0", "200"], {
        "--q": "(0,1)", "--t": "(0,inf)", "--bins": "int[1,inf)", "--n0": "int[1,inf)"}),
    "spike-f": (_SPIKE_F, {
        "--lambda": "(0,inf)", "--mu": "(0,1]", "--q": "(0,1]", "--t": "[0,inf)"}),
    "spike-g": (_SPIKE_G, {"--q": "(0,1]", "--t": "(0,inf)", "--bins": "int[1,inf)"}),
    "lambda-star": (["theory", "--lambda-star", "--mu", "0.3", "--q", "0.5"], {
        "--q": "(0,1]", "--t": "(0,inf)"}),
    "interlace": (["theory", "--interlace", "--q", "0.9"], {
        "--q": "(0,1]", "--t": "(0,inf)", "--x": "[0,1]"}),
    "spike-mass": (["theory", "--spike-mass", "--lambda", "3", "--q", "0.5"], {
        "--q": "(0,1]", "--t": "[0,inf)"}),
    "bernoulli-expansion": (_EXPANSION + ["--q", "0.5"], {
        "--N": "int[1,inf)", "--q": "(0,1]", "--p": "(0,1]"}),
}


def _outside(interval: str):
    """Values just outside ``interval``: at an open end, or up to 1e-3 (3 integers) past an end."""
    integer = interval.startswith("int")
    interval = interval.removeprefix("int")
    lo, hi = (float(v) for v in interval[1:-1].split(","))
    if integer:
        sides = [st.integers(1, 3).map(lambda i: int(lo) - i)]
        if hi < np.inf:
            sides.append(st.integers(1, 3).map(lambda i: int(hi) + i))
    else:
        def gap(open_end):
            return st.floats(0.0 if open_end else 1e-9, 1e-3)
        sides = [gap(interval[0] == "(").map(lambda d: lo - d)]
        if hi < np.inf:
            sides.append(gap(interval[-1] == ")").map(lambda d: hi + d))
    return st.one_of(sides)


@given(st.data())
def test_a_value_just_outside_a_flag_range_is_refused_by_that_flag(data):
    # one owner per rule: whichever entry point refuses, the message names the
    # flag the user gave, and no stage that sets a run up is reached first
    argv, ranges = _RANGES[data.draw(st.sampled_from(sorted(_RANGES)), label="mode")]
    flag = data.draw(st.sampled_from(sorted(ranges)), label="flag")
    value = data.draw(_outside(ranges[flag]), label="value")
    text = f"30,{value}" if flag == "--sizes" else value
    out, err = io.StringIO(), io.StringIO()
    with (pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        _refuse_set_up(patch)
        code = cli.main(argv + [f"{flag}={text}"])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith(f"error: {flag} must be ")
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
