"""Golden outputs: one small invocation per CLI subcommand mode against recorded stdout.

Each case runs ``cli.main`` in-process and compares its stdout and exit code
with ``tests/golden/<case>.out`` and ``tests/golden/exit_codes.json``.  CSV
headers, row counts, empty cells and integer and text cells must match
exactly, floats within ``RTOL``; JSON reports compare the same way, without
``wall_time_s``.  The tolerance absorbs last-digit differences between BLAS
builds and thread counts, not changes of an estimator or a formula.

Re-record after an intended output change with

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from minor_overlaps import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
MODEL = "{golden}/two_atom_model.json"
RTOL = 1e-12
_INTEGER = re.compile(r"-?\d+")

_SIM = ["--N", "40", "--qfrac", "0.5", "--t", "1", "--trials", "100", "--bins", "9"]
_SPIKE = ["--mode", "spike", "--lambda", "1", "--qfrac", "0.3", "--t", "0.2", "--N", "60",
          "--trials", "100"]
_SPIKE_BULK = ["--mode", "bulk", "--lambda", "3", "--qfrac", "0.7", "--t", "1", "--N", "40",
               "--trials", "100", "--bins", "7"]
_BERNOULLI_BULK = ["--mode", "bulk", "--p", "0.5", "--N", "40", "--qfrac", "0.5",
                   "--trials", "100", "--bins", "7"]
_BERNOULLI_SPIKE = ["--mode", "spike", "--p", "0.7", "--qfrac", "0.5", "--sizes", "30,40",
                    "--trials", "100"]
_CORRELATION = ["--kind", "correlation", "--N", "12", "--n", "6", "--samples", "10000",
                "--dt", "0.5"]
_DRIFT = ["--kind", "drift", "--N", "12", "--n", "6", "--trials", "1000"]

CASES = {
    "theory-kernel-goe": ["theory", "--kernel", "goe", "--q", "0.5", "--t", "1", "--x", "0.3",
                          "--bins", "12"],
    "theory-kernel-goe-mu": ["theory", "--kernel", "goe", "--q", "0.5", "--mu", "0.2"],
    "theory-kernel-general": ["theory", "--kernel", "general", "--model", MODEL, "--mu", "0.3",
                              "--q", "0.5", "--t", "1", "--lambda-range", "-2.5", "2.5",
                              "--bins", "20", "--n0", "100"],
    "theory-kernel-general-model-q": ["theory", "--kernel", "general", "--model", MODEL,
                                      "--mu", "0.3", "--lambda-range", "-2.5", "2.5",
                                      "--bins", "20", "--n0", "100"],
    "theory-spike-f": ["theory", "--spike-f", "--lambda", "1", "--mu", "0.3", "--qfrac", "0.3",
                       "--t", "0.2"],
    "theory-spike-g-curve": ["theory", "--spike-g", "--lambda", "3", "--qfrac", "0.7",
                             "--t", "1", "--bins", "10"],
    "theory-spike-g-value": ["theory", "--spike-g", "--lambda", "3", "--qfrac", "0.7",
                             "--t", "1", "--mu", "0.5"],
    "theory-lambda-star": ["theory", "--lambda-star", "--mu", "0.4", "--t", "1",
                           "--qfrac", "0.5"],
    "theory-interlace": ["theory", "--interlace", "--x", "0.3", "--t", "1", "--qfrac", "0.9"],
    "theory-interlace-defaults": ["theory", "--interlace", "--qfrac", "0.9"],
    "theory-spike-mass": ["theory", "--spike-mass", "--lambda", "3", "--qfrac", "0.7",
                          "--t", "1"],
    "theory-bernoulli-expansion": ["theory", "--bernoulli-expansion", "--N", "200",
                                   "--q", "0.5", "--p", "0.7"],
    "theory-bernoulli-expansion-n": ["theory", "--bernoulli-expansion", "--n", "100"],
    "theory-no-mode": ["theory", "--q", "0.5"],
    "simulate-goe": ["simulate"] + _SIM + ["--seed", "3"],
    "simulate-goe-json": ["simulate"] + _SIM + ["--x", "0.2", "--seed", "4",
                                                "--format", "json"],
    "simulate-model": ["simulate"] + _SIM + ["--model", MODEL, "--seed", "5"],
    "compare-goe": ["compare", "--bulk"] + _SIM + ["--seed", "6"],
    "compare-model-json": ["compare"] + _SIM + ["--model", MODEL, "--seed", "7",
                                                "--min-coverage", "0", "--format", "json"],
    "spike-spike": ["spike"] + _SPIKE + ["--seed", "8"],
    "spike-spike-json": ["spike"] + _SPIKE + ["--mu", "0.4", "--seed", "9",
                                              "--format", "json"],
    "spike-path": ["spike", "--mode", "spike", "--path", "--lambda", "1", "--qfrac", "0.3",
                   "--N", "40", "--t-max", "1.2", "--steps", "8", "--seed", "10"],
    "spike-path-defaults": ["spike", "--mode", "spike", "--path", "--lambda", "1",
                            "--qfrac", "0.3", "--N", "40", "--seed", "21"],
    "spike-bulk": ["spike"] + _SPIKE_BULK + ["--seed", "11"],
    "spike-bulk-json": ["spike"] + _SPIKE_BULK + ["--seed", "12", "--format", "json"],
    "bernoulli-bulk": ["bernoulli"] + _BERNOULLI_BULK + ["--seed", "13"],
    "bernoulli-bulk-json": ["bernoulli"] + _BERNOULLI_BULK + ["--seed", "14",
                                                              "--format", "json"],
    "bernoulli-spike": ["bernoulli"] + _BERNOULLI_SPIKE + ["--seed", "15"],
    "bernoulli-spike-json": ["bernoulli"] + _BERNOULLI_SPIKE + ["--seed", "16",
                                                                "--format", "json"],
    "probe-correlation": ["probe"] + _CORRELATION + ["--seed", "17"],
    "probe-correlation-json": ["probe"] + _CORRELATION + ["--seed", "18", "--format", "json"],
    "probe-drift": ["probe"] + _DRIFT + ["--seed", "19"],
    "probe-drift-json": ["probe"] + _DRIFT + ["--seed", "20", "--format", "json"],
}


def run_case(name: str):
    """``(exit code, stdout)`` of one case, run in-process."""
    argv = [a.replace("{golden}", str(GOLDEN_DIR)) for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue()


def _same_float(new: float, old: float) -> bool:
    return new == old or abs(new - old) <= RTOL * max(abs(new), abs(old))


def _check_cell(new: str, old: str, where: str):
    if old == "" or _INTEGER.fullmatch(old):
        assert new == old, where
        return
    try:
        old_value = float(old)
    except ValueError:  # a text column
        assert new == old, where
        return
    assert _same_float(float(new), old_value), f"{where}: {new} vs {old}"


def _check_csv(new: str, old: str):
    new_lines, old_lines = new.split("\n"), old.split("\n")
    assert new_lines[0] == old_lines[0]
    assert len(new_lines) == len(old_lines)
    for r, (new_line, old_line) in enumerate(zip(new_lines[1:], old_lines[1:]), start=1):
        new_cells, old_cells = new_line.split(","), old_line.split(",")
        assert len(new_cells) == len(old_cells), f"row {r}"
        for c, (n, o) in enumerate(zip(new_cells, old_cells)):
            _check_cell(n, o, f"row {r} column {c}")


def _check_json(new, old, where="$"):
    assert type(new) is type(old), where
    if isinstance(old, dict):
        assert list(new) == list(old), where
        for key in old:
            _check_json(new[key], old[key], f"{where}.{key}")
    elif isinstance(old, list):
        assert len(new) == len(old), where
        for i, (n, o) in enumerate(zip(new, old)):
            _check_json(n, o, f"{where}[{i}]")
    elif isinstance(old, float):
        assert _same_float(new, old), f"{where}: {new} vs {old}"
    else:
        assert new == old, where


def _without_wall_time(text: str):
    obj = json.loads(text)
    assert isinstance(obj.pop("wall_time_s"), float)
    return obj


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, stdout = run_case(name)
    golden = (GOLDEN_DIR / f"{name}.out").read_text()
    assert code == json.loads((GOLDEN_DIR / "exit_codes.json").read_text())[name]
    if golden.startswith("{"):
        _check_json(_without_wall_time(stdout), _without_wall_time(golden))
    else:
        _check_csv(stdout, golden)


def record():
    """Write every case's stdout and the exit codes under ``GOLDEN_DIR``."""
    codes = {}
    for name in sorted(CASES):
        codes[name], stdout = run_case(name)
        (GOLDEN_DIR / f"{name}.out").write_text(stdout)
    (GOLDEN_DIR / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
