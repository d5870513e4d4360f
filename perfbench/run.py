"""Benchmark for minor-overlaps: whole CLI runs, one at a time, in fresh processes.

    python3 perfbench/run.py --workload bulk-goe --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout is the directory above this file and the
package is imported from its ``src/``.  The loop is closed: the next CLI run
starts when the previous one has exited.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced CLI runs
and reports the per-layer split plus the tracing overhead.  Thread settings
(``--threads``, ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``) are never set,
so the default pool and BLAS oversubscription stays in the figures.

The last stdout line is the result JSON; the lines before it are the same
metrics for a reader.  A results file with every sample and the recorded
environment goes to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Span, layer_metrics, percentile
from workloads import WORKLOADS, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
#: extra set-up-only starts per untraced run; with the CLI runs' own starts
#: they give the set-up median enough samples to be steady
SETUP_STARTS = 4
#: every run ends well inside the 180 s a benchmark run may take
HARD_LIMIT_S = 165.0


def spawn(record: Path, trace: bool, cli_args: list, timeout: float) -> dict:
    """Run child.py once: its record plus set-up time, or an ``error`` entry."""
    argv = [sys.executable, str(HERE / "child.py"), str(record), "1" if trace else "0",
            "--", *cli_args]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "elapsed_s": timeout}
    elapsed = time.monotonic() - t_spawn
    if proc.returncode != 0 or not record.is_file():
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}",
                "elapsed_s": elapsed}
    rec = json.loads(record.read_text())
    rec["setup_s"] = rec.pop("t_entry") - t_spawn
    rec["elapsed_s"] = elapsed
    return rec


def cli_run(workload, cli_args: list, seed: int, work: Path, k: int, trace: bool,
            timeout: float) -> dict:
    out = work / f"run{k}.csv"
    rec = spawn(work / f"run{k}.json", trace, cli_args + ["--out", str(out)], timeout)
    rec["traced"] = trace
    if "error" in rec:
        rec["problems"] = [rec["error"]]
        return rec
    trials, aborted = rec["reports"][0] if rec["reports"] else (0, 0)
    rec["trials"], rec["aborted"] = trials, aborted
    problems = [] if rec["exit_code"] == 0 else [f"CLI exited {rec['exit_code']}"]
    if out.is_file():
        problems += check_output(workload, out.read_text(), seed, trials, aborted)
    else:
        problems.append("CLI wrote no output")
    rec["problems"] = problems
    return rec


def measure(workload, cli_args: list, seed: int, seconds: int, trace: bool, work: Path):
    """CLI runs (and set-up-only starts) until ``seconds`` have passed."""
    start = time.monotonic()
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    setups = []
    if not trace:
        for k in range(SETUP_STARTS):
            rec = spawn(work / f"setup{k}.json", False, [], hard - time.monotonic())
            if "error" in rec:
                raise SystemExit(f"set-up start failed: {rec['error']}")
            setups.append(rec["setup_s"])
    runs = []
    min_runs = 2 if trace else 3
    while len(runs) < min_runs or (
            time.monotonic() + statistics.median(r["elapsed_s"] for r in runs) <= deadline):
        remaining = hard - time.monotonic()
        if remaining <= 0:
            break
        runs.append(cli_run(workload, cli_args, seed, work, len(runs),
                            trace and len(runs) % 2 == 1, remaining))
        if "error" in runs[-1] and runs[-1]["error"].startswith("timed out"):
            break
    return setups, runs


def median_of(runs, key):
    return statistics.median(r[key] for r in runs)


def end_to_end(setups, runs) -> dict:
    """Medians over the CLI runs that produced a record."""
    timed = [r for r in runs if "wall_s" in r]
    return {
        "wall_s": median_of(timed, "wall_s"),
        "trials_per_s": statistics.median((r["trials"] - r["aborted"]) / r["wall_s"]
                                          for r in timed),
        "cpu_s": median_of(timed, "cpu_s"),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in timed]),
        "peak_rss_mb": median_of(timed, "peak_rss_mb"),
    }


def per_layer(workload, runs) -> dict:
    """Medians of each layer metric over the traced runs, plus the tracing overhead."""
    traced = [r for r in runs if r["traced"] and "spans" in r]
    plain = [r for r in runs if not r["traced"] and "wall_s" in r]
    probe = workload.cli[0] == "probe"
    per_run = []
    for r in traced:
        m = layer_metrics([Span(*s) for s in r["spans"]], r["atomic_calls"])
        m["montecarlo.aborted"] = 0 if probe else r["aborted"]
        m["probes.increments"] = r["trials"] if probe else 0
        per_run.append(m)
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "minor_overlaps" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'minor_overlaps'} not found; run from a checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    key = f"{workload.name}-s{args.seed}-t{args.trace}"
    work = OUT / "work" / key
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cli_args = workload.argv(args.seed, work)
    setups, runs = measure(workload, cli_args, args.seed, args.seconds, bool(args.trace), work)

    attempted = len(runs) * workload.trials
    failed = sum(workload.trials if r["problems"] else r["aborted"] for r in runs)
    timed = [r for r in runs if "wall_s" in r]
    if not timed or (args.trace and not any(r["traced"] for r in timed)):
        for r in runs:
            print(f"run failed: {r['problems']}", file=sys.stderr)
        return 1
    metrics = per_layer(workload, runs) if args.trace else end_to_end(setups, runs)
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    if metrics.keys() != declared.keys():
        raise SystemExit(f"metrics {sorted(metrics.keys() ^ declared.keys())} "
                         "are not declared in BENCHMARK.json, or not measured")

    walls = [r["wall_s"] for r in timed if not r["traced"]]
    # the highest percentile with at least ten samples beyond it, when one exists
    tail_pct = int(100 * (1 - 10 / len(walls))) if len(walls) >= 11 else None
    envs = {json.dumps(r["env"], sort_keys=True) for r in timed}
    if len(envs) != 1:
        print("error: environment changed between CLI runs", file=sys.stderr)
        return 1
    results = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cli": cli_args,
        "env": json.loads(envs.pop()),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
        "tracing_overhead_s": metrics["trace.overhead_s"] if args.trace else None,
        "wall_s_samples": len(walls),
        "wall_s_tail": ({"percentile": tail_pct, "value": percentile(walls, tail_pct)}
                        if tail_pct else None),
        "attempted": attempted, "failed": failed,
        "setup_samples_s": setups + [r["setup_s"] for r in timed],
        "runs": [{k: v for k, v in r.items() if k not in ("spans", "env")} for r in runs],
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{key}.json").write_text(json.dumps(results, indent=1))

    print(f"{workload.name} seed={args.seed} trace={args.trace}: {len(runs)} CLI runs, "
          f"{len(results['setup_samples_s'])} set-up samples")
    for name, unit in declared.items():
        print(f"  {name:45s} {metrics[name]:14.6g} {unit}")
    print(f"  {'failed_frac':45s} {failed / attempted:14.6g} ratio")
    if results["wall_s_tail"]:
        tail = results["wall_s_tail"]
        print(f"  {'wall_s p' + str(tail['percentile']):45s} {tail['value']:14.6g} s")
    for r in runs:
        for problem in r["problems"]:
            print(f"  check failed: {problem}")
    print(json.dumps({
        "correct": not any(r["problems"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": results["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
