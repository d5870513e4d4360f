"""Command-line surface.

Subcommands: ``theory`` (closed-form curves and values, one mode flag per
call), ``simulate`` (bulk Monte Carlo), ``compare`` (simulate + coverage
gate), ``spike`` (spike-spike, spike-bulk, trajectory path), ``bernoulli``
(bulk/spike universality runs), ``probe`` (SDE-level checks).

Exit codes: 0 success; 2 invalid configuration or domain error; 3 coverage
below threshold (``compare``); 4 runtime numeric failure.  When ``--out`` is
given, stdout stays silent and diagnostics go to stderr.

The library owns every range rule: an entry point refuses an argument by name
(:class:`~minor_overlaps.errors.InputError`), and :func:`main` prints it as
``error: {flag} must be {allowed}, got {value}``, the flag found by its dest,
which is the library's name.  The CLI checks only what no library function
receives: ``--out``, ``--format`` with ``--path``, ``--min-coverage`` and the
flags each mode reads (:data:`MODES`).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import montecarlo, overlaps_theory, probes, reports
from .errors import DomainError, InputError, NumericError
from .freeprob import SpectrumModel
from .montecarlo import ASpec, ExperimentConfig


def _finite(text: str) -> float:
    """Type of every float flag: ``nan``, ``inf`` and non-numbers exit 2 at parse time."""
    try:
        if np.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")


def _sizes(text: str) -> tuple:
    """Type of ``--sizes``: a comma list of integers, refused at parse time otherwise."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid comma list of integers: {text!r}") from None


def _add_out(parser):
    parser.add_argument("--out", type=str, default=None, help="output path (default: stdout)")


def _add_report(parser, pool=True, threads=0):
    """Flags of the seeded subcommands; ``--threads`` (parser default ``threads``) with a pool."""
    _add_out(parser)
    parser.add_argument("--seed", type=int, default=42, dest="master_seed" if pool else "seed",
                        help="master seed (default 42)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if pool:
        parser.add_argument("--threads", type=int, default=threads,
                            help="pool worker threads, 0 = one per available core")


def _add_q(parser, required=False):
    parser.add_argument("--qfrac", "--q", dest="q", type=_finite, required=required,
                        help="minor fraction q")


def _check_out(out: str):
    """Refuse an ``--out`` that cannot be written before any work starts (exit 2).

    :func:`_emit` still refuses a write that fails when the run is done.
    """
    path = Path(out)
    if path.is_dir():
        reason = "Is a directory"
    elif not path.parent.is_dir():
        reason = "No such file or directory"
    elif not os.access(path if path.exists() else path.parent, os.W_OK):
        reason = "Permission denied"
    else:
        return
    raise ValueError(f"--out {out}: {reason}")


def _emit(args, text: str):
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:  # an unwritable path is invalid input: exit 2
            raise ValueError(f"--out {args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _note(message: str):
    print(message, file=sys.stderr)


def _fmt_cov(coverage) -> str:
    return "n/a" if coverage is None else f"{coverage:.4f}"


def _emit_report(args, report, to_csv):
    _emit(args, reports.report_json(report) if args.format == "json" else to_csv(report))


def _fmt_misses(extras) -> str:
    k, judged = extras["misses"]
    return (f"misses={k}/{judged} "
            f"miss_tail_p={montecarlo.miss_tail_probability(k, judged):.4g}")


def _fmt_threads(extras) -> str:
    return (f"pool_threads={extras['pool_threads']} "
            f"trial_blas_threads={extras['trial_blas_threads']}")


def _fmt_run(extras) -> str:
    refused = f" refused={extras['refused_nodes']}" if "refused_nodes" in extras else ""
    return f"aborted={extras['aborted_trials']} {_fmt_threads(extras)}{refused}"


def _read_model(path: str, mode: str) -> SpectrumModel:
    try:
        return SpectrumModel.from_json(Path(path).read_text())
    except (OSError, ValueError) as exc:  # an unread or refused model names the mode and flag
        raise ValueError(f"{mode} --model {path}: {exc}") from None


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

def _theory_value(fn, *dests):
    """Mode that prints ``fn`` of the flags ``dests`` as a one-value CSV."""
    return lambda args: _emit(args, reports.value_csv(fn(*(getattr(args, d) for d in dests))))


def _theory_kernel_goe(args):
    lams, mu, w, w_rho = overlaps_theory.kernel_goe_curve(args.t, args.q, args.bins, args.x,
                                                          args.mu)
    _emit(args, reports.theory_curve_csv(lams, mu, args.t, args.q, w, w_rho))


def _theory_kernel_general(args):
    model = _read_model(args.model, "theory --kernel general")
    lams, w, rho = overlaps_theory.general_kernel_curve(model, args.mu, args.lambda_range,
                                                        args.bins, args.t, args.q, args.n0)
    q = args.q if args.q is not None else model.q
    ok = ~np.isnan(w)
    _emit(args, reports.theory_curve_csv(lams[ok], args.mu, args.t, q, w[ok], w[ok] * rho[ok]))
    _note(f"refused={args.bins - ok.sum()}")


def _theory_spike_g(args):
    if args.mu is not None:
        return _theory_value(overlaps_theory.spike_bulk_overlap, "spike", "q", "t", "mu")(args)
    mus, g, g_rho = overlaps_theory.spike_bulk_curve(args.spike, args.q, args.t, args.bins)
    _emit(args, reports.theory_curve_csv(mus, args.spike, args.t, args.q, g, g_rho,
                                         leading="mu"))


def _theory_interlace(args):
    lo, hi = overlaps_theory.interlace_interval(args.x, args.t, args.q)
    _emit(args, reports.csv_lines("x,t,q,lower,upper", [(args.x, args.t, args.q, lo, hi)]))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _config(args, target: str, **fields) -> ExperimentConfig:
    """The run's config from the flags every Monte Carlo mode reads, updated by ``fields``."""
    shared = dict(n_dim=args.n_dim, q=args.q, trials=args.trials, master_seed=args.master_seed,
                  threads=args.threads)
    return ExperimentConfig(target=target, **(shared | fields))


def _run_bulk(args):
    config = _config(args, "bulk", t=args.t, x=args.x, bins=args.bins)
    model = _read_model(args.model, args.command) if args.model else None
    return montecarlo.run_bulk_experiment(config, model)


def cmd_simulate(args):
    report = _run_bulk(args)
    _emit_report(args, report, reports.bulk_report_csv)
    _note(f"coverage={_fmt_cov(report.coverage)} mu_hat={report.extras['mu_hat']:.6g} "
          f"{_fmt_run(report.extras)}")


def cmd_compare(args):
    if not 0.0 <= args.min_coverage <= 1.0:
        raise ValueError(f"--min-coverage must be in [0, 1], got {args.min_coverage}")
    report = _run_bulk(args)
    _emit_report(args, report, reports.bulk_report_csv)
    peak = ""
    if "interlace_lo" in report.extras:
        lo, hi = report.extras["interlace_lo"], report.extras["interlace_hi"]
        argmax = report.extras["argmax_center"]
        half_bin = report.extras["bin_width"] / 2.0
        argmax_ok = (lo - half_bin) <= argmax <= (hi + half_bin)
        peak = (f"argmax_center={argmax:.6g} interlace=[{lo:.6g},{hi:.6g}] "
                f"argmax_in_interval={argmax_ok} ")
    _note(f"coverage={_fmt_cov(report.coverage)} {_fmt_misses(report.extras)} "
          f"{peak}{_fmt_run(report.extras)}")
    if report.coverage is None or report.coverage < args.min_coverage:
        _note(f"coverage below threshold {args.min_coverage}")
        return 3


def _spike_path(args):
    if args.format != "csv":
        raise ValueError("spike --path writes a CSV trajectory only; drop --format json")
    series = montecarlo.spike_path_series(args.n_dim, args.q, args.spike, args.t_max,
                                          args.steps, args.master_seed)
    _emit(args, reports.trajectory_csv(series))


def _spike_spike(args):
    a_spec = (ASpec(kind="split_spike", spike=args.spike, minor_spike=args.mu)
              if args.mu is not None else ASpec(kind="uniform_spike", spike=args.spike))
    report = montecarlo.run_spike_spike(_config(args, "spike_spike", t=args.t, a_spec=a_spec))
    _emit_report(args, report, reports.spike_top_report_csv)
    est = report.estimates[0]
    _note(f"top_overlap={est.mean:.6g} theory={report.theory[0]:.6g} "
          f"absorbed={report.extras['absorbed_trials']} "
          f"minor_at_edge={report.extras['minor_edge_trials']} {_fmt_run(report.extras)}")


def _spike_bulk(args):
    config = _config(args, "spike_bulk", t=args.t, bins=args.bins,
                     a_spec=ASpec(kind="tail_spike", spike=args.spike))
    report = montecarlo.run_spike_bulk(config)
    _emit_report(args, report, reports.spike_bulk_report_csv)
    mass = report.estimates[-1]
    _note(f"coverage={_fmt_cov(report.coverage)} total_mass={mass.mean:.6g} "
          f"theory_mass={report.theory[-1]:.6g} "
          f"absorbed={report.extras['absorbed_trials']} {_fmt_run(report.extras)}")


def _bernoulli_bulk(args):
    report = montecarlo.run_bernoulli_bulk(
        _config(args, "bernoulli_bulk", t=0.0, p=args.p, bins=args.bins))
    _emit_report(args, report, reports.bernoulli_bulk_report_csv)
    _note(f"coverage={_fmt_cov(report.coverage)} t_eff={report.extras['t_eff']:.6g} "
          f"{_fmt_run(report.extras)}")


def _bernoulli_spike(args):
    report = montecarlo.run_bernoulli_spike(_config(
        args, "bernoulli_spike", n_dim=args.n_dims[0], t=0.0, p=args.p, n_dims=args.n_dims))
    _emit_report(args, report, reports.bernoulli_spike_report_csv)
    _note(f"coverage={_fmt_cov(report.coverage)} {_fmt_run(report.extras)}")


def _probe_correlation(args):
    report = probes.correlation_probe(args.n_dim, args.n, args.t, samples=args.samples,
                                      seed=args.seed, dt=args.dt)
    _emit_report(args, report, reports.probe_report_csv)
    _note(f"coverage={_fmt_cov(report.coverage)}")  # serial: no pool to report


def _probe_drift(args):
    report = probes.drift_probe(args.n_dim, args.n, args.t, dt=args.dt,
                                trials=args.trials, seed=args.seed)
    _emit_report(args, report, reports.probe_report_csv)
    _note(f"coverage={_fmt_cov(report.coverage)} {_fmt_threads(report.extras)} "
          f"stepper={report.extras['stepper']}")


# ---------------------------------------------------------------------------
# modes and parser
# ---------------------------------------------------------------------------

#: default of a flag its mode cannot run without
REQUIRED = object()

#: subcommand -> (mode of the parsed arguments, {mode: (handler, row)}).  A row
#: maps each flag the mode reads, by argparse dest, to its default or REQUIRED;
#: ``"a|b"`` is a pair of which the mode reads at most one, with ``a``'s default
#: applied when neither is given.  A flag named in some row defaults to None in
#: the parser; a flag named in none is read by every mode of its subcommand.
MODES = {
    "theory": (lambda args: args.mode or f"--kernel {args.kernel}", {
        "--kernel goe": (_theory_kernel_goe, {"q": REQUIRED, "t": 1.0, "x|mu": 0.5, "bins": 50}),
        "--kernel general": (_theory_kernel_general,
                             {"model": REQUIRED, "mu": REQUIRED, "lambda_range": REQUIRED,
                              "q": None, "t": 1.0, "bins": 50, "n0": 400}),
        "--spike-f": (_theory_value(overlaps_theory.spike_spike_overlap, "spike", "mu", "q", "t"),
                      {"spike": REQUIRED, "mu": REQUIRED, "q": REQUIRED, "t": 1.0}),
        "--spike-g": (_theory_spike_g,
                      {"spike": REQUIRED, "q": REQUIRED, "t": 1.0, "bins|mu": 50}),
        "--lambda-star": (_theory_value(overlaps_theory.kernel_peak_location, "mu", "t", "q"),
                          {"mu": REQUIRED, "q": REQUIRED, "t": 1.0}),
        "--interlace": (_theory_interlace, {"q": REQUIRED, "x": 0.5, "t": 1.0}),
        "--spike-mass": (_theory_value(overlaps_theory.spike_bulk_mass, "spike", "q", "t"),
                         {"spike": REQUIRED, "q": REQUIRED, "t": 1.0}),
        "--bernoulli-expansion": (_theory_value(overlaps_theory.bernoulli_spike_overlap,
                                                "n_dim", "n", "p", "q"),
                                  {"n|q": REQUIRED, "n_dim": 400, "p": 0.5}),
    }),
    "spike": (lambda args: "--path" if args.path and args.mode == "spike"
              else f"--mode {args.mode}", {
        "--mode spike": (_spike_spike, {"mu": None, "t": 1.0, "trials": 200, "threads": 0}),
        "--mode bulk": (_spike_bulk, {"t": 1.0, "trials": 200, "bins": 25, "threads": 0}),
        "--path": (_spike_path, {"path": True, "t_max": 1.2, "steps": 60}),
    }),
    "bernoulli": (lambda args: f"--mode {args.mode}", {
        "--mode bulk": (_bernoulli_bulk, {"n_dim": 300, "bins": 25}),
        "--mode spike": (_bernoulli_spike, {"n_dims": (100, 200, 400)}),
    }),
    "probe": (lambda args: f"--kind {args.kind}", {
        "--kind correlation": (_probe_correlation, {"samples": 100_000}),
        "--kind drift": (_probe_drift, {"trials": 100_000}),
    }),
}


def _run_mode(args):
    """Check ``args`` against its mode's row of :data:`MODES`, fill in the defaults, run it.

    A ``ValueError`` names the flags (``args.flags``) with the mode, on a flag
    of another mode's row, both flags of a pair or an unset REQUIRED flag.
    """
    flags = args.flags
    select, modes = MODES[args.command]
    run, row = modes[mode := select(args)]
    name = f"{args.command} {mode}"
    read = {dest for key in row for dest in key.split("|")}
    moded = dict.fromkeys(dest for _, other in modes.values()
                          for key in other for dest in key.split("|"))
    foreign = [flags[d] for d in moded if d not in read and getattr(args, d) is not None]
    if foreign:
        raise ValueError(f"{name} does not read {' or '.join(foreign)}")
    needs = []
    for key, default in row.items():
        dests = key.split("|")
        given = [flags[d] for d in dests if getattr(args, d) is not None]
        if len(given) > 1:
            raise ValueError(f"{name} does not read {' with '.join(given)}")
        if not given and default is REQUIRED:
            needs.append(" or ".join(flags[d] for d in dests))
        elif not given:
            setattr(args, dests[0], default)
    if needs:
        raise ValueError(f"{name} needs {' and '.join(needs)}")
    return run(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minor-overlaps",
        description="Eigenvector overlaps between a noisy matrix and its principal minor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory", help="closed-form curves and values")
    _add_out(p)
    _add_q(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--kernel", choices=("goe", "general"), default=None)
    for flag in ("--spike-f", "--spike-g", "--lambda-star", "--interlace", "--spike-mass",
                 "--bernoulli-expansion"):
        mode.add_argument(flag, action="store_const", const=flag, dest="mode")
    for flag in ("--t", "--x", "--mu", "--p"):
        p.add_argument(flag, type=_finite)
    for flag in ("--n", "--bins", "--n0"):
        p.add_argument(flag, type=int)
    p.add_argument("--lambda", type=_finite, dest="spike")
    p.add_argument("--N", type=int, dest="n_dim")
    p.add_argument("--model", type=str)
    p.add_argument("--lambda-range", type=_finite, nargs=2, dest="lambda_range")

    for name, help_text, func in (("simulate", "bulk Monte Carlo experiment", cmd_simulate),
                                  ("compare", "bulk experiment with coverage gate", cmd_compare)):
        p = sub.add_parser(name, help=help_text)
        _add_report(p)
        _add_q(p, required=True)
        p.add_argument("--N", type=int, required=True, dest="n_dim")
        p.add_argument("--t", type=_finite, default=1.0)
        p.add_argument("--x", type=_finite, default=0.5)
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--bins", type=int, default=25)
        p.add_argument("--model", type=str, default=None,
                       help="spectrum-model JSON for a general deterministic part")
        p.set_defaults(func=func)
    p.add_argument("--bulk", action="store_true", help="bulk kernel comparison (default)")
    p.add_argument("--min-coverage", type=_finite, default=0.95, dest="min_coverage")

    p = sub.add_parser("spike", help="spike-spike / spike-bulk experiments")
    _add_report(p, threads=None)
    _add_q(p, required=True)
    p.add_argument("--mode", choices=("spike", "bulk"), required=True)
    p.add_argument("--lambda", type=_finite, required=True, dest="spike")
    p.add_argument("--N", type=int, required=True, dest="n_dim")
    p.add_argument("--mu", type=_finite, help="minor spike")
    p.add_argument("--t", type=_finite)
    p.add_argument("--trials", type=int)
    p.add_argument("--bins", type=int)
    p.add_argument("--path", action="store_true", default=None,
                   help="emit one trajectory time series (with --mode spike)")
    p.add_argument("--t-max", type=_finite, dest="t_max")
    p.add_argument("--steps", type=int)

    p = sub.add_parser("bernoulli", help="Bernoulli-ensemble experiments")
    _add_report(p)
    _add_q(p, required=True)
    p.add_argument("--mode", choices=("bulk", "spike"), required=True)
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--N", type=int, dest="n_dim")
    p.add_argument("--bins", type=int)
    p.add_argument("--sizes", type=_sizes, dest="n_dims", help="comma list of sizes")

    p = sub.add_parser("probe", help="SDE-level identity probes")
    _add_report(p, pool=False)
    p.add_argument("--kind", choices=("correlation", "drift"), required=True)
    p.add_argument("--N", type=int, default=50, dest="n_dim")
    p.add_argument("--n", type=int, default=25)
    p.add_argument("--t", type=_finite, default=1.0)
    p.add_argument("--dt", type=_finite, default=1e-4)
    p.add_argument("--samples", type=int)
    p.add_argument("--trials", type=int)

    for command, p in sub.choices.items():
        # a dest is the library's name of the argument it feeds, so an InputError maps to a flag
        p.set_defaults(flags={a.dest: min(a.option_strings, key=len) for a in p._actions})
        if command in MODES:
            p.set_defaults(func=_run_mode)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args) or 0  # a command returns None on success
    except InputError as exc:  # the library names the argument; the user gave its flag
        _note(f"error: {args.flags.get(exc.name, exc.name)} must be {exc.allowed}, "
              f"got {exc.value}")
        return 2
    except (DomainError, ValueError) as exc:
        _note(f"error: {exc}")
        return 2
    except NumericError as exc:
        _note(f"numeric failure: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
