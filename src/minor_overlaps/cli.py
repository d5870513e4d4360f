"""Command-line surface.

Subcommands: ``theory`` (closed-form curves and values, one mode flag per
call), ``simulate`` (bulk Monte Carlo), ``compare`` (simulate + coverage
gate), ``spike`` (spike-spike, spike-bulk, trajectory path), ``bernoulli``
(bulk/spike universality runs), ``probe`` (SDE-level checks).

Exit codes: 0 success; 2 invalid configuration or domain error; 3 coverage
below threshold (``compare``); 4 runtime numeric failure.  When ``--out`` is
given, stdout stays silent and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import montecarlo, overlaps_theory, probes, reports
from .errors import DomainError, NumericError
from .freeprob import (
    SpectrumModel,
    boundary_values,
    representative_diagonal,
    semicircle_density,
    semicircle_quantile,
    solve_minor_stieltjes,
    solve_stieltjes,
)
from .montecarlo import ASpec, ExperimentConfig
from .overlaps_theory import FiniteInitialTransform
from .spectral import minor_size


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
    parser.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
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


def _check(flag: str, value, ok: bool, allowed: str):
    """Refuse ``value`` of ``flag`` unless ``ok``, before any arithmetic sees it (exit 2)."""
    if not ok:
        raise ValueError(f"{flag} must be {allowed}, got {value}")


def _threads(args) -> int:
    """``--threads``, refused above the pool's bound before any work starts (exit 2)."""
    limit = montecarlo.max_threads()
    _check("--threads", args.threads, args.threads <= limit,
           f"at most {limit} ({montecarlo.MAX_THREADS_PER_CPU} per available core)")
    return args.threads


def _bins(args) -> int:
    """``--bins``, refused below 1 before any work starts (exit 2)."""
    _check("--bins", args.bins, args.bins >= 1, ">= 1")
    return args.bins


def _trials(args) -> int:
    """``--trials``, refused below the confidence-interval minimum before any set-up (exit 2)."""
    _check("--trials", args.trials, args.trials >= montecarlo.MIN_CI_TRIALS,
           f">= {montecarlo.MIN_CI_TRIALS}")
    return args.trials


def _check_minor(args):
    """Refuse ``--N`` and ``--q`` of a run whose minor needs ``1 <= round(qN) <= N-1`` (exit 2)."""
    _check("--N", args.n_dim, args.n_dim >= 2, ">= 2")
    n = minor_size(args.q, args.n_dim)
    _check("--q", args.q, 0.0 < args.q < 1.0 and 1 <= n <= args.n_dim - 1,
           "in (0, 1) with 1 <= round(qN) <= N-1")


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
    q, t = args.q, args.t
    _check("--q", q, 0.0 < q < 1.0, "in (0, 1)")
    _check("--t", t, t > 0, "> 0")
    mu = args.mu if args.mu is not None else semicircle_quantile(args.x, t, np.sqrt(q))
    edges = montecarlo._bulk_bin_edges(t, _bins(args))
    lams = 0.5 * (edges[:-1] + edges[1:])
    w = overlaps_theory.kernel_goe_value(mu, lams, t, q)
    _emit(args, reports.theory_curve_csv(lams, mu, t, q, w, w * semicircle_density(lams, t)))


def _theory_kernel_general(args):
    model = _read_model(args.model, "theory --kernel general")
    q, t = (args.q if args.q is not None else model.q), args.t
    _bins(args)
    _check("--t", t, t > 0, "> 0")
    _check("--n0", args.n0, args.n0 >= 1, ">= 1")
    if not 0.0 < q < 1.0:
        raise DomainError(f"kernel inversion requires 0 < q < 1, got q={q}")
    n0_minor = minor_size(q, args.n0)
    s0 = FiniteInitialTransform.from_diagonal(
        representative_diagonal(model, args.n0, n0_minor), n0_minor)
    minor_b = boundary_values(lambda z: solve_minor_stieltjes(s0.minor_model, z, t, q), args.mu)
    if minor_b.edge_flagged:
        raise DomainError(f"mu={args.mu} lies outside the minor bulk or at its edge "
                          f"(minor rho={minor_b.rho:.3e}); every point would be refused")
    lams = np.linspace(*args.lambda_range, args.bins)
    full_b = boundary_values(lambda z: solve_stieltjes(model, z, t), lams)
    w, rho = overlaps_theory.overlap_kernel(s0, minor_b, full_b, t, q), full_b.rho
    ok = ~np.isnan(w)
    _emit(args, reports.theory_curve_csv(lams[ok], args.mu, t, q, w[ok], w[ok] * rho[ok]))
    _note(f"refused={args.bins - ok.sum()}")


def _theory_spike_g(args):
    q, t, spike = args.q, args.t, args.spike
    _check("--q", q, 0.0 < q <= 1.0, "in (0, 1]")
    _check("--t", t, t > 0, "> 0")
    if args.mu is not None:
        return _theory_value(overlaps_theory.spike_bulk_overlap, "spike", "q", "t", "mu")(args)
    edges = montecarlo._bulk_bin_edges(t, _bins(args), radius_scale=np.sqrt(q))
    mus = 0.5 * (edges[:-1] + edges[1:])
    g = overlaps_theory.spike_bulk_overlap(spike, q, t, mus)
    _emit(args, reports.theory_curve_csv(mus, spike, t, q, g, g * semicircle_density(mus, q * t),
                                         leading="mu"))


def _theory_interlace(args):
    _check("--q", args.q, 0.0 < args.q <= 1.0, "in (0, 1]")
    _check("--t", args.t, args.t > 0, "> 0")
    _check("--x", args.x, 0.0 <= args.x <= 1.0, "in [0, 1]")
    lo, hi = overlaps_theory.interlace_interval(args.x, args.t, args.q)
    _emit(args, reports.simple_csv("x,t,q,lower,upper", [(args.x, args.t, args.q, lo, hi)]))


def _theory_bernoulli_expansion(args):
    _check("--N", args.n_dim, args.n_dim >= 1, ">= 1")
    if args.n is None:
        n = minor_size(args.q, args.n_dim)
        _check("--q", args.q, 0.0 < args.q <= 1.0 and n >= 1, "in (0, 1] with round(qN) >= 1")
    else:
        n = args.n
        _check("--n", n, 1 <= n <= args.n_dim, f"in [1, {args.n_dim}]")
    _emit(args, reports.value_csv(overlaps_theory.bernoulli_spike_overlap(args.n_dim, n, args.p)))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _bulk_config(args) -> ExperimentConfig:
    _check_minor(args)
    _check("--t", args.t, args.t > 0, "> 0")
    _check("--x", args.x, 0.0 <= args.x <= 1.0, "in [0, 1]")
    trials, bins, threads = _trials(args), _bins(args), _threads(args)
    a_spec = ASpec()
    if args.model:
        model = _read_model(args.model, args.command)
        diag = representative_diagonal(model, args.n_dim, minor_size(args.q, args.n_dim))
        a_spec = ASpec(kind="explicit", matrix=np.diag(diag))
    return ExperimentConfig(n_dim=args.n_dim, q=args.q, t=args.t, trials=trials,
                            master_seed=args.seed, target="bulk", x=args.x,
                            a_spec=a_spec, bins=bins, threads=threads)


def cmd_simulate(args):
    report = montecarlo.run_bulk_experiment(_bulk_config(args))
    _emit_report(args, report, reports.bulk_report_csv)
    _note(f"coverage={_fmt_cov(report.coverage)} mu_hat={report.extras['mu_hat']:.6g} "
          f"{_fmt_run(report.extras)}")


def cmd_compare(args):
    _check("--min-coverage", args.min_coverage, 0.0 <= args.min_coverage <= 1.0, "in [0, 1]")
    report = montecarlo.run_bulk_experiment(_bulk_config(args))
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
    _check("--N", args.n_dim, args.n_dim >= 2, ">= 2")
    _check("--q", args.q, 0.0 < args.q <= 1.0 and minor_size(args.q, args.n_dim) >= 2,
           "in (0, 1] with round(qN) >= 2")
    _check("--t-max", args.t_max, args.t_max > 0, "> 0")
    _check("--steps", args.steps, args.steps >= 1, ">= 1")
    series = montecarlo.spike_path_series(args.n_dim, args.q, args.spike, args.t_max,
                                          args.steps, args.seed)
    _emit(args, reports.trajectory_csv(series))


def _spike_spike(args):
    _check("--t", args.t, args.t >= 0, ">= 0")
    a_spec = (ASpec(kind="split_spike", spike=args.spike, minor_spike=args.mu)
              if args.mu is not None else ASpec(kind="uniform_spike", spike=args.spike))
    config = ExperimentConfig(n_dim=args.n_dim, q=args.q, t=args.t, trials=_trials(args),
                              master_seed=args.seed, target="spike_spike",
                              a_spec=a_spec, threads=_threads(args))
    report = montecarlo.run_spike_spike(config)
    _emit_report(args, report, reports.spike_top_report_csv)
    est = report.estimates[0]
    _note(f"top_overlap={est.mean:.6g} theory={report.theory[0]:.6g} "
          f"absorbed={report.extras['absorbed_trials']} "
          f"minor_at_edge={report.extras['minor_edge_trials']} {_fmt_run(report.extras)}")


def _spike_bulk(args):
    _check("--t", args.t, args.t > 0, "> 0")
    config = ExperimentConfig(n_dim=args.n_dim, q=args.q, t=args.t, trials=_trials(args),
                              master_seed=args.seed, target="spike_bulk",
                              a_spec=ASpec(kind="tail_spike", spike=args.spike),
                              bins=_bins(args), threads=_threads(args))
    report = montecarlo.run_spike_bulk(config)
    _emit_report(args, report, reports.spike_bulk_report_csv)
    mass = report.estimates[-1]
    _note(f"coverage={_fmt_cov(report.coverage)} total_mass={mass.mean:.6g} "
          f"theory_mass={report.theory[-1]:.6g} "
          f"absorbed={report.extras['absorbed_trials']} {_fmt_run(report.extras)}")


def _bernoulli_bulk(args):
    _check("--p", args.p, 0.0 < args.p < 1.0, "in (0, 1)")
    _check_minor(args)
    config = ExperimentConfig(n_dim=args.n_dim, q=args.q, t=0.0, trials=_trials(args),
                              master_seed=args.seed, target="bernoulli_bulk",
                              p=args.p, bins=_bins(args), threads=_threads(args))
    report = montecarlo.run_bernoulli_bulk(config)
    _emit_report(args, report, reports.bernoulli_bulk_report_csv)
    _note(f"coverage={_fmt_cov(report.coverage)} t_eff={report.extras['t_eff']:.6g} "
          f"{_fmt_run(report.extras)}")


def _bernoulli_spike(args):
    _check("--p", args.p, 0.0 < args.p <= 1.0, "in (0, 1]")
    for size in args.sizes:  # every size, before the first one's trials
        _check("--sizes", size, 1 <= minor_size(args.q, size) <= size - 1,
               "a list of sizes N with 1 <= round(qN) <= N-1")
    config = ExperimentConfig(n_dim=args.sizes[0], q=args.q, t=0.0, trials=_trials(args),
                              master_seed=args.seed, target="bernoulli_spike",
                              p=args.p, n_dims=args.sizes, threads=_threads(args))
    report = montecarlo.run_bernoulli_spike(config)
    _emit_report(args, report, reports.bernoulli_spike_report_csv)
    _note(f"coverage={_fmt_cov(report.coverage)} {_fmt_run(report.extras)}")


def _check_probe(args, t_ok: bool, t_allowed: str):
    """Refuse the flags of the frozen state and its increments by name (exit 2).

    Both probes read the minor's three middle levels, so ``--n`` needs three.
    """
    _check("--N", args.n_dim, 4 <= args.n_dim <= probes.MAX_PROBE_DIM,
           f"in [4, {probes.MAX_PROBE_DIM}]")
    _check("--n", args.n, 3 <= args.n < args.n_dim, f"in [3, {args.n_dim - 1}]")
    _check("--t", args.t, t_ok, t_allowed)
    _check("--dt", args.dt, args.dt > 0, "> 0")


def _probe_correlation(args):
    _check_probe(args, args.t >= 0, ">= 0")
    _check("--samples", args.samples, args.samples >= probes.MIN_CORRELATION_SAMPLES,
           f">= {probes.MIN_CORRELATION_SAMPLES}")
    report = probes.correlation_probe(args.n_dim, args.n, args.t, samples=args.samples,
                                      seed=args.seed, dt=args.dt)
    _emit_report(args, report, reports.probe_report_csv)
    _note(f"coverage={_fmt_cov(report.coverage)}")  # serial: no pool to report


def _probe_drift(args):
    _check_probe(args, args.t > 0, "> 0")
    _check("--trials", args.trials, args.trials >= probes.MIN_DRIFT_TRIALS,
           f">= {probes.MIN_DRIFT_TRIALS}")
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
        "--bernoulli-expansion": (_theory_bernoulli_expansion,
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
        "--mode spike": (_bernoulli_spike, {"sizes": (100, 200, 400)}),
    }),
    "probe": (lambda args: f"--kind {args.kind}", {
        "--kind correlation": (_probe_correlation, {"samples": 100_000}),
        "--kind drift": (_probe_drift, {"trials": 100_000}),
    }),
}


def _run_mode(flags: dict, args):
    """Check ``args`` against its mode's row of :data:`MODES`, fill in the defaults, run it.

    ``flags`` maps each dest to the flag a ``ValueError`` names, with the mode, on
    a flag of another mode's row, both flags of a pair or an unset REQUIRED flag.
    """
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
    p.add_argument("--sizes", type=_sizes, help="comma list of sizes")

    p = sub.add_parser("probe", help="SDE-level identity probes")
    _add_report(p, pool=False)
    p.add_argument("--kind", choices=("correlation", "drift"), required=True)
    p.add_argument("--N", type=int, default=50, dest="n_dim")
    p.add_argument("--n", type=int, default=25)
    p.add_argument("--t", type=_finite, default=1.0)
    p.add_argument("--dt", type=_finite, default=1e-4)
    p.add_argument("--samples", type=int)
    p.add_argument("--trials", type=int)

    for command in MODES:
        p = sub.choices[command]
        flags = {a.dest: min(a.option_strings, key=len) for a in p._actions}
        p.set_defaults(func=functools.partial(_run_mode, flags))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            _check("--seed", args.seed, args.seed >= 0, ">= 0")
        if args.out:
            _check_out(args.out)
        return args.func(args) or 0  # a command returns None on success
    except (DomainError, ValueError) as exc:
        _note(f"error: {exc}")
        return 2
    except NumericError as exc:
        _note(f"numeric failure: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
