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
import sys
from pathlib import Path

import numpy as np

from . import montecarlo, overlaps_theory, probes, reports
from .errors import DomainError, NumericError
from .freeprob import (
    SpectrumModel,
    boundary_values,
    representative_matrix,
    semicircle_density,
    semicircle_quantile,
    solve_minor_stieltjes,
    solve_stieltjes,
)
from .montecarlo import ASpec, ExperimentConfig
from .overlaps_theory import FiniteInitialTransform
from .spectral import minor_size


def _add_out(parser):
    parser.add_argument("--out", type=str, default=None, help="output path (default: stdout)")


def _add_report(parser, threads=True):
    """Flags of the seeded subcommands; ``threads`` for those that run a trial pool."""
    _add_out(parser)
    parser.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if threads:
        parser.add_argument("--threads", type=int, default=0,
                            help="pool worker threads, 0 = one per available core")


def _add_q(parser, required=False):
    parser.add_argument("--qfrac", "--q", dest="q", type=float, required=required,
                        help="minor fraction q")


def _emit(args, text: str):
    if args.out:
        Path(args.out).write_text(text)
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


#: the flag of each argparse dest that a message names
_FLAGS = {"q": "--q", "spike": "--lambda", "mu": "--mu", "path": "--path", "t_max": "--t-max",
          "steps": "--steps", "t": "--t", "trials": "--trials", "bins": "--bins",
          "threads": "--threads", "sizes": "--sizes", "n_dim": "--N", "samples": "--samples"}


def _require(args, mode: str, *dests):
    """Raise ``ValueError`` naming each flag of ``dests`` that ``mode`` needs and lacks."""
    missing = [_FLAGS[d] for d in dests if getattr(args, d) is None]
    if missing:
        raise ValueError(f"theory {mode} needs {' and '.join(missing)}")


def _mode_flags(args, mode: str, foreign: tuple, **defaults):
    """Refuse the ``foreign`` flags given to ``mode``; fill in ``defaults`` for its unset ones.

    A flag that only some modes of a subcommand read defaults to None in the
    parser, so the mode can tell a given flag from an absent one.
    """
    given = [_FLAGS[d] for d in foreign
             if getattr(args, d) is not None and getattr(args, d) is not False]
    if given:
        raise ValueError(f"{mode} does not read {' or '.join(given)}")
    for dest, value in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

def cmd_theory(args) -> int:
    if args.kernel == "goe":
        _require(args, "--kernel goe", "q")
        q, t = args.q, args.t
        mu = args.mu if args.mu is not None else semicircle_quantile(args.x, t, np.sqrt(q))
        edges = montecarlo._bulk_bin_edges(t, args.bins)
        lams = 0.5 * (edges[:-1] + edges[1:])
        w = overlaps_theory.kernel_goe_value(mu, lams, t, q)
        _emit(args, reports.theory_curve_csv(lams, mu, t, q, w,
                                             w * semicircle_density(lams, t)))
        return 0
    if args.kernel == "general":
        return _cmd_theory_general(args)
    if args.spike_f:
        _require(args, "--spike-f", "spike", "mu", "q")
        val = overlaps_theory.spike_spike_overlap(args.spike, args.mu, args.q, args.t)
        _emit(args, reports.value_csv(val))
        return 0
    if args.spike_g:
        _require(args, "--spike-g", "spike", "q")
        q, t, spike = args.q, args.t, args.spike
        if args.mu is not None:
            _emit(args, reports.value_csv(
                overlaps_theory.spike_bulk_overlap(spike, q, t, args.mu)))
            return 0
        edges = montecarlo._bulk_bin_edges(t, args.bins, radius_scale=np.sqrt(q))
        mus = 0.5 * (edges[:-1] + edges[1:])
        g = overlaps_theory.spike_bulk_overlap(spike, q, t, mus)
        _emit(args, reports.theory_curve_csv(mus, spike, t, q, g,
                                             g * semicircle_density(mus, q * t),
                                             leading="mu"))
        return 0
    if args.lambda_star:
        _require(args, "--lambda-star", "mu", "q")
        _emit(args, reports.value_csv(
            overlaps_theory.kernel_peak_location(args.mu, args.t, args.q)))
        return 0
    if args.interlace:
        _require(args, "--interlace", "q")
        lo, hi = overlaps_theory.interlace_interval(args.x, args.t, args.q)
        _emit(args, reports.simple_csv("x,t,q,lower,upper",
                                        [(args.x, args.t, args.q, lo, hi)]))
        return 0
    if args.spike_mass:
        _require(args, "--spike-mass", "spike", "q")
        _emit(args, reports.value_csv(
            overlaps_theory.spike_bulk_mass(args.spike, args.q, args.t)))
        return 0
    # --bernoulli-expansion, the last mode of the required group
    if args.n is None and args.q is None:
        raise ValueError("theory --bernoulli-expansion needs --n or --q")
    n = args.n if args.n is not None else minor_size(args.q, args.n_dim)
    _emit(args, reports.value_csv(
        overlaps_theory.bernoulli_spike_overlap(args.n_dim, n, args.p)))
    return 0


def _cmd_theory_general(args) -> int:
    if not args.model:
        raise ValueError("theory --kernel general needs --model <spectrum json>")
    model = SpectrumModel.from_json(Path(args.model).read_text())
    q, t = (args.q if args.q is not None else model.q), args.t
    _require(args, "--kernel general", "mu")
    if args.lambda_range is None:
        raise ValueError("theory --kernel general needs --lambda-range LO HI")
    if args.bins < 1:
        raise ValueError(f"need bins >= 1, got {args.bins}")
    if not 0.0 < q < 1.0:
        raise DomainError(f"kernel inversion requires 0 < q < 1, got q={q}")
    n0_minor = minor_size(q, args.n0)
    s0 = FiniteInitialTransform.from_matrix(
        representative_matrix(model, args.n0, n0_minor), n0_minor)
    minor_model = SpectrumModel.from_eigenvalues(s0.minor_evals, q=q)
    full_ev = lambda z: solve_stieltjes(model, z, t)
    minor_ev = lambda z: solve_minor_stieltjes(minor_model, z, t, q)
    minor_b = boundary_values(minor_ev, args.mu)
    if minor_b.edge_flagged:
        raise DomainError(f"mu={args.mu} lies outside the minor bulk or at its edge "
                          f"(minor rho={minor_b.rho:.3e}); every point would be refused")

    lams = np.linspace(*args.lambda_range, args.bins)
    w, rho = montecarlo._kernel_curve(s0, minor_b, full_ev, lams, t, q)
    ok = ~np.isnan(w)
    _emit(args, reports.theory_curve_csv(lams[ok], args.mu, t, q, w[ok], w[ok] * rho[ok]))
    _note(f"refused={args.bins - ok.sum()}")
    return 0


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _bulk_config(args) -> ExperimentConfig:
    a_spec = ASpec()
    if getattr(args, "model", None):
        model = SpectrumModel.from_json(Path(args.model).read_text())
        matrix = representative_matrix(model, args.n_dim, minor_size(args.q, args.n_dim))
        a_spec = ASpec(kind="explicit", matrix=matrix)
    return ExperimentConfig(n_dim=args.n_dim, q=args.q, t=args.t, trials=args.trials,
                            master_seed=args.seed, target="bulk", x=args.x,
                            a_spec=a_spec, bins=args.bins, threads=args.threads)


def cmd_simulate(args) -> int:
    report = montecarlo.run_bulk_experiment(_bulk_config(args))
    _emit_report(args, report, reports.bulk_report_csv)
    _note(f"coverage={_fmt_cov(report.coverage)} mu_hat={report.extras['mu_hat']:.6g} "
          f"{_fmt_run(report.extras)}")
    return 0


def cmd_compare(args) -> int:
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
    return 0


def cmd_spike(args) -> int:
    if args.mode == "spike" and args.path:
        if args.format != "csv":
            raise ValueError("spike --path writes a CSV trajectory only; drop --format json")
        _mode_flags(args, "spike --path", ("mu", "t", "trials", "bins", "threads"),
                    t_max=1.2, steps=60)
        series = montecarlo.spike_path_series(args.n_dim, args.q, args.spike, args.t_max,
                                              args.steps, args.seed)
        _emit(args, reports.trajectory_csv(series))
        return 0
    if args.mode == "spike":
        _mode_flags(args, "spike --mode spike", ("bins", "t_max", "steps"),
                    t=1.0, trials=200, threads=0)
        a_spec = (ASpec(kind="split_spike", spike=args.spike, minor_spike=args.mu)
                  if args.mu is not None else ASpec(kind="uniform_spike", spike=args.spike))
        config = ExperimentConfig(n_dim=args.n_dim, q=args.q, t=args.t, trials=args.trials,
                                  master_seed=args.seed, target="spike_spike",
                                  a_spec=a_spec, threads=args.threads)
        report = montecarlo.run_spike_spike(config)
        _emit_report(args, report, reports.spike_top_report_csv)
        est = report.estimates[0]
        _note(f"top_overlap={est.mean:.6g} theory={report.theory[0]:.6g} "
              f"absorbed={report.extras['absorbed_trials']} {_fmt_run(report.extras)}")
        return 0
    _mode_flags(args, "spike --mode bulk", ("path", "mu", "t_max", "steps"),
                t=1.0, trials=200, bins=25, threads=0)
    config = ExperimentConfig(n_dim=args.n_dim, q=args.q, t=args.t, trials=args.trials,
                              master_seed=args.seed, target="spike_bulk",
                              a_spec=ASpec(kind="tail_spike", spike=args.spike),
                              bins=args.bins, threads=args.threads)
    report = montecarlo.run_spike_bulk(config)
    _emit_report(args, report, reports.spike_bulk_report_csv)
    mass = report.estimates[-1]
    _note(f"coverage={_fmt_cov(report.coverage)} total_mass={mass.mean:.6g} "
          f"theory_mass={report.theory[-1]:.6g} "
          f"absorbed={report.extras['absorbed_trials']} {_fmt_run(report.extras)}")
    return 0


def cmd_bernoulli(args) -> int:
    if args.mode == "bulk":
        _mode_flags(args, "bernoulli --mode bulk", ("sizes",), n_dim=300, bins=25)
        config = ExperimentConfig(n_dim=args.n_dim, q=args.q, t=0.0, trials=args.trials,
                                  master_seed=args.seed, target="bernoulli_bulk",
                                  p=args.p, bins=args.bins, threads=args.threads)
        report = montecarlo.run_bernoulli_bulk(config)
        _emit_report(args, report, reports.bernoulli_bulk_report_csv)
        _note(f"coverage={_fmt_cov(report.coverage)} t_eff={report.extras['t_eff']:.6g} "
              f"{_fmt_run(report.extras)}")
        return 0
    _mode_flags(args, "bernoulli --mode spike", ("bins", "n_dim"), sizes="100,200,400")
    sizes = tuple(int(v) for v in args.sizes.split(","))
    config = ExperimentConfig(n_dim=sizes[0], q=args.q, t=0.0, trials=args.trials,
                              master_seed=args.seed, target="bernoulli_spike",
                              p=args.p, n_dims=sizes, threads=args.threads)
    report = montecarlo.run_bernoulli_spike(config)
    _emit_report(args, report, reports.bernoulli_spike_report_csv)
    _note(f"coverage={_fmt_cov(report.coverage)} {_fmt_run(report.extras)}")
    return 0


def cmd_probe(args) -> int:
    if args.kind == "correlation":
        _mode_flags(args, "probe --kind correlation", ("trials",), samples=100_000)
        report = probes.correlation_probe(args.n_dim, args.n, args.t,
                                          samples=args.samples, seed=args.seed,
                                          dt=args.dt)
    else:
        _mode_flags(args, "probe --kind drift", ("samples",), trials=100_000)
        report = probes.drift_probe(args.n_dim, args.n, args.t, dt=args.dt,
                                    trials=args.trials, seed=args.seed)
    _emit_report(args, report, reports.probe_report_csv)
    # only the drift probe runs on the trial pool; the correlation probe is serial
    pool = (f" {_fmt_threads(report.extras)} stepper={report.extras['stepper']}"
            if args.kind == "drift" else "")
    _note(f"coverage={_fmt_cov(report.coverage)}{pool}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

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
    mode.add_argument("--spike-f", action="store_true", dest="spike_f")
    mode.add_argument("--spike-g", action="store_true", dest="spike_g")
    mode.add_argument("--lambda-star", action="store_true", dest="lambda_star")
    mode.add_argument("--interlace", action="store_true")
    mode.add_argument("--spike-mass", action="store_true", dest="spike_mass")
    mode.add_argument("--bernoulli-expansion", action="store_true", dest="bernoulli_expansion")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--x", type=float, default=0.5)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--lambda", type=float, default=None, dest="spike")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--N", type=int, default=400, dest="n_dim")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--model", type=str, default=None)
    p.add_argument("--n0", type=int, default=400)
    p.add_argument("--lambda-range", type=float, nargs=2, default=None, dest="lambda_range")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("simulate", help="bulk Monte Carlo experiment")
    _add_report(p)
    _add_q(p, required=True)
    p.add_argument("--N", type=int, required=True, dest="n_dim")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--x", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--bins", type=int, default=25)
    p.add_argument("--model", type=str, default=None,
                   help="spectrum-model JSON for a general deterministic part")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="bulk experiment with coverage gate")
    _add_report(p)
    _add_q(p, required=True)
    p.add_argument("--bulk", action="store_true", help="bulk kernel comparison (default)")
    p.add_argument("--N", type=int, required=True, dest="n_dim")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--x", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--bins", type=int, default=25)
    p.add_argument("--model", type=str, default=None,
                   help="spectrum-model JSON for a general deterministic part")
    p.add_argument("--min-coverage", type=float, default=0.95, dest="min_coverage")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("spike", help="spike-spike / spike-bulk experiments")
    _add_report(p)
    p.set_defaults(threads=None)  # unset until given, so --path can refuse it; default 0
    _add_q(p, required=True)
    p.add_argument("--mode", choices=("spike", "bulk"), required=True)
    p.add_argument("--lambda", type=float, required=True, dest="spike")
    p.add_argument("--mu", type=float, default=None, help="minor spike (spike mode)")
    p.add_argument("--N", type=int, required=True, dest="n_dim")
    # the flags below are read by some modes only; a mode refuses the others
    p.add_argument("--t", type=float, default=None, help="default 1 (not with --path)")
    p.add_argument("--trials", type=int, default=None, help="default 200 (not with --path)")
    p.add_argument("--bins", type=int, default=None, help="default 25 (bulk mode)")
    p.add_argument("--path", action="store_true",
                   help="emit one trajectory time series (spike mode)")
    p.add_argument("--t-max", type=float, default=None, dest="t_max",
                   help="default 1.2 (--path)")
    p.add_argument("--steps", type=int, default=None, help="default 60 (--path)")
    p.set_defaults(func=cmd_spike)

    p = sub.add_parser("bernoulli", help="Bernoulli-ensemble experiments")
    _add_report(p)
    _add_q(p, required=True)
    p.add_argument("--mode", choices=("bulk", "spike"), required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=int, default=200)
    # the flags below are read by one mode only; the other mode refuses them
    p.add_argument("--N", type=int, default=None, dest="n_dim",
                   help="default 300 (bulk mode)")
    p.add_argument("--bins", type=int, default=None, help="default 25 (bulk mode)")
    p.add_argument("--sizes", type=str, default=None,
                   help="comma list of sizes, default 100,200,400 (spike mode)")
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser("probe", help="SDE-level identity probes")
    _add_report(p, threads=False)
    p.add_argument("--kind", choices=("correlation", "drift"), required=True)
    p.add_argument("--N", type=int, default=50, dest="n_dim")
    p.add_argument("--n", type=int, default=25)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-4)
    # each kind reads one of these and refuses the other
    p.add_argument("--samples", type=int, default=None, help="default 100000 (correlation)")
    p.add_argument("--trials", type=int, default=None, help="default 100000 (drift)")
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ValueError) as exc:
        _note(f"error: {exc}")
        return 2
    except NumericError as exc:
        _note(f"numeric failure: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
