"""Command-line surface.

Subcommands: ``theory`` (closed-form curves and values), ``simulate`` (bulk
Monte Carlo), ``compare`` (simulate + coverage gate), ``spike`` (spike-spike,
spike-bulk, trajectory path), ``bernoulli`` (bulk/spike universality runs),
``probe`` (SDE-level checks).

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
    leading_block_model,
    representative_matrix,
    semicircle_density,
    semicircle_quantile,
    solve_minor_stieltjes,
    solve_stieltjes,
)
from .montecarlo import ASpec, ExperimentConfig
from .overlaps_theory import FiniteInitialTransform
from .spectral import minor_size


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    parser.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
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


def _fmt_run(extras) -> str:
    return (f"aborted={extras['aborted_trials']} pool_threads={extras['pool_threads']} "
            f"trial_blas_threads={extras['trial_blas_threads']}")


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

def _theory_grid(t: float, bins: int, radius_scale: float = 1.0) -> np.ndarray:
    root = np.sqrt(t) * radius_scale
    edges = np.linspace(-2.0 * root + 0.1 * root, 2.0 * root - 0.1 * root, bins + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def cmd_theory(args) -> int:
    if args.kernel == "goe":
        q, t = args.q, args.t
        mu = args.mu if args.mu is not None else semicircle_quantile(args.x, t, np.sqrt(q))
        lams = _theory_grid(t, args.bins)
        w = overlaps_theory.kernel_goe_value(mu, lams, t, q)
        _emit(args, reports.theory_curve_csv(lams, mu, t, q, w,
                                             w * semicircle_density(lams, t)))
        return 0
    if args.kernel == "general":
        return _cmd_theory_general(args)
    if args.spike_f:
        val = overlaps_theory.spike_spike_overlap(args.spike, args.mu, args.q, args.t)
        _emit(args, reports.value_csv(val))
        return 0
    if args.spike_g:
        q, t, spike = args.q, args.t, args.spike
        if args.mu is not None:
            _emit(args, reports.value_csv(
                overlaps_theory.spike_bulk_overlap(spike, q, t, args.mu)))
            return 0
        mus = _theory_grid(t, args.bins, radius_scale=np.sqrt(q))
        g = overlaps_theory.spike_bulk_overlap(spike, q, t, mus)
        _emit(args, reports.theory_curve_csv(mus, spike, t, q, g,
                                             g * semicircle_density(mus, q * t),
                                             leading="mu"))
        return 0
    if args.lambda_star:
        _emit(args, reports.value_csv(
            overlaps_theory.kernel_peak_location(args.mu, args.t, args.q)))
        return 0
    if args.interlace:
        lo, hi = overlaps_theory.interlace_interval(args.x, args.t, args.q)
        _emit(args, reports.simple_csv("x,t,q,lower,upper",
                                        [(args.x, args.t, args.q, lo, hi)]))
        return 0
    if args.spike_mass:
        _emit(args, reports.value_csv(
            overlaps_theory.spike_bulk_mass(args.spike, args.q, args.t)))
        return 0
    if args.bernoulli_expansion:
        n = args.n if args.n is not None else minor_size(args.q, args.n_dim)
        _emit(args, reports.value_csv(
            overlaps_theory.bernoulli_spike_overlap(args.n_dim, n, args.p)))
        return 0
    raise ValueError("theory: select one of --kernel/--spike-f/--spike-g/"
                     "--lambda-star/--interlace/--spike-mass/--bernoulli-expansion")


def _cmd_theory_general(args) -> int:
    if not args.model:
        raise ValueError("theory --kernel general needs --model <spectrum json>")
    model = SpectrumModel.from_json(Path(args.model).read_text())
    q, t = (args.q if args.q is not None else model.q), args.t
    if args.mu is None:
        raise ValueError("theory --kernel general needs --mu")
    if args.lambda_range is None:
        raise ValueError("theory --kernel general needs --lambda-range LO HI")
    n0_minor = minor_size(q, args.n0)
    a_mat = representative_matrix(model, args.n0, n0_minor)
    s0 = FiniteInitialTransform.from_matrix(a_mat, n0_minor)
    minor_model = leading_block_model(a_mat, n0_minor, q)
    full_ev = lambda z: solve_stieltjes(model, z, t)
    minor_ev = lambda z: solve_minor_stieltjes(minor_model, z, t, q)

    lo, hi = args.lambda_range
    lams, ws, wrhos = [], [], []
    for lam in np.linspace(lo, hi, args.bins):
        try:
            point = overlaps_theory.overlap_kernel(s0, args.mu, lam, t, q, full_ev, minor_ev)
        except DomainError:
            continue
        rho = boundary_values(full_ev, lam, t).rho
        lams.append(lam)
        ws.append(point.value)
        wrhos.append(point.value * rho)
    _emit(args, reports.theory_curve_csv(lams, args.mu, t, q, ws, wrhos))
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
    if "interlace_lo" in report.extras:
        lo, hi = report.extras["interlace_lo"], report.extras["interlace_hi"]
        argmax = report.extras["argmax_center"]
        half_bin = report.extras["bin_width"] / 2.0
        argmax_ok = (lo - half_bin) <= argmax <= (hi + half_bin)
        _note(f"coverage={_fmt_cov(report.coverage)} argmax_center={argmax:.6g} "
              f"interlace=[{lo:.6g},{hi:.6g}] argmax_in_interval={argmax_ok} "
              f"{_fmt_run(report.extras)}")
    else:
        _note(f"coverage={_fmt_cov(report.coverage)} {_fmt_run(report.extras)}")
    if report.coverage is None or report.coverage < args.min_coverage:
        _note(f"coverage below threshold {args.min_coverage}")
        return 3
    return 0


def cmd_spike(args) -> int:
    if args.mode == "spike" and args.path:
        config = ExperimentConfig(
            n_dim=args.n_dim, q=args.q, t=args.t_max, trials=montecarlo.MIN_CI_TRIALS,
            master_seed=args.seed, target="spike_path",
            a_spec=ASpec(kind="uniform_spike", spike=args.spike), threads=args.threads)
        series = montecarlo.spike_path_series(config, args.t_max, args.steps)
        _emit(args, reports.trajectory_csv(series))
        return 0
    if args.mode == "spike":
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
        config = ExperimentConfig(n_dim=args.n_dim, q=args.q, t=0.0, trials=args.trials,
                                  master_seed=args.seed, target="bernoulli_bulk",
                                  p=args.p, bins=args.bins, threads=args.threads)
        report = montecarlo.run_bernoulli(config)
        _emit_report(args, report, reports.bernoulli_bulk_report_csv)
        _note(f"coverage={_fmt_cov(report.coverage)} t_eff={report.extras['t_eff']:.6g} "
              f"{_fmt_run(report.extras)}")
        return 0
    sizes = tuple(int(v) for v in args.sizes.split(","))
    config = ExperimentConfig(n_dim=sizes[0], q=args.q, t=0.0, trials=args.trials,
                              master_seed=args.seed, target="bernoulli_spike",
                              p=args.p, n_dims=sizes, threads=args.threads)
    report = montecarlo.run_bernoulli(config)
    _emit_report(args, report, reports.bernoulli_spike_report_csv)
    _note(f"coverage={_fmt_cov(report.coverage)} {_fmt_run(report.extras)}")
    return 0


def cmd_probe(args) -> int:
    if args.kind == "correlation":
        report = probes.correlation_probe(args.n_dim, args.n, args.t,
                                          samples=args.samples, seed=args.seed,
                                          dt=args.dt)
    else:
        report = probes.drift_probe(args.n_dim, args.n, args.t, dt=args.dt,
                                    trials=args.trials, seed=args.seed)
    _emit_report(args, report, reports.probe_report_csv)
    _note(f"coverage={_fmt_cov(report.coverage)}")
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
    _add_common(p)
    _add_q(p)
    p.add_argument("--kernel", choices=("goe", "general"), default=None)
    p.add_argument("--spike-f", action="store_true", dest="spike_f")
    p.add_argument("--spike-g", action="store_true", dest="spike_g")
    p.add_argument("--lambda-star", action="store_true", dest="lambda_star")
    p.add_argument("--interlace", action="store_true")
    p.add_argument("--spike-mass", action="store_true", dest="spike_mass")
    p.add_argument("--bernoulli-expansion", action="store_true", dest="bernoulli_expansion")
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
    _add_common(p)
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
    _add_common(p)
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
    _add_common(p)
    _add_q(p, required=True)
    p.add_argument("--mode", choices=("spike", "bulk"), required=True)
    p.add_argument("--lambda", type=float, required=True, dest="spike")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--N", type=int, required=True, dest="n_dim")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--bins", type=int, default=25)
    p.add_argument("--path", action="store_true", help="emit one trajectory time series")
    p.add_argument("--t-max", type=float, default=1.2, dest="t_max")
    p.add_argument("--steps", type=int, default=60)
    p.set_defaults(func=cmd_spike)

    p = sub.add_parser("bernoulli", help="Bernoulli-ensemble experiments")
    _add_common(p)
    _add_q(p, required=True)
    p.add_argument("--mode", choices=("bulk", "spike"), required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--N", type=int, default=300, dest="n_dim")
    p.add_argument("--sizes", type=str, default="100,200,400",
                   help="comma list of sizes for spike mode")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--bins", type=int, default=25)
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser("probe", help="SDE-level identity probes")
    _add_common(p)
    p.add_argument("--kind", choices=("correlation", "drift"), required=True)
    p.add_argument("--N", type=int, default=50, dest="n_dim")
    p.add_argument("--n", type=int, default=25)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--dt", type=float, default=1e-4)
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
