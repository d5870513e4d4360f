"""Acceptance suite: one pass/fail line per criterion.

Statistical criteria run at pinned seeds (fixed-seed runs are exact
reproductions; unbiasedness of the underlying estimators is property-checked
in the module tests).  Run with ``pytest -v`` (add ``--capture=tee-sys`` to
see the lines live).
"""

import json

import numpy as np
import pytest
from scipy.integrate import quad

from minor_overlaps import (
    ASpec,
    ExperimentConfig,
    FiniteInitialTransform,
    boundary_values,
    cli,
    correlation_probe,
    derive_stream,
    drift_probe,
    eig_sym,
    evolve_double_stieltjes,
    interlace_interval,
    kernel_goe_value,
    kernel_peak_location,
    overlap_kernel,
    run_bernoulli_bulk,
    run_bernoulli_spike,
    run_bulk_experiment,
    run_spike_bulk,
    run_spike_spike,
    sample_goe,
    semicircle_density,
    semicircle_quantile,
    semicircle_stieltjes,
    solve_stieltjes,
    spike_bulk_overlap,
    spike_spike_overlap,
)
from minor_overlaps.freeprob import SpectrumModel
from minor_overlaps.montecarlo import Z_99

ATOM_ZERO = SpectrumModel(atoms=((0.0, 1.0),))


def _criterion(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. GOE bulk kernel reproduction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [0.5, 0.9])
@pytest.mark.parametrize("x", [0.1, 0.5, 0.95])
def test_criterion_1_bulk_kernel(q, x):
    config = ExperimentConfig(n_dim=400, q=q, t=1.0, trials=200, master_seed=11,
                              target="bulk", x=x, bins=25, threads=0)
    report = run_bulk_experiment(config)
    lo, hi = report.extras["interlace_lo"], report.extras["interlace_hi"]
    half_bin = report.extras["bin_width"] / 2
    argmax = report.extras["argmax_center"]
    argmax_ok = (lo - half_bin) <= argmax <= (hi + half_bin)
    ok = report.coverage >= 0.95 and argmax_ok
    _criterion(f"criterion 1 (q={q}, x={x})", ok,
               f"coverage={report.coverage:.3f} (need >=0.95), "
               f"argmax={argmax:+.3f} in [{lo:+.3f},{hi:+.3f}] bin-widened: {argmax_ok}, "
               f"wall={report.wall_time_s:.1f}s")


# ---------------------------------------------------------------------------
# 2. exact invariants on simulated pairs
# ---------------------------------------------------------------------------

def test_criterion_2_exact_invariants():
    worst_margin = np.inf
    worst_row = 0.0
    worst_reconstruction = 0.0
    cases = [(120, 60), (120, 108), (90, 18), (200, 100)]
    for k, (n_dim, n) in enumerate(cases):
        for m in range(12):
            x = sample_goe(n_dim, 1.0, derive_stream(2000 + k, m))
            (lam, full), (mu, minor) = eig_sym(x), eig_sym(x[:n, :n])
            grid = (minor.T @ full[:n]) ** 2
            slack = min(np.min(lam[:n] - mu), np.min(mu - lam[n_dim - n:]))
            worst_margin = min(worst_margin, slack)
            worst_row = max(worst_row, float(np.max(np.abs(grid.sum(axis=1) - 1.0))))
            # max-norm error of V diag(lam) V^T, relative to max(1, |x|_inf)
            error = np.max(np.abs((full * lam) @ full.T - x)) / max(1.0, np.max(np.abs(x)))
            worst_reconstruction = max(worst_reconstruction, error)
    ok = worst_margin >= -1e-9 and worst_row <= 1e-10 and worst_reconstruction <= 1e-8
    _criterion("criterion 2", ok,
               f"interlacing margin={worst_margin:.2e} (need >=-1e-9), "
               f"row-sum err={worst_row:.2e} (need <=1e-10), "
               f"reconstruction={worst_reconstruction:.2e} (need <=1e-8)")


# ---------------------------------------------------------------------------
# 3. formula cross-consistency
# ---------------------------------------------------------------------------

def test_criterion_3_formula_consistency():
    q, t = 0.5, 1.0
    full_ev = lambda z: semicircle_stieltjes(z, t)
    minor_ev = lambda z: semicircle_stieltjes(z, q * t)
    s0 = FiniteInitialTransform.from_diagonal(np.zeros(2), 1)  # A = 0 at n/N = q: q/(z zt)

    mus = np.linspace(-0.9 * 2 * np.sqrt(q * t), 0.9 * 2 * np.sqrt(q * t), 21)
    lams = np.linspace(-0.9 * 2 * np.sqrt(t), 0.9 * 2 * np.sqrt(t), 21)
    # every (mu, lam) pair at once: mu down the rows, lam along the columns
    minor_b = boundary_values(minor_ev, mus[:, None])
    full_b = boundary_values(full_ev, lams)
    worst_kernel = np.max(np.abs(overlap_kernel(s0, minor_b, full_b, t, q)
                                 - kernel_goe_value(mus[:, None], lams, t, q)))

    rng = np.random.default_rng(33)
    worst_s0 = 0.0
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 1.0))
        zt = complex(rng.uniform(-2, 2), -rng.uniform(0.1, 1.0))
        worst_s0 = max(worst_s0, abs(evolve_double_stieltjes(s0, z, zt, 0.0, q)
                                     - s0(z, zt)))

    worst_solve = 0.0
    for _ in range(20):
        z = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(1e-5, 1.5))
        tt = rng.uniform(0.2, 2.0)
        worst_solve = max(worst_solve, abs(solve_stieltjes(ATOM_ZERO, z, tt)
                                           - semicircle_stieltjes(z, tt)))

    ok = worst_kernel < 1e-8 and worst_s0 == 0.0 and worst_solve < 1e-10
    _criterion("criterion 3", ok,
               f"|general-closed| kernel={worst_kernel:.2e} (need <1e-8), "
               f"t=0 transform exact: {worst_s0 == 0.0}, "
               f"solver vs closed form={worst_solve:.2e} (need <1e-10)")


# ---------------------------------------------------------------------------
# 4. normalization identities by quadrature
# ---------------------------------------------------------------------------

def test_criterion_4_quadrature_identities():
    worst_row = 0.0
    for (mu_frac, t, q) in [(0.0, 1.0, 0.5), (0.5, 1.0, 0.5), (-0.5, 1.0, 0.5),
                            (0.0, 1.0, 0.9), (0.7, 1.0, 0.9), (0.0, 0.5, 0.1),
                            (0.3, 0.5, 0.1), (-0.8, 2.0, 0.7), (0.2, 2.0, 0.7)]:
        mu = mu_frac * 2 * np.sqrt(q * t)
        r = 2 * np.sqrt(t)
        val, _ = quad(lambda l: kernel_goe_value(mu, l, t, q) * semicircle_density(l, t),
                      -r, r, limit=200)
        worst_row = max(worst_row, abs(val - 1.0))

    worst_mass = 0.0
    for (lam, q, t) in [(3.0, 0.7, 1.0), (2.5, 0.4, 0.8), (5.0, 0.9, 2.0)]:
        rm = 2 * np.sqrt(q * t)
        val, _ = quad(lambda m: spike_bulk_overlap(lam, q, t, m)
                      * semicircle_density(m, q * t), -rm, rm, limit=200)
        worst_mass = max(worst_mass, abs(q * val - q * t / lam ** 2))

    ok = worst_row <= 1e-5 and worst_mass <= 1e-6
    _criterion("criterion 4", ok,
               f"row normalization err={worst_row:.2e} (need <=1e-5), "
               f"spike mass err={worst_mass:.2e} (need <=1e-6)")


# ---------------------------------------------------------------------------
# 5. spike-spike regime
# ---------------------------------------------------------------------------

def test_criterion_5_spike_spike():
    config = ExperimentConfig(n_dim=300, q=0.3, t=0.2, trials=200, master_seed=123,
                              target="spike_spike",
                              a_spec=ASpec(kind="uniform_spike", spike=1.0), threads=0)
    report = run_spike_spike(config)
    est = report.estimates[0]
    rel = abs(est.mean - 0.125) / 0.125

    lam, mu, q = 1.0, 0.3, 0.3
    h = 2e-6
    worst_resid = 0.0
    for t in np.linspace(0.01, 0.25, 25):
        deriv = (np.log(spike_spike_overlap(lam, mu, q, t + h))
                 - np.log(spike_spike_overlap(lam, mu, q, t - h))) / (2 * h)
        rate = 1.0 / (t - lam ** 2) + q / (q * t - mu ** 2) + 2 * q / (lam * mu - q * t)
        worst_resid = max(worst_resid, abs(deriv - rate))

    ok = rel <= 0.05 and worst_resid < 1e-7
    _criterion("criterion 5", ok,
               f"mean={est.mean:.5f} vs 0.125, rel={rel:.3%} (need <=5%), "
               f"ODE residual={worst_resid:.2e} (need <1e-7)")


# ---------------------------------------------------------------------------
# 6. spike-bulk regime
# ---------------------------------------------------------------------------

def test_criterion_6_spike_bulk():
    config = ExperimentConfig(n_dim=400, q=0.7, t=1.0, trials=200, master_seed=42,
                              target="spike_bulk",
                              a_spec=ASpec(kind="tail_spike", spike=3.0),
                              bins=25, threads=0)
    report = run_spike_bulk(config)
    mass = report.estimates[-1]
    mass_rel = abs(mass.mean - report.theory[-1]) / report.theory[-1]
    ok = report.coverage >= 0.95 and mass_rel <= 0.05
    _criterion("criterion 6", ok,
               f"coverage={report.coverage:.3f} (need >=0.95), "
               f"mass={mass.mean:.5f} vs {report.theory[-1]:.5f}, rel={mass_rel:.3%} (need <=5%)")


# ---------------------------------------------------------------------------
# 7. Bernoulli regimes
# ---------------------------------------------------------------------------

def test_criterion_7_bernoulli_bulk():
    config = ExperimentConfig(n_dim=300, q=0.5, t=0.0, trials=200, master_seed=42,
                              target="bernoulli_bulk", p=0.5, bins=25, threads=0)
    report = run_bernoulli_bulk(config)
    ok = report.coverage >= 0.90
    _criterion("criterion 7 (bulk)", ok,
               f"coverage={report.coverage:.3f} (need >=0.90) with t=p(1-p)={report.extras['t_eff']}")


def test_criterion_7_bernoulli_spike():
    config = ExperimentConfig(n_dim=100, q=0.5, t=0.0, trials=200, master_seed=42,
                              target="bernoulli_spike", p=0.7,
                              n_dims=(100, 200, 400), threads=0)
    report = run_bernoulli_spike(config)
    details = []
    ok = True
    for est, th in zip(report.estimates, report.theory):
        half = (est.ci_high - est.ci_low) / 2
        pulls = abs(est.mean - th) / half
        details.append(f"N={int(est.center)}: |dev|/half={pulls:.2f}")
        ok = ok and pulls <= 3.0
    _criterion("criterion 7 (spike)", ok,
               ", ".join(details) + " (need <=3 CI half-widths)")


# ---------------------------------------------------------------------------
# 8. SDE-level probes
# ---------------------------------------------------------------------------

def test_criterion_8_correlation_probe():
    report = correlation_probe(50, 25, 1.0, samples=100_000, seed=42)
    worst = max(abs(est.mean - th) / ((est.ci_high - est.ci_low) / (2 * Z_99))
                for est, th in zip(report.estimates, report.theory))
    ok = worst <= 5.0
    _criterion("criterion 8 (correlation)", ok,
               f"worst |deviation|/SE over {len(report.estimates)} index pairs = "
               f"{worst:.2f} (need <=5)")


def test_criterion_8_drift_probe():
    report = drift_probe(60, 30, 1.0, dt=1e-4, trials=100_000, seed=42)
    est, theory = report.estimates[0], report.theory[0]
    rel = abs(est.mean - theory) / abs(theory)
    mart_ok = True
    for row in report.estimates[1:]:
        se = (row.ci_high - row.ci_low) / (2 * Z_99)
        mart_ok = mart_ok and abs(row.mean) <= 3 * se
    ok = rel <= 0.10 and mart_ok
    _criterion("criterion 8 (drift)", ok,
               f"estimate={est.mean:+.4f} vs formula={theory:+.4f}, rel={rel:.3%} "
               f"(need <=10%), martingales within 3 SE: {mart_ok}, "
               f"pair={report.extras['pair']}")


# ---------------------------------------------------------------------------
# 9. cubic peak-location solver
# ---------------------------------------------------------------------------

def test_criterion_9_peak_solver():
    t = 1.0
    worst_resid = 0.0
    bounds_ok = True
    for q in (0.1, 0.5, 0.9):
        for x in np.linspace(0.005, 0.995, 99):
            mu = semicircle_quantile(x, t, radius_scale=np.sqrt(q))
            peak = kernel_peak_location(mu, t, q)
            poly = (q * peak ** 3 - ((1 + 6 * q + q * q) * t + mu * mu) * peak
                    + 4 * (1 + q) * t * mu)
            worst_resid = max(worst_resid, abs(poly))
            lo, hi = sorted((mu, mu / np.sqrt(q)))
            bounds_ok = bounds_ok and (lo - 1e-9 <= peak <= hi + 1e-9)
            ilo, ihi = interlace_interval(x, t, q)
            bounds_ok = bounds_ok and (ilo - 1e-9 <= peak <= ihi + 1e-9)
    q1_err = max(abs(kernel_peak_location(mu, t, 1.0) - mu)
                 for mu in np.linspace(-1.9, 1.9, 21))
    ok = bounds_ok and q1_err <= 1e-12 and worst_resid < 1e-9
    _criterion("criterion 9", ok,
               f"bounds hold on 99-point grids (q in 0.1/0.5/0.9): {bounds_ok}, "
               f"worst cubic residual={worst_resid:.2e}, q=1 identity err={q1_err:.2e} "
               f"(need <=1e-12)")


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    base = ["simulate", "--N", "120", "--qfrac", "0.5", "--t", "1", "--x", "0.5",
            "--trials", "100", "--seed", "9", "--bins", "13"]
    paths = [tmp_path / f"run{k}.csv" for k in range(3)]
    for path, threads in zip(paths, ("1", "2", "4")):
        assert cli.main(base + ["--threads", threads, "--out", str(path)]) == 0
    csv_ok = (paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes())

    json_paths = [tmp_path / f"run{k}.json" for k in range(2)]
    for path, threads in zip(json_paths, ("1", "3")):
        assert cli.main(base + ["--threads", threads, "--format", "json",
                                "--out", str(path)]) == 0
    objs = [json.loads(p.read_text()) for p in json_paths]
    for obj in objs:
        obj.pop("wall_time_s")  # the single nondeterministic field
    json_ok = objs[0] == objs[1]

    ok = csv_ok and json_ok
    _criterion("criterion 10", ok,
               f"CSV byte-identical across threads/repeats: {csv_ok}, "
               f"JSON identical up to wall_time_s: {json_ok}")
