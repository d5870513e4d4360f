import dataclasses
import os

import numpy as np
import pytest

from minor_overlaps import (
    ASpec,
    ExperimentConfig,
    correlation_probe,
    drift_probe,
    drift_step_consistency,
    run_bernoulli,
    run_bulk_experiment,
    run_spike_bulk,
    run_spike_spike,
    spike_path_series,
)
from minor_overlaps.errors import NumericError
from minor_overlaps.montecarlo import Z_99, _openblas_threads, _run_trials


def _small_bulk_config(**overrides):
    base = dict(n_dim=80, q=0.5, t=1.0, trials=100, master_seed=777,
                target="bulk", x=0.5, bins=15, threads=1)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_bulk_report_structure_and_audits():
    report = run_bulk_experiment(_small_bulk_config())
    assert len(report.estimates) == 15
    assert len(report.theory) == 15
    assert report.extras["aborted_trials"] == 0
    assert report.extras["worst_row_sum_error"] < 1e-10
    assert 0.0 <= report.coverage <= 1.0
    for est, th in zip(report.estimates, report.theory):
        assert th > 0
        if est.mean is not None:
            assert est.ci_low <= est.mean <= est.ci_high


def test_bulk_requires_enough_trials_for_intervals():
    with pytest.raises(ValueError):
        run_bulk_experiment(_small_bulk_config(trials=50))


def test_bulk_rejects_zero_noise_and_bad_fraction():
    with pytest.raises(ValueError):
        run_bulk_experiment(_small_bulk_config(t=0.0))
    with pytest.raises(ValueError):
        run_bulk_experiment(_small_bulk_config(q=1.0))


def test_bulk_determinism_across_thread_counts():
    a = run_bulk_experiment(_small_bulk_config(threads=1))
    b = run_bulk_experiment(_small_bulk_config(threads=4))
    assert a.estimates == b.estimates
    assert a.theory == b.theory
    assert a.extras["mu_hat"] == b.extras["mu_hat"]
    assert (a.extras["pool_threads"], b.extras["pool_threads"]) == (1, 4)
    assert a.extras["trial_blas_threads"] == b.extras["trial_blas_threads"]


def test_bulk_argmax_lies_in_interlacing_interval():
    report = run_bulk_experiment(_small_bulk_config(n_dim=120, trials=150))
    half_bin = report.extras["bin_width"] / 2
    lo, hi = report.extras["interlace_lo"], report.extras["interlace_hi"]
    assert lo - half_bin <= report.extras["argmax_center"] <= hi + half_bin


def test_spike_spike_small_time_matches_initial_condition():
    config = ExperimentConfig(n_dim=300, q=0.3, t=1e-4, trials=100, master_seed=11,
                              target="spike_spike",
                              a_spec=ASpec(kind="uniform_spike", spike=1.0), threads=0)
    report = run_spike_spike(config)
    est = report.estimates[0]
    assert est.kind == "top_overlap"
    assert est.mean == pytest.approx(0.3, rel=0.01)
    assert report.extras["minor_spike"] == pytest.approx(0.3)


def test_spike_spike_rejects_absorbed_window():
    config = ExperimentConfig(n_dim=100, q=0.3, t=0.5, trials=100, master_seed=11,
                              target="spike_spike",
                              a_spec=ASpec(kind="uniform_spike", spike=1.0))
    # t >= minor_spike^2 / q = 0.3: the minor spike is gone before sampling
    with pytest.raises(Exception):
        run_spike_spike(config)


def test_split_spike_reaches_larger_minor_mass():
    config = ExperimentConfig(n_dim=200, q=0.3, t=0.05, trials=100, master_seed=13,
                              target="spike_spike",
                              a_spec=ASpec(kind="split_spike", spike=1.0, minor_spike=0.6))
    report = run_spike_spike(config)
    assert report.extras["minor_spike"] == 0.6
    assert report.estimates[0].mean == pytest.approx(report.theory[0], rel=0.05)


def test_spike_path_series_tracks_linear_trajectory():
    config = ExperimentConfig(n_dim=300, q=0.3, t=1.2, trials=100, master_seed=303,
                              target="spike_path",
                              a_spec=ASpec(kind="uniform_spike", spike=1.0))
    series = spike_path_series(config, t_max=1.2, steps=24)
    assert series.t.size == 25
    early = series.t <= 0.7
    assert np.max(np.abs(series.lambda1[early] - (1.0 + series.t[early]))) < 0.15
    assert np.max(np.abs(series.mu1[early] - (0.3 + series.t[early]))) < 0.15
    # bulk tops stay below the spikes while the spikes are alive
    assert np.all(series.edge_full[early] < series.lambda1[early])


def test_spike_bulk_report_shape_and_mass_row():
    config = ExperimentConfig(n_dim=150, q=0.7, t=0.5, trials=100, master_seed=21,
                              target="spike_bulk", bins=11,
                              a_spec=ASpec(kind="tail_spike", spike=3.0))
    report = run_spike_bulk(config)
    assert report.estimates[-1].kind == "total_mass"
    assert report.theory[-1] == pytest.approx(0.7 * 0.5 / 9.0)
    assert report.estimates[-1].mean == pytest.approx(report.theory[-1], rel=0.2)
    assert len(report.estimates) == 12


def test_spike_bulk_empirical_curve_ordering():
    # the far spike's overlap profile sits below the near spike's at large mu
    def top_bin_mean(spike):
        config = ExperimentConfig(n_dim=150, q=0.7, t=0.5, trials=100, master_seed=77,
                                  target="spike_bulk", bins=9,
                                  a_spec=ASpec(kind="tail_spike", spike=spike))
        report = run_spike_bulk(config)
        return report.estimates[-2].mean  # highest-mu bin (last row is the mass)

    assert top_bin_mean(5.0) < top_bin_mean(2.5)


def test_bernoulli_spike_deterministic_p_one():
    config = ExperimentConfig(n_dim=100, q=0.5, t=0.0, trials=100, master_seed=5,
                              target="bernoulli_spike", p=1.0, n_dims=(100,))
    report = run_bernoulli(config)
    est = report.estimates[0]
    assert est.kind == "deficit"
    assert abs(est.mean) < 1e-10
    assert report.theory[0] == 0.0
    assert {"aborted_trials", "absorbed_trials", "pool_threads",
            "trial_blas_threads"} <= report.extras.keys()


def test_bernoulli_bulk_report_shape():
    config = ExperimentConfig(n_dim=120, q=0.5, t=0.0, trials=100, master_seed=6,
                              target="bernoulli_bulk", p=0.5, bins=11, threads=2)
    report = run_bernoulli(config)
    assert len(report.estimates) == 11
    assert report.extras["t_eff"] == pytest.approx(0.25)
    assert 0.0 <= report.coverage <= 1.0


def test_bulk_general_spectrum_run():
    # two-atom deterministic part: bins span the scanned support, theory is
    # NaN only inside gaps/edges, and coverage is computed on comparable bins
    n_dim = 150
    a_diag = np.empty(n_dim)
    a_diag[0::2] = 1.0
    a_diag[1::2] = -1.0
    config = _small_bulk_config(n_dim=n_dim, trials=100, bins=21,
                                a_spec=ASpec(kind="explicit", matrix=np.diag(a_diag)))
    report = run_bulk_experiment(config)
    theory = np.array(report.theory)
    interior = np.array(report.extras["interior"])
    comparable = interior & ~np.isnan(theory)
    assert comparable.sum() >= 8
    assert np.nanmin(theory) > 0
    assert report.coverage >= 0.5
    # support scan found the symmetric edges of the evolved density
    edges = report.extras["bin_edges"]
    assert edges[0] == pytest.approx(-edges[-1], abs=1e-4)
    assert 2.2 < edges[-1] < 2.7


# ---------------------------------------------------------------------------
# BLAS thread limit of the trial pool
# ---------------------------------------------------------------------------

@pytest.fixture
def blas_threads():
    """OpenBLAS (getter, setter), with the caller's count set to 2 and restored after."""
    blas = _openblas_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS thread symbols are not available")
    get_threads, set_threads = blas
    before = get_threads()
    set_threads(2)
    yield blas
    set_threads(before)


@pytest.mark.parametrize("threads", [0, 1, 3])
def test_trials_run_with_one_blas_thread_and_restore(blas_threads, threads):
    get_threads, _ = blas_threads
    results, aborted, used = _run_trials(8, threads, lambda m: get_threads())
    assert results == [1] * 8
    assert aborted == 0
    assert used == {"pool_threads": threads or len(os.sched_getaffinity(0)),
                    "trial_blas_threads": 1}
    assert get_threads() == 2


def test_blas_count_restored_after_failed_run(blas_threads):
    get_threads, _ = blas_threads

    def always_fails(m):
        raise NumericError("forced")

    def worker_bug(m):
        raise RuntimeError("not a trial abort")

    with pytest.raises(NumericError, match="trials aborted"):
        _run_trials(8, 2, always_fails)
    assert get_threads() == 2
    with pytest.raises(RuntimeError):
        _run_trials(8, 2, worker_bug)
    assert get_threads() == 2


def test_drift_probe_steps_with_one_blas_thread_and_restores(blas_threads, monkeypatch):
    get_threads, _ = blas_threads
    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(a):
        seen.append(get_threads())
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    drift_probe(20, 10, 1.0, trials=1000, seed=3)
    # the frozen state is decomposed first, with the caller's count
    assert seen[:2] == [2, 2]
    assert set(seen[2:]) == {1}
    assert get_threads() == 2


def test_config_is_frozen_and_echoable():
    config = _small_bulk_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.t = 2.0
    assert config.n == 40


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def test_correlation_probe_identity_holds():
    report = correlation_probe(50, 25, 1.0, samples=20_000, seed=99)
    assert len(report.estimates) == 81
    for est, th in zip(report.estimates, report.theory):
        se = (est.ci_high - est.ci_low) / (2 * Z_99)
        assert abs(est.mean - th) < 5 * se


def test_correlation_probe_near_zero_rows_vanish():
    report = correlation_probe(50, 25, 1.0, samples=20_000, seed=99)
    pairs = sorted(zip(report.theory, report.estimates), key=lambda p: abs(p[0]))
    for th, est in pairs[:5]:
        se = (est.ci_high - est.ci_low) / (2 * Z_99)
        assert abs(est.mean) < 3 * se + abs(th)


def test_correlation_probe_rejects_small_sample_count():
    with pytest.raises(ValueError):
        correlation_probe(50, 25, 1.0, samples=100, seed=0)


def test_drift_probe_mechanics_and_martingales():
    report = drift_probe(40, 20, 1.0, dt=1e-4, trials=20_000, seed=1234)
    kinds = [e.kind for e in report.estimates]
    assert kinds == ["drift", "martingale_full", "martingale_minor"]
    for est, th in zip(report.estimates[1:], report.theory[1:]):
        se = (est.ci_high - est.ci_low) / (2 * Z_99)
        assert th == 0.0
        assert abs(est.mean) < 4 * se
    drift_est = report.estimates[0]
    assert abs(drift_est.mean - report.theory[0]) < 5 * (
        (drift_est.ci_high - drift_est.ci_low) / (2 * Z_99))


def test_drift_probe_rejects_large_matrices():
    with pytest.raises(ValueError):
        drift_probe(150, 60, 1.0)


def test_drift_step_consistency_is_first_order():
    mean, se, pair = drift_step_consistency(40, 20, 1.0, dt=2e-4, trials=20_000, seed=1234)
    assert abs(mean) < 3 * se + 1e-3
    assert all(isinstance(v, int) for v in pair)
