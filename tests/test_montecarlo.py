import dataclasses
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import binom

from minor_overlaps import (
    ASpec,
    DomainError,
    ExperimentConfig,
    FiniteInitialTransform,
    SpectrumModel,
    boundary_values,
    correlation_probe,
    derive_stream,
    drift_probe,
    kernel_goe_value,
    overlap_kernel,
    representative_diagonal,
    run_bernoulli_bulk,
    run_bernoulli_spike,
    run_bulk_experiment,
    run_spike_bulk,
    run_spike_spike,
    sample_goe,
    sample_path,
    semicircle_density,
    semicircle_stieltjes,
    solve_minor_stieltjes,
    solve_stieltjes,
    spike_bulk_overlap,
    spike_path_series,
    split_spike_vector,
    tail_spike_vector,
    uniform_spike_vector,
)
from minor_overlaps import freeprob, montecarlo, overlaps_theory, probes, spectral
from minor_overlaps.errors import InputError, NumericError
from minor_overlaps.montecarlo import (
    Z_99,
    _coverage,
    _trial_estimate,
    _binned_general_theory,
    _bin_means,
    _binned_semicircle_average,
    _goe_kernel_poles,
    _scan_general_support,
    _pool_map,
    _run_trials,
    miss_tail_probability,
)
from minor_overlaps.reports import bulk_report_csv
from minor_overlaps.spectral import eigpair_at, eigpair_backend


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
    assert "refused_nodes" not in report.extras  # the closed form refuses nothing
    k, judged = report.extras["misses"]
    assert judged > 0 and report.coverage == (judged - k) / judged
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


def test_bulk_interior_misses_are_calibrated_over_seeds():
    # with exact theory each judged 99% interval misses with probability 0.01,
    # so the misses pooled over 60 seeds must not be a binomial outlier
    # (measured: 3 in 480 at N=120)
    misses = judged = 0
    for seed in range(60):
        report = run_bulk_experiment(_small_bulk_config(n_dim=120, bins=12, master_seed=seed,
                                                        threads=0))
        k, n_judged = report.extras["misses"]
        misses, judged = misses + k, judged + n_judged
    assert judged > 0
    assert miss_tail_probability(misses, judged) >= 1e-3, (misses, judged)


def test_bulk_determinism_across_thread_counts():
    a = run_bulk_experiment(_small_bulk_config(threads=1))
    b = run_bulk_experiment(_small_bulk_config(threads=4))
    assert a.estimates == b.estimates
    assert a.theory == b.theory
    assert a.extras["mu_hat"] == b.extras["mu_hat"]
    assert (a.extras["pool_threads"], b.extras["pool_threads"]) == (1, 4)
    assert a.extras["trial_blas_threads"] == b.extras["trial_blas_threads"]


@settings(max_examples=5)
@given(seed=st.integers(0, 2**32 - 1))
def test_bulk_report_csv_is_thread_independent(seed):
    config = _small_bulk_config(n_dim=40, bins=7, master_seed=seed)
    one = bulk_report_csv(run_bulk_experiment(config))
    three = bulk_report_csv(run_bulk_experiment(dataclasses.replace(config, threads=3)))
    assert one == three


#: one small configuration per runner: (runner, config at threads=1)
_RUNNERS = {
    "bulk": (run_bulk_experiment, _small_bulk_config(n_dim=40, bins=7)),
    "spike-spike": (run_spike_spike, ExperimentConfig(
        n_dim=60, q=0.3, t=0.2, trials=100, master_seed=8, target="spike_spike",
        a_spec=ASpec(kind="uniform_spike", spike=1.0), threads=1)),
    "spike-bulk": (run_spike_bulk, ExperimentConfig(
        n_dim=40, q=0.7, t=1.0, trials=100, master_seed=11, target="spike_bulk", bins=7,
        a_spec=ASpec(kind="tail_spike", spike=3.0), threads=1)),
    "bernoulli-bulk": (run_bernoulli_bulk, ExperimentConfig(
        n_dim=40, q=0.5, t=0.0, trials=100, master_seed=13, target="bernoulli_bulk", p=0.5,
        bins=7, threads=1)),
    "bernoulli-spike": (run_bernoulli_spike, ExperimentConfig(
        n_dim=30, q=0.5, t=0.0, trials=100, master_seed=15, target="bernoulli_spike", p=0.7,
        n_dims=(30, 40), threads=1)),
}


@pytest.mark.parametrize("name", [n for n in _RUNNERS if n != "bulk"])
def test_runner_determinism_across_thread_counts(name):
    runner, config = _RUNNERS[name]
    a = runner(config)
    b = runner(dataclasses.replace(config, threads=3))
    assert a.estimates == b.estimates
    assert a.theory == b.theory
    assert (a.extras["pool_threads"], b.extras["pool_threads"]) == (1, 3)


@pytest.mark.parametrize("name", list(_RUNNERS))
def test_failed_read_audit_aborts_one_trial(monkeypatch, name):
    runner, config = _RUNNERS[name]
    minors = []

    def inflating_fourth_minor(reduce):
        """``reduce`` with trial 3's minor vectors or coefficients ten times too long."""
        def reduced(x, *args):
            # on one pool thread each trial reduces one minor; the fourth is trial 3's
            minors.append(x.shape[0] == config.n)
            *head, read = reduce(x, *args)
            return (*head, 10.0 * read if minors[-1] and sum(minors) == 4 else read)
        return reduced

    for reducer in ("_reduce_in_place", "_carry_in_place"):
        monkeypatch.setattr(montecarlo, reducer,
                            inflating_fourth_minor(getattr(spectral, reducer)))
    report = runner(config)
    assert sum(minors[:8]) == 4  # the inflated one was trial 3's minor
    assert report.extras["aborted_trials"] == 1
    assert report.extras["absorbed_trials"] == 0


@pytest.mark.parametrize("name", list(_RUNNERS))
def test_runners_agree_on_the_eigh_fallback(name):
    # without numpy's LAPACK symbols every trial decomposes with eigh
    runner, config = _RUNNERS[name]
    lapack = runner(config)
    with mock.patch.object(spectral, "_openblas", lambda: None), \
            mock.patch.object(spectral, "eig_sym", wraps=spectral.eig_sym) as eig_sym:
        fallback = runner(config)
    assert eig_sym.call_count == 2 * config.trials * max(1, len(config.n_dims))
    for report in (lapack, fallback):
        assert report.extras["aborted_trials"] == 0
    assert len(lapack.estimates) == len(fallback.estimates)
    for a, b in zip(lapack.estimates, fallback.estimates):
        assert (a.center, a.n_samples, a.kind) == (b.center, b.n_samples, b.kind)
        assert (a.mean is None) == (b.mean is None)
        if a.mean is not None:
            scale = max(abs(a.ci_low), abs(a.ci_high))
            assert np.abs(np.subtract((a.mean, a.ci_low, a.ci_high),
                                      (b.mean, b.ci_low, b.ci_high))).max() <= 1e-12 * scale


def test_spike_spike_counts_minor_tops_at_their_bulk_edge_on_any_thread_count():
    # kept, not dropped: the estimate is that of every trial whose full spike stands out
    runner, config = _RUNNERS["spike-spike"]
    edge = 2.0 * np.sqrt(config.q * config.t)
    tops, spectra = [], montecarlo.check_interlacing

    def recording(lam, mu):
        tops.append(mu[0])
        return spectra(lam, mu)

    with mock.patch.object(montecarlo, "check_interlacing", recording):
        report = runner(config)
    counted = report.extras["minor_edge_trials"]
    assert report.extras["absorbed_trials"] == 0 and len(tops) == config.trials
    assert counted == sum(top < edge + montecarlo.SPIKE_ABSORB_MARGIN * edge for top in tops)
    assert 0 < counted < config.trials == report.estimates[0].n_samples
    for threads in (2, 3):
        assert runner(dataclasses.replace(config, threads=threads)).extras[
            "minor_edge_trials"] == counted


@pytest.mark.parametrize("name", ["spike-spike", "spike-bulk"])
def test_driver_refuses_a_run_without_two_kept_trials(monkeypatch, name):
    # the trial driver, not the runner, owns the rule and names every count
    runner, config = _RUNNERS[name]
    monkeypatch.setattr(montecarlo, "_spike_absorbed", lambda top_eval, t: True)
    with pytest.raises(NumericError) as caught:
        runner(config)
    assert str(caught.value) == ("0 of 100 trials kept (0 aborted, 100 absorbed); "
                                 "a run needs at least 2")


def test_bernoulli_spike_sums_its_run_counts_over_sizes(monkeypatch):
    runner, config = _RUNNERS["bernoulli-spike"]
    driver, seen = montecarlo._run_decomposed, []

    def counted(sized, *args, **kwargs):
        # each size runs on its own config, whose minor is round(qN) of that size
        kept, run = driver(sized, *args, **kwargs)
        seen.append((sized.n_dim, sized.n))
        return kept, {**run, "aborted_trials": 1, "absorbed_trials": sized.n_dim}

    monkeypatch.setattr(montecarlo, "_run_decomposed", counted)
    report = runner(config)
    assert seen == [(30, 15), (40, 20)]
    assert report.config is config
    assert (report.extras["aborted_trials"], report.extras["absorbed_trials"]) == (2, 70)


def _changed(name, **changes):
    """A call of runner ``name`` on its small config with ``changes``."""
    runner, config = _RUNNERS[name]
    return lambda: runner(dataclasses.replace(config, **changes))


_GENERAL = (SpectrumModel(atoms=((-1.0, 0.5), (1.0, 0.5))), 0.3, (-2.0, 2.0))
_LIMIT = montecarlo.max_threads()


@pytest.mark.parametrize("call, name", [
    (_changed("bulk", x=2.0, a_spec=ASpec(kind="explicit", matrix=np.diag(np.linspace(-1, 1, 40)))),
     "x"),
    (_changed("bernoulli-spike", n_dims=(30, 1)), "n_dims"),
    (_changed("bulk", trials=99), "trials"),
    (_changed("spike-bulk", bins=0), "bins"),
    (_changed("spike-spike", threads=-1), "threads"),
    (_changed("bernoulli-bulk", threads=_LIMIT + 1), "threads"),
    (_changed("bulk", master_seed=-1), "master_seed"),
    (_changed("bulk", n_dim=1), "n_dim"),
    (_changed("bulk", q=1.0), "q"),
    (_changed("bulk", t=0.0), "t"),
    (lambda: run_bulk_experiment(_small_bulk_config(n_dim=40, q=1.5), _GENERAL[0]), "q"),
    (lambda: run_bulk_experiment(_small_bulk_config(n_dim=200),
                                 SpectrumModel(atoms=((0.0, 0.999), (5.0, 0.001)))), "n_dim"),
    (lambda: run_bulk_experiment(_small_bulk_config(n_dim=40, bin_range=(3.0, 1.0)), _GENERAL[0]),
     "bin_range"),
    (_changed("bulk", bin_range=(-1.0, np.inf)), "bin_range"),
    (_changed("spike-spike", n_dim=0), "n_dim"),
    (_changed("spike-spike", q=0.001), "q"),
    (_changed("spike-spike", a_spec=ASpec(kind="uniform_spike", spike=-1.0)), "spike"),
    (_changed("spike-spike", a_spec=ASpec(kind="split_spike", spike=1.0, minor_spike=2.0)), "mu"),
    (_changed("spike-spike", q=1.0, a_spec=ASpec(kind="split_spike", spike=1.0, minor_spike=0.5)),
     "q"),
    (_changed("spike-spike", t=-1.0), "t"),
    (_changed("spike-bulk", q=0.995), "q"),
    (_changed("spike-bulk", t=0.0), "t"),
    (_changed("spike-bulk", a_spec=ASpec(kind="tail_spike", spike=-3.0)), "spike"),
    (_changed("bernoulli-bulk", p=1.0), "p"),
    (_changed("bernoulli-bulk", n_dim=1), "n_dim"),
    (_changed("bernoulli-spike", p=0.0), "p"),
    (_changed("bernoulli-spike", q=1.5), "q"),
    (lambda: spike_path_series(1, 0.5, 1.0, t_max=1.0, steps=4, master_seed=0), "n_dim"),
    (lambda: spike_path_series(40, 0.03, 1.0, t_max=1.0, steps=4, master_seed=0), "q"),
    (lambda: spike_path_series(40, 0.5, -1.0, t_max=1.0, steps=4, master_seed=0), "spike"),
    (lambda: spike_path_series(40, 0.5, 1.0, t_max=0.0, steps=4, master_seed=0), "t_max"),
    (lambda: spike_path_series(40, 0.5, 1.0, t_max=1.0, steps=0, master_seed=0), "steps"),
    (lambda: spike_path_series(40, 0.5, 1.0, t_max=1.0, steps=4, master_seed=-1), "master_seed"),
    (lambda: drift_probe(101, 10, 1.0, trials=1000), "n_dim"),
    (lambda: drift_probe(20, 2, 1.0, trials=1000), "n"),
    (lambda: drift_probe(20, 10, 0.0, trials=1000), "t"),
    (lambda: drift_probe(20, 10, 1.0, dt=0.0, trials=1000), "dt"),
    (lambda: drift_probe(20, 10, 1.0, trials=999), "trials"),
    (lambda: drift_probe(20, 10, 1.0, trials=1000, seed=-1), "seed"),
    (lambda: correlation_probe(20, 10, -1.0, samples=10_000, seed=0), "t"),
    (lambda: correlation_probe(20, 10, 1.0, samples=9_999, seed=0), "samples"),
    (lambda: overlaps_theory.kernel_goe_curve(1.0, 1.0, 5), "q"),
    (lambda: overlaps_theory.kernel_goe_curve(0.0, 0.5, 5), "t"),
    (lambda: overlaps_theory.kernel_goe_curve(1.0, 0.5, 0), "bins"),
    (lambda: overlaps_theory.kernel_goe_curve(1.0, 0.5, 5, x=1.5), "x"),
    (lambda: overlaps_theory.kernel_goe_curve(1.0, 0.5, 5, mu=1.5), "mu"),
    (lambda: overlaps_theory.spike_bulk_curve(3.0, 1.5, 1.0, 5), "q"),
    (lambda: overlaps_theory.spike_bulk_curve(3.0, 0.5, -1.0, 5), "t"),
    (lambda: overlaps_theory.spike_bulk_curve(3.0, 0.5, 1.0, 0), "bins"),
    (lambda: overlaps_theory.general_kernel_curve(*_GENERAL, 8, 1.0, 0.5, 0), "n0"),
    (lambda: overlaps_theory.general_kernel_curve(*_GENERAL, 8, 0.0, 0.5, 200), "t"),
    (lambda: overlaps_theory.general_kernel_curve(*_GENERAL, 8, 1.0, 1.0, 200), "q"),
    (lambda: overlaps_theory.general_kernel_curve(*_GENERAL, 0, 1.0, 0.5, 200), "bins"),
    (lambda: overlaps_theory.general_kernel_curve(dataclasses.replace(_GENERAL[0], q=1.0),
                                                  *_GENERAL[1:], 8, 1.0, None, 200), "model"),
    (lambda: overlaps_theory.interlace_interval(0.5, 1.0, -0.5), "q"),
    (lambda: overlaps_theory.interlace_interval(0.5, 0.0, 0.5), "t"),
    (lambda: overlaps_theory.interlace_interval(1.5, 1.0, 0.5), "x"),
    (lambda: overlaps_theory.bernoulli_spike_overlap(0, None, 0.5, 0.5), "n_dim"),
    (lambda: overlaps_theory.bernoulli_spike_overlap(400, None, 0.5, -0.5), "q"),
    (lambda: overlaps_theory.bernoulli_spike_overlap(400, 0, 0.5), "n"),
], ids=["bulk-model-quantile", "bernoulli-spike-later-size", "trials", "bins", "threads-negative",
        "threads-above-bound", "master-seed", "bulk-N", "bulk-q", "bulk-t", "bulk-model-q",
        "bulk-model-N-leaves-an-atom-out", "bulk-model-bin-range-decreasing",
        "bulk-bin-range-infinite",
        "spike-spike-N", "spike-spike-q", "spike-spike-spike", "spike-spike-mu",
        "split-spike-q-one", "spike-spike-t",
        "spike-bulk-q", "spike-bulk-t", "spike-bulk-spike", "bernoulli-bulk-p",
        "bernoulli-bulk-N", "bernoulli-spike-p", "bernoulli-spike-q", "path-N", "path-q",
        "path-spike", "path-t-max", "path-steps", "path-seed", "probe-N", "probe-n", "drift-t",
        "probe-dt", "drift-trials", "probe-seed", "correlation-t", "correlation-samples",
        "goe-curve-q", "goe-curve-t", "goe-curve-bins", "goe-curve-x", "goe-curve-mu", "spike-g-curve-q",
        "spike-g-curve-t", "spike-g-curve-bins", "general-curve-n0", "general-curve-t",
        "general-curve-q", "general-curve-bins", "general-curve-model-q", "interlace-q",
        "interlace-t", "interlace-x", "expansion-N", "expansion-q", "expansion-n"])
def test_runners_refuse_bad_input_before_set_up_or_trials(monkeypatch, call, name):
    # each rule the command line once stated by flag is the library's alone: a
    # refusal names the argument, and no stage that sets a run up is reached
    def never(*args, **kwargs):
        raise AssertionError("set-up or trials ran")

    for owner, stage in ((montecarlo, "_run_decomposed"), (montecarlo, "_scan_general_support"),
                         (montecarlo, "representative_diagonal"), (montecarlo, "sample_path"),
                         (overlaps_theory, "representative_diagonal"), (probes, "_frozen_state"),
                         (FiniteInitialTransform, "from_matrix"),
                         (FiniteInitialTransform, "from_diagonal")):
        monkeypatch.setattr(owner, stage, never)
    with pytest.raises(InputError) as caught:
        call()
    assert caught.value.name == name
    assert str(caught.value) == (f"{name} must be {caught.value.allowed}, "
                                 f"got {caught.value.value}")


@pytest.mark.parametrize("call, message", [
    (lambda: eigpair_at(0), "size must be >= 1, got 0"),
    (lambda: sample_path(5, [[0.0]], derive_stream(0, 0)),
     "t_grid must be a non-empty 1-d sequence, got shape (1, 1)"),
    (lambda: sample_path(5, [-1.0, 1.0], derive_stream(0, 0)),
     "t_grid must be a grid starting at a time >= 0, got -1.0"),
    (lambda: sample_path(5, [0.0, 1.0, 1.0], derive_stream(0, 0)),
     "t_grid must be strictly increasing, got 1.0 after 1.0"),
    (lambda: FiniteInitialTransform.from_matrix(np.eye(3), 5), "n must be in [1, 3], got 5"),
    (lambda: FiniteInitialTransform.from_diagonal(np.ones(3), 5), "n must be in [1, 3], got 5"),
    (lambda: uniform_spike_vector(5, -1.0), "spike must be >= 0, got -1.0"),
    (lambda: split_spike_vector(5, 5, 1.0, 0.5), "n must be in [1, 4], got 5"),
    (lambda: split_spike_vector(5, 2, 1.0, 2.0), "minor_spike must be in (0, 1.0], got 2.0"),
    (lambda: tail_spike_vector(5, 0, 1.0), "n must be in [1, 4], got 0"),
    (lambda: tail_spike_vector(5, 2, -1.0), "spike must be >= 0, got -1.0"),
    (lambda: overlaps_theory.kernel_peak_location(5.0, 1.0, 0.5),
     "mu must be in the minor bulk [-1.41421, 1.41421], got 5.0"),
    (lambda: spike_bulk_overlap(3.0, 0.5, 1.0, [0.0, 2.0, -3.0]),
     "mu must be in the minor bulk [-1.41421, 1.41421], got 2.0"),
], ids=["eigpair-size", "path-grid-shape", "path-grid-start", "path-grid-order",
        "transform-matrix-n", "transform-diagonal-n", "uniform-spike", "split-spike-n",
        "split-spike-minor-spike", "tail-spike-n", "tail-spike-spike", "peak-mu",
        "spike-g-first-mu-outside"])
def test_exported_functions_refuse_a_range_by_name(call, message):
    with pytest.raises(InputError) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize("atoms, q, n0, reason", [
    (((-1.0, 0.5), (1.0, 0.5)), 0.5, 1, "atom at 1.0 with weight 0.5 gets no entry at size 1"),
    (((0.0, 0.9), (5.0, 0.1)), 0.1, 10,
     "atom at 5.0 with weight 0.1 gets no entry in the leading 1x1 block at size 10"),
], ids=["matrix", "minor"])
def test_general_kernel_curve_refuses_an_n0_that_leaves_an_atom_out(monkeypatch, atoms, q, n0,
                                                                    reason):
    # the realized diagonal judges n0, before any initial transform is built
    def never(*args, **kwargs):
        raise AssertionError("a transform was built")

    monkeypatch.setattr(FiniteInitialTransform, "from_diagonal", never)
    with pytest.raises(InputError) as caught:
        overlaps_theory.general_kernel_curve(SpectrumModel(atoms=atoms), *_GENERAL[1:], 8, 1.0,
                                             q, n0)
    assert caught.value.name == "n0"
    assert str(caught.value) == (f"n0 must be large enough that every atom gets an entry in the "
                                 f"matrix and its minor, got {n0} ({reason}; use a larger size)")


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
    series = spike_path_series(300, 0.3, 1.0, t_max=1.2, steps=24, master_seed=303)
    assert series.t.size == 25
    early = series.t <= 0.7
    assert np.max(np.abs(series.lambda1[early] - (1.0 + series.t[early]))) < 0.15
    assert np.max(np.abs(series.mu1[early] - (0.3 + series.t[early]))) < 0.15
    # bulk tops stay below the spikes while the spikes are alive
    assert np.all(series.edge_full[early] < series.lambda1[early])


def test_spike_path_series_refuses_a_minor_without_a_second_level():
    with pytest.raises(ValueError, match="round"):
        spike_path_series(40, 0.03, 1.0, t_max=1.0, steps=4, master_seed=0)  # n = 1
    with pytest.raises(ValueError, match="steps"):
        spike_path_series(40, 0.5, 1.0, t_max=1.0, steps=0, master_seed=0)


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
    report = run_bernoulli_spike(config)
    est = report.estimates[0]
    assert est.kind == "deficit"
    assert abs(est.mean) < 1e-10
    assert report.theory[0] == 0.0
    assert {"aborted_trials", "absorbed_trials", "pool_threads",
            "trial_blas_threads"} <= report.extras.keys()


def test_bernoulli_bulk_report_shape():
    config = ExperimentConfig(n_dim=120, q=0.5, t=0.0, trials=100, master_seed=6,
                              target="bernoulli_bulk", p=0.5, bins=11, threads=2)
    report = run_bernoulli_bulk(config)
    assert len(report.estimates) == 11
    assert report.extras["t_eff"] == pytest.approx(0.25)
    assert 0.0 <= report.coverage <= 1.0


# ---------------------------------------------------------------------------
# closed-form bin averages against quadrature
# ---------------------------------------------------------------------------

def _quad_bin_average(func, a, c, t):
    """Average of ``func`` against rho_t over [a, c] by quad in theta = arcsin(x/R).

    The substitution turns the weight into cos(theta)^2, smooth up to the
    edges, so bins touching +-R integrate to full accuracy.
    """
    r = 2.0 * np.sqrt(t)
    lo, hi = np.arcsin(max(a / r, -1.0)), np.arcsin(min(c / r, 1.0))
    num, _ = quad(lambda th: func(r * np.sin(th)) * np.cos(th) ** 2, lo, hi,
                  epsabs=0.0, epsrel=1e-12, limit=200)
    den, _ = quad(lambda th: np.cos(th) ** 2, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)
    return num / den


#: bin ends as fractions of the radius, with bins touching either edge
_BIN_END = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0]))
_SIGN = st.sampled_from([-1.0, 1.0])


def _bin(frac_a, frac_c, radius):
    a, c = sorted((frac_a * radius, frac_c * radius))
    assume(c - a > 1e-3 * radius)
    return a, c


@settings(max_examples=80)
@given(q=st.floats(0.02, 0.98), t=st.floats(0.1, 3.0), sign=_SIGN,
       mu_frac=st.one_of(st.floats(0.0, 0.999),
                         st.sampled_from([1 - 1e-8, 1 - 1e-6, 1 - 1e-4,   # Im r -> 0
                                          1 + 1e-8, 1 + 1e-6, 1.05, 1.3, 2.0])),  # real poles
       frac_a=_BIN_END, frac_c=_BIN_END)
def test_goe_bin_average_matches_quadrature(q, t, sign, mu_frac, frac_a, frac_c):
    # lambda bins of the bulk GOE theory, at a realized mu inside the minor bulk
    # (complex poles) or outside it (real poles, at or beyond 2 sqrt(t))
    mu = sign * mu_frac * 2.0 * np.sqrt(q * t)
    a, c = _bin(frac_a, frac_c, 2.0 * np.sqrt(t))
    r1, r2 = _goe_kernel_poles(mu, q, t, q)
    # a real pole within 1e-3 of +-R leaves the reference quad a near-singular edge
    assume(r1.imag != 0 or min(abs(abs(r.real) - 2.0 * np.sqrt(t)) for r in (r1, r2)) > 1e-3)
    got = _binned_semicircle_average(np.array([a, c]), t, (1 - q) * t / q, r1, r2)[0][0]
    want = _quad_bin_average(lambda lam: kernel_goe_value(mu, lam, t, q), a, c, t)
    assert got == pytest.approx(want, rel=1e-10)


@settings(max_examples=80)
@given(q=st.floats(0.02, 0.98), t=st.floats(0.05, 2.0), sign=_SIGN,
       lam_frac=st.one_of(st.floats(0.0, 0.999), st.sampled_from([1 - 1e-8, 1 - 1e-6])),
       frac_a=_BIN_END, frac_c=_BIN_END)
def test_bernoulli_window_bin_average_matches_quadrature(q, t, sign, lam_frac, frac_a, frac_c):
    # mu bins of the Bernoulli bulk theory, at one lambda node of its window
    lam = sign * lam_frac * 2.0 * np.sqrt(t)
    a, c = _bin(frac_a, frac_c, 2.0 * np.sqrt(q * t))
    r1, r2 = _goe_kernel_poles(lam, 1.0, t, q)
    got = _binned_semicircle_average(np.array([a, c]), q * t, (1 - q) * t, r1, r2)[0][0]
    want = _quad_bin_average(lambda mu: kernel_goe_value(mu, lam, t, q), a, c, q * t)
    assert got == pytest.approx(want, rel=1e-10)


@settings(max_examples=80)
@given(q=st.floats(0.05, 0.999), t=st.floats(0.1, 3.0), sign=_SIGN,
       excess=st.one_of(st.floats(1e-3, 3.0), st.sampled_from([1e-8, 1e-6, 1e-4])),
       frac_a=_BIN_END, frac_c=_BIN_END)
def test_spike_bulk_bin_average_matches_quadrature(q, t, sign, excess, frac_a, frac_c):
    # mu bins of the spike-bulk theory: a real double pole at r0 = (s^2 + qt)/s,
    # which nears the minor edge 2 sqrt(qt) as q -> 1 and s^2 -> t
    spike = sign * np.sqrt(t) * (1.0 + excess)
    a, c = _bin(frac_a, frac_c, 2.0 * np.sqrt(q * t))
    r0 = (spike * spike + q * t) / spike
    got = _binned_semicircle_average(np.array([a, c]), q * t,
                                     t * (spike * spike - q * t) / spike ** 2, r0, r0)[0][0]
    want = _quad_bin_average(lambda mu: spike_bulk_overlap(spike, q, t, mu), a, c, q * t)
    assert got == pytest.approx(want, rel=1e-10)


def test_goe_bin_average_refuses_a_pole_on_the_support():
    # at mu = (1+q) sqrt(t) the real pole ((1+q) mu - (1-q) sqrt(mu^2 - 4qt)) / (2q)
    # lands on 2 sqrt(t), where the kernel's denominator vanishes
    q, t = 0.5, 1.0
    r1, r2 = _goe_kernel_poles((1 + q) * np.sqrt(t), q, t, q)
    assert r2 == 2.0 * np.sqrt(t)
    with pytest.raises(DomainError):
        _binned_semicircle_average(np.linspace(-1.9, 1.9, 5), t, (1 - q) * t / q, r1, r2)


def test_bin_averages_and_mean_densities_over_many_bins():
    q, t, mu = 0.9, 1.0, 0.3
    edges = np.linspace(-1.9, 1.9, 26)
    theory, rho_bar = _binned_semicircle_average(edges, t, (1 - q) * t / q,
                                                 *_goe_kernel_poles(mu, q, t, q))
    for b, (a, c) in enumerate(zip(edges[:-1], edges[1:])):
        assert theory[b] == pytest.approx(
            _quad_bin_average(lambda lam: kernel_goe_value(mu, lam, t, q), a, c, t), rel=1e-10)
        mass, _ = quad(lambda lam: semicircle_density(lam, t), a, c, epsabs=0.0, epsrel=1e-12)
        assert rho_bar[b] == pytest.approx(mass / (c - a), rel=1e-10)


def test_zero_mass_bin_gets_nan_theory_and_no_density():
    # [2.5, 3.0] lies beyond the t = 1 support: no mass to average over
    edges = np.array([1.5, 2.5, 3.0])
    theory, rho_bar = _binned_semicircle_average(edges, 1.0, 0.5,
                                                 *_goe_kernel_poles(0.1, 0.5, 1.0, 0.5))
    assert np.isfinite(theory[0]) and rho_bar[0] > 0
    assert np.isnan(theory[1]) and rho_bar[1] == 0.0
    report = run_bulk_experiment(_small_bulk_config(bins=2, bin_range=(1.5, 3.0)))
    assert np.isnan(report.theory[1])
    assert report.extras["rho_bin"][1] == 0.0


def test_bin_means_match_a_loop_over_bins_and_drop_outside_positions():
    rng = np.random.default_rng(9)
    edges = np.linspace(-1.0, 1.0, 9)
    positions = np.concatenate([rng.uniform(-1.5, 0.5, 200), edges[[0, 4, -1]]])
    values = rng.normal(size=positions.size)
    means, counts = _bin_means(values, positions, edges)
    for b, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        sel = (positions >= lo) & (positions < hi)
        assert counts[b] == sel.sum()
        if sel.any():
            assert means[b] == pytest.approx(values[sel].mean(), rel=1e-13)
        else:
            assert np.isnan(means[b])
    assert counts.sum() < positions.size  # the top edge and beyond are dropped
    assert np.isnan(means[-1]) and counts[-1] == 0


#: ``_binned_general_theory`` on the ``bulk-model`` benchmark configuration
#: (atoms at -1 and +1, N = 200, q = 0.5, t = 1, 25 bins) at the seed-1
#: realized mu_hat, recorded from the scalar solver this batched path replaced
_PINNED_MU_HAT = 0.2148973554626798
_PINNED_THEORY = np.array([
    0.1024233311385435, 0.11676024263679938, 0.13461520509232008, 0.1570762533360925,
    0.18587019868723442, 0.22368501087786452, 0.2748817814005373, 0.34697708190415444,
    0.45404305847275955, 0.6257585305836902, 0.9378565795686323, 1.6723127746763262,
    8.646590017858543, 7.718164355181148, 3.4066703372447, 1.8397133989531462,
    1.1426802481745806, 0.7771278312494223, 0.5624984619402731, 0.42596202085809115,
    0.33378805767837705, 0.26866059578078755, 0.2209651103569003, 0.18504093666352,
    0.1575023684077118,
])
_PINNED_RHO_BAR = np.array([
    0.12710090636706536, 0.16820996188154175, 0.1956508546663573, 0.21483289472140515,
    0.2278223678969114, 0.23557697656700816, 0.23850165337774373, 0.23661223120969715,
    0.2295213782747987, 0.2162236008729994, 0.19434652036464783, 0.15661991398950884,
    0.07910445736342618, 0.15661991398950884, 0.19434652036464783, 0.21622360087299936,
    0.22952137827479874, 0.23661223120969718, 0.23850165337774376, 0.23557697656700816,
    0.2278223678969114, 0.21483289472140515, 0.19565085466635726, 0.16820996188154175,
    0.1271009063670653,
])


def test_general_theory_on_the_bulk_model_configuration_is_pinned():
    model = SpectrumModel(atoms=((-1.0, 0.5), (1.0, 0.5)))
    q, t = 0.5, 1.0
    s0 = FiniteInitialTransform.from_diagonal(representative_diagonal(model, 200, 100), 100)
    full, minor = s0.full_model, s0.minor_model
    full_ev = lambda z: solve_stieltjes(full, z, t)
    lo, hi = _scan_general_support(full_ev, full, t)
    assert (lo, hi) == (-2.598076080903412, 2.598076080903412)
    margin = 0.025 * (hi - lo)
    theory, rho_bar, refused = _binned_general_theory(
        s0, _PINNED_MU_HAT, t, q, full_ev, lambda z: solve_minor_stieltjes(minor, z, t, q),
        np.linspace(lo + margin, hi - margin, 26))
    assert refused == 0
    np.testing.assert_allclose(theory, _PINNED_THEORY, rtol=1e-10, atol=0)
    np.testing.assert_allclose(rho_bar, _PINNED_RHO_BAR, rtol=1e-10, atol=0)


def test_miss_tail_probability_is_the_binomial_tail():
    assert miss_tail_probability(0, 19) == pytest.approx(1.0, rel=1e-15)
    assert miss_tail_probability(1, 19) == pytest.approx(1 - 0.99 ** 19, rel=1e-13)
    assert miss_tail_probability(3, 3) == pytest.approx(1e-6, rel=1e-13)
    assert miss_tail_probability(0, 0) == 1.0
    for judged in (1, 7, 19, 40):
        for k in range(judged + 1):
            assert miss_tail_probability(k, judged) == pytest.approx(
                binom.sf(k - 1, judged, 0.01), rel=1e-10, abs=1e-300)


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
    # a bin gets NaN theory only when at least four of its five nodes are refused
    assert report.extras["refused_nodes"] >= 4 * np.isnan(theory).sum()
    # support scan found the symmetric edges of the evolved density
    edges = report.extras["bin_edges"]
    assert edges[0] == pytest.approx(-edges[-1], abs=1e-4)
    assert 2.2 < edges[-1] < 2.7


_NON_DIAGONAL_THEORY = [
    0.3738650082651934, 0.5665768048118075, 0.9288183635330318, 1.559401873728523,
    2.0739537946865383, 1.637182350468854, 1.0357415405313017, 0.6482648163101149,
    0.43170730041107913,
]


def test_bulk_run_on_a_non_diagonal_matrix():
    # A = O diag(+-1) O^T takes the initial transform's eigendecomposition and
    # overlap grid, which no CLI run reaches: its models come from eigenvalues
    n_dim = 40
    rng = np.random.default_rng(3)
    o, _ = np.linalg.qr(rng.standard_normal((n_dim, n_dim)))
    a = (o * np.where(np.arange(n_dim) % 2 == 0, 1.0, -1.0)) @ o.T
    config = _small_bulk_config(n_dim=n_dim, trials=100, bins=9, master_seed=3,
                                a_spec=ASpec(kind="explicit", matrix=0.5 * (a + a.T)))
    csvs = []
    for threads in (1, 2):
        report = run_bulk_experiment(dataclasses.replace(config, threads=threads))
        csvs.append(bulk_report_csv(report))
    np.testing.assert_allclose(report.theory, _NON_DIAGONAL_THEORY, rtol=1e-12, atol=0)
    assert report.extras["refused_nodes"] == 0 and report.coverage == 1.0
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("mu_hat, refused", [(0.2, 0), (5.0, 5 * 6)])
def test_general_theory_computes_each_boundary_value_once(mu_hat, refused):
    q, t, bins = 0.5, 1.0, 6
    calls = {"full": 0, "minor": 0}
    points = {"full": 0, "minor": 0}

    def counting(key, t_eff):
        def evaluator(z):
            calls[key] += 1
            points[key] += np.size(z)
            return semicircle_stieltjes(z, t_eff)
        return evaluator

    s0 = FiniteInitialTransform.from_diagonal(np.zeros(2), 1)  # A = 0 at n/N = q: q/(z zt)
    theory, rho_bar, got_refused = _binned_general_theory(
        s0, mu_hat, t, q, counting("full", t), counting("minor", q * t),
        np.linspace(-1.8, 1.8, bins + 1))
    # one Richardson pair at mu_hat, one per Gauss node on the full side, all
    # in one evaluator call per side
    assert points == {"full": 2 * 5 * bins, "minor": 2}
    assert calls == {"full": 1, "minor": 1}
    assert got_refused == refused
    assert np.all(rho_bar > 0)
    # a refused minor point refuses every node: all theory is NaN
    assert np.all(np.isnan(theory)) == (refused > 0)


def test_general_kernel_is_positive_where_accepted():
    rng = np.random.default_rng(5)
    q, n0 = 0.5, 200
    accepted = []
    for _ in range(30):
        k = int(rng.integers(1, 5))
        weights = rng.uniform(0.2, 1.0, k)
        model = SpectrumModel(atoms=tuple(zip(rng.uniform(-2.0, 2.0, k),
                                              weights / weights.sum())))
        t = rng.uniform(0.2, 1.5)
        s0 = FiniteInitialTransform.from_diagonal(representative_diagonal(model, n0, n0 // 2),
                                                  n0 // 2)
        minor = s0.minor_model
        # an initial atom of the minor sits inside its evolved bulk
        mu = minor.atoms[int(rng.integers(len(minor.atoms)))][0]
        minor_b = boundary_values(lambda z: solve_minor_stieltjes(minor, z, t, q), mu)
        if minor_b.edge_flagged:
            continue
        span = max(abs(a) for a, _ in model.atoms) + 2.0 * np.sqrt(t)
        full_b = boundary_values(lambda z: solve_stieltjes(model, z, t),
                                 np.linspace(-span, span, 7))
        w = overlap_kernel(s0, minor_b, full_b, t, q)
        accepted.extend(w[~np.isnan(w)])
    assert len(accepted) >= 60
    assert min(accepted) > 0


# ---------------------------------------------------------------------------
# BLAS thread limit of the trial pool
# ---------------------------------------------------------------------------

@pytest.fixture
def blas_threads():
    """OpenBLAS (getter, setter), with the caller's count set to 2 and restored after."""
    lib = spectral._openblas()
    if lib is None:
        pytest.skip("numpy's bundled OpenBLAS is not available")
    blas = get_threads, set_threads = (lib.scipy_openblas_get_num_threads64_,
                                       lib.scipy_openblas_set_num_threads64_)
    before = get_threads()
    set_threads(2)
    yield blas
    set_threads(before)


@pytest.mark.parametrize("threads", [0, 1, 3])
def test_trials_run_with_one_blas_thread_and_restore(blas_threads, threads):
    get_threads, _ = blas_threads
    (blas,), run = _run_trials(8, threads, lambda m: (get_threads(),))
    assert blas.tolist() == [1] * 8
    assert run == {"aborted_trials": 0, "absorbed_trials": 0,
                   "pool_threads": threads or len(os.sched_getaffinity(0)),
                   "trial_blas_threads": 1}
    assert get_threads() == 2


@pytest.mark.parametrize("threads", [1, 3])
def test_kept_trials_fill_their_columns_in_trial_order(threads):
    def worker(m):
        if m == 3:
            raise NumericError("forced")
        time.sleep(0.001 * (-m % 3))  # later trials may finish first
        return None if m % 4 == 1 else (m, np.full(2, m))

    (index, pairs), run = _run_trials(200, threads, worker)
    kept = [m for m in range(200) if m != 3 and m % 4 != 1]
    assert index.tolist() == kept and pairs.tolist() == [[m, m] for m in kept]
    assert (run["aborted_trials"], run["absorbed_trials"]) == (1, 50)


@pytest.mark.parametrize("threads", [-1, -5])
def test_pool_map_refuses_negative_threads(threads):
    def never(m):
        raise AssertionError("fn ran")

    with pytest.raises(ValueError, match=f"threads must be >= 0, got {threads}"):
        _pool_map(threads, never, range(3))


def test_pool_map_refuses_more_threads_than_its_bound_before_any_starts(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the pool started")

    limit = montecarlo.max_threads()
    assert limit == montecarlo.MAX_THREADS_PER_CPU * len(os.sched_getaffinity(0))
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", never)
    with pytest.raises(ValueError, match=f"threads must be at most {limit} "
                                         r"\(4 per available core\), got "
                                         f"{limit + 1}$"):
        _pool_map(limit + 1, never, range(3))


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_pool_map_reads_items_in_the_caller_in_order(threads):
    caller, count = threading.get_ident(), 40
    read, ahead, consumed = [], [], []

    def items():
        for m in range(count):
            read.append((threading.get_ident(), m))
            ahead.append(m + 1 - len(consumed))  # items read beyond the results consumed
            yield m

    def fn(m):
        time.sleep(0.002 * (-m % 3))  # later items may finish first
        return m * m

    results, used = _pool_map(threads, fn, items())
    for result in results:
        consumed.append(result)
    assert used["pool_threads"] == threads
    assert read == [(caller, m) for m in range(count)]
    assert max(ahead) <= 2 * threads + 1
    assert consumed == [m * m for m in range(count)]


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
    frozen, steps = [], []
    eigh = np.linalg.eigh
    make_solver = probes.eigpair_at

    def recording_eigh(a):
        frozen.append(get_threads())
        return eigh(a)

    def recording_solver(size):
        solve = make_solver(size)

        def recorded(a, desc):
            steps.append(get_threads())
            return solve(a, desc)
        return recorded

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(probes, "eigpair_at", recording_solver)
    drift_probe(20, 10, 1.0, trials=1000, seed=3)
    # the whole probe holds one thread: the frozen state is decomposed
    # first, then each increment's full and minor solve
    assert frozen[:2] == [1, 1]
    assert set(frozen[2:]) <= {1}  # the solver's eigh, where dsyevr is out of reach
    assert len(steps) == 2 * 1000 and set(steps) == {1}
    assert get_threads() == 2


def _two_atom_bulk_config(n_dim, seed=1, trials=100):
    """The benchmark's ``simulate --model`` run: atoms at -1 and +1, q = 0.5, t = 1, 25 bins."""
    model = SpectrumModel(atoms=((-1.0, 0.5), (1.0, 0.5)), q=0.5)
    matrix = np.diag(representative_diagonal(model, n_dim, n_dim // 2))
    return ExperimentConfig(n_dim=n_dim, q=0.5, t=1.0, trials=trials, master_seed=seed,
                            x=0.5, a_spec=ASpec(kind="explicit", matrix=matrix), bins=25)


def test_bulk_model_run_holds_one_blas_thread_from_set_up_to_trials(blas_threads, monkeypatch):
    get_threads, _ = blas_threads
    seen = {"set-up": [], "solve": [], "trial": []}

    def recording(stage, fn):
        def recorded(*args):
            seen[stage].append(get_threads())
            return fn(*args)
        return recorded

    monkeypatch.setattr(FiniteInitialTransform, "from_matrix",
                        staticmethod(recording("set-up", FiniteInitialTransform.from_matrix)))
    for name in ("solve_stieltjes", "solve_minor_stieltjes"):
        monkeypatch.setattr(montecarlo, name, recording("solve", getattr(montecarlo, name)))
    for name in ("_reduce_in_place", "_carry_in_place"):
        monkeypatch.setattr(montecarlo, name, recording("trial", getattr(spectral, name)))
    report = run_bulk_experiment(dataclasses.replace(_two_atom_bulk_config(40), threads=2))
    assert seen["set-up"] == [1]
    # the density grid, the support scan's bracket check and its 29 bisection
    # steps in 6 batches, and one boundary-value call per side of the kernel
    assert len(seen["solve"]) == 1 + 1 + 6 + 2 and set(seen["solve"]) == {1}
    assert seen["trial"] == [1] * 200
    assert report.extras["trial_blas_threads"] == 1
    assert get_threads() == 2


def test_runs_without_the_library_hold_no_blas_count(blas_threads, monkeypatch):
    # without numpy's OpenBLAS bound, every decomposition is eigh's at the caller's count
    get_threads, _ = blas_threads
    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(a):
        seen.append(get_threads())
        return eigh(a)

    monkeypatch.setattr(spectral, "_openblas", lambda: None)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    bulk = run_bulk_experiment(_small_bulk_config(n_dim=20, threads=2))
    drift = drift_probe(20, 10, 1.0, trials=1000, seed=3)
    assert len(seen) == 2 * 100 + 2 + 2 * 1000 and set(seen) == {2}
    assert bulk.extras["trial_blas_threads"] is drift.extras["trial_blas_threads"] is None
    assert get_threads() == 2


def test_bulk_model_csv_does_not_depend_on_the_callers_blas_count(blas_threads):
    _, set_threads = blas_threads
    config = _two_atom_bulk_config(200, seed=5)
    outputs = []
    for count in (1, 2):
        set_threads(count)
        outputs.append(bulk_report_csv(run_bulk_experiment(config)))
    assert outputs[0] == outputs[1]


def test_bulk_model_theory_keeps_the_support_and_skips_the_long_continuation(monkeypatch):
    # the benchmark's seed-1 bulk-model run; its edges were recorded before the
    # solver took the short continuation first
    edges, steps = [], []
    scan, continuation = montecarlo._scan_general_support, freeprob._continuation

    def recording_scan(*args):
        edges.append(scan(*args))
        return edges[-1]

    def recording_continuation(model, z, t_shift, n_steps):
        steps.append((n_steps, z.size))
        return continuation(model, z, t_shift, n_steps)

    monkeypatch.setattr(montecarlo, "_scan_general_support", recording_scan)
    monkeypatch.setattr(freeprob, "_continuation", recording_continuation)
    run_bulk_experiment(_two_atom_bulk_config(200, seed=1))
    assert edges == [(-2.598076080903412, 2.598076080903412)]
    assert steps and {n for n, _ in steps} == {3}


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


def test_correlation_probe_shares_the_size_cap():
    # its normals are (chunk, N(N+1)/2): memory grows as N^2
    with pytest.raises(InputError, match=r"^n_dim must be in \[4, 100\], got 101$"):
        correlation_probe(101, 50, 1.0, samples=10_000, seed=0)


def test_trial_estimate_is_the_normal_interval_over_trials():
    values = np.array([0.3, np.nan, 0.5, 0.1, 0.4])
    est = _trial_estimate(2.0, values, "top_overlap")
    kept = values[~np.isnan(values)]
    half = Z_99 * kept.std(ddof=1) / np.sqrt(kept.size)
    assert (est.center, est.kind, est.n_samples) == (2.0, "top_overlap", 4)
    assert est.mean == kept.mean()
    assert (est.ci_low, est.ci_high) == (kept.mean() - half, kept.mean() + half)
    assert _trial_estimate(0.5, values, n_samples=37).n_samples == 37
    for few in ([], [0.2], [np.nan, 0.2, np.nan]):
        empty = _trial_estimate(1.0, few, n_samples=5)
        assert (empty.mean, empty.ci_low, empty.ci_high, empty.n_samples) == (None, None, None, 5)


def test_coverage_judges_rows_with_estimate_finite_theory_and_mask():
    rows = [_trial_estimate(c, [c - 0.1, c + 0.1, c]) for c in range(5)]
    rows.append(_trial_estimate(5, [1.0]))                 # no estimate: not judged
    theory = [0.0, 1.0, 5.0, np.nan, 4.0, 5.0]             # row 2 misses, row 3 has no theory
    assert _coverage(rows, theory) == (0.75, (1, 4))
    mask = [True, False, True, True, False, True]
    assert _coverage(rows, theory, mask) == (0.5, (1, 2))
    assert _coverage(rows, theory, [False] * 6) == (None, (0, 0))


def _drift_fields(report):
    return [(e.center, e.kind, e.mean, e.ci_low, e.ci_high, e.n_samples)
            for e in report.estimates]


def _drift_workers(threads):
    """Run the drift probe's blocks on ``threads`` pool workers (0 = one per core)."""
    pool_map = probes._pool_map
    return mock.patch.object(probes, "_pool_map",
                             lambda _, fn, items: pool_map(threads, fn, items))


@settings(max_examples=6)
@given(seed=st.integers(0, 2**32 - 1), n_dim=st.integers(8, 24),
       frac=st.floats(0.2, 0.8), trials=st.integers(1000, 2000))
def test_drift_probes_are_thread_independent(seed, n_dim, frac, trials):
    n = min(max(int(frac * n_dim), 3), n_dim - 1)
    runs = []
    for k in (1, 2, 0):
        with _drift_workers(k):
            runs.append(drift_probe(n_dim, n, 1.0, trials=trials, seed=seed))
    assert _drift_fields(runs[1]) == _drift_fields(runs[0])
    assert _drift_fields(runs[2]) == _drift_fields(runs[0])
    assert [r.extras["pool_threads"] for r in runs] == [1, 2, len(os.sched_getaffinity(0))]


def test_drift_probe_reproduces_pinned_benchmark_values():
    # the benchmark's probe-drift run at seed 1, recorded with dsyevr stepping
    # the increments and each block of 10 reducing its own sums; only the
    # drift row reads the stepped overlaps
    report = drift_probe(60, 30, 1.0, dt=1e-4, trials=5000, seed=1)
    fields = _drift_fields(report)
    if report.extras["stepper"] == "dsyevr":
        assert fields[0] == (0.0, "drift", -12.252508308239635, -14.908741892937933,
                             -9.596274723541338, 5000)
    # recorded when each increment was a full batched eigh (measured 3.6e-14 apart)
    np.testing.assert_allclose(fields[0][2:5], (-12.252508308240067, -14.90874189293837,
                                                -9.596274723541764), rtol=1e-12, atol=0)
    assert fields[1:] == [
        (1.0, "martingale_full", -0.673116840677619, -2.7547217585637704, 1.4084880772085326,
         5000),
        (2.0, "martingale_minor", -1.6217195148416748, -3.2406433134179657,
         -0.002795716265383552, 5000),
    ]
    assert report.theory == (-9.91870755099672, 0.0, 0.0)
    assert report.extras["pair"] == (15, 34)


def test_drift_probes_reproduce_a_case_across_block_and_group_boundaries():
    # recorded when each pool task reduced its own block of 10 increments;
    # 1234 ends in a short block of 4
    report = drift_probe(24, 10, 1.0, trials=1234, seed=3)
    if report.extras["stepper"] == "dsyevr":
        assert _drift_fields(report)[0] == (0.0, "drift", -4.355617182542218,
                                            -11.907728665742692, 3.196494300658255, 1234)
    assert _drift_fields(report)[1:] == [
        (1.0, "martingale_full", -0.6104937686288662, -3.872379233826341, 2.6513916965686084,
         1234),
        (2.0, "martingale_minor", 0.5404326123697712, -6.102742325144152, 7.1836075498836935,
         1234),
    ]
    assert report.theory == (-4.124128921692691, 0.0, 0.0)
    assert report.extras["pair"] == (6, 13)


def test_correlation_probe_reproduces_a_case_across_a_short_batch():
    # recorded with each quadruple's products summed as one contiguous 1-D
    # array; 12,345 samples end in a short batch of 345
    report = correlation_probe(12, 6, 1.0, samples=12_345, seed=7)
    fields = _drift_fields(report)
    assert [fields[k] for k in (0, 13, 40, 67, 80)] == [
        (0.0, "correlation", 0.0678683733335046, 0.0637415650983032, 0.07199518156870599,
         12345),
        (13.0, "correlation", -0.0035852282567711198, -0.006326294828731862,
         -0.0008441616848103772, 12345),
        (40.0, "correlation", 0.0031816705309596987, -0.0006666145245150675,
         0.007029955586434464, 12345),
        (67.0, "correlation", -0.0012267341318901348, -0.004014659532266495,
         0.0015611912684862258, 12345),
        (80.0, "correlation", 0.0009292563417199549, -0.00290517746973075,
         0.00476369015317066, 12345),
    ]
    assert [report.theory[k] for k in (0, 13, 40, 67, 80)] == [
        0.06683515134644588, -0.005788251474472976, 0.0018048194935001043,
        -0.001500473626757381, 0.0007899986882983345]
    assert report.coverage == 1.0


def _traced_peak(fn, *args, **kwargs):
    """Peak bytes ``fn`` allocates, numpy buffers included, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_results_grow_by_one_row_of_columns_per_trial():
    # a kept trial fills one row of four columns: 12 bin means, 12 bin counts,
    # its minor eigenvalue and its row-sum error, 8 (2 bins + 2) bytes
    bins = 12
    peaks = {trials: _traced_peak(run_bulk_experiment,
                                  _small_bulk_config(n_dim=20, bins=bins, trials=trials))
             for trials in (100, 1000)}
    assert peaks[1000] - peaks[100] < 1.25 * 8 * (2 * bins + 2) * 900, peaks


#: a runner whose full side holds every eigenvector, and one whose minor does, at
#: N = 300 on one worker
_BUFFERED_RUNS = {
    "bulk": (run_bulk_experiment, _small_bulk_config(n_dim=300, bins=12)),
    "spike-bulk": (run_spike_bulk, ExperimentConfig(
        n_dim=300, q=0.7, t=1.0, trials=100, master_seed=11, target="spike_bulk", bins=12,
        a_spec=ASpec(kind="tail_spike", spike=3.0), threads=1)),
}


def _traced_trials(monkeypatch, name):
    """Run ``name`` under tracemalloc; ``(peak of its trials, per-trial peaks)`` in bytes.

    The first is the peak above what was allocated when the trials began; each
    of the second is one trial's peak above what was allocated at its start.
    """
    runner, config = _BUFFERED_RUNS[name]
    trials, marks = montecarlo._run_trials, []

    def traced_trials(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = trials(*args)
        marks.append(tracemalloc.get_traced_memory()[1] - start)
        return result

    def marking_stream(*args):
        # each trial starts here, in its worker: close the last trial's window
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return derive_stream(*args)

    monkeypatch.setattr(montecarlo, "_run_trials", traced_trials)
    monkeypatch.setattr(montecarlo, "derive_stream", marking_stream)
    tracemalloc.start()
    try:
        runner(config)
    finally:
        tracemalloc.stop()
    *starts, peak = marks
    return peak, [starts[m + 1][1] - starts[m][0] for m in range(len(starts) - 1)]


@pytest.mark.parametrize("name", ["bulk", "spike-bulk"])
def test_trials_peak_near_two_matrices_per_worker(monkeypatch, name):
    # the worker's two reused buffers hold 2 N^2 + 9 N + 4 floats, and the rest
    # (a trial's O(N) temporaries, numpy's ufunc buffers, the kept results)
    # fits in 256 kB, about 0.36 N^2 floats at N = 300; a trial that allocated
    # its sample, block, S and dstedc's workspace anew peaked near 3.25 N^2
    n_dim = _BUFFERED_RUNS[name][1].n_dim
    peak, _ = _traced_trials(monkeypatch, name)
    assert peak < 2 * 8 * n_dim * n_dim + 2**18, peak / (8 * n_dim * n_dim)


@pytest.mark.parametrize("name", list(_BUFFERED_RUNS))
def test_trials_after_a_workers_first_allocate_nothing_minor_sized(monkeypatch, name):
    # the worker makes its buffers before its first trial's stream is derived
    n = _BUFFERED_RUNS[name][1].n
    _, per_trial = _traced_trials(monkeypatch, name)
    assert len(per_trial) == 99
    assert max(per_trial) < 8 * n * n, max(per_trial) / (8 * n * n)


def test_goe_sampler_adds_a_diagonal_a_on_the_diagonal_alone():
    n_dim, seed = 30, derive_stream(3, 1)
    diagonal = np.diag(np.linspace(-1.0, 1.0, n_dim))
    dense = diagonal + 0.01
    for a_mat in (diagonal, dense):
        out = (np.empty((n_dim, n_dim)), np.empty((n_dim, n_dim)))
        drawn = montecarlo._goe_sampler(n_dim, 0.5, a_mat)(seed, out)
        assert drawn is out[1]
        assert np.array_equal(drawn, a_mat + sample_goe(n_dim, 0.5, seed))
    # a dense add would turn every -0.0 off the diagonal into +0.0
    negative_zeros = np.full((n_dim, n_dim), -0.0)
    with mock.patch.object(montecarlo, "sample_goe", lambda *args: negative_zeros):
        montecarlo._goe_sampler(n_dim, 0.5, diagonal)(seed, None)
    assert np.array_equal(negative_zeros, diagonal)
    assert np.signbit(negative_zeros[~np.eye(n_dim, dtype=bool)]).all()


def test_spike_path_memory_does_not_grow_with_steps():
    # the path is drawn one step at a time: 600 steps hold what 60 do, where
    # keeping every step's 100x100 matrix would add 43 MB
    n_dim = 100
    peaks = {steps: _traced_peak(spike_path_series, n_dim, 0.5, 1.0, t_max=1.2, steps=steps,
                                 master_seed=7)
             for steps in (60, 600)}
    # the series' five float arrays grow by 540 entries each
    assert peaks[600] < peaks[60] + 5 * 540 * 8 + 2**12, peaks
    assert peaks[600] < 10 * n_dim * n_dim * 8, peaks


@pytest.mark.parametrize("workers", [2, 8])
def test_drift_probe_memory_does_not_grow_with_trials(workers):
    # each worker draws into its own one block and reduces it; the pool's
    # read-ahead holds block descriptors and six sums, not blocks.  At N = 40
    # a worker's block, stepped matrices, solver workspace and products stay
    # under two blocks
    n_dim, n = 40, 17
    block = probes._BLOCK * n_dim * n_dim * 8            # one block of increments
    budget = 2 * workers * block + 2**19
    with _drift_workers(workers):
        peaks = {trials: _traced_peak(drift_probe, n_dim, n, 1.0, trials=trials, seed=5)
                 for trials in (2000, 8000)}
    assert max(peaks.values()) < budget, peaks
    # the blocks in flight vary with timing; the rows of 6000 more
    # increments would add 2.8 MB
    assert peaks[8000] < peaks[2000] + workers * block, peaks


def test_correlation_probe_holds_one_batch_of_draws():
    # each batch is drawn into the previous one's buffer: two live batches
    # would peak at 2 x 29 MB
    n_dim = 60
    batch = probes._CHUNK * (n_dim * (n_dim + 1) // 2) * 8
    peak = _traced_peak(correlation_probe, n_dim, 30, 1.0, samples=10_000, seed=1)
    assert peak < 1.5 * batch, (peak, batch)


@settings(max_examples=8)
@given(seed=st.integers(0, 2**32 - 1), n_dim=st.integers(4, 24), frac=st.floats(0.2, 0.8))
def test_drift_probe_eigh_fallback_agrees_with_dsyevr(seed, n_dim, frac):
    n = min(max(int(frac * n_dim), 3), n_dim - 1)
    if eigpair_backend() != "dsyevr":
        pytest.skip("numpy's OpenBLAS does not export dsyevr")
    lapack = drift_probe(n_dim, n, 1.0, trials=1000, seed=seed)
    with mock.patch.object(spectral, "_openblas", lambda: None):
        fallback = drift_probe(n_dim, n, 1.0, trials=1000, seed=seed)
    assert (lapack.extras["stepper"], fallback.extras["stepper"]) == ("dsyevr", "eigh")
    for new, old in zip(_drift_fields(lapack), _drift_fields(fallback)):
        assert new[:2] == old[:2] and new[5] == old[5]
        # to 1e-12 of the row's scale, its larger interval end: a mean near zero
        # is the sum of much larger per-draw terms, and carries their rounding
        scale = max(abs(old[3]), abs(old[4]))
        assert np.abs(np.subtract(new[2:5], old[2:5])).max() <= 1e-12 * scale
    assert lapack.theory == fallback.theory


def test_drift_blocks_keep_draw_order_when_a_worker_lags(monkeypatch):
    with _drift_workers(1):
        serial = drift_probe(20, 10, 1.0, trials=2000, seed=5)
    pool_map = probes._pool_map

    def first_task_sleeps(_, fn, items):
        def run(item):
            m, block = item
            if m == 0:
                time.sleep(0.2)
            return fn(block)

        return pool_map(2, run, enumerate(items))

    monkeypatch.setattr(probes, "_pool_map", first_task_sleeps)
    lagged = drift_probe(20, 10, 1.0, trials=2000, seed=5)
    assert _drift_fields(lagged) == _drift_fields(serial)


def test_drift_draws_hold_with_more_workers_than_cores_and_fast_switching():
    with _drift_workers(1):
        serial = drift_probe(16, 8, 1.0, trials=3000, seed=11)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _drift_workers(8):
            crowded = drift_probe(16, 8, 1.0, trials=3000, seed=11)
    finally:
        sys.setswitchinterval(interval)
    assert crowded.extras["pool_threads"] == 8
    assert _drift_fields(crowded) == _drift_fields(serial)


_FIRST_SOLVER_FAILS = """
from unittest import mock
from minor_overlaps import probes
from minor_overlaps.errors import InputError, NumericError
eigpair_at, pool_map, made = probes.eigpair_at, probes._pool_map, []

def first_fails(size):
    made.append(size)
    if len(made) == 1:
        raise NumericError("first solver refused")
    return eigpair_at(size)

with mock.patch.object(probes, "eigpair_at", first_fails), mock.patch.object(
        probes, "_pool_map", lambda _, fn, items: pool_map({workers}, fn, items)):
    try:
        probes.drift_probe(20, 10, 1.0, trials=2000, seed=5)
    except NumericError as exc:
        print("raised:", exc)
"""


@pytest.mark.parametrize("workers", [2, 8])
def test_a_failing_drift_task_raises_and_passes_its_turn_on(workers):
    # block 0's task fails before it draws; the later blocks wait on its turn,
    # so a turn it kept would hang the probe: the run sits in its own
    # interpreter and a hang fails the test after 60 s
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _FIRST_SOLVER_FAILS.format(workers=workers)],
                         env=env, capture_output=True, text=True, check=True, timeout=60).stdout
    assert out == "raised: first solver refused\n"


# ---------------------------------------------------------------------------
# names the benchmark hooks
# ---------------------------------------------------------------------------

def test_names_the_benchmark_hooks_still_exist():
    """The module-level names ``perfbench/`` wraps are still there to wrap.

    ``perfbench/child.py`` wraps the two runners it times, so every benchmark
    run fails without them; ``perfbench/tracer.py`` skips a name it cannot
    find, so its layer would read 0 with no error.  The test goes when the
    tracer goes and the benchmark reads the run's own diagnostics instead
    (ROADMAP.md, item 1b).
    """
    hooked = {
        montecarlo: ("derive_stream", "sample_goe", "check_interlacing", "_bin_means",
                     "_run_trials", "run_bulk_experiment", "solve_stieltjes",
                     "solve_minor_stieltjes", "boundary_values", "scan_support_edge",
                     "overlap_kernel"),
        overlaps_theory: ("eig_sym",),
        probes: ("sample_goe", "eig_sym", "drift_probe"),
        freeprob: ("stieltjes_atomic",),
    }
    missing = [f"{module.__name__}.{name}" for module, names in hooked.items()
               for name in names if not callable(getattr(module, name, None))]
    assert missing == []
