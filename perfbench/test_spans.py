"""Self-time and trial-span arithmetic on a synthetic span set.

Run with ``python3 -m pytest perfbench/test_spans.py``.
"""

import pytest

from spans import Span, layer_metrics, percentile, pool_busy_frac, self_times, trial_spans

M, A, B = 1, 2, 3  # main thread and two pool threads


def synthetic():
    """One CLI run: an experiment whose pool runs three trials on two threads."""
    return [
        Span(0, None, M, "cli", 0.0, 12.0, None),
        Span(1, 0, M, "montecarlo.experiment", 0.5, 11.0, None),
        Span(2, 1, M, "montecarlo.pool", 1.0, 8.0, {"threads": 2}),
        # thread A: trial 0, then trial 2 with a nested call inside eig_sym
        Span(3, None, A, "ensembles.derive_stream", 1.0, 1.1, None),
        Span(4, None, A, "ensembles.sample", 1.1, 2.0, None),
        Span(5, None, A, "spectral.eig_sym_full", 2.0, 3.0, None),
        Span(6, None, A, "ensembles.derive_stream", 3.5, 3.6, None),
        Span(7, None, A, "spectral.eig_sym_full", 3.6, 5.0, None),
        Span(8, 7, A, "spectral.overlap_grid", 4.0, 4.5, None),
        # thread B: trial 1
        Span(9, None, B, "ensembles.derive_stream", 1.2, 1.3, None),
        Span(10, None, B, "spectral.eig_sym_minor", 1.3, 6.0, None),
        # after the pool, back on the main thread
        Span(11, 1, M, "overlaps_theory.overlap_kernel", 8.5, 8.75, None),
        Span(12, 1, M, "overlaps_theory.overlap_kernel", 8.75, 9.0, {"error": "DomainError"}),
        Span(13, 0, M, "reports.serialize", 11.0, 11.5, None),
    ]


def test_self_time_subtracts_same_thread_children_only():
    selfs = self_times(synthetic())
    # pool threads' spans lie inside the pool phase but are not its children
    assert selfs["montecarlo.pool"] == pytest.approx(7.0)
    assert selfs["montecarlo.experiment"] == pytest.approx(10.5 - 7.0 - 0.5)
    assert selfs["cli"] == pytest.approx(12.0 - 10.5 - 0.5)
    assert selfs["spectral.eig_sym_full"] == pytest.approx(1.0 + (1.4 - 0.5))
    assert selfs["spectral.overlap_grid"] == pytest.approx(0.5)


def test_parent_on_another_thread_is_not_subtracted():
    spans = [Span(0, None, M, "outer", 0.0, 4.0, None),
             Span(1, 0, A, "inner", 1.0, 2.0, None)]
    assert self_times(spans)["outer"] == pytest.approx(4.0)


def test_trial_spans_run_from_derive_stream_to_last_call_on_the_thread():
    [(pool, trials)] = trial_spans(synthetic())
    assert pool.id == 2
    assert trials == pytest.approx([(1.0, 3.0), (1.2, 6.0), (3.5, 5.0)])
    assert pool_busy_frac([(pool, trials)]) == pytest.approx((2.0 + 4.8 + 1.5) / (7.0 * 2))


def test_single_thread_pool_ends_trials_at_pool_end():
    spans = [
        Span(0, None, M, "montecarlo.pool", 0.0, 3.0, {"threads": 1}),
        Span(1, 0, M, "ensembles.derive_stream", 0.5, 0.6, None),
        Span(2, 0, M, "spectral.eig_sym_full", 0.6, 1.5, None),
        Span(3, 0, M, "ensembles.derive_stream", 1.5, 1.6, None),
        Span(4, 0, M, "spectral.eig_sym_full", 1.6, 2.5, None),
        Span(5, None, M, "reports.serialize", 3.5, 4.0, None),
    ]
    [(_, trials)] = trial_spans(spans)
    assert trials == pytest.approx([(0.5, 1.5), (1.5, 2.5)])
    assert self_times(spans)["montecarlo.pool"] == pytest.approx(3.0 - 2.0)


def test_layer_metrics_of_synthetic_run():
    m = layer_metrics(synthetic(), atomic_calls=7)
    assert m["spectral.eig_sym.calls"] == 3
    assert m["freeprob.stieltjes_atomic.calls"] == 7
    assert m["overlaps_theory.overlap_kernel.accept_ratio"] == pytest.approx(0.5)
    assert m["montecarlo.trial_s.p50"] == pytest.approx(2.0)
    assert m["montecarlo.trial_s.p90"] == pytest.approx(4.8)
    assert m["montecarlo.pre_trials_s"] == pytest.approx(0.5)
    assert m["montecarlo.post_trials_s"] == pytest.approx(3.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 90) == 3.0
