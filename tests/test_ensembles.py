import numpy as np
import pytest

from minor_overlaps import (
    SeedSpec,
    derive_stream,
    rank_one,
    sample_bernoulli,
    sample_goe,
    sample_path,
    split_spike_vector,
    tail_spike_vector,
    uniform_spike_vector,
)

SEED = SeedSpec(master_seed=20240901, stream_id=0)


def test_goe_zero_time_is_zero_matrix():
    assert np.array_equal(sample_goe(3, 0.0, SEED), np.zeros((3, 3)))


def test_goe_entry_variances():
    n = 200
    h = sample_goe(n, 1.0, SEED)
    off = h[np.triu_indices(n, k=1)]
    assert off.var() == pytest.approx(1.0 / n, rel=0.10)
    assert np.diag(h).var() == pytest.approx(2.0 / n, rel=0.25)


def test_goe_moments_within_five_standard_errors():
    # variance estimator SE ~ var * sqrt(2/count) for Gaussian data
    n = 300
    h = sample_goe(n, 0.7, derive_stream(11, 4))
    off = h[np.triu_indices(n, k=1)]
    se_off = (0.7 / n) * np.sqrt(2.0 / off.size)
    assert abs(off.var() - 0.7 / n) < 5 * se_off
    dia = np.diag(h)
    se_dia = (1.4 / n) * np.sqrt(2.0 / dia.size)
    assert abs(dia.var() - 1.4 / n) < 5 * se_dia


def test_sampled_matrices_are_bitwise_symmetric():
    for k in range(5):
        h = sample_goe(40, 1.3, derive_stream(7, k))
        assert np.array_equal(h, h.T)
        b = sample_bernoulli(40, 0.3, derive_stream(7, k))
        assert np.array_equal(b, b.T)


def test_goe_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_goe(0, 1.0, SEED)
    with pytest.raises(ValueError):
        sample_goe(10, -0.5, SEED)


def test_path_single_zero_time():
    (h,) = sample_path(5, [0.0], SEED)
    assert np.array_equal(h, np.zeros((5, 5)))


def test_path_endpoint_matches_snapshot_variance():
    n = 200
    path = sample_path(n, [0.0, 1.0], SEED)
    off = path[1][np.triu_indices(n, k=1)]
    assert off.var() == pytest.approx(1.0 / n, rel=0.10)


def test_path_increments_are_uncorrelated():
    n = 200
    h0, h1, h2 = sample_path(n, [0.0, 0.5, 1.0], derive_stream(3, 1))
    d1 = (h1 - h0)[np.triu_indices(n, k=1)]
    d2 = (h2 - h1)[np.triu_indices(n, k=1)]
    prods = d1 * d2
    se = prods.std(ddof=1) / np.sqrt(prods.size)
    assert abs(prods.mean()) < 3 * se


def test_path_rejects_non_increasing_grid():
    with pytest.raises(ValueError):
        sample_path(5, [0.0, 0.5, 0.5], SEED)
    with pytest.raises(ValueError):
        sample_path(5, [-0.1, 0.5], SEED)


def test_rank_one_basis_vector():
    a = rank_one(np.array([1.0, 0.0, 0.0]))
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.array_equal(a, expected)


def test_rank_one_uniform_vector_has_unit_eigenvalue():
    n = 120
    psi = np.ones(n) / np.sqrt(n)
    a = rank_one(psi)
    w, v = np.linalg.eigh(a)
    assert w[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(w[:-1]).max() < 1e-12
    assert abs(abs(v[:, -1] @ psi) - 1.0) < 1e-12


def test_rank_one_tail_style_vector():
    # tail-supported initializer: spike at |psi|^2 with eigenvector psi/|psi|
    n_dim, n, lam = 60, 40, 3.0
    psi = (lam / np.sqrt(n_dim - n)) * np.concatenate([np.zeros(n), np.ones(n_dim - n)])
    a = rank_one(psi)
    w, v = np.linalg.eigh(a)
    norm_sq = psi @ psi
    assert w[-1] == pytest.approx(norm_sq, rel=1e-12)
    assert abs(abs(v[:, -1] @ (psi / np.linalg.norm(psi))) - 1.0) < 1e-12


def test_spike_vector_helpers():
    n_dim, n = 50, 20
    u = uniform_spike_vector(n_dim, 1.7)
    assert u @ u == pytest.approx(1.7, rel=1e-12)
    tl = tail_spike_vector(n_dim, n, 3.0)
    assert np.all(tl[:n] == 0.0)
    assert tl @ tl == pytest.approx(3.0, rel=1e-12)
    sp = split_spike_vector(n_dim, n, 2.0, 0.5)
    assert sp @ sp == pytest.approx(2.0, rel=1e-12)
    assert sp[:n] @ sp[:n] == pytest.approx(0.5, rel=1e-12)


def test_bernoulli_degenerate_parameters():
    assert np.all(sample_bernoulli(30, 0.0, SEED) == 0.0)
    x = sample_bernoulli(30, 1.0, SEED)
    assert np.all(x == 1.0 / np.sqrt(30))
    w, v = np.linalg.eigh(x)
    assert w[-1] == pytest.approx(np.sqrt(30), rel=1e-12)
    uniform = np.ones(30) / np.sqrt(30)
    assert abs(abs(v[:, -1] @ uniform) - 1.0) < 1e-10


def test_bernoulli_entry_mean():
    n, p = 200, 0.5
    x = sample_bernoulli(n, p, SEED)
    entries = x[np.triu_indices(n)] * np.sqrt(n)
    se = np.sqrt(p * (1 - p) / entries.size)
    assert abs(entries.mean() - p) < 3 * se


def test_bernoulli_rejects_bad_p():
    with pytest.raises(ValueError):
        sample_bernoulli(10, -0.1, SEED)
    with pytest.raises(ValueError):
        sample_bernoulli(10, 1.5, SEED)


def test_derive_stream_is_deterministic():
    a = sample_goe(25, 1.0, derive_stream(99, 3))
    b = sample_goe(25, 1.0, derive_stream(99, 3))
    assert np.array_equal(a, b)


def test_derive_stream_independence_across_trials():
    n = 100
    a = sample_goe(n, 1.0, derive_stream(5, 0)).ravel()
    b = sample_goe(n, 1.0, derive_stream(5, 1)).ravel()
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(a.size)


def test_derive_stream_master_seed_collisions():
    seen = set()
    for s in range(1000):
        draw = tuple(derive_stream(s, 7).generator().standard_normal(2))
        assert draw not in seen
        seen.add(draw)
