import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minor_overlaps import (
    ExperimentConfig,
    check_interlacing,
    derive_stream,
    eig_sym,
    minor_size,
    overlap_grid,
    quantile_index,
    sample_goe,
)


def test_eig_identity():
    dec = eig_sym(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
    assert np.allclose(dec.eigenvectors @ dec.eigenvectors.T, np.eye(3), atol=1e-12)


def test_eig_diagonal_permutation():
    dec = eig_sym(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(dec.eigenvalues, [3.0, 2.0, 1.0])
    # eigenvectors are signed basis vectors matching the permutation
    assert abs(abs(dec.eigenvectors[0, 0]) - 1.0) < 1e-12
    assert abs(abs(dec.eigenvectors[2, 1]) - 1.0) < 1e-12
    assert abs(abs(dec.eigenvectors[1, 2]) - 1.0) < 1e-12


def test_eig_two_by_two_exchange():
    dec = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [1.0, -1.0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    assert abs(abs(dec.eigenvectors[:, 0] @ plus) - 1.0) < 1e-12
    assert abs(abs(dec.eigenvectors[:, 1] @ minus) - 1.0) < 1e-12


def test_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        eig_sym(np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]]))


def test_reconstruction_and_orthonormality_on_samples():
    for k in range(4):
        x = sample_goe(80, 1.0, derive_stream(17, k))
        dec = eig_sym(x)
        assert dec.reconstruction_error(x) <= 1e-8
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(80))) <= 1e-10
        v, w = dec.eigenvectors, dec.eigenvalues
        resid = np.max(np.linalg.norm(x @ v - v * w, axis=0))
        assert resid <= 1e-9 * max(1.0, np.linalg.norm(x, 2))


def test_overlap_grid_full_rank_is_identity():
    x = sample_goe(12, 1.0, derive_stream(2, 0))
    dec = eig_sym(x)
    grid = overlap_grid(dec, dec)
    assert np.allclose(grid.values, np.eye(12), atol=1e-10)


def test_overlap_grid_two_by_two_half_half():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    full = eig_sym(x)
    minor = eig_sym(x[:1, :1])
    grid = overlap_grid(full, minor)
    assert grid.values.shape == (1, 2)
    assert np.allclose(grid.values, 0.5, atol=1e-12)


def test_overlap_grid_row_and_column_sums():
    n_dim, n = 50, 20
    x = sample_goe(n_dim, 1.0, derive_stream(2, 1))
    grid = overlap_grid(eig_sym(x), eig_sym(x[:n, :n]))
    assert grid.row_sum_error() <= 1e-10
    assert grid.values.sum(axis=0).max() <= 1.0 + 1e-10
    assert grid.values.min() >= 0.0


def test_overlap_grid_keeps_genuine_zero_block_eigenvalue():
    # the block's own 0 eigenvalue is a genuine minor eigenvalue
    x = np.diag([0.0, 1.0, 0.5])
    grid = overlap_grid(eig_sym(x), eig_sym(x[:2, :2]))
    assert grid.values.shape == (2, 3)
    assert np.allclose(sorted(grid.minor_evals), [0.0, 1.0])


def test_interlacing_on_samples():
    for k in range(5):
        n_dim = 60
        n = 10 + 8 * k
        x = sample_goe(n_dim, 1.0, derive_stream(31, k))
        grid = overlap_grid(eig_sym(x), eig_sym(x[:n, :n]))
        ok, margin = check_interlacing(grid.full_evals, grid.minor_evals)
        assert ok, f"margin {margin}"


@st.composite
def _full_and_minor_sizes(draw):
    n_dim = draw(st.integers(2, 60))
    return n_dim, draw(st.integers(1, n_dim - 1))


@given(sizes=_full_and_minor_sizes(), t=st.floats(0.01, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_bare_block_grid_invariants(sizes, t, seed):
    n_dim, n = sizes
    x = sample_goe(n_dim, t, derive_stream(seed, 0))
    full = eig_sym(x)
    grid = overlap_grid(full, eig_sym(x[:n, :n]))
    ok, margin = check_interlacing(grid.full_evals, grid.minor_evals)
    assert ok, f"margin {margin}"
    assert grid.values.shape == (n, n_dim)
    assert np.max(np.abs(grid.values.sum(axis=1) - 1.0)) <= 1e-10
    head_mass = np.sum(full.eigenvectors[:n, :] ** 2, axis=0)
    assert np.max(np.abs(grid.values.sum(axis=0) - head_mass)) <= 1e-10
    assert grid.values.min() >= 0.0
    assert grid.values.max() <= 1.0 + 1e-12


@given(sizes=_full_and_minor_sizes(), seed=st.integers(0, 2**32 - 1))
def test_overlap_grid_rejects_minor_larger_than_full(sizes, seed):
    n_dim, n = sizes
    small = eig_sym(sample_goe(n, 1.0, derive_stream(seed, 0)))
    large = eig_sym(sample_goe(n_dim, 1.0, derive_stream(seed, 1)))
    with pytest.raises(ValueError):
        overlap_grid(small, large)


def test_interlacing_direct_cases():
    ok, _ = check_interlacing(np.array([3.0, 2.0, 1.0]), np.array([2.5, 1.5]))
    assert ok
    ok, margin = check_interlacing(np.array([3.0, 2.0, 1.0]), np.array([3.5]))
    assert not ok
    assert margin < -0.4


def test_quantile_index_examples():
    assert quantile_index(0.5, 500) == 250
    assert quantile_index(0.0, 500) == 1
    assert quantile_index(0.95, 500) == 475
    assert quantile_index(1.0, 500) == 500
    with pytest.raises(ValueError):
        quantile_index(1.5, 500)


def test_minor_size_rounds_half_up():
    assert minor_size(0.5, 81) == 41
    assert minor_size(0.5, 80) == 40
    assert minor_size(0.3, 100) == 30
    config = ExperimentConfig(n_dim=81, q=0.5, t=1.0, trials=100, master_seed=0)
    assert config.n == 41
