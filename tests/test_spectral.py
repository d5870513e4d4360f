import tracemalloc

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
    quantile_index,
    sample_goe,
)
from minor_overlaps import spectral
from minor_overlaps.errors import NumericError
from minor_overlaps.spectral import (
    eigpair_at,
    eigpair_backend,
    overlap_columns,
    overlap_entry,
    overlap_row,
    reduced_eig,
)


def test_eig_identity():
    dec = eig_sym(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
    v = dec.vectors(np.arange(3))
    assert np.allclose(v @ v.T, np.eye(3), atol=1e-12)


def test_eig_diagonal_permutation():
    dec = eig_sym(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(dec.eigenvalues, [3.0, 2.0, 1.0])
    # eigenvectors are signed basis vectors matching the permutation
    v = dec.vectors(np.arange(3))
    assert abs(abs(v[0, 0]) - 1.0) < 1e-12
    assert abs(abs(v[2, 1]) - 1.0) < 1e-12
    assert abs(abs(v[1, 2]) - 1.0) < 1e-12


def test_eig_two_by_two_exchange():
    dec = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [1.0, -1.0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    assert abs(abs(dec.vectors(0) @ plus) - 1.0) < 1e-12
    assert abs(abs(dec.vectors(1) @ minus) - 1.0) < 1e-12


def test_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        eig_sym(np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]]))


def test_reconstruction_and_orthonormality_on_samples():
    for k in range(4):
        x = sample_goe(80, 1.0, derive_stream(17, k))
        dec = eig_sym(x)
        assert dec.reconstruction_error(x) <= 1e-8
        v, w = dec.vectors(np.arange(80)), dec.eigenvalues
        gram = v.T @ v
        assert np.max(np.abs(gram - np.eye(80))) <= 1e-10
        resid = np.max(np.linalg.norm(x @ v - v * w, axis=0))
        assert resid <= 1e-9 * max(1.0, np.linalg.norm(x, 2))


def test_overlap_grid_full_rank_is_identity():
    x = sample_goe(12, 1.0, derive_stream(2, 0))
    dec = eig_sym(x)
    grid = overlap_columns(dec, dec, np.arange(12))
    assert np.allclose(grid, np.eye(12), atol=1e-10)


def test_overlap_grid_two_by_two_half_half():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    full = eig_sym(x)
    minor = eig_sym(x[:1, :1])
    grid = overlap_columns(full, minor, np.arange(2))
    assert grid.shape == (1, 2)
    assert np.allclose(grid, 0.5, atol=1e-12)


def test_overlap_grid_row_and_column_sums():
    n_dim, n = 50, 20
    x = sample_goe(n_dim, 1.0, derive_stream(2, 1))
    grid = overlap_columns(eig_sym(x), eig_sym(x[:n, :n]), np.arange(n_dim))
    assert np.max(np.abs(grid.sum(axis=1) - 1.0)) <= 1e-10
    assert grid.sum(axis=0).max() <= 1.0 + 1e-10
    assert grid.min() >= 0.0


def test_overlap_grid_keeps_genuine_zero_block_eigenvalue():
    # the block's own 0 eigenvalue is a genuine minor eigenvalue
    x = np.diag([0.0, 1.0, 0.5])
    minor = eig_sym(x[:2, :2])
    grid = overlap_columns(eig_sym(x), minor, np.arange(3))
    assert grid.shape == (2, 3)
    assert np.allclose(sorted(minor.eigenvalues), [0.0, 1.0])


def test_interlacing_on_samples():
    for k in range(5):
        n_dim = 60
        n = 10 + 8 * k
        x = sample_goe(n_dim, 1.0, derive_stream(31, k))
        ok, margin = check_interlacing(eig_sym(x).eigenvalues, eig_sym(x[:n, :n]).eigenvalues)
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
    full, minor = eig_sym(x), eig_sym(x[:n, :n])
    grid = overlap_columns(full, minor, np.arange(n_dim))
    ok, margin = check_interlacing(full.eigenvalues, minor.eigenvalues)
    assert ok, f"margin {margin}"
    assert grid.shape == (n, n_dim)
    assert np.max(np.abs(grid.sum(axis=1) - 1.0)) <= 1e-10
    head_mass = np.sum(full.vectors(np.arange(n_dim))[:n, :] ** 2, axis=0)
    assert np.max(np.abs(grid.sum(axis=0) - head_mass)) <= 1e-10
    assert grid.min() >= 0.0
    assert grid.max() <= 1.0 + 1e-12


@given(sizes=_full_and_minor_sizes(), seed=st.integers(0, 2**32 - 1))
def test_overlap_grid_rejects_minor_larger_than_full(sizes, seed):
    n_dim, n = sizes
    small = eig_sym(sample_goe(n, 1.0, derive_stream(seed, 0)))
    large = eig_sym(sample_goe(n_dim, 1.0, derive_stream(seed, 1)))
    with pytest.raises(ValueError):
        overlap_columns(small, large, np.arange(n))


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


# ---------------------------------------------------------------------------
# one eigenpair by index
# ---------------------------------------------------------------------------

@st.composite
def _planted_spectra(draw, min_dim=3, max_dim=100):
    """A random rotation of a spread spectrum with some pairs planted 1e-10 apart.

    Returns the matrix, a minor size and descending indices that include the
    first and the last.
    """
    n_dim = draw(st.integers(min_dim, max_dim))
    n = draw(st.integers(1, n_dim - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = np.cumsum(rng.uniform(0.5, 1.5, n_dim)) * (4.0 / n_dim) - 2.0
    for k in draw(st.lists(st.integers(0, n_dim - 2), max_size=3, unique=True)):
        lam[k + 1] = lam[k] + 1e-10
    lam = np.sort(lam)
    q, _ = np.linalg.qr(rng.standard_normal((n_dim, n_dim)))
    x = (q * lam) @ q.T
    x = 0.5 * (x + x.T)
    middle = draw(st.lists(st.integers(0, n_dim - 1), max_size=3))
    return x, n, sorted({0, n_dim - 1, *middle})


def _check_eigpairs(x, descs):
    """The solver's pairs against eigh's: values always, vectors where the level is isolated."""
    size = x.shape[0]
    w, v = np.linalg.eigh(x)
    norm = np.abs(w).max()
    solve = eigpair_at(size)
    for desc in descs:
        k = size - 1 - desc
        value, vector = solve(x.copy(), desc)
        assert abs(value - w[k]) <= 1e-13 * norm
        gap = np.min(np.abs(np.delete(w, k) - w[k]), initial=np.inf)
        if gap >= 1e-6:
            col = v[:, k]
            assert min(np.abs(vector - col).max(), np.abs(vector + col).max()) <= 1e-12


@given(case=_planted_spectra())
def test_eigpair_matches_eigh(case):
    x, n, descs = case
    _check_eigpairs(x, descs)
    _check_eigpairs(np.ascontiguousarray(x[:n, :n]), [d for d in descs if d < n] + [n - 1])


def test_eigpair_refuses_bad_input():
    solve = eigpair_at(4)
    x = np.diag([4.0, 3.0, 2.0, 1.0])
    assert solve(x.copy(), 1)[0] == pytest.approx(3.0)
    for bad in (np.eye(3), np.eye(4, dtype=np.float32), np.asfortranarray(x[:, ::-1]),
                np.broadcast_to(x, (4, 4))):
        with pytest.raises(ValueError, match="C-contiguous float64 4x4"):
            solve(bad, 0)
    for desc in (-1, 4):
        with pytest.raises(ValueError, match="descending index"):
            solve(x.copy(), desc)
    with pytest.raises(ValueError):
        eigpair_at(0)


def test_eigpair_reports_lapack_failure():
    if eigpair_backend() != "dsyevr":
        pytest.skip("numpy's OpenBLAS does not export dsyevr")
    x = np.diag([1.0, np.nan, 2.0])
    with pytest.raises(NumericError, match="dsyevr failed on a 3x3 matrix"):
        eigpair_at(3)(x, 0)


def test_eigpair_falls_back_to_eigh_without_the_library(monkeypatch):
    monkeypatch.setattr(spectral, "_openblas", lambda: None)
    assert eigpair_backend() == "eigh"
    x = sample_goe(12, 1.0, derive_stream(3, 0))
    w, v = np.linalg.eigh(x)
    value, vector = eigpair_at(12)(x.copy(), 2)
    assert value == w[9]
    assert np.array_equal(vector, v[:, 9])


# ---------------------------------------------------------------------------
# every eigenvalue from one reduction, eigenvectors on request
# ---------------------------------------------------------------------------

def _lapack_path() -> bool:
    return all(spectral._lapacke(name) is not None for name in spectral._REDUCTION)


def _isolated(w: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues at least 1e-6 from every other one."""
    gaps = np.abs(w[:, None] - w[None, :]) + np.diag(np.full(w.size, np.inf))
    return gaps.min(axis=1, initial=np.inf) >= 1e-6


def _check_reduced(x, n, descs):
    """``reduced_eig`` of ``x`` and of its ``n x n`` block against ``eig_sym`` and the grid."""
    full, minor = reduced_eig(x), reduced_eig(x[:n, :n])
    ref_full, ref_minor = eig_sym(x), eig_sym(x[:n, :n])
    assert (full.reflectors is not None) == (minor.reflectors is not None) == _lapack_path()
    # the same LAPACK calls as eigh: the eigenvalues agree bit for bit on either path
    assert np.array_equal(full.eigenvalues, ref_full.eigenvalues)
    assert np.array_equal(minor.eigenvalues, ref_minor.eigenvalues)
    # vectors: up to sign, on isolated levels; one at a time or as columns
    iso_full, iso_minor = _isolated(ref_full.eigenvalues), _isolated(ref_minor.eigenvalues)
    columns = full.vectors(descs)
    for c, k in enumerate(descs):
        vector, ref = full.vectors(k), ref_full.vectors(k)
        assert np.abs(vector - columns[:, c]).max() <= 1e-14
        assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12
        if iso_full[k]:
            assert min(np.abs(vector - ref).max(), np.abs(vector + ref).max()) <= 1e-12
    # coefficients on any vectors: squared, so the sign of each eigenvector drops out
    w = np.random.default_rng(n).standard_normal((x.shape[0], 3))
    coef, ref_coef = full.coefficients(w), ref_full.vectors(np.arange(x.shape[0])).T @ w
    assert coef.shape == (x.shape[0], 3)
    assert np.abs(coef[iso_full] ** 2 - ref_coef[iso_full] ** 2).max(initial=0) <= 1e-12
    # the readers against the grid, on entries whose two levels are isolated
    grid = overlap_columns(ref_full, ref_minor, np.arange(x.shape[0]))
    both = iso_minor[:, None] & iso_full[None, :]
    i = descs[-1] % n
    row, row_error = overlap_row(full, minor, i)
    assert abs(row.sum() - 1.0) == row_error <= 1e-10
    assert np.abs(row - grid[i])[both[i]].max(initial=0) <= 1e-12
    cols = overlap_columns(full, minor, descs)
    assert cols.shape == (n, len(descs))
    assert np.abs(cols - grid[:, descs])[both[:, descs]].max(initial=0) <= 1e-12
    for j in descs:
        if both[0, j]:
            assert abs(overlap_entry(full, minor, 0, j) - grid[0, j]) <= 1e-12


@given(case=_planted_spectra(min_dim=2, max_dim=120))
def test_reduced_eig_matches_eig_sym_and_the_grid(case):
    x, n, descs = case
    _check_reduced(x, n, descs)


@given(case=_planted_spectra(min_dim=2, max_dim=60))
def test_reduced_eig_falls_back_to_eigh_without_the_library(case):
    x, n, descs = case
    lapack_full, lapack_minor = reduced_eig(x), reduced_eig(x[:n, :n])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_openblas", lambda: None)
        full, minor = reduced_eig(x), reduced_eig(x[:n, :n])
        assert full.reflectors is None
        _check_reduced(x, n, descs)
    assert np.array_equal(full.eigenvalues, lapack_full.eigenvalues)
    assert np.array_equal(minor.eigenvalues, lapack_minor.eigenvalues)
    iso = _isolated(full.eigenvalues)
    for k in descs:
        if iso[k]:
            a, b = full.vectors(k), lapack_full.vectors(k)
            assert min(np.abs(a - b).max(), np.abs(a + b).max()) <= 1e-12
    i = descs[-1] % n
    assert np.abs(overlap_row(full, minor, i)[0]
                  - overlap_row(lapack_full, lapack_minor, i)[0])[iso].max(initial=0) <= 1e-12


def test_reduced_eig_takes_eighs_path_where_eigh_rescales():
    # dsyevd scales a matrix whose largest entry is beyond ~1e146 (or below ~1e-146) first
    x = sample_goe(30, 1.0, derive_stream(5, 0))
    for scale in (1e150, 1e-150):
        dec = reduced_eig(x * scale)
        assert dec.reflectors is None
        assert np.array_equal(dec.eigenvalues, eig_sym(x * scale).eigenvalues)
    zero = reduced_eig(np.zeros((4, 4)))
    assert np.array_equal(zero.eigenvalues, np.zeros(4))
    assert np.abs(np.abs(zero.coefficients(np.eye(4))).sum(axis=0) - 1.0).max() <= 1e-15


def test_reduced_eig_refuses_bad_input():
    # both constructors share one input check
    for decompose in (reduced_eig, eig_sym):
        for bad in (np.eye(3)[:2], np.ones(3), np.zeros((0, 0))):
            with pytest.raises(ValueError, match="square"):
                decompose(bad)
        with pytest.raises(ValueError, match="not exactly symmetric"):
            decompose(np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]]))
        for value in (np.nan, np.inf):
            with pytest.raises(NumericError, match="non-finite 3x3"):
                decompose(np.diag([1.0, value, 2.0]))


def test_symmetry_check_compares_chunks_without_a_matrix_sized_temporary():
    size = 1000
    x = sample_goe(size, 1.0, derive_stream(4, 0))
    tracemalloc.start()
    try:
        assert spectral._checked_symmetric(x)[0] is x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size * size // 4, peak  # a boolean x == x.T would take size**2 bytes
    # an asymmetry in any chunk, the first and last rows included, is refused
    for i, j in ((0, 1), (size - 1, 0), (size - 2, size - 1), (200, 3), (4, 5)):
        bad = x.copy()
        bad[i, j] += 1e-14
        with pytest.raises(ValueError, match="^matrix is not exactly symmetric$"):
            spectral._checked_symmetric(bad)


def test_reads_carried_to_the_tridiagonal_basis_give_the_same_coefficients():
    # as a trial runs it: the matrix lies in the workspace, and S lands in the first buffer
    size, n = 50, 20
    x = sample_goe(size, 1.0, derive_stream(8, 0))
    buffers = spectral._buffers(size)
    a = buffers[1][:size * size].reshape(size, size)
    a[...] = x
    reads = np.asfortranarray(np.random.default_rng(2).standard_normal((size, 3)))
    carried = reads.copy(order="F")
    dec = spectral._reduce_in_place(a, None, carried, buffers)
    assert dec.reflectors is None and np.shares_memory(dec.tridiagonal_vectors, buffers[0])
    want = reduced_eig(x)
    assert np.array_equal(dec.eigenvalues, want.eigenvalues)
    assert np.array_equal(dec.coefficients(carried), want.coefficients(reads))
    # a block of the same buffers, as a minor is reduced
    block = buffers[0][:n * n].reshape(n, n)
    block[...] = x[:n, :n]
    carried = reads[:n].copy(order="F")
    minor = spectral._reduce_in_place(block, None, carried, buffers)
    assert np.array_equal(minor.coefficients(carried), reduced_eig(x[:n, :n]).coefficients(
        reads[:n]))


def test_readers_audit_what_they_read():
    x = sample_goe(20, 1.0, derive_stream(9, 0))
    full, minor = reduced_eig(x), reduced_eig(x[:8, :8])

    class Inflated:
        """The minor with every vector and coefficient ``factor`` times too long."""
        eigenvalues, dim = minor.eigenvalues, minor.dim

        def __init__(self, factor):
            self.factor = factor

        def vectors(self, idx):
            return self.factor * minor.vectors(idx)

        def coefficients(self, w):
            return self.factor * minor.coefficients(w)

    # each factor squared breaks only the sum it is aimed at, not the entries
    row = overlap_row(full, minor, 2)[0]
    with pytest.raises(NumericError, match="row sums deviate"):
        overlap_row(full, Inflated(np.sqrt(2.0 / (1.0 + row.max()))), 2)
    cols = overlap_columns(full, minor, list(range(20)))
    widest, largest = cols.sum(axis=0).max(), cols.max()
    with pytest.raises(NumericError, match="column sum exceeds 1"):
        overlap_columns(full, Inflated(np.sqrt(2.0 / (widest + largest))), list(range(20)))
    with pytest.raises(NumericError, match="entries escape"):
        overlap_entry(full, Inflated(2.0 / np.sqrt(cols[0, 5])), 0, 5)
    # every column is the whole grid: its rows are audited too, not only its columns
    with pytest.raises(NumericError, match="row sums deviate"):
        overlap_columns(full, Inflated(np.sqrt(1.0 + 1e-8)), list(range(20)))


def test_vectors_refuse_descending_indices_outside_the_spectrum():
    # descending index k reads ascending column dim - 1 - k, which must not wrap around
    x = sample_goe(6, 1.0, derive_stream(4, 0))
    for decompose in (reduced_eig, eig_sym):
        full, minor = decompose(x), decompose(x[:3, :3])
        for bad, first in ((6, 6), (7, 7), (-1, -1), ([0, 6], 6), (np.array([5, -2]), -2)):
            with pytest.raises(IndexError, match=rf"descending index {first} outside \[0, 6\)"):
                full.vectors(bad)
        with pytest.raises(IndexError, match=r"descending index 6 outside \[0, 6\)"):
            overlap_entry(full, minor, 0, 6)
        with pytest.raises(IndexError, match=r"descending index 3 outside \[0, 3\)"):
            overlap_row(full, minor, 3)
        with pytest.raises(IndexError, match=r"descending index 6 outside \[0, 6\)"):
            overlap_columns(full, minor, [0, 6])
        assert full.vectors([0, 5]).shape == (6, 2) and minor.vectors(2).shape == (3,)


def _check_requested(x, request, ref, eigvalsh=None):
    """``reduced_eig(x, request)`` against ``eig_sym``'s ``ref``: values, vectors, refusals.

    ``eigvalsh`` holds ``eigvalsh(x)`` descending where the LAPACK path runs: it
    calls ``dsytrd`` then ``dsterf``, as the request path does.  Either path
    forms the requested vectors when it reduces, so neither keeps reflectors.
    """
    dec = reduced_eig(x, request)
    held = np.unique(request(ref.eigenvalues) if callable(request) else request)
    assert np.array_equal(dec.held, held) and dec.tridiagonal_vectors.shape == (x.shape[0],
                                                                                held.size)
    assert np.abs(dec.eigenvalues - ref.eigenvalues).max() <= 1e-13 * max(1.0, np.abs(x).max())
    assert dec.reflectors is None
    if eigvalsh is not None:
        assert np.array_equal(dec.eigenvalues, eigvalsh)
    for k in held:
        vector, want = dec.vectors(k), ref.vectors(k)
        assert min(np.abs(vector - want).max(), np.abs(vector + want).max()) <= 1e-12
    unheld = np.setdiff1d(np.arange(x.shape[0]), held)
    if unheld.size:
        with pytest.raises(IndexError, match=f"index {unheld[0]} was not requested"):
            dec.vectors([*held, unheld[0]])
    with pytest.raises(IndexError, match="coefficients need every eigenvector"):
        dec.coefficients(np.ones(x.shape[0]))


@pytest.mark.parametrize("n_dim", [5, 40, 201])
def test_requested_vectors_match_eig_sym_over_seeds(n_dim):
    for seed in range(20):
        x = sample_goe(n_dim, 1.0, derive_stream(seed, n_dim))
        rng = np.random.default_rng(seed)
        # the matrix, and its leading blocks at several q
        for n in {n_dim, *(max(1, minor_size(q, n_dim)) for q in (0.2, 0.5, 0.9))}:
            a = x[:n, :n]
            ref = eig_sym(a)
            values = np.linalg.eigvalsh(a)[::-1] if _lapack_path() else None
            picked = rng.choice(n, size=min(n, 3), replace=False)
            for request in (0, n - 1, picked, [], lambda w: np.flatnonzero(np.abs(w) < 0.3)):
                _check_requested(a, request, ref, values)


def test_requested_vectors_of_a_block_diagonal_matrix_whose_tridiagonal_splits():
    # the reduction of a direct sum keeps its blocks: T has an exact zero off the
    # diagonal, and dstein needs to know which block each eigenvalue belongs to
    blocks = [sample_goe(7, 1.0, derive_stream(1, 0)), 3.0 * np.eye(1),
              sample_goe(5, 1.0, derive_stream(2, 0)) + 1.5 * np.eye(5)]
    x = np.zeros((13, 13))
    start = 0
    for b in blocks:
        x[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    ref = eig_sym(x)
    values = np.linalg.eigvalsh(x)[::-1] if _lapack_path() else None
    for request in (range(13), [0, 1, 12], 6, lambda w: np.flatnonzero(w > 1.0)):
        _check_requested(x, request, ref, values)


def test_requests_hold_on_the_eigh_fallback(monkeypatch):
    x = sample_goe(30, 1.0, derive_stream(6, 0))
    ref = eig_sym(x)
    monkeypatch.setattr(spectral, "_openblas", lambda: None)
    _check_requested(x, [0, 4, 29], ref)
    dec = reduced_eig(x, [0, 4, 29])
    assert dec.reflectors is None
    assert np.array_equal(dec.eigenvalues, ref.eigenvalues)
    with pytest.raises(IndexError, match=r"descending index 30 outside \[0, 30\)"):
        reduced_eig(x, [30])


def test_reduced_eig_leaves_its_input_alone_and_trials_reduce_their_own():
    x = sample_goe(30, 1.0, derive_stream(7, 0))
    kept = x.copy()
    for request in (None, [0, 3]):
        reduced_eig(x, request)
        assert np.array_equal(x, kept)
        owned = x.copy()
        dec = spectral._reduce_in_place(owned, request)
        # reduced in place: Q stays in the input, or was applied to the requested vectors
        if _lapack_path():
            assert dec.reflectors is owned if request is None else not np.array_equal(owned, x)
        assert np.array_equal(dec.eigenvalues, reduced_eig(x, request).eigenvalues)
