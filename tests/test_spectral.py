import ctypes
import re
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
    reduced_eig,
)


def _grid(full, minor):
    """Squared overlaps of the block's eigenvectors (rows) with the matrix's (columns), audited."""
    grid = (minor.T @ full[:minor.shape[0]]) ** 2
    spectral._audit_overlaps(grid, whole_rows=True)
    return grid


def test_eig_identity():
    w, v = eig_sym(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])
    assert np.allclose(v @ v.T, np.eye(3), atol=1e-12)


def test_eig_diagonal_permutation():
    w, v = eig_sym(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [3.0, 2.0, 1.0])
    # eigenvectors are signed basis vectors matching the permutation
    assert abs(abs(v[0, 0]) - 1.0) < 1e-12
    assert abs(abs(v[2, 1]) - 1.0) < 1e-12
    assert abs(abs(v[1, 2]) - 1.0) < 1e-12


def test_eig_two_by_two_exchange():
    w, v = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [1.0, -1.0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    assert abs(abs(v[:, 0] @ plus) - 1.0) < 1e-12
    assert abs(abs(v[:, 1] @ minus) - 1.0) < 1e-12


def test_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        eig_sym(np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]]))


def test_reconstruction_and_orthonormality_on_samples():
    for k in range(4):
        x = sample_goe(80, 1.0, derive_stream(17, k))
        w, v = eig_sym(x)
        # max-norm error of V diag(w) V^T, relative to max(1, |x|_inf)
        assert np.max(np.abs((v * w) @ v.T - x)) / max(1.0, np.max(np.abs(x))) <= 1e-8
        gram = v.T @ v
        assert np.max(np.abs(gram - np.eye(80))) <= 1e-10
        resid = np.max(np.linalg.norm(x @ v - v * w, axis=0))
        assert resid <= 1e-9 * max(1.0, np.linalg.norm(x, 2))


def test_overlap_grid_full_rank_is_identity():
    x = sample_goe(12, 1.0, derive_stream(2, 0))
    _, v = eig_sym(x)
    grid = _grid(v, v)
    assert np.allclose(grid, np.eye(12), atol=1e-10)


def test_overlap_grid_two_by_two_half_half():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    grid = _grid(eig_sym(x)[1], eig_sym(x[:1, :1])[1])
    assert grid.shape == (1, 2)
    assert np.allclose(grid, 0.5, atol=1e-12)


def test_overlap_grid_row_and_column_sums():
    n_dim, n = 50, 20
    x = sample_goe(n_dim, 1.0, derive_stream(2, 1))
    grid = _grid(eig_sym(x)[1], eig_sym(x[:n, :n])[1])
    assert np.max(np.abs(grid.sum(axis=1) - 1.0)) <= 1e-10
    assert grid.sum(axis=0).max() <= 1.0 + 1e-10
    assert grid.min() >= 0.0


def test_overlap_grid_keeps_genuine_zero_block_eigenvalue():
    # the block's own 0 eigenvalue is a genuine minor eigenvalue
    x = np.diag([0.0, 1.0, 0.5])
    mu, minor = eig_sym(x[:2, :2])
    grid = _grid(eig_sym(x)[1], minor)
    assert grid.shape == (2, 3)
    assert np.allclose(sorted(mu), [0.0, 1.0])


def test_interlacing_on_samples():
    for k in range(5):
        n_dim = 60
        n = 10 + 8 * k
        x = sample_goe(n_dim, 1.0, derive_stream(31, k))
        ok, margin = check_interlacing(eig_sym(x)[0], eig_sym(x[:n, :n])[0])
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
    (lam, full), (mu, minor) = eig_sym(x), eig_sym(x[:n, :n])
    grid = _grid(full, minor)
    ok, margin = check_interlacing(lam, mu)
    assert ok, f"margin {margin}"
    assert grid.shape == (n, n_dim)
    assert np.max(np.abs(grid.sum(axis=1) - 1.0)) <= 1e-10
    head_mass = np.sum(full[:n, :] ** 2, axis=0)
    assert np.max(np.abs(grid.sum(axis=0) - head_mass)) <= 1e-10
    assert grid.min() >= 0.0
    assert grid.max() <= 1.0 + 1e-12


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


_SYMBOLS = ([f"scipy_LAPACKE_{name}_work64_" for name in spectral._ARGTYPES]
            + ["scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"])


@pytest.fixture
def openblas_lacking(monkeypatch):
    """``lacking(symbol)``: rebinds numpy's OpenBLAS as if it did not export ``symbol``."""
    library = ctypes.CDLL

    class Lacking:
        def __init__(self, path):
            self._lib = library(path)

        def __getattr__(self, name):
            if name == missing:
                raise AttributeError(name)
            return getattr(self._lib, name)

    def lacking(symbol):
        nonlocal missing
        missing = symbol
        spectral._openblas.cache_clear()
        return spectral._openblas()

    missing = None
    if spectral._openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS is not available")
    monkeypatch.setattr(ctypes, "CDLL", Lacking)
    yield lacking
    spectral._openblas.cache_clear()  # the next caller binds the library itself


@pytest.mark.parametrize("symbol", _SYMBOLS)
def test_one_missing_symbol_puts_every_decomposition_on_eigh(openblas_lacking, symbol):
    assert openblas_lacking(None) is not None  # the stub binds the library whole
    assert openblas_lacking(symbol) is None
    x = sample_goe(20, 1.0, derive_stream(8, 0))
    w, v = eig_sym(x)
    reads = np.random.default_rng(8).standard_normal((20, 2))
    assert spectral._takes_eigh(1.0) and eigpair_backend() == "eigh"
    values, vectors = reduced_eig(x, [0, 7])
    assert np.array_equal(values, w) and np.array_equal(vectors, v[:, [0, 7]])
    carried_values, coefficients = _carry(x, reads)
    assert np.array_equal(carried_values, w) and np.array_equal(coefficients, v.T @ reads)
    value, vector = eigpair_at(20)(x.copy(), 7)
    assert (value, vector.tolist()) == (w[7], v[:, 7].tolist())


# ---------------------------------------------------------------------------
# every eigenvalue from one reduction: requested eigenvectors, or carried vectors
# ---------------------------------------------------------------------------

def _lapack_path() -> bool:
    return spectral._openblas() is not None


def _isolated(w: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues at least 1e-6 from every other one."""
    gaps = np.abs(w[:, None] - w[None, :]) + np.diag(np.full(w.size, np.inf))
    return gaps.min(axis=1, initial=np.inf) >= 1e-6


def _carry(x, reads):
    """``_carry_in_place`` on copies of ``x`` and ``reads``, in buffers of its own."""
    carried = np.array(reads, dtype=float, order="F")
    return spectral._carry_in_place(np.array(x, dtype=float), carried,
                                     spectral._buffers(x.shape[0]))


def _same_up_to_sign(a, b, tol=1e-12) -> bool:
    return min(np.abs(a - b).max(), np.abs(a + b).max()) <= tol


def _check_reduced(x, n, descs):
    """Both LAPACK paths on ``x`` and its ``n x n`` block against ``eig_sym`` and the grid."""
    size = x.shape[0]
    (ref_lam, ref_full), (ref_mu, ref_minor) = eig_sym(x), eig_sym(x[:n, :n])
    iso_full, iso_minor = _isolated(ref_lam), _isolated(ref_mu)
    # the carried path makes eigh's calls: its eigenvalues agree bit for bit on either path
    w = np.random.default_rng(n).standard_normal((size, 3))
    lam, coef = _carry(x, w)
    mu, _ = _carry(x[:n, :n], w[:n])
    assert np.array_equal(lam, ref_lam)
    assert np.array_equal(mu, ref_mu)
    # coefficients on any vectors: squared, so the sign of each eigenvector drops out
    assert coef.shape == (size, 3)
    ref_coef = ref_full.T @ w
    assert np.abs(coef[iso_full] ** 2 - ref_coef[iso_full] ** 2).max(initial=0) <= 1e-12
    # requested vectors: up to sign, on isolated levels
    _, vectors = reduced_eig(x, descs)
    assert vectors.shape == (size, len(descs))
    for c, k in enumerate(descs):
        assert abs(np.linalg.norm(vectors[:, c]) - 1.0) <= 1e-12
        if iso_full[k]:
            assert _same_up_to_sign(vectors[:, c], ref_full[:, k])
    # the trial driver's three overlap reads against the grid, on entries whose two
    # levels are isolated: a carried minor row, carried full columns, and requested pairs
    grid = _grid(ref_full, ref_minor)
    both = iso_minor[:, None] & iso_full[None, :]
    i = descs[-1] % n
    _, minor_vector = reduced_eig(x[:n, :n], i)
    padded = np.zeros((size, 1))
    padded[:n] = minor_vector
    row = _carry(x, padded)[1][:, 0] ** 2
    assert abs(row.sum() - 1.0) <= 1e-10
    assert np.abs(row - grid[i])[both[i]].max(initial=0) <= 1e-12
    cols = _carry(x[:n, :n], vectors[:n])[1] ** 2
    assert cols.shape == (n, len(descs))
    assert np.abs(cols - grid[:, descs])[both[:, descs]].max(initial=0) <= 1e-12
    _, top = reduced_eig(x[:n, :n], 0)
    entries = (top.T @ vectors[:n])[0] ** 2
    for c, j in enumerate(descs):
        if both[0, j]:
            assert abs(entries[c] - grid[0, j]) <= 1e-12


@given(case=_planted_spectra(min_dim=2, max_dim=120))
def test_reduced_eig_matches_eig_sym_and_the_grid(case):
    x, n, descs = case
    _check_reduced(x, n, descs)


@given(case=_planted_spectra(min_dim=2, max_dim=60))
def test_reduced_eig_falls_back_to_eigh_without_the_library(case):
    x, n, descs = case
    w = np.random.default_rng(n).standard_normal((x.shape[0], 2))
    lapack_carried, lapack_requested = _carry(x, w), reduced_eig(x, descs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_openblas", lambda: None)
        carried, requested = _carry(x, w), reduced_eig(x, descs)
        # eig_sym's own numbers, which the LAPACK paths do not reproduce bit for bit
        _, ref = eig_sym(x)
        assert np.array_equal(carried[1], ref.T @ w)
        assert np.array_equal(requested[1], ref[:, descs])
        _check_reduced(x, n, descs)
    assert np.array_equal(carried[0], lapack_carried[0])
    iso = _isolated(carried[0])
    assert np.abs(carried[1][iso] ** 2 - lapack_carried[1][iso] ** 2).max(initial=0) <= 1e-12
    assert np.abs(requested[0] - lapack_requested[0]).max() <= 1e-13 * max(1.0,
                                                                            np.abs(x).max())
    for c, k in enumerate(descs):
        if iso[k]:
            assert _same_up_to_sign(requested[1][:, c], lapack_requested[1][:, c])


def test_reduced_eig_takes_eighs_path_where_eigh_rescales():
    # dsyevd scales a matrix whose largest entry is beyond ~1e146 (or below ~1e-146) first
    x = sample_goe(30, 1.0, derive_stream(5, 0))
    w = np.random.default_rng(5).standard_normal((30, 2))
    for scale in (1e150, 1e-150):
        ref_values, ref = eig_sym(x * scale)
        # eig_sym's own numbers: eigvalsh's and the LAPACK paths' differ in the last bits
        assert np.array_equal(_carry(x * scale, w)[1], ref.T @ w)
        values, vectors = reduced_eig(x * scale, [0, 29])
        assert np.array_equal(values, ref_values)
        assert np.array_equal(vectors, ref[:, [0, 29]])
    zero, coef = _carry(np.zeros((4, 4)), np.eye(4))
    assert np.array_equal(zero, np.zeros(4))
    assert np.abs(np.abs(coef).sum(axis=0) - 1.0).max() <= 1e-15


def test_reduced_eig_refuses_bad_input():
    # every decomposition shares one input check
    def carry(x):
        return spectral._carry_in_place(np.array(x, dtype=float), np.zeros((3, 1), order="F"),
                                        spectral._buffers(3))

    for decompose in (lambda x: reduced_eig(x, 0), carry, eig_sym):
        for bad in (np.eye(3)[:2], np.ones(3), np.zeros((0, 0))):
            with pytest.raises(ValueError, match="square"):
                decompose(bad)
        with pytest.raises(ValueError, match="not exactly symmetric"):
            decompose(np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]]))
        for value in (np.nan, np.inf):
            with pytest.raises(NumericError, match="non-finite 3x3"):
                decompose(np.diag([1.0, value, 2.0]))
    # dormtr reads and writes every row of every carried column
    for reads in (np.ones((2, 1)), np.ones((4, 1)), np.ones(3)):
        with pytest.raises(ValueError, match=re.escape(f"reads of shape {reads.shape} are "
                                                       "not columns of size 3")):
            spectral._carry_in_place(np.eye(3), reads, spectral._buffers(3))


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
    ref, ref_minor = eig_sym(x), eig_sym(x[:n, :n])
    reads = np.asfortranarray(np.random.default_rng(2).standard_normal((size, 3)))
    for a_size, (want_values, want) in ((size, ref), (n, ref_minor)):
        buffers = spectral._buffers(size)
        buffers[0][:] = np.nan
        # the full matrix in the workspace; a minor's block in the first buffer
        where = buffers[1] if a_size == size else buffers[0]
        a = where[:a_size * a_size].reshape(a_size, a_size)
        a[...] = x[:a_size, :a_size]
        carried = reads[:a_size].copy(order="F")
        values, coef = spectral._carry_in_place(a, carried, buffers)
        assert np.array_equal(values, want_values)
        iso = _isolated(want_values)
        want_coef = want.T @ reads[:a_size]
        assert np.abs(coef[iso] ** 2 - want_coef[iso] ** 2).max(initial=0) <= 1e-12
        # S is dstedc's, in the first buffer, and the coefficients are S^T applied to
        # the reads carried to the tridiagonal basis
        s = buffers[0][:a_size * a_size].reshape((a_size, a_size), order="F")
        assert np.abs(s.T @ s - np.eye(a_size)).max() <= 1e-12
        assert np.array_equal(coef, (s.T @ carried)[::-1])


def test_readers_audit_what_they_read():
    x = sample_goe(20, 1.0, derive_stream(9, 0))
    cols = _grid(eig_sym(x)[1], eig_sym(x[:8, :8])[1])

    # grids inflated by a factor: each breaks only the sum it is aimed at, not the entries
    widest, largest = cols.sum(axis=0).max(), cols.max()
    with pytest.raises(NumericError, match="column sum exceeds 1"):
        spectral._audit_overlaps(cols * (2.0 / (widest + largest)), whole_rows=True)
    with pytest.raises(NumericError, match="entries escape"):
        spectral._audit_overlaps(cols[:, [5]] * (4.0 / cols[0, 5]), whole_rows=False)
    # the whole grid: its rows are audited too, not only its columns
    with pytest.raises(NumericError, match="row sums deviate"):
        spectral._audit_overlaps(cols * (1.0 + 1e-8), whole_rows=True)
    # the trial driver's audit of partial reads: an empty one passes
    spectral._audit_overlaps(np.empty((8, 0)), whole_rows=False)
    assert spectral._audit_overlaps(cols, whole_rows=True) is None


def test_vectors_refuse_descending_indices_outside_the_spectrum():
    # descending index k reads ascending column dim - 1 - k, which must not wrap around
    x = sample_goe(6, 1.0, derive_stream(4, 0))
    for bad, first in ((6, 6), (7, 7), (-1, -1), ([0, 6], 6), (np.array([5, -2]), -2)):
        with pytest.raises(IndexError, match=rf"descending index {first} outside \[0, 6\)"):
            reduced_eig(x, bad)
    with pytest.raises(IndexError, match=r"descending index 3 outside \[0, 3\)"):
        reduced_eig(x[:3, :3], 3)


def _check_requested(x, request, ref, eigvalsh=None):
    """``reduced_eig(x, request)`` against ``eig_sym``'s ``ref``: values and vectors.

    The vectors are compared, column by column, with ``ref``'s at the sorted
    distinct indices requested.  ``eigvalsh`` holds ``eigvalsh(x)``
    descending where the LAPACK path runs: it calls ``dsytrd`` then
    ``dsterf``, as the request path does.
    """
    values, vectors = reduced_eig(x, request)
    ref_values, ref_vectors = ref
    held = spectral._requested(request, ref_values)
    want = np.unique(request(ref_values) if callable(request) else request)
    assert np.array_equal(held, want) and vectors.shape == (x.shape[0], held.size)
    assert np.abs(values - ref_values).max() <= 1e-13 * max(1.0, np.abs(x).max())
    if eigvalsh is not None:
        assert np.array_equal(values, eigvalsh)
    for c, k in enumerate(held):
        assert _same_up_to_sign(vectors[:, c], ref_vectors[:, k])


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
    values, vectors = reduced_eig(x, [0, 4, 29])
    assert np.array_equal(values, ref[0])
    assert np.array_equal(vectors, ref[1][:, [0, 4, 29]])
    with pytest.raises(IndexError, match=r"descending index 30 outside \[0, 30\)"):
        reduced_eig(x, [30])


def test_reduced_eig_leaves_its_input_alone_and_trials_reduce_their_own():
    x = sample_goe(30, 1.0, derive_stream(7, 0))
    kept = x.copy()
    for request in ([0, 3], [], lambda w: [29]):
        reduced_eig(x, request)
        assert np.array_equal(x, kept)
        owned = x.copy()
        values = spectral._reduce_in_place(owned, request)[0]
        assert np.array_equal(values, reduced_eig(x, request)[0])
        # reduced in place: dsytrd's Householder vectors overwrite the lower triangle
        assert np.array_equal(owned, x) != _lapack_path()
    owned = x.copy()
    values = spectral._carry_in_place(owned, np.ones((30, 1), order="F"),
                                      spectral._buffers(30))[0]
    assert np.array_equal(values, eig_sym(x)[0])
    assert np.array_equal(owned, x) != _lapack_path()
