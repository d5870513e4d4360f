"""Symmetric eigendecomposition, overlap grids, and interlacing checks.

Eigenvalues are kept in descending order everywhere (index 1 = largest),
matching the convention that quantile ``x`` measures spectral mass *above*
the value.  The minor of an ``N x N`` matrix is its bare leading ``n x n``
block, decomposed at size ``n``; its eigenvectors live on the first ``n``
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvectors.

    ``eigenvectors[:, k]`` is the unit eigenvector paired with
    ``eigenvalues[k]``; the overall sign of each column is arbitrary.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def reconstruction_error(self, x: np.ndarray) -> float:
        """Max-norm error of ``V diag(w) V^T`` against ``x``, relative to ``max(1, |x|_inf)``."""
        v, w = self.eigenvectors, self.eigenvalues
        err = np.max(np.abs((v * w) @ v.T - x))
        return float(err / max(1.0, np.max(np.abs(x))))


def eig_sym(x: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix, eigenvalues descending."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    if not np.array_equal(x, x.T):
        raise ValueError("matrix is not exactly symmetric")
    try:
        w, v = np.linalg.eigh(x)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"symmetric eigensolver failed on {x.shape[0]}x{x.shape[0]} matrix "
            f"(|X|_inf={np.max(np.abs(x)):.3e}): {exc}"
        ) from exc
    return SpectralDecomposition(eigenvalues=w[::-1].copy(),
                                 eigenvectors=v[:, ::-1].copy())


@dataclass(frozen=True)
class OverlapGrid:
    """Squared overlaps between minor eigenvectors (rows) and full ones (columns).

    ``values[i, j]`` is the squared inner product of the minor's i-th
    eigenvector (descending) with the first ``n`` coordinates of the full
    matrix's j-th eigenvector ``psi_j``.  Every row sums to 1 (a unit vector
    expanded in a complete orthonormal basis); column ``j`` sums to
    ``||psi_j[:n]||^2``, at most 1.
    """

    n: int
    n_dim: int
    values: np.ndarray
    minor_evals: np.ndarray
    full_evals: np.ndarray

    def __post_init__(self):
        vals = self.values
        if vals.shape != (self.n, self.n_dim):
            raise ValueError("overlap grid shape mismatch")
        if vals.min() < 0 or vals.max() > 1 + 1e-12:
            raise NumericError("overlap grid entries escape [0, 1]")
        row_err = np.max(np.abs(vals.sum(axis=1) - 1.0))
        if row_err > 1e-10:
            raise NumericError(f"overlap grid row sums deviate from 1 by {row_err:.3e}")
        col_excess = vals.sum(axis=0).max() - 1.0
        if col_excess > 1e-10:
            raise NumericError(f"overlap grid column sum exceeds 1 by {col_excess:.3e}")

    def row_sum_error(self) -> float:
        return float(np.max(np.abs(self.values.sum(axis=1) - 1.0)))


def overlap_grid(full: SpectralDecomposition, minor: SpectralDecomposition) -> OverlapGrid:
    """Build the ``n x N`` squared-overlap grid from two decompositions.

    ``minor`` decomposes the bare leading ``n x n`` block of the full matrix,
    so ``n`` is ``minor.dim``; its eigenvectors meet the first ``n``
    coordinates of the full eigenvectors.
    """
    n_dim, n = full.dim, minor.dim
    if not 1 <= n <= n_dim:
        raise ValueError(f"minor of size {n} does not fit a {n_dim}x{n_dim} matrix")
    values = (minor.eigenvectors.T @ full.eigenvectors[:n, :]) ** 2
    return OverlapGrid(n=n, n_dim=n_dim, values=values,
                       minor_evals=minor.eigenvalues, full_evals=full.eigenvalues)


def check_interlacing(full_evals: np.ndarray, minor_evals: np.ndarray):
    """Cauchy interlacing check between a spectrum and its minor's spectrum.

    Returns ``(ok, worst_margin)`` where ``worst_margin`` is the minimal slack
    over all inequalities (negative means a violation of that size).  The
    pass tolerance is ``1e-9 * max(1, |full_evals|_inf)``.
    """
    lam = np.asarray(full_evals, dtype=float)
    mu = np.asarray(minor_evals, dtype=float)
    n_dim, n = lam.size, mu.size
    if n > n_dim:
        raise ValueError("minor spectrum longer than full spectrum")
    upper = lam[:n] - mu                  # requires mu_i <= lam_i
    lower = mu - lam[n_dim - n:]          # requires lam_{i+N-n} <= mu_i
    worst = float(min(upper.min(), lower.min()))
    tol = 1e-9 * max(1.0, float(np.max(np.abs(lam))) if n_dim else 1.0)
    return worst >= -tol, worst


def quantile_index(x: float, size: int) -> int:
    """1-based index at quantile ``x`` of a descending spectrum.

    Index 1 is the LARGEST eigenvalue; ``x`` counts mass from the top, so
    ``x = 0`` maps to the top eigenvalue and ``x = 1`` to the bottom one.
    Rounding is half-up, as in :func:`minor_size`, clamped to ``[1, size]``.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("quantile x must lie in [0, 1]")
    if size < 1:
        raise ValueError("size must be >= 1")
    return int(np.clip(_round_half_up(x * size), 1, size))


def minor_size(q: float, n_dim: int) -> int:
    """Minor size ``n = round(q N)`` for minor fraction ``q``.

    Rounding is half-up, as in :func:`quantile_index`: ``q = 0.5`` at
    ``N = 81`` gives ``n = 41``.  Callers check that ``n`` fits their run.
    """
    return _round_half_up(q * n_dim)


def _round_half_up(v: float) -> int:
    return int(np.floor(v + 0.5))
