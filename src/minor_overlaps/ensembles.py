"""Seeded sampling of the random matrix ensembles used throughout.

All matrices are dense ``numpy.ndarray`` of shape ``(N, N)`` with *exact*
(bitwise) symmetry: entry ``(i, j)`` and entry ``(j, i)`` are produced by the
same floating-point expression.  Samplers are pure functions of a
:class:`SeedSpec`, so they are safe to call concurrently; parallel Monte
Carlo assigns one stream per trial with :func:`derive_stream` and reduces in
trial-index order.

Random numbers come from ``numpy.random.Generator`` (PCG64) seeded through
``numpy.random.SeedSequence(entropy=master_seed, spawn_key=(stream_id,))``.
Given a fixed numpy build, identical ``(master_seed, stream_id)`` reproduce
identical matrices bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one reproducible random stream."""

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed,
                                     spawn_key=(self.stream_id,))
        return np.random.default_rng(seq)


def derive_stream(master_seed: int, trial_index: int) -> SeedSpec:
    """Map (master seed, trial index) to an independent stream.

    The mapping is injective and stable: stream ``k`` is PCG64 seeded with
    ``SeedSequence(entropy=master_seed, spawn_key=(k,))``.
    """
    return SeedSpec(master_seed=int(master_seed), stream_id=int(trial_index))


def _symmetric_gaussian(n_dim: int, var_off: float, rng: np.random.Generator) -> np.ndarray:
    # (a + a.T) is bitwise symmetric; entries get variance 2*var_off on the
    # diagonal and var_off off it, as required for additive Gaussian noise.
    a = rng.standard_normal((n_dim, n_dim))
    h = a + a.T
    h *= np.sqrt(var_off / 2.0)
    return h


def sample_goe(n_dim: int, t: float, seed: SeedSpec) -> np.ndarray:
    """Gaussian noise snapshot at time ``t``.

    Entries are independent centered Gaussians with variance ``2 t / N`` on
    the diagonal and ``t / N`` off it.  ``t = 0`` returns the zero matrix.
    """
    if n_dim < 1:
        raise ValueError("n_dim must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return np.zeros((n_dim, n_dim))
    return _symmetric_gaussian(n_dim, t / n_dim, seed.generator())


def sample_path(n_dim: int, t_grid, seed: SeedSpec) -> list[np.ndarray]:
    """Cumulative noise along an ascending time grid.

    Returns the noise matrix at every grid time.  Increments between
    consecutive grid times are independent, so the value at grid time ``t``
    is distributed like ``sample_goe(n_dim, t, ...)``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a non-empty 1-d sequence")
    if t_grid[0] < 0:
        raise ValueError("t_grid must start at a time >= 0")
    if t_grid.size > 1 and not np.all(np.diff(t_grid) > 0):
        raise ValueError("t_grid must be strictly increasing")

    rng = seed.generator()
    out = []
    h = np.zeros((n_dim, n_dim))
    prev = 0.0
    for t in t_grid:
        dt = t - prev
        if dt > 0:
            h = h + _symmetric_gaussian(n_dim, dt / n_dim, rng)
        out.append(h)
        prev = t
    return out


def rank_one(psi: np.ndarray) -> np.ndarray:
    """Rank-one matrix ``psi psi^T``.

    Its unique nonzero eigenvalue is ``||psi||^2`` with eigenvector
    ``psi / ||psi||`` (zero input yields the zero matrix).
    """
    psi = np.asarray(psi, dtype=float).ravel()
    if psi.size < 1:
        raise ValueError("psi must be non-empty")
    return np.outer(psi, psi)


def uniform_spike_vector(n_dim: int, spike: float) -> np.ndarray:
    """Constant vector with ``||psi||^2 = spike``.

    Feeding it to :func:`rank_one` gives a deterministic part whose isolated
    eigenvalue is ``spike`` and whose minor keeps a spike at
    ``spike * n / N``.
    """
    if spike < 0:
        raise ValueError("spike must be >= 0")
    return np.full(n_dim, np.sqrt(spike / n_dim))


def split_spike_vector(n_dim: int, n: int, spike: float, minor_spike: float) -> np.ndarray:
    """Two-level vector with ``||psi||^2 = spike`` and ``||psi[:n]||^2 = minor_spike``.

    Generalizes :func:`uniform_spike_vector` (recovered at
    ``minor_spike = spike * n / N``) so the minor's spike can be chosen
    independently, as long as it does not exceed the full spike.
    """
    if not 1 <= n < n_dim:
        raise ValueError("need 1 <= n < n_dim for a split spike vector")
    if not 0 < minor_spike <= spike:
        raise ValueError("need 0 < minor_spike <= spike")
    psi = np.empty(n_dim)
    psi[:n] = np.sqrt(minor_spike / n)
    psi[n:] = np.sqrt((spike - minor_spike) / (n_dim - n))
    return psi


def tail_spike_vector(n_dim: int, n: int, spike: float) -> np.ndarray:
    """Vector supported on the last ``N - n`` coordinates with ``||psi||^2 = spike``.

    The resulting rank-one matrix has isolated eigenvalue ``spike`` while its
    top-left ``n x n`` minor is identically zero (spike-bulk initializer).
    """
    if not 1 <= n < n_dim:
        raise ValueError("need 1 <= n < n_dim for a tail spike vector")
    if spike < 0:
        raise ValueError("spike must be >= 0")
    psi = np.zeros(n_dim)
    psi[n:] = np.sqrt(spike / (n_dim - n))
    return psi


def sample_bernoulli(n_dim: int, p: float, seed: SeedSpec) -> np.ndarray:
    """Symmetric matrix of i.i.d. Bernoulli(p) entries rescaled by ``1/sqrt(N)``.

    The diagonal is included in the Bernoulli draw.
    """
    if n_dim < 1:
        raise ValueError("n_dim must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = seed.generator()
    flat = (rng.random((n_dim, n_dim)) < p).astype(float)
    upper = np.triu(flat)
    x = upper + upper.T - np.diag(np.diag(upper))
    x /= np.sqrt(n_dim)
    return x
