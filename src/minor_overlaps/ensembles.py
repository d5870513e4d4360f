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
# numpy imports numpy.random lazily; importing it with the package keeps that
# import out of the trial pool, whose workers would otherwise wait on it
from numpy.random import Generator, SeedSequence, default_rng

from .errors import InputError, require


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one reproducible random stream."""

    master_seed: int
    stream_id: int = 0

    def generator(self) -> Generator:
        seq = SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_id,))
        return default_rng(seq)


def derive_stream(master_seed: int, trial_index: int) -> SeedSpec:
    """Map (master seed, trial index) to an independent stream.

    The mapping is injective and stable: stream ``k`` is PCG64 seeded with
    ``SeedSequence(entropy=master_seed, spawn_key=(k,))``.
    """
    return SeedSpec(master_seed=int(master_seed), stream_id=int(trial_index))


def check_seed(seed: int, name: str):
    """Refuse a negative seed, which no stream takes, by its argument's ``name``."""
    require(name, seed, seed >= 0, ">= 0")


def _pair(n_dim: int, out):
    """``out``, or two new ``(n_dim, n_dim)`` float arrays: a draw buffer and the sample's."""
    if out is None:
        return np.empty((n_dim, n_dim)), np.empty((n_dim, n_dim))
    draw, h = out
    if draw.shape != (n_dim, n_dim) or h.shape != (n_dim, n_dim):
        raise ValueError(f"out must hold two {n_dim}x{n_dim} arrays, got shapes "
                         f"{draw.shape} and {h.shape}")
    return draw, h


def _symmetric_gaussian(n_dim: int, var_off: float, rng: Generator, out=None) -> np.ndarray:
    # (a + a.T) is bitwise symmetric; entries get variance 2*var_off on the
    # diagonal and var_off off it, as required for additive Gaussian noise.
    a, h = _pair(n_dim, out)
    rng.standard_normal(out=a)
    np.add(a, a.T, out=h)
    h *= np.sqrt(var_off / 2.0)
    return h


def sample_goe(n_dim: int, t: float, seed: SeedSpec, out=None) -> np.ndarray:
    """Gaussian noise snapshot at time ``t``.

    Entries are independent centered Gaussians with variance ``2 t / N`` on
    the diagonal and ``t / N`` off it.  ``t = 0`` gives the zero matrix.
    ``out`` is None, for a new matrix, or a pair of C-contiguous ``(N, N)``
    float arrays: the draw is made into the first and the sample written into
    the second, which is returned; the values are the same bit for bit.
    """
    require("n_dim", n_dim, n_dim >= 1, ">= 1")
    require("t", t, t >= 0, ">= 0")
    if t == 0.0:
        h = _pair(n_dim, out)[1]
        h.fill(0.0)
        return h
    return _symmetric_gaussian(n_dim, t / n_dim, seed.generator(), out)


def sample_path(n_dim: int, t_grid, seed: SeedSpec):
    """Cumulative noise along an ascending time grid, one grid time at a time.

    Yields the noise matrix at every grid time, each a new array, so a
    consumer that drops a step's matrix before taking the next holds one.
    Increments between consecutive grid times are independent, so the value
    at grid time ``t`` is distributed like ``sample_goe(n_dim, t, ...)``.  A
    bad grid is refused by name at the call, before anything is drawn.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    require("t_grid", f"shape {t_grid.shape}", t_grid.ndim == 1 and t_grid.size >= 1,
            "a non-empty 1-d sequence")
    require("t_grid", t_grid[0], t_grid[0] >= 0, "a grid starting at a time >= 0")
    falls = np.flatnonzero(np.diff(t_grid) <= 0)
    if falls.size:
        k = falls[0]
        raise InputError("t_grid", f"{t_grid[k + 1]} after {t_grid[k]}", "strictly increasing")
    return _cumulative_noise(n_dim, t_grid, seed.generator())


def _cumulative_noise(n_dim: int, t_grid: np.ndarray, rng):
    h = np.zeros((n_dim, n_dim))
    prev = 0.0
    for t in t_grid:
        dt = t - prev
        if dt > 0:
            h = h + _symmetric_gaussian(n_dim, dt / n_dim, rng)
        yield h
        prev = t


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
    require("spike", spike, spike >= 0, ">= 0")
    return np.full(n_dim, np.sqrt(spike / n_dim))


def split_spike_vector(n_dim: int, n: int, spike: float, minor_spike: float) -> np.ndarray:
    """Two-level vector with ``||psi||^2 = spike`` and ``||psi[:n]||^2 = minor_spike``.

    Generalizes :func:`uniform_spike_vector` (recovered at
    ``minor_spike = spike * n / N``) so the minor's spike can be chosen
    independently, as long as it does not exceed the full spike.
    """
    require("n", n, 1 <= n < n_dim, f"in [1, {n_dim - 1}]")
    require("minor_spike", minor_spike, 0 < minor_spike <= spike, f"in (0, {spike}]")
    psi = np.empty(n_dim)
    psi[:n] = np.sqrt(minor_spike / n)
    psi[n:] = np.sqrt((spike - minor_spike) / (n_dim - n))
    return psi


def tail_spike_vector(n_dim: int, n: int, spike: float) -> np.ndarray:
    """Vector supported on the last ``N - n`` coordinates with ``||psi||^2 = spike``.

    The resulting rank-one matrix has isolated eigenvalue ``spike`` while its
    top-left ``n x n`` minor is identically zero (spike-bulk initializer).
    """
    require("n", n, 1 <= n < n_dim, f"in [1, {n_dim - 1}]")
    require("spike", spike, spike >= 0, ">= 0")
    psi = np.zeros(n_dim)
    psi[n:] = np.sqrt(spike / (n_dim - n))
    return psi


def sample_bernoulli(n_dim: int, p: float, seed: SeedSpec, out=None) -> np.ndarray:
    """Symmetric matrix of i.i.d. Bernoulli(p) entries rescaled by ``1/sqrt(N)``.

    The diagonal is included in the Bernoulli draw: entry ``(i, j)`` with
    ``i <= j`` is ``U_ij < p`` for the uniform draw ``U``, and the lower
    triangle mirrors the upper one.  ``out`` is as for :func:`sample_goe`.
    """
    require("n_dim", n_dim, n_dim >= 1, ">= 1")
    require("p", p, 0.0 <= p <= 1.0, "in [0, 1]")
    u, x = _pair(n_dim, out)
    seed.generator().random(out=u)
    np.less(u, p, out=x)
    for i in range(1, n_dim):
        x[i, :i] = x[:i, i]
    x /= np.sqrt(n_dim)
    return x
