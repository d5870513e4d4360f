"""Finite-size experiments that estimate overlaps and compare against theory.

The runners :func:`run_bulk_experiment`, :func:`run_spike_spike`,
:func:`run_spike_bulk`, :func:`run_bernoulli_bulk` and
:func:`run_bernoulli_spike` each take an :class:`ExperimentConfig` and return
an :class:`ExperimentReport`; :func:`spike_path_series` ``(n_dim, q, spike,
t_max, steps, seed)`` follows one noise path instead.

Every runner runs its trials through :func:`_run_decomposed`: one
independent random stream per trial
(:func:`minor_overlaps.ensembles.derive_stream`), each trial draws its matrix
into its pool worker's two reused buffers and reduces it and the bare leading
``n x n`` block to tridiagonal form once each, in place, with no ``N x N``
eigenvector back-transform: one side forms only the eigenvectors its runner
asks for (:func:`~minor_overlaps.spectral.reduced_eig`), and where the other
side reads every eigenvector it gets their coefficients on it instead
(:func:`~minor_overlaps.spectral._carry_in_place`).  The trial audits Cauchy
interlacing on every eigenvalue and hands its runner the eigenvalues and
only the overlaps it uses (a grid row, columns or one entry), audited.
Trials run concurrently; :func:`_run_trials` writes each kept trial's fields
into one row of per-field arrays as it arrives, in trial-index order, and
alone counts the aborted and absorbed trials and refuses a run.  99%
confidence intervals use the normal approximation over per-trial values
(:func:`_trial_estimate`), and one rule judges them (:func:`_coverage`).  The
three binned runners share one tail (:func:`_binned_report`), and every run,
the probes included, ends in :func:`_report`.  The trial pool has one
worker per available core (``threads=0``).  Every runner holds numpy's
OpenBLAS at one thread from entry to return, set-up and theory included
(:func:`~minor_overlaps.spectral._one_blas_thread`; without that library
every decomposition is ``eigh``'s and nothing is held), so each worker
decomposes single-threaded and the caller's BLAS setting is restored
afterwards.  Reports therefore reproduce bit for bit for a fixed master
seed, independent of worker count and of the caller's BLAS thread count.
The drift probe streams its increment blocks through the same pool
(:func:`_pool_map`).

Binned comparisons use the density-weighted average of the theory curve over
each bin rather than its value at the bin center: the Monte Carlo bin mean
averages eigenvalues distributed with density rho across the bin, and for
sharply peaked kernels the center value differs from that average by far
more than a confidence interval.
"""

from __future__ import annotations

import collections
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral
from .ensembles import (
    check_seed,
    derive_stream,
    rank_one,
    sample_bernoulli,
    sample_goe,
    sample_path,
    split_spike_vector,
    tail_spike_vector,
    uniform_spike_vector,
)
from .errors import NumericError, require
from .freeprob import (
    SpectrumModel,
    boundary_values,
    check_realizable,
    representative_diagonal,
    scan_support_edge,
    semicircle_pole_integral,
    semicircle_tail_mass,
    solve_minor_stieltjes,
    solve_stieltjes,
)
from .overlaps_theory import (
    FiniteInitialTransform,
    _bin_edges,
    _bulk_bin_edges,
    _check_bins,
    interlace_interval,
    overlap_kernel,
    spike_bulk_mass,
    spike_spike_overlap,
)
from .spectral import (
    _audit_overlaps,
    _buffers,
    _carry_in_place,
    _one_blas_thread,
    _reduce_in_place,
    check_interlacing,
    minor_size,
    quantile_index,
)

Z_99 = 2.575829303548901  # two-sided 99% normal quantile
#: share of calibrated 99% intervals that miss the value they estimate
CI_MISS_RATE = 0.01
MIN_CI_TRIALS = 100
MAX_ABORT_FRACTION = 0.01
#: pool workers a run may take per available core (:func:`max_threads`)
MAX_THREADS_PER_CPU = 4
#: interior bins sit at least this fraction of the bulk diameter away from an edge
INTERIOR_EDGE_FRACTION = 0.15
#: a spike is considered absorbed when closer than 0.05 * radius to the bulk edge
SPIKE_ABSORB_MARGIN = 0.05
#: 5-point Gauss-Legendre nodes and weights on [-1, 1], ``leggauss(5)`` bit for bit
_GAUSS_NODES = np.array([-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831,
                         0.906179845938664])
_GAUSS_WEIGHTS = np.array([0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                           0.4786286704993663, 0.23692688505618928])


# ---------------------------------------------------------------------------
# configuration and report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ASpec:
    """Deterministic part of the observed matrix.

    ``kind``:
      * ``"null"``          -- no deterministic part
      * ``"uniform_spike"`` -- rank-one from a constant vector; isolated
                               eigenvalue ``spike``, minor spike ``spike*n/N``
      * ``"split_spike"``   -- rank-one with independently chosen minor spike
      * ``"tail_spike"``    -- rank-one supported outside the minor; isolated
                               eigenvalue ``spike``, minor untouched
      * ``"explicit"``      -- caller-provided symmetric matrix
    """

    kind: str = "null"
    spike: float = 0.0
    minor_spike: float | None = None
    matrix: np.ndarray | None = None

    def build(self, n_dim: int, n: int) -> np.ndarray | None:
        if self.kind == "null":
            return None
        if self.kind == "uniform_spike":
            return rank_one(uniform_spike_vector(n_dim, self.spike))
        if self.kind == "split_spike":
            if self.minor_spike is None:
                raise ValueError("split_spike ASpec needs minor_spike")
            return rank_one(split_spike_vector(n_dim, n, self.spike, self.minor_spike))
        if self.kind == "tail_spike":
            return rank_one(tail_spike_vector(n_dim, n, self.spike))
        if self.kind == "explicit":
            if self.matrix is None:
                raise ValueError("explicit ASpec needs a matrix")
            m = np.asarray(self.matrix, dtype=float)
            if m.shape != (n_dim, n_dim):
                raise ValueError(f"explicit matrix has shape {m.shape}, expected ({n_dim}, {n_dim})")
            return m
        raise ValueError(f"unknown ASpec kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment parameters.

    Building one refuses ``master_seed``, ``trials``, ``bins`` and ``threads``
    out of range, and a ``bin_range`` other than None or a finite increasing
    pair, by name (:class:`~minor_overlaps.errors.InputError`); each runner
    refuses the other fields it reads before any set-up.  ``target``
    names the experiment in the JSON config; no runner reads it.
    """

    n_dim: int
    q: float
    t: float
    trials: int
    master_seed: int
    target: str = "bulk"
    x: float = 0.5
    a_spec: ASpec = field(default_factory=ASpec)
    p: float = 0.0
    n_dims: tuple = ()
    bins: int = 25
    bin_range: tuple | None = None
    threads: int = 0

    def __post_init__(self):
        check_seed(self.master_seed, "master_seed")
        require("trials", self.trials, self.trials >= MIN_CI_TRIALS, f">= {MIN_CI_TRIALS}")
        _check_bins(self.bins)
        _check_threads(self.threads)
        pair = self.bin_range
        ok = pair is None or (np.shape(pair) == (2,) and np.isfinite(pair).all()
                              and pair[0] < pair[1])
        require("bin_range", pair, ok, "a finite increasing pair (lo, hi)")

    @property
    def n(self) -> int:
        """Minor size ``round(qN)``, halves rounded up (:func:`~minor_overlaps.spectral.minor_size`)."""
        return minor_size(self.q, self.n_dim)


@dataclass(frozen=True)
class OverlapEstimate:
    """One Monte Carlo estimate with its 99% confidence interval."""

    center: float
    mean: float | None
    ci_low: float | None
    ci_high: float | None
    n_samples: int
    kind: str = "bin"


@dataclass(frozen=True)
class ExperimentReport:
    """Estimates paired one-to-one with theory values.

    ``coverage`` is the fraction of judged rows (a binned run's interior bins)
    whose confidence interval contains the matched theory value (None when no
    row is judged).  ``extras`` carries run diagnostics and is not part of the
    serialized schema.
    """

    config: object
    estimates: tuple
    theory: tuple
    coverage: float | None
    wall_time_s: float
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TrajectorySeries:
    """Single-path time series of spike positions and empirical bulk tops."""

    t: np.ndarray
    lambda1: np.ndarray
    mu1: np.ndarray
    edge_full: np.ndarray
    edge_minor: np.ndarray


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _available_cpus() -> int:
    """The cores this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def max_threads() -> int:
    """The most pool workers a run takes: ``MAX_THREADS_PER_CPU`` per available core.

    Each worker holds about ``2 N^2`` floats of buffers, and up to
    ``2 * threads + 1`` items are in flight at once.
    """
    return MAX_THREADS_PER_CPU * _available_cpus()


def _check_threads(threads: int):
    """Refuse a pool size below 0 or above :func:`max_threads` by the name ``threads``."""
    require("threads", threads, threads >= 0, ">= 0")
    limit = max_threads()
    require("threads", threads, threads <= limit,
            f"at most {limit} ({MAX_THREADS_PER_CPU} per available core)")


def _pool_map(threads: int, fn, items):
    """Map ``fn`` over ``items`` on the trial pool; results stream in item order.

    ``threads=0`` means one worker per core this process may run on.  While
    ``fn`` runs, OpenBLAS is held at one thread, so each pool worker gets one
    BLAS thread, the pool never oversubscribes the cores and the arithmetic,
    and hence the output bytes, do not depend on ``threads``.  Returns
    ``(results, used)``: ``results`` is an iterator over ``fn(item)`` for each
    item in turn, and ``used`` holds the resolved ``pool_threads`` and the
    ``trial_blas_threads`` ``fn`` runs with (None where nothing is held:
    without :func:`~minor_overlaps.spectral._openblas`).  ``items`` is read
    in the caller's thread, in order, as the caller reads ``results``, and
    never more than ``2 * threads + 1`` items ahead of the results it has
    read: an item that draws random numbers draws them in item order
    whatever the worker count, and a caller that reduces each result as it
    arrives holds a bounded number of items and results.  The caller reads
    ``results`` to its end or closes it.  ``threads`` is refused as
    :class:`ExperimentConfig` refuses it, before any worker starts.
    """
    _check_threads(threads)
    threads = threads or _available_cpus()
    used = {"pool_threads": threads,
            "trial_blas_threads": None if spectral._openblas() is None else 1}

    def results():
        with _one_blas_thread(), ThreadPoolExecutor(max_workers=threads) as pool:
            ahead = collections.deque()
            for item in items:
                ahead.append(pool.submit(fn, item))
                if len(ahead) > 2 * threads:
                    yield ahead.popleft().result()
            while ahead:
                yield ahead.popleft().result()

    return results(), used


def _run_trials(trials: int, threads: int, worker):
    """Run ``worker(m)`` for each trial ``m`` on :func:`_pool_map`; returns ``(columns, run)``.

    ``worker`` returns a tuple of fields, or None for a dropped trial (an
    absorbed spike); a ``NumericError`` it raises aborts the trial.  Field
    ``i`` of the k-th kept result, in trial order, fills row ``k`` of
    ``columns[i]`` as it arrives: a float array of shape ``(kept, *shape of
    the field)``, allocated on the first kept result, so the run holds no
    object per trial.  ``run`` holds the counts ``aborted_trials`` and
    ``absorbed_trials`` and ``used`` from :func:`_pool_map`.  A run with
    more than ``MAX_ABORT_FRACTION`` aborted trials, or with fewer than two
    kept, is refused (``NumericError``).
    """

    def safe(m):
        try:
            return worker(m)
        except NumericError as exc:  # marks the trial aborted
            return exc

    results, used = _pool_map(threads, safe, range(trials))
    columns, kept, aborted = (), 0, 0
    for result in results:
        if isinstance(result, NumericError):
            aborted += 1
        elif result is not None:
            columns = columns or [np.empty((trials, *np.shape(v))) for v in result]
            for column, value in zip(columns, result):
                column[kept] = value
            kept += 1
    run = {"aborted_trials": aborted, "absorbed_trials": trials - kept - aborted, **used}
    if aborted > MAX_ABORT_FRACTION * trials:
        raise NumericError(f"{aborted}/{trials} trials aborted; run rejected")
    if kept < 2:
        raise NumericError(f"{kept} of {trials} trials kept ({aborted} aborted, "
                           f"{run['absorbed_trials']} absorbed); a run needs at least 2")
    return [column[:kept] for column in columns], run


def _check_minor(n_dim: int, q: float):
    """Refuse by name an ``n_dim`` or a ``q`` that leaves the minor no row or the full side none."""
    require("n_dim", n_dim, n_dim >= 2, ">= 2")
    require("q", q, 0.0 < q < 1.0 and 1 <= minor_size(q, n_dim) <= n_dim - 1,
            "in (0, 1) with 1 <= round(qN) <= N-1")


def _estimate(center, mean, half, n_samples, kind) -> OverlapEstimate:
    """Estimate with its 99% interval ``mean +- half``."""
    return OverlapEstimate(center=float(center), mean=float(mean), ci_low=float(mean - half),
                           ci_high=float(mean + half), n_samples=int(n_samples), kind=kind)


def _trial_estimate(center, values, kind="bin", n_samples=None) -> OverlapEstimate:
    """Across-trial estimate: the mean of ``values`` with ``+- Z_99 * sd / sqrt(count)``.

    NaN values (a bin a trial left empty) are dropped; fewer than two
    remaining values give a row without estimate.  ``n_samples`` defaults to
    the count of values.
    """
    values = np.asarray(values, dtype=float)
    values = values[~np.isnan(values)]
    n_samples = values.size if n_samples is None else n_samples
    if values.size < 2:
        return OverlapEstimate(center=float(center), mean=None, ci_low=None, ci_high=None,
                               n_samples=int(n_samples), kind=kind)
    return _estimate(center, values.mean(), Z_99 * values.std(ddof=1) / np.sqrt(values.size),
                     n_samples, kind)


def _coverage(rows, theory, judged=None):
    """Share of the judged ``rows`` whose interval covers ``theory``, and ``(k, K)``.

    A row is judged where ``judged`` (default: everywhere) is true, it has an
    estimate and its theory value is finite; ``k`` of the ``K`` judged
    intervals miss.  The share is None when no row is judged.
    """
    judged = [True] * len(rows) if judged is None else judged
    pairs = [(est, th) for est, th, keep in zip(rows, theory, judged)
             if keep and est.mean is not None and not np.isnan(th)]
    hits = sum(est.ci_low <= th <= est.ci_high for est, th in pairs)
    return (hits / len(pairs) if pairs else None), (len(pairs) - hits, len(pairs))


def _report(config, start: float, rows, theory, extras: dict, judged=None) -> ExperimentReport:
    """Every run's report: ``rows`` against ``theory``, timed from ``start``.

    Coverage is :func:`_coverage` over the ``judged`` rows; ``extras`` gains its ``misses``.
    """
    coverage, misses = _coverage(rows, theory, judged)
    return ExperimentReport(config=config, estimates=tuple(rows),
                            theory=tuple(float(v) for v in theory), coverage=coverage,
                            wall_time_s=time.perf_counter() - start,
                            extras={**extras, "misses": misses})


def _binned_report(config, start: float, means, counts, edges: np.ndarray, support, theory,
                   rho_bar: np.ndarray, extras: dict, tail=()) -> ExperimentReport:
    """Report of a binned runner, timed from ``start``, from its trials and binned theory.

    ``means`` and ``counts`` hold one row of per-bin means and counts
    (:func:`_bin_means`) per kept trial; a bin's row estimates across its
    column of trial means.  Bins at least ``INTERIOR_EDGE_FRACTION`` of the
    ``support = (lo, hi)`` width from both ends are judged.  ``tail`` holds
    unjudged ``(estimate, theory)`` rows that follow the bins.  ``extras``,
    which carries the run counts, gains ``bin_edges``, ``rho_bin``,
    ``interior`` and ``misses``.
    """
    n_samples = counts.sum(axis=0).astype(int)
    centers = 0.5 * (edges[:-1] + edges[1:])
    rows = [_trial_estimate(c, means[:, b], n_samples=n_samples[b])
            for b, c in enumerate(centers)]
    lo, hi = support
    margin = INTERIOR_EDGE_FRACTION * (hi - lo)
    interior = ((centers - lo) >= margin) & ((hi - centers) >= margin)
    return _report(config, start, rows + [est for est, _ in tail],
                   [*theory, *(th for _, th in tail)],
                   {**extras, "bin_edges": edges.tolist(), "rho_bin": rho_bar.tolist(),
                    "interior": interior.tolist()}, [*interior, *[False] * len(tail)])


def miss_tail_probability(misses: int, judged: int) -> float:
    """``P(Binomial(judged, CI_MISS_RATE) >= misses)``: the chance of this many misses.

    With exact theory each 99% interval misses with probability
    ``CI_MISS_RATE``; a small tail says the misses are more than chance.
    """
    p = CI_MISS_RATE
    return sum(math.comb(judged, j) * p ** j * (1.0 - p) ** (judged - j)
               for j in range(misses, judged + 1))


def _binned_semicircle_average(edges: np.ndarray, t: float, scale: float,
                               r1: complex, r2: complex):
    """Bin averages of ``scale / ((x - r1)(x - r2))`` against ``rho_t``, plus mean density.

    Every closed-form theory curve binned here has this shape: the GOE kernel
    in either argument and the spike-bulk coupling (a double pole).  The
    integrals are exact (:func:`~minor_overlaps.freeprob.semicircle_pole_integral`),
    as are the bin masses (:func:`~minor_overlaps.freeprob.semicircle_tail_mass`).
    Returns ``(theory, rho_bar)`` where ``rho_bar`` is the average semicircle
    density over the bin (the multiplier used for figure-style curves).  A
    bin without mass gets NaN theory and drops out of coverage.
    """
    tail = semicircle_tail_mass(edges, t)
    mass = tail[:-1] - tail[1:]
    theory = np.divide(scale * semicircle_pole_integral(edges, t, r1, r2), mass,
                       out=np.full(mass.shape, np.nan), where=mass > 0)
    return theory, mass / np.diff(edges)


def _goe_kernel_poles(center: float, lead: float, t: float, q: float):
    """Poles of the GOE kernel in one argument, the other fixed at ``center``.

    The denominator ``(1-q)^2 t + (lam - mu)(q lam - mu)`` equals
    ``lead (x - r1)(x - r2)`` in the free argument ``x``: ``lam`` at fixed
    ``mu`` with ``lead = q``, or ``mu`` at fixed ``lam`` with ``lead = 1``,
    where

        r1, r2 = ((1+q) center +- (1-q) sqrt(center^2 - 4 lead t)) / (2 lead),

    so the kernel is ``(1-q) t / lead / ((x - r1)(x - r2))``.  The poles are
    a conjugate pair while ``center`` lies inside its own bulk
    (``|center| < 2 sqrt(lead t)``) and real outside it.  Real poles stay off
    the open support of ``x`` and touch its edge only at ``|center| = (1+q)
    sqrt(t / lead)``.
    """
    root = (1.0 - q) * np.sqrt(complex(center * center - 4.0 * lead * t))
    return ((1.0 + q) * center + root) / (2.0 * lead), ((1.0 + q) * center - root) / (2.0 * lead)


def _bin_means(values: np.ndarray, positions: np.ndarray, edges: np.ndarray):
    """Mean of ``values`` per bin of ``positions`` (NaN for empty bins, outside ones dropped)."""
    bins = edges.size - 1
    which = np.digitize(positions, edges) - 1
    inside = (which >= 0) & (which < bins)
    counts = np.bincount(which[inside], minlength=bins).astype(float)
    sums = np.bincount(which[inside], weights=values[inside], minlength=bins)
    return np.divide(sums, counts, out=np.full(bins, np.nan), where=counts > 0), counts


def _scan_general_support(full_ev, model: SpectrumModel, t: float):
    """Support bounds of the evolved density for a general initial spectrum."""
    span = max(abs(a) for a, _ in model.atoms) + 2.0 * np.sqrt(t) + 1.0
    grid = np.linspace(-span, span, 61)
    dens = np.imag(full_ev(grid - 1e-6j)) / np.pi
    inside = float(grid[int(np.argmax(dens))])
    lo, hi = scan_support_edge(full_ev, inside, (-span, span))
    return float(lo), float(hi)


def _binned_general_theory(s0, mu_hat, t, q, full_ev, minor_ev, edges):
    """Density-weighted bin averages of the general kernel (NaN where refused).

    Five-point Gauss nodes per bin, weighted by the boundary density; bins
    inside spectral gaps or edge zones (all nodes refused) get NaN theory and
    drop out of coverage, matching the absence of eigenvalues there.
    Returns ``(theory, rho_bar, refused_nodes)``.
    """
    nodes, gauss_w = _GAUSS_NODES, _GAUSS_WEIGHTS
    centers, halves = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    full_b = boundary_values(full_ev, centers[:, None] + halves[:, None] * nodes)
    w, rho = overlap_kernel(s0, boundary_values(minor_ev, mu_hat), full_b, t, q), full_b.rho
    theory = np.full(edges.size - 1, np.nan)
    for b, ok in enumerate(~np.isnan(w)):
        weights = gauss_w[ok] * rho[b, ok]
        if ok.sum() >= 2 and weights.sum() > 0:
            theory[b] = float(np.dot(weights, w[b, ok]) / np.sum(weights))
    rho_bar = np.array([gauss_w @ r / gauss_w.sum() for r in rho])
    return theory, rho_bar, int(np.isnan(w).sum())


def _goe_sampler(n_dim: int, t: float, a_mat):
    """``sample(seed, out)`` of :func:`_run_decomposed` for ``A + noise(t)``, ``A`` added in place.

    ``a_mat`` is None for no ``A``; a diagonal one (every spectrum model's) is
    added on the diagonal alone.
    """
    diagonal = a_mat is not None and np.count_nonzero(a_mat) == np.count_nonzero(
        np.diagonal(a_mat))

    def sample(seed, out):
        x_mat = sample_goe(n_dim, t, seed, out)
        if diagonal:
            x_mat.reshape(-1)[::n_dim + 1] += np.diagonal(a_mat)
        elif a_mat is not None:
            x_mat += a_mat
        return x_mat

    return sample


def _run_decomposed(config: ExperimentConfig, sample, trial, requests, first_stream: int = 0):
    """Run ``config.trials`` decomposed trials; returns :func:`_run_trials`' ``(columns, run)``.

    Each pool worker makes one set of reduction buffers for size ``N``
    (:func:`~minor_overlaps.spectral._buffers`, about ``2 N^2`` floats) on its
    first trial and reuses it on every later one.  Trial ``m`` draws ``x =
    sample(derive_stream(config.master_seed, first_stream + m), out)``, where
    ``out`` is a pair of ``N x N`` views of the buffers (as for
    :func:`~minor_overlaps.ensembles.sample_goe`) and ``x`` lands in the
    second, and copies its bare leading ``config.n x config.n`` block into
    the first.  ``requests = (full, minor)`` are each side's eigenvector
    request (as for :func:`~minor_overlaps.spectral.reduced_eig`), at most
    one None, for every eigenvector.  A side with a request is reduced first
    (:func:`~minor_overlaps.spectral._reduce_in_place`), one without next
    (:func:`~minor_overlaps.spectral._carry_in_place`), carrying the other
    side's vectors, zero-padded or cut to its size.  The trial audits Cauchy
    interlacing on every eigenvalue and the overlaps it reads, and returns
    ``trial(lam, mu, overlaps)``, a tuple of fields or None for an absorbed
    spike: every full and minor eigenvalue, and the squared overlaps of the
    requested minor eigenvectors (rows; every one when ``requests[1]`` is
    None) with the requested full ones (columns; likewise), each descending,
    audited as grid rows by columns, rows as whole when every full
    eigenvector is read.
    """
    n_dim, n = config.n_dim, config.n
    full_request, minor_request = requests
    local = threading.local()

    def worker(m):
        if not hasattr(local, "buffers"):
            local.buffers = _buffers(n_dim)
        s_buffer, work, _ = local.buffers
        out = (s_buffer.reshape(n_dim, n_dim), work[:n_dim * n_dim].reshape(n_dim, n_dim))
        x_mat = sample(derive_stream(config.master_seed, first_stream + m), out)
        block = s_buffer[:n * n].reshape(n, n)
        block[...] = x_mat[:n, :n]
        if minor_request is None:  # the minor holds every eigenvector
            lam, full_vectors = _reduce_in_place(x_mat, full_request)
            reads = np.array(full_vectors[:n], order="F")
            mu, coefficients = _carry_in_place(block, reads, local.buffers)
            overlaps = coefficients ** 2
        else:
            mu, minor_vectors = _reduce_in_place(block, minor_request)
            if full_request is None:  # the full matrix holds every eigenvector
                reads = np.zeros((n_dim, minor_vectors.shape[1]), order="F")
                reads[:n] = minor_vectors
                lam, coefficients = _carry_in_place(x_mat, reads, local.buffers)
                overlaps = coefficients.T ** 2
            else:
                lam, full_vectors = _reduce_in_place(x_mat, full_request)
                overlaps = (minor_vectors.T @ full_vectors[:n]) ** 2
        ok, margin = check_interlacing(lam, mu)
        if not ok:
            raise NumericError(f"interlacing violated by margin {margin:.3e}")
        _audit_overlaps(overlaps, whole_rows=full_request is None)
        return trial(lam, mu, overlaps)

    return _run_trials(config.trials, config.threads, worker)


# ---------------------------------------------------------------------------
# bulk experiment
# ---------------------------------------------------------------------------

@_one_blas_thread()
def run_bulk_experiment(config: ExperimentConfig, model: SpectrumModel | None = None
                        ) -> ExperimentReport:
    """Binned rescaled overlaps of one minor eigenvector row against theory.

    Per trial: observe ``A + noise(t)``, decompose the matrix and its leading
    ``n x n`` block, take the minor row at quantile ``x``, and accumulate
    ``N * overlap^2`` into bins of the full eigenvalue.  The matched theory is
    the closed-form kernel at the trial-averaged realized minor eigenvalue,
    density-averaged over each bin, or with an explicit ``A`` the general
    kernel.  A ``model`` puts the explicit ``A = diag(representative_diagonal(model,
    N, n))`` in place of ``config.a_spec``.  Refuses ``n_dim``, ``q``, ``t``
    and ``x`` by name before any set-up.
    """
    start = time.perf_counter()
    n_dim, q, t, n = config.n_dim, config.q, config.t, config.n
    _check_minor(n_dim, q)
    require("t", t, t > 0, "> 0")
    require("x", config.x, 0.0 <= config.x <= 1.0, "in [0, 1]")
    if config.a_spec.kind not in ("null", "explicit"):
        raise ValueError("bulk experiment needs a null or explicit deterministic part")
    if model is not None:
        check_realizable("n_dim", model, n_dim, n)
        diag = representative_diagonal(model, n_dim, n)
        config = replace(config, a_spec=ASpec(kind="explicit", matrix=np.diag(diag)))
    row_idx = quantile_index(config.x, n) - 1
    a_mat = config.a_spec.build(n_dim, n)

    if a_mat is None:
        edges = _bulk_bin_edges(t, config.bins, config.bin_range)
        hi_edge = 2.0 * np.sqrt(t)
        support = (-hi_edge, hi_edge)
    else:
        s0 = FiniteInitialTransform.from_matrix(a_mat, n)
        full_ev = lambda z: solve_stieltjes(s0.full_model, z, t)
        minor_ev = lambda z: solve_minor_stieltjes(s0.minor_model, z, t, q)
        if config.bin_range is not None:
            support = config.bin_range
            edges = _bin_edges(config.bins, *support)
        else:
            support = _scan_general_support(full_ev, s0.full_model, t)
            margin = 0.025 * (support[1] - support[0])
            edges = _bin_edges(config.bins, support[0] + margin, support[1] - margin)

    def trial(lam, mu, overlaps):
        row = overlaps[0]
        means, counts = _bin_means(n_dim * row, lam, edges)
        return means, counts, mu[row_idx], abs(row.sum() - 1.0)

    (means, counts, mus, row_errors), run = _run_decomposed(
        config, _goe_sampler(n_dim, t, a_mat), trial, requests=(None, row_idx))
    mu_hat = float(np.mean(mus))
    extras = {"mu_hat": mu_hat, "bin_width": float(edges[1] - edges[0]),
              "worst_row_sum_error": float(row_errors.max()), **run}
    if a_mat is None:
        theory, rho_bar = _binned_semicircle_average(edges, t, (1.0 - q) * t / q,
                                                     *_goe_kernel_poles(mu_hat, q, t, q))
        lo, hi = interlace_interval(config.x, t, q)
        extras["interlace_lo"], extras["interlace_hi"] = float(lo), float(hi)
    else:
        theory, rho_bar, extras["refused_nodes"] = _binned_general_theory(
            s0, mu_hat, t, q, full_ev, minor_ev, edges)
    report = _binned_report(config, start, means, counts, edges, support, theory, rho_bar, extras)

    # the interior bin where the figure-style curve mc_mean * rho peaks
    figure = np.array([np.nan if r.mean is None else r.mean for r in report.estimates]) * rho_bar
    peaks = np.flatnonzero(np.array(report.extras["interior"]) & ~np.isnan(figure))
    if peaks.size:
        report.extras["argmax_center"] = report.estimates[peaks[np.argmax(figure[peaks])]].center
    return report


# ---------------------------------------------------------------------------
# spike experiments
# ---------------------------------------------------------------------------

def _spike_absorbed(top_eval: float, t: float) -> bool:
    edge = 2.0 * np.sqrt(t)
    return top_eval < edge + SPIKE_ABSORB_MARGIN * edge


@_one_blas_thread()
def run_spike_spike(config: ExperimentConfig) -> ExperimentReport:
    """Mean squared overlap of the two top (spike) eigenvectors vs its limit.

    ``extras["minor_edge_trials"]`` counts the kept trials whose minor top
    eigenvalue lies within ``SPIKE_ABSORB_MARGIN`` of the minor bulk edge
    ``2 sqrt(qt)`` or below it; they stay in the estimate.  Refuses ``n_dim``
    and ``q`` by name before any set-up (a split spike also needs ``round(qN)
    <= N-1``), then the spikes (``spike``, and ``mu`` for the minor's) and
    ``t`` through :func:`~minor_overlaps.overlaps_theory.spike_spike_overlap`.
    """
    start = time.perf_counter()
    n_dim, q, t, n = config.n_dim, config.q, config.t, config.n
    if config.a_spec.kind not in ("uniform_spike", "split_spike"):
        raise ValueError("spike-spike experiment needs a uniform_spike or split_spike part")
    require("n_dim", n_dim, n_dim >= 1, ">= 1")
    require("q", q, 0.0 < q <= 1.0 and n >= 1, "in (0, 1] with round(qN) >= 1")
    spike = config.a_spec.spike
    if config.a_spec.kind == "split_spike":
        _check_minor(n_dim, q)  # the split vector needs a row outside the minor
        minor_spike = config.a_spec.minor_spike
    else:
        minor_spike = spike * n / n_dim
    theory = spike_spike_overlap(spike, minor_spike, q, t)  # also refuses an absorbed window
    a_mat = config.a_spec.build(n_dim, n)

    def trial(lam, mu, overlaps):
        if _spike_absorbed(lam[0], t):
            return None
        return overlaps[0, 0], _spike_absorbed(mu[0], q * t)

    (overlaps, at_edge), run = _run_decomposed(config, _goe_sampler(n_dim, t, a_mat), trial,
                                               requests=(0, 0))
    return _report(config, start, [_trial_estimate(t, overlaps, "top_overlap")], [theory],
                   {"spike": spike, "minor_spike": minor_spike,
                    "minor_edge_trials": int(at_edge.sum()), **run}, judged=[False])


@_one_blas_thread()
def spike_path_series(n_dim: int, q: float, spike: float, t_max: float, steps: int,
                      master_seed: int) -> TrajectorySeries:
    """One noise path under the uniform spike: spike positions and bulk tops.

    The times are ``steps + 1`` equal steps over ``[0, t_max]``; the path
    draws from ``derive_stream(master_seed, 0)``.  Refuses every argument out
    of range by name before the path is drawn.
    """
    n = minor_size(q, n_dim)
    require("n_dim", n_dim, n_dim >= 2, ">= 2")
    require("q", q, 0.0 < q <= 1.0 and n >= 2, "in (0, 1] with round(qN) >= 2")
    require("spike", spike, spike >= 0, ">= 0")
    require("t_max", t_max, t_max > 0, "> 0")
    require("steps", steps, steps >= 1, ">= 1")
    check_seed(master_seed, "master_seed")
    a_mat = rank_one(uniform_spike_vector(n_dim, spike))
    t_grid = np.linspace(0.0, t_max, steps + 1)
    lam1 = np.empty(t_grid.size)
    lam2 = np.empty(t_grid.size)
    mu1 = np.empty(t_grid.size)
    mu2 = np.empty(t_grid.size)
    for k, h in enumerate(sample_path(n_dim, t_grid, derive_stream(master_seed, 0))):
        x_mat = a_mat + h
        w = np.linalg.eigvalsh(x_mat)
        lam1[k], lam2[k] = w[-1], w[-2]
        wm = np.linalg.eigvalsh(x_mat[:n, :n])
        mu1[k], mu2[k] = wm[-1], wm[-2]
    return TrajectorySeries(t=t_grid, lambda1=lam1, mu1=mu1,
                            edge_full=lam2, edge_minor=mu2)


@_one_blas_thread()
def run_spike_bulk(config: ExperimentConfig) -> ExperimentReport:
    """Overlap profile of the full spike eigenvector on the minor bulk.

    Bins ``N * overlap^2`` of every minor eigenvector against the top full
    eigenvector by minor eigenvalue, and also reports the total overlap mass
    against its linear-in-t limit.  The final estimate row (kind
    ``total_mass``) carries that total.  Refuses ``n_dim``, ``q``, ``t`` and
    ``spike`` by name before any set-up.
    """
    start = time.perf_counter()
    n_dim, q, t, n = config.n_dim, config.q, config.t, config.n
    if config.a_spec.kind != "tail_spike":
        raise ValueError("spike-bulk experiment needs a tail_spike deterministic part")
    _check_minor(n_dim, q)
    require("t", t, t > 0, "> 0")
    spike = config.a_spec.spike
    require("spike", spike, spike > 0, "> 0")
    mass_theory = spike_bulk_mass(spike, q, t)  # refuses t >= spike^2
    a_mat = config.a_spec.build(n_dim, n)
    edges = _bulk_bin_edges(t, config.bins, config.bin_range, radius_scale=np.sqrt(q))

    def trial(lam, mu, overlaps):
        if _spike_absorbed(lam[0], t):
            return None
        col = overlaps[:, 0]
        means, counts = _bin_means(n_dim * col, mu, edges)
        return means, counts, float(col.sum())

    (means, counts, masses), run = _run_decomposed(config, _goe_sampler(n_dim, t, a_mat), trial,
                                                   requests=(0, None))

    # spike_bulk_overlap = t (spike^2 - qt) / spike^2 / (mu - r0)^2 with the
    # real pole r0 = (spike^2 + qt) / spike outside the minor bulk
    r0 = (spike * spike + q * t) / spike
    theory, rho_bar = _binned_semicircle_average(
        edges, q * t, t * (spike * spike - q * t) / (spike * spike), r0, r0)
    radius = 2.0 * np.sqrt(t) * np.sqrt(q)
    mass_row = _trial_estimate(spike, masses, "total_mass")
    return _binned_report(config, start, means, counts, edges, (-radius, radius), theory,
                          rho_bar, {"spike": spike, **run}, tail=((mass_row, mass_theory),))


# ---------------------------------------------------------------------------
# Bernoulli experiments
# ---------------------------------------------------------------------------

@_one_blas_thread()
def run_bernoulli_bulk(config: ExperimentConfig) -> ExperimentReport:
    """Bulk-pair overlaps of a Bernoulli matrix against the Gaussian kernel.

    The effective noise variance is ``p (1 - p)``; the top eigenpair of each
    matrix (the diverging spikes) is excluded before binning.  Full-side
    eigenvalues are restricted to a narrow window around zero, minor-side
    eigenvalues are binned.  Refuses ``p``, ``n_dim`` and ``q`` by name before
    any set-up.
    """
    start = time.perf_counter()
    n_dim, q, n, p = config.n_dim, config.q, config.n, config.p
    require("p", p, 0.0 < p < 1.0, "in (0, 1)")
    _check_minor(n_dim, q)
    t_eff = p * (1.0 - p)
    edges = _bulk_bin_edges(t_eff, config.bins, config.bin_range, radius_scale=np.sqrt(q))
    # the lambda window is one bin of the full bulk's default grid
    full_edges = _bulk_bin_edges(t_eff, config.bins)
    full_window = full_edges[1] - full_edges[0]

    def window(full_evals):
        # index 0 of each spectrum is its diverging spike; the window picks full columns
        return 1 + np.flatnonzero(np.abs(full_evals[1:]) <= full_window / 2.0)

    def trial(lam, mu, overlaps):
        # overlaps: every minor eigenvector against the window's full columns
        if not overlaps.shape[1]:
            return (np.full(edges.size - 1, np.nan), np.zeros(edges.size - 1))
        row_means = n_dim * overlaps[1:].mean(axis=1)
        return _bin_means(row_means, mu[1:], edges)

    (means, counts), run = _run_decomposed(
        config, lambda seed, out: sample_bernoulli(n_dim, p, seed, out), trial,
        requests=(window, None))

    # average the kernel over the lambda window (5-point Gauss) and the mu bin
    theory = 0.0
    for lam, weight in zip(_GAUSS_NODES * full_window / 2.0,
                           _GAUSS_WEIGHTS / _GAUSS_WEIGHTS.sum()):
        # rho_bar is the same at every node
        avg, rho_bar = _binned_semicircle_average(edges, q * t_eff, (1.0 - q) * t_eff,
                                                  *_goe_kernel_poles(lam, 1.0, t_eff, q))
        theory = theory + weight * avg
    radius = 2.0 * np.sqrt(t_eff) * np.sqrt(q)
    return _binned_report(config, start, means, counts, edges, (-radius, radius), theory,
                          rho_bar, {"t_eff": t_eff, **run})


@_one_blas_thread()
def run_bernoulli_spike(config: ExperimentConfig) -> ExperimentReport:
    """Deficit of the top-top overlap below ``n/N`` across matrix sizes.

    For each size of ``config.n_dims`` (default: ``config.n_dim`` alone) the
    estimate is ``n/N - mean overlap^2`` of the two top eigenvectors, matched
    against the 1/N term of the finite-size expansion.  Stream ids advance as
    ``size_index * trials + trial`` so the sweep is reproducible as a whole.
    Refuses ``p``, ``q`` and every size (of ``n_dims``, else ``n_dim``) by
    name before the first size's trials.
    """
    start = time.perf_counter()
    p = config.p
    require("p", p, 0.0 < p <= 1.0, "in (0, 1]")
    require("q", config.q, 0.0 < config.q < 1.0, "in (0, 1)")
    sizes = tuple(config.n_dims) or (config.n_dim,)
    for n_dim in sizes:
        require("n_dims" if config.n_dims else "n_dim", n_dim,
                1 <= minor_size(config.q, n_dim) <= n_dim - 1,
                "a list of sizes N with 1 <= round(qN) <= N-1")
    rows, theory, counts = [], [], collections.Counter()
    for idx, n_dim in enumerate(sizes):
        sized = replace(config, n_dim=n_dim)
        n = sized.n
        # both callables run to completion inside this iteration
        (deficits,), run = _run_decomposed(
            sized, lambda seed, out: sample_bernoulli(n_dim, p, seed, out),
            lambda lam, mu, overlaps: (n / n_dim - overlaps[0, 0],),
            requests=(0, 0), first_stream=idx * config.trials)
        counts.update({k: run[k] for k in ("aborted_trials", "absorbed_trials")})
        rows.append(_trial_estimate(n_dim, deficits, "deficit"))
        theory.append((1.0 - n / n_dim) * (1.0 / p - 1.0) / n_dim)
    return _report(config, start, rows, theory, {**run, **counts})
