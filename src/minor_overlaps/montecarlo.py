"""Finite-size experiments that estimate overlaps and compare against theory.

The runners :func:`run_bulk_experiment`, :func:`run_spike_spike`,
:func:`run_spike_bulk`, :func:`run_bernoulli_bulk` and
:func:`run_bernoulli_spike` each take an :class:`ExperimentConfig` and return
an :class:`ExperimentReport`; :func:`spike_path_series` ``(n_dim, q, spike,
t_max, steps, seed)`` follows one noise path instead.

Every runner runs its trials through :func:`_run_decomposed`: one
independent random stream per trial
(:func:`minor_overlaps.ensembles.derive_stream`), each trial reduces its
matrix and the bare leading ``n x n`` block to tridiagonal form once each, in
place (:func:`~minor_overlaps.spectral.reduced_eig`, no eigenvector
back-transform), forming per side only the eigenvectors its runner asks for,
audits Cauchy interlacing on every eigenvalue, and reads only the overlaps
its runner uses (a grid row, columns or one entry), audited as read; trials
run concurrently but reduce in trial-index order.  99% confidence
intervals use the normal approximation over per-trial values
(:func:`_trial_estimate`), and one rule judges them (:func:`_coverage`).  The
three binned runners supply edges, sampler, per-trial selection and theory,
and share one report tail (:func:`_binned_report`).  The trial pool has one
worker per available core (``threads=0``).  Every runner holds numpy's
OpenBLAS at one thread from entry to return, set-up and theory included, so
each worker decomposes single-threaded and the caller's BLAS setting is
restored afterwards.  Reports therefore reproduce bit for bit for a fixed
master seed, independent of worker count and of the caller's BLAS thread
count.  The drift probe streams its increment blocks through the same pool
(:func:`_pool_map`).

Binned comparisons use the density-weighted average of the theory curve over
each bin rather than its value at the bin center: the Monte Carlo bin mean
averages eigenvalues distributed with density rho across the bin, and for
sharply peaked kernels the center value differs from that average by far
more than a confidence interval.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .ensembles import (
    derive_stream,
    rank_one,
    sample_bernoulli,
    sample_goe,
    sample_path,
    split_spike_vector,
    tail_spike_vector,
    uniform_spike_vector,
)
from .errors import NumericError
from .freeprob import (
    SpectrumModel,
    boundary_values,
    scan_support_edge,
    semicircle_pole_integral,
    semicircle_tail_mass,
    solve_minor_stieltjes,
    solve_stieltjes,
)
from .overlaps_theory import (
    FiniteInitialTransform,
    interlace_interval,
    overlap_kernel,
    spike_bulk_mass,
    spike_spike_overlap,
)
from .spectral import (
    _openblas,
    _reduce_in_place,
    check_interlacing,
    minor_size,
    overlap_columns,
    overlap_entry,
    overlap_row,
    quantile_index,
)

Z_99 = 2.575829303548901  # two-sided 99% normal quantile
#: share of calibrated 99% intervals that miss the value they estimate
CI_MISS_RATE = 0.01
MIN_CI_TRIALS = 100
MAX_ABORT_FRACTION = 0.01
#: interior bins sit at least this fraction of the bulk diameter away from an edge
INTERIOR_EDGE_FRACTION = 0.15
#: a spike is considered absorbed when closer than 0.05 * radius to the bulk edge
SPIKE_ABSORB_MARGIN = 0.05


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
    """Shared experiment parameters; runners validate the fields they use.

    ``target`` names the experiment in the JSON config; no runner reads it.
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

    ``coverage`` is the fraction of *interior* bins whose confidence interval
    contains the matched theory value (None when the experiment has no binned
    component).  ``extras`` carries run diagnostics and is not part of the
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

@functools.cache
def _openblas_threads():
    """(getter, setter) of the thread count of numpy's bundled OpenBLAS, or None."""
    lib = _openblas()
    try:
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except AttributeError:  # no library (None), or one without these symbols
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread for the block, where its count is reachable.

    The count is process-wide, so the caller's value is restored on exit.
    ``@_one_blas_thread()`` holds it for each call of the function it decorates.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def _pool_map(threads: int, fn, items):
    """Map ``fn`` over ``items`` on the trial pool; results stream in item order.

    ``threads=0`` means one worker per core this process may run on.  While
    ``fn`` runs, OpenBLAS is held at one thread, so each pool worker gets one
    BLAS thread, the pool never oversubscribes the cores and the arithmetic,
    and hence the output bytes, do not depend on ``threads``.  Returns
    ``(results, used)``: ``results`` is an iterator over ``fn(item)`` for each
    item in turn, and ``used`` holds the resolved ``pool_threads`` and the
    ``trial_blas_threads`` ``fn`` runs with (None when the BLAS count cannot be
    set).  ``items`` is read in the caller's thread, in order, as the caller
    reads ``results``, and never more than ``2 * threads + 1`` items ahead of
    the results it has read: an item that draws random numbers draws them in
    item order whatever the worker count, and a caller that reduces each
    result as it arrives holds a bounded number of items and results.  The
    caller reads ``results`` to its end or closes it.  Raises ``ValueError``
    for ``threads < 0``.
    """
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    if threads == 0:
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    used = {"pool_threads": threads,
            "trial_blas_threads": None if _openblas_threads() is None else 1}

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
    """Run trials on :func:`_pool_map`, preserving trial order; None marks an abort.

    Returns ``(results, aborted, used)`` with ``used`` as from
    :func:`_pool_map`.  A run with more than ``MAX_ABORT_FRACTION`` aborted
    trials is rejected.
    """

    def safe(m):
        try:
            return worker(m)
        except NumericError:
            return None

    results, used = _pool_map(threads, safe, range(trials))
    results = list(results)
    aborted = sum(r is None for r in results)
    if aborted > MAX_ABORT_FRACTION * trials:
        raise NumericError(f"{aborted}/{trials} trials aborted; run rejected")
    return results, aborted, used


def _bin_edges(bins: int, lo: float, hi: float) -> np.ndarray:
    """``bins`` equal bins over ``[lo, hi]``; every binned curve's edges come from here."""
    if bins < 1:
        raise ValueError(f"need bins >= 1, got {bins}")
    if not lo < hi:
        raise ValueError("empty bin range")
    return np.linspace(lo, hi, bins + 1)


def _bulk_bin_edges(t: float, bins: int, bin_range=None, radius_scale: float = 1.0) -> np.ndarray:
    """Edges over ``bin_range``, by default ``|x| < 2 sqrt(t) radius_scale`` less 5% per end."""
    if bin_range is None:
        root = np.sqrt(t) * radius_scale
        bin_range = (-2.0 * root + 0.1 * root, 2.0 * root - 0.1 * root)
    return _bin_edges(bins, *bin_range)


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


def _binned_report(config, start: float, kept, run: dict, edges: np.ndarray, support,
                   theory, rho_bar: np.ndarray, extras: dict, tail=()) -> ExperimentReport:
    """Report of a binned runner, timed from ``start``, from its trials and binned theory.

    Each kept trial result starts with its per-bin means and counts
    (:func:`_bin_means`); a bin's row estimates across its trial means.  Bins
    at least ``INTERIOR_EDGE_FRACTION`` of the ``support = (lo, hi)`` width
    from both ends are judged.  ``tail`` holds unjudged ``(estimate, theory)``
    rows that follow the bins.  ``extras`` gains ``bin_edges``, ``rho_bin``,
    ``interior``, ``misses`` and the ``run`` counts.
    """
    per_means = np.array([k[0] for k in kept])
    n_samples = np.array([k[1] for k in kept]).sum(axis=0).astype(int)
    centers = 0.5 * (edges[:-1] + edges[1:])
    rows = [_trial_estimate(c, per_means[:, b], n_samples=n_samples[b])
            for b, c in enumerate(centers)]
    lo, hi = support
    margin = INTERIOR_EDGE_FRACTION * (hi - lo)
    interior = ((centers - lo) >= margin) & ((hi - centers) >= margin)
    coverage, misses = _coverage(rows, theory, interior)
    return ExperimentReport(
        config=config,
        estimates=tuple(rows) + tuple(est for est, _ in tail),
        theory=tuple(float(v) for v in theory) + tuple(float(th) for _, th in tail),
        coverage=coverage,
        wall_time_s=time.perf_counter() - start,
        extras={**extras, "bin_edges": edges.tolist(), "rho_bin": rho_bar.tolist(),
                "interior": interior.tolist(), "misses": misses, **run},
    )


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


def _kernel_curve(s0, minor_b, full_ev, lams, t, q):
    """General kernel at ``mu = minor_b.lam`` over ``lams``, with the full density there.

    Returns ``(w, rho)``: ``w`` is NaN where :func:`overlap_kernel` refuses
    the point (edge or gap), ``rho`` the full boundary density at every point.
    """
    full_b = boundary_values(full_ev, lams)
    return overlap_kernel(s0, minor_b, full_b, t, q), full_b.rho


def _binned_general_theory(s0, mu_hat, t, q, full_ev, minor_ev, edges):
    """Density-weighted bin averages of the general kernel (NaN where refused).

    Five-point Gauss nodes per bin, weighted by the boundary density; bins
    inside spectral gaps or edge zones (all nodes refused) get NaN theory and
    drop out of coverage, matching the absence of eigenvalues there.
    Returns ``(theory, rho_bar, refused_nodes)``.
    """
    nodes, gauss_w = np.polynomial.legendre.leggauss(5)
    centers, halves = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    lams = centers[:, None] + halves[:, None] * nodes
    w, rho = _kernel_curve(s0, boundary_values(minor_ev, mu_hat), full_ev, lams, t, q)
    theory = np.full(edges.size - 1, np.nan)
    for b, ok in enumerate(~np.isnan(w)):
        weights = gauss_w[ok] * rho[b, ok]
        if ok.sum() >= 2 and weights.sum() > 0:
            theory[b] = float(np.dot(weights, w[b, ok]) / np.sum(weights))
    rho_bar = np.array([gauss_w @ r / gauss_w.sum() for r in rho])
    return theory, rho_bar, int(np.isnan(w).sum())


def _run_decomposed(config: ExperimentConfig, sample, trial, requests=(None, None),
                    n: int | None = None, first_stream: int = 0):
    """Run ``config.trials`` decomposed trials; returns ``(kept, run)``.

    Trial ``m`` draws ``x = sample(derive_stream(config.master_seed,
    first_stream + m))``, copies its bare leading ``n x n`` block (``n``
    defaults to ``config.n``), reduces ``x`` and then the block in place as
    :func:`~minor_overlaps.spectral.reduced_eig` would, with the eigenvector
    requests ``requests = (full, minor)``, audits Cauchy interlacing on every
    eigenvalue, and returns ``trial(full, minor)``, or None for an absorbed
    spike.  ``sample`` returns a new matrix on each call, which the trial
    owns.  ``trial`` reads the overlaps it uses through the spectral readers,
    which audit what they read.  ``kept``
    holds the other results in trial order.  ``run`` holds the counts
    ``aborted_trials`` and ``absorbed_trials`` and the ``pool_threads`` and
    ``trial_blas_threads`` the trials ran with.
    """
    if config.trials < MIN_CI_TRIALS:
        raise ValueError(f"confidence intervals need at least {MIN_CI_TRIALS} trials, "
                         f"got {config.trials}")
    n = config.n if n is None else n

    def worker(m):
        x_mat = sample(derive_stream(config.master_seed, first_stream + m))
        block = x_mat[:n, :n].copy()
        full, minor = _reduce_in_place(x_mat, requests[0]), _reduce_in_place(block, requests[1])
        ok, margin = check_interlacing(full.eigenvalues, minor.eigenvalues)
        if not ok:
            raise NumericError(f"interlacing violated by margin {margin:.3e}")
        return (trial(full, minor),)

    results, aborted, used = _run_trials(config.trials, config.threads, worker)
    done = [r[0] for r in results if r is not None]
    kept = [r for r in done if r is not None]
    return kept, {"aborted_trials": aborted, "absorbed_trials": len(done) - len(kept), **used}


# ---------------------------------------------------------------------------
# bulk experiment
# ---------------------------------------------------------------------------

@_one_blas_thread()
def run_bulk_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Binned rescaled overlaps of one minor eigenvector row against theory.

    Per trial: observe ``A + noise(t)``, decompose the matrix and its leading
    ``n x n`` block, take the minor row at quantile ``x``, and accumulate
    ``N * overlap^2`` into bins of the full eigenvalue.  The matched theory is
    the closed-form kernel at the trial-averaged realized minor eigenvalue,
    density-averaged over each bin.
    """
    start = time.perf_counter()
    n_dim, q, t, n = config.n_dim, config.q, config.t, config.n
    if not 0.0 < q < 1.0 or not 1 <= n <= n_dim - 1:
        raise ValueError("bulk experiment needs q in (0,1) with 1 <= round(qN) <= N-1")
    if t <= 0:
        raise ValueError("t must be > 0")
    if config.a_spec.kind not in ("null", "explicit"):
        raise ValueError("bulk experiment needs a null or explicit deterministic part")
    a_mat = config.a_spec.build(n_dim, n)

    if a_mat is None:
        edges = _bulk_bin_edges(t, config.bins, config.bin_range)
        hi_edge = 2.0 * np.sqrt(t)
        support = (-hi_edge, hi_edge)
    else:
        s0 = FiniteInitialTransform.from_matrix(a_mat, n)
        full_model = SpectrumModel.from_eigenvalues(s0.full_evals)
        minor_model = SpectrumModel.from_eigenvalues(s0.minor_evals, q=q)
        full_ev = lambda z: solve_stieltjes(full_model, z, t)
        minor_ev = lambda z: solve_minor_stieltjes(minor_model, z, t, q)
        if config.bin_range is not None:
            support = config.bin_range
            edges = _bin_edges(config.bins, *support)
        else:
            support = _scan_general_support(full_ev, full_model, t)
            margin = 0.025 * (support[1] - support[0])
            edges = _bin_edges(config.bins, support[0] + margin, support[1] - margin)
    row_idx = quantile_index(config.x, n) - 1

    def sample(seed):
        x_mat = sample_goe(n_dim, t, seed)
        if a_mat is not None:
            x_mat += a_mat
        return x_mat

    def trial(full, minor):
        row, row_sum_error = overlap_row(full, minor, row_idx)
        means, counts = _bin_means(n_dim * row, full.eigenvalues, edges)
        return means, counts, minor.eigenvalues[row_idx], row_sum_error

    kept, run = _run_decomposed(config, sample, trial, requests=(None, row_idx))
    mu_hat = float(np.mean([r[2] for r in kept]))
    extras = {"mu_hat": mu_hat, "bin_width": float(edges[1] - edges[0]),
              "worst_row_sum_error": float(max(r[3] for r in kept))}
    if a_mat is None:
        theory, rho_bar = _binned_semicircle_average(edges, t, (1.0 - q) * t / q,
                                                     *_goe_kernel_poles(mu_hat, q, t, q))
        lo, hi = interlace_interval(config.x, t, q)
        extras["interlace_lo"], extras["interlace_hi"] = float(lo), float(hi)
    else:
        theory, rho_bar, extras["refused_nodes"] = _binned_general_theory(
            s0, mu_hat, t, q, full_ev, minor_ev, edges)
    report = _binned_report(config, start, kept, run, edges, support, theory, rho_bar, extras)

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
    """Mean squared overlap of the two top (spike) eigenvectors vs its limit."""
    start = time.perf_counter()
    n_dim, q, t, n = config.n_dim, config.q, config.t, config.n
    if config.a_spec.kind not in ("uniform_spike", "split_spike"):
        raise ValueError("spike-spike experiment needs a uniform_spike or split_spike part")
    spike = config.a_spec.spike
    if config.a_spec.kind == "split_spike":
        minor_spike = config.a_spec.minor_spike
    else:
        minor_spike = spike * n / n_dim
    theory = spike_spike_overlap(spike, minor_spike, q, t)  # validates the time window
    a_mat = config.a_spec.build(n_dim, n)

    def trial(full, minor):
        if _spike_absorbed(full.eigenvalues[0], t):
            return None
        return overlap_entry(full, minor, 0, 0)

    kept, run = _run_decomposed(config, lambda seed: a_mat + sample_goe(n_dim, t, seed), trial,
                                requests=(0, 0))
    if len(kept) < 2:
        raise NumericError("no usable spike-spike trials (spike absorbed everywhere)")
    return ExperimentReport(
        config=config,
        estimates=(_trial_estimate(t, kept, "top_overlap"),),
        theory=(float(theory),),
        coverage=None,
        wall_time_s=time.perf_counter() - start,
        extras={"spike": spike, "minor_spike": minor_spike, **run},
    )


@_one_blas_thread()
def spike_path_series(n_dim: int, q: float, spike: float, t_max: float, steps: int,
                      seed: int) -> TrajectorySeries:
    """One noise path under the uniform spike: spike positions and bulk tops.

    The times are ``steps + 1`` equal steps over ``[0, t_max]``; the path
    draws from ``derive_stream(seed, 0)``.
    """
    n = minor_size(q, n_dim)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 2 <= n <= n_dim:
        raise ValueError(f"path mode needs 2 <= round(qN) <= N, got n={n}, N={n_dim}")
    a_mat = rank_one(uniform_spike_vector(n_dim, spike))
    t_grid = np.linspace(0.0, t_max, steps + 1)
    path = sample_path(n_dim, t_grid, derive_stream(seed, 0))
    lam1 = np.empty(t_grid.size)
    lam2 = np.empty(t_grid.size)
    mu1 = np.empty(t_grid.size)
    mu2 = np.empty(t_grid.size)
    for k, h in enumerate(path):
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
    ``total_mass``) carries that total.
    """
    start = time.perf_counter()
    n_dim, q, t, n = config.n_dim, config.q, config.t, config.n
    if config.a_spec.kind != "tail_spike":
        raise ValueError("spike-bulk experiment needs a tail_spike deterministic part")
    spike = config.a_spec.spike
    mass_theory = spike_bulk_mass(spike, q, t)  # validates t < spike^2
    a_mat = config.a_spec.build(n_dim, n)
    edges = _bulk_bin_edges(t, config.bins, config.bin_range, radius_scale=np.sqrt(q))

    def trial(full, minor):
        if _spike_absorbed(full.eigenvalues[0], t):
            return None
        col = overlap_columns(full, minor, [0])[:, 0]
        means, counts = _bin_means(n_dim * col, minor.eigenvalues, edges)
        return means, counts, float(col.sum())

    kept, run = _run_decomposed(config, lambda seed: a_mat + sample_goe(n_dim, t, seed), trial,
                                requests=(0, None))
    if len(kept) < 2:
        raise NumericError("no usable spike-bulk trials (spike absorbed everywhere)")

    # spike_bulk_overlap = t (spike^2 - qt) / spike^2 / (mu - r0)^2 with the
    # real pole r0 = (spike^2 + qt) / spike outside the minor bulk
    r0 = (spike * spike + q * t) / spike
    theory, rho_bar = _binned_semicircle_average(
        edges, q * t, t * (spike * spike - q * t) / (spike * spike), r0, r0)
    radius = 2.0 * np.sqrt(t) * np.sqrt(q)
    mass_row = _trial_estimate(spike, [k[2] for k in kept], "total_mass")
    return _binned_report(config, start, kept, run, edges, (-radius, radius), theory, rho_bar,
                          {"spike": spike}, tail=((mass_row, mass_theory),))


# ---------------------------------------------------------------------------
# Bernoulli experiments
# ---------------------------------------------------------------------------

@_one_blas_thread()
def run_bernoulli_bulk(config: ExperimentConfig) -> ExperimentReport:
    """Bulk-pair overlaps of a Bernoulli matrix against the Gaussian kernel.

    The effective noise variance is ``p (1 - p)``; the top eigenpair of each
    matrix (the diverging spikes) is excluded before binning.  Full-side
    eigenvalues are restricted to a narrow window around zero, minor-side
    eigenvalues are binned.
    """
    start = time.perf_counter()
    n_dim, q, n, p = config.n_dim, config.q, config.n, config.p
    if not 0.0 < p < 1.0:
        raise ValueError("bernoulli bulk mode needs p in (0, 1)")
    if not 0.0 < q < 1.0 or not 1 <= n <= n_dim - 1:
        raise ValueError("need q in (0,1) with 1 <= round(qN) <= N-1")
    t_eff = p * (1.0 - p)
    edges = _bulk_bin_edges(t_eff, config.bins, config.bin_range, radius_scale=np.sqrt(q))
    # the lambda window is one bin of the full bulk's default grid
    full_edges = _bulk_bin_edges(t_eff, config.bins)
    full_window = full_edges[1] - full_edges[0]

    def window(full_evals):
        # index 0 of each spectrum is its diverging spike; the window picks full columns
        return 1 + np.flatnonzero(np.abs(full_evals[1:]) <= full_window / 2.0)

    def trial(full, minor):
        cols = window(full.eigenvalues)
        if not cols.size:
            return (np.full(edges.size - 1, np.nan), np.zeros(edges.size - 1))
        row_means = n_dim * overlap_columns(full, minor, cols)[1:].mean(axis=1)
        return _bin_means(row_means, minor.eigenvalues[1:], edges)

    kept, run = _run_decomposed(config, lambda seed: sample_bernoulli(n_dim, p, seed), trial,
                                requests=(window, None))

    # average the kernel over the lambda window (5-point Gauss) and the mu bin
    nodes, weights = np.polynomial.legendre.leggauss(5)
    theory = 0.0
    for lam, weight in zip(nodes * full_window / 2.0, weights / weights.sum()):
        # rho_bar is the same at every node
        avg, rho_bar = _binned_semicircle_average(edges, q * t_eff, (1.0 - q) * t_eff,
                                                  *_goe_kernel_poles(lam, 1.0, t_eff, q))
        theory = theory + weight * avg
    radius = 2.0 * np.sqrt(t_eff) * np.sqrt(q)
    return _binned_report(config, start, kept, run, edges, (-radius, radius), theory, rho_bar,
                          {"t_eff": t_eff})


@_one_blas_thread()
def run_bernoulli_spike(config: ExperimentConfig) -> ExperimentReport:
    """Deficit of the top-top overlap below ``n/N`` across matrix sizes.

    For each size of ``config.n_dims`` (default: ``config.n_dim`` alone) the
    estimate is ``n/N - mean overlap^2`` of the two top eigenvectors, matched
    against the 1/N term of the finite-size expansion.  Stream ids advance as
    ``size_index * trials + trial`` so the sweep is reproducible as a whole.
    """
    start = time.perf_counter()
    q, p = config.q, config.p
    if not 0.0 < p <= 1.0:
        raise ValueError("bernoulli spike mode needs p in (0, 1]")

    rows = []
    theory = []
    aborted = 0
    for idx, n_dim in enumerate(tuple(config.n_dims) or (config.n_dim,)):
        n = minor_size(q, n_dim)
        if not 1 <= n <= n_dim - 1:
            raise ValueError(f"size {n_dim}: round(qN) out of range")
        # both callables run to completion inside this iteration
        kept, run = _run_decomposed(config, lambda seed: sample_bernoulli(n_dim, p, seed),
                                    lambda full, minor: n / n_dim - overlap_entry(
                                        full, minor, 0, 0),
                                    requests=(0, 0), n=n, first_stream=idx * config.trials)
        aborted += run["aborted_trials"]
        rows.append(_trial_estimate(n_dim, kept, "deficit"))
        theory.append((1.0 - n / n_dim) * (1.0 / p - 1.0) / n_dim)

    return ExperimentReport(
        config=config,
        estimates=tuple(rows),
        theory=tuple(theory),
        coverage=_coverage(rows, theory)[0],
        wall_time_s=time.perf_counter() - start,
        extras={**run, "aborted_trials": aborted},
    )
