"""Finite-size experiments that estimate overlaps and compare against theory.

Every experiment runs its trials through :func:`_run_decomposed`: one
independent random stream per trial
(:func:`minor_overlaps.ensembles.derive_stream`), each trial decomposes its
matrix and the bare leading ``n x n`` block and audits Cauchy interlacing,
and trials run concurrently but reduce in trial-index order.  99% confidence
intervals use the normal approximation over per-trial statistics
(:func:`_estimate`).  The trial pool has one worker per available core
(``threads=0``), and while trials run numpy's OpenBLAS is held at one
thread, so each worker decomposes single-threaded and the caller's BLAS
setting is restored afterwards.  Reports therefore
reproduce bit for bit for a fixed master seed, independent of worker count
and of the caller's BLAS thread count.  Set-up decompositions outside the
trials (such as the initial transform of an explicit deterministic part)
still run with the caller's BLAS setting.

Binned comparisons use the density-weighted average of the theory curve over
each bin rather than its value at the bin center: the Monte Carlo bin mean
averages eigenvalues distributed with density rho across the bin, and for
sharply peaked kernels the center value differs from that average by far
more than a confidence interval.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

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
from .errors import DomainError, NumericError
from .freeprob import (
    SpectrumModel,
    boundary_values,
    leading_block_model,
    scan_support_edge,
    semicircle_density,
    solve_minor_stieltjes,
    solve_stieltjes,
)
from .overlaps_theory import (
    FiniteInitialTransform,
    interlace_interval,
    kernel_goe_value,
    overlap_kernel,
    spike_bulk_mass,
    spike_bulk_overlap,
    spike_spike_overlap,
)
from .spectral import check_interlacing, eig_sym, minor_size, overlap_grid, quantile_index

Z_99 = 2.575829303548901  # two-sided 99% normal quantile
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
    """Shared experiment parameters; runners validate the fields they use."""

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
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread for the block; yields 1, or None if unreachable.

    The count is process-wide, so the caller's value is restored on exit.
    """
    blas = _openblas_threads()
    if blas is None:
        yield None
        return
    get_threads, set_threads = blas
    previous = get_threads()
    set_threads(1)
    try:
        yield 1
    finally:
        set_threads(previous)


def _run_trials(trials: int, threads: int, worker):
    """Run trials concurrently, preserving trial order; None marks an abort.

    Returns ``(results, aborted, used)`` where ``used`` holds the resolved
    ``pool_threads`` and the ``trial_blas_threads`` the trials ran with (None
    when the BLAS count could not be set).  Each pool worker gets one BLAS
    thread, so the pool never oversubscribes the cores and the arithmetic, and
    hence the output bytes, do not depend on ``threads``.
    """

    def safe(m):
        try:
            return worker(m)
        except NumericError:
            return None

    if threads == 0:  # one worker per core this process may run on
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    threads = max(threads, 1)
    with _one_blas_thread() as blas_threads:
        if threads == 1:
            results = [safe(m) for m in range(trials)]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(safe, range(trials)))
    aborted = sum(r is None for r in results)
    if aborted > MAX_ABORT_FRACTION * trials:
        raise NumericError(f"{aborted}/{trials} trials aborted; run rejected")
    return results, aborted, {"pool_threads": threads, "trial_blas_threads": blas_threads}


def _bulk_bin_edges(t: float, bins: int, bin_range, radius_scale: float = 1.0) -> np.ndarray:
    if bin_range is not None:
        lo, hi = bin_range
    else:
        root = np.sqrt(t) * radius_scale
        lo, hi = -2.0 * root + 0.1 * root, 2.0 * root - 0.1 * root
    if not lo < hi:
        raise ValueError("empty bin range")
    return np.linspace(lo, hi, bins + 1)


def _interior_mask(centers: np.ndarray, lo: float, hi: float) -> np.ndarray:
    margin = INTERIOR_EDGE_FRACTION * (hi - lo)
    return ((centers - lo) >= margin) & ((hi - centers) >= margin)


def _estimate(center, mean, sd, n_samples, kind="bin", sqrt_n=1.0) -> OverlapEstimate:
    """Estimate with its 99% normal interval ``mean +- Z_99 * sd / sqrt_n``.

    ``sd`` is a sample standard deviation with ``sqrt_n`` the root of its
    sample count, or a ready standard error with ``sqrt_n = 1``.  A NaN
    ``mean`` gives a row without estimate.
    """
    if np.isnan(mean):
        return OverlapEstimate(center=float(center), mean=None, ci_low=None, ci_high=None,
                               n_samples=int(n_samples), kind=kind)
    half = Z_99 * sd / sqrt_n
    return OverlapEstimate(center=float(center), mean=float(mean), ci_low=float(mean - half),
                           ci_high=float(mean + half), n_samples=int(n_samples), kind=kind)


def _binned(kept, edges: np.ndarray, theory, interior):
    """Across-trial bin estimates and the share of them that cover ``theory``.

    Every kept trial result starts with its per-bin means and counts.  A bin
    needs two trial means for an estimate.  Coverage counts the interior
    bins that have an estimate and a finite theory value, and is None when
    there are none.  Returns ``(rows, coverage)``.
    """
    per_means = np.array([k[0] for k in kept])
    n_samples = np.array([k[1] for k in kept]).sum(axis=0).astype(int)
    rows = []
    for b, c in enumerate(0.5 * (edges[:-1] + edges[1:])):
        vals = per_means[:, b]
        vals = vals[~np.isnan(vals)]
        mean = sd = np.nan
        if vals.size >= 2:
            mean, sd = vals.mean(), vals.std(ddof=1)
        rows.append(_estimate(c, mean, sd, n_samples[b], sqrt_n=np.sqrt(vals.size)))
    judged = [(est, th) for est, th, keep in zip(rows, theory, interior)
              if keep and est.mean is not None and not np.isnan(th)]
    if not judged:
        return rows, None
    return rows, sum(est.ci_low <= th <= est.ci_high for est, th in judged) / len(judged)


def _binned_semicircle_average(func, edges: np.ndarray, t: float):
    """Density-weighted average of ``func`` over each bin, plus mean density.

    Returns ``(theory, rho_bar)`` where ``rho_bar`` is the average semicircle
    density over the bin (the multiplier used for figure-style curves).
    """
    theory = np.empty(edges.size - 1)
    rho_bar = np.empty(edges.size - 1)
    for b, (a, c) in enumerate(zip(edges[:-1], edges[1:])):
        num, _ = quad(lambda l: func(l) * semicircle_density(l, t), a, c, limit=100)
        den, _ = quad(lambda l: semicircle_density(l, t), a, c, limit=100)
        theory[b] = num / den
        rho_bar[b] = den / (c - a)
    return theory, rho_bar


def _bin_means(values: np.ndarray, positions: np.ndarray, edges: np.ndarray):
    """Mean of ``values`` per bin of ``positions`` (NaN for empty bins)."""
    bins = edges.size - 1
    which = np.digitize(positions, edges) - 1
    means = np.full(bins, np.nan)
    counts = np.zeros(bins)
    for b in range(bins):
        sel = which == b
        if sel.any():
            means[b] = values[sel].mean()
            counts[b] = sel.sum()
    return means, counts


def _scan_general_support(full_ev, model: SpectrumModel, t: float):
    """Support bounds of the evolved density for a general initial spectrum."""
    span = float(np.max(np.abs(model._locs))) + 2.0 * np.sqrt(t) + 1.0
    grid = np.linspace(-span, span, 61)
    dens = [np.imag(full_ev(complex(x, -1e-6))) / np.pi for x in grid]
    inside = float(grid[int(np.argmax(dens))])
    hi = scan_support_edge(full_ev, inside, span)
    lo = scan_support_edge(full_ev, inside, -span)
    return lo, hi


def _binned_general_theory(s0, mu_hat, t, q, full_ev, minor_ev, edges):
    """Density-weighted bin averages of the general kernel (NaN where refused).

    Five-point Gauss nodes per bin, weighted by the boundary density; bins
    inside spectral gaps or edge zones (all nodes refused) get NaN theory and
    drop out of coverage, matching the absence of eigenvalues there.
    """
    nodes, gauss_w = np.polynomial.legendre.leggauss(5)
    theory = np.full(edges.size - 1, np.nan)
    rho_bar = np.zeros(edges.size - 1)
    for b, (a, c) in enumerate(zip(edges[:-1], edges[1:])):
        lams = 0.5 * (a + c) + 0.5 * (c - a) * nodes
        rhos = np.array([boundary_values(full_ev, lam, t).rho for lam in lams])
        rho_bar[b] = float(gauss_w @ rhos / gauss_w.sum())
        weights, values = [], []
        for lam, rho, gw in zip(lams, rhos, gauss_w):
            try:
                point = overlap_kernel(s0, mu_hat, lam, t, q, full_ev, minor_ev)
            except DomainError:
                continue
            weights.append(gw * rho)
            values.append(point.value)
        if len(values) >= 2 and sum(weights) > 0:
            theory[b] = float(np.dot(weights, values) / np.sum(weights))
    return theory, rho_bar


def _run_decomposed(config: ExperimentConfig, sample, trial, n: int | None = None,
                    first_stream: int = 0):
    """Run ``config.trials`` decomposed trials; returns ``(kept, run)``.

    Trial ``m`` draws ``x = sample(derive_stream(config.master_seed,
    first_stream + m))``, decomposes ``x`` and its bare leading ``n x n``
    block (``n`` defaults to ``config.n``), audits Cauchy interlacing, and
    returns ``trial(full, grid)``, or None for an absorbed spike.  ``kept``
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
        full = eig_sym(x_mat)
        grid = overlap_grid(full, eig_sym(x_mat[:n, :n]))
        ok, margin = check_interlacing(full.eigenvalues, grid.minor_evals)
        if not ok:
            raise NumericError(f"interlacing violated by margin {margin:.3e}")
        return (trial(full, grid),)

    results, aborted, used = _run_trials(config.trials, config.threads, worker)
    done = [r[0] for r in results if r is not None]
    kept = [r for r in done if r is not None]
    return kept, {"aborted_trials": aborted, "absorbed_trials": len(done) - len(kept), **used}


# ---------------------------------------------------------------------------
# bulk experiment
# ---------------------------------------------------------------------------

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
        full_ev = minor_ev = s0 = None
        edges = _bulk_bin_edges(t, config.bins, config.bin_range)
        hi_edge = 2.0 * np.sqrt(t)
        lo_edge = -hi_edge
    else:
        full_model = SpectrumModel.from_eigenvalues(np.linalg.eigvalsh(a_mat))
        minor_model = leading_block_model(a_mat, n, q)
        full_ev = lambda z: solve_stieltjes(full_model, z, t)
        minor_ev = lambda z: solve_minor_stieltjes(minor_model, z, t, q)
        s0 = FiniteInitialTransform.from_matrix(a_mat, n)
        if config.bin_range is not None:
            lo_edge, hi_edge = config.bin_range
            edges = np.linspace(lo_edge, hi_edge, config.bins + 1)
        else:
            lo_edge, hi_edge = _scan_general_support(full_ev, full_model, t)
            margin = 0.025 * (hi_edge - lo_edge)
            edges = np.linspace(lo_edge + margin, hi_edge - margin, config.bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    row_idx = quantile_index(config.x, n) - 1

    def sample(seed):
        x_mat = sample_goe(n_dim, t, seed)
        return x_mat if a_mat is None else x_mat + a_mat

    def trial(full, grid):
        row = n_dim * grid.values[row_idx]
        means, counts = _bin_means(row, grid.full_evals, edges)
        return means, counts, grid.minor_evals[row_idx], grid.row_sum_error()

    kept, run = _run_decomposed(config, sample, trial)
    mu_hat = float(np.mean([r[2] for r in kept]))
    worst_row_err = float(max(r[3] for r in kept))

    if a_mat is None:
        theory, rho_bar = _binned_semicircle_average(
            lambda l: kernel_goe_value(mu_hat, l, t, q), edges, t)
    else:
        theory, rho_bar = _binned_general_theory(s0, mu_hat, t, q,
                                                 full_ev, minor_ev, edges)
    interior = _interior_mask(centers, lo_edge, hi_edge)
    rows, coverage = _binned(kept, edges, theory, interior)

    extras = {
        "mu_hat": mu_hat,
        "bin_edges": edges.tolist(),
        "rho_bin": rho_bar.tolist(),
        "interior": interior.tolist(),
        "bin_width": float(edges[1] - edges[0]),
        "worst_row_sum_error": worst_row_err,
        **run,
    }
    figure_curve = np.array([np.nan if r.mean is None else r.mean for r in rows]) * rho_bar
    interior_idx = np.flatnonzero(interior & ~np.isnan(figure_curve))
    if interior_idx.size:
        extras["argmax_center"] = float(
            centers[interior_idx[np.argmax(figure_curve[interior_idx])]])
    if a_mat is None:
        lo, hi = interlace_interval(config.x, t, q)
        extras["interlace_lo"] = float(lo)
        extras["interlace_hi"] = float(hi)

    return ExperimentReport(
        config=config,
        estimates=tuple(rows),
        theory=tuple(float(v) for v in theory),
        coverage=coverage,
        wall_time_s=time.perf_counter() - start,
        extras=extras,
    )


# ---------------------------------------------------------------------------
# spike experiments
# ---------------------------------------------------------------------------

def _spike_absorbed(top_eval: float, t: float) -> bool:
    edge = 2.0 * np.sqrt(t)
    return top_eval < edge + SPIKE_ABSORB_MARGIN * edge


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

    def trial(full, grid):
        if _spike_absorbed(full.eigenvalues[0], t):
            return None
        return float(grid.values[0, 0])

    kept, run = _run_decomposed(config, lambda seed: a_mat + sample_goe(n_dim, t, seed), trial)
    vals = np.array(kept)
    if vals.size < 2:
        raise NumericError("no usable spike-spike trials (spike absorbed everywhere)")
    est = _estimate(t, vals.mean(), vals.std(ddof=1), vals.size, "top_overlap",
                    np.sqrt(vals.size))
    return ExperimentReport(
        config=config,
        estimates=(est,),
        theory=(float(theory),),
        coverage=None,
        wall_time_s=time.perf_counter() - start,
        extras={"spike": spike, "minor_spike": minor_spike, **run},
    )


def spike_path_series(config: ExperimentConfig, t_max: float, steps: int) -> TrajectorySeries:
    """One noise path: spike positions and bulk tops on a uniform time grid."""
    n_dim, n = config.n_dim, config.n
    if steps < 1:
        raise ValueError("steps must be >= 1")
    a_mat = config.a_spec.build(n_dim, n)
    if a_mat is None:
        raise ValueError("path mode needs a deterministic part with a spike")
    t_grid = np.linspace(0.0, t_max, steps + 1)
    path = sample_path(n_dim, t_grid, derive_stream(config.master_seed, 0))
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
    centers = 0.5 * (edges[:-1] + edges[1:])

    def trial(full, grid):
        if _spike_absorbed(full.eigenvalues[0], t):
            return None
        col = grid.values[:, 0]
        means, counts = _bin_means(n_dim * col, grid.minor_evals, edges)
        return means, counts, float(col.sum())

    kept, run = _run_decomposed(config, lambda seed: a_mat + sample_goe(n_dim, t, seed), trial)
    if len(kept) < 2:
        raise NumericError("no usable spike-bulk trials (spike absorbed everywhere)")
    totals = np.array([k[2] for k in kept])

    theory, rho_bar = _binned_semicircle_average(
        lambda m_: spike_bulk_overlap(spike, q, t, m_), edges, q * t)
    radius = 2.0 * np.sqrt(t) * np.sqrt(q)
    interior = _interior_mask(centers, -radius, radius)
    rows, coverage = _binned(kept, edges, theory, interior)
    mass_row = _estimate(spike, totals.mean(), totals.std(ddof=1), totals.size, "total_mass",
                         np.sqrt(totals.size))

    return ExperimentReport(
        config=config,
        estimates=tuple(rows) + (mass_row,),
        theory=tuple(float(v) for v in theory) + (float(mass_theory),),
        coverage=coverage,
        wall_time_s=time.perf_counter() - start,
        extras={
            "spike": spike,
            "bin_edges": edges.tolist(),
            "rho_bin": rho_bar.tolist(),
            "interior": interior.tolist(),
            **run,
        },
    )


# ---------------------------------------------------------------------------
# Bernoulli experiments
# ---------------------------------------------------------------------------

def run_bernoulli(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch on ``config.target``: ``bernoulli_bulk`` or ``bernoulli_spike``."""
    if config.target == "bernoulli_bulk":
        return _run_bernoulli_bulk(config)
    if config.target == "bernoulli_spike":
        return _run_bernoulli_spike(config)
    raise ValueError(f"unknown Bernoulli target {config.target!r}")


def _run_bernoulli_bulk(config: ExperimentConfig) -> ExperimentReport:
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
    centers = 0.5 * (edges[:-1] + edges[1:])
    full_window = (_bulk_bin_edges(t_eff, config.bins, None)[1]
                   - _bulk_bin_edges(t_eff, config.bins, None)[0])

    def trial(_, grid):
        # rows/columns 0 are the diverging spikes of each matrix
        bulk_vals = grid.values[1:, 1:]
        bulk_mu = grid.minor_evals[1:]
        bulk_lam = grid.full_evals[1:]
        jsel = np.abs(bulk_lam) <= full_window / 2.0
        if not jsel.any():
            return (np.full(edges.size - 1, np.nan), np.zeros(edges.size - 1))
        row_means = n_dim * bulk_vals[:, jsel].mean(axis=1)
        return _bin_means(row_means, bulk_mu, edges)

    kept, run = _run_decomposed(config, lambda seed: sample_bernoulli(n_dim, p, seed), trial)

    # average the kernel over the lambda window (5-point Gauss) and the mu bin
    nodes, weights = np.polynomial.legendre.leggauss(5)
    lam_nodes = nodes * full_window / 2.0

    def window_kernel(m_):
        return float(np.sum(weights * kernel_goe_value(m_, lam_nodes, t_eff, q)) / weights.sum())

    theory, rho_bar = _binned_semicircle_average(window_kernel, edges, q * t_eff)
    radius = 2.0 * np.sqrt(t_eff) * np.sqrt(q)
    interior = _interior_mask(centers, -radius, radius)
    rows, coverage = _binned(kept, edges, theory, interior)

    return ExperimentReport(
        config=config,
        estimates=tuple(rows),
        theory=tuple(float(v) for v in theory),
        coverage=coverage,
        wall_time_s=time.perf_counter() - start,
        extras={
            "t_eff": t_eff,
            "bin_edges": edges.tolist(),
            "rho_bin": rho_bar.tolist(),
            "interior": interior.tolist(),
            "lambda_window": float(full_window),
            **run,
        },
    )


def _run_bernoulli_spike(config: ExperimentConfig) -> ExperimentReport:
    """Deficit of the top-top overlap below ``n/N`` across matrix sizes.

    For each size the estimate is ``n/N - mean overlap^2`` of the two top
    eigenvectors, matched against the 1/N term of the finite-size expansion.
    Stream ids advance as ``size_index * trials + trial`` so the sweep is
    reproducible as a whole.
    """
    start = time.perf_counter()
    q, p = config.q, config.p
    if not 0.0 < p <= 1.0:
        raise ValueError("bernoulli spike mode needs p in (0, 1]")
    sizes = tuple(config.n_dims) or (config.n_dim,)

    rows = []
    theory = []
    aborted = 0
    for idx, n_dim in enumerate(sizes):
        n = minor_size(q, n_dim)
        if not 1 <= n <= n_dim - 1:
            raise ValueError(f"size {n_dim}: round(qN) out of range")
        # both callables run to completion inside this iteration
        kept, run = _run_decomposed(config, lambda seed: sample_bernoulli(n_dim, p, seed),
                                    lambda _, grid: n / n_dim - float(grid.values[0, 0]),
                                    n=n, first_stream=idx * config.trials)
        aborted += run["aborted_trials"]
        vals = np.array(kept)
        rows.append(_estimate(n_dim, vals.mean(), vals.std(ddof=1), vals.size, "deficit",
                              np.sqrt(vals.size)))
        theory.append((1.0 - n / n_dim) * (1.0 / p - 1.0) / n_dim)

    hits = sum(r.ci_low <= th <= r.ci_high for r, th in zip(rows, theory))
    return ExperimentReport(
        config=config,
        estimates=tuple(rows),
        theory=tuple(theory),
        coverage=hits / len(rows),
        wall_time_s=time.perf_counter() - start,
        extras={"sizes": list(sizes), **run, "aborted_trials": aborted},
    )
