"""Empirical probes of the stochastic dynamics driving the overlap formulas.

Both probes freeze one noisy matrix and its minor, then drive many
independent Gaussian increments through the frozen state:

* :func:`correlation_probe` checks the product identity for quadratic forms
  of one increment against minor/full eigenvector pairs (an exact
  second-moment identity, so any increment size works).
* :func:`drift_probe` estimates the conditional drift of a squared overlap by
  finite differences and compares it with the three interaction sums that
  drive it; the martingale parts must average to zero.

The drift probes step the frozen matrix by chunks of increments on the trial
pool (:func:`minor_overlaps.montecarlo._pool_map`), one BLAS thread per
worker.  Each increment reads one number, the overlap of minor eigenvector
``i`` with full eigenvector ``j`` of the stepped matrix, so each step solves
for those two eigenvectors alone
(:func:`minor_overlaps.spectral.eigpair_at`: LAPACK ``dsyevr`` by index, or
a full ``eigh`` where numpy's OpenBLAS does not export it; the drift report
names the one used as ``stepper``).  Each probe draws from one generator: a
worker takes the next chunk index and draws that chunk's normals under a
lock, so chunk ``k`` always holds the ``k``-th draw, and the sums are
reduced in chunk order.  The results are therefore the same bit for bit at
every worker count.  The correlation probe runs serially; its matrix
products use the caller's BLAS threads.  Every probe refuses
``n_dim > MAX_PROBE_DIM``.
"""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np

from .ensembles import derive_stream, sample_goe
from .errors import NumericError
from .montecarlo import ExperimentReport, _coverage, _estimate, _pool_map
from .spectral import eig_sym, eigpair_at, eigpair_backend

_CHUNK = 2000
#: largest ``n_dim`` a probe accepts: the correlation probe's memory grows as ``n_dim^2``
MAX_PROBE_DIM = 100


def _frozen_state(n_dim: int, n: int, t: float, seed: int):
    """Frozen noisy matrix with its full/minor eigenpairs and signed overlaps.

    The minor is the bare leading ``n x n`` block, as everywhere in the
    package; its eigenvectors meet the first ``n`` coordinates of the full
    ones.
    """
    x_mat = sample_goe(n_dim, t, derive_stream(seed, 0))
    full = eig_sym(x_mat)
    block = eig_sym(x_mat[:n, :n])
    signed = block.eigenvectors.T @ full.eigenvectors[:n, :]
    return x_mat, full.eigenvalues, full.eigenvectors, block.eigenvalues, block.eigenvectors, signed


def _check_probe(n_dim: int, n: int, dt: float, chunk: int):
    """Refuse a matrix, minor, increment or chunk size no probe can use."""
    if n_dim > MAX_PROBE_DIM:
        raise ValueError(f"probes are restricted to n_dim <= {MAX_PROBE_DIM}, got {n_dim}")
    if not 1 <= n < n_dim:
        raise ValueError(f"need 1 <= n < n_dim, got n={n}, n_dim={n_dim}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"need a finite dt > 0, got {dt}")
    if chunk < 1:
        raise ValueError(f"need chunk >= 1, got {chunk}")


def _mean_se(total: float, total_sq: float, count: int):
    """Mean and standard error of ``count`` draws from their sum and sum of squares."""
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return mean, np.sqrt(var / count)


def _quadratic_form_coeffs(u: np.ndarray, w: np.ndarray, n_dim: int, dt: float, iu):
    """Coefficients c with ``u^T dX w = c . z`` for standard-normal entries z.

    ``z`` enumerates the upper triangle (off-diagonal first, then diagonal)
    of a symmetric increment with entry variances ``dt/N`` off the diagonal
    and ``2 dt/N`` on it.  Vectors shorter than ``n_dim``, such as minor
    eigenvectors, live on the first coordinates.
    """
    outer = np.zeros((n_dim, n_dim))
    outer[:u.size, :w.size] = np.outer(u, w)
    sym = outer + outer.T
    off = np.sqrt(dt / n_dim) * sym[iu]
    diag = np.sqrt(2.0 * dt / n_dim) * np.diag(outer)
    return np.concatenate([off, diag])


def correlation_probe(n_dim: int, n: int, t: float, samples: int, seed: int,
                      dt: float = 1.0, chunk: int = _CHUNK) -> ExperimentReport:
    """Check the increment correlation identity on a frozen state.

    The index lists are the three middle levels of the minor and of the full
    matrix.  For every quadruple ``(i, l, j, k)`` built from them, the probe
    estimates ``E[<phi_i| dXm |phi_l> <psi_j| dX |psi_k>] / dt`` over
    fresh increments (``dXm`` is the minor truncation of ``dX``) and matches
    it against ``(P_ij P_lk + P_ik P_lj) / N`` with ``P`` the frozen signed
    overlaps.  Estimate rows are ordered by quadruple; centers index them.
    """
    start = time.perf_counter()
    if samples < 10_000:
        raise ValueError("correlation probe needs at least 1e4 samples")
    _check_probe(n_dim, n, dt, chunk)
    _, _, full_vecs, _, block_vecs, signed = _frozen_state(n_dim, n, t, seed)

    minor_indices = (n // 2 - 1, n // 2, n // 2 + 1)
    full_indices = (n_dim // 2 - 1, n_dim // 2, n_dim // 2 + 1)
    minor_pairs = [(i, l) for i in minor_indices for l in minor_indices]
    full_pairs = [(j, k) for j in full_indices for k in full_indices]
    quads = [(i, l, j, k) for (i, l) in minor_pairs for (j, k) in full_pairs]

    # eig_sym columns are already in descending eigenvalue order
    iu = np.triu_indices(n_dim, k=1)
    minor_coeffs = np.array([
        _quadratic_form_coeffs(block_vecs[:, i], block_vecs[:, l], n_dim, dt, iu)
        for (i, l) in minor_pairs
    ])
    full_coeffs = np.array([
        _quadratic_form_coeffs(full_vecs[:, j], full_vecs[:, k], n_dim, dt, iu)
        for (j, k) in full_pairs
    ])

    n_entries = minor_coeffs.shape[1]
    sums = np.zeros(len(quads))
    sq_sums = np.zeros(len(quads))
    rng = derive_stream(seed, 1).generator()
    remaining = samples
    while remaining > 0:
        size = min(chunk, remaining)
        z = rng.standard_normal((size, n_entries))
        a = z @ minor_coeffs.T        # (size, n minor pairs)
        b = z @ full_coeffs.T         # (size, n full pairs)
        idx = 0
        for mp in range(len(minor_pairs)):
            for fp in range(len(full_pairs)):
                prod = a[:, mp] * b[:, fp]
                sums[idx] += prod.sum()
                sq_sums[idx] += (prod * prod).sum()
                idx += 1
        remaining -= size

    rows = []
    theory = []
    for idx, (i, l, j, k) in enumerate(quads):
        mean, se = _mean_se(sums[idx], sq_sums[idx], samples)
        rows.append(_estimate(idx, mean / dt, se / dt, samples, "correlation"))
        theory.append(float((signed[i, j] * signed[l, k] + signed[i, k] * signed[l, j]) / n_dim))

    return ExperimentReport(
        config={"probe": "correlation", "n_dim": n_dim, "n": n, "t": t,
                "samples": samples, "seed": seed, "dt": dt,
                "minor_indices": list(minor_indices), "full_indices": list(full_indices)},
        estimates=tuple(rows),
        theory=tuple(theory),
        coverage=_coverage(rows, theory)[0],
        wall_time_s=time.perf_counter() - start,
    )


def _drift_formula(signed: np.ndarray, lam: np.ndarray, mu: np.ndarray,
                   i: int, j: int, n_dim: int):
    """Exact drift of the squared overlap ``(i, j)`` on the frozen state.

    Three sums: full-spectrum interaction, minor-spectrum interaction, and
    the mixed term driven by the increment correlations.
    """
    p_ij = signed[i, j]
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps_full = lam[j] - lam
        term1 = (signed[i, :] ** 2 - p_ij ** 2) / gaps_full ** 2
        term1[j] = 0.0
        gaps_minor = mu[i] - mu
        term2 = (signed[:, j] ** 2 - p_ij ** 2) / gaps_minor ** 2
        term2[i] = 0.0
        inv_minor = 1.0 / gaps_minor
        inv_minor[i] = 0.0
        inv_full = 1.0 / gaps_full
        inv_full[j] = 0.0
    mixed = (p_ij * signed + np.outer(signed[:, j], signed[i, :])) ** 2
    d1 = term1.sum() / n_dim
    d2 = term2.sum() / n_dim
    d3 = 2.0 / n_dim * (inv_minor @ mixed @ inv_full)
    return d1, d2, d3


def _nearest_gap(values, idx):
    gaps = np.abs(values - values[idx])
    gaps[idx] = np.inf
    return gaps.min()


def _select_mid_bulk_pair(signed, lam, mu, n_dim, n, dt):
    """Mid-bulk pair with the largest-magnitude drift among well-separated levels.

    The finite-difference estimator linearizes over one step, which is only
    valid while the spectral gaps around the probed pair stay large compared
    to the per-step eigenvalue motion ``sqrt(2 dt / N)``; near-degenerate
    pairs are excluded (their huge formula drift comes with an O(dt/gap^2)
    estimator bias).
    """
    min_gap = 12.0 * np.sqrt(2.0 * dt / n_dim)
    best = fallback = None
    i_band = range(max(n // 2 - max(n // 10, 1), 1), n // 2 + max(n // 10, 1) + 1)
    j_band = range(max(n_dim // 2 - max(n_dim // 10, 1), 1), n_dim // 2 + max(n_dim // 10, 1) + 1)
    for i in i_band:
        for j in j_band:
            total = abs(sum(_drift_formula(signed, lam, mu, i, j, n_dim)))
            separated = (_nearest_gap(lam, j) >= min_gap
                         and _nearest_gap(mu, i) >= min_gap)
            if separated and (best is None or total > best[0]):
                best = (total, i, j)
            if fallback is None or total > fallback[0]:
                fallback = (total, i, j)
    chosen = best if best is not None else fallback
    return chosen[1], chosen[2]


def _drift_state(n_dim: int, n: int, t: float, seed: int, dt: float, chunk: int):
    """Frozen state of the drift probes and the probed mid-bulk pair ``(i, j)``."""
    if not (np.isfinite(t) and t > 0):
        raise ValueError(f"drift probe needs a finite t > 0 (at t = 0 the frozen "
                         f"levels are degenerate), got {t}")
    _check_probe(n_dim, n, dt, chunk)
    if n < 3:
        raise ValueError(f"a mid-bulk pair needs n >= 3, got n={n}")
    x_mat, lam, full_vecs, mu, block_vecs, signed = _frozen_state(n_dim, n, t, seed)
    return (x_mat, lam, full_vecs, mu, block_vecs, signed,
            _select_mid_bulk_pair(signed, lam, mu, n_dim, n, dt))


def _stepped_overlaps(x_mat: np.ndarray, dh: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """Signed overlap of minor eigenvector ``i`` and full eigenvector ``j`` of each ``x_mat + dh[c]``.

    Each matrix is solved for those two eigenvectors alone
    (:func:`minor_overlaps.spectral.eigpair_at`).  The solvers and their
    buffers are made per call, so every pool worker has its own.
    """
    n_dim = x_mat.shape[0]
    full_pair, minor_pair = eigpair_at(n_dim), eigpair_at(n)
    full = np.empty((n_dim, n_dim))
    block = full[:n, :n]
    minor = np.empty((n, n))
    out = np.empty(len(dh))
    for c in range(len(dh)):
        np.add(x_mat, dh[c], out=full)
        minor[:] = block  # before the full solve overwrites full
        _, psi = full_pair(full, j)
        _, phi = minor_pair(minor, i)
        out[c] = phi @ psi[:n]
    return out


def _map_increments(rng, n_dim: int, scale: float, total: int, chunk: int, work):
    """``work(dh)`` over ``total`` symmetric increments in chunks, on the trial pool.

    A worker takes the next chunk index and draws that chunk's standard
    normals ``z`` from ``rng`` under one lock, so chunk ``k`` always holds the
    ``k``-th draw whichever worker runs it; ``dh = (z + z^T) * scale``.  The
    pool has one worker per core.  Returns the results in chunk order and the
    pool's thread counts.
    """
    lock = threading.Lock()
    taken = itertools.count()

    def run(_):
        with lock:
            k = next(taken)
            z = rng.standard_normal((min(chunk, total - k * chunk), n_dim, n_dim))
        dh = z + np.transpose(z, (0, 2, 1))
        del z
        dh *= scale
        return k, work(dh)

    results, used = _pool_map(0, run, -(-total // chunk))
    results.sort(key=lambda r: r[0])
    return [r for _, r in results], used


def drift_probe(n_dim: int, n: int, t: float, dt: float = 1e-4,
                trials: int = 100_000, seed: int = 0,
                chunk: int = 500) -> ExperimentReport:
    """Finite-difference drift of one squared overlap vs the drift formula.

    Rows: drift estimate against the formula value, then the two martingale
    term averages against zero.  The probed pair is the mid-bulk one with
    the largest-magnitude formula drift among well-separated levels, so the
    relative comparison is well conditioned.  The frozen state is decomposed with the caller's
    BLAS threads.  The ``trials`` increments run in chunks of ``chunk`` on
    the trial pool, one worker per core, each worker with one BLAS thread;
    the caller's count is restored afterwards.  Chunk ``k`` holds the
    ``k``-th draw of the probe's generator and the sums reduce in chunk
    order, so the report is the same bit for bit at every worker count.  Its
    extras record the ``pair``, the ``pool_threads`` and
    ``trial_blas_threads``, and the ``stepper`` (``dsyevr`` or ``eigh``) that
    solved the stepped matrices.
    """
    start = time.perf_counter()
    if trials < 1000:
        raise ValueError("drift probe needs at least 1000 trials")
    x_mat, lam, full_vecs, mu, block_vecs, signed, (i, j) = _drift_state(
        n_dim, n, t, seed, dt, chunk)
    d1, d2, d3 = _drift_formula(signed, lam, mu, i, j, n_dim)
    s0 = signed[i, j] ** 2

    psi_j = full_vecs[:, j]
    phi_i = block_vecs[:, i]
    with np.errstate(divide="ignore"):
        w_full = signed[i, :] * signed[i, j] / (lam[j] - lam)
        w_full[j] = 0.0
        w_minor = signed[:, j] * signed[i, j] / (mu[i] - mu)
        w_minor[i] = 0.0

    def chunk_terms(dh):
        a = _stepped_overlaps(x_mat, dh, n, i, j)
        dh_psi = np.einsum("cab,b->ca", dh, psi_j)
        beta_full = dh_psi @ full_vecs          # (c, N): <psi_k| dX |psi_j>
        dh_phi = np.einsum("cab,b->ca", dh[:, :n, :n], phi_i)
        beta_minor = dh_phi @ block_vecs        # (c, n): <phi_l| dXm |phi_i>
        return a * a - s0, 2.0 * beta_full @ w_full, 2.0 * beta_minor @ w_minor

    chunks, used = _map_increments(derive_stream(seed, 1).generator(), n_dim,
                                   np.sqrt(dt / (2.0 * n_dim)), trials, chunk, chunk_terms)
    sums = np.zeros(3)
    sq_sums = np.zeros(3)
    for terms in chunks:
        for slot, vals in enumerate(terms):
            sums[slot] += vals.sum()
            sq_sums[slot] += (vals * vals).sum()

    rows = []
    for slot, kind in enumerate(("drift", "martingale_full", "martingale_minor")):
        mean, se = _mean_se(sums[slot], sq_sums[slot], trials)
        rows.append(_estimate(slot, mean / dt, se / dt, trials, kind))
    theory = (float(d1 + d2 + d3), 0.0, 0.0)
    return ExperimentReport(
        config={"probe": "drift", "n_dim": n_dim, "n": n, "t": t, "dt": dt,
                "trials": trials, "seed": seed},
        estimates=tuple(rows),
        theory=theory,
        coverage=_coverage(rows, theory)[0],
        wall_time_s=time.perf_counter() - start,
        extras={"pair": (i, j), **used, "stepper": eigpair_backend()},
    )


def drift_step_consistency(n_dim: int, n: int, t: float, dt: float = 1e-4,
                           trials: int = 20_000, seed: int = 0, chunk: int = 500):
    """First-order check: the finite-step bias doubles when the step doubles.

    Measures the drift estimator at ``dt``, ``2 dt`` and ``4 dt`` with common
    random increments and returns the mean and standard error of the per-draw
    combination ``est(4dt) - 3 est(2dt) + 2 est(dt)``, which vanishes when
    the bias is linear in the step.  The increments run on the trial pool with
    ordered draws, as in :func:`drift_probe`, so the result is the same bit
    for bit at every worker count.
    """
    x_mat, _, _, _, _, signed, (i, j) = _drift_state(n_dim, n, t, seed, dt, chunk)
    s0 = signed[i, j] ** 2

    def chunk_combo(dh):
        ests = []
        for mult in (1.0, 2.0, 4.0):
            a = _stepped_overlaps(x_mat, np.sqrt(mult) * dh, n, i, j)
            ests.append((a * a - s0) / (mult * dt))
        return ests[2] - 3.0 * ests[1] + 2.0 * ests[0]

    combos, _ = _map_increments(derive_stream(seed, 2).generator(), n_dim,
                                np.sqrt(dt / (2.0 * n_dim)), trials, chunk, chunk_combo)
    total = 0.0
    total_sq = 0.0
    for combo in combos:
        total += combo.sum()
        total_sq += (combo * combo).sum()

    mean, se = _mean_se(total, total_sq, trials)
    if se == 0.0:
        raise NumericError("degenerate step-consistency probe (zero variance)")
    return float(mean), float(se), (i, j)
