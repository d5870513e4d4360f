"""Empirical probes of the stochastic dynamics driving the overlap formulas.

Both probes freeze one noisy matrix and its minor, then drive many
independent Gaussian increments through the frozen state:

* :func:`correlation_probe` checks the product identity for quadratic forms
  of one increment against minor/full eigenvector pairs (an exact
  second-moment identity, so any increment size works).
* :func:`drift_probe` estimates the conditional drift of a squared overlap by
  finite differences and compares it with the three interaction sums that
  drive it; the martingale parts must average to zero.

The drift probe steps its increments on the trial pool
(:func:`minor_overlaps.montecarlo._pool_map`) at one BLAS thread;
:func:`drift_probe` states how they stream and why its report is the same bit
for bit at every worker count.  Each increment reads one number, the overlap
of minor eigenvector ``i`` with full eigenvector ``j`` of the stepped matrix,
so each step solves for those two eigenvectors alone
(:func:`minor_overlaps.spectral.eigpair_at`: LAPACK ``dsyevr`` by index, or a
full ``eigh`` where numpy's OpenBLAS does not export it; the drift report
names the one used as ``stepper``).  The correlation probe runs serially in
batches of ``_CHUNK`` samples; its matrix products use the caller's BLAS
threads.  Both probes report through :func:`_probe_report`.
Every probe refuses ``n_dim > MAX_PROBE_DIM`` and a minor without three
middle levels.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time

import numpy as np

from .ensembles import derive_stream, sample_goe
from .montecarlo import ExperimentReport, Z_99, _coverage, _estimate, _one_blas_thread, _pool_map
from .spectral import eig_sym, eigpair_at, eigpair_backend

#: correlation-probe samples drawn and reduced per batch
_CHUNK = 2000
#: drift increments whose rows reduce in one ``(_GROUP x N) . (N x N)`` product; the
#: printed bytes depend on it, since a product's rows round with its row count
_GROUP = 500
#: drift increments one pool task steps: each block in flight holds ``_BLOCK x N^2`` floats
_BLOCK = 25
#: largest ``n_dim`` a probe accepts: the correlation probe's memory grows as ``n_dim^2``
MAX_PROBE_DIM = 100


def _frozen_state(n_dim: int, n: int, t: float, seed: int):
    """Frozen noisy matrix with its full/minor eigenpairs and signed overlaps.

    The minor is the bare leading ``n x n`` block, as everywhere in the
    package; its eigenvectors meet the first ``n`` coordinates of the full
    ones.
    """
    x_mat = sample_goe(n_dim, t, derive_stream(seed, 0))
    full, block = eig_sym(x_mat), eig_sym(x_mat[:n, :n])
    # C-ordered copies: the drift probe's products round with their operands' layout
    full_vecs, block_vecs = full.vectors(np.arange(n_dim)), block.vectors(np.arange(n))
    signed = block_vecs.T @ full_vecs[:n, :]
    return x_mat, full.eigenvalues, full_vecs, block.eigenvalues, block_vecs, signed


def _check_probe(n_dim: int, n: int, dt: float):
    """Refuse a matrix, minor or increment size no probe can use.

    Both probes read minor levels around ``n // 2``, so the minor needs three.
    """
    if n_dim > MAX_PROBE_DIM:
        raise ValueError(f"probes are restricted to n_dim <= {MAX_PROBE_DIM}, got {n_dim}")
    if not 1 <= n < n_dim:
        raise ValueError(f"need 1 <= n < n_dim, got n={n}, n_dim={n_dim}")
    if n < 3:
        raise ValueError(f"a mid-bulk pair needs n >= 3, got n={n}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"need a finite dt > 0, got {dt}")


def _probe_report(config: dict, start: float, sums, sq_sums, count: int, dt: float,
                  kinds, theory, extras=None) -> ExperimentReport:
    """Report on rows of ``count`` draws each, from the draws' sums and sums of squares.

    Row ``k``, of kind ``kinds[k]``, estimates its draws' mean per unit
    ``dt`` with a 99% normal interval from their population variance, against
    ``theory[k]``.
    """
    mean = sums / count
    se = np.sqrt(np.maximum(sq_sums / count - mean * mean, 0.0) / count)
    rows = [_estimate(k, m / dt, Z_99 * (e / dt), count, kind)
            for k, (m, e, kind) in enumerate(zip(mean, se, kinds))]
    return ExperimentReport(config=config, estimates=tuple(rows), theory=tuple(theory),
                            coverage=_coverage(rows, theory)[0],
                            wall_time_s=time.perf_counter() - start, extras=extras or {})


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
                      dt: float = 1.0) -> ExperimentReport:
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
    _check_probe(n_dim, n, dt)
    _, _, full_vecs, _, block_vecs, signed = _frozen_state(n_dim, n, t, seed)

    minor_indices = (n // 2 - 1, n // 2, n // 2 + 1)
    full_indices = (n_dim // 2 - 1, n_dim // 2, n_dim // 2 + 1)
    minor_pairs = [(i, l) for i in minor_indices for l in minor_indices]
    full_pairs = [(j, k) for j in full_indices for k in full_indices]

    # the frozen vectors' columns are already in descending eigenvalue order
    iu = np.triu_indices(n_dim, k=1)
    minor_coeffs, full_coeffs = (
        np.array([_quadratic_form_coeffs(vecs[:, u], vecs[:, w], n_dim, dt, iu) for u, w in pairs])
        for vecs, pairs in ((block_vecs, minor_pairs), (full_vecs, full_pairs)))

    sums = np.zeros((len(minor_pairs), len(full_pairs)))
    sq_sums = np.zeros_like(sums)
    rng = derive_stream(seed, 1).generator()
    for done in range(0, samples, _CHUNK):
        z = rng.standard_normal((min(_CHUNK, samples - done), minor_coeffs.shape[1]))
        # one contiguous row per pair of projections: each row sums as one 1-D array
        a, b = (np.ascontiguousarray((z @ c.T).T) for c in (minor_coeffs, full_coeffs))
        for mp, row in enumerate(a):
            prod = row * b
            sums[mp] += prod.sum(axis=1)
            sq_sums[mp] += (prod * prod).sum(axis=1)

    theory = [float((signed[i, j] * signed[l, k] + signed[i, k] * signed[l, j]) / n_dim)
              for (i, l) in minor_pairs for (j, k) in full_pairs]
    config = {"probe": "correlation", "n_dim": n_dim, "n": n, "t": t, "samples": samples,
              "seed": seed, "dt": dt, "minor_indices": list(minor_indices),
              "full_indices": list(full_indices)}
    return _probe_report(config, start, sums.ravel(), sq_sums.ravel(), samples, dt,
                         ["correlation"] * len(theory), theory)


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


def drift_probe(n_dim: int, n: int, t: float, dt: float = 1e-4,
                trials: int = 100_000, seed: int = 0) -> ExperimentReport:
    """Finite-difference drift of one squared overlap vs the drift formula.

    Rows: drift estimate against the formula value, then the two martingale
    term averages against zero.  The probed pair is the mid-bulk one with
    the largest-magnitude formula drift among well-separated levels, so the
    relative comparison is well conditioned.  The whole probe, the frozen
    state included, runs with OpenBLAS held at one thread; the caller's
    count is restored afterwards.

    The caller's thread draws the ``trials`` increments from the probe's one
    generator, block ``k`` (at most ``_BLOCK`` increments) ``k``-th, as the
    trial pool (:func:`~minor_overlaps.montecarlo._pool_map`, one worker per
    core) reads them.  A pool task symmetrizes its block in place, steps each
    increment with its thread's own solver pair, and returns per-increment
    rows.  The caller joins the rows of each ``_GROUP`` of draws in draw
    order and reduces the groups in order.  So the report is the same bit for
    bit at every worker count, and memory holds one group of rows plus the
    blocks the pool runs ahead, whatever ``trials`` is.  The extras record
    the ``pair``, the ``pool_threads`` and ``trial_blas_threads``, and the
    ``stepper`` (``dsyevr`` or ``eigh``) that solved the stepped matrices.
    """
    start = time.perf_counter()
    if trials < 1000:
        raise ValueError("drift probe needs at least 1000 trials")
    if not (np.isfinite(t) and t > 0):
        raise ValueError(f"drift probe needs a finite t > 0 (at t = 0 the frozen "
                         f"levels are degenerate), got {t}")
    _check_probe(n_dim, n, dt)
    with _one_blas_thread():
        x_mat, lam, full_vecs, mu, block_vecs, signed = _frozen_state(n_dim, n, t, seed)
        i, j = _select_mid_bulk_pair(signed, lam, mu, n_dim, n, dt)
        d1, d2, d3 = _drift_formula(signed, lam, mu, i, j, n_dim)
        s0 = signed[i, j] ** 2

        psi_j = full_vecs[:, j]
        phi_i = block_vecs[:, i]
        with np.errstate(divide="ignore"):
            w_full = signed[i, :] * signed[i, j] / (lam[j] - lam)
            w_full[j] = 0.0
            w_minor = signed[:, j] * signed[i, j] / (mu[i] - mu)
            w_minor[i] = 0.0
        rng = derive_stream(seed, 1).generator()
        scale = np.sqrt(dt / (2.0 * n_dim))
        local = threading.local()

        def blocks():
            for first in range(0, trials, _GROUP):
                size = min(_GROUP, trials - first)
                for s in range(0, size, _BLOCK):
                    yield rng.standard_normal((min(_BLOCK, size - s), n_dim, n_dim))

        def run(dh):
            if not hasattr(local, "solvers"):
                local.solvers = (eigpair_at(n_dim), eigpair_at(n),
                                 np.empty((n_dim, n_dim)), np.empty((n, n)))
            full_pair, minor_pair, full, minor = local.solvers
            overlap = np.empty(len(dh))
            for c, m in enumerate(dh):
                m += m.T
                m *= scale
                np.add(x_mat, m, out=full)
                minor[:] = full[:n, :n]  # before the full solve overwrites full
                _, psi = full_pair(full, j)
                _, phi = minor_pair(minor, i)
                overlap[c] = phi @ psi[:n]
            return (overlap, np.einsum("cab,b->ca", dh, psi_j),
                    np.einsum("cab,b->ca", dh[:, :n, :n], phi_i))

        sums = np.zeros(3)
        sq_sums = np.zeros(3)

        # a function, so a group's products are freed before the next group is read
        def reduce_group(group):
            a, dh_psi, dh_phi = (np.concatenate(cols) for cols in zip(*group))
            beta_full = dh_psi @ full_vecs          # (c, N): <psi_k| dX |psi_j>
            beta_minor = dh_phi @ block_vecs        # (c, n): <phi_l| dXm |phi_i>
            terms = (a * a - s0, 2.0 * beta_full @ w_full, 2.0 * beta_minor @ w_minor)
            for slot, vals in enumerate(terms):
                sums[slot] += vals.sum()
                sq_sums[slot] += (vals * vals).sum()

        results, used = _pool_map(0, run, blocks())
        with contextlib.closing(results):
            while group := list(itertools.islice(results, -(-_GROUP // _BLOCK))):
                reduce_group(group)

    config = {"probe": "drift", "n_dim": n_dim, "n": n, "t": t, "dt": dt, "trials": trials,
              "seed": seed}
    return _probe_report(config, start, sums, sq_sums, trials, dt,
                         ("drift", "martingale_full", "martingale_minor"),
                         (float(d1 + d2 + d3), 0.0, 0.0),
                         {"pair": (i, j), **used, "stepper": eigpair_backend()})
