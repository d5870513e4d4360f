"""Empirical probes of the stochastic dynamics driving the overlap formulas.

Both probes freeze one noisy matrix and its minor, then drive many
independent Gaussian increments through the frozen state:

* :func:`correlation_probe` checks the product identity for quadratic forms
  of one increment against minor/full eigenvector pairs (an exact
  second-moment identity, so any increment size works).
* :func:`drift_probe` estimates the conditional drift of a squared overlap by
  finite differences and compares it with the three interaction sums that
  drive it; the martingale parts must average to zero.

Both probes run whole at one BLAS thread, as the runners do
(:func:`minor_overlaps.spectral._one_blas_thread`).  The drift probe draws
and steps its increments on the trial pool
(:func:`minor_overlaps.montecarlo._pool_map`); :func:`drift_probe` states
how they stream, how each pool task reduces its own block, and why its
report is the same bit for bit at every worker count.  Each increment reads
one number, the overlap of minor eigenvector ``i`` with full eigenvector
``j`` of the stepped matrix, so each step solves for those two eigenvectors
alone (:func:`minor_overlaps.spectral.eigpair_at`: LAPACK ``dsyevr`` by
index, or a full ``eigh`` without numpy's OpenBLAS; the drift report names
the one used as ``stepper``).  The correlation probe runs serially, in
batches of ``_CHUNK`` samples drawn into one buffer.  Both probes report
through :func:`_probe_report`, which ends in the runners'
:func:`~minor_overlaps.montecarlo._report`.  Every probe refuses each
argument out of range by name (:class:`~minor_overlaps.errors.InputError`)
before the frozen state is built.
"""

from __future__ import annotations

import contextlib
import threading
import time

import numpy as np

from .ensembles import check_seed, derive_stream, sample_goe
from .errors import require
from .montecarlo import ExperimentReport, Z_99, _estimate, _pool_map, _report
from .spectral import _one_blas_thread, eig_sym, eigpair_at, eigpair_backend

#: correlation-probe samples drawn and reduced per batch
_CHUNK = 2000
#: drift increments one pool task draws, steps and reduces, in its worker's one ``_BLOCK x N^2``
#: buffer; the printed bytes depend on it, since each block's sums round with its row count.
#: 10 holds less than 25 at the same speed, where 5 costs CPU
_BLOCK = 10
#: largest ``n_dim`` a probe accepts: the correlation probe's memory grows as ``n_dim^2``
MAX_PROBE_DIM = 100
#: fewest samples of the correlation probe and increments of the drift probe
MIN_CORRELATION_SAMPLES, MIN_DRIFT_TRIALS = 10_000, 1000


def _frozen_state(n_dim: int, n: int, t: float, seed: int):
    """Frozen noisy matrix with its full/minor eigenpairs and signed overlaps.

    The minor is the bare leading ``n x n`` block, as everywhere in the
    package; its eigenvectors meet the first ``n`` coordinates of the full
    ones.
    """
    x_mat = sample_goe(n_dim, t, derive_stream(seed, 0))
    (lam, full_vecs), (mu, block_vecs) = eig_sym(x_mat), eig_sym(x_mat[:n, :n])
    signed = block_vecs.T @ full_vecs[:n, :]
    return x_mat, lam, full_vecs, mu, block_vecs, signed


def _check_probe(n_dim: int, n: int, dt: float, seed: int):
    """Refuse by name a matrix, minor, increment size or seed no probe can use.

    Both probes read minor levels around ``n // 2``, so the minor needs three.
    """
    check_seed(seed, "seed")
    require("n_dim", n_dim, 4 <= n_dim <= MAX_PROBE_DIM, f"in [4, {MAX_PROBE_DIM}]")
    require("n", n, 3 <= n < n_dim, f"in [3, {n_dim - 1}]")
    require("dt", dt, np.isfinite(dt) and dt > 0, "> 0")


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
    return _report(config, start, rows, theory, extras or {})


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


@_one_blas_thread()
def correlation_probe(n_dim: int, n: int, t: float, samples: int, seed: int,
                      dt: float = 1.0) -> ExperimentReport:
    """Check the increment correlation identity on a frozen state.

    The index lists are the three middle levels of the minor and of the full
    matrix.  For every quadruple ``(i, l, j, k)`` built from them, the probe
    estimates ``E[<phi_i| dXm |phi_l> <psi_j| dX |psi_k>] / dt`` over
    fresh increments (``dXm`` is the minor truncation of ``dX``) and matches
    it against ``(P_ij P_lk + P_ik P_lj) / N`` with ``P`` the frozen signed
    overlaps.  Estimate rows are ordered by quadruple; centers index them.
    The probe runs with OpenBLAS held at one thread, as :func:`drift_probe`
    does, so its bytes do not depend on the caller's count.
    """
    start = time.perf_counter()
    _check_probe(n_dim, n, dt, seed)
    require("t", t, t >= 0, ">= 0")
    require("samples", samples, samples >= MIN_CORRELATION_SAMPLES,
            f">= {MIN_CORRELATION_SAMPLES}")
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
    draws = np.empty((_CHUNK, minor_coeffs.shape[1]))  # each batch overwrites the last
    for done in range(0, samples, _CHUNK):
        z = rng.standard_normal(out=draws[:min(_CHUNK, samples - done)])
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


@_one_blas_thread()
def drift_probe(n_dim: int, n: int, t: float, dt: float = 1e-4,
                trials: int = 100_000, seed: int = 0) -> ExperimentReport:
    """Finite-difference drift of one squared overlap vs the drift formula.

    Rows: drift estimate against the formula value, then the two martingale
    term averages against zero.  The probed pair is the mid-bulk one with
    the largest-magnitude formula drift among well-separated levels, so the
    relative comparison is well conditioned.  The whole probe, the frozen
    state included, runs with OpenBLAS held at one thread; the caller's
    count is restored afterwards.

    The trial pool (:func:`~minor_overlaps.montecarlo._pool_map`, one worker
    per core) is handed block descriptors ``(k, first)``: block ``k`` is the
    at most ``_BLOCK`` increments from ``first``.  A pool task first draws
    its block from the probe's one generator into its worker's one reused
    buffer, on turn ``k`` of a shared counter: block ``k`` draws only after
    block ``k - 1`` has, and a task that fails still passes the turn on.  It
    then symmetrizes the block in place, steps each increment with its
    worker's own solver pair, and reduces the block's three terms to their
    sums and sums of squares, which the caller adds in draw order.  So the
    report is the same bit for bit at every worker count (the block size
    sets how the sums round), and memory holds one block per worker,
    whatever ``trials`` is.  The extras record the ``pair``, the
    ``pool_threads`` and ``trial_blas_threads``, and the ``stepper``
    (``dsyevr`` or ``eigh``) that solved the stepped matrices.
    At ``t = 0`` the frozen levels are degenerate, so ``t`` must be positive.
    """
    start = time.perf_counter()
    _check_probe(n_dim, n, dt, seed)
    require("t", t, np.isfinite(t) and t > 0, "> 0")
    require("trials", trials, trials >= MIN_DRIFT_TRIALS, f">= {MIN_DRIFT_TRIALS}")
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
    turn = threading.Condition()
    drawn = 0  # blocks drawn so far: block k draws on turn k

    def run(item):
        nonlocal drawn
        k, first = item
        with turn:
            turn.wait_for(lambda: drawn == k)
            try:  # the turn passes on even if this task fails, so no later block waits forever
                if not hasattr(local, "state"):
                    local.state = (np.empty((_BLOCK, n_dim, n_dim)), eigpair_at(n_dim),
                                   eigpair_at(n), np.empty((n_dim, n_dim)), np.empty((n, n)))
                dh = rng.standard_normal(out=local.state[0][:min(_BLOCK, trials - first)])
            finally:
                drawn = k + 1
                turn.notify_all()
        _, full_pair, minor_pair, full, minor = local.state
        a = np.empty(len(dh))
        for c, m in enumerate(dh):
            m += m.T
            m *= scale
            np.add(x_mat, m, out=full)
            minor[:] = full[:n, :n]  # before the full solve overwrites full
            _, psi = full_pair(full, j)
            _, phi = minor_pair(minor, i)
            a[c] = phi @ psi[:n]
        # one row per increment: <psi_k| dX |psi_j> over k, <phi_l| dXm |phi_i> over l
        beta_full = np.einsum("cab,b->ca", dh, psi_j) @ full_vecs
        beta_minor = np.einsum("cab,b->ca", dh[:, :n, :n], phi_i) @ block_vecs
        terms = np.array([a * a - s0, 2.0 * beta_full @ w_full, 2.0 * beta_minor @ w_minor])
        return np.array([terms.sum(axis=1), (terms * terms).sum(axis=1)])

    totals = np.zeros((2, 3))  # the three terms' sums, then their sums of squares
    results, used = _pool_map(0, run, enumerate(range(0, trials, _BLOCK)))
    with contextlib.closing(results):
        for block in results:
            totals += block

    config = {"probe": "drift", "n_dim": n_dim, "n": n, "t": t, "dt": dt, "trials": trials,
              "seed": seed}
    return _probe_report(config, start, *totals, trials, dt,
                         ("drift", "martingale_full", "martingale_minor"),
                         (float(d1 + d2 + d3), 0.0, 0.0),
                         {"pair": (i, j), **used, "stepper": eigpair_backend()})
