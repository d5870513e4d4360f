"""Limiting rescaled mean squared overlaps between minor and full eigenvectors.

The central object is the overlap kernel ``W(mu, lam, t)``: the large-N limit
of ``N * E[<minor eigenvector at mu | full eigenvector at lam>^2]`` for a
symmetric matrix observed through Gaussian noise of variance ``t/N``, with
minor fraction ``q``.  It is recovered from a double Stieltjes transform
evolved along Burgers characteristics and projected back onto the real axis.

When the deterministic part vanishes the kernel collapses to the closed form

    W(mu, lam, t) = (1-q) t / ((1-q)^2 t + (lam - mu) (q lam - mu)),

and the location where ``W(mu, .) * density`` peaks obeys an eigenvector
analogue of Cauchy interlacing.  Isolated spikes get their own closed forms
(:func:`spike_spike_overlap`, :func:`spike_bulk_overlap`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, PoleError, require
from .freeprob import (BoundaryValues, SpectrumModel, _bisect, boundary_values, check_realizable,
                       representative_diagonal, semicircle_density, semicircle_quantile,
                       solve_minor_stieltjes, solve_stieltjes)
from .spectral import _audit_overlaps, eig_sym, minor_size

_POLE_TOL = 1e-12


def _check_time_and_fraction(t: float, q: float, q_one: bool):
    """Refuse by name a ``q`` outside ``(0, 1)``, or ``(0, 1]`` with ``q_one``, and ``t <= 0``."""
    require("q", q, 0.0 < q < 1.0 or (q_one and q == 1.0), "in (0, 1]" if q_one else "in (0, 1)")
    require("t", t, t > 0, "> 0")


def _check_bins(bins: int):
    """Refuse a bin count below 1 by name: the rule of every binned curve and run."""
    require("bins", bins, bins >= 1, ">= 1")


def _check_minor_bulk(mu, t: float, q: float):
    """Refuse by name a ``mu`` outside the minor bulk ``|mu| <= 2 sqrt(qt)``, an array's first."""
    edge, mus = 2.0 * np.sqrt(q * t), np.ravel(mu)
    outside = mus[np.abs(mus) > edge + 1e-12]
    require("mu", float(outside[0]) if outside.size else mu, not outside.size,
            f"in the minor bulk [{-edge:.6g}, {edge:.6g}]")


def _bin_edges(bins: int, lo: float, hi: float) -> np.ndarray:
    """Every binned curve's ``bins`` equal bins over ``[lo, hi]``; its callers refuse bad ones."""
    return np.linspace(lo, hi, bins + 1)


def _bulk_bin_edges(t: float, bins: int, bin_range=None, radius_scale: float = 1.0) -> np.ndarray:
    """Edges over ``bin_range``, by default ``|x| < 2 sqrt(t) radius_scale`` less 5% per end."""
    if bin_range is None:
        root = np.sqrt(t) * radius_scale
        bin_range = (-2.0 * root + 0.1 * root, 2.0 * root - 0.1 * root)
    return _bin_edges(bins, *bin_range)


def _bin_centers(t: float, bins: int, radius_scale: float = 1.0) -> np.ndarray:
    """Centers of the default :func:`_bulk_bin_edges`, a ``bins`` below 1 refused by name."""
    _check_bins(bins)
    edges = _bulk_bin_edges(t, bins, radius_scale=radius_scale)
    return 0.5 * (edges[:-1] + edges[1:])


# ---------------------------------------------------------------------------
# initial double transforms
# ---------------------------------------------------------------------------

class FiniteInitialTransform:
    """Initial double transform of a finite matrix ``A`` and its leading ``n x n`` block.

    The double resolvent sum at reference size ``N``

        s0(z, zt) = (1/N) sum_{j, i} w_ji / ((zt - mu_j)(z - lam_i)),

    a finite-rank discretization of the exactly-known initial condition.  For
    a general ``A`` the poles ``lam`` and ``mu`` are the eigenvalues of ``A``
    and of its block, and ``w`` is their squared overlap grid.  For a diagonal
    ``A`` the grid is 0/1, and the sum collapses onto the distinct entries
    ``a_k`` of the block, ``w = diag(c_k)`` with ``c_k`` the count of ``a_k``
    there: ``s0 = (1/N) sum_k c_k / ((z - a_k)(zt - a_k))``.  Either way,
    ``full_model`` and ``minor_model`` are the empirical spectra of ``A`` and
    of its block (from the eigenvalues ``full_evals`` and ``minor_evals``, in
    any order), the initial conditions of the two single transforms, with the
    minor's ``q`` recorded as ``n/N``.
    """

    def __init__(self, full_evals, minor_evals, full_poles, minor_poles, weights):
        self.n_dim = len(full_evals)
        self.full_model = SpectrumModel.from_eigenvalues(full_evals)
        self.minor_model = SpectrumModel.from_eigenvalues(minor_evals,
                                                          q=len(minor_evals) / self.n_dim)
        self.full_poles, self.minor_poles, self.weights = full_poles, minor_poles, weights
        if self.weights.shape != (self.minor_poles.size, self.full_poles.size):
            raise ValueError("weight matrix shape mismatch")

    @classmethod
    def from_matrix(cls, a: np.ndarray, n: int) -> "FiniteInitialTransform":
        """Transform of a symmetric ``a``: :meth:`from_diagonal` when ``a`` is diagonal, else
        the eigenvalues of ``a`` and its leading block with the squared overlaps ``(minor.T @
        full[:n]) ** 2`` of their :func:`eig_sym` eigenvectors, audited as whole rows."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        require("n", n, 1 <= n <= a.shape[0], f"in [1, {a.shape[0]}]")
        if np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):
            return cls.from_diagonal(np.diagonal(a), n)
        (lam, full), (mu, minor) = eig_sym(a), eig_sym(a[:n, :n])
        weights = (minor.T @ full[:n]) ** 2
        _audit_overlaps(weights, whole_rows=True)
        return cls(lam, mu, lam, mu, weights)

    @classmethod
    def from_diagonal(cls, diag, n: int) -> "FiniteInitialTransform":
        """Closed form for ``A = diag(diag)``, with no eigendecomposition and no grid.

        The eigenvalues are the entries, which ``eigh`` returns bit for bit.
        """
        diag = np.asarray(diag, dtype=float)
        if diag.ndim != 1 or diag.size == 0:
            raise ValueError(f"expected a non-empty diagonal, got shape {diag.shape}")
        require("n", n, 1 <= n <= diag.size, f"in [1, {diag.size}]")
        if not np.all(np.isfinite(diag)):
            raise NumericError(f"initial transform got a non-finite {diag.size}x{diag.size} "
                               f"diagonal matrix")
        poles, counts = np.unique(diag[:n], return_counts=True)
        return cls(diag, diag[:n], poles, poles, np.diag(counts.astype(float)))

    def __call__(self, z, z_tilde):
        """Transform at scalars, or at arrays that broadcast together (one grid product)."""
        u = 1.0 / (np.asarray(z_tilde)[..., None] - self.minor_poles)
        v = 1.0 / (np.asarray(z)[..., None] - self.full_poles)
        val = np.sum((u @ self.weights) * v, axis=-1) / self.n_dim
        return val if val.ndim else complex(val)


# ---------------------------------------------------------------------------
# evolved double transform and its inversion
# ---------------------------------------------------------------------------

def evolve_double_stieltjes(s0, z: complex, z_tilde: complex, t: float, q: float,
                            full_ev=None, minor_ev=None) -> complex:
    """Double transform at time ``t`` from its initial value ``s0``.

    Both arguments ride their Burgers characteristics
    ``y = z - t G(z, t)`` and ``yt = zt - q t Gt(zt, t)`` and the value passes
    through the Riccati map ``s -> s / (1 - t s)``.  ``full_ev`` and
    ``minor_ev`` are evaluators ``z -> transform`` already bound to ``t``;
    they are unused (and may be None) at ``t = 0``.
    """
    if np.imag(z) == 0 or np.imag(z_tilde) == 0:
        raise ValueError("arguments must lie off the real axis")
    require("t", t, t >= 0, ">= 0")
    if t == 0.0:
        return s0(z, z_tilde)
    if full_ev is None or minor_ev is None:
        raise ValueError("t > 0 requires full and minor transform evaluators")
    y = z - t * full_ev(z)
    y_tilde = z_tilde - q * t * minor_ev(z_tilde)
    return _riccati(s0(y, y_tilde), t)


def _riccati(s0_val, t: float):
    denom = 1.0 - t * s0_val
    if np.any(np.abs(denom) < _POLE_TOL):
        raise PoleError(f"double transform pole: |1 - t*s0| = {np.min(np.abs(denom)):.3e}")
    return s0_val / denom


def overlap_kernel(s0, minor_b: BoundaryValues, full_b: BoundaryValues,
                   t: float, q: float):
    """General-spectrum kernel ``W(mu, lam, t)`` via double inversion on the real axis.

    ``minor_b`` holds the minor transform's boundary values at ``mu =
    minor_b.lam`` and ``full_b`` the full transform's at ``lam = full_b.lam``,
    both at time ``t``, as floats or as arrays that broadcast together.  Both
    points must lie strictly inside their bulks: an edge-flagged side is
    refused rather than divided by (``DomainError`` for floats, NaN at the
    refused pairs of arrays).  No extra epsilon enters the final evaluation:
    the characteristic endpoints already carry imaginary parts ``-pi t rho``
    and ``-+ q pi t rho_tilde`` that keep ``s0`` away from its real poles.
    Refuses ``t`` and ``q`` by name.
    """
    _check_time_and_fraction(t, q, q_one=False)
    refused = np.logical_or(full_b.edge_flagged, minor_b.edge_flagged)
    if refused.ndim == 0 and refused:
        raise DomainError(f"edge-flagged point at lam={full_b.lam} (rho={full_b.rho:.3e}) "
                          f"or mu={minor_b.lam} (minor rho={minor_b.rho:.3e}); "
                          "kernel undefined there")
    y = full_b.lam - t * full_b.v + 1j * (-np.pi * t * full_b.rho)
    y_tilde = minor_b.lam - q * t * minor_b.v + 1j * (-q * np.pi * t * minor_b.rho)
    ok, y, rho, rho_tilde = np.broadcast_arrays(~refused, y, full_b.rho, minor_b.rho)
    y = y[ok]
    if np.ndim(y_tilde):  # a scalar stays one: one vector-grid product serves every lam
        y_tilde = np.broadcast_to(y_tilde, ok.shape)[ok]
    plus = _riccati(s0(y, np.conj(y_tilde)), t)
    minus = _riccati(s0(y, y_tilde), t)
    w = np.full(ok.shape, np.nan)
    w[ok] = np.real(plus - minus) / (2.0 * q * np.pi ** 2 * rho[ok] * rho_tilde[ok])
    return w if w.ndim else float(w)


def general_kernel_curve(model: SpectrumModel, mu: float, lambda_range, bins: int, t: float,
                         q: float | None, n0: int):
    """:func:`overlap_kernel` at ``mu`` for ``bins`` points ``lam`` spanning ``lambda_range``.

    The initial transform is the closed form of ``model`` realized at size
    ``n0`` (:func:`~minor_overlaps.freeprob.representative_diagonal`).  A
    ``q`` of None takes the model's ``"q"``, refused as ``model``.  ``bins``,
    ``t``, ``q`` and ``n0`` are refused by name before the transform is
    built, ``n0`` also when an atom gets no entry in the realized matrix or
    its minor.  Returns ``(lams, w, rho)``: ``w`` is NaN at each refused
    ``lam``, and a ``mu`` at or outside the minor bulk's edge raises
    ``DomainError``.
    """
    _check_bins(bins)
    if q is None:
        require("model", f'"q": {model.q}', 0.0 < model.q < 1.0, 'a model with "q" in (0, 1)')
        q = model.q
    _check_time_and_fraction(t, q, q_one=False)
    require("n0", n0, n0 >= 1, ">= 1")
    n0_minor = minor_size(q, n0)
    check_realizable("n0", model, n0, n0_minor)
    s0 = FiniteInitialTransform.from_diagonal(representative_diagonal(model, n0, n0_minor),
                                              n0_minor)
    minor_b = boundary_values(lambda z: solve_minor_stieltjes(s0.minor_model, z, t, q), mu)
    if minor_b.edge_flagged:
        raise DomainError(f"mu={mu} lies outside the minor bulk or at its edge "
                          f"(minor rho={minor_b.rho:.3e}); every point would be refused")
    lams = np.linspace(*lambda_range, bins)
    full_b = boundary_values(lambda z: solve_stieltjes(model, z, t), lams)
    return lams, overlap_kernel(s0, minor_b, full_b, t, q), full_b.rho


# ---------------------------------------------------------------------------
# closed form for a pure noise matrix
# ---------------------------------------------------------------------------

def kernel_goe_value(mu, lam, t: float, q: float):
    """Vectorized closed-form kernel for a vanishing deterministic part; refuses ``t``, ``q``."""
    _check_time_and_fraction(t, q, q_one=False)
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    denom = (1.0 - q) ** 2 * t + (lam - mu) * (q * lam - mu)
    if np.any(denom <= 0):
        raise DomainError("kernel denominator is not positive; point outside the bulk box")
    val = (1.0 - q) * t / denom
    return val if val.ndim else float(val)


def kernel_goe_curve(t: float, q: float, bins: int, x: float = 0.5, mu: float | None = None):
    """:func:`kernel_goe_value` at the centers of ``bins`` bins of the full bulk.

    The minor eigenvalue is ``mu``, by default the minor bulk's quantile ``x``
    (:func:`~minor_overlaps.freeprob.semicircle_quantile`).  Refuses ``t``,
    ``q``, ``x``, ``bins`` and a given ``mu`` by name.  Returns ``(lams, mu, w,
    w * rho)``.
    """
    _check_time_and_fraction(t, q, q_one=False)
    if mu is None:
        mu = semicircle_quantile(x, t, np.sqrt(q))
    else:
        _check_minor_bulk(mu, t, q)
    lams = _bin_centers(t, bins)
    w = kernel_goe_value(mu, lams, t, q)
    return lams, mu, w, w * semicircle_density(lams, t)


def kernel_peak_location(mu: float, t: float, q: float) -> float:
    """Location where ``W(mu, .) * density`` peaks, for the pure-noise kernel.

    The maximizer is the unique root in ``[-2 sqrt(t), 2 sqrt(t)]`` of

        q X^3 - ((1 + 6q + q^2) t + mu^2) X + 4 (1+q) t mu,

    bracketed by the sign facts P(-2 sqrt(t)) > 0 > P(2 sqrt(t)) and found by
    bisection to 1e-12.  For ``mu >= 0`` it satisfies
    ``mu <= peak <= mu / sqrt(q)`` (mirrored for negative ``mu``), which puts
    it inside the interlacing interval.  Refuses ``t``, ``q`` and ``mu`` by name.
    """
    _check_time_and_fraction(t, q, q_one=True)
    _check_minor_bulk(mu, t, q)
    if q == 1.0:
        return float(mu)

    c3, c1, c0 = q, -((1.0 + 6.0 * q + q * q) * t + mu * mu), 4.0 * (1.0 + q) * t * mu

    def poly(x):
        return (c3 * x * x + c1) * x + c0

    r = 2.0 * np.sqrt(t)
    return _bisect(lambda x: poly(x) > 0, -r, r)    # poly(-r) > 0 > poly(r)


def interlace_interval(x: float, t: float, q: float):
    """Asymptotic Cauchy bounds for the minor quantile ``x``; refuses ``t``, ``q``, ``x``."""
    _check_time_and_fraction(t, q, q_one=True)
    require("x", x, 0.0 <= x <= 1.0, "in [0, 1]")
    lower = semicircle_quantile(q * x + 1.0 - q, t)
    upper = semicircle_quantile(q * x, t)
    return lower, upper


# ---------------------------------------------------------------------------
# spikes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpikeTrajectory:
    """Deterministic spike positions at time ``t`` with validity flags.

    ``full_valid`` means the full-matrix spike is still outside its bulk
    (``t < spike^2``); ``minor_valid`` likewise for the minor
    (``t < minor_spike^2 / q``).  ``minor_position`` is None when the minor
    carries no spike.
    """

    t: float
    full_position: float
    minor_position: float | None
    full_valid: bool
    minor_valid: bool | None


def spike_trajectories(spike: float, t: float, minor_spike: float | None = None,
                       q: float | None = None) -> SpikeTrajectory:
    """Spike positions ``spike + t/spike`` and ``minor_spike + q t/minor_spike``."""
    require("spike", spike, spike > 0, "> 0")
    full_pos = spike + t / spike
    if minor_spike is None:
        return SpikeTrajectory(t=float(t), full_position=float(full_pos),
                               minor_position=None,
                               full_valid=bool(t < spike ** 2), minor_valid=None)
    require("minor_spike", minor_spike, minor_spike > 0, "> 0")
    require("q", q, q is not None and 0.0 < q <= 1.0, "in (0, 1] with a minor spike")
    minor_pos = minor_spike + q * t / minor_spike
    return SpikeTrajectory(t=float(t), full_position=float(full_pos),
                           minor_position=float(minor_pos),
                           full_valid=bool(t < spike ** 2),
                           minor_valid=bool(t < minor_spike ** 2 / q))


def initial_spike_from_position(position: float, t: float) -> float:
    """Invert the full spike trajectory using observable quantities only."""
    disc = position * position - 4.0 * t
    if disc < 0:
        raise DomainError("observed position is inside the bulk; no spike to invert")
    return 0.5 * (position + np.sqrt(disc))


def initial_minor_spike_from_position(position: float, t: float, q: float) -> float:
    """Invert the minor spike trajectory using observable quantities only."""
    disc = position * position - 4.0 * q * t
    if disc < 0:
        raise DomainError("observed minor position is inside the minor bulk")
    return 0.5 * (position + np.sqrt(disc))


def _refuses_overflow(formula):
    """``formula(spike, ...)``, its float overflow refused as a NumericError naming the spike."""
    @functools.wraps(formula)
    def guarded(spike, *args):
        try:
            with np.errstate(over="raise"):
                return formula(spike, *args)
        except (OverflowError, FloatingPointError):
            raise NumericError(f"{formula.__name__} overflows a float at spike={spike}") from None
    return guarded


@_refuses_overflow
def spike_spike_overlap(spike: float, mu: float, q: float, t: float) -> float:
    """Limiting squared overlap of the two spike eigenvectors.

    Solves the drift equation for the top-top squared overlap with initial
    condition ``mu / spike``, ``mu`` the minor's spike:

        f(t) = (mu/lam) (lam^2 - t)(mu^2 - q t) / (lam mu - q t)^2.

    Refuses ``spike``, ``mu`` (the minor cannot gain mass), ``q`` and ``t``
    by name.  Valid while both spikes survive, ``t < min(spike^2, mu^2 / q)``.
    """
    require("spike", spike, spike > 0, "> 0")
    require("mu", mu, 0.0 < mu <= spike, f"in (0, {spike}]")
    require("q", q, 0.0 < q <= 1.0, "in (0, 1]")
    require("t", t, t >= 0, ">= 0")
    if t >= spike ** 2:
        raise DomainError(f"t={t} >= spike^2={spike**2}: full-matrix spike absorbed")
    if t >= mu ** 2 / q:
        raise DomainError(f"t={t} >= minor_spike^2/q={mu**2 / q}: minor spike absorbed")
    lam = spike
    return float((mu / lam) * (lam * lam - t) * (mu * mu - q * t) / (lam * mu - q * t) ** 2)


@_refuses_overflow
def spike_bulk_overlap(spike: float, q: float, t: float, mu):
    """Rescaled coupling of the full spike eigenvector onto minor bulk vectors.

    ``(spike^2 - q t) t / (spike^2 - spike mu + q t)^2`` for ``mu`` inside the
    minor bulk; the noise builds this coupling even though the minor starts
    with no trace of the spike.  Refuses ``t``, ``q`` and ``mu`` by name.
    """
    _check_time_and_fraction(t, q, q_one=True)
    if t >= spike ** 2:
        raise DomainError(f"t={t} >= spike^2={spike**2}: spike absorbed")
    mu = np.asarray(mu, dtype=float)
    _check_minor_bulk(mu, t, q)
    val = (spike * spike - q * t) * t / (spike * spike - spike * mu + q * t) ** 2
    return val if val.ndim else float(val)


def spike_bulk_curve(spike: float, q: float, t: float, bins: int):
    """:func:`spike_bulk_overlap` at the centers of ``bins`` minor-bulk bins: ``(mus, g, g * rho)``.

    Refuses ``t``, ``q`` and ``bins`` by name; ``rho`` is the minor's density.
    """
    _check_time_and_fraction(t, q, q_one=True)
    mus = _bin_centers(t, bins, radius_scale=np.sqrt(q))
    g = spike_bulk_overlap(spike, q, t, mus)
    return mus, g, g * semicircle_density(mus, q * t)


@_refuses_overflow
def spike_bulk_mass(spike: float, q: float, t: float) -> float:
    """Overlap mass of the full spike on the minor, ``q t / spike^2``; refuses ``q``, ``t``."""
    require("q", q, 0.0 < q <= 1.0, "in (0, 1]")
    require("t", t, t >= 0, ">= 0")
    if t >= spike ** 2:
        raise DomainError(f"t={t} >= spike^2={spike**2}: spike absorbed")
    return float(q * t / spike ** 2)


def bernoulli_spike_overlap(n_dim: int, n: int | None, p: float, q: float | None = None) -> float:
    """Finite-size expansion of the top-top overlap for Bernoulli matrices.

    ``n/N - (1 - n/N)(1/p - 1)/N`` with remainder O(N^{-3/2}); the leading
    term tends to the minor fraction.  The minor size is ``n``, or with
    ``n=None`` ``round(qN)`` of the fraction ``q``.  Refuses ``n_dim``, ``n``,
    ``q`` and ``p`` by name (at ``p = 0`` the expansion diverges).
    """
    require("n_dim", n_dim, n_dim >= 1, ">= 1")
    if n is None:
        n = minor_size(q, n_dim)
        require("q", q, 0.0 < q <= 1.0 and n >= 1, "in (0, 1] with round(qN) >= 1")
    else:
        require("n", n, 1 <= n <= n_dim, f"in [1, {n_dim}]")
    require("p", p, 0.0 < p <= 1.0, "in (0, 1]")
    frac = n / n_dim
    return float(frac - (1.0 - frac) * (1.0 / p - 1.0) / n_dim)
