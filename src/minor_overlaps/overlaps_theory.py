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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError
from .freeprob import (
    DEFAULT_BOUNDARY_EPS,
    EDGE_DENSITY_THRESHOLD,
    boundary_values,
    semicircle_quantile,
)
from .spectral import eig_sym, overlap_grid

_POLE_TOL = 1e-12


# ---------------------------------------------------------------------------
# initial double transforms
# ---------------------------------------------------------------------------

class NullInitialTransform:
    """Initial double transform when all initial eigenvalues vanish: q/(z zt)."""

    def __init__(self, q: float):
        if not 0.0 < q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        self.q = q

    def __call__(self, z: complex, z_tilde: complex) -> complex:
        return self.q / (z * z_tilde)


class FiniteInitialTransform:
    """Rational double transform built from one representative finite matrix.

    The transform is the double resolvent sum of the matrix's eigenpairs and
    the eigenpairs of its leading ``n x n`` block at reference size
    ``n_dim``: a finite-rank discretization of the exactly-known initial
    condition.
    """

    def __init__(self, minor_evals, full_evals, overlaps, n_dim: int):
        self.minor_evals = np.asarray(minor_evals, dtype=float)
        self.full_evals = np.asarray(full_evals, dtype=float)
        self.overlaps = np.asarray(overlaps, dtype=float)
        self.n_dim = int(n_dim)
        if self.overlaps.shape != (self.minor_evals.size, self.full_evals.size):
            raise ValueError("overlap grid shape mismatch")

    @classmethod
    def from_matrix(cls, a: np.ndarray, n: int) -> "FiniteInitialTransform":
        a = np.asarray(a, dtype=float)
        if not 1 <= n <= a.shape[0]:
            raise ValueError(f"minor size n={n} out of range [1, {a.shape[0]}]")
        grid = overlap_grid(eig_sym(a), eig_sym(a[:n, :n]))
        return cls(grid.minor_evals, grid.full_evals, grid.values, a.shape[0])

    def __call__(self, z: complex, z_tilde: complex) -> complex:
        u = 1.0 / (z_tilde - self.minor_evals)
        v = 1.0 / (z - self.full_evals)
        return (u @ self.overlaps @ v) / self.n_dim


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
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return s0(z, z_tilde)
    if full_ev is None or minor_ev is None:
        raise ValueError("t > 0 requires full and minor transform evaluators")
    y = z - t * full_ev(z)
    y_tilde = z_tilde - q * t * minor_ev(z_tilde)
    s_init = s0(y, y_tilde)
    denom = 1.0 - t * s_init
    if abs(denom) < _POLE_TOL:
        raise PoleError(
            f"double transform pole: |1 - t*s0| = {abs(denom):.3e} at z={z}, zt={z_tilde}"
        )
    return s_init / denom


@dataclass(frozen=True)
class OverlapKernelPoint:
    """One evaluation of the limiting rescaled mean squared overlap."""

    mu: float
    lam: float
    t: float
    q: float
    value: float


def _riccati(s0_val: complex, t: float) -> complex:
    denom = 1.0 - t * s0_val
    if abs(denom) < _POLE_TOL:
        raise PoleError(f"double transform pole during inversion: |1 - t*s0| = {abs(denom):.3e}")
    return s0_val / denom


def overlap_kernel(s0, mu: float, lam: float, t: float, q: float,
                   full_ev, minor_ev,
                   eps0: float = DEFAULT_BOUNDARY_EPS) -> OverlapKernelPoint:
    """General-spectrum kernel via double inversion on the real axis.

    Requires both evaluation points strictly inside their bulks; points whose
    extracted density falls below the edge threshold are refused rather than
    divided by.  No extra epsilon enters the final evaluation: the
    characteristic endpoints already carry imaginary parts ``-pi t rho`` and
    ``-+ q pi t rho_tilde`` that keep ``s0`` away from its real poles.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    if not 0.0 < q < 1.0:
        raise DomainError("kernel inversion requires 0 < q < 1")
    full_b = boundary_values(full_ev, lam, t, eps0=eps0)
    minor_b = boundary_values(minor_ev, mu, t, eps0=eps0)
    if full_b.edge_flagged or full_b.rho < EDGE_DENSITY_THRESHOLD:
        raise DomainError(
            f"lam={lam} is edge-flagged (rho={full_b.rho:.3e}); kernel undefined there"
        )
    if minor_b.edge_flagged or minor_b.rho < EDGE_DENSITY_THRESHOLD:
        raise DomainError(
            f"mu={mu} is edge-flagged (minor rho={minor_b.rho:.3e}); kernel undefined there"
        )
    y = complex(lam - t * full_b.v, -np.pi * t * full_b.rho)
    y_tilde = complex(mu - q * t * minor_b.v, -q * np.pi * t * minor_b.rho)
    plus = _riccati(s0(y, np.conj(y_tilde)), t)
    minus = _riccati(s0(y, y_tilde), t)
    value = float(np.real(plus - minus)) / (2.0 * q * np.pi ** 2 * full_b.rho * minor_b.rho)
    return OverlapKernelPoint(mu=float(mu), lam=float(lam), t=float(t), q=float(q),
                              value=value)


# ---------------------------------------------------------------------------
# closed form for a pure noise matrix
# ---------------------------------------------------------------------------

def kernel_goe_value(mu, lam, t: float, q: float):
    """Vectorized closed-form kernel for a vanishing deterministic part."""
    if t <= 0:
        raise ValueError("t must be > 0")
    if not 0.0 < q < 1.0:
        raise DomainError("closed-form kernel requires 0 < q < 1")
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    denom = (1.0 - q) ** 2 * t + (lam - mu) * (q * lam - mu)
    if np.any(denom <= 0):
        raise DomainError("kernel denominator is not positive; point outside the bulk box")
    val = (1.0 - q) * t / denom
    return val if val.ndim else float(val)


def overlap_kernel_goe(mu: float, lam: float, t: float, q: float) -> OverlapKernelPoint:
    """Closed-form kernel point ``(1-q) t / ((1-q)^2 t + (lam-mu)(q lam-mu))``."""
    return OverlapKernelPoint(mu=float(mu), lam=float(lam), t=float(t), q=float(q),
                              value=kernel_goe_value(mu, lam, t, q))


def kernel_peak_location(mu: float, t: float, q: float) -> float:
    """Location where ``W(mu, .) * density`` peaks, for the pure-noise kernel.

    The maximizer is the unique root in ``[-2 sqrt(t), 2 sqrt(t)]`` of

        q X^3 - ((1 + 6q + q^2) t + mu^2) X + 4 (1+q) t mu,

    bracketed by the sign facts P(-2 sqrt(t)) > 0 > P(2 sqrt(t)) and found by
    bisection to 1e-12.  For ``mu >= 0`` it satisfies
    ``mu <= peak <= mu / sqrt(q)`` (mirrored for negative ``mu``), which puts
    it inside the interlacing interval.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    if abs(mu) > 2.0 * np.sqrt(q * t) + 1e-12:
        raise DomainError(f"mu={mu} outside the minor bulk [-2 sqrt(qt), 2 sqrt(qt)]")
    if q == 1.0:
        return float(mu)

    c3, c1, c0 = q, -((1.0 + 6.0 * q + q * q) * t + mu * mu), 4.0 * (1.0 + q) * t * mu

    def poly(x):
        return (c3 * x * x + c1) * x + c0

    r = 2.0 * np.sqrt(t)
    lo, hi = -r, r          # poly(lo) > 0 > poly(hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if poly(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def interlace_interval(x: float, t: float, q: float):
    """Asymptotic Cauchy bounds for the minor quantile ``x``: lower and upper values."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if t <= 0 or not 0.0 < q <= 1.0:
        raise ValueError("need t > 0 and q in (0, 1]")
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
    if spike <= 0:
        raise ValueError("spike must be > 0")
    full_pos = spike + t / spike
    if minor_spike is None:
        return SpikeTrajectory(t=float(t), full_position=float(full_pos),
                               minor_position=None,
                               full_valid=bool(t < spike ** 2), minor_valid=None)
    if minor_spike <= 0:
        raise ValueError("minor_spike must be > 0")
    if q is None or not 0.0 < q <= 1.0:
        raise ValueError("a minor spike needs q in (0, 1]")
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


def spike_spike_overlap(spike: float, minor_spike: float, q: float, t: float) -> float:
    """Limiting squared overlap of the two spike eigenvectors.

    Solves the drift equation for the top-top squared overlap with initial
    condition ``minor_spike / spike``:

        f(t) = (mu/lam) (lam^2 - t)(mu^2 - q t) / (lam mu - q t)^2.

    Valid while both spikes survive, ``t < min(spike^2, minor_spike^2 / q)``.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    if not 0.0 < minor_spike <= spike:
        raise DomainError("need 0 < minor_spike <= spike (the minor cannot gain mass)")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t >= spike ** 2:
        raise DomainError(f"t={t} >= spike^2={spike**2}: full-matrix spike absorbed")
    if t >= minor_spike ** 2 / q:
        raise DomainError(
            f"t={t} >= minor_spike^2/q={minor_spike**2 / q}: minor spike absorbed"
        )
    lam, mu = spike, minor_spike
    return float((mu / lam) * (lam * lam - t) * (mu * mu - q * t) / (lam * mu - q * t) ** 2)


def spike_bulk_overlap(spike: float, q: float, t: float, mu):
    """Rescaled coupling of the full spike eigenvector onto minor bulk vectors.

    ``(spike^2 - q t) t / (spike^2 - spike mu + q t)^2`` for ``mu`` inside the
    minor bulk; the noise builds this coupling even though the minor starts
    with no trace of the spike.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    if t >= spike ** 2:
        raise DomainError(f"t={t} >= spike^2={spike**2}: spike absorbed")
    mu = np.asarray(mu, dtype=float)
    if np.any(np.abs(mu) > 2.0 * np.sqrt(q * t) + 1e-12):
        raise DomainError("mu outside the minor bulk [-2 sqrt(qt), 2 sqrt(qt)]")
    val = (spike * spike - q * t) * t / (spike * spike - spike * mu + q * t) ** 2
    return val if val.ndim else float(val)


def spike_bulk_mass(spike: float, q: float, t: float) -> float:
    """Total expected overlap mass of the full spike on the minor: ``q t / spike^2``."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t >= spike ** 2:
        raise DomainError(f"t={t} >= spike^2={spike**2}: spike absorbed")
    return float(q * t / spike ** 2)


def bernoulli_spike_overlap(n_dim: int, n: int, p: float) -> float:
    """Finite-size expansion of the top-top overlap for Bernoulli matrices.

    ``n/N - (1 - n/N)(1/p - 1)/N`` with remainder O(N^{-3/2}); the leading
    term tends to the minor fraction.
    """
    if not 1 <= n <= n_dim:
        raise ValueError("need 1 <= n <= n_dim")
    if p == 0:
        raise DomainError("p = 0: the expansion diverges")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    frac = n / n_dim
    return float(frac - (1.0 - frac) * (1.0 / p - 1.0) / n_dim)
