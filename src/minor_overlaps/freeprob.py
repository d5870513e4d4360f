"""Stieltjes-transform machinery for spectra under additive Gaussian noise.

The limiting spectral density of ``A + noise(t)`` is encoded by its Stieltjes
transform, which solves the implicit characteristic equation

    G(z, t) = G0(z - t * G(z, t))

where ``G0`` is the transform of the initial spectrum.  The minor's transform
(normalized to its nonzero spectrum) satisfies the same equation with the
shift ``q * t`` instead of ``t``.  Boundary values on the real axis recover
the density (imaginary part over pi) and the Hilbert transform (real part):
approaching from below, ``G(lam - i*eps) -> v + i*pi*rho``.

Sign conventions follow the Herglotz property: ``Im(z) > 0`` implies
``Im(G) < 0`` and vice versa.  All evaluators here preserve it, and the
solvers treat a violation as non-convergence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

#: default offset below the real axis for boundary extraction
DEFAULT_BOUNDARY_EPS = 1e-6
#: densities below this are considered too close to a spectral edge to invert
EDGE_DENSITY_THRESHOLD = 1e-3


@dataclass(frozen=True)
class SpectrumModel:
    """Limiting spectrum: weighted real atoms plus optional isolated spikes.

    ``atoms`` is a list of ``(location, weight)`` pairs with weights summing
    to one; ``spikes`` are measure-null outliers (weight zero) tracked
    separately by the spike formulas.  ``q`` records the minor fraction when
    the model describes a minor's nonzero spectrum.
    """

    atoms: tuple
    spikes: tuple = ()
    q: float = 1.0

    def __post_init__(self):
        atoms = tuple((float(a), float(w)) for a, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "spikes", tuple(float(s) for s in self.spikes))
        if not atoms:
            raise ValueError("model needs at least one atom")
        if any(w <= 0 for _, w in atoms):
            raise ValueError("atom weights must be positive")
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom weights sum to {total!r}, expected 1")
        locs = {a for a, _ in atoms}
        if any(s in locs for s in self.spikes):
            raise ValueError("spikes must be disjoint from atom locations")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        object.__setattr__(self, "_locs", np.array([a for a, _ in atoms]))
        object.__setattr__(self, "_weights", np.array([w for _, w in atoms]))

    @classmethod
    def from_eigenvalues(cls, eigenvalues, q: float = 1.0) -> "SpectrumModel":
        """Empirical spectrum as equal-weight atoms (duplicates merged)."""
        eigenvalues = np.asarray(eigenvalues, dtype=float).ravel()
        locs, counts = np.unique(eigenvalues, return_counts=True)
        return cls(atoms=tuple(zip(locs, counts / eigenvalues.size)), q=q)

    def to_json(self) -> str:
        return json.dumps({"atoms": [[a, w] for a, w in self.atoms],
                           "spikes": list(self.spikes), "q": self.q})

    @classmethod
    def from_json(cls, text: str) -> "SpectrumModel":
        obj = json.loads(text)
        return cls(atoms=tuple((a, w) for a, w in obj["atoms"]),
                   spikes=tuple(obj.get("spikes", ())),
                   q=obj.get("q", 1.0))


def representative_matrix(model: SpectrumModel, n_dim: int, n: int | None = None) -> np.ndarray:
    """Diagonal matrix realizing the model's atoms at a finite size.

    Multiplicities follow the weights (largest-remainder rounding) and atoms
    are interleaved proportionally, so every leading block keeps roughly the
    same mixture and a principal minor inherits the model.  Raises
    ``ValueError`` when an atom would get no entry at this size or, given the
    minor size ``n``, no entry in the leading ``n x n`` block.
    """
    weights = np.array([w for _, w in model.atoms])
    counts = np.floor(weights * n_dim).astype(int)
    remainders = weights * n_dim - counts
    for k in np.argsort(-remainders)[: n_dim - counts.sum()]:
        counts[k] += 1
    entries = []
    for (loc, weight), c in zip(model.atoms, counts):
        if c == 0:
            raise ValueError(f"atom at {loc} with weight {weight} gets no entry "
                             f"at size {n_dim}; use a larger size")
        entries.extend((loc, (j + 0.5) / c) for j in range(c))
    entries.sort(key=lambda pair: pair[1])
    diag = np.array([loc for loc, _ in entries])
    if n is not None:
        for loc, weight in model.atoms:
            if loc not in diag[:n]:
                raise ValueError(f"atom at {loc} with weight {weight} gets no entry in the "
                                 f"leading {n}x{n} block at size {n_dim}; use a larger size")
    return np.diag(diag)


def leading_block_model(a: np.ndarray, n: int, q: float) -> SpectrumModel:
    """Spectrum model of the leading ``n x n`` block of ``a``, the minor's initial spectrum."""
    return SpectrumModel.from_eigenvalues(np.linalg.eigvalsh(a[:n, :n]), q=q)


def stieltjes_atomic(model: SpectrumModel, w: complex) -> complex:
    """Stieltjes transform of the atomic measure: sum of weight/(w - atom)."""
    if np.imag(w) == 0:
        raise ValueError("stieltjes_atomic requires Im(w) != 0")
    return complex(np.sum(model._weights / (w - model._locs)))


def _stieltjes_atomic_deriv(model: SpectrumModel, w: complex) -> complex:
    return complex(-np.sum(model._weights / (w - model._locs) ** 2))


# ---------------------------------------------------------------------------
# closed-form semicircle quantities
# ---------------------------------------------------------------------------

def _branch_sqrt(z: complex, radius: float) -> complex:
    # sqrt(z^2 - radius^2) with cut on [-radius, radius]; Im follows Im(z)
    return np.sqrt(z - radius) * np.sqrt(z + radius)


def semicircle_stieltjes(z: complex, t: float) -> complex:
    """Transform of the semicircle of radius ``2 sqrt(t)``.

    The branch is fixed by ``G ~ 1/z`` at infinity; approaching the axis from
    below inside the bulk yields ``Im(G) = +pi * rho``.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    return (z - _branch_sqrt(z, 2.0 * np.sqrt(t))) / (2.0 * t)


def semicircle_density(lam, t: float):
    """Density ``sqrt((4t - lam^2)_+) / (2 pi t)`` (zero outside the support)."""
    if t <= 0:
        raise ValueError("t must be > 0")
    lam = np.asarray(lam, dtype=float)
    val = np.sqrt(np.maximum(4.0 * t - lam * lam, 0.0)) / (2.0 * np.pi * t)
    return val if val.ndim else float(val)


def semicircle_hilbert(lam, t: float):
    """Hilbert transform ``lam / (2t)``, valid inside the bulk."""
    if t <= 0:
        raise ValueError("t must be > 0")
    lam = np.asarray(lam, dtype=float)
    val = lam / (2.0 * t)
    return val if val.ndim else float(val)


def semicircle_tail_mass(lam: float, t: float) -> float:
    """Spectral mass above ``lam`` under the radius ``2 sqrt(t)`` semicircle."""
    if t <= 0:
        raise ValueError("t must be > 0")
    r = 2.0 * np.sqrt(t)
    lam = min(max(lam, -r), r)
    return float(0.5 - lam * np.sqrt(4.0 * t - lam * lam) / (4.0 * np.pi * t)
                 - np.arcsin(lam / r) / np.pi)


def semicircle_quantile(x: float, t: float, radius_scale: float = 1.0) -> float:
    """Value with tail mass ``x`` under a (possibly rescaled) semicircle.

    ``radius_scale=sqrt(q)`` yields the minor's quantile, which equals
    ``sqrt(q)`` times the full quantile.  Solved by bisection to 1e-10.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if t <= 0 or radius_scale <= 0:
        raise ValueError("t and radius_scale must be > 0")
    t_eff = t * radius_scale * radius_scale
    r = 2.0 * np.sqrt(t_eff)
    lo, hi = -r, r         # tail_mass(lo) = 1, tail_mass(hi) = 0
    if x == 0.0:
        return r
    if x == 1.0:
        return -r
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if semicircle_tail_mass(mid, t_eff) > x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# implicit-equation solvers
# ---------------------------------------------------------------------------

def _herglotz_ok(z: complex, g: complex) -> bool:
    if np.imag(z) > 0:
        return np.imag(g) < 0
    return np.imag(g) > 0


def _newton_refine(model, z, t_shift, g, max_iter=60, tol=1e-13):
    # Newton on F(g) = g - G0(z - t_shift * g)
    for _ in range(max_iter):
        w = z - t_shift * g
        f = g - stieltjes_atomic(model, w)
        if abs(f) < tol:
            break
        fp = 1.0 + t_shift * _stieltjes_atomic_deriv(model, w)
        if fp == 0:
            break
        g = g - f / fp
    return g


def _solve_shifted(model: SpectrumModel, z: complex, t_shift: float,
                   tol: float, max_iter: int) -> complex:
    """Solve ``G = G0(z - t_shift G)`` on the Herglotz branch.

    Damped Picard iteration from ``G0(z)`` with Newton polish; if the result
    misses the tolerance or lands on a non-Herglotz root (this happens near
    cusps and edges), restart Newton from deep in the half-plane and walk the
    imaginary part down to the target as a continuation.
    """
    if np.imag(z) == 0:
        raise ValueError("solver requires Im(z) != 0; pass lam - i*eps for boundary points")
    if t_shift == 0.0:
        return stieltjes_atomic(model, z)

    g = stieltjes_atomic(model, z)
    for _ in range(max_iter):
        g_next = 0.5 * g + 0.5 * stieltjes_atomic(model, z - t_shift * g)
        if abs(g_next - g) < 1e-15:
            g = g_next
            break
        g = g_next
    g = _newton_refine(model, z, t_shift, g)
    residual = abs(g - stieltjes_atomic(model, z - t_shift * g))
    if residual < tol and _herglotz_ok(z, g):
        return g

    # continuation from far off the axis, same half-plane as z
    sign = -1.0 if np.imag(z) < 0 else 1.0
    span = max(abs(a) for a, _ in model.atoms) + 2.0 * np.sqrt(t_shift) + 1.0
    target = abs(np.imag(z))
    steps = 30
    ratio = (max(target, 1e-300) / span) ** (1.0 / steps)
    y = span
    g = stieltjes_atomic(model, complex(np.real(z), sign * y))
    for _ in range(steps):
        y *= ratio
        g = _newton_refine(model, complex(np.real(z), sign * y), t_shift, g)
    g = _newton_refine(model, z, t_shift, g)
    residual = abs(g - stieltjes_atomic(model, z - t_shift * g))
    if residual < tol and _herglotz_ok(z, g):
        return g
    raise ConvergenceError(
        f"implicit Stieltjes solve failed at z={z}, shift={t_shift}: "
        f"residual={residual:.3e}, herglotz={_herglotz_ok(z, g)}",
        z=z, t=t_shift, residual=residual,
    )


def solve_stieltjes(model: SpectrumModel, z: complex, t: float,
                    tol: float = 1e-10, max_iter: int = 500) -> complex:
    """Transform of ``A + noise(t)`` for an initial spectrum given by ``model``."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return _solve_shifted(model, z, t, tol, max_iter)


def solve_minor_stieltjes(model: SpectrumModel, z: complex, t: float, q: float,
                          tol: float = 1e-10, max_iter: int = 500) -> complex:
    """Minor-side transform: same equation with characteristic shift ``q * t``.

    ``model`` describes the minor's *nonzero* initial spectrum (normalized to
    mass one).  With ``q = 1`` this coincides with :func:`solve_stieltjes`.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    return _solve_shifted(model, z, q * t, tol, max_iter)


# ---------------------------------------------------------------------------
# boundary values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryValues:
    """Real-axis limit of a Stieltjes evaluator: Hilbert transform and density.

    ``warn_extrapolation`` is set when the two-epsilon Richardson step
    disagrees with itself by more than 1e-4 relative; ``edge_flagged`` marks
    points whose density is too small (or too close to a known support edge)
    for downstream inversion to divide by it.
    """

    v: float
    rho: float
    lam: float
    t: float
    warn_extrapolation: bool = False
    edge_flagged: bool = False


def boundary_values(evaluator, lam: float, t: float,
                    eps0: float = DEFAULT_BOUNDARY_EPS,
                    support_edges=None) -> BoundaryValues:
    """Extract ``(v, rho)`` at ``lam`` from an evaluator of ``z -> G(z)``.

    Evaluates at ``lam - i*eps0`` and ``lam - i*eps0/2`` and Richardson
    extrapolates to the axis.  ``evaluator`` must already be bound to the
    time of interest; ``t`` is recorded for context only.
    """
    g1 = evaluator(complex(lam, -eps0))
    g2 = evaluator(complex(lam, -eps0 / 2.0))
    g = 2.0 * g2 - g1
    v = float(np.real(g))
    rho = max(float(np.imag(g)) / np.pi, 0.0)
    warn = abs(g1 - g2) > 1e-4 * max(1.0, abs(g))
    edge = rho < EDGE_DENSITY_THRESHOLD
    if support_edges is not None and len(support_edges):
        edge = edge or min(abs(lam - e) for e in support_edges) < 1e-3
    return BoundaryValues(v=v, rho=rho, lam=float(lam), t=float(t),
                          warn_extrapolation=bool(warn), edge_flagged=bool(edge))


def scan_support_edge(evaluator, inside: float, outside: float,
                      eps: float = 1e-9, threshold: float = 1e-4,
                      tol: float = 1e-8) -> float:
    """Locate a support edge of the boundary density by bisection.

    ``inside`` must have density above ``threshold`` and ``outside`` below.
    A small ``eps`` keeps the epsilon-smearing of the edge below ``tol``.
    """
    def rho_at(lam):
        g1 = evaluator(complex(lam, -eps))
        g2 = evaluator(complex(lam, -eps / 2.0))
        return np.imag(2.0 * g2 - g1) / np.pi

    if rho_at(inside) <= threshold:
        raise ValueError("'inside' point does not sit inside the support")
    if rho_at(outside) > threshold:
        raise ValueError("'outside' point does not sit outside the support")
    lo, hi = inside, outside
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if rho_at(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
