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

from .errors import ConvergenceError, DomainError

#: default offset below the real axis for boundary extraction
DEFAULT_BOUNDARY_EPS = 1e-6
#: densities below this are considered too close to a spectral edge to invert
EDGE_DENSITY_THRESHOLD = 1e-3
#: residual a solver root must reach on the Herglotz branch
SOLVER_TOL = 1e-10
#: offset below the real axis for the edge scan: it keeps the edge's epsilon-smearing below
#: the bisection ``tol``
_EDGE_SCAN_EPS = 1e-9
#: density that separates inside from outside the support in the edge scan
_EDGE_SCAN_DENSITY = 1e-4
#: steps of the short continuation, then of the long one for the points it leaves
_CONTINUATION_STEPS = (3, 30)


@dataclass(frozen=True)
class SpectrumModel:
    """Limiting spectrum: weighted real atoms.

    ``atoms`` is a list of ``(location, weight)`` pairs with weights summing
    to one.  ``q`` records the minor fraction when the model describes a
    minor's nonzero spectrum.
    """

    atoms: tuple
    q: float = 1.0

    def __post_init__(self):
        atoms = tuple((float(a), float(w)) for a, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("model needs at least one atom")
        for field, values in zip(("locations", "weights"), zip(*atoms)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"atom {field} must be finite, got {list(values)}")
        if any(w <= 0 for _, w in atoms):
            raise ValueError("atom weights must be positive")
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom weights sum to {total!r}, expected 1")
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
        return json.dumps({"atoms": [[a, w] for a, w in self.atoms], "q": self.q})

    @classmethod
    def from_json(cls, text: str) -> "SpectrumModel":
        """Parse a model; a wrong JSON type, or a non-empty ``"spikes"`` list, is refused."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"model must be a JSON object, got {type(obj).__name__}")
        if obj.get("spikes"):
            raise ValueError("model field 'spikes' is not supported; omit it or give []")
        atoms = obj.get("atoms", [])
        if not (isinstance(atoms, list)
                and all(isinstance(pair, list) and len(pair) == 2 for pair in atoms)):
            raise ValueError(f"model field 'atoms' must be a list of [location, weight] "
                             f"pairs, got {atoms!r}")
        return cls(atoms=tuple((_json_number(a, "atom location"), _json_number(w, "atom weight"))
                               for a, w in atoms),
                   q=_json_number(obj.get("q", 1.0), "model field 'q'"))


def _json_number(value, name: str):
    """``value`` if JSON parsed it as a number, else ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


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


def stieltjes_atomic(model: SpectrumModel, w, deriv: bool = False):
    """Transform ``sum weight/(w - atom)`` of the atomic measure at scalar or array ``w``.

    A scalar gives a Python ``complex``.  ``deriv`` adds the derivative
    ``-sum weight/(w - atom)^2``: ``(transform, derivative)``.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(w.imag == 0):
        raise ValueError("stieltjes_atomic requires Im(w) != 0")
    diff = w[..., None] - model._locs
    g = np.sum(model._weights / diff, axis=-1)
    g = g if w.ndim else complex(g)
    return (g, -np.sum(model._weights / diff ** 2, axis=-1)) if deriv else g


# ---------------------------------------------------------------------------
# closed-form semicircle quantities
# ---------------------------------------------------------------------------

def semicircle_stieltjes(z: complex, t: float) -> complex:
    """Transform of the semicircle of radius ``2 sqrt(t)``.

    The branch is fixed by ``G ~ 1/z`` at infinity; approaching the axis from
    below inside the bulk yields ``Im(G) = +pi * rho``.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    # sqrt(z^2 - R^2) with its cut on [-R, R]: Im follows Im(z)
    radius = 2.0 * np.sqrt(t)
    return (z - np.sqrt(z - radius) * np.sqrt(z + radius)) / (2.0 * t)


def semicircle_density(lam, t: float):
    """Density ``sqrt((4t - lam^2)_+) / (2 pi t)`` (zero outside the support)."""
    if t <= 0:
        raise ValueError("t must be > 0")
    lam = np.asarray(lam, dtype=float)
    val = np.sqrt(np.maximum(4.0 * t - lam * lam, 0.0)) / (2.0 * np.pi * t)
    return val if val.ndim else float(val)


def _semicircle_root(x, radius: float):
    """``sqrt(radius^2 - x^2)`` at ``x`` clipped to ``[-radius, radius]``.

    Written as ``sqrt((radius - x)(radius + x))``: the product never rounds
    below zero and keeps its relative accuracy at the edges, where
    ``radius^2 - x^2`` cancels.  Angles ``arcsin(x / radius)`` are taken
    as ``arctan2(x, root)`` from this root: ``arcsin`` of a rounded ratio
    near 1 is off by the square root of the rounding, ~1e-8.
    """
    x = np.clip(x, -radius, radius)
    return np.sqrt((radius - x) * (radius + x))


def semicircle_tail_mass(lam, t: float):
    """Spectral mass above ``lam`` under the radius ``2 sqrt(t)`` semicircle (vectorized)."""
    if t <= 0:
        raise ValueError("t must be > 0")
    r = 2.0 * np.sqrt(t)
    lam = np.clip(np.asarray(lam, dtype=float), -r, r)
    root = _semicircle_root(lam, r)
    val = 0.5 - lam * root / (4.0 * np.pi * t) - np.arctan2(lam, root) / np.pi
    return val if val.ndim else float(val)


def _pole_pair_bin_integrals(x, r1: complex, r2: complex, radius: float):
    """Integral of ``S / ((x - r1)(x - r2))`` over each bin of ``x`` in ``[-R, R]``.

    With ``R = radius``, ``S = sqrt(R^2 - x^2)`` and ``theta = arcsin(x/R)``,
    a single pole ``r`` off the support has

        int S/(x - r) dx = S - r theta + 2 tau arctan(v),
        v = (r x - R^2) / (R (x - r) + tau S),

    where ``tau = -sqrt(r - R) sqrt(r + R)`` is the branch of
    ``-sqrt(r^2 - R^2)`` that tends to ``-r`` at infinity.  It is analytic
    off ``[-R, R]`` and conjugate-symmetric, and for a real pole ``v`` stays
    in ``[-1, 1]`` (``2 arctan(v)`` is the angle with sine
    ``-sign(r) (r x - R^2) / (R |x - r|)``).  The pair enters through the
    divided difference of two such terms.  Its pieces that cancel as
    ``r2 -> r1`` are divided out in closed form:
    ``dtau = (tau1 - tau2) / (r1 - r2) = (r1 + r2) / (tau1 + tau2)`` and
    ``(v1 - v2) / (r1 - r2) = S (x tau2 - R S + dtau (R^2 - x r2)) / (M1 M2)``
    with ``M`` the denominator of ``v``.  The result stays accurate as a
    conjugate pair closes on the real axis, as real poles merge, and at
    ``r1 = r2`` (the double pole ``S / (x - r)^2``).

    Near a real pole just outside the support the terms grow like
    ``r / tau``, so across a bin ``[a, c]`` the angle and the ``arctan(v1)``
    term are not differenced but taken as one arctangent each, with the
    factor ``c - a`` divided out in closed form.

    The arctangents stayed on one branch over the whole support in 30,000
    random bins checked against quadrature: the pole families of the GOE
    kernel and the spike-bulk coupling, conjugate pairs anywhere off the
    support, and real pairs.  The log form ``log(u - u1) - log(u - u2)`` in
    ``u = tan(theta/2)`` is continuous too, but loses ~1e-8 relative as the
    poles near the real axis.
    """
    root = _semicircle_root(x, radius)
    tau1 = -np.sqrt(r1 - radius) * np.sqrt(r1 + radius)
    tau2 = -np.sqrt(r2 - radius) * np.sqrt(r2 + radius)
    # (tau1 - tau2) / (r1 - r2) from whichever side does not cancel
    if abs(tau1 + tau2) >= abs(tau1 - tau2):
        dtau = (r1 + r2) / (tau1 + tau2)
    else:
        dtau = (tau1 - tau2) / (r1 - r2)
    m1 = radius * (x - r1) + tau1 * root
    m2 = radius * (x - r2) + tau2 * root
    v1 = (r1 * x - radius * radius) / m1
    v2 = (r2 * x - radius * radius) / m2
    dv = root * (x * tau2 - radius * root + dtau * (radius * radius - x * r2)) / (m1 * m2)
    # (arctan(v1) - arctan(v2)) / (r1 - r2)
    darc = dv / (1.0 + v1 * v2)
    if r1 != r2:
        darc = np.arctan((r1 - r2) * darc) / (r1 - r2)

    a, c, s_a, s_c = x[:-1], x[1:], root[:-1], root[1:]
    # S_a - S_c = (c - a) ds and c S_a - a S_c = (c - a) (c ds + S_c)
    ds = np.divide(c + a, s_a + s_c, out=np.zeros_like(a), where=s_a + s_c > 0)
    dtheta = np.arctan2((c - a) * (c * ds + s_c), s_a * s_c + a * c)
    # arctan(v1) across a bin: arctan((v_c - v_a) / (1 + v_a v_c)) with
    # v_c - v_a = (c - a) dv1, moved onto the plain difference's branch;
    # that difference stays where 1 + v_a v_c is small and nothing cancels
    dv1 = ((tau1 * (r1 * (c * ds + s_c) - radius * radius * ds) - radius * tau1 * tau1)
           / (m1[:-1] * m1[1:]))
    plain = np.diff(np.arctan(v1))
    den = 1.0 + v1[:-1] * v1[1:]
    usable = np.abs(den) > 0.5
    arc1 = np.arctan((c - a) * dv1 / np.where(usable, den, 1.0))
    arc1 = np.where(usable, arc1 + np.pi * np.round((plain - arc1).real / np.pi), plain)
    return -dtheta + 2.0 * dtau * arc1 + 2.0 * tau2 * np.diff(darc)


def semicircle_pole_integral(edges, t: float, r1: complex, r2: complex) -> np.ndarray:
    """Integral of ``rho_t(x) / ((x - r1)(x - r2))`` over each bin of ``edges``.

    ``r1`` and ``r2`` are the roots of a real quadratic: a complex-conjugate
    pair, or two real poles off the support ``[-2 sqrt(t), 2 sqrt(t)]``
    (equal for a double pole).  The bins are clipped to the support, where
    ``rho_t`` vanishes outside, and integrated in closed form
    (:func:`_pole_pair_bin_integrals`).  Raises
    ``DomainError`` when a real pole lies on the support, where the
    integrand's denominator vanishes.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    radius = 2.0 * np.sqrt(t)
    r1, r2 = complex(r1), complex(r2)
    for r in (r1, r2):
        if r.imag == 0 and abs(r.real) <= radius:
            raise DomainError(f"pole {r.real!r} lies on the semicircle support "
                              f"[-{radius!r}, {radius!r}]")
    x = np.clip(np.asarray(edges, dtype=float), -radius, radius)
    return _pole_pair_bin_integrals(x, r1, r2, radius).real / (2.0 * np.pi * t)


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

def _newton(model, z, t_shift, g, max_iter=60, tol=1e-13):
    # Newton on F(g) = g - G0(z - t_shift g) from a copy of g; each point
    # stops once |F| < tol or F' = 0
    g = g.copy()
    live = np.arange(g.size)
    for _ in range(max_iter):
        g0, dg0 = stieltjes_atomic(model, z[live] - t_shift * g[live], deriv=True)
        f = g[live] - g0
        fp = 1.0 + t_shift * dg0
        step = ~(np.abs(f) < tol) & (fp != 0)
        live = live[step]
        if not live.size:
            break
        g[live] -= f[step] / fp[step]
    return g


def _misses(model, z, t_shift, g):
    """Residual of each root, and whether it misses ``SOLVER_TOL`` or the Herglotz sign."""
    residual = np.abs(g - stieltjes_atomic(model, z - t_shift * g))
    return residual, ~((residual < SOLVER_TOL) & (np.sign(g.imag) == -np.sign(z.imag)))


def _solve_shifted(model: SpectrumModel, z, t_shift: float):
    """Solve ``G = G0(z - t_shift G)`` on the Herglotz branch at each point of ``z``.

    ``z`` is a scalar (giving a Python ``complex``) or an array.  Masked
    Newton runs from ``G0(z)`` at all points at once.  The points whose root
    misses ``SOLVER_TOL`` or the Herglotz sign (near cusps and edges) restart
    from deep in their half-plane and walk ``Im z`` down to the target in
    ``_CONTINUATION_STEPS[0]`` geometric steps, one masked Newton solve per
    step for all of them; the points that still miss walk again in
    ``_CONTINUATION_STEPS[1]`` steps.  ``ConvergenceError`` names the first
    point that still fails and counts them all.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    if np.any(flat.imag == 0):
        raise ValueError("solver requires Im(z) != 0; pass lam - i*eps for boundary points")
    g = stieltjes_atomic(model, flat)
    if t_shift != 0.0:
        g = _newton(model, flat, t_shift, g)
        residual, bad = _misses(model, flat, t_shift, g)
        for steps in _CONTINUATION_STEPS:
            if not bad.any():
                break
            g[bad] = _continuation(model, flat[bad], t_shift, steps)
            residual, bad = _misses(model, flat, t_shift, g)
        if bad.any():
            k = np.argmax(bad)
            raise ConvergenceError(
                f"implicit Stieltjes solve failed at {bad.sum()} of {flat.size} points, first "
                f"at z={complex(flat[k])}, shift={t_shift}: residual={residual[k]:.3e}")
    return complex(g[0]) if z.ndim == 0 else g.reshape(z.shape)


def _continuation(model, z, t_shift, steps):
    # from far off the axis, same half-plane as z, down to |Im z|
    sign = np.sign(z.imag)
    span = np.max(np.abs(model._locs)) + 2.0 * np.sqrt(t_shift) + 1.0
    ratio = (np.maximum(np.abs(z.imag), 1e-300) / span) ** (1.0 / steps)
    y = np.full(z.shape, span)
    g = stieltjes_atomic(model, z.real + 1j * (sign * y))
    for _ in range(steps):
        y *= ratio
        g = _newton(model, z.real + 1j * (sign * y), t_shift, g)
    return _newton(model, z, t_shift, g)


def solve_stieltjes(model: SpectrumModel, z, t: float):
    """Transform of ``A + noise(t)`` at scalar or array ``z`` for an initial spectrum ``model``."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return _solve_shifted(model, z, t)


def solve_minor_stieltjes(model: SpectrumModel, z, t: float, q: float):
    """Minor-side transform: same equation with characteristic shift ``q * t``.

    ``model`` describes the minor's *nonzero* initial spectrum (normalized to
    mass one).  With ``q = 1`` this coincides with :func:`solve_stieltjes`.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    return _solve_shifted(model, z, q * t)


# ---------------------------------------------------------------------------
# boundary values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryValues:
    """Real-axis limit of a Stieltjes evaluator: Hilbert transform and density.

    Fields are floats for one point or arrays shaped like the points.
    ``edge_flagged`` marks densities below ``EDGE_DENSITY_THRESHOLD``, too
    small for downstream inversion to divide by.
    """

    v: float | np.ndarray
    rho: float | np.ndarray
    lam: float | np.ndarray
    edge_flagged: bool | np.ndarray = False


def boundary_values(evaluator, lam, eps0: float = DEFAULT_BOUNDARY_EPS) -> BoundaryValues:
    """Extract ``(v, rho)`` at each point of ``lam`` from an evaluator of ``z -> G(z)``.

    Evaluates at ``lam - i*eps0`` and ``lam - i*eps0/2`` and Richardson
    extrapolates to the axis.  ``evaluator`` must already be bound to the
    time of interest and take an array: it is called once, on both offsets
    of every point stacked.
    """
    lam = np.asarray(lam, dtype=float)
    g1, g2 = evaluator(np.stack([lam - 1j * eps0, lam - 0.5j * eps0]))
    g = 2.0 * g2 - g1
    rho = np.maximum(g.imag / np.pi, 0.0)
    fields = (g.real, rho, lam, rho < EDGE_DENSITY_THRESHOLD)
    return BoundaryValues(*(f if lam.ndim else f.item() for f in fields))


def scan_support_edge(evaluator, inside: float, outside, tol: float = 1e-8):
    """Locate support edges of the boundary density by bisection.

    ``inside`` must have density above ``_EDGE_SCAN_DENSITY`` and each point
    of ``outside`` (scalar or array) below.  The outside points are bisected
    in lockstep, one evaluator call per step, each until its bracket is below
    ``tol``.
    """
    hi = np.array(outside, dtype=float, ndmin=1)
    rho = boundary_values(evaluator, np.append(inside, hi), eps0=_EDGE_SCAN_EPS).rho
    if rho[0] <= _EDGE_SCAN_DENSITY:
        raise ValueError("'inside' point does not sit inside the support")
    if np.any(rho[1:] > _EDGE_SCAN_DENSITY):
        raise ValueError("'outside' point does not sit outside the support")
    lo = np.full(hi.shape, float(inside))
    live = np.abs(hi - lo) > tol
    while live.any():
        mid = 0.5 * (lo[live] + hi[live])
        up = boundary_values(evaluator, mid, eps0=_EDGE_SCAN_EPS).rho > _EDGE_SCAN_DENSITY
        lo[live], hi[live] = np.where(up, mid, lo[live]), np.where(up, hi[live], mid)
        live = np.abs(hi - lo) > tol
    return 0.5 * (lo + hi) if np.ndim(outside) else float(0.5 * (lo[0] + hi[0]))
