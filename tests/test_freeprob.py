import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from minor_overlaps import (
    ConvergenceError,
    DomainError,
    FiniteInitialTransform,
    SpectrumModel,
    boundary_values,
    derive_stream,
    representative_matrix,
    sample_goe,
    scan_support_edge,
    semicircle_density,
    semicircle_quantile,
    semicircle_stieltjes,
    semicircle_tail_mass,
    solve_minor_stieltjes,
    solve_stieltjes,
    stieltjes_atomic,
)
from minor_overlaps import freeprob
from minor_overlaps.freeprob import SOLVER_TOL, semicircle_pole_integral

ATOM_ZERO = SpectrumModel(atoms=((0.0, 1.0),))
TWO_ATOMS = SpectrumModel(atoms=((-1.0, 0.5), (1.0, 0.5)))


def _two_atom_reference(lam, t, eps=1e-9):
    """Independent oracle: Herglotz root of the cubic the transform satisfies.

    For two symmetric unit atoms, G = G0(z - tG) with G0(w) = w/(w^2-1)
    rearranges to t^2 G^3 - 2 t z G^2 + (z^2 + t - 1) G - z = 0.
    """
    z = lam - 1j * eps
    roots = np.roots([t * t, -2 * t * z, z * z + t - 1.0, -z])
    return roots[np.argmax(roots.imag)]


def test_atomic_examples():
    assert stieltjes_atomic(ATOM_ZERO, 1j) == pytest.approx(-1j)
    assert stieltjes_atomic(TWO_ATOMS, 2j) == pytest.approx(-0.4j)
    with pytest.raises(ValueError):
        stieltjes_atomic(ATOM_ZERO, 3.0)


def test_atomic_herglotz_sweep():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        locs = rng.uniform(-2, 2, size=3)
        w = rng.dirichlet([1.0, 1.0, 1.0])
        model = SpectrumModel(atoms=tuple(zip(locs, w / w.sum())))
        z = complex(rng.uniform(-3, 3), rng.uniform(0.01, 2.0))
        assert stieltjes_atomic(model, z).imag < 0
        assert stieltjes_atomic(model, np.conj(z)).imag > 0


def test_semicircle_large_argument_expansion():
    # moment expansion sum_k C_k t^k / z^(2k+1), Catalan numbers 1,1,2,5
    z, t = 100.0, 1.0
    oracle = sum(c * t ** k / z ** (2 * k + 1) for k, c in enumerate((1, 1, 2, 5)))
    assert semicircle_stieltjes(z + 0j, t) == pytest.approx(oracle, abs=1e-12)


def test_semicircle_direct_and_boundary_points():
    assert semicircle_stieltjes(1j, 1.0) == pytest.approx(1j * (1 - np.sqrt(5)) / 2)
    val = semicircle_stieltjes(0 - 1e-8j, 1.0)
    assert val == pytest.approx(1j, abs=1e-7)
    assert semicircle_stieltjes(3.0 + 0j, 1.0) == pytest.approx((3 - np.sqrt(5)) / 2)


def test_semicircle_herglotz_branch():
    rng = np.random.default_rng(1)
    for _ in range(500):
        z = complex(rng.uniform(-4, 4), rng.uniform(1e-7, 2.0))
        t = rng.uniform(0.1, 3.0)
        assert semicircle_stieltjes(z, t).imag < 0
        assert semicircle_stieltjes(np.conj(z), t).imag > 0


def test_semicircle_density_values():
    assert semicircle_density(0.0, 1.0) == pytest.approx(1 / np.pi)
    assert semicircle_density(2.0, 1.0) == 0.0
    assert semicircle_density(-2 * np.sqrt(0.5), 0.5) == 0.0
    mass, _ = quad(lambda l: semicircle_density(l, 1.0), -2, 2)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_solver_matches_closed_form_on_grid():
    rng = np.random.default_rng(2)
    for t in rng.uniform(0.2, 2.0, 4):
        z = rng.uniform(-3, 3, 20) + 1j * rng.choice([-1, 1], 20) * rng.uniform(1e-6, 1.5, 20)
        got = solve_stieltjes(ATOM_ZERO, z, t)
        assert np.all(np.abs(got - semicircle_stieltjes(z, t)) < 1e-10)


def test_solver_zero_time_returns_initial_transform():
    z = 0.4 - 0.3j
    assert solve_stieltjes(TWO_ATOMS, z, 0.0) == stieltjes_atomic(TWO_ATOMS, z)


def test_solver_residual_and_herglotz_property():
    rng = np.random.default_rng(3)
    for _ in range(150):
        locs = rng.uniform(-2, 2, size=2)
        w = rng.uniform(0.2, 0.8)
        model = SpectrumModel(atoms=((locs[0], w), (locs[1], 1.0 - w)))
        z = complex(rng.uniform(-4, 4), rng.choice([-1, 1]) * rng.uniform(1e-6, 1.0))
        t = rng.uniform(0.05, 2.0)
        g = solve_stieltjes(model, z, t)
        residual = abs(g - stieltjes_atomic(model, z - t * g))
        assert residual < 1e-10
        assert (z.imag > 0) == (g.imag < 0)


@st.composite
def _atomic_models(draw):
    k = draw(st.integers(1, 6))
    locs = draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    return SpectrumModel(atoms=tuple(zip(locs, weights / weights.sum())))


def _both_solvers(model, z, t, q):
    """(root, characteristic shift) of the full and of the minor solver."""
    return ((solve_stieltjes(model, z, t), t),
            (solve_minor_stieltjes(model, z, t, q), q * t))


@settings(max_examples=200)
@given(model=_atomic_models(), t=st.floats(0.05, 2.0), q=st.floats(0.05, 1.0),
       re=st.floats(-6.0, 6.0), im=st.floats(1e-4, 2.0), upper=st.booleans())
def test_solvers_return_herglotz_roots_on_random_models(model, t, q, re, im, upper):
    z = complex(re, im if upper else -im)
    for g, shift in _both_solvers(model, z, t, q):
        assert abs(g - stieltjes_atomic(model, z - shift * g)) < 1e-10
        assert np.sign(g.imag) == -np.sign(z.imag)


@settings(max_examples=200)
@given(model=_atomic_models(), t=st.floats(0.05, 2.0), q=st.floats(0.05, 1.0),
       scale=st.floats(100.0, 1e4), angle=st.floats(0.01, np.pi - 0.01),
       upper=st.booleans())
def test_solvers_decay_like_one_over_z(model, t, q, scale, angle, upper):
    # both evolved measures live in [-R, R], so |z G(z) - 1| <= R / (|z| - R)
    # <= 2R/|z| once |z| >= 100 R
    radius = max(abs(a) for a, _ in model.atoms) + 2.0 * np.sqrt(t)
    z = scale * radius * np.exp(1j * angle)
    z = z if upper else np.conj(z)
    for g, _ in _both_solvers(model, z, t, q):
        assert abs(z * g - 1.0) <= 2.0 * radius / abs(z)


@st.composite
def _z_arrays(draw, size=20):
    """Mixed half-planes, |Im z| log-uniform from 1e-9 to 2."""
    re = draw(st.lists(st.floats(-6.0, 6.0), min_size=size, max_size=size))
    log_im = draw(st.lists(st.floats(-9.0, np.log10(2.0)), min_size=size, max_size=size))
    upper = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return np.array(re) + 1j * np.where(upper, 1.0, -1.0) * 10.0 ** np.array(log_im)


@settings(max_examples=60)
@given(model=_atomic_models(), t=st.floats(0.05, 3.0), q=st.floats(0.05, 1.0),
       z=_z_arrays())
def test_array_solvers_return_herglotz_roots_at_every_point(model, t, q, z):
    for g, shift in _both_solvers(model, z, t, q):
        assert g.shape == z.shape
        assert np.all(np.abs(g - stieltjes_atomic(model, z - shift * g)) < SOLVER_TOL)
        assert np.all(np.sign(g.imag) == -np.sign(z.imag))


@settings(max_examples=30)
@given(model=_atomic_models(), t=st.floats(0.05, 3.0), q=st.floats(0.05, 1.0),
       z=_z_arrays(size=8))
def test_scalar_solve_is_the_array_solve_at_that_point(model, t, q, z):
    # every point takes the same Newton steps and fallback alone as in a batch
    full = solve_stieltjes(model, z, t)
    minor = solve_minor_stieltjes(model, z.reshape(2, 4), t, q).ravel()
    for k, zk in enumerate(z):
        got = solve_stieltjes(model, complex(zk), t)
        assert type(got) is complex
        assert got == full[k]
        assert solve_minor_stieltjes(model, complex(zk), t, q) == minor[k]


def test_solver_failure_names_the_first_point_and_counts_the_rest(monkeypatch):
    # no root meets a zero tolerance, so every point fails after its fallback
    monkeypatch.setattr(freeprob, "SOLVER_TOL", 0.0)
    z = np.array([0.5 - 1e-3j, 1.5 + 0.2j, -0.3 - 1e-7j])
    with pytest.raises(ConvergenceError,
                       match=r"failed at 3 of 3 points, first at z=\(0\.5-0\.001j\), "
                             r"shift=0\.7: residual="):
        solve_stieltjes(TWO_ATOMS, z, 0.7)


def test_boundary_values_and_edge_scan_take_arrays():
    ev = lambda z: solve_stieltjes(TWO_ATOMS, z, 1.0)
    lams = np.array([-3.0, -1.2, 0.0, 0.4, 2.0, 2.7])
    batch = boundary_values(ev, lams)
    for k, lam in enumerate(lams):
        one = boundary_values(ev, lam)
        assert (one.v, one.rho, one.lam, one.edge_flagged) == (
            batch.v[k], batch.rho[k], batch.lam[k], batch.edge_flagged[k])
    assert batch.edge_flagged.tolist() == [True, False, False, False, False, True]
    # the lockstep bisection of two edges ends where each edge's own bisection does
    both = scan_support_edge(ev, 0.5, np.array([-3.5, 3.5]))
    assert both.tolist() == [scan_support_edge(ev, 0.5, -3.5), scan_support_edge(ev, 0.5, 3.5)]


def test_solver_against_cubic_oracle_near_cusp():
    # two symmetric atoms at t=1 develop a density cusp at zero; the solver
    # must stay on the Herglotz branch through it
    lams = np.array([0.0, 1e-5, 1e-4, 1e-3, 0.01, 0.5, 1.0, 2.0])[:, None]
    epss = np.array([1e-6, 5e-7])
    got = solve_stieltjes(TWO_ATOMS, lams - 1j * epss, 1.0)
    for (k, e), g in np.ndenumerate(got):
        assert abs(g - _two_atom_reference(lams[k, 0], 1.0, epss[e])) < 1e-9


def test_solver_accuracy_at_two_atom_cusp():
    # |G| is about 8e-3 at the cusp, so a 5e-11 miss is a 6e-9 relative error
    z, t = complex(0.0, -5e-7), 1.0
    roots = np.roots([t * t, -2 * z * t, z * z - 1.0 + t, -z])
    herglotz = roots[roots.imag > 0]
    assert herglotz.size == 1
    assert abs(solve_stieltjes(TWO_ATOMS, z, t) - herglotz[0]) < 5e-11


def _tanh_sinh(a, b, h=1 / 16, reach=3.2):
    """Nodes and weights of the tanh-sinh rule on ``[a, b]``.

    The substitution ``x = tanh(pi/2 sinh s)`` crowds the nodes at both ends
    with double-exponentially small weights, so square-root edges and cusps
    at an end cost no accuracy.
    """
    s = h * np.arange(-round(reach / h), round(reach / h) + 1)
    u = 0.5 * np.pi * np.sinh(s)
    weights = h * 0.5 * np.pi * np.cosh(s) / np.cosh(u) ** 2
    return 0.5 * (a + b) + 0.5 * (b - a) * np.tanh(u), 0.5 * (b - a) * weights


def _bin_masses(evaluator, edges, cuts, eps0):
    """Boundary-density mass of each bin, split at ``cuts``, from one evaluator call.

    Within 1e-11 of ``scipy.integrate.quad`` over the scalar density on the
    two-atom bins below, and within 1e-10 on their total.
    """
    nodes, weights, owner = [], [], []
    for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        ends = [a, *(c for c in cuts if a < c < b), b]
        for lo, hi in zip(ends[:-1], ends[1:]):
            x, w = _tanh_sinh(lo, hi)
            nodes.append(x)
            weights.append(w)
            owner.append(np.full(x.size, k))
    x, w, bins = map(np.concatenate, (nodes, weights, owner))
    rho = boundary_values(evaluator, x, eps0=eps0).rho
    return np.bincount(bins, w * rho, minlength=edges.size - 1)


def test_two_atom_density_mass_and_histogram():
    t = 1.0
    ev = lambda z: solve_stieltjes(TWO_ATOMS, z, t)

    hi_edge = scan_support_edge(ev, 2.0, 3.5)
    lo_edge = scan_support_edge(ev, -2.0, -3.5)
    assert hi_edge == pytest.approx(-lo_edge, abs=1e-6)

    # the density has square-root edges and, at t = 1, a cusp at 0
    edges = np.linspace(lo_edge, hi_edge, 21)
    expected = _bin_masses(ev, edges, (-1.0, 0.0, 1.0), eps0=1e-7)
    assert expected.sum() == pytest.approx(1.0, abs=1e-6)

    # Monte Carlo eigenvalue histogram of A + noise(1) at N = 600
    n_dim, trials = 600, 30
    half = np.ones(n_dim // 2)
    a = np.diag(np.concatenate([half, -half]))
    counts = np.zeros(edges.size - 1)
    for m in range(trials):
        x = a + sample_goe(n_dim, t, derive_stream(606, m))
        counts += np.histogram(np.linalg.eigvalsh(x), bins=edges)[0]
    frac = counts / (n_dim * trials)
    se = np.sqrt(expected * (1 - expected) / (n_dim * trials)) + 1e-12
    # eigenvalues are strongly correlated within a draw; allow a generous
    # multiple of the multinomial scale plus discretization slack
    assert np.max(np.abs(frac - expected) / (5 * se + 0.002)) < 1.0


def test_minor_solver_reduces_to_full_at_q_one():
    z = 0.3 - 0.4j
    assert solve_minor_stieltjes(TWO_ATOMS, z, 0.8, 1.0) == pytest.approx(
        solve_stieltjes(TWO_ATOMS, z, 0.8))


def test_minor_solver_gives_scaled_semicircle():
    q, t = 0.5, 1.0
    rng = np.random.default_rng(4)
    z = rng.uniform(-2, 2, 20) - 1j * rng.uniform(1e-6, 1.0, 20)
    got = solve_minor_stieltjes(ATOM_ZERO, z, t, q)
    assert np.all(np.abs(got - semicircle_stieltjes(z, q * t)) < 1e-10)


def test_minor_support_edge_scan():
    q, t = 0.5, 1.0
    ev = lambda z: solve_minor_stieltjes(ATOM_ZERO, z, t, q)
    edge = scan_support_edge(ev, 1.0, 2.0, tol=1e-7)
    assert edge == pytest.approx(2 * np.sqrt(q * t), abs=1e-6)


def test_boundary_values_semicircle():
    ev = lambda z: semicircle_stieltjes(z, 1.0)
    b = boundary_values(ev, 0.0)
    assert b.v == pytest.approx(0.0, abs=1e-10)
    assert b.rho == pytest.approx(1 / np.pi, abs=1e-8)
    assert not b.edge_flagged

    outside = boundary_values(ev, 3.0)
    assert outside.rho <= 1e-8
    assert outside.v == pytest.approx((3 - np.sqrt(5)) / 2, abs=1e-8)
    assert outside.edge_flagged  # no density there: unusable for inversion


def test_boundary_values_two_atom_symmetry():
    ev = lambda z: solve_stieltjes(TWO_ATOMS, z, 1.0)
    lams = np.array([0.3, 0.9, 1.7])
    b = boundary_values(ev, np.stack([-lams, lams]))
    assert b.rho[0] == pytest.approx(b.rho[1], abs=1e-8)
    assert b.v[0] == pytest.approx(-b.v[1], abs=1e-8)


def test_boundary_reproduces_closed_forms_inside_bulk():
    t = 1.0
    ev = lambda z: semicircle_stieltjes(z, t)
    lams = np.linspace(-2 * np.sqrt(t) + 0.05, 2 * np.sqrt(t) - 0.05, 17)
    b = boundary_values(ev, lams)
    assert b.rho == pytest.approx(semicircle_density(lams, t), abs=1e-6)
    # the semicircle's Hilbert transform inside its bulk is lam / (2t)
    assert b.v == pytest.approx(lams / (2 * t), abs=1e-6)


def test_quantile_examples_and_roundtrip():
    for t in (0.3, 1.0, 2.5):
        assert semicircle_quantile(0.5, t) == pytest.approx(0.0, abs=1e-10)
        assert semicircle_quantile(0.0, t) == 2 * np.sqrt(t)
        assert semicircle_quantile(1.0, t) == -2 * np.sqrt(t)
    for x in np.linspace(0, 1, 101):
        lam = semicircle_quantile(x, 1.0)
        assert semicircle_tail_mass(lam, 1.0) == pytest.approx(x, abs=1e-9)


def test_tail_mass_at_and_beyond_the_support_edge():
    # the clamped edge used to take sqrt(4t - lam^2) of a few ulps below 0
    for t in np.linspace(0.05, 3.0, 2000):
        r = 2.0 * np.sqrt(t)
        assert semicircle_tail_mass(r, t) == 0.0
        assert semicircle_tail_mass(-r, t) == 1.0
        assert semicircle_tail_mass(r * (1 + 1e-15), t) == 0.0
        assert semicircle_tail_mass(10.0 + r, t) == 0.0
        assert semicircle_tail_mass(-10.0 - r, t) == 1.0
        assert np.array_equal(semicircle_tail_mass(np.array([-10.0, -r, r, 10.0]), t),
                              [1.0, 1.0, 0.0, 0.0])


def test_pole_integral_refuses_a_real_pole_on_the_support():
    edges = np.array([-1.0, 0.0, 1.0])
    for r in (0.5, 2.0, -2.0):  # inside, and on each edge, of the t = 1 support
        with pytest.raises(DomainError):
            semicircle_pole_integral(edges, 1.0, r, r)
        with pytest.raises(DomainError):
            semicircle_pole_integral(edges, 1.0, r, 3.0)
    assert np.all(semicircle_pole_integral(edges, 1.0, 2.5, 3.0) > 0)
    assert np.all(semicircle_pole_integral(edges, 1.0, 2.5, -3.0) < 0)


def test_pole_integral_keeps_its_accuracy_far_from_a_pole_at_the_edge():
    # a real double pole 4.5e-5 beyond the edge, and a bin 0.0036 R wide at
    # the far edge: the antiderivative differenced across it loses ~1e-10 relative
    t = 0.989
    radius = 2.0 * np.sqrt(t)
    r0 = radius + 4.5e-5
    a, c = -radius, -radius + 0.0036 * radius
    want, _ = quad(lambda th: (radius * np.cos(th)) ** 2 / (2 * np.pi * t)
                   / (radius * np.sin(th) - r0) ** 2,
                   np.arcsin(a / radius), np.arcsin(c / radius), epsabs=0.0, epsrel=1e-13)
    got = semicircle_pole_integral(np.array([a, c]), t, r0, r0)[0]
    assert abs(got - want) < 1e-12 * want


def test_minor_quantile_is_scaled_full_quantile():
    q, t = 0.37, 1.3
    for x in np.linspace(0.01, 0.99, 21):
        mu = semicircle_quantile(x, t, radius_scale=np.sqrt(q))
        assert mu == pytest.approx(np.sqrt(q) * semicircle_quantile(x, t), abs=1e-10)


def test_spectrum_model_json_roundtrip_and_validation():
    model = SpectrumModel(atoms=((-1.0, 0.5), (1.0, 0.5)), q=0.7)
    again = SpectrumModel.from_json(model.to_json())
    assert again == model
    assert SpectrumModel.from_json('{"atoms": [[-1.0, 0.5], [1.0, 0.5]], "spikes": [], '
                                   '"q": 0.7}') == model
    with pytest.raises(ValueError):
        SpectrumModel(atoms=((0.0, 0.5),))
    with pytest.raises(ValueError, match="spikes"):
        SpectrumModel.from_json('{"atoms": [[0.0, 1.0]], "spikes": [4.0]}')
    with pytest.raises(ValueError):
        SpectrumModel(atoms=((0.0, 1.0),), q=0.0)


def test_representative_matrix_refuses_atoms_without_entries():
    model = SpectrumModel(atoms=((0.0, 0.999), (5.0, 0.001)))
    with pytest.raises(ValueError, match=r"atom at 5.0 .* size 200"):
        representative_matrix(model, 200)
    assert np.count_nonzero(np.diag(representative_matrix(model, 1000)) == 5.0) == 1


def test_representative_matrix_refuses_atoms_outside_the_minor_block():
    model = SpectrumModel(atoms=((0.0, 0.995), (5.0, 0.005)))
    diag = np.diag(representative_matrix(model, 200))
    assert np.flatnonzero(diag == 5.0).tolist() == [100]
    assert np.array_equal(np.diag(representative_matrix(model, 200, 101)), diag)
    with pytest.raises(ValueError, match=r"atom at 5.0 .* leading 100x100 block at size 200"):
        representative_matrix(model, 200, 100)


def test_minor_model_of_two_atoms():
    # the minor's initial spectrum is read off the initial transform's block eigenvalues
    model = SpectrumModel(atoms=((-1.0, 0.5), (1.0, 0.5)))
    s0 = FiniteInitialTransform.from_matrix(representative_matrix(model, 200, 100), 100)
    minor = SpectrumModel.from_eigenvalues(s0.minor_evals, q=0.5)
    assert minor.atoms == ((-1.0, 0.5), (1.0, 0.5))
    assert minor.q == 0.5
