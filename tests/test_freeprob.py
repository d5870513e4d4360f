import numpy as np
import pytest
from scipy.integrate import quad

from minor_overlaps import (
    SpectrumModel,
    boundary_values,
    derive_stream,
    leading_block_model,
    representative_matrix,
    sample_goe,
    scan_support_edge,
    semicircle_density,
    semicircle_hilbert,
    semicircle_quantile,
    semicircle_stieltjes,
    semicircle_tail_mass,
    solve_minor_stieltjes,
    solve_stieltjes,
    stieltjes_atomic,
)

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
    assert semicircle_hilbert(0.6, 1.5) == pytest.approx(0.2)


def test_solver_matches_closed_form_on_grid():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(1e-6, 1.5))
        t = rng.uniform(0.2, 2.0)
        got = solve_stieltjes(ATOM_ZERO, z, t)
        assert abs(got - semicircle_stieltjes(z, t)) < 1e-10


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


def test_solver_against_cubic_oracle_near_cusp():
    # two symmetric atoms at t=1 develop a density cusp at zero; the solver
    # must stay on the Herglotz branch through it
    for lam in (0.0, 1e-5, 1e-4, 1e-3, 0.01, 0.5, 1.0, 2.0):
        for eps in (1e-6, 5e-7):
            got = solve_stieltjes(TWO_ATOMS, lam - 1j * eps, 1.0)
            ref = _two_atom_reference(lam, 1.0, eps)
            assert abs(got - ref) < 1e-9


def test_two_atom_density_mass_and_histogram():
    t = 1.0
    ev = lambda z: solve_stieltjes(TWO_ATOMS, z, t)

    def rho(lam):
        return boundary_values(ev, lam, t, eps0=1e-7).rho

    hi_edge = scan_support_edge(ev, 2.0, 3.5)
    lo_edge = scan_support_edge(ev, -2.0, -3.5)
    assert hi_edge == pytest.approx(-lo_edge, abs=1e-6)

    mass, _ = quad(rho, lo_edge, hi_edge, points=[-1.0, 0.0, 1.0], limit=400)
    assert mass == pytest.approx(1.0, abs=1e-6)

    # Monte Carlo eigenvalue histogram of A + noise(1) at N = 600
    n_dim, trials = 600, 30
    half = np.ones(n_dim // 2)
    a = np.diag(np.concatenate([half, -half]))
    edges = np.linspace(lo_edge, hi_edge, 21)
    counts = np.zeros(edges.size - 1)
    for m in range(trials):
        x = a + sample_goe(n_dim, t, derive_stream(606, m))
        counts += np.histogram(np.linalg.eigvalsh(x), bins=edges)[0]
    frac = counts / (n_dim * trials)
    expected = np.array([quad(rho, a_, b_, limit=200)[0]
                         for a_, b_ in zip(edges[:-1], edges[1:])])
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
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), -rng.uniform(1e-6, 1.0))
        got = solve_minor_stieltjes(ATOM_ZERO, z, t, q)
        assert abs(got - semicircle_stieltjes(z, q * t)) < 1e-10


def test_minor_support_edge_scan():
    q, t = 0.5, 1.0
    ev = lambda z: solve_minor_stieltjes(ATOM_ZERO, z, t, q)
    edge = scan_support_edge(ev, 1.0, 2.0, tol=1e-7)
    assert edge == pytest.approx(2 * np.sqrt(q * t), abs=1e-6)


def test_boundary_values_semicircle():
    ev = lambda z: semicircle_stieltjes(z, 1.0)
    b = boundary_values(ev, 0.0, 1.0)
    assert b.v == pytest.approx(0.0, abs=1e-10)
    assert b.rho == pytest.approx(1 / np.pi, abs=1e-8)
    assert not b.edge_flagged

    outside = boundary_values(ev, 3.0, 1.0)
    assert outside.rho <= 1e-8
    assert outside.v == pytest.approx((3 - np.sqrt(5)) / 2, abs=1e-8)
    assert outside.edge_flagged  # no density there: unusable for inversion


def test_boundary_values_two_atom_symmetry():
    ev = lambda z: solve_stieltjes(TWO_ATOMS, z, 1.0)
    for lam in (0.3, 0.9, 1.7):
        left = boundary_values(ev, -lam, 1.0)
        right = boundary_values(ev, lam, 1.0)
        assert left.rho == pytest.approx(right.rho, abs=1e-8)
        assert left.v == pytest.approx(-right.v, abs=1e-8)


def test_boundary_reproduces_closed_forms_inside_bulk():
    t = 1.0
    ev = lambda z: semicircle_stieltjes(z, t)
    for lam in np.linspace(-2 * np.sqrt(t) + 0.05, 2 * np.sqrt(t) - 0.05, 17):
        b = boundary_values(ev, lam, t)
        assert b.rho == pytest.approx(semicircle_density(lam, t), abs=1e-6)
        assert b.v == pytest.approx(semicircle_hilbert(lam, t), abs=1e-6)


def test_quantile_examples_and_roundtrip():
    for t in (0.3, 1.0, 2.5):
        assert semicircle_quantile(0.5, t) == pytest.approx(0.0, abs=1e-10)
        assert semicircle_quantile(0.0, t) == 2 * np.sqrt(t)
        assert semicircle_quantile(1.0, t) == -2 * np.sqrt(t)
    for x in np.linspace(0, 1, 101):
        lam = semicircle_quantile(x, 1.0)
        assert semicircle_tail_mass(lam, 1.0) == pytest.approx(x, abs=1e-9)


def test_minor_quantile_is_scaled_full_quantile():
    q, t = 0.37, 1.3
    for x in np.linspace(0.01, 0.99, 21):
        mu = semicircle_quantile(x, t, radius_scale=np.sqrt(q))
        assert mu == pytest.approx(np.sqrt(q) * semicircle_quantile(x, t), abs=1e-10)


def test_spectrum_model_json_roundtrip_and_validation():
    model = SpectrumModel(atoms=((-1.0, 0.5), (1.0, 0.5)), spikes=(3.0,), q=0.7)
    again = SpectrumModel.from_json(model.to_json())
    assert again == model
    with pytest.raises(ValueError):
        SpectrumModel(atoms=((0.0, 0.5),))
    with pytest.raises(ValueError):
        SpectrumModel(atoms=((0.0, 1.0),), spikes=(0.0,))
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


def test_leading_block_model_of_two_atoms():
    model = SpectrumModel(atoms=((-1.0, 0.5), (1.0, 0.5)))
    minor = leading_block_model(representative_matrix(model, 200, 100), 100, 0.5)
    assert minor.atoms == ((-1.0, 0.5), (1.0, 0.5))
    assert minor.q == 0.5
