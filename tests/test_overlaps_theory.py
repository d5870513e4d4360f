from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from minor_overlaps import (
    DomainError,
    FiniteInitialTransform,
    NullInitialTransform,
    PoleError,
    bernoulli_spike_overlap,
    derive_stream,
    eig_sym,
    evolve_double_stieltjes,
    initial_minor_spike_from_position,
    initial_spike_from_position,
    interlace_interval,
    kernel_goe_value,
    kernel_peak_location,
    overlap_kernel,
    sample_goe,
    semicircle_density,
    semicircle_quantile,
    semicircle_stieltjes,
    spike_bulk_mass,
    spike_bulk_overlap,
    spike_spike_overlap,
    spike_trajectories,
)
from minor_overlaps.freeprob import (
    BoundaryValues,
    SpectrumModel,
    boundary_values,
    solve_minor_stieltjes,
    solve_stieltjes,
)
from minor_overlaps.spectral import overlap_columns

TWO_ATOMS = SpectrumModel(atoms=((-1.0, 0.5), (1.0, 0.5)))


def _semicircle_evaluators(t, q):
    return (lambda z: semicircle_stieltjes(z, t)), (lambda z: semicircle_stieltjes(z, q * t))


# ---------------------------------------------------------------------------
# initial transforms and the evolved double transform
# ---------------------------------------------------------------------------

def test_null_transform_is_exact():
    s0 = NullInitialTransform(0.6)
    z, zt = 0.3 - 0.7j, -0.2 + 0.5j
    assert s0(z, zt) == 0.6 / (z * zt)


def test_finite_transform_conjugate_symmetry():
    x = sample_goe(30, 1.0, derive_stream(41, 0))
    s0 = FiniteInitialTransform.from_matrix(x, 12)
    z, zt = 0.4 - 0.6j, -0.1 + 0.8j
    assert s0(np.conj(z), np.conj(zt)) == pytest.approx(np.conj(s0(z, zt)), rel=1e-12)


def test_finite_transform_matches_null_at_large_arguments():
    # leading behaviour is q / (z zt) regardless of the matrix
    x = sample_goe(40, 1.0, derive_stream(41, 1))
    s0 = FiniteInitialTransform.from_matrix(x, 20)
    z, zt = 200.0 - 5j, -150.0 + 4j
    assert s0(z, zt) == pytest.approx(0.5 / (z * zt), rel=5e-2)


def test_evolved_transform_at_zero_time_is_initial():
    s0 = NullInitialTransform(0.5)
    z, zt = 0.3 - 0.7j, -0.2 + 0.5j
    assert evolve_double_stieltjes(s0, z, zt, 0.0, 0.5) == s0(z, zt)


def test_evolved_transform_null_case_closed_form():
    q, t = 0.5, 1.0
    full_ev, minor_ev = _semicircle_evaluators(t, q)
    s0 = NullInitialTransform(q)
    rng = np.random.default_rng(5)
    for _ in range(25):
        z = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.05, 1.0))
        zt = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.05, 1.0))
        got = evolve_double_stieltjes(s0, z, zt, t, q, full_ev, minor_ev)
        y = z - t * full_ev(z)
        yt = zt - q * t * minor_ev(zt)
        assert abs(got - q / (y * yt - q * t)) < 1e-12


def test_evolved_transform_conjugate_arguments():
    q, t = 0.5, 1.0
    full_ev, minor_ev = _semicircle_evaluators(t, q)
    s0 = NullInitialTransform(q)
    z, zt = 0.3 - 0.7j, -0.2 + 0.5j
    a = evolve_double_stieltjes(s0, z, zt, t, q, full_ev, minor_ev)
    b = evolve_double_stieltjes(s0, np.conj(z), np.conj(zt), t, q, full_ev, minor_ev)
    assert b == pytest.approx(np.conj(a), rel=1e-12)


def test_evolved_transform_pole_is_reported():
    t = 1.0
    full_ev, minor_ev = _semicircle_evaluators(t, 0.5)
    with pytest.raises(PoleError):
        evolve_double_stieltjes(lambda z, zt: 1.0 / t, 0.3 - 0.5j, 0.2 - 0.5j, t, 0.5,
                                full_ev, minor_ev)


def test_evolved_transform_against_finite_size_average():
    # self-averaging: the finite-size double transform concentrates on the limit
    n_dim, q, t = 400, 0.5, 1.0
    n = int(round(q * n_dim))
    z, zt = 0.3 - 0.7j, -0.2 + 0.5j
    trials = 40
    vals = np.empty(trials, dtype=complex)
    for m in range(trials):
        x = sample_goe(n_dim, t, derive_stream(909, m))
        full, minor = eig_sym(x), eig_sym(x[:n, :n])
        u = 1.0 / (zt - minor.eigenvalues)
        v = 1.0 / (z - full.eigenvalues)
        vals[m] = (u @ overlap_columns(full, minor, np.arange(n_dim)) @ v) / n_dim
    full_ev, minor_ev = _semicircle_evaluators(t, q)
    limit = evolve_double_stieltjes(NullInitialTransform(q), z, zt, t, q, full_ev, minor_ev)
    for part in (np.real, np.imag):
        se = part(vals).std(ddof=1) / np.sqrt(trials)
        assert abs(part(vals).mean() - part(limit)) < 3 * se


# ---------------------------------------------------------------------------
# kernel: closed form, general inversion, normalization, peak
# ---------------------------------------------------------------------------

def test_kernel_goe_direct_values():
    assert kernel_goe_value(0.0, 0.0, 1.0, 0.5) == pytest.approx(2.0)
    assert kernel_goe_value(0.0, 1.0, 1.0, 0.5) == pytest.approx(0.5 / 0.75)


def test_kernel_goe_symmetry_and_peaking_limit():
    rng = np.random.default_rng(6)
    for _ in range(50):
        q, t = rng.uniform(0.1, 0.95), rng.uniform(0.2, 2.0)
        mu = rng.uniform(-1, 1) * 2 * np.sqrt(q * t)
        lam = rng.uniform(-1, 1) * 2 * np.sqrt(t)
        assert kernel_goe_value(-mu, -lam, t, q) == pytest.approx(
            kernel_goe_value(mu, lam, t, q), rel=1e-12)
    # q -> 1 with mu != lam: the kernel collapses onto the diagonal
    assert kernel_goe_value(0.0, 1.0, 1.0, 1.0 - 1e-6) < 1e-5


def test_general_kernel_matches_closed_form_on_grid():
    q, t = 0.5, 1.0
    full_ev, minor_ev = _semicircle_evaluators(t, q)
    s0 = NullInitialTransform(q)
    mus = np.linspace(-0.9 * 2 * np.sqrt(q * t), 0.9 * 2 * np.sqrt(q * t), 21)
    lams = np.linspace(-0.9 * 2 * np.sqrt(t), 0.9 * 2 * np.sqrt(t), 21)
    values = overlap_kernel(s0, boundary_values(minor_ev, mus[:, None]),
                            boundary_values(full_ev, lams), t, q)
    assert values.shape == (mus.size, lams.size)
    assert np.max(np.abs(values - kernel_goe_value(mus[:, None], lams, t, q))) < 1e-8


def test_general_kernel_refuses_edge_points():
    q, t = 0.5, 1.0
    full_ev, minor_ev = _semicircle_evaluators(t, q)
    s0 = NullInitialTransform(q)
    edge = boundary_values(full_ev, 2.0 * np.sqrt(t) - 1e-9)
    with pytest.raises(DomainError):
        overlap_kernel(s0, boundary_values(minor_ev, 0.0), edge, t, q)
    # an array of points is not refused as a whole: NaN at the edge point only
    both = boundary_values(full_ev, np.array([0.5, 2.0 * np.sqrt(t) - 1e-9]))
    w = overlap_kernel(s0, boundary_values(minor_ev, 0.0), both, t, q)
    assert w[0] == pytest.approx(kernel_goe_value(0.0, 0.5, t, q), rel=1e-8)
    assert np.isnan(w[1])


def test_kernel_row_normalization_by_quadrature():
    for (mu_frac, t, q) in [(0.0, 1.0, 0.5), (0.4, 1.0, 0.5), (-0.7, 1.0, 0.9),
                            (0.2, 0.5, 0.1), (0.6, 2.0, 0.7)]:
        mu = mu_frac * 2 * np.sqrt(q * t)
        r = 2 * np.sqrt(t)
        val, _ = quad(lambda l: kernel_goe_value(mu, l, t, q) * semicircle_density(l, t),
                      -r, r, limit=200)
        assert val == pytest.approx(1.0, abs=1e-5)


@settings(max_examples=40)
@given(q=st.floats(0.05, 0.95), t=st.floats(0.2, 3.0),
       mu_frac=st.floats(-0.95, 0.95), lam_frac=st.floats(-0.95, 0.95))
def test_kernel_rows_and_columns_normalize(q, t, mu_frac, lam_frac):
    # a full eigenvector spreads its whole mass over the minor's, and back:
    # int W(mu, .) rho_t = 1 over the full bulk, int W(., lam) rho_qt = 1 over the minor's
    r, rm = 2 * np.sqrt(t), 2 * np.sqrt(q * t)
    mu, lam = mu_frac * rm, lam_frac * r
    row, _ = quad(lambda l: kernel_goe_value(mu, l, t, q) * semicircle_density(l, t),
                  -r, r, limit=200)
    column, _ = quad(lambda m: kernel_goe_value(m, lam, t, q) * semicircle_density(m, q * t),
                     -rm, rm, limit=200)
    assert row == pytest.approx(1.0, abs=1e-9)
    assert column == pytest.approx(1.0, abs=1e-9)


def _split_points(values, parts):
    """Boundary values at the concatenated points of ``parts``, split back into one per part."""
    ends = np.cumsum([len(part) for part in parts])[:-1]
    return [BoundaryValues(*fields)
            for fields in zip(*(np.split(f, ends) for f in astuple(values)))]


def test_general_kernel_against_binned_monte_carlo():
    # two-atom initial spectrum: inversion must match finite-size overlaps.
    # mu0 sits just inside the minor's inner band edge (its evolved spectrum
    # still has a gap around zero), so the kernel is evaluated at the
    # realized eigenvalue pairs and pairs in the refused edge zone drop out
    # of both sides.
    n_dim, q, t = 400, 0.5, 1.0
    n = int(round(q * n_dim))
    mu0, lam0, window = 0.2, 0.4, 0.12
    a_diag = np.empty(n_dim)
    a_diag[0::2] = 1.0
    a_diag[1::2] = -1.0
    a = np.diag(a_diag)

    s0 = FiniteInitialTransform.from_matrix(a, n)
    full_ev = lambda z: solve_stieltjes(TWO_ATOMS, z, t)
    minor_ev = lambda z: solve_minor_stieltjes(TWO_ATOMS, z, t, q)

    trials = 120
    blocks, mus, lams = [], [], []
    for m in range(trials):
        x = a + sample_goe(n_dim, t, derive_stream(404, m))
        full, minor = eig_sym(x), eig_sym(x[:n, :n])
        grid = overlap_columns(full, minor, np.arange(n_dim))
        mu, lam = minor.eigenvalues, full.eigenvalues
        isel = np.flatnonzero(np.abs(mu - mu0) <= window / 2)
        jsel = np.flatnonzero(np.abs(lam - lam0) <= window / 2)
        blocks.append(n_dim * grid[np.ix_(isel, jsel)])
        mus.append(mu[isel])
        lams.append(lam[jsel])
    # every trial's points in one solver call per side: each point solves as it would alone
    minor_b = _split_points(boundary_values(minor_ev, np.concatenate(mus)), mus)
    full_b = _split_points(boundary_values(full_ev, np.concatenate(lams)), lams)
    diffs = []
    for block, minor_k, full_k in zip(blocks, minor_b, full_b):
        # every (i, j) pair at once; refused pairs come back NaN and drop out
        minor_k = BoundaryValues(*(f[:, None] for f in astuple(minor_k)))
        pair_diffs = block - overlap_kernel(s0, minor_k, full_k, t, q)
        pair_diffs = pair_diffs[~np.isnan(pair_diffs)]
        if pair_diffs.size:
            diffs.append(np.mean(pair_diffs))
    diffs = np.array(diffs)
    assert diffs.size > trials // 2
    se = diffs.std(ddof=1) / np.sqrt(diffs.size)
    assert abs(diffs.mean()) < 2.576 * se


def test_peak_location_examples():
    assert kernel_peak_location(0.0, 1.0, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert kernel_peak_location(0.7, 2.0, 1.0) == 0.7
    assert kernel_peak_location(1.0, 1.0, 0.9) == pytest.approx(1.054, abs=1e-3)


def test_peak_location_against_polynomial_roots():
    rng = np.random.default_rng(7)
    for _ in range(60):
        q, t = rng.uniform(0.1, 0.95), rng.uniform(0.3, 2.0)
        mu = rng.uniform(-0.98, 0.98) * 2 * np.sqrt(q * t)
        got = kernel_peak_location(mu, t, q)
        coeffs = [q, 0.0, -((1 + 6 * q + q * q) * t + mu * mu), 4 * (1 + q) * t * mu]
        roots = np.roots(coeffs)
        real = np.real(roots[np.abs(np.imag(roots)) < 1e-9])
        inside = real[np.abs(real) <= 2 * np.sqrt(t) + 1e-9]
        assert inside.size == 1
        assert got == pytest.approx(inside[0], abs=1e-9)
        bound_lo, bound_hi = sorted((mu, mu / np.sqrt(q)))
        assert bound_lo - 1e-9 <= got <= bound_hi + 1e-9


def test_peak_rejects_out_of_bulk_target():
    with pytest.raises(DomainError):
        kernel_peak_location(2.5, 1.0, 0.5)


def test_interlace_interval_properties():
    lo, hi = interlace_interval(0.5, 1.0, 0.5)
    assert lo == pytest.approx(-hi, abs=1e-9)
    assert hi > 0
    # bounds tighten as q -> 1
    widths = [interlace_interval(0.3, 1.0, q)[1] - interlace_interval(0.3, 1.0, q)[0]
              for q in (0.5, 0.9, 0.99)]
    assert widths[0] > widths[1] > widths[2]
    assert widths[2] < 0.1


def test_peak_sits_inside_interlace_interval():
    t = 1.0
    for q in (0.1, 0.5, 0.9):
        for x in np.linspace(0.02, 0.98, 33):
            mu = semicircle_quantile(x, t, radius_scale=np.sqrt(q))
            peak = kernel_peak_location(mu, t, q)
            lo, hi = interlace_interval(x, t, q)
            assert lo - 1e-9 <= peak <= hi + 1e-9


# ---------------------------------------------------------------------------
# spikes
# ---------------------------------------------------------------------------

def test_spike_trajectory_values_and_flags():
    traj = spike_trajectories(2.0, 1.0)
    assert traj.full_position == pytest.approx(2.5)
    assert traj.full_valid
    at_critical = spike_trajectories(1.5, 1.5 ** 2)
    assert at_critical.full_position == pytest.approx(2 * 1.5)
    assert not at_critical.full_valid

    fig3 = spike_trajectories(1.0, 0.2, minor_spike=0.3, q=0.3)
    assert fig3.minor_position == pytest.approx(0.3 + 0.2)
    assert fig3.full_valid and fig3.minor_valid
    late = spike_trajectories(1.0, 0.35, minor_spike=0.3, q=0.3)
    assert not late.minor_valid


def test_spike_trajectory_inversion():
    lam, t, q, mu = 1.7, 0.9, 0.4, 0.8
    traj = spike_trajectories(lam, t, minor_spike=mu, q=q)
    assert initial_spike_from_position(traj.full_position, t) == pytest.approx(lam, rel=1e-12)
    assert initial_minor_spike_from_position(traj.minor_position, t, q) == pytest.approx(
        mu, rel=1e-12)


def test_spike_spike_overlap_values():
    assert spike_spike_overlap(1.0, 0.3, 0.3, 0.0) == pytest.approx(0.3)
    assert spike_spike_overlap(1.0, 0.3, 0.3, 0.2) == pytest.approx(0.125)
    with pytest.raises(DomainError, match="full-matrix spike"):
        spike_spike_overlap(0.5, 0.4, 0.5, 0.3)
    with pytest.raises(DomainError, match="minor spike"):
        spike_spike_overlap(2.0, 0.3, 0.5, 0.2)


def test_spike_spike_overlap_ode_residual():
    # central differences of log f against the three drift rates
    lam, mu, q = 1.0, 0.3, 0.3
    h = 2e-6
    for t in np.linspace(0.01, 0.25, 25):
        fp = np.log(spike_spike_overlap(lam, mu, q, t + h))
        fm = np.log(spike_spike_overlap(lam, mu, q, t - h))
        deriv = (fp - fm) / (2 * h)
        rate = (1.0 / (t - lam ** 2) + q / (q * t - mu ** 2)
                + 2 * q / (lam * mu - q * t))
        assert abs(deriv - rate) < 1e-7


def test_spike_spike_overlap_stays_in_unit_interval():
    rng = np.random.default_rng(8)
    for _ in range(200):
        lam = rng.uniform(0.3, 3.0)
        mu = rng.uniform(0.1, 1.0) * lam
        q = rng.uniform(0.05, 1.0)
        t = rng.uniform(0.0, 1.0) * min(lam ** 2, mu ** 2 / q) * 0.999
        val = spike_spike_overlap(lam, mu, q, t)
        assert 0.0 < val <= 1.0 + 1e-12


def test_spike_bulk_overlap_values():
    assert spike_bulk_overlap(3.0, 0.7, 1.0, 0.0) == pytest.approx(8.3 / 94.09)
    assert spike_bulk_overlap(2.0, 0.5, 1e-9, 0.0) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(DomainError):
        spike_bulk_overlap(1.0, 0.5, 1.5, 0.0)


def test_spike_bulk_overlap_monotone_in_mu():
    q, t, lam = 0.7, 1.0, 3.0
    mus = np.linspace(-2 * np.sqrt(q * t), 2 * np.sqrt(q * t), 41)
    vals = spike_bulk_overlap(lam, q, t, mus)
    assert np.all(np.diff(vals) > 0)


def test_spike_bulk_curve_ordering_in_spike_position():
    # the closer the initial spike sits to the bulk edge, the larger the
    # overlaps on the top minor eigenvectors
    q, t = 0.7, 1.0
    mu_top = 0.95 * 2 * np.sqrt(q * t)
    g_near = spike_bulk_overlap(2.5, q, t, mu_top)
    g_mid = spike_bulk_overlap(3.0, q, t, mu_top)
    g_far = spike_bulk_overlap(5.0, q, t, mu_top)
    assert g_far < g_mid < g_near


def test_spike_mass_values_and_quadrature_identity():
    assert spike_bulk_mass(3.0, 0.7, 1.0) == pytest.approx(0.7 / 9.0)
    assert spike_bulk_mass(3.0, 0.7, 0.0) == 0.0
    for (lam, q, t) in [(3.0, 0.7, 1.0), (2.5, 0.4, 0.8), (5.0, 0.9, 2.0)]:
        r = 2 * np.sqrt(q * t)
        val, _ = quad(lambda m: spike_bulk_overlap(lam, q, t, m)
                      * semicircle_density(m, q * t), -r, r, limit=200)
        assert q * val == pytest.approx(spike_bulk_mass(lam, q, t), abs=1e-6)


def test_bernoulli_expansion_values():
    assert bernoulli_spike_overlap(100, 50, 1.0) == pytest.approx(0.5)
    assert bernoulli_spike_overlap(100, 50, 0.5) == pytest.approx(0.495)
    with pytest.raises(DomainError):
        bernoulli_spike_overlap(100, 50, 0.0)
    # leading term tends to the minor fraction
    for n_dim in (10 ** 3, 10 ** 5, 10 ** 7):
        n = int(0.3 * n_dim)
        assert bernoulli_spike_overlap(n_dim, n, 0.7) == pytest.approx(0.3, abs=20 / n_dim)
