"""Overlaps between eigenvectors of a noisy symmetric matrix and its principal minor.

Limiting formulas (Stieltjes-transform machinery, closed-form kernels, spike
trajectories) plus seeded Monte Carlo experiments that verify them at desk
scale.
"""

from .reports import TOOL_VERSION as __version__

from .ensembles import (
    SeedSpec,
    derive_stream,
    rank_one,
    sample_bernoulli,
    sample_goe,
    sample_path,
    split_spike_vector,
    tail_spike_vector,
    uniform_spike_vector,
)
from .errors import (
    ConvergenceError,
    DomainError,
    NumericError,
    PoleError,
)
from .freeprob import (
    BoundaryValues,
    SpectrumModel,
    boundary_values,
    leading_block_model,
    representative_matrix,
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
from .montecarlo import (
    ASpec,
    ExperimentConfig,
    ExperimentReport,
    OverlapEstimate,
    run_bernoulli,
    run_bulk_experiment,
    run_spike_bulk,
    run_spike_spike,
    spike_path_series,
)
from .overlaps_theory import (
    FiniteInitialTransform,
    NullInitialTransform,
    OverlapKernelPoint,
    bernoulli_spike_overlap,
    evolve_double_stieltjes,
    initial_minor_spike_from_position,
    initial_spike_from_position,
    interlace_interval,
    kernel_goe_value,
    kernel_peak_location,
    overlap_kernel,
    overlap_kernel_goe,
    spike_bulk_mass,
    spike_bulk_overlap,
    spike_spike_overlap,
    spike_trajectories,
)
from .probes import correlation_probe, drift_probe, drift_step_consistency
from .spectral import (
    OverlapGrid,
    SpectralDecomposition,
    check_interlacing,
    eig_sym,
    minor_size,
    overlap_grid,
    quantile_index,
)
