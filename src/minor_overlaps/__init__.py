"""Overlaps between eigenvectors of a noisy symmetric matrix and its principal minor.

Limiting formulas (Stieltjes-transform machinery, closed-form kernels, spike
trajectories) plus seeded Monte Carlo experiments that verify them at desk
scale.
"""

from .reports import TOOL_VERSION as __version__

from .ensembles import (
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
    InputError,
    NumericError,
    PoleError,
)
from .freeprob import (
    BoundaryValues,
    SpectrumModel,
    boundary_values,
    representative_diagonal,
    scan_support_edge,
    semicircle_density,
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
    run_bernoulli_bulk,
    run_bernoulli_spike,
    run_bulk_experiment,
    run_spike_bulk,
    run_spike_spike,
    spike_path_series,
)
from .overlaps_theory import (
    FiniteInitialTransform,
    bernoulli_spike_overlap,
    evolve_double_stieltjes,
    initial_minor_spike_from_position,
    initial_spike_from_position,
    interlace_interval,
    kernel_goe_value,
    kernel_peak_location,
    overlap_kernel,
    spike_bulk_mass,
    spike_bulk_overlap,
    spike_spike_overlap,
    spike_trajectories,
)
from .probes import correlation_probe, drift_probe
from .spectral import (
    check_interlacing,
    eig_sym,
    minor_size,
    quantile_index,
)
