"""Spectral solver for a time-periodic viscous fluid layer coupled to a
damped elastic plate, with validation oracles and a batch CLI.

The fluid occupies a slab over a lateral torus; its bottom face is a
vibrating plate driven by the fluid traction.  Everything is discretized
in frequency space: Fourier in time and the lateral directions, Chebyshev
collocation across the layer.
"""

from .grid import TorusGrid, cheb_nodes, cheb_eval, cheb_values_to_coeffs
from .fields import (
    PlateField,
    SpectralField,
    divergence,
    dt,
    dx,
    dx3,
    forward_transform,
    gradient,
    inverse_transform,
    laplacian,
    physical_samples,
    trace_bottom,
    zeros_like_field,
)
from .norms import (
    NormSpec,
    mixed_lr_lp_norm,
    negative_norm,
    s_norm,
    sobolev_norm,
    x_norm,
    y_norm,
)
from .io import read_field, write_field
from .lift import IncompatibleDataError, LiftResult, lift_divergence, \
    lift_estimate_check
from .modes import (
    DEFAULT_PARAMS,
    LinearSolution,
    ModeSolution,
    SolverParams,
    linear_residuals,
    solve_linear_full,
    solve_mode,
)
from .halfspace import (
    ResonanceRow,
    ScanReport,
    boundedness_scan,
    halfspace_profiles,
    halfspace_residuals,
    is_resonant_lattice_point,
    lattice_multipliers,
    multiplier_M,
    q0_symbol,
    resonance_report,
    undamped_multiplier,
)
from .nonlinear import (
    DegenerateDeformationError,
    NonlinearTerms,
    PicardConfig,
    PicardDivergenceError,
    PicardResult,
    SmallnessReport,
    compose_forcing,
    compute_nonlinear_terms,
    e_matrix,
    nonlinear_bound_ratios,
    nonlinear_residual,
    picard_solve,
)
from .oracles import (
    ManufacturedCase,
    cross_validate_linear,
    embedding_ratio,
    fd_check,
    make_manufactured,
    solve_by_lift,
)

__version__ = "0.1.0"
