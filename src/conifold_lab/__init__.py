"""conifold_lab: weighted Sobolev calculus on warped-product conifolds.

Links are represented by Laplace spectra, conifolds by radial warp
profiles, and the parametric connect sum by interpolated glued warps;
norms, Laplace mode operators and extremal constants are evaluated by
quadrature and banded generalized eigensolves on graded radial meshes.
"""

from .link_spectra import Link, eigenvalues_below, link_from_string, make_link, sphere_multiplicity
from .weight_calculus import (
    EndDescriptor,
    ExceptionalWeight,
    WeightVector,
    classify_weight_region,
    conjugate_exponents,
    exceptional_weights,
    index_change,
)
from .conifold_model import (
    Cap,
    Component,
    ConifoldModel,
    EndSpec,
    GluedFamily,
    check_compatible,
    cutoff_eta,
    dumbbell_family,
    family_from_config,
    load_family,
    load_model,
    model_from_config,
    neck_convergence_check,
    parametric_connect_sum,
    preset_model,
    spindle_family,
    warp_preset,
)
from .weighted_calc import (
    ModeFunction,
    RadialGrid,
    WeightSpec,
    banach_algebra_check,
    build_grid,
    bump_family,
    embedding_constant_estimate,
    gradient_norm,
    holder_check,
    rescaling_invariance_check,
    weighted_ck_norm,
    weighted_sobolev_norm,
)
from .spectral_laplace import (
    assemble_mode_operator,
    invertibility_constant,
    kernel_dimension_scan,
    poincare_constant,
    restricted_invertibility_compact,
    weight_crossing_kernel,
)
from .experiments import ExperimentConfig, SweepResult, emit, run

__version__ = "0.1.0"
