"""Exterior Dirichlet constructions for the special Lagrangian equation.

Submodules:

  symfun     elementary and generalized symmetric polynomials, exclusion
             variants, rank-one updates (sigma values, and the phase and
             level of stacked rank-one Hessians), Newton margins,
             combinatorial sums
  phasepoly  phase polynomials along rays, level values, ray roots
  weights    extremal direction weights, decay exponents, admissibility
  radial     the radial profile equation solved by two independent routes,
             tail integrals, decay fits
  subsol     generalized radially symmetric functions and the pointwise
             subsolution verification grid
  cli        the command line front end
"""

from .symfun import (
    NewtonReport,
    elem_sym,
    elem_sym_all,
    elem_sym_excl,
    elem_sym_excl_all,
    elem_sym_stack,
    gen_sym,
    gen_sym_table,
    newton_check,
    product_decomposition,
    rank_one_phase_level,
    signed_odd_binomial_sum,
    sigma_rank_one,
)
from .phasepoly import (
    LEVEL_TOL,
    PhaseSpec,
    RayRootCertificate,
    alternating_parts,
    alternating_parts_weighted,
    level_value,
    level_value_weighted,
    phase,
    phase_coeffs,
    ray_degree,
    ray_derivative,
    ray_poly,
    ray_roots,
    ray_wronskian,
)
from .weights import (
    Admissibility,
    WeightProfile,
    classify,
    complete_to_phase,
    decay_exponent,
    direction_weight,
    epsilon_family,
    iso_point,
    weight_bounds,
    weight_profile,
)
from .radial import (
    PartialFractions,
    ProfileSolution,
    decay_fit,
    partial_fractions,
    solve_profile,
    tail_amplitude,
    tail_integral,
)
from .subsol import (
    ShellGrid,
    SubsolutionSpec,
    VerificationReport,
    ellipsoid_radius,
    hessian,
    hessian_sigma,
    normalize_problem,
    radial_value,
    sphere_directions,
    verify_subsolution,
)

__all__ = [
    "NewtonReport", "elem_sym", "elem_sym_all", "elem_sym_excl",
    "elem_sym_excl_all", "elem_sym_stack", "gen_sym", "gen_sym_table", "newton_check",
    "product_decomposition", "rank_one_phase_level", "signed_odd_binomial_sum",
    "sigma_rank_one",
    "LEVEL_TOL", "PhaseSpec", "RayRootCertificate", "alternating_parts",
    "alternating_parts_weighted", "level_value", "level_value_weighted",
    "phase", "phase_coeffs", "ray_degree", "ray_derivative", "ray_poly",
    "ray_roots", "ray_wronskian",
    "Admissibility", "WeightProfile", "classify", "complete_to_phase",
    "decay_exponent", "direction_weight", "epsilon_family", "iso_point",
    "weight_bounds", "weight_profile",
    "PartialFractions", "ProfileSolution", "decay_fit", "partial_fractions",
    "solve_profile", "tail_amplitude", "tail_integral",
    "ShellGrid", "SubsolutionSpec", "VerificationReport", "ellipsoid_radius",
    "hessian", "hessian_sigma", "normalize_problem", "radial_value",
    "sphere_directions", "verify_subsolution",
]

__version__ = "0.1.0"
