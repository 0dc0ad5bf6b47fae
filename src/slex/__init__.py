"""Exterior Dirichlet constructions for the special Lagrangian equation.

Submodules:

  symfun     elementary and generalized symmetric polynomials, exclusion
             variants, rank-one updates (sigma values, and the phase and
             level of stacked rank-one Hessians), Newton margins,
             combinatorial sums
  phasepoly  phase polynomials, level coefficients
  weights    the selected weight chain, decay exponents, admissibility
  radial     the radial profile equation: its root-free first integral,
             two independent routes, tail integrals, decay fits
  subsol     the subsolution candidate and its pointwise verification
             grid
  cli        the command line front end

The package re-exports nothing: callers import the submodule they use
(`from slex import phasepoly`).
"""

__version__ = "0.1.0"
